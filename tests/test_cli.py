"""Command-line interface tests: outputs, exit codes, config precedence."""
import shutil
import xml.etree.ElementTree as ET

import pytest

from qnnae import cli, dataio, mlp


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def xor_csv(tmp_path):
    path = tmp_path / "xor.csv"
    dataio.write_csv(dataio.make_synthetic("xor", 80, 0.15, seed=3), path)
    return str(path)


@pytest.fixture()
def memory_file(tmp_path):
    path = tmp_path / "memory.txt"
    path.write_text("00\n01\n10\n11\n")
    return str(path)


# ---------------------------------------------------------------------------
# pqm
# ---------------------------------------------------------------------------

def test_pqm_exact_match(tmp_path, capsys):
    path = tmp_path / "memory.txt"
    path.write_text("0000\n")
    code, out, _ = run(capsys, "pqm", str(path), "0000")
    assert code == 0
    assert "p0=1.000000" in out


def test_pqm_uniform_memory(memory_file, capsys):
    code, out, _ = run(capsys, "pqm", memory_file, "00")
    assert code == 0
    assert "p0=0.500000" in out


def test_pqm_circuit_flag(memory_file, capsys):
    code, out, _ = run(capsys, "pqm", memory_file, "00", "--circuit")
    assert code == 0
    assert "circuit_p0=0.500000" in out
    assert "difference=" in out


def test_pqm_shots_flag(memory_file, capsys):
    code, out, _ = run(capsys, "pqm", memory_file, "00", "--shots", "400", "--seed", "2")
    assert code == 0
    assert "shots=400" in out


def test_pqm_rejects_nonpositive_shots(memory_file, capsys):
    for shots in ("0", "-5"):
        code, out, err = run(capsys, "pqm", memory_file, "00", "--shots", shots)
        assert code == 1
        assert "--shots must be >= 1" in err
        assert out == ""  # rejected before any retrieval ran


def test_pqm_capacity_exit_code(tmp_path, capsys):
    path = tmp_path / "memory.txt"
    path.write_text("0" * 12 + "\n")
    code, _, err = run(capsys, "pqm", str(path), "0" * 12, "--circuit")
    assert code == 2
    assert "error" in err


def test_pqm_missing_file(capsys):
    code, _, err = run(capsys, "pqm", "/nonexistent/memory.txt", "00")
    assert code == 1
    assert "error" in err


def test_pqm_parse_error_line_number(tmp_path, capsys):
    path = tmp_path / "memory.txt"
    for text, lineno in (("00\n0x\n", 2), ("00\n# comment\n011\n", 3)):
        path.write_text(text)
        code, _, err = run(capsys, "pqm", str(path), "00")
        assert code == 1
        assert f"{path}:{lineno}:" in err
    path.write_text("# only a comment\n\n")
    code, _, err = run(capsys, "pqm", str(path), "00")
    assert code == 1
    assert f"{path}: no patterns" in err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_prints_report(xor_csv, capsys):
    code, out, _ = run(
        capsys, "evaluate", xor_csv, "--hidden", "2", "--samples", "4", "--seed", "7"
    )
    assert code == 0
    assert "score_p0=" in out
    assert "mean_accuracy=" in out


def test_evaluate_writes_csv(xor_csv, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "evaluate", xor_csv, "--hidden", "2", "--samples", "4",
        "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,")


def test_evaluate_deterministic_output(xor_csv, tmp_path, capsys):
    args = ["evaluate", xor_csv, "--hidden", "3", "--samples", "5", "--seed", "9"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_evaluate_exhaustive_budget_error(xor_csv, capsys):
    code, _, err = run(
        capsys, "evaluate", xor_csv, "--hidden", "3", "--exhaustive"
    )
    # (2+1)*3 + 4 = 13 weights at 3 levels exceeds the 3^12 default budget
    assert code == 2
    assert "budget" in err


def test_evaluate_exhaustive_small_grid(xor_csv, capsys):
    code, out, _ = run(
        capsys, "evaluate", xor_csv, "--hidden", "1", "--exhaustive",
        "--levels=-1,1",
    )
    assert code == 0
    assert "samples=32" in out


def test_evaluate_exhaustive_rejects_nonfinite_levels(xor_csv, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("classified a grid point")

    monkeypatch.setattr(mlp, "classify", fail)
    for levels, shown in (("-1,nan", "nan"), ("-1,inf", "inf")):
        code, out, err = run(
            capsys, "evaluate", xor_csv, "--hidden", "1", "--exhaustive", f"--levels={levels}"
        )
        assert code == 1
        assert f"grid levels must be finite, got (-1.0, {shown})" in err
        assert out == ""


def test_evaluate_missing_dataset(capsys):
    code, _, err = run(capsys, "evaluate", "/nonexistent.csv", "--hidden", "2")
    assert code == 1


def test_show_config_reports_defaults(xor_csv, capsys):
    code, out, _ = run(capsys, "evaluate", xor_csv, "--hidden", "2", "--show-config")
    assert code == 0
    assert "alpha=1e-05" in out
    assert "max_iter=400" in out
    assert "samples=1000" in out
    assert "hidden_range=[1,20)" in out


def test_config_file_precedence(xor_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "samples=50\nseed=3\n# comment\nmax_iter=25\n"
        "alpha=0.5\ntrain_fraction=0.2\nactivation=tanh\n"
    )
    code, out, _ = run(
        capsys, "sweep", xor_csv, "--config", str(config), "--samples", "7",
        "--show-config",
    )
    assert code == 0
    assert "samples=7" in out  # flag beats file
    assert "seed=3" in out  # file beats default
    assert "max_iter=25" in out
    assert "alpha=0.5" in out
    assert "train_fraction=0.2" in out
    assert "activation=tanh" in out


def test_config_file_bad_key(xor_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    cases = (("warp_speed=9\n", 1), ("seed=3\nsamples=abc\n", 2), ("max_iter=2.5\n", 1))
    for text, lineno in cases:
        config.write_text(text)
        code, _, err = run(capsys, "sweep", xor_csv, "--config", str(config), "--show-config")
        assert code == 1
        assert f"{config}:{lineno}:" in err


def test_threads_must_be_positive(xor_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    for value in ("0", "-2"):
        config.write_text(f"threads={value}\n")
        for extra in (["--threads", value], ["--config", str(config)]):
            code, out, err = run(
                capsys, "sweep", xor_csv, "--hidden-range", "1", "2", "--samples", "3", *extra
            )
            assert code == 1
            assert f"threads must be >= 1, got {value}" in err
            assert out == ""  # rejected before any training ran


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_and_plot(xor_csv, tmp_path, capsys):
    # the plot title is the dataset path, so markup characters in it must be escaped
    odd_dir = tmp_path / "odd&<dir"
    odd_dir.mkdir()
    odd_csv = odd_dir / "x.csv"
    shutil.copyfile(xor_csv, odd_csv)
    for dataset in (xor_csv, str(odd_csv)):
        out_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, "sweep", dataset, "--hidden-range", "1", "4", "--samples", "4",
            "--seed", "1", "--out", str(out_path), "--plot", str(svg_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 architectures

        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 3
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert dataset in texts


def test_sweep_stdout(xor_csv, capsys):
    code, out, _ = run(
        capsys, "sweep", xor_csv, "--hidden-range", "1", "3", "--samples", "3"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("hidden,")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "rings.csv"
    code, out, _ = run(
        capsys, "synth", "rings", "--n", "24", "--noise", "0.1", "--seed", "5",
        "--out", str(out_path),
    )
    assert code == 0
    ds = dataio.load_csv(out_path)
    assert ds.num_examples == 24


def test_synth_bad_kind(capsys):
    with pytest.raises(SystemExit):
        cli.main(["synth", "moons", "--out", "x.csv"])
