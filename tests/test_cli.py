"""Command-line interface tests: outputs, exit codes, config precedence."""
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from qnnae import cli, dataio, mlp, pqm


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


def test_pqm_circuit_runs_past_ten_bits(tmp_path, capsys):
    path = tmp_path / "memory.txt"
    path.write_text("0" * 12 + "\n" + "01" * 6 + "\n")
    for extra, line in ((["--circuit"], "circuit_p0=0.750000 circuit_p1=0.250000 "),
                        (["--shots", "3"], "shots=3 ")):
        code, out, err = run(capsys, "pqm", str(path), "0" * 12, *extra)
        assert (code, err) == (0, "")
        assert out.startswith("p0=0.750000 p1=0.250000\n")
        assert line in out


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


# the circuit lines read the sparse retrieval state, whose marginal sums its
# rows in basis-index order; a change to any kernel's bits or to that order
# moves the circuit p0, the difference or the shot counts, and a change to the
# shot stream (which draw of default_rng(seed) shot i reads) moves the counts
PQM_GOLDEN = [
    (["011010", "110001", "011010", "101111", "000100"], "101101",
     "p0=0.413397 p1=0.586603\n"
     "circuit_p0=0.413397 circuit_p1=0.586603 difference=1.110e-16\n"
     "shots=300 freq0=0.423333 counts0=127 counts1=173\n"),
    (["10110010", "01101101", "11110000", "00011011", "10101010", "01010101",
      "11001100"], "10011010",
     "p0=0.535024 p1=0.464976\n"
     "circuit_p0=0.535024 circuit_p1=0.464976 difference=0.000e+00\n"
     "shots=300 freq0=0.566667 counts0=170 counts1=130\n"),
]


@pytest.mark.parametrize("patterns, probe, expected", PQM_GOLDEN)
def test_pqm_circuit_and_shots_golden(tmp_path, capsys, patterns, probe, expected):
    path = tmp_path / "memory.txt"
    path.write_text("\n".join(patterns) + "\n")
    code, out, err = run(capsys, "pqm", str(path), probe, "--circuit",
                         "--shots", "300", "--seed", "9")
    assert (code, err) == (0, "")
    assert out == expected


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
    argv = ["evaluate", xor_csv, "--hidden", "2", "--samples", "4", "--seed", "7"]
    code, summary, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,")
    # without --out, stdout carries the summary line, then exactly the file's bytes
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == summary.encode() + out_path.read_bytes()


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


def test_evaluate_exhaustive_far_over_budget_fails_fast(xor_csv, capsys):
    # 3^4000001 points: refused without computing the power or printing it
    code, out, err = run(
        capsys, "evaluate", xor_csv, "--hidden", "1000000", "--exhaustive"
    )
    assert code == 2
    assert out == ""
    assert err == "error: grid needs 3^4000001 points, budget is 531441\n"
    assert len(err.encode()) < 200


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


@pytest.mark.parametrize("mode", [["--exhaustive", "--levels=-1,1"], ["--samples", "4"]])
def test_evaluate_rejects_features_whose_standardization_overflows(tmp_path, capsys, mode):
    path = tmp_path / "huge.csv"
    rows = [f"{(-1) ** i * 1e308!r},{i % 3},{'ab'[i % 2]}" for i in range(20)]
    path.write_text("f1,f2,label\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "evaluate", str(path), "--hidden", "2", *mode)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "f1" in lines[0]


@pytest.mark.parametrize("argv, message", [
    # relu passes overflowed hidden units on as inf, and inf - inf is NaN
    (["--exhaustive", "--levels=1e308,-1e308", "--activation", "relu"],
     "network scores are NaN: the weights or inputs overflow"),
    # the squared norm of every initial gradient overflows
    (["--samples", "3", "--alpha", "1e300"], "every weight sample diverged; nothing to score"),
], ids=["nan-scores", "gradient-overflow"])
def test_evaluate_fails_on_overflow_without_numpy_warnings(xor_csv, capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "evaluate", xor_csv, "--hidden", "2", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"  # diverged samples are counted, not logged
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_evaluate_labels_scores_that_overflow_to_infinity(xor_csv, capsys):
    # logistic hidden units saturate, so these scores are +-inf or exactly 0:
    # each has a label, and the symmetric grid scores one half
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "evaluate", xor_csv, "--hidden", "1", "--exhaustive",
                           "--levels=1e308,-1e308")
    assert code == 0
    assert out.startswith("score_p0=0.500000 mean_accuracy=0.500000 samples=32 excluded=0\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_evaluate_missing_dataset(capsys):
    code, _, err = run(capsys, "evaluate", "/nonexistent.csv", "--hidden", "2")
    assert code == 1


def test_empty_label_exits_1(xor_csv, tmp_path, capsys):
    path = tmp_path / "blank.csv"
    lines = Path(xor_csv).read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ","
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "evaluate", str(path), "--hidden", "1", "--samples", "2")
    assert code == 1
    assert err == f"error: {path}:4: empty label\n"
    assert out == ""


@pytest.mark.parametrize("kind, data, lineno", [
    ("csv", b"f1,f2,label\n0,1,a\n\xff,2,b\n", 3),
    ("memory", b"01\r\n1\xe90\n", 2),
    ("config", b"seed=1\r# caf\xe9\nsamples=2\n", 2),
    ("memory", b"\xef\xbb\xbf01\n\xff1\n", 2),  # the line count starts after the mark
], ids=["csv", "memory", "config", "memory-marked"])
def test_non_utf8_input_names_file_and_line(xor_csv, tmp_path, capsys, kind, data, lineno):
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(data)
    argv = {
        "csv": ["evaluate", str(path), "--hidden", "1"],
        "memory": ["pqm", str(path), "01"],
        "config": ["evaluate", xor_csv, "--hidden", "1", "--config", str(path)],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {path}:{lineno}: not UTF-8 text\n"
    assert out == ""


@pytest.mark.parametrize("kind, text", [
    ("csv", "f1,f2,label\n" + "".join(f"{i % 2},{i // 2 % 2},{i % 2 ^ i // 2 % 2}\n"
                                       for i in range(40))),
    ("csv", "label,f1,f2\n" + "".join(f"{i % 2 ^ i // 2 % 2},{i % 2},{i // 2 % 2}\n"
                                       for i in range(40))),
    ("memory", "0110\n1010\n"),
    ("config", "seed=1\nsamples=2\n"),
], ids=["csv", "csv-label-first", "memory", "config"])
def test_byte_order_mark_changes_nothing(xor_csv, tmp_path, capsys, kind, text):
    results = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / f"input.{kind}"
        path.write_bytes(mark + text.encode())
        argv = {
            "csv": ["evaluate", str(path), "--hidden", "1", "--samples", "2", "--max-iter", "5"],
            "memory": ["pqm", str(path), "0111"],
            "config": ["evaluate", xor_csv, "--hidden", "1", "--config", str(path),
                       "--max-iter", "5"],
        }[kind]
        results.append(run(capsys, *argv))
    assert results[0][0] == 0 and results[0][2] == ""
    assert results[1] == results[0]


def test_repeated_label_column_exits_1(tmp_path, capsys):
    # the second `label` would be trained on as a feature and score 1.0
    path = tmp_path / "leak.csv"
    path.write_text("f1,label,label\n" + "".join(f"{i % 3},{i % 2},{i % 2}\n"
                                                  for i in range(24)))
    code, out, err = run(capsys, "evaluate", str(path), "--hidden", "1", "--samples", "4")
    assert (code, out) == (1, "")
    assert err == f"error: {path}:1: repeated column name 'label'\n"


@pytest.mark.parametrize("record, message", [
    ("2," + "b" * 200_000, "field larger than field limit (131072)"),
    # Python 3.10's csv reader refuses a NUL character; later ones keep it in the field
    ("2\x00,b", "line contains NUL" if sys.version_info < (3, 11)
     else "non-numeric feature '2\\x00' in column f1"),
], ids=["field-over-the-csv-limit", "nul-character"])
def test_unparsable_csv_record_exits_1_naming_its_line(tmp_path, capsys, record, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"f1,label\n1,a\n{record}\n3,b\n")
    code, out, err = run(capsys, "evaluate", str(path), "--hidden", "1", "--samples", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}:3: {message}\n"


def test_out_of_memory_is_a_resource_error(xor_csv, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 21.8 TiB")

    monkeypatch.setattr(mlp, "init_weights", fail)
    code, out, err = run(capsys, "evaluate", xor_csv, "--hidden", "1", "--samples", "1")
    assert code == cli.EXIT_RESOURCE_ERROR == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 21.8 TiB\n"
    assert "Traceback" not in err


def test_malformed_command_line_exits_2(xor_csv, capsys):
    for argv in (["evaluate", xor_csv, "--hidden", "abc"], ["sweep", xor_csv, "--warp"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


SRC = Path(__file__).resolve().parents[1] / "src"
# a grid budget past sys.maxsize: 2^149 points (--hidden 37 on xor) fit inside it
HUGE_BUDGET = 2**200
HUGE_BUDGET_ERROR = f"budget must be <= {sys.maxsize}, got {HUGE_BUDGET}"
GOLDEN_PATTERNS, GOLDEN_PROBE, GOLDEN_OUT = PQM_GOLDEN[0]


@pytest.mark.parametrize("files, argv, code, stdout, stderr", [
    ({"memory.txt": "\n".join(GOLDEN_PATTERNS) + "\n"},
     ["pqm", "memory.txt", GOLDEN_PROBE, "--circuit", "--shots", "300", "--seed", "9"],
     0, GOLDEN_OUT, ""),
    # the bad record ends on file line 4, after a quoted field on lines 2-3
    ({"ml.csv": 'f1,f2,label\n0,"1\n",a\n1,x,b\n'}, ["evaluate", "ml.csv", "--hidden", "1"],
     1, "", re.escape("error: ml.csv:4: non-numeric feature 'x' in column f2\n")),
    ({}, ["evaluate", "xor.csv", "--hidden", "1000000", "--exhaustive"],
     2, "", re.escape("error: grid needs 3^4000001 points, budget is 531441\n")),
    # pytest captures log records in process, so only a real process shows
    # that a diverged sample prints nothing of its own
    ({}, ["evaluate", "xor.csv", "--hidden", "2", "--samples", "4", "--alpha", "1e300"],
     1, "", re.escape("error: every weight sample diverged; nothing to score\n")),
    ({}, ["evaluate", "xor.csv", "--hidden", "abc"], 2, "",
     r"usage: qnnae evaluate .*\nqnnae evaluate: error: argument --hidden: "
     r"invalid int value: 'abc'\n"),
    ({"same.out": "kept\n"},
     ["sweep", "xor.csv", "--hidden-range", "1", "2", "--samples", "2", "--max-iter", "5",
      "--out", "same.out", "--plot", "same.out"],
     1, "", re.escape("error: --plot and --out name the same file: same.out\n")),
    # len() of a grid past sys.maxsize points raised OverflowError, with a traceback
    ({}, ["evaluate", "xor.csv", "--hidden", "37", "--exhaustive", "--levels=-1,1",
          "--budget", str(HUGE_BUDGET)],
     1, "", re.escape(f"error: {HUGE_BUDGET_ERROR}\n")),
], ids=["pqm-golden", "multiline-csv", "far-over-budget", "all-diverged", "malformed-flag",
        "same-out-and-plot", "budget-above-maxsize"])
def test_module_run_exit_code_stdout_and_stderr(xor_csv, tmp_path, files, argv, code,
                                                stdout, stderr):
    # a real process: what reaches the streams and the exit status, with no
    # logging, warning or traceback that the in-process tests would not see
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qnnae.cli", *argv], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == code
    assert result.stdout == stdout
    assert re.fullmatch(stderr, result.stderr, re.DOTALL), result.stderr
    for name, text in files.items():
        assert (tmp_path / name).read_text() == text


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
        "alpha=0.5\ntrain_fraction=0.2\nactivation=tanh\nbudget=5\n"
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
    assert "budget=5" in out


def test_config_file_bad_key(xor_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    cases = (
        ("warp_speed=9\n", 1),
        ("seed=3\nsamples=abc\n", 2),
        ("max_iter=2.5\n", 1),
        ("seed=1\n# again\nseed=2\n", 3),  # the second setting, not a silent override
        ("seed=3\nactivation=softplus\n", 2),
    )
    for text, lineno in cases:
        config.write_text(text)
        code, out, err = run(capsys, "sweep", xor_csv, "--config", str(config), "--show-config")
        assert code == 1
        assert f"{config}:{lineno}:" in err
        assert out == ""
    assert "bad value for activation" in err and "'softplus'" in err


@pytest.mark.parametrize("text, lineno", [
    (b"# head\r\n\r\n \t \r\n01=1  # note\r\n", 4),
    (b"\r\n#\r\n  x  #\r\n", 3),
    (b"\n\r\r\n2#\n", 4),  # a lone \r ends a line too
])
def test_config_and_memory_files_share_one_line_format(tmp_path, text, lineno):
    path = tmp_path / "lines.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError) as config_error:
        cli._load_config_file(path)
    with pytest.raises(ValueError) as memory_error:
        pqm.PatternMemory.from_file(path)
    for error in (config_error, memory_error):
        assert str(error.value).startswith(f"{path}:{lineno}: ")


@pytest.mark.parametrize("text", [b"", b"# only a comment\r\n \t \r\n\n", b"\xef\xbb\xbf#\n"])
def test_config_and_memory_files_without_content_are_refused(tmp_path, text):
    path = tmp_path / "lines.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: no settings")):
        cli._load_config_file(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: no patterns")):
        pqm.PatternMemory.from_file(path)


@pytest.mark.parametrize(
    "key, flag, value, message",
    [
        ("tolerance", "--tolerance", "nan", "tolerance must be finite, got nan"),
        ("alpha", "--alpha", "nan", "l2_alpha must be finite, got nan"),
        ("learning_rate", "--learning-rate", "inf", "learning_rate must be finite, got inf"),
        ("learning_rate", "--learning-rate", "1e7",
         "learning_rate must be <= 1000000.0, got 10000000.0"),
        ("samples", "--samples", "0", "samples must be >= 1, got 0"),
        ("train_fraction", "--train-fraction", "1.0", "train_fraction must be in (0,1), got 1.0"),
        ("train_fraction", "--train-fraction", "nan", "train_fraction must be in (0,1), got nan"),
    ],
)
def test_bad_training_settings_rejected_before_loading(
    xor_csv, tmp_path, capsys, monkeypatch, key, flag, value, message
):
    def fail(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(dataio, "load_csv", fail)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")
    for command in (["sweep", xor_csv], ["evaluate", xor_csv, "--hidden", "2"]):
        for extra in ([flag, value], ["--config", str(config)]):
            for show in ([], ["--show-config"]):
                code, out, err = run(capsys, *command, *extra, *show)
                assert code == 1
                assert message in err
                assert out == ""


BAD_CONFIG_VALUES = [
    ("samples", "0", "samples must be >= 1, got 0"),
    ("alpha", "nan", "l2_alpha must be finite, got nan"),
    ("max_iter", "0", "max_iter must be >= 1, got 0"),
    ("learning_rate", "0", "learning_rate must be > 0, got 0.0"),
    ("tolerance", "inf", "tolerance must be finite, got inf"),
    ("train_fraction", "2", "train_fraction must be in (0,1), got 2.0"),
    ("seed", "-1", "seed must be >= 0, got -1"),
    ("threads", "0", "threads must be >= 1, got 0"),
    ("budget", "0", "budget must be >= 1, got 0"),
    ("activation", "softplus", "must be one of ('logistic', 'tanh', 'relu'), got 'softplus'"),
    ("budget", str(HUGE_BUDGET), HUGE_BUDGET_ERROR),
]


@pytest.mark.parametrize("key, value, message", BAD_CONFIG_VALUES,
                         ids=[f"{key}-above-maxsize" if value == str(HUGE_BUDGET) else key
                              for key, value, _ in BAD_CONFIG_VALUES])
def test_bad_config_value_names_its_file_and_line(
    xor_csv, tmp_path, capsys, monkeypatch, key, value, message
):
    def fail(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(dataio, "load_csv", fail)
    config = tmp_path / "run.cfg"
    config.write_text(f"# c\n{key}={value}\n")
    evaluate = ["evaluate", xor_csv, "--hidden", "1"]
    # sweep reads no budget; evaluate --exhaustive is where one is used
    commands = [evaluate + ["--exhaustive"]] if key == "budget" else [["sweep", xor_csv], evaluate]
    for command in commands:
        for show in ([], ["--show-config"]):
            code, out, err = run(capsys, *command, "--config", str(config), *show)
            assert code == 1
            assert out == ""
            assert err.splitlines() == [f"error: {config}:2: bad value for {key}: {message}"]


def test_flag_overrides_a_bad_config_value(xor_csv, tmp_path, capsys):
    # only the value in effect is checked, whether it came from the file or not
    config = tmp_path / "run.cfg"
    config.write_text("samples=0\nactivation=softplus\nthreads=0\n")
    argv = ["--config", str(config), "--samples", "2", "--activation", "tanh", "--threads", "1"]
    for command in (["sweep", xor_csv], ["evaluate", xor_csv, "--hidden", "1"]):
        code, out, err = run(capsys, *command, *argv, "--show-config")
        assert (code, err) == (0, "")
        assert "samples=2" in out and "activation=tanh" in out
    # a value that the run does not read is not checked: sweep and sampled
    # evaluate read no budget, evaluate --exhaustive no samples, and evaluate
    # no hidden range
    evaluate = ["evaluate", xor_csv, "--hidden", "1"]
    exhaustive = evaluate + ["--exhaustive", "--levels=-1,1"]
    for text, command, shown in (
        ("budget=0\n", ["sweep", xor_csv], "budget=0"),
        ("budget=0\n", evaluate, "budget=0"),
        ("samples=0\n", exhaustive, "samples=0"),
        ("hidden_lo=0\n", evaluate, "hidden_range=[0,20)"),
        ("hidden_lo=0\n", exhaustive, "hidden_range=[0,20)"),
    ):
        config.write_text(text)
        code, out, err = run(capsys, *command, "--config", str(config), "--show-config")
        assert (code, err) == (0, "")
        assert shown in out


@pytest.mark.parametrize("lo, hi", [(3, 3), (0, 2), (5, 2)])
def test_bad_hidden_range_rejected_before_loading(
    xor_csv, tmp_path, capsys, monkeypatch, lo, hi
):
    def fail(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(dataio, "load_csv", fail)
    config = tmp_path / "run.cfg"
    config.write_text(f"hidden_lo={lo}\nhidden_hi={hi}\n")
    for extra in (["--hidden-range", str(lo), str(hi)], ["--config", str(config)]):
        for show in ([], ["--show-config"]):
            code, out, err = run(capsys, "sweep", xor_csv, *extra, *show)
            assert code == 1
            assert f"hidden range needs 1 <= lo < hi, got [{lo}, {hi})" in err
            assert out == ""


@pytest.mark.parametrize("text, where", [
    ("hidden_lo=0\n", "1: bad value for hidden_lo"),
    ("# range\nhidden_hi=1\n", "2: bad value for hidden_hi"),
    ("hidden_lo=0\nhidden_hi=5\n", "1: bad value for hidden_lo"),
    ("hidden_hi=3\nhidden_lo=3\n", "1: bad value for hidden_hi"),
    ("hidden_lo=25\n", "1: bad value for hidden_lo"),
])
def test_bad_hidden_range_from_file_names_its_line(xor_csv, tmp_path, capsys, text, where):
    config = tmp_path / "h.cfg"
    config.write_text(text)
    code, out, err = run(capsys, "sweep", xor_csv, "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {config}:{where}: hidden range needs 1 <= lo < hi")
    # a flag overrides both bounds, so the file is not blamed
    code, _, err = run(capsys, "sweep", xor_csv, "--config", str(config),
                       "--hidden-range", "0", "2")
    assert code == 1 and f"{config}:" not in err


@pytest.mark.parametrize("flags, config_text, message", [
    (["--hidden", "0"], None, "--hidden must be >= 1, got 0"),
    (["--hidden=-2", "--exhaustive"], None, "--hidden must be >= 1, got -2"),
    (["--hidden", "1", "--exhaustive", "--levels=-1,abc"], None,
     "--levels must be comma-separated numbers, got '-1,abc'"),
    (["--hidden", "1", "--exhaustive", "--levels="], None,
     "--levels must be comma-separated numbers, got ''"),
    (["--hidden", "1", "--exhaustive", "--levels=1,-1,1"], None,
     "grid levels must be distinct, got (1.0, -1.0, 1.0)"),
    (["--hidden", "1", "--exhaustive", "--budget", "0"], None, "budget must be >= 1, got 0"),
    (["--hidden", "1", "--budget=-3"], None, "budget must be >= 1, got -3"),
    (["--hidden", "1", "--exhaustive"], "budget=0\n", "budget must be >= 1, got 0"),
    (["--hidden", "1", "--samples", "4", "--levels=9,9"], None, "--levels needs --exhaustive"),
    (["--hidden", "1", "--samples", "4", "--train-grid"], None,
     "--train-grid needs --exhaustive"),
    (["--hidden", "1", "--samples", "2", "--budget", "5"], None, "--budget needs --exhaustive"),
    (["--hidden", "1", "--exhaustive", "--levels=-1,1", "--samples", "5"], None,
     "--samples has no effect with --exhaustive"),
    (["--hidden", "37", "--exhaustive", "--levels=-1,1", "--budget", str(HUGE_BUDGET)], None,
     HUGE_BUDGET_ERROR),
    (["--hidden", "37", "--exhaustive", "--levels=-1,1"], f"budget={HUGE_BUDGET}\n",
     HUGE_BUDGET_ERROR),
])
def test_bad_evaluate_flags_rejected_before_loading(
    xor_csv, tmp_path, capsys, monkeypatch, flags, config_text, message
):
    def fail(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(dataio, "load_csv", fail)
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text)
        flags = flags + ["--config", str(config)]
    for show in ([], ["--show-config"]):
        code, out, err = run(capsys, "evaluate", xor_csv, *flags, *show)
        assert code == 1
        assert message in err
        assert out == ""


@pytest.mark.parametrize("command", [
    ["sweep", "--hidden-range", "1", "2", "--samples", "2", "--max-iter", "5"],
    ["evaluate", "--hidden", "1", "--samples", "2", "--max-iter", "5"],
    ["synth", "xor"],
])
def test_bad_output_path_rejected_before_loading(
    xor_csv, tmp_path, capsys, monkeypatch, command
):
    def fail(*args, **kwargs):
        raise AssertionError("loaded or generated the dataset")

    monkeypatch.setattr(dataio, "load_csv", fail)
    monkeypatch.setattr(dataio, "make_synthetic", fail)
    a_file = tmp_path / "file.txt"
    a_file.write_text("")
    flags = ["--out", "--plot"] if command[0] == "sweep" else ["--out"]
    # synth reads no dataset and has no --show-config
    if command[0] == "synth":
        head, shows = command, ([],)
    else:
        head, shows = [command[0], xor_csv, *command[1:]], ([], ["--show-config"])
    targets = [
        (str(tmp_path / "missing" / "x"), f"directory {tmp_path / 'missing'} does not exist"),
        (str(a_file / "x"), f"{a_file} is not a directory"),
        (str(tmp_path), f"{tmp_path} is a directory"),
        ("", "empty path"),
    ]
    before = sorted(tmp_path.iterdir())
    for flag in flags:
        for target, message in targets:
            for show in shows:
                code, out, err = run(capsys, *head, flag, target, *show)
                assert code == 1
                assert f"error: {flag}: {message}" in err
                assert out == ""
    assert sorted(tmp_path.iterdir()) == before
    assert a_file.read_text() == ""

    # a directory the process may not write to (root may write anywhere,
    # so the permission answer is stubbed)
    real_access = cli.os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: (
        mode != cli.os.W_OK and real_access(path, mode)))
    for flag in flags:
        for show in shows:
            code, out, err = run(capsys, *head, flag, str(tmp_path / "x"), *show)
            assert code == 1
            assert f"error: {flag}: directory {tmp_path} is not writable" in err
            assert out == ""
    assert sorted(tmp_path.iterdir()) == before

    # an existing file the process may not write to, in a writable directory
    monkeypatch.setattr(cli.os, "access", lambda path, mode: (
        not (mode == cli.os.W_OK and path == str(a_file)) and real_access(path, mode)))
    for flag in flags:
        for show in shows:
            code, out, err = run(capsys, *head, flag, str(a_file), *show)
            assert code == 1
            assert err == f"error: {flag}: {a_file} is not writable\n"
            assert out == ""
    assert sorted(tmp_path.iterdir()) == before
    assert a_file.read_text() == ""


@pytest.mark.parametrize("command, flag, other", [
    ("sweep", "--out", "dataset"),
    ("sweep", "--out", "--config"),
    ("sweep", "--plot", "dataset"),
    ("sweep", "--plot", "--config"),
    ("sweep", "--plot", "--out"),
    ("evaluate", "--out", "dataset"),
    ("evaluate", "--out", "--config"),
])
def test_output_naming_another_file_of_the_command_exits_1(
    xor_csv, tmp_path, capsys, monkeypatch, command, flag, other
):
    def fail(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(dataio, "load_csv", fail)
    config = tmp_path / "run.cfg"
    config.write_text("samples=2\nmax_iter=5\n")
    report = tmp_path / "report.csv"
    report.write_text("an earlier report\n")
    paths = {"dataset": xor_csv, "--config": str(config), "--out": str(report)}
    link, hard_link = tmp_path / "link", tmp_path / "hard_link"
    link.symlink_to(paths[other])
    hard_link.hardlink_to(paths[other])
    hidden = ["--hidden-range", "1", "2"] if command == "sweep" else ["--hidden", "1"]
    head = [command, xor_csv, *hidden, "--config", str(config)]
    if other == "--out":
        head += ["--out", paths["--out"]]
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    # the same spelling, another spelling, a symlink and a hard link all name one file
    spellings = [paths[other], os.path.join(os.path.dirname(paths[other]), ".",
                                            os.path.basename(paths[other])),
                 str(link), str(hard_link)]
    for target in spellings:
        for show in ([], ["--show-config"]):
            code, out, err = run(capsys, *head, flag, target, *show)
            assert code == 1
            assert err == f"error: {flag} and {other} name the same file: {target}\n"
            assert out == ""
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


@pytest.mark.parametrize("value", ["-1", "-2"])
def test_negative_seed_rejected_before_loading(
    xor_csv, memory_file, tmp_path, capsys, monkeypatch, value
):
    def fail(*args, **kwargs):
        raise AssertionError("read or wrote a data file")

    for module, name in ((dataio, "load_csv"), (dataio, "make_synthetic"),
                         (dataio, "write_csv"), (pqm.PatternMemory, "from_file")):
        monkeypatch.setattr(module, name, fail)
    config = tmp_path / "run.cfg"
    config.write_text(f"seed={value}\n")
    out_path = tmp_path / "data.csv"
    runs = [[*command, *extra, *show]
            for command in (["sweep", xor_csv], ["evaluate", xor_csv, "--hidden", "2"])
            for extra in (["--seed", value], ["--config", str(config)])
            for show in ([], ["--show-config"])]
    runs += [["pqm", memory_file, "00", "--seed", value, *shots]
             for shots in ([], ["--shots", "10"], ["--circuit", "--shots", "10"])]
    runs += [["synth", "xor", "--seed", value, "--out", str(out_path)]]
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert f"seed must be >= 0, got {value}" in err
        assert out == ""
    assert not out_path.exists()


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


def test_sweep_runs_in_one_thread_for_any_thread_count(xor_csv, capsys, monkeypatch):
    def fail(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", fail)
    outputs = []
    for threads in ("4", "1"):
        # 130 samples make three training chunks per architecture
        code, out, _ = run(capsys, "sweep", xor_csv, "--hidden-range", "1", "3",
                           "--samples", "130", "--seed", "2", "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


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


def test_sweep_stdout(xor_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", xor_csv, "--hidden-range", "1", "3", "--samples", "3"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("hidden,")
    # stdout carries exactly the bytes that --out writes
    out_path = tmp_path / "sweep.csv"
    code, written_out, _ = run(capsys, "sweep", xor_csv, "--hidden-range", "1", "3",
                               "--samples", "3", "--out", str(out_path))
    assert (code, written_out) == (0, "")
    assert out_path.read_bytes() == out.encode()
    assert len(out.splitlines()) == 3


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


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_synth_rejects_bad_noise(tmp_path, capsys, noise):
    out_path = tmp_path / "xor.csv"
    code, out, err = run(capsys, "synth", "xor", f"--noise={noise}", "--out", str(out_path))
    assert code == 1
    assert f"noise must be finite and >= 0, got {float(noise)}" in err
    assert out == ""
    assert not out_path.exists()


def test_synth_bad_kind(capsys):
    with pytest.raises(SystemExit):
        cli.main(["synth", "moons", "--out", "x.csv"])
