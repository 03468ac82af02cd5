"""Tests of the benchmark itself: tracing, counts, output checks and BENCHMARK.json.

Workloads run here at tiny sizes; the benchmark's sizes are the constructor
defaults.
"""
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

cli = run.import_program()


def tiny(name, workdir, seed=3):
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "sweep_sampled":
        return wl.SweepSampled(workdir, seed, xor_samples=4, xor_hidden=(1, 5),
                               blobs_samples=4, blobs_hidden=(1, 2))
    if name == "grid_exhaustive":
        return wl.GridExhaustive(workdir, seed, hidden=1)
    return wl.PqmProbe(workdir, seed, widths=((3, 2), (4, 1)), patterns=8,
                       circuit_shots=20, small_shots=400)


ALL = sorted(wl.WORKLOADS)
# per-layer metrics that count work; they must repeat exactly for the same inputs
COUNT_METRICS = [
    name for name, _, _ in tr.PER_LAYER
    if name.endswith((".calls", ".rows", ".shots", ".iterations")) or name == "mlp.diverged"
]


def traced_pass(workload):
    tracer = tr.Tracer()
    with tr.patched(tracer):
        outputs, _, _ = run.run_pass(workload, tracer.traced_root(cli.main))
    return tracer, outputs


def program_names():
    from qnnae import pqm

    names = {(m.__name__, k): v for m in tr._program_modules() for k, v in vars(m).items()}
    names[("PatternMemory", "from_file")] = vars(pqm.PatternMemory)["from_file"]
    return names


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tr.PER_LAYER


def test_patching_restores_every_name_and_untraced_runs_use_originals(tmp_path):
    from qnnae import dataio, evaluate

    before = program_names()
    tracer = tr.Tracer()
    with tr.patched(tracer):
        # a name imported by another module is patched where that module looks it up
        assert evaluate.split is not before[("qnnae.dataio", "split")]
        assert dataio.split is not before[("qnnae.dataio", "split")]
    after = program_names()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    workload = tiny("grid_exhaustive", tmp_path)
    outputs, _, _ = run.run_pass(workload, cli.main)
    assert workload.check(outputs) == []
    assert dict(tracer.calls) == {}


@pytest.mark.parametrize("name", ALL)
def test_counts_repeat_and_self_times_sum_to_wall(name, tmp_path):
    first, outputs = traced_pass(tiny(name, tmp_path / "a"))
    second, _ = traced_pass(tiny(name, tmp_path / "b"))
    counts = [{k: tr.layer_metrics(t, 0.0)[k] for k in COUNT_METRICS}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    for tracer in (first, second):
        assert math.isclose(sum(tracer.self_time.values()), tracer.wall, rel_tol=1e-9)
        assert tracer.wall > 0


def test_per_layer_metrics_attribute_work_to_the_right_layers(tmp_path):
    sweep, _ = traced_pass(tiny("sweep_sampled", tmp_path / "s"))
    m = tr.layer_metrics(sweep, untraced_wall=0.0)
    assert m["mlp.train_batch.calls"] == 5  # 4 xor + 1 blob hidden sizes
    assert m["mlp.train_batch.rows"] == 4 * 4 + 4
    assert m["mlp.train_batch.iterations"] > 0
    assert 0 < m["mlp.linesearch.accept_ratio"] <= 1
    assert m["qsim.gates.calls"] == 0 and m["pqm.retrieve_circuit.shots"] == 0

    probe, _ = traced_pass(tiny("pqm_probe", tmp_path / "p"))
    m = tr.layer_metrics(probe, untraced_wall=0.0)
    assert m["pqm.retrieve_circuit.shots"] == 3 * 20 + 400
    assert m["qsim.measure_qubit.calls"] == 3 * 20 + 400
    assert m["mlp.train_batch.calls"] == 0 and m["mlp.classify.calls"] == 0


def test_sweep_fills_whole_training_stacks(tmp_path):
    from qnnae import evaluate

    sizes = wl.SweepSampled(tmp_path, 1).sizes
    for dataset in ("xor", "blobs3"):
        assert sizes[dataset]["samples"] % evaluate.TRAIN_CHUNK == 0


def test_work_model():
    assert tr.forward_flop(n=10, d=2, h=3, o=1) == 2 * 10 * 2 * 3 + 2 * 10 * 3 * 1
    assert tr.loss_and_grad_flop(n=10, d=2, h=3, o=1) == 4 * 10 * 2 * 3 + 6 * 10 * 3 * 1
    assert tr.gate_bytes(5) == 2 * 16 * 32


def _replace_file(outputs, index, key, data):
    out = outputs[index]
    files = dict(out.files, **{key: data})
    return outputs[:index] + [dataclasses.replace(out, files=files)] + outputs[index + 1:]


def _replace_stdout(outputs, index, old, new):
    out = outputs[index]
    assert old in out.stdout
    stdout = out.stdout.replace(old, new)
    return outputs[:index] + [dataclasses.replace(out, stdout=stdout)] + outputs[index + 1:]


def _set_report_score(data, hidden, value):
    lines = data.decode().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == str(hidden):
            fields[1] = value
            lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def test_sweep_checks_fail_on_corrupted_output(tmp_path):
    workload = tiny("sweep_sampled", tmp_path)
    outputs, _, _ = run.run_pass(workload, cli.main)
    assert workload.check(outputs) == []  # also fixes the reference bytes
    report = outputs[0].files["report"]
    rows = {int(line.split(",")[0]): line.split(",")[1]
            for line in report.decode().splitlines()[1:]}

    failed_exit = [dataclasses.replace(outputs[0], rc=1)] + outputs[1:]
    assert workload.check(failed_exit)
    changed_plot = _replace_file(outputs, 1, "plot", outputs[1].files["plot"] + b" ")
    assert any("differ" in p for p in workload.check(changed_plot))

    # later checks compare against a reference that already holds the corruption,
    # so byte identity cannot be what catches them
    for corrupt in (_set_report_score(report, 2, "1.5"),
                    _set_report_score(_set_report_score(report, 1, rows[4]), 4, rows[1])):
        workload._reference = None
        problems = workload.check(_replace_file(outputs, 0, "report", corrupt))
        assert problems and not any("differ" in p for p in problems)
    workload._reference = None
    assert workload.check(_replace_file(outputs, 0, "report", None))


def test_grid_check_fails_on_corrupted_output(tmp_path):
    workload = tiny("grid_exhaustive", tmp_path)
    outputs, _, _ = run.run_pass(workload, cli.main)
    assert workload.check(outputs) == []
    report = outputs[0].files["report"].decode()
    header, row = report.splitlines()
    fields = row.split(",")
    fields[1] = repr(float(fields[1]) + 1e-9)
    corrupt = (header + "\n" + ",".join(fields) + "\n").encode()
    assert workload.check(_replace_file(outputs, 0, "report", corrupt))


def test_grid_oracle_matches_the_program_on_a_multiclass_set(tmp_path):
    import numpy as np

    path = tmp_path / "blobs.csv"
    wl.write_blobs(path, 60, 0.7, np.random.default_rng(0))
    rc = cli.main(["evaluate", str(path), "--hidden", "1", "--exhaustive", "--levels=-1,1",
                   "--seed", "2", "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    row = (tmp_path / "r.csv").read_text().splitlines()[1].split(",")
    oracle = wl.grid_score_oracle(path, 2, 1, (-1.0, 1.0))
    assert abs(float(row[1]) - oracle) <= wl.GRID_TOLERANCE


def test_pqm_checks_fail_on_corrupted_output(tmp_path):
    workload = tiny("pqm_probe", tmp_path)
    outputs, _, _ = run.run_pass(workload, cli.main)
    assert workload.check(outputs) == []
    circuit = outputs[0].stdout
    difference = circuit.split("difference=")[1].split()[0]
    assert workload.check(_replace_stdout(outputs, 0, f"difference={difference}",
                                          "difference=1.000e-06"))
    # a frequency at the far end from p0 is beyond 4 sigma for any p0 at 20 shots
    freq = circuit.split("freq0=")[1].split()[0]
    far = "1.000000" if workload.expected[0][0] < 0.5 else "0.000000"
    assert workload.check(_replace_stdout(outputs, 0, f"freq0={freq}", f"freq0={far}"))
    last = outputs[-1].stdout
    freq = last.split("freq0=")[1].split()[0]
    assert workload.check(_replace_stdout(outputs, len(outputs) - 1, f"freq0={freq}",
                                          "freq0=0.700000"))
    p0 = circuit.split("p0=")[1].split()[0]
    assert workload.check(_replace_stdout(outputs, 0, f"p0={p0} ", "p0=0.999999 "))


def test_run_workload_counts_passes_and_reports_every_metric(tmp_path):
    workload = tiny("pqm_probe", tmp_path)
    result = run.run_workload(workload, cli.main, seconds=0.0, trace=True, setup_times=[],
                              remeasure_setup=lambda: 0.5)
    assert result["attempted"] == run.MIN_PASSES + 1
    assert result["failed"] == 0 and result["problems"] == []
    assert set(result["end_to_end"]) == {name for name, _, _ in run.END_TO_END}
    assert list(result["per_layer"]) == [name for name, _, _ in tr.PER_LAYER]
    assert all(v > 0 for v in result["end_to_end"].values())


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
