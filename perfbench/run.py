"""Benchmark of the qnnae CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sweep_sampled --seed 1 --seconds 20 --trace 0

Runs the workload's passes in this process through `qnnae.cli.main` for at
least `--seconds` seconds of measured time (at least MIN_PASSES passes),
checks every pass's outputs outside the timed interval, and prints a
human-readable summary, a `record` line with the environment, the work model
and the per-pass times, and, as the last line, the result object:

    {"correct": ..., "attempted": passes, "failed": failed passes, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` one
more pass runs with every layer traced and the metrics are the per-layer ones.
The program is imported from `src/` of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"
MIN_PASSES = 2
SETUP_REPS = 5

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: List[Tuple[str, str, str]] = [
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

# imports `qnnae.cli` from the given src directory, as the CLI does at start
_IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import qnnae.cli"


def import_program():
    """Import qnnae from this checkout's src/, never from anywhere else."""
    if not (SRC / "qnnae" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'qnnae'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qnnae.cli

    if Path(qnnae.cli.__file__).resolve().parent != SRC / "qnnae":
        raise SystemExit(f"perfbench: imported qnnae from {qnnae.cli.__file__}, not {SRC}")
    return qnnae.cli


# ---- environment --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> Dict[str, str]:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
    except OSError:
        pass
    return caches


def _blas() -> Dict[str, object]:
    """BLAS name, version and thread count, read without changing anything."""
    import ctypes

    import numpy as np

    info: Dict[str, object] = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
    }


# ---- measurement ----------------------------------------------------------------

def measure_setup(make_workload: Callable[[Path], object], workdir: Path):
    """One set-up: a fresh interpreter importing the CLI, then input generation.

    Returns (seconds, the workload with its inputs written under `workdir`).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT_PROGRAM, str(SRC)],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    workload = make_workload(workdir)
    return time.perf_counter() - start, workload


def run_pass(workload, call_fn: Callable[[List[str]], int]):
    """Run every CLI call of one pass.

    Returns (outputs, wall seconds inside the calls, process CPU seconds
    inside the calls).  CPU time excludes time the machine gave to others,
    so set beside wall time it tells steal from a slower program.
    """
    from workloads import CallOutput

    outputs, wall, cpu = [], 0.0, 0.0
    for call in workload.calls:
        for _, path in call.outputs:
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        rc: Optional[int]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                rc = call_fn(list(call.argv))
            except Exception:  # a crash is a failed pass, not a failed benchmark
                rc = None
                err.write(traceback.format_exc())
            wall += time.perf_counter() - start
            cpu += time.process_time() - start_cpu
        files = {key: path.read_bytes() if path.exists() else None
                 for key, path in call.outputs}
        outputs.append(CallOutput(rc, out.getvalue(), err.getvalue(), files))
    return outputs, wall, cpu


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(workload, cli_main: Callable, seconds: float, trace: bool,
                 setup_times: List[float], remeasure_setup: Callable[[], float]
                 ) -> Dict[str, object]:
    """Timed passes (plus one traced pass when `trace`), with every pass checked.

    Set-up is measured again after each pass, so that its median samples the
    whole run rather than its first second; `setup_times` holds the set-ups
    made before the call and grows to at least SETUP_REPS.
    """
    import tracer as tr

    walls: List[float] = []
    cpus: List[float] = []
    problems: List[str] = []
    failed = 0

    def checked(outputs) -> None:
        nonlocal failed
        found = workload.check(outputs)
        if found:
            failed += 1
            problems.extend(found)

    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        outputs, wall, cpu = run_pass(workload, cli_main)
        walls.append(wall)
        cpus.append(cpu)
        checked(outputs)
        setup_times.append(remeasure_setup())
    peak_rss = _peak_rss_mb()
    while len(setup_times) < SETUP_REPS:
        setup_times.append(remeasure_setup())
    wall_s = statistics.median(walls)
    result: Dict[str, object] = {
        "walls": walls,
        "cpus": cpus,
        "end_to_end": {"wall_s": wall_s, "items_per_s": workload.items / wall_s,
                       "setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss},
    }
    if trace:
        tracer = tr.Tracer()
        with tr.patched(tracer):
            outputs, _, _ = run_pass(workload, tracer.traced_root(cli_main))
        checked(outputs)
        result["per_layer"] = tr.layer_metrics(tracer, wall_s)
        result["spans"] = tr.span_table(tracer)
        result["counts"] = dict(tracer.counts)
    attempted = len(walls) + (1 if trace else 0)
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


# ---- reporting -------------------------------------------------------------------

def _work_model(result: Dict[str, object], env: Dict[str, object]) -> Dict[str, object]:
    import tracer as tr

    counts = result["counts"]
    return {
        "label": "computed",
        "mlp.kernel.gflop": {
            "value": counts.get("mlp.kernel.flop", 0.0) / 1e9,
            "model": "batched_loss: rows*(2ndh+2nho); batched_loss_and_grad: "
                     "rows*(4ndh+6nho); n data rows, d inputs, h hidden, o outputs",
        },
        "qsim.gates.gb": {
            "value": counts.get("qsim.gates.bytes", 0.0) / 1e9,
            "model": f"{tr.GATE_BYTES_PER_AMPLITUDE} B * 2^qubits per gate "
                     "(state read and written once)",
            "caches": env["caches"],
        },
    }


def _metric_block(values: Dict[str, float], spec: Sequence[Tuple[str, str, str]]):
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    import tracer as tr
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        def make(inputs: Path):
            return WORKLOADS[args.workload](inputs, args.seed)

        first, workload = measure_setup(make, workdir / "inputs")
        setup_times = [first]
        result = run_workload(workload, cli.main, args.seconds, bool(args.trace), setup_times,
                              lambda: measure_setup(make, workdir / "setup")[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    env = environment()
    attempted, failed = result["attempted"], result["failed"]
    e2e = result["end_to_end"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['walls'])} items_per_pass={workload.items}")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<14} {e2e[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<14} {failed / attempted:>14.6g} ratio ({failed}/{attempted} passes)")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")
    if args.trace:
        print("  spans (name, calls, total_s, self_s):")
        for name, calls, total, self_s in result["spans"]:
            print(f"    {name:<34} {calls:>9} {total:>11.4f} {self_s:>11.4f}")
        for name, unit, _ in tr.PER_LAYER:
            print(f"  {name:<40} {result['per_layer'][name]:>14.6g} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workload.sizes, "items_per_pass": workload.items,
        "env": env, "pass_wall_s": result["walls"],
        "pass_cpu_s": result["cpus"], "setup_reps_s": setup_times,
        "fail_frac": failed / attempted,
    }
    if args.trace:
        record["work_model"] = _work_model(result, env)
    print("record " + json.dumps(record, sort_keys=True))
    metrics = (_metric_block(result["per_layer"], tr.PER_LAYER) if args.trace
               else _metric_block(e2e, END_TO_END))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
