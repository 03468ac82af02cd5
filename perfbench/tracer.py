"""Per-layer tracing of the qnnae package from outside the program.

`patched(tracer)` replaces the public functions of each layer with wrappers
that open a span around the call, and restores every replaced name on exit.
A function is patched under every name a qnnae module holds for it, so a
caller that imported it by name (`evaluate.split` for `dataio.split`) is
traced too.

Spans are aggregated per name: calls, total time and self time (total minus
the time of spans opened inside it).  Counting hooks record the work each
call did; they run in a `trace.bookkeeping` span of their own, so the self
times of all spans still sum to the traced wall time.  The tracer keeps one
span stack, so it supports single-threaded runs only (`--threads 1`).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

BOOKKEEPING = "trace.bookkeeping"
ROOT = "cli"

# Bytes a qsim gate is counted as moving: the whole state read once and
# written once, 16 B per complex128 amplitude.  This overstates gates that
# touch half or a quarter of the amplitudes; it is a model, not a measurement.
GATE_BYTES_PER_AMPLITUDE = 2 * 16

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("mlp.train_batch.calls", "count", "lower"),
    ("mlp.train_batch.rows", "count", "lower"),
    ("mlp.train_batch.self_s", "s", "lower"),
    ("mlp.train_batch.iterations", "count", "lower"),
    ("mlp.batched_loss_and_grad.rows", "count", "lower"),
    ("mlp.batched_loss_and_grad.self_s", "s", "lower"),
    ("mlp.batched_loss.rows", "count", "lower"),
    ("mlp.batched_loss.self_s", "s", "lower"),
    ("mlp.linesearch.accept_ratio", "ratio", "higher"),
    ("mlp.kernel.gflop_computed", "GFLOP", "lower"),
    ("mlp.kernel.gflops", "GFLOP/s", "higher"),
    ("mlp.unconverged_frac", "ratio", "lower"),
    ("mlp.diverged", "count", "lower"),
    ("mlp.classify.calls", "count", "lower"),
    ("mlp.classify.self_s", "s", "lower"),
    ("mlp.init_weights.self_s", "s", "lower"),
    ("evaluate.evaluate_weight_list.self_s", "s", "lower"),
    ("evaluate.performance_vector.calls", "count", "lower"),
    ("evaluate.performance_vector.self_s", "s", "lower"),
    ("evaluate.score.self_s", "s", "lower"),
    ("evaluate.grid_build.self_s", "s", "lower"),
    ("qsim.gates.calls", "count", "lower"),
    ("qsim.gates.self_s", "s", "lower"),
    ("qsim.gates.gb_computed", "GB", "lower"),
    ("qsim.gates.gbps", "GB/s", "higher"),
    ("qsim.measure_qubit.calls", "count", "lower"),
    ("qsim.measure_qubit.self_s", "s", "lower"),
    ("pqm.retrieve_circuit.shots", "count", "lower"),
    ("pqm.retrieve_circuit.self_s", "s", "lower"),
    ("pqm.retrieve_exact_from_circuit.self_s", "s", "lower"),
    ("pqm.retrieve_analytic.self_s", "s", "lower"),
    ("pqm.memory_load.self_s", "s", "lower"),
    ("dataio.load_csv.self_s", "s", "lower"),
    ("dataio.split.self_s", "s", "lower"),
    ("svgplot.write_scatter.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Aggregated spans and work counters for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # [name, start, time spent in child spans]
        # line-search state of the train_batch call in progress
        self._last_kernel: Optional[str] = None
        self._seen_grad = False

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def traced_root(self, fn: Callable) -> Callable:
        """`fn` run inside a root span; the benchmark wraps `cli.main` with it."""
        return _wrapper(self, ROOT, fn)

    @property
    def wall(self) -> float:
        return self.total[ROOT]


def _wrapper(tracer: Tracer, name: str, fn: Callable,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            tracer.enter(BOOKKEEPING)
            try:
                before(tracer, args, kwargs)
            finally:
                tracer.exit()
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            tracer.enter(BOOKKEEPING)
            try:
                after(tracer, args, kwargs, result)
            finally:
                tracer.exit()
        return result

    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# ---- work model ("computed", not measured) --------------------------------

def forward_flop(n: int, d: int, h: int, o: int) -> int:
    """Multiply-adds of one model's forward pass over n rows, counted as 2 FLOP."""
    return 2 * n * d * h + 2 * n * h * o


def loss_and_grad_flop(n: int, d: int, h: int, o: int) -> int:
    """Forward pass plus the three backward products (dW2, dH, dW1)."""
    return forward_flop(n, d, h, o) + 2 * n * h * o + 2 * n * h * o + 2 * n * d * h


def gate_bytes(num_qubits: int) -> int:
    return GATE_BYTES_PER_AMPLITUDE * 2**num_qubits


def _kernel_shape(args: tuple, kwargs: dict) -> Tuple[int, int, int, int, int]:
    arch = _arg(args, kwargs, 0, "arch")
    rows = _arg(args, kwargs, 1, "w").shape[0]
    n = _arg(args, kwargs, 2, "x").shape[0]
    return rows, n, arch.input_dim, arch.hidden_neurons, arch.output_dim


# ---- counting hooks ---------------------------------------------------------

def _before_loss(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    rows, n, d, h, o = _kernel_shape(args, kwargs)
    tracer.counts["mlp.batched_loss.rows"] += rows
    tracer.counts["mlp.kernel.flop"] += rows * forward_flop(n, d, h, o)
    # Each train_batch iteration is one run of line-search trials, optionally
    # followed by one gradient call for the rows that accepted a step.
    if tracer._last_kernel != "loss":
        tracer.counts["mlp.train_batch.iterations"] += 1
    tracer._last_kernel = "loss"


def _before_grad(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    rows, n, d, h, o = _kernel_shape(args, kwargs)
    tracer.counts["mlp.batched_loss_and_grad.rows"] += rows
    tracer.counts["mlp.kernel.flop"] += rows * loss_and_grad_flop(n, d, h, o)
    # the first gradient call of a train_batch is the initial one; every later
    # row is a row that accepted a line-search step
    if tracer._seen_grad:
        tracer.counts["mlp.linesearch.accepted"] += rows
    tracer._seen_grad = True
    tracer._last_kernel = "grad"


def _train_batch_hooks(mlp_module, original_grad: Callable):
    signature = inspect.signature(mlp_module.train_batch)

    def before(tracer: Tracer, args: tuple, kwargs: dict) -> None:
        weights = signature.bind(*args, **kwargs).arguments["weights"]
        tracer.counts["mlp.train_batch.rows"] += len(weights)
        tracer._last_kernel = None
        tracer._seen_grad = False

    def after(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        w, diverged = result
        diverged = np.asarray(diverged, dtype=bool)
        tracer.counts["mlp.diverged"] += int(diverged.sum())
        # final gradient norm, with the same preprocessing train_batch applies
        cfg = a["config"] or mlp_module.TrainConfig()
        arch = a["arch"]
        x = np.asarray(a["x"], dtype=np.float64)
        if a["feature_mean"] is not None:
            x = (x - a["feature_mean"]) / a["feature_scale"]
        y = np.asarray(a["y"]).reshape(-1)
        if arch.output_dim == 1:
            y = y.astype(np.float64)
        kept = ~diverged
        if kept.any():
            _, grad = original_grad(arch, w[kept], x, y, cfg.l2_alpha)
            gnorm = np.sqrt(np.sum(grad * grad, axis=1))
            tracer.counts["mlp.unconverged"] += int(np.sum(gnorm >= cfg.tolerance))
        tracer.counts["mlp.trained"] += int(kept.sum())

    return before, after


def _before_gate(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.counts["qsim.gates.bytes"] += gate_bytes(_arg(args, kwargs, 0, "state").num_qubits)


def _shots_hook(pqm_module):
    signature = inspect.signature(pqm_module.retrieve_circuit)

    def before(tracer: Tracer, args: tuple, kwargs: dict) -> None:
        shots = signature.bind(*args, **kwargs).arguments["shots"]
        tracer.counts["pqm.retrieve_circuit.shots"] += shots

    return before


# ---- patching ---------------------------------------------------------------

def _program_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qnnae" or n.startswith("qnnae."))]


@contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Trace the qnnae layers for the duration of the block, then restore them."""
    from qnnae import dataio, evaluate, mlp, pqm, qsim, svgplot

    original_grad = mlp.batched_loss_and_grad
    tb_before, tb_after = _train_batch_hooks(mlp, original_grad)
    targets = [
        (dataio, "load_csv", "dataio.load_csv", None, None),
        (dataio, "split", "dataio.split", None, None),
        (evaluate, "sweep", "evaluate.sweep", None, None),
        (evaluate, "evaluate_sampled", "evaluate.evaluate_sampled", None, None),
        (evaluate, "evaluate_exhaustive", "evaluate.evaluate_exhaustive", None, None),
        (evaluate, "evaluate_weight_list", "evaluate.evaluate_weight_list", None, None),
        (evaluate, "performance_vector", "evaluate.performance_vector", None, None),
        (evaluate, "score", "evaluate.score", None, None),
        (mlp, "init_weights", "mlp.init_weights", None, None),
        (mlp, "train_batch", "mlp.train_batch", tb_before, tb_after),
        (mlp, "batched_loss", "mlp.batched_loss", _before_loss, None),
        (mlp, "batched_loss_and_grad", "mlp.batched_loss_and_grad", _before_grad, None),
        (mlp, "classify", "mlp.classify", None, None),
        (qsim, "apply_hadamard", "qsim.gates", _before_gate, None),
        (qsim, "apply_x", "qsim.gates", _before_gate, None),
        (qsim, "apply_cnot", "qsim.gates", _before_gate, None),
        (qsim, "apply_phase", "qsim.gates", _before_gate, None),
        (qsim, "measure_qubit", "qsim.measure_qubit", None, None),
        (pqm, "retrieve_analytic", "pqm.retrieve_analytic", None, None),
        (pqm, "retrieve_exact_from_circuit", "pqm.retrieve_exact_from_circuit", None, None),
        (pqm, "retrieve_circuit", "pqm.retrieve_circuit", _shots_hook(pqm), None),
        (svgplot, "write_scatter", "svgplot.write_scatter", None, None),
    ]
    modules = _program_modules()
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name, before, after in targets:
            original = getattr(owner, attr)
            wrapper = _wrapper(tracer, name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, wrapper)
        from_file = vars(pqm.PatternMemory)["from_file"]
        saved.append((pqm.PatternMemory, "from_file", from_file))
        pqm.PatternMemory.from_file = classmethod(
            _wrapper(tracer, "pqm.memory_load", from_file.__func__))
        yield tracer
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)


# ---- metrics ----------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, untraced_wall: float) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced run, in PER_LAYER order."""
    s, c, k = tracer.self_time, tracer.calls, tracer.counts
    kernel_gflop = k["mlp.kernel.flop"] / 1e9
    kernel_s = s["mlp.batched_loss"] + s["mlp.batched_loss_and_grad"]
    gate_gb = k["qsim.gates.bytes"] / 1e9
    values = {
        "mlp.train_batch.calls": c["mlp.train_batch"],
        "mlp.train_batch.rows": k["mlp.train_batch.rows"],
        "mlp.train_batch.self_s": s["mlp.train_batch"],
        "mlp.train_batch.iterations": k["mlp.train_batch.iterations"],
        "mlp.batched_loss_and_grad.rows": k["mlp.batched_loss_and_grad.rows"],
        "mlp.batched_loss_and_grad.self_s": s["mlp.batched_loss_and_grad"],
        "mlp.batched_loss.rows": k["mlp.batched_loss.rows"],
        "mlp.batched_loss.self_s": s["mlp.batched_loss"],
        "mlp.linesearch.accept_ratio": _ratio(k["mlp.linesearch.accepted"],
                                              k["mlp.batched_loss.rows"]),
        "mlp.kernel.gflop_computed": kernel_gflop,
        "mlp.kernel.gflops": _ratio(kernel_gflop, kernel_s),
        "mlp.unconverged_frac": _ratio(k["mlp.unconverged"], k["mlp.trained"]),
        "mlp.diverged": k["mlp.diverged"],
        "mlp.classify.calls": c["mlp.classify"],
        "mlp.classify.self_s": s["mlp.classify"],
        "mlp.init_weights.self_s": s["mlp.init_weights"],
        "evaluate.evaluate_weight_list.self_s": s["evaluate.evaluate_weight_list"],
        "evaluate.performance_vector.calls": c["evaluate.performance_vector"],
        "evaluate.performance_vector.self_s": s["evaluate.performance_vector"],
        "evaluate.score.self_s": s["evaluate.score"],
        "evaluate.grid_build.self_s": s["evaluate.evaluate_exhaustive"],
        "qsim.gates.calls": c["qsim.gates"],
        "qsim.gates.self_s": s["qsim.gates"],
        "qsim.gates.gb_computed": gate_gb,
        "qsim.gates.gbps": _ratio(gate_gb, s["qsim.gates"]),
        "qsim.measure_qubit.calls": c["qsim.measure_qubit"],
        "qsim.measure_qubit.self_s": s["qsim.measure_qubit"],
        "pqm.retrieve_circuit.shots": k["pqm.retrieve_circuit.shots"],
        "pqm.retrieve_circuit.self_s": s["pqm.retrieve_circuit"],
        "pqm.retrieve_exact_from_circuit.self_s": s["pqm.retrieve_exact_from_circuit"],
        "pqm.retrieve_analytic.self_s": s["pqm.retrieve_analytic"],
        "pqm.memory_load.self_s": s["pqm.memory_load"],
        "dataio.load_csv.self_s": s["dataio.load_csv"],
        "dataio.split.self_s": s["dataio.split"],
        "svgplot.write_scatter.self_s": s["svgplot.write_scatter"],
        "cli.self_s": s[ROOT],
        "trace.overhead_s": tracer.wall - untraced_wall,
    }
    return {name: float(values[name]) for name, _, _ in PER_LAYER}


def span_table(tracer: Tracer) -> List[Tuple[str, int, float, float]]:
    """(name, calls, total_s, self_s) for every span opened, largest self time first."""
    rows = [(n, c, tracer.total[n], tracer.self_time[n]) for n, c in tracer.calls.items() if c]
    return sorted(rows, key=lambda r: -r[3])
