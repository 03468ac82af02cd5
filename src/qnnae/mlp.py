"""Single-hidden-layer feedforward classifier trained by full-batch L-BFGS.

Weights live in one flat vector: first the (input_dim+1) x hidden input-to-hidden
matrix (bias row last), then the (hidden+1) x output_dim hidden-to-output matrix.
Binary problems use a single logistic output with a 0.5 threshold; multiclass uses
softmax cross-entropy with argmax classification (ties broken toward the lowest
class index).

Training minimizes mean cross-entropy plus an L2 penalty by limited-memory BFGS
(Liu and Nocedal, Math. Programming 45, 1989): the direction comes from the
two-loop recursion over each network's last HISTORY steps (Nocedal and Wright,
Numerical Optimization, 2nd ed., 2006, ch. 7), and an Armijo backtracking line
search sets the step.
"""
from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

ACTIVATIONS = ("logistic", "tanh", "relu")
HISTORY = 10  # L-BFGS memory: the curvature pairs of a row's last HISTORY steps
_RUNNING = -1  # `train_batch`'s mark for a row still training; not a `StopReason`


class TrainingDivergedError(ArithmeticError):
    """Loss became non-finite during training."""


class StopReason(enum.IntEnum):
    """Why `train_batch` stopped training a row."""

    TOLERANCE = 0  # the gradient norm is below `tolerance`
    MAX_ITER = 1  # `max_iter` steps were taken
    EXHAUSTED = 2  # the line search halved its step below 1e-14 without an Armijo step
    DIVERGED = 3  # the loss, a gradient entry or the squared gradient norm went non-finite


class TrainResult(tuple):
    """`train_batch`'s `(weights, diverged)` pair, a 2-tuple that also carries
    `stop_reason`, each row's `StopReason` code (int8), and `iterations`, the
    number of steps each row took."""

    def __new__(cls, weights, diverged, stop_reason, iterations):
        result = super().__new__(cls, (weights, diverged))
        result.stop_reason = stop_reason
        result.iterations = iterations
        return result


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_neurons: int
    output_dim: int
    activation: str = "logistic"

    def __post_init__(self):
        for name in ("input_dim", "hidden_neurons", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )

    @property
    def weight_count(self) -> int:
        return (self.input_dim + 1) * self.hidden_neurons + (
            self.hidden_neurons + 1
        ) * self.output_dim

    @property
    def num_classes(self) -> int:
        return 2 if self.output_dim == 1 else self.output_dim


@dataclass
class TrainConfig:
    max_iter: int = 400
    l2_alpha: float = 1e-5
    learning_rate: float = 1.0  # the first step's scale, L-BFGS's initial gamma
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        for name in ("l2_alpha", "learning_rate", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.l2_alpha < 0:
            raise ValueError(f"l2_alpha must be >= 0, got {self.l2_alpha}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        # the line search halves a first step only down to 1e-14 of it
        if self.learning_rate > 1e6:
            raise ValueError(f"learning_rate must be <= {1e6}, got {self.learning_rate}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass
class MlpModel:
    """One network's weights, shape (W,), or a stack of networks, shape (S, W)."""

    architecture: MlpArchitecture
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights = np.asarray(self.weights, dtype=np.float64)
        count = self.architecture.weight_count
        if w.ndim not in (1, 2) or w.shape[-1] != count:
            raise ValueError(f"weights have shape {w.shape}, need ({count},) or (S, {count})")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")


def init_weights(arch: MlpArchitecture, rng_seed: int | np.random.SeedSequence) -> np.ndarray:
    """Glorot uniform draw on [-r, r] per layer; `rng_seed` is an int or a SeedSequence."""
    rng = np.random.default_rng(rng_seed)
    w = np.empty((1, arch.weight_count))
    for layer in _batched_unpack(arch, w):  # (1, fan_in + 1, fan_out), bias row last
        r = math.sqrt(6.0 / (layer.shape[1] - 1 + layer.shape[2]))
        layer[...] = rng.uniform(-r, r, size=layer.shape)
    return w[0]


def _activate(z: np.ndarray, activation: str, out: Optional[np.ndarray] = None) -> np.ndarray:
    if activation == "logistic":
        # 1 / (1 + exp(-clip(z, -500, 500))) in one buffer
        a = np.maximum(z, -500.0, out=out)
        np.minimum(a, 500.0, out=a)
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        return np.divide(1.0, a, out=a)
    if activation == "tanh":
        return np.tanh(z, out=out)
    return np.maximum(z, 0.0, out=out)


def _activation_grad(a: np.ndarray, activation: str) -> np.ndarray:
    # derivative expressed through the activation value; relu uses a > 0
    if activation == "logistic":
        t = 1.0 - a
        t *= a
        return t
    if activation == "tanh":
        t = a * a
        return np.subtract(1.0, t, out=t)
    return (a > 0.0).astype(np.float64)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Raw output scores (pre-softmax / pre-sigmoid) of one network or a stack,
    for one example or a batch: shape weights.shape[:-1] + x.shape[:-1] + (o,).
    x is used as given; callers standardize it.
    """
    x = np.asarray(x, dtype=np.float64)
    arch, w = model.architecture, model.weights
    if x.shape[-1] != arch.input_dim:
        raise ValueError(f"expected {arch.input_dim} features, got {x.shape[-1]}")
    xb = x.reshape(-1, arch.input_dim)
    w1, w2 = _batched_unpack(arch, w.reshape(-1, arch.weight_count))
    # a run of rows whose input-to-hidden weights are bit-for-bit equal (as a
    # grid in product order has) shares one hidden layer; -0.0 and 0.0 differ
    first = w1.view(np.int64)
    new_run = np.ones(len(w1), dtype=bool)
    new_run[1:] = np.any(first[1:] != first[:-1], axis=(1, 2))
    starts = np.flatnonzero(new_run)
    hidden = _hidden_layer(arch, w1[starts], xb)
    if len(starts) < len(w1):
        hidden = np.repeat(hidden, np.diff(starts, append=len(w1)), axis=0)
    scores = _output_layer(hidden, w2)
    return scores.reshape(w.shape[:-1] + x.shape[:-1] + (arch.output_dim,))


def classify(model: MlpModel, x: np.ndarray):
    """Class labels, shaped as `forward` less its class axis; an int for one
    network and one example.  Binary uses sigmoid(score) > 0.5, multiclass
    argmax, whose ties resolve to the lowest class index.

    A score that overflows to +-inf still has a label; a NaN score (where
    overflowing products cancel) has none and is a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores = forward(model, x)
    if np.isnan(scores).any():
        raise ValueError("network scores are NaN: the weights or inputs overflow")
    if model.architecture.output_dim == 1:
        labels = (scores[..., 0] > 0.0).astype(np.int64)
    else:
        labels = np.argmax(scores, axis=-1)
    return int(labels) if labels.ndim == 0 else labels


def _loss_only(
    arch: MlpArchitecture,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    l2_alpha: float,
) -> float:
    """One-model `batched_loss`."""
    return float(batched_loss(arch, w[None, :], x, y, l2_alpha)[0][0])


def loss_and_grad(
    arch: MlpArchitecture,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    l2_alpha: float,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy plus l2_alpha/2 * ||w||^2, with its analytic gradient."""
    loss, grad = batched_loss_and_grad(arch, w[None, :], x, y, l2_alpha)
    return float(loss[0]), grad[0]


def train(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[TrainConfig] = None,
) -> MlpModel:
    """Full-batch L-BFGS with Armijo backtracking; loss never increases.

    One-model `train_batch`; raises TrainingDivergedError if the loss goes
    non-finite.
    """
    arch = model.architecture
    if model.weights.ndim != 1:
        raise ValueError("train takes one network; train_batch trains a stack")
    w, diverged = train_batch(arch, model.weights[None, :], x, y, config)
    if diverged[0]:
        raise TrainingDivergedError("non-finite loss during training")
    return MlpModel(arch, w[0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (S, W) arrays; a row's value has
    the same bits whatever the other rows are."""
    return np.einsum("sw,sw->s", a, b)


def _batched_unpack(arch: MlpArchitecture, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(S, d+1, h) and (S, h+1, o) views of the two layers of a (S, W) stack."""
    s = w.shape[0]
    n1 = (arch.input_dim + 1) * arch.hidden_neurons
    w1 = w[:, :n1].reshape(s, arch.input_dim + 1, arch.hidden_neurons)
    w2 = w[:, n1:].reshape(s, arch.hidden_neurons + 1, arch.output_dim)
    return w1, w2


def _hidden_layer(arch: MlpArchitecture, w1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(S, n, h) hidden activations of (S, d+1, h) input-to-hidden matrices."""
    z1 = x @ w1[:, :-1]
    z1 += w1[:, -1][:, None, :]
    return _activate(z1, arch.activation, out=z1)


def _output_layer(hidden: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(S, n, o) raw scores of (S, h+1, o) hidden-to-output matrices."""
    scores = hidden @ w2[:, :-1]
    scores += w2[:, -1][:, None, :]
    return scores


def _class_max(z: np.ndarray) -> np.ndarray:
    """Max over the class axis of (S, n, o) scores, one column at a time."""
    m = np.maximum(z[..., 0], z[..., 1])
    for c in range(2, z.shape[2]):
        np.maximum(m, z[..., c], out=m)
    return m


def _class_sum(e: np.ndarray) -> np.ndarray:
    """Sum over the class axis of (S, n, o) values, columns added left to right.

    For fewer than 8 classes this is the order numpy's own reduction uses, so
    the bits match `e.sum(axis=2)`; column operations avoid numpy's slow
    reduction over a short last axis.
    """
    total = e[..., 0] + e[..., 1]
    for c in range(2, e.shape[2]):
        total += e[..., c]
    return total


def _batched_data_loss(arch: MlpArchitecture, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = z.shape[1]
    if arch.output_dim == 1:
        z0 = z[..., 0]
        t = np.logaddexp(0.0, z0)
        t -= y * z0
        return np.add.reduce(t, axis=1) / n
    zmax = _class_max(z)
    e = z - zmax[..., None]
    np.exp(e, out=e)
    t = np.log(_class_sum(e))
    t += zmax
    t -= z[:, np.arange(n), y]
    return np.add.reduce(t, axis=1) / n


def _penalized_loss(
    arch: MlpArchitecture, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2_alpha: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward state `(loss, hidden, z)` of a (S, weight_count) stack: mean
    cross-entropy plus l2_alpha/2 * ||w||^2, hidden activations (S, n, h) and
    raw scores (S, n, o)."""
    w1, w2 = _batched_unpack(arch, w)
    hidden = _hidden_layer(arch, w1, x)
    z = _output_layer(hidden, w2)
    loss = _batched_data_loss(arch, z, y) + 0.5 * l2_alpha * np.add.reduce(w * w, axis=1)
    return loss, hidden, z


def batched_loss(
    arch: MlpArchitecture, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2_alpha: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-model losses of a (S, weight_count) stack, with the forward state
    `(loss, hidden, z)` that `batched_loss_and_grad(..., forward=)` accepts."""
    return _penalized_loss(arch, w, x, y, l2_alpha)


def batched_loss_and_grad(
    arch: MlpArchitecture,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    l2_alpha: float,
    *,
    forward: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-model losses and their analytic gradients for a (S, weight_count) stack.

    `forward` is the `(loss, hidden, z)` of these same rows, as returned by
    `batched_loss`; given it, the forward pass is not run again.
    """
    n = x.shape[0]
    # not through `batched_loss`, whose calls perfbench's trace counts as
    # line-search trials
    loss, hidden, z = forward if forward is not None else _penalized_loss(arch, w, x, y, l2_alpha)
    if arch.output_dim == 1:
        dz = _activate(z, "logistic")
        dz -= y[:, None]
    else:
        # softmax minus the one-hot labels, in one buffer (p - 0.0 is p)
        dz = z - _class_max(z)[..., None]
        np.exp(dz, out=dz)
        dz /= _class_sum(dz)[..., None]
        dz[:, np.arange(n), y] -= 1.0
    dz /= n
    grad = np.empty_like(w)
    gw1, gw2 = _batched_unpack(arch, grad)
    gw2[:, :-1] = hidden.transpose(0, 2, 1) @ dz
    gw2[:, -1] = dz.sum(axis=1)
    w2 = _batched_unpack(arch, w)[1]
    dh = dz @ w2[:, :-1].transpose(0, 2, 1)
    dh *= _activation_grad(hidden, arch.activation)
    gw1[:, :-1] = x.T @ dh
    gw1[:, -1] = dh.sum(axis=1)
    grad += l2_alpha * w
    return loss, grad


def _kept_rows(keep: np.ndarray, arrays, pairs):
    """The working set's per-row `arrays` and stored `(s, y, rho)` triples,
    cut to the rows that `keep` marks."""
    triples = ((s_i[keep], y_i[keep], rho_i[keep]) for s_i, y_i, rho_i in pairs)
    return [a[keep] for a in arrays], collections.deque(triples, maxlen=HISTORY)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_batch(
    arch: MlpArchitecture,
    weights: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[TrainConfig] = None,
    feature_mean: Optional[np.ndarray] = None,
    feature_scale: Optional[np.ndarray] = None,
) -> TrainResult:
    """Train a stack of models by full-batch L-BFGS with Armijo backtracking.

    x is the (n, input_dim) feature matrix, n >= 1, used as given (callers
    standardize it).  y holds n whole-number labels in [0, num_classes),
    trained as int64; a fraction, NaN, infinity or a label out of range is a
    ValueError, and so is any `feature_mean` or `feature_scale` but None
    (the names remain only because perfbench's tracer binds them).

    Each row keeps its own history: the direction d is -H g, where H applies
    the pairs (s, y) of the row's last HISTORY steps by the two-loop recursion
    to gamma * g.  gamma starts at `learning_rate` and becomes s.y / y.y of
    the newest pair; a pair with s.y <= 0 is skipped, and a d with no finite
    negative slope g.d gives way to -g.  Each pass tries the step w + t d of
    every running row at t = 1; the rows that fail it share one t, halved
    until loss(w + t d) <= loss(w) + 1e-4 t g.d, and a row still failing
    once t < 1e-14 is given up.  A row stops when its gradient norm falls
    below `tolerance`, after `max_iter` steps, when its line search gives
    up, or when it diverges; a row whose last allowed step brings its
    gradient norm below `tolerance` stops on the tolerance.  A stopped row's
    weights are written to the result and the row leaves the working set,
    so no later pass touches it.  A row's result does not depend on the
    rest of the stack.

    Returns the final (S, weight_count) weights as a new array, leaving
    `weights` as it was, and a boolean mask of diverged models: those whose
    loss, any gradient entry or squared gradient norm went non-finite, at the
    initial weights or after a step (their row holds the last weights
    reached).  The pair is a `TrainResult`, which also holds each row's
    `StopReason` and step count.  Overflow is handled through these checks
    and the line search's rejection of non-finite trial losses, so it raises
    no numpy warning.
    """
    config = config or TrainConfig()
    out = np.array(weights, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != arch.weight_count:
        raise ValueError(f"expected (S, {arch.weight_count}) weight stack")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).reshape(-1)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"expected feature matrix with {arch.input_dim} columns")
    if x.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if y.shape[0] != x.shape[0]:
        raise ValueError("feature and label counts differ")
    if y.dtype.kind == "f" and not np.all(np.isfinite(y) & (np.round(y) == y)):
        raise ValueError("labels must be whole numbers")
    if y.min() < 0 or y.max() >= arch.num_classes:
        raise ValueError(f"labels must lie in [0, {arch.num_classes})")
    if feature_mean is not None or feature_scale is not None:
        raise ValueError("train_batch uses x as given; standardize it before the call")
    y = y.astype(np.float64 if arch.output_dim == 1 else np.int64)

    n_rows = len(out)
    reason = np.full(n_rows, _RUNNING, dtype=np.int8)
    iterations = np.zeros(n_rows, dtype=np.int64)
    # the working set: the stack rows `live` still running, each with its
    # weights, loss, gradient and gamma (s.y / y.y of its newest kept pair),
    # and one (s, y, rho) per pass: the step, the gradient change and 1/(s.y),
    # rho = 0 where s.y <= 0
    live = np.arange(n_rows)
    w = out.copy()
    loss, grad = batched_loss_and_grad(arch, w, x, y, config.l2_alpha)
    gamma = np.full(n_rows, config.learning_rate)
    pairs = collections.deque(maxlen=HISTORY)
    # pass k first judges the state after k steps; pass max_iter only judges
    for k in range(config.max_iter + 1):
        gnorm_sq = _row_dots(grad, grad)
        verdict = np.full(live.size, StopReason.MAX_ITER if k == config.max_iter else _RUNNING,
                          dtype=np.int8)
        verdict[np.sqrt(gnorm_sq) < config.tolerance] = StopReason.TOLERANCE
        # divergence overrides; a non-finite gradient entry makes the squared
        # norm non-finite too
        verdict[~(np.isfinite(loss) & np.isfinite(gnorm_sq))] = StopReason.DIVERGED
        stopped = verdict != _RUNNING
        if stopped.any():
            reason[live[stopped]] = verdict[stopped]
            out[live[stopped]] = w[stopped]
            (live, w, loss, grad, gamma, gnorm_sq), pairs = _kept_rows(
                ~stopped, (live, w, loss, grad, gamma, gnorm_sq), pairs)
            if live.size == 0:
                break
        # two-loop recursion, newest pair first
        d = grad.copy()
        alphas = []
        for s_i, y_i, rho_i in reversed(pairs):
            alphas.append(rho_i * _row_dots(s_i, d))
            d -= alphas[-1][:, None] * y_i
        d *= gamma[:, None]
        for (s_i, y_i, rho_i), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho_i * _row_dots(y_i, d))[:, None] * s_i
        np.negative(d, out=d)
        slope = _row_dots(grad, d)
        uphill = ~(np.isfinite(slope) & (slope < 0.0))
        if uphill.any():  # no finite descent direction: step along -g instead
            d[uphill] = -grad[uphill]
            slope[uphill] = -gnorm_sq[uphill]
        # the unit step of every row at once; s, hidden and z become each
        # row's accepted step and its forward state as halvings accept rows
        s = d
        w_try = w + s
        loss_try, hidden, z = batched_loss(arch, w_try, x, y, config.l2_alpha)
        ok = np.isfinite(loss_try) & (loss_try <= loss + 1e-4 * slope)
        w = np.where(ok[:, None], w_try, w)
        loss = np.where(ok, loss_try, loss)
        rows = np.flatnonzero(~ok)
        t = 1.0
        while rows.size:
            t *= 0.5
            if t < 1e-14:  # no Armijo step left to try
                break
            s_try = t * d[rows]
            w_try = w[rows] + s_try
            loss_try, hidden_try, z_try = batched_loss(arch, w_try, x, y, config.l2_alpha)
            ok = np.isfinite(loss_try) & (loss_try <= loss[rows] + 1e-4 * t * slope[rows])
            acc = rows[ok]
            w[acc], loss[acc], hidden[acc], z[acc], s[acc] = (
                w_try[ok], loss_try[ok], hidden_try[ok], z_try[ok], s_try[ok])
            rows = rows[~ok]
        if rows.size:  # the rows left stop where they are
            reason[live[rows]] = StopReason.EXHAUSTED
            out[live[rows]] = w[rows]
            keep = np.ones(live.size, dtype=bool)
            keep[rows] = False
            (live, w, loss, grad, gamma, s, hidden, z), pairs = _kept_rows(
                keep, (live, w, loss, grad, gamma, s, hidden, z), pairs)
            if live.size == 0:
                break
        iterations[live] += 1
        _, grad_new = batched_loss_and_grad(
            arch, w, x, y, config.l2_alpha, forward=(loss, hidden, z))
        y_step = grad_new - grad
        grad = grad_new
        sy = _row_dots(s, y_step)
        kept = sy > 0.0
        np.divide(sy, _row_dots(y_step, y_step), out=gamma, where=kept)
        pairs.append((s, y_step, np.where(kept, 1.0 / sy, 0.0)))
    return TrainResult(out, reason == StopReason.DIVERGED, reason, iterations)
