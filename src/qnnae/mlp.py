"""Single-hidden-layer feedforward classifier trained by full-batch gradient descent.

Weights live in one flat vector: first the (input_dim+1) x hidden input-to-hidden
matrix (bias row last), then the (hidden+1) x output_dim hidden-to-output matrix.
Binary problems use a single logistic output with a 0.5 threshold; multiclass uses
softmax cross-entropy with argmax classification (ties broken toward the lowest
class index).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

ACTIVATIONS = ("logistic", "tanh", "relu")


class TrainingDivergedError(ArithmeticError):
    """Loss became non-finite during training."""


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
    learning_rate: float = 1.0
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.l2_alpha < 0:
            raise ValueError(f"l2_alpha must be >= 0, got {self.l2_alpha}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass
class MlpModel:
    architecture: MlpArchitecture
    weights: np.ndarray
    feature_mean: Optional[np.ndarray] = None
    feature_scale: Optional[np.ndarray] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.weights.shape[0] != self.architecture.weight_count:
            raise ValueError(
                f"weight vector has length {self.weights.shape[0]}, "
                f"architecture needs {self.architecture.weight_count}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")


def init_weights(arch: MlpArchitecture, rng_seed: int) -> np.ndarray:
    """Per-layer uniform draw on [-r, r] with r = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(rng_seed)
    r1 = math.sqrt(6.0 / (arch.input_dim + arch.hidden_neurons))
    r2 = math.sqrt(6.0 / (arch.hidden_neurons + arch.output_dim))
    w1 = rng.uniform(-r1, r1, size=(arch.input_dim + 1) * arch.hidden_neurons)
    w2 = rng.uniform(-r2, r2, size=(arch.hidden_neurons + 1) * arch.output_dim)
    return np.concatenate([w1, w2])


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "logistic":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    if activation == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activation_grad(a: np.ndarray, activation: str) -> np.ndarray:
    # derivative expressed through the activation value; relu uses a > 0
    if activation == "logistic":
        return a * (1.0 - a)
    if activation == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _standardize(model: MlpModel, x: np.ndarray) -> np.ndarray:
    if model.feature_mean is None:
        return x
    return (x - model.feature_mean) / model.feature_scale


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Raw output scores (pre-softmax / pre-sigmoid) for one example or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    arch = model.architecture
    if xb.shape[1] != arch.input_dim:
        raise ValueError(f"expected {arch.input_dim} features, got {xb.shape[1]}")
    _, scores = _batched_scores(arch, model.weights[None, :], _standardize(model, xb))
    return scores[0, 0] if single else scores[0]


def classify(model: MlpModel, x: np.ndarray):
    """Class labels; binary uses sigmoid(score) > 0.5, multiclass argmax.

    Argmax ties resolve to the lowest class index.
    """
    single = np.asarray(x).ndim == 1
    scores = np.atleast_2d(forward(model, x))
    if model.architecture.output_dim == 1:
        labels = (scores[:, 0] > 0.0).astype(np.int64)
    else:
        labels = np.argmax(scores, axis=1)
    return int(labels[0]) if single else labels


def _loss_only(
    arch: MlpArchitecture,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    l2_alpha: float,
) -> float:
    """One-model `batched_loss`."""
    return float(batched_loss(arch, w[None, :], x, y, l2_alpha)[0])


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
    """Full-batch gradient descent with Armijo backtracking; loss never increases.

    One-model `train_batch`; raises TrainingDivergedError if the loss goes
    non-finite.
    """
    arch = model.architecture
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).reshape(-1)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"expected feature matrix with {arch.input_dim} columns")
    if x.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if y.shape[0] != x.shape[0]:
        raise ValueError("feature and label counts differ")
    if y.min() < 0 or y.max() >= arch.num_classes:
        raise ValueError(f"labels must lie in [0, {arch.num_classes})")
    w, diverged = train_batch(
        arch, model.weights[None, :], x, y, config, model.feature_mean, model.feature_scale
    )
    if diverged[0]:
        raise TrainingDivergedError("non-finite loss during training")
    return MlpModel(arch, w[0], model.feature_mean, model.feature_scale)


def _batched_unpack(arch: MlpArchitecture, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    s = w.shape[0]
    n1 = (arch.input_dim + 1) * arch.hidden_neurons
    w1 = w[:, :n1].reshape(s, arch.input_dim + 1, arch.hidden_neurons)
    w2 = w[:, n1:].reshape(s, arch.hidden_neurons + 1, arch.output_dim)
    return w1, w2


def _batched_scores(
    arch: MlpArchitecture, w: np.ndarray, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hidden activations and raw scores for a stack of models; shapes (S,n,h), (S,n,o)."""
    w1, w2 = _batched_unpack(arch, w)
    z1 = np.einsum("nd,sdh->snh", x, w1[:, :-1]) + w1[:, -1][:, None, :]
    hidden = _activate(z1, arch.activation)
    scores = np.einsum("snh,sho->sno", hidden, w2[:, :-1]) + w2[:, -1][:, None, :]
    return hidden, scores


def _batched_data_loss(arch: MlpArchitecture, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if arch.output_dim == 1:
        z0 = z[..., 0]
        return np.mean(np.logaddexp(0.0, z0) - y[None, :] * z0, axis=1)
    zmax = z.max(axis=2, keepdims=True)
    lse = zmax[..., 0] + np.log(np.sum(np.exp(z - zmax), axis=2))
    correct = np.take_along_axis(
        z, np.broadcast_to(y[None, :, None], z.shape[:2] + (1,)), axis=2
    )[..., 0]
    return np.mean(lse - correct, axis=1)


def batched_loss(
    arch: MlpArchitecture, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2_alpha: float
) -> np.ndarray:
    """Per-model losses for a (S, weight_count) stack."""
    _, z = _batched_scores(arch, w, x)
    return _batched_data_loss(arch, z, y) + 0.5 * l2_alpha * np.sum(w * w, axis=1)


def batched_loss_and_grad(
    arch: MlpArchitecture, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2_alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-model losses and their analytic gradients for a (S, weight_count) stack."""
    n = x.shape[0]
    w1, w2 = _batched_unpack(arch, w)
    hidden, z = _batched_scores(arch, w, x)
    loss = _batched_data_loss(arch, z, y) + 0.5 * l2_alpha * np.sum(w * w, axis=1)
    if arch.output_dim == 1:
        dz = (_activate(z[..., 0], "logistic") - y[None, :])[..., None] / n
    else:
        zmax = z.max(axis=2, keepdims=True)
        ez = np.exp(z - zmax)
        probs = ez / ez.sum(axis=2, keepdims=True)
        onehot = np.eye(arch.output_dim)[y]
        dz = (probs - onehot[None]) / n
    grad = np.empty_like(w)
    n1 = (arch.input_dim + 1) * arch.hidden_neurons
    gw1 = grad[:, :n1].reshape(w1.shape)
    gw2 = grad[:, n1:].reshape(w2.shape)
    gw2[:, :-1] = np.einsum("snh,sno->sho", hidden, dz)
    gw2[:, -1] = dz.sum(axis=1)
    dh = np.einsum("sno,sho->snh", dz, w2[:, :-1])
    dh *= _activation_grad(hidden, arch.activation)
    gw1[:, :-1] = np.einsum("nd,snh->sdh", x, dh)
    gw1[:, -1] = dh.sum(axis=1)
    grad += l2_alpha * w
    return loss, grad


def train_batch(
    arch: MlpArchitecture,
    weights: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[TrainConfig] = None,
    feature_mean: Optional[np.ndarray] = None,
    feature_scale: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Train a stack of models by full-batch gradient descent with Armijo backtracking.

    Each row keeps its own step size and Armijo acceptance.  Returns the final
    (S, weight_count) weights and a boolean mask of models whose loss went
    non-finite (their row holds the last finite weights).
    """
    config = config or TrainConfig()
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != arch.weight_count:
        raise ValueError(f"expected (S, {arch.weight_count}) weight stack")
    x = np.asarray(x, dtype=np.float64)
    if feature_mean is not None:
        x = (x - feature_mean) / feature_scale
    y = np.asarray(y).reshape(-1)
    if arch.output_dim == 1:
        y = y.astype(np.float64)

    s = w.shape[0]
    step = np.full(s, config.learning_rate)
    loss, grad = batched_loss_and_grad(arch, w, x, y, config.l2_alpha)
    diverged = ~np.isfinite(loss)
    active = ~diverged
    for _ in range(config.max_iter):
        gnorm_sq = np.sum(grad * grad, axis=1)
        active &= np.sqrt(gnorm_sq) >= config.tolerance
        if not active.any():
            break
        step = np.minimum(step * 2.0, 1e6)
        searching = active.copy()
        accepted = np.zeros(s, dtype=bool)
        w_next = w.copy()
        while searching.any():
            w_try = w[searching] - step[searching, None] * grad[searching]
            loss_try = batched_loss(arch, w_try, x, y, config.l2_alpha)
            ok = np.isfinite(loss_try) & (
                loss_try
                <= loss[searching] - 1e-4 * step[searching] * gnorm_sq[searching]
            )
            idx = np.flatnonzero(searching)
            w_next[idx[ok]] = w_try[ok]
            accepted[idx[ok]] = True
            searching[idx[ok]] = False
            step[idx[~ok]] *= 0.5
            exhausted = searching & (step < 1e-14)
            active[exhausted] = False  # no descent step: converged
            searching[exhausted] = False
        if not accepted.any():
            continue
        w = w_next
        acc_idx = np.flatnonzero(accepted)
        loss_new, grad_new = batched_loss_and_grad(
            arch, w[acc_idx], x, y, config.l2_alpha
        )
        loss[acc_idx] = loss_new
        grad[acc_idx] = grad_new
        bad = np.zeros(s, dtype=bool)
        bad[acc_idx] = ~np.isfinite(loss_new) | ~np.isfinite(grad_new).all(axis=1)
        diverged |= bad
        active &= ~bad
    return w, diverged
