"""Classifier tests: forward pass, gradients, the trainer."""
import math

import numpy as np
import pytest

from qnnae import mlp
from qnnae.mlp import (
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    classify,
    forward,
    init_weights,
    loss_and_grad,
    train,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def reference_forward(arch, weights, x):
    """Independent forward pass: plain loops, no shared code with the library."""
    n1 = (arch.input_dim + 1) * arch.hidden_neurons
    hidden = []
    for h in range(arch.hidden_neurons):
        z = weights[arch.input_dim * arch.hidden_neurons + h]  # bias row
        for i in range(arch.input_dim):
            z += x[i] * weights[i * arch.hidden_neurons + h]
        if arch.activation == "logistic":
            hidden.append(1.0 / (1.0 + math.exp(-z)))
        elif arch.activation == "tanh":
            hidden.append(math.tanh(z))
        else:
            hidden.append(max(z, 0.0))
    scores = []
    for o in range(arch.output_dim):
        z = weights[n1 + arch.hidden_neurons * arch.output_dim + o]  # bias row
        for h in range(arch.hidden_neurons):
            z += hidden[h] * weights[n1 + h * arch.output_dim + o]
        scores.append(z)
    return np.array(scores)


def reference_loss(arch, weights, x, y, l2):
    """Mean cross-entropy of reference_forward plus l2/2 * ||w||^2, in plain loops."""
    total = 0.0
    for xi, yi in zip(x, y):
        scores = reference_forward(arch, weights, xi)
        if arch.output_dim == 1:
            z = scores[0]
            total += math.log1p(math.exp(z)) - yi * z
        else:
            top = max(scores)
            total += top + math.log(sum(math.exp(s - top) for s in scores)) - scores[yi]
    return total / len(y) + 0.5 * l2 * sum(v * v for v in weights)


# ---------------------------------------------------------------------------
# architecture and initialization
# ---------------------------------------------------------------------------

def test_weight_count():
    assert MlpArchitecture(2, 2, 1).weight_count == 9
    assert MlpArchitecture(4, 3, 2).weight_count == (5 * 3) + (4 * 2)


def test_invalid_architecture():
    with pytest.raises(ValueError):
        MlpArchitecture(0, 1, 1)
    with pytest.raises(ValueError):
        MlpArchitecture(1, 1, 1, "softsign")


def test_init_deterministic():
    arch = MlpArchitecture(3, 5, 2)
    assert np.array_equal(init_weights(arch, 42), init_weights(arch, 42))
    assert not np.array_equal(init_weights(arch, 42), init_weights(arch, 43))


def test_init_mean_near_zero():
    arch = MlpArchitecture(2, 2, 1)
    samples = np.array([init_weights(arch, s)[0] for s in range(10000)])
    r = math.sqrt(6.0 / 4.0)
    sigma = r / math.sqrt(3.0)  # uniform on [-r, r]
    assert abs(samples.mean()) <= 4 * sigma / math.sqrt(len(samples))
    assert np.all(np.abs(samples) <= r)


def test_model_rejects_bad_weights():
    arch = MlpArchitecture(2, 2, 1)
    with pytest.raises(ValueError):
        MlpModel(arch, np.zeros(8))
    bad = np.zeros(9)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        MlpModel(arch, bad)


# ---------------------------------------------------------------------------
# forward and classify
# ---------------------------------------------------------------------------

def test_forward_zero_weights_symmetry():
    arch = MlpArchitecture(3, 4, 3)
    model = MlpModel(arch, np.zeros(arch.weight_count))
    scores = forward(model, np.array([1.0, -2.0, 0.5]))
    assert np.allclose(scores, scores[0])


def test_forward_bias_only_chain():
    arch = MlpArchitecture(1, 1, 1, "tanh")
    weights = np.zeros(arch.weight_count)
    weights[-1] = 0.7  # output bias
    model = MlpModel(arch, weights)
    assert forward(model, np.array([3.0]))[0] == pytest.approx(0.7)


@pytest.mark.parametrize("activation", ["logistic", "tanh", "relu"])
def test_forward_matches_reference(activation):
    rng = np.random.default_rng(8)
    arch = MlpArchitecture(4, 6, 3, activation)
    weights = init_weights(arch, 21)
    model = MlpModel(arch, weights)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.max(np.abs(forward(model, x) - reference_forward(arch, weights, x))) <= 1e-12


def test_forward_dimension_mismatch():
    model = MlpModel(MlpArchitecture(3, 2, 2), np.zeros(MlpArchitecture(3, 2, 2).weight_count))
    with pytest.raises(ValueError):
        forward(model, np.zeros(4))


def test_classify_argmax_and_ties():
    arch = MlpArchitecture(1, 1, 2, "tanh")
    weights = np.zeros(arch.weight_count)
    weights[-2:] = [0.9, 0.1]  # output biases become the scores
    assert classify(MlpModel(arch, weights), np.array([0.0])) == 0
    weights[-2:] = [0.5, 0.5]
    assert classify(MlpModel(arch, weights), np.array([0.0])) == 0


def test_classify_binary_threshold():
    arch = MlpArchitecture(1, 1, 1)
    weights = np.zeros(arch.weight_count)
    weights[-1] = 0.2  # sigmoid(0.2) > 0.5
    assert classify(MlpModel(arch, weights), np.array([0.0])) == 1
    weights[-1] = -0.2
    assert classify(MlpModel(arch, weights), np.array([0.0])) == 0


def test_last_layer_affine_in_weights():
    arch = MlpArchitecture(2, 3, 2, "tanh")
    weights = init_weights(arch, 3)
    n1 = (arch.input_dim + 1) * arch.hidden_neurons
    scaled = weights.copy()
    scaled[n1:] *= 2.5
    x = np.array([0.3, -0.8])
    assert np.allclose(
        forward(MlpModel(arch, scaled), x), 2.5 * forward(MlpModel(arch, weights), x)
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def finite_difference_grad(arch, w, x, y, l2, eps=1e-5):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        grad[i] = (
            mlp._loss_only(arch, wp, x, y, l2) - mlp._loss_only(arch, wm, x, y, l2)
        ) / (2 * eps)
    return grad


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    activation = ["logistic", "tanh", "relu"][seed % 3]
    arch = MlpArchitecture(
        int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4)), activation
    )
    w = init_weights(arch, seed)
    x = rng.normal(size=(int(rng.integers(2, 10)), arch.input_dim))
    y = rng.integers(0, arch.num_classes if arch.output_dim > 1 else 2, x.shape[0])
    if arch.output_dim == 1:
        y = np.minimum(y, 1)
    _, analytic = loss_and_grad(arch, w, x, y, 1e-4)
    numeric = finite_difference_grad(arch, w, x, y, 1e-4)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5


def test_batched_loss_and_grad_match_reference():
    # the kernels against the plain-loop reference loss and its central differences
    rng = np.random.default_rng(17)
    l2, eps = 1e-4, 1e-5
    for output_dim, activation in ((1, "logistic"), (3, "tanh")):
        arch = MlpArchitecture(3, 4, output_dim, activation)
        stack = np.stack([init_weights(arch, s) for s in range(4)])
        x = rng.normal(size=(9, 3))
        y = rng.integers(0, arch.num_classes, 9)
        losses = mlp.batched_loss(arch, stack, x, y, l2)
        grad_losses, grads = mlp.batched_loss_and_grad(arch, stack, x, y, l2)
        for i, w in enumerate(stack):
            expected = reference_loss(arch, w, x, y, l2)
            assert losses[i] == pytest.approx(expected, rel=1e-12)
            assert grad_losses[i] == pytest.approx(expected, rel=1e-12)
            numeric = np.zeros_like(w)
            for j in range(len(w)):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                numeric[j] = (
                    reference_loss(arch, wp, x, y, l2) - reference_loss(arch, wm, x, y, l2)
                ) / (2 * eps)
            denom = np.maximum(np.abs(grads[i]) + np.abs(numeric), 1e-8)
            assert np.max(np.abs(grads[i] - numeric) / denom) <= 1e-5


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_deterministic():
    arch = MlpArchitecture(2, 4, 1)
    model = MlpModel(arch, init_weights(arch, 0))
    first = train(model, XOR_X, XOR_Y)
    second = train(model, XOR_X, XOR_Y)
    assert np.array_equal(first.weights, second.weights)


def test_train_stationary_point_is_fixed():
    # a converged model re-enters training and exits on the tolerance check
    arch = MlpArchitecture(2, 4, 1)
    model = MlpModel(arch, init_weights(arch, 0))
    converged = train(model, XOR_X, XOR_Y, TrainConfig(max_iter=2000, tolerance=1e-6))
    again = train(converged, XOR_X, XOR_Y, TrainConfig(max_iter=50, tolerance=1e-4))
    assert np.array_equal(converged.weights, again.weights)


def test_train_loss_decreases():
    arch = MlpArchitecture(2, 4, 1)
    model = MlpModel(arch, init_weights(arch, 1))
    cfg = TrainConfig(max_iter=50)
    before = mlp._loss_only(arch, model.weights, XOR_X, XOR_Y.astype(float), cfg.l2_alpha)
    after_model = train(model, XOR_X, XOR_Y, cfg)
    after = mlp._loss_only(arch, after_model.weights, XOR_X, XOR_Y.astype(float), cfg.l2_alpha)
    assert after <= before


def test_train_xor_success_rate():
    # pinned-seed empirical oracle: at least 80 of 100 initializations
    # reach perfect training accuracy with 4 hidden neurons
    arch = MlpArchitecture(2, 4, 1)
    stack = np.stack([init_weights(arch, s) for s in range(100)])
    trained, diverged = mlp.train_batch(arch, stack, XOR_X, XOR_Y)
    assert not diverged.any()
    perfect = 0
    for weights in trained:
        model = MlpModel(arch, weights)
        perfect += int(np.all(classify(model, XOR_X) == XOR_Y))
    assert perfect >= 80


def test_l2_shrinks_weights():
    arch = MlpArchitecture(2, 4, 1)
    model = MlpModel(arch, init_weights(arch, 5))
    free = train(model, XOR_X, XOR_Y, TrainConfig(max_iter=200, l2_alpha=0.0))
    penalized = train(model, XOR_X, XOR_Y, TrainConfig(max_iter=200, l2_alpha=1e3))
    assert np.linalg.norm(penalized.weights) < np.linalg.norm(free.weights)


def test_train_validates_inputs():
    arch = MlpArchitecture(2, 2, 1)
    model = MlpModel(arch, init_weights(arch, 0))
    with pytest.raises(ValueError):
        train(model, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        train(model, XOR_X, np.array([0, 1, 2, 0]))  # label out of range
    with pytest.raises(ValueError):
        train(model, np.zeros((4, 3)), XOR_Y)


def test_train_raises_on_divergence():
    # relu output overflows to inf, so the starting loss is already non-finite
    arch = MlpArchitecture(2, 2, 1, "relu")
    model = MlpModel(arch, np.full(arch.weight_count, 1e300))
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train(model, XOR_X, XOR_Y)

