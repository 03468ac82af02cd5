"""Classifier tests: forward pass, gradients, the trainer."""
import collections
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qnnae import dataio, evaluate, mlp
from qnnae.dataio import SplitSpec
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


@pytest.mark.parametrize("d, h, o", itertools.product((1, 2, 5), (1, 4, 19), (1, 3)))
def test_init_weights_matches_two_uniform_draws(d, h, o):
    # the flat layout: first layer then second, each drawn Glorot-uniform in turn
    arch = MlpArchitecture(d, h, o)
    r1, r2 = math.sqrt(6.0 / (d + h)), math.sqrt(6.0 / (h + o))
    for entropy in (0, 17, (3, 1), (2**40, 9)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        expected = np.concatenate([rng.uniform(-r1, r1, size=(d + 1) * h),
                                   rng.uniform(-r2, r2, size=(h + 1) * o)])
        got = init_weights(arch, np.random.SeedSequence(entropy))
        assert got.shape == (arch.weight_count,)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(init_weights(arch, 5), init_weights(arch, np.random.SeedSequence(5)))


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
    for shape in ((2, 3, 9), (4, 10), (9, 4)):  # 3-D, or a wrong last axis
        with pytest.raises(ValueError, match="shape"):
            MlpModel(arch, np.zeros(shape))


@pytest.mark.parametrize("mean, scale, message", [
    ([np.nan, 0.0], [1.0, 1.0], "feature_mean must be finite"),
    ([0.0], [1.0, 1.0], r"feature_mean has shape \(1,\), need \(2,\)"),
    ([0.0, 0.0], [1.0, 0.0], "feature_scale must be nonzero"),
    ([0.0, 0.0], [np.inf, 1.0], "feature_scale must be finite"),
    ([0.0, 0.0], None, "given together"),
], ids=["nan-mean", "short-mean", "zero-scale", "inf-scale", "mean-only"])
def test_feature_statistics_are_checked(mean, scale, message):
    # statistics that would standardize to NaN, broadcast, or warn are rejected
    arch = MlpArchitecture(2, 2, 1)
    stack = np.stack([init_weights(arch, s) for s in range(2)])
    with pytest.raises(ValueError, match=message):
        mlp.train_batch(arch, stack, XOR_X, XOR_Y, None, mean, scale)


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


@pytest.mark.parametrize("output_dim", [1, 3])
def test_classify_labels_infinite_scores_and_rejects_nan(output_dim):
    # relu passes an overflowed hidden unit on as inf: one such unit gives
    # +-inf scores, two with opposite output weights give inf - inf = NaN
    arch = MlpArchitecture(1, 2, output_dim, "relu")
    x = np.array([[-1.0], [0.5], [2.0]])
    w2 = np.zeros((3, output_dim))
    w2[0] = [-1.0, 0.5, 1.0][:output_dim]
    w2[2] = 0.25

    def model(second_unit):
        w1 = np.array([[1e308, second_unit], [0.0, 0.0]])
        return MlpModel(arch, np.concatenate([w1.ravel(), w2.ravel()]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = classify(model(0.0), x)
    with np.errstate(all="ignore"):
        scores = forward(model(0.0), x)
    assert np.isinf(scores[2]).all()
    want = scores[:, 0] > 0 if output_dim == 1 else np.argmax(scores, axis=-1)
    assert np.array_equal(labels, want)
    w2[1] = -w2[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scores are NaN"):
            classify(model(1e308), x)


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


def product_order_stack(arch, stack, rng):
    """Rows of `stack` with their first (d+1)*h weights kept, repeated in runs
    of 1, 2, 3, 4, 1 and 2 rows whose output layers are redrawn, as consecutive
    points of a grid in product order are; the first layers of runs 2 and 3
    differ only in the sign of one zero, those of runs 4 and 5 in one weight."""
    n1 = (arch.input_dim + 1) * arch.hidden_neurons
    firsts = stack[:, :n1].copy()
    firsts[1, 0] = 0.0
    firsts[2] = firsts[1]
    firsts[2, 0] = -0.0
    firsts[4] = firsts[3]
    firsts[4, 5] += 1.0
    rows = np.repeat(firsts, [1, 2, 3, 4, 1, 2], axis=0)
    return np.hstack([rows, 2.0 * rng.normal(size=(len(rows), arch.weight_count - n1))])


@pytest.mark.parametrize("output_dim", [1, 3, 5])
@pytest.mark.parametrize("activation", ["logistic", "tanh", "relu"])
def test_stack_matches_one_network_at_a_time(output_dim, activation):
    # each row of a stacked forward/classify has the bits of its one-network
    # call, so classifying a whole chunk at once cannot move a report; the
    # product-order stack comes in chunks of 4, which cut its runs of 3 and 4
    rng = np.random.default_rng(11)
    arch = MlpArchitecture(3, 4, output_dim, activation)
    stack = 2.0 * rng.normal(size=(6, arch.weight_count))
    mean, scale = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    xs = ((rng.normal(size=(50, 3)) - mean) / scale, (rng.normal(size=3) - mean) / scale)
    grid = product_order_stack(arch, stack, rng)
    for chunk in [stack] + [grid[i : i + 4] for i in range(0, len(grid), 4)]:
        stacked = MlpModel(arch, chunk)
        for x in xs:
            scores, labels = forward(stacked, x), classify(stacked, x)
            assert scores.shape == (len(chunk),) + x.shape[:-1] + (output_dim,)
            assert labels.shape == (len(chunk),) + x.shape[:-1]
            for i, w in enumerate(chunk):
                one = MlpModel(arch, w)
                assert np.array_equal(scores[i], forward(one, x))
                assert np.array_equal(labels[i], classify(one, x))


@pytest.mark.parametrize("levels", [(-1.0, 1.0), (-0.0, 0.0)])
def test_forward_activates_each_run_of_equal_first_layers_once(levels, monkeypatch):
    # 2 levels over (2, 1, 1)'s 5 weights: 32 rows, whose last 2 weights vary
    # fastest, so 8 runs of 4 rows share a first layer; -0.0 and 0.0 are
    # different weights even though they compare equal
    arch = MlpArchitecture(2, 1, 1)
    stack = np.array(list(itertools.product(levels, repeat=arch.weight_count)))
    real = mlp._activate
    shapes = []

    def recording(z, activation, out=None):
        shapes.append(z.shape)
        return real(z, activation, out=out)

    monkeypatch.setattr(mlp, "_activate", recording)
    labels = classify(MlpModel(arch, stack), XOR_X)
    assert shapes == [(8, 4, 1)]
    assert labels.shape == (32, 4)


@pytest.mark.parametrize("output_dim", [1, 3])
def test_forward_on_empty_and_single_stacks(output_dim):
    arch = MlpArchitecture(2, 3, output_dim)
    x = np.random.default_rng(13).normal(size=(5, 2))
    empty = MlpModel(arch, np.empty((0, arch.weight_count)))
    assert forward(empty, x).shape == (0, 5, output_dim)
    assert classify(empty, x).shape == (0, 5)
    w = init_weights(arch, 4)
    single = MlpModel(arch, w[None, :])
    assert np.array_equal(forward(single, x)[0], forward(MlpModel(arch, w), x))
    assert np.array_equal(classify(single, x)[0], classify(MlpModel(arch, w), x))


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
    cases = ((1, "logistic"), (1, "relu"), (3, "logistic"), (3, "tanh"))
    for output_dim, activation in cases:
        arch = MlpArchitecture(3, 4, output_dim, activation)
        stack = np.stack([init_weights(arch, s) for s in range(4)])
        x = rng.normal(size=(9, 3))
        y = rng.integers(0, arch.num_classes, 9)
        losses = mlp.batched_loss(arch, stack, x, y, l2)[0]
        grad_losses, grads = mlp.batched_loss_and_grad(arch, stack, x, y, l2)
        # the gradient from a reused forward state is the same to the bit
        state = mlp.batched_loss(arch, stack, x, y, l2)
        assert np.array_equal(state[0], losses)
        reused_losses, reused_grads = mlp.batched_loss_and_grad(
            arch, stack, x, y, l2, forward=state
        )
        assert np.array_equal(reused_losses, grad_losses)
        assert np.array_equal(reused_grads, grads)
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


@pytest.mark.parametrize(
    "output_dim, activation", [(1, "logistic"), (3, "tanh"), (1, "relu")]
)
def test_train_batch_rows_independent_of_stack_size(output_dim, activation):
    # a row trains to the same bits alone or inside a stack, so reports cannot
    # depend on how samples are chunked
    rng = np.random.default_rng(5)
    arch = MlpArchitecture(2, 3, output_dim, activation)
    x = rng.normal(size=(30, 2))
    y = rng.integers(0, arch.num_classes, 30)
    stack = np.stack([init_weights(arch, s) for s in range(5)])
    cfg = TrainConfig(max_iter=150)
    together, diverged = mlp.train_batch(arch, stack, x, y, cfg)
    assert not diverged.any()
    for i in range(len(stack)):
        alone, _ = mlp.train_batch(arch, stack[i : i + 1], x, y, cfg)
        assert np.array_equal(alone[0], together[i])


def test_train_batch_reports_each_rows_stop_reason(monkeypatch):
    # one stack, every reason: a row already at a stationary point, two fresh
    # rows cut off by max_iter, a row whose gradient points uphill so no trial
    # passes the Armijo test, and a row whose starting loss overflows
    arch = MlpArchitecture(2, 4, 1)
    settled = mlp.train_batch(arch, init_weights(arch, 0)[None], XOR_X, XOR_Y,
                              TrainConfig(max_iter=5000, tolerance=1e-4))
    assert settled.stop_reason[0] == mlp.StopReason.TOLERANCE
    stack = np.stack([settled[0][0], init_weights(arch, 1), init_weights(arch, 2),
                      init_weights(arch, 3), np.full(arch.weight_count, 1e300)])
    kernel = mlp.batched_loss_and_grad

    def uphill(arch, w, *args, **kwargs):
        loss, grad = kernel(arch, w, *args, **kwargs)
        grad[(w == stack[3]).all(axis=1)] *= -1.0
        return loss, grad

    monkeypatch.setattr(mlp, "batched_loss_and_grad", uphill)
    cfg = TrainConfig(max_iter=3, tolerance=1e-3)
    with np.errstate(all="ignore"):
        result = mlp.train_batch(arch, stack, XOR_X, XOR_Y, cfg)
    w, diverged = result
    assert isinstance(result, tuple) and len(result) == 2
    reason = mlp.StopReason
    assert result.stop_reason.tolist() == [
        reason.TOLERANCE, reason.MAX_ITER, reason.MAX_ITER, reason.EXHAUSTED, reason.DIVERGED]
    assert np.bincount(result.stop_reason, minlength=len(reason)).tolist() == [1, 2, 1, 1]
    assert result.iterations.tolist() == [0, 3, 3, 0, 0]
    assert np.array_equal(diverged, result.stop_reason == reason.DIVERGED)
    # rows that took no step keep their weights
    assert np.array_equal(w[[0, 3]], stack[[0, 3]])


@pytest.mark.parametrize("field", ["l2_alpha", "learning_rate", "tolerance"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_rejects_nonfinite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


def test_train_validates_inputs():
    arch = MlpArchitecture(2, 2, 1)
    model = MlpModel(arch, init_weights(arch, 0))
    with pytest.raises(ValueError):
        train(model, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        train(model, XOR_X, np.array([0, 1, 2, 0]))  # label out of range
    with pytest.raises(ValueError):
        train(model, np.zeros((4, 3)), XOR_Y)
    stack = MlpModel(arch, np.stack([init_weights(arch, s) for s in range(2)]))
    with pytest.raises(ValueError, match="one network"):  # stacks go to train_batch
        train(stack, XOR_X, XOR_Y)


def test_train_raises_on_divergence():
    # relu output overflows to inf, so the starting loss is already non-finite
    arch = MlpArchitecture(2, 2, 1, "relu")
    model = MlpModel(arch, np.full(arch.weight_count, 1e300))
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train(model, XOR_X, XOR_Y)



# ---------------------------------------------------------------------------
# trimmed kernels against the plain formulas, bit for bit
# ---------------------------------------------------------------------------

# finite floats (including 0.0 and |z| > 500, where the logistic clip acts)
# plus the infinities
Z_VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 500.0, -500.0, 500.5, -750.0, math.inf, -math.inf]),
)


def plain_data_loss(z, y):
    """Mean cross-entropy per model, written with the plain numpy formulas."""
    if z.shape[2] == 1:
        z0 = z[..., 0]
        return np.mean(np.logaddexp(0.0, z0) - y[None, :] * z0, axis=1)
    zmax = z.max(axis=2, keepdims=True)
    lse = zmax[..., 0] + np.log(np.sum(np.exp(z - zmax), axis=2))
    correct = np.take_along_axis(
        z, np.broadcast_to(y[None, :, None], z.shape[:2] + (1,)), axis=2
    )[..., 0]
    return np.mean(lse - correct, axis=1)


@settings(max_examples=200, deadline=None)
@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                    elements=Z_VALUES))
def test_activate_matches_plain_formulas(z):
    before = z.copy()
    with np.errstate(all="ignore"):
        expected = {
            "logistic": 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
            "tanh": np.tanh(z),
            "relu": np.maximum(z, 0.0),
        }
        for activation, want in expected.items():
            got = mlp._activate(z, activation)
            assert np.array_equal(got, want, equal_nan=True), activation
    assert np.array_equal(z, before)  # the input is not overwritten


@settings(max_examples=200, deadline=None)
@given(data=st.data(), output_dim=st.sampled_from([1, 2, 3, 5, 7]),
       s=st.integers(1, 4), n=st.integers(1, 6))
def test_batched_data_loss_matches_plain_formulas(data, output_dim, s, n):
    z = data.draw(hnp.arrays(np.float64, (s, n, output_dim), elements=Z_VALUES))
    num_classes = 2 if output_dim == 1 else output_dim
    y = np.array(data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)))
    if output_dim == 1:
        y = y.astype(np.float64)
    arch = MlpArchitecture(2, 1, output_dim)
    with np.errstate(all="ignore"):
        got = mlp._batched_data_loss(arch, z, y)
        want = plain_data_loss(z, y)
    assert np.array_equal(got, want, equal_nan=True)


def numpy_class_sum(e):
    return e.sum(axis=2, keepdims=True)


def left_to_right_class_sum(e):
    total = e[..., :1].copy()
    for c in range(1, e.shape[2]):
        total += e[..., c : c + 1]
    return total


def plain_loss_and_grad(arch, w, x, y, l2, class_sum=numpy_class_sum):
    """Loss and gradient of a weight stack in the plain numpy form, one temporary a step."""
    s, d, h, o = w.shape[0], arch.input_dim, arch.hidden_neurons, arch.output_dim
    n = x.shape[0]
    n1 = (d + 1) * h
    w1 = w[:, :n1].reshape(s, d + 1, h)
    w2 = w[:, n1:].reshape(s, h + 1, o)
    z1 = x @ w1[:, :-1] + w1[:, -1][:, None, :]
    if arch.activation == "logistic":
        a = 1.0 / (1.0 + np.exp(-np.clip(z1, -500, 500)))
        da = a * (1.0 - a)
    elif arch.activation == "tanh":
        a = np.tanh(z1)
        da = 1.0 - a * a
    else:
        a = np.maximum(z1, 0.0)
        da = (a > 0.0).astype(np.float64)
    z = a @ w2[:, :-1] + w2[:, -1][:, None, :]
    if o == 1:
        z0 = z[..., 0]
        data_loss = np.mean(np.logaddexp(0.0, z0) - y[None, :] * z0, axis=1)
        p = 1.0 / (1.0 + np.exp(-np.clip(z0, -500, 500)))
        dz = (p - y[None, :])[..., None] / n
    else:
        zmax = z.max(axis=2, keepdims=True)
        ez = np.exp(z - zmax)
        total = class_sum(ez)
        correct = z[:, np.arange(n), y]
        data_loss = np.mean(zmax[..., 0] + np.log(total[..., 0]) - correct, axis=1)
        dz = (ez / total - np.eye(o)[y][None]) / n
    loss = data_loss + 0.5 * l2 * np.sum(w * w, axis=1)
    gw2 = np.concatenate([a.transpose(0, 2, 1) @ dz, dz.sum(axis=1)[:, None, :]], axis=1)
    dh = (dz @ w2[:, :-1].transpose(0, 2, 1)) * da
    gw1 = np.concatenate([x.T @ dh, dh.sum(axis=1)[:, None, :]], axis=1)
    grad = np.concatenate([gw1.reshape(s, -1), gw2.reshape(s, -1)], axis=1) + l2 * w
    return loss, grad


def _check_kernels_against_plain(data, output_dim, activation, class_sum):
    s, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    arch = MlpArchitecture(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                           output_dim, activation)
    values = st.floats(-8.0, 8.0)
    w = data.draw(hnp.arrays(np.float64, (s, arch.weight_count), elements=values))
    x = data.draw(hnp.arrays(np.float64, (n, arch.input_dim), elements=values))
    y = np.array(data.draw(st.lists(st.integers(0, arch.num_classes - 1),
                                    min_size=n, max_size=n)))
    if output_dim == 1:
        y = y.astype(np.float64)
    l2 = data.draw(st.sampled_from([0.0, 1e-5, 0.3]))
    with np.errstate(all="ignore"):
        want_loss, want_grad = plain_loss_and_grad(arch, w, x, y, l2, class_sum)
        state = mlp.batched_loss(arch, w, x, y, l2)
        for forward_state in (None, state):
            loss, grad = mlp.batched_loss_and_grad(arch, w, x, y, l2, forward=forward_state)
            assert np.array_equal(loss, want_loss, equal_nan=True)
            assert np.array_equal(grad, want_grad, equal_nan=True)
        assert np.array_equal(state[0], want_loss, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), output_dim=st.sampled_from([1, 2, 3, 5, 7]),
       activation=st.sampled_from(mlp.ACTIVATIONS))
def test_loss_and_grad_match_plain_formulas(data, output_dim, activation):
    # below 8 classes numpy sums the class axis left to right, so the
    # column-wise kernels give the plain formulas' bits
    _check_kernels_against_plain(data, output_dim, activation, numpy_class_sum)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), output_dim=st.sampled_from([8, 10]),
       activation=st.sampled_from(mlp.ACTIVATIONS))
def test_loss_and_grad_sum_classes_left_to_right(data, output_dim, activation):
    # from 8 classes numpy's own sum is pairwise; the kernels keep adding the
    # class columns left to right
    _check_kernels_against_plain(data, output_dim, activation, left_to_right_class_sum)


# ---------------------------------------------------------------------------
# the trainer against a one-row-at-a-time L-BFGS reference
# ---------------------------------------------------------------------------

def _dot(a, b):
    return mlp._row_dots(a[None], b[None])[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reference_train_row(arch, weights, x, y, config):
    """Textbook L-BFGS on one network: the two-loop recursion over the pairs of
    the last HISTORY steps, where a step with s.y <= 0 left no pair, and an
    Armijo search that halves a unit step.  Every kernel call takes this one
    row and reruns its forward pass.  Returns (weights, StopReason, steps,
    steps whose pair was skipped)."""
    w = np.array(weights, dtype=np.float64)
    loss, g = (v[0] for v in mlp.batched_loss_and_grad(arch, w[None], x, y, config.l2_alpha))
    gg = _dot(g, g)
    if not (np.isfinite(loss) and np.isfinite(gg)):
        return w, mlp.StopReason.DIVERGED, 0, 0
    pairs = collections.deque(maxlen=mlp.HISTORY)  # (s, y, 1/s.y), or None
    gamma, skipped = config.learning_rate, 0
    for steps in range(config.max_iter):
        if math.sqrt(gg) < config.tolerance:
            return w, mlp.StopReason.TOLERANCE, steps, skipped
        q, alphas = g.copy(), []
        for pair in reversed(pairs):
            alpha = None
            if pair is not None:
                s_i, y_i, rho_i = pair
                alpha = rho_i * _dot(s_i, q)
                q -= alpha * y_i
            alphas.append(alpha)
        r = q * gamma
        for pair, alpha in zip(pairs, reversed(alphas)):
            if pair is not None:
                s_i, y_i, rho_i = pair
                r += (alpha - rho_i * _dot(y_i, r)) * s_i
        d = -r
        slope = _dot(g, d)
        if not (np.isfinite(slope) and slope < 0.0):
            d, slope = -g, -gg
        t = 1.0
        while True:
            s = t * d
            loss_try = mlp.batched_loss(arch, (w + s)[None], x, y, config.l2_alpha)[0][0]
            if np.isfinite(loss_try) and loss_try <= loss + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-14:
                return w, mlp.StopReason.EXHAUSTED, steps, skipped
        w, loss = w + s, loss_try
        g_new = mlp.batched_loss_and_grad(arch, w[None], x, y, config.l2_alpha)[1][0]
        gg = _dot(g_new, g_new)
        if not np.isfinite(gg):
            return w, mlp.StopReason.DIVERGED, steps + 1, skipped
        y_step = g_new - g
        sy = _dot(s, y_step)
        pairs.append((s, y_step, 1.0 / sy) if sy > 0.0 else None)
        if sy > 0.0:
            gamma = sy / _dot(y_step, y_step)
        else:
            skipped += 1
        g = g_new
    reached = math.sqrt(gg) < config.tolerance
    reason = mlp.StopReason.TOLERANCE if reached else mlp.StopReason.MAX_ITER
    return w, reason, config.max_iter, skipped


def reference_train_batch(arch, weights, x, y, config):
    """`reference_train_row` on each row in turn, as a `TrainResult`."""
    y = y.astype(np.float64) if arch.output_dim == 1 else y
    rows = [reference_train_row(arch, w, x, y, config) for w in weights]
    reason = np.array([r[1] for r in rows], dtype=np.int8)
    return mlp.TrainResult(np.array([r[0] for r in rows]), reason == mlp.StopReason.DIVERGED,
                           reason, np.array([r[2] for r in rows]))


def assert_same_training(got, want):
    for name in ("stop_reason", "iterations"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], want[0])


def _training_problem(output_dim, activation, rows):
    arch = MlpArchitecture(2, 3, output_dim, activation)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 2))
    y = rng.integers(0, arch.num_classes, 30)
    stack = np.stack([init_weights(arch, s) for s in range(rows)])
    return arch, x, y, stack


REFERENCE_CASES = [(1, "logistic"), (3, "tanh"), (1, "relu"), (5, "logistic"), (7, "relu")]
KERNELS = ("batched_loss", "batched_loss_and_grad")


def _recording_kernels(monkeypatch):
    """Wrap both kernels; the stack size of each call, in call order, per kernel."""
    sizes = {name: [] for name in KERNELS}
    for name in KERNELS:
        def recording(arch, w, *args, _kernel=getattr(mlp, name), _sizes=sizes[name], **kwargs):
            _sizes.append(len(w))
            return _kernel(arch, w, *args, **kwargs)

        monkeypatch.setattr(mlp, name, recording)
    return sizes


@pytest.mark.parametrize("output_dim, activation", REFERENCE_CASES)
def test_train_batch_matches_lbfgs_reference(output_dim, activation, monkeypatch):
    arch, x, y, stack = _training_problem(output_dim, activation, rows=6)
    original = stack.copy()
    cfg = TrainConfig(max_iter=150)
    with monkeypatch.context() as m:
        got_sizes = _recording_kernels(m)
        got = mlp.train_batch(arch, stack, x, y, cfg)
    with monkeypatch.context() as m:
        want_sizes = _recording_kernels(m)
        want = reference_train_batch(arch, stack, x, y, cfg)
    assert_same_training(got, want)
    assert not got[1].any()
    # rows are written in place in a copy, never in the caller's stack
    assert np.array_equal(stack, original)
    # the stacked kernels evaluate exactly the rows the reference does, one
    # by one: each trial once, and each accepted step's gradient once
    for name in KERNELS:
        assert set(want_sizes[name]) == {1}
        assert sum(got_sizes[name]) == len(want_sizes[name]), name


def test_train_batch_kernels_see_whole_stacks_and_subsets(monkeypatch):
    # the kernels take the whole working set, which shrinks as rows stop, and
    # halvings take the rows that failed the unit step; across the reference
    # cases each kernel takes both the whole stack and fewer rows
    seen = {name: set() for name in KERNELS}
    for output_dim, activation in REFERENCE_CASES:
        arch, x, y, stack = _training_problem(output_dim, activation, rows=6)
        with monkeypatch.context() as m:
            sizes = _recording_kernels(m)
            mlp.train_batch(arch, stack, x, y, TrainConfig(max_iter=150))
        for name in KERNELS:
            seen[name].update(sizes[name])
    for name in KERNELS:
        assert len(stack) in seen[name], name
        assert min(seen[name]) < len(stack), name


def test_train_batch_matches_lbfgs_reference_with_diverging_rows(monkeypatch):
    # An accepted trial always has a finite loss, so a row diverges after a
    # step only when its gradient overflows.  Force that: every row whose loss
    # drops below a threshold gets an infinite gradient entry, in both trainers.
    arch, x, y, stack = _training_problem(1, "relu", rows=6)
    stack[4] = 1e300  # starting loss already non-finite
    cfg = TrainConfig(max_iter=150, learning_rate=1e6)
    kernel = mlp.batched_loss_and_grad
    threshold = 0.52

    def overflowing(arch, w, x, y, l2_alpha, **kwargs):
        loss, grad = kernel(arch, w, x, y, l2_alpha, **kwargs)
        grad[loss < threshold, 0] = np.inf
        return loss, grad

    monkeypatch.setattr(mlp, "batched_loss_and_grad", overflowing)
    with np.errstate(all="ignore"):
        initial = mlp.batched_loss(arch, stack, x, y.astype(np.float64), cfg.l2_alpha)[0]
        got = mlp.train_batch(arch, stack, x, y, cfg)
        want = reference_train_batch(arch, stack, x, y, cfg)
    assert_same_training(got, want)
    got_diverged = got[1]
    assert got_diverged[4]
    # some rows went bad after an accepted step, some never did
    mid_training = got_diverged & np.isfinite(initial)
    assert mid_training.any() and not got_diverged.all()


def test_train_batch_skips_a_pair_without_curvature_for_its_row_only():
    # an Armijo step alone does not ensure s.y > 0 on a non-convex loss; such
    # a step leaves its row's slot empty, and the other rows are not touched
    arch, x, y, stack = _training_problem(1, "logistic", rows=6)
    cfg = TrainConfig(max_iter=150)
    skipped = [reference_train_row(arch, w, x, y.astype(np.float64), cfg)[3] for w in stack]
    assert 0 < np.count_nonzero(skipped) < len(stack)
    together = mlp.train_batch(arch, stack, x, y, cfg)
    assert_same_training(together, reference_train_batch(arch, stack, x, y, cfg))
    for i in range(len(stack)):
        assert np.array_equal(mlp.train_batch(arch, stack[i : i + 1], x, y, cfg)[0][0],
                              together[0][i])


def test_train_batch_steps_along_the_gradient_when_the_direction_overflows():
    # the first direction is -learning_rate * g; at the largest learning rate,
    # with weights near 1e150 and a strong penalty, g.g is near 1e303 and the
    # slope g.d overflows: no finite descent direction, so the row steps along -g
    arch, x, y, stack = _training_problem(1, "logistic", rows=4)
    stack *= 1e150
    y = y.astype(np.float64)
    cfg = TrainConfig(max_iter=1, l2_alpha=10.0, learning_rate=1e6)
    got = mlp.train_batch(arch, stack, x, y, cfg)
    assert_same_training(got, reference_train_batch(arch, stack, x, y, cfg))
    assert (got.iterations == 1).all()
    loss, grad = mlp.batched_loss_and_grad(arch, stack, x, y, cfg.l2_alpha)
    assert np.isfinite(loss).all()
    for w, loss0, g, trained in zip(stack, loss, grad, got[0]):
        gg = _dot(g, g)
        assert np.isfinite(gg)
        t = 1.0
        with np.errstate(over="ignore"):
            assert np.isinf(_dot(g, -cfg.learning_rate * g))
            while not mlp.batched_loss(arch, (w + t * -g)[None], x, y, cfg.l2_alpha)[0][0] <= (
                    loss0 + 1e-4 * t * -gg):
                t *= 0.5
        assert np.array_equal(trained, w + t * -g)


def test_train_batch_stops_on_the_tolerance_reached_at_max_iter():
    # a row whose last allowed step brings its gradient norm below the
    # tolerance stops on the tolerance; one step fewer stops it at max_iter
    arch, x, y, stack = _training_problem(1, "logistic", rows=1)
    free = mlp.train_batch(arch, stack, x, y, TrainConfig(max_iter=5000))
    assert free.stop_reason[0] == mlp.StopReason.TOLERANCE
    steps = int(free.iterations[0])  # 191
    assert 1 < steps < 5000
    cases = [(steps, mlp.StopReason.TOLERANCE), (steps - 1, mlp.StopReason.MAX_ITER)]
    for max_iter, reason in cases:
        cfg = TrainConfig(max_iter=max_iter)
        got = mlp.train_batch(arch, stack, x, y, cfg)
        assert got.stop_reason[0] == reason
        assert got.iterations[0] == max_iter
        assert_same_training(got, reference_train_batch(arch, stack, x, y, cfg))
        if reason == mlp.StopReason.TOLERANCE:
            assert np.array_equal(got[0], free[0])


def assert_tolerance_stops_match_the_gradient(arch, result, x, y, cfg):
    """Every row that did not diverge stopped on the tolerance exactly when the
    gradient norm at its returned weights is below the tolerance."""
    finite = ~result[1]
    grad = mlp.batched_loss_and_grad(arch, result[0][finite], x, y, cfg.l2_alpha)[1]
    below = np.sqrt(np.einsum("sw,sw->s", grad, grad)) < cfg.tolerance
    assert np.array_equal(result.stop_reason[finite] == mlp.StopReason.TOLERANCE, below)


def test_train_batch_rows_independent_of_stack_size_with_mixed_stop_reasons():
    # rows stopped on the tolerance, at max_iter, on an exhausted line search
    # and on divergence share a stack; each trains to the bits it has alone
    arch, x, y, stack = _training_problem(1, "relu", rows=8)
    stack[5] = 1e300  # the starting loss overflows
    cfg = TrainConfig(max_iter=150, tolerance=1e-3)
    together = mlp.train_batch(arch, stack, x, y, cfg)
    assert set(together.stop_reason.tolist()) == set(mlp.StopReason)
    assert_tolerance_stops_match_the_gradient(arch, together, x, y, cfg)
    for i in range(len(stack)):
        alone = mlp.train_batch(arch, stack[i : i + 1], x, y, cfg)
        assert np.array_equal(alone[0][0], together[0][i])
        assert alone.stop_reason[0] == together.stop_reason[i]
        assert alone.iterations[0] == together.iterations[i]


def test_train_batch_trains_xor_rows_to_the_tolerance():
    # on the 400-point xor set with 4 hidden units, the default settings stop
    # most rows on the gradient tolerance, well before max_iter
    data = dataio.make_synthetic("xor", 400, 0.15, seed=3)
    x, y, _, _, mean, scale = evaluate.standardized_splits(data, SplitSpec(seed=0))
    arch = MlpArchitecture(2, 4, 1)
    stack = np.stack([init_weights(arch, s) for s in range(64)])
    result = mlp.train_batch(arch, stack, x, y, None, mean, scale)
    reasons = np.bincount(result.stop_reason, minlength=len(mlp.StopReason))
    assert reasons[mlp.StopReason.TOLERANCE] >= 0.9 * len(stack)
    assert reasons[mlp.StopReason.MAX_ITER] == 0
    assert_tolerance_stops_match_the_gradient(arch, result, (x - mean) / scale, y, TrainConfig())


def test_train_batch_flags_rows_whose_gradient_norm_overflows():
    # with l2_alpha 1e300 the loss and each gradient entry are finite but the
    # squared gradient norm is inf, so no step could ever be accepted
    arch, x, y, stack = _training_problem(1, "logistic", rows=4)
    cfg = TrainConfig(l2_alpha=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mlp.train_batch(arch, stack, x, y, cfg)
    assert got[1].all()
    assert np.array_equal(got[0], stack)
    with np.errstate(all="ignore"):
        want = reference_train_batch(arch, stack, x, y, cfg)
    assert_same_training(got, want)


def test_train_batch_validates_inputs():
    binary = MlpArchitecture(2, 2, 1)
    three = MlpArchitecture(2, 2, 3)
    cases = [
        (binary, XOR_X, np.array([0, 1, 2, 0]), "labels must lie in \\[0, 2\\)"),
        (three, XOR_X, np.array([0, 1, 5, 0]), "labels must lie in \\[0, 3\\)"),
        (binary, np.zeros((4, 3)), XOR_Y, "expected feature matrix with 2 columns"),
        (binary, XOR_X, XOR_Y[:3], "feature and label counts differ"),
        (binary, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), "must be non-empty"),
    ]
    for arch, x, y, message in cases:
        stack = np.stack([init_weights(arch, s) for s in range(2)])
        with pytest.raises(ValueError, match=message):
            mlp.train_batch(arch, stack, x, y)


# ---------------------------------------------------------------------------
# the working set: only the rows still running
# ---------------------------------------------------------------------------

def _kernel_evaluations(monkeypatch):
    """Wrap both kernels (over whatever they are now); every row of every
    call as (kernel, weight bytes), in call order."""
    evaluations = []
    for name in KERNELS:
        def recording(arch, w, *args, _kernel=getattr(mlp, name), _name=name, **kwargs):
            evaluations.extend((_name, row.tobytes()) for row in w)
            return _kernel(arch, w, *args, **kwargs)

        monkeypatch.setattr(mlp, name, recording)
    return evaluations


def _faulty_gradients(monkeypatch, fault):
    """Patch the gradient kernel: "overflow" gives every row whose loss drops
    below 0.8 an infinite gradient entry, so rows diverge after steps, and
    "signed_zero" makes gradient entry 0 -0.0."""
    kernel = mlp.batched_loss_and_grad

    def faulty(arch, w, x, y, l2_alpha, **kwargs):
        loss, grad = kernel(arch, w, x, y, l2_alpha, **kwargs)
        if fault == "overflow":
            grad[loss < 0.8, 0] = np.inf
        else:
            grad[:, 0] = -0.0
        return loss, grad

    monkeypatch.setattr(mlp, "batched_loss_and_grad", faulty)


@pytest.mark.parametrize("output_dim, fault", [
    (1, None), (3, None), (3, "overflow"), (1, "signed_zero")])
def test_train_batch_working_set_trains_each_row_as_alone(output_dim, fault, monkeypatch):
    # Rows that stop on every StopReason share a stack, and each trains to
    # the bits it has alone: tobytes, since np.array_equal takes -0.0 for
    # 0.0.  Each row's kernel evaluations, in order, are those of its own
    # call, so none comes after it stopped, and the kernels' row totals are
    # the reference's.
    arch, x, y, stack = _training_problem(output_dim, "relu", rows=8)
    stack[5] = 1e300  # the starting loss overflows
    if fault == "signed_zero":
        stack[:, 0] = -0.0
    cfg = TrainConfig(max_iter=150, tolerance=1e-3)
    if fault is not None:
        _faulty_gradients(monkeypatch, fault)
    with np.errstate(all="ignore"), monkeypatch.context() as m:
        reference_calls = _recording_kernels(m)
        reference_train_batch(arch, stack, x, y, cfg)
    alone, evaluations_alone = [], []
    with np.errstate(all="ignore"), monkeypatch.context() as m:
        evaluations = _kernel_evaluations(m)
        for i in range(len(stack)):
            first = len(evaluations)
            alone.append(mlp.train_batch(arch, stack[i : i + 1], x, y, cfg))
            evaluations_alone.append(evaluations[first:])
    want = [np.concatenate([result[0] for result in alone])] + [
        np.concatenate([getattr(result, name) for result in alone])
        for name in ("stop_reason", "iterations")]
    assert set(want[1].tolist()) == set(mlp.StopReason)
    if fault == "overflow":  # some rows diverge after steps, not at the start
        assert ((want[1] == mlp.StopReason.DIVERGED) & (want[2] > 0)).any()
    with np.errstate(all="ignore"), monkeypatch.context() as m:
        evaluations = _kernel_evaluations(m)
        got = mlp.train_batch(arch, stack, x, y, cfg)
    for got_part, want_part in zip((got[0], got.stop_reason, got.iterations), want):
        assert got_part.dtype == want_part.dtype
        assert got_part.tobytes() == want_part.tobytes()
    assert np.array_equal(got[1], want[1] == mlp.StopReason.DIVERGED)
    owner = {weights: i for i, rows in enumerate(evaluations_alone) for _, weights in rows}
    per_row = [[] for _ in stack]
    for kernel, weights in evaluations:
        per_row[owner[weights]].append((kernel, weights))
    assert per_row == evaluations_alone
    for name in KERNELS:
        assert sum(kernel == name for kernel, _ in evaluations) == len(reference_calls[name])
