"""Pipeline tests: performance vectors, scoring, sampled and exhaustive modes."""
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from qnnae import dataio, evaluate, mlp, pqm
from qnnae.dataio import SplitSpec
from qnnae.evaluate import (
    BudgetExceededError,
    PerformanceVector,
    WeightGrid,
    evaluate_exhaustive,
    evaluate_sampled,
    evaluate_weight_list,
    performance_vector,
    score,
    sweep,
)
from qnnae.mlp import MlpArchitecture, MlpModel, TrainConfig
from qnnae.pqm import BitString


def constant_model(arch, bias):
    """Binary model whose prediction ignores the input."""
    weights = np.zeros(arch.weight_count)
    weights[-1] = bias
    return MlpModel(arch, weights)


def perf(bits):
    return PerformanceVector(BitString(bits))


@pytest.fixture(scope="module")
def xor_dataset():
    return dataio.make_synthetic("xor", 120, 0.15, seed=3)


@pytest.fixture(scope="module")
def blobs3_dataset():
    """Three overlapping Gaussian blobs, so the softmax branch runs."""
    rng = np.random.default_rng(5)
    labels = np.arange(150) % 3
    centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    features = centers[labels] + rng.normal(scale=0.8, size=(150, 2))
    return dataio.Dataset(features, labels, 3, "blobs3")


# ---------------------------------------------------------------------------
# performance vectors
# ---------------------------------------------------------------------------

def test_performance_all_correct():
    arch = MlpArchitecture(2, 1, 1)
    x = np.zeros((6, 2))
    y = np.zeros(6, dtype=int)
    vector = performance_vector(constant_model(arch, -1.0), x, y)
    assert str(vector.bits) == "111111"


def test_performance_all_wrong():
    arch = MlpArchitecture(2, 1, 1)
    x = np.zeros((5, 2))
    y = np.ones(5, dtype=int)
    vector = performance_vector(constant_model(arch, -1.0), x, y)
    assert str(vector.bits) == "00000"


def test_performance_recount():
    rng = np.random.default_rng(2)
    arch = MlpArchitecture(3, 4, 3)
    model = MlpModel(arch, mlp.init_weights(arch, 9))
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 3, 20)
    vector = performance_vector(model, x, y)
    recount = sum(int(mlp.classify(model, xi) == yi) for xi, yi in zip(x, y))
    assert sum(vector.bits) == recount


def test_performance_empty_validation():
    arch = MlpArchitecture(2, 1, 1)
    with pytest.raises(ValueError):
        performance_vector(constant_model(arch, 0.1), np.zeros((0, 2)), np.zeros(0))


def test_performance_vector_rejects_a_stack():
    arch = MlpArchitecture(2, 1, 1)
    model = MlpModel(arch, np.zeros((3, arch.weight_count)))
    with pytest.raises(ValueError, match="one network"):
        performance_vector(model, np.zeros((4, 2)), np.zeros(4, dtype=int))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_all_ones():
    assert score([perf([1, 1, 1]), perf([1, 1, 1])], 3) == pytest.approx(1.0)


def test_score_single_all_zeros():
    assert score([perf([0, 0, 0, 0])], 4) == pytest.approx(0.0, abs=1e-15)


def test_score_hand_computed():
    # distances 0 and 1 over length 2: (1 + cos^2(pi/4)) / 2
    assert score([perf([1, 1]), perf([0, 1])], 2) == pytest.approx(0.75)


def test_score_validates():
    with pytest.raises(ValueError):
        score([], 4)
    with pytest.raises(ValueError):
        score([perf([1, 0])], 3)


def test_score_is_memory_retrieval():
    rng = np.random.default_rng(14)
    for _ in range(200):
        t_s = int(rng.integers(1, 12))
        vectors = [perf(rng.integers(0, 2, t_s)) for _ in range(int(rng.integers(1, 10)))]
        via_memory = pqm.retrieve_analytic(
            pqm.PatternMemory(v.bits for v in vectors), BitString.ones(t_s)
        ).p0
        assert abs(score(vectors, t_s) - via_memory) <= 1e-12


def test_score_monotone_dominance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        t_s = int(rng.integers(2, 10))
        vectors = [perf(rng.integers(0, 2, t_s)) for _ in range(int(rng.integers(1, 6)))]
        base = score(vectors, t_s)
        bits = list(vectors[0].bits)
        zeros = [i for i, b in enumerate(bits) if b == 0]
        if not zeros:
            continue
        bits[zeros[0]] = 1
        improved = vectors.copy()
        improved[0] = perf(bits)
        assert score(improved, t_s) >= base


# ---------------------------------------------------------------------------
# sampled evaluation
# ---------------------------------------------------------------------------

def test_sampled_deterministic(xor_dataset):
    arch = MlpArchitecture(2, 3, 1)
    first = evaluate_sampled(arch, xor_dataset, num_samples=8, seed=5)
    second = evaluate_sampled(arch, xor_dataset, num_samples=8, seed=5)
    assert first.score_p0 == second.score_p0
    assert np.array_equal(first.accuracy_per_sample, second.accuracy_per_sample)


def test_sampled_single_perfect_model():
    # easy dataset: one sample reaching 100% validation accuracy scores 1.0
    ds = dataio.make_synthetic("two_gaussians", 100, 0.05, seed=1)
    report = evaluate_sampled(MlpArchitecture(2, 2, 1), ds, num_samples=1, seed=2)
    assert report.mean_accuracy == pytest.approx(1.0)
    assert report.score_p0 == pytest.approx(1.0)


def test_sampled_report_consistency(xor_dataset):
    report = evaluate_sampled(MlpArchitecture(2, 2, 1), xor_dataset, num_samples=6, seed=0)
    assert report.num_samples == 6
    assert report.excluded == 0
    assert report.mean_accuracy == pytest.approx(report.accuracy_per_sample.mean())
    assert 0.0 <= report.score_p0 <= 1.0


def test_sampled_score_matches_retrieval(xor_dataset):
    # recompute the score by replaying the pipeline's own performance vectors
    arch = MlpArchitecture(2, 2, 1)
    seed = 4
    spec = SplitSpec(seed=seed)
    report = evaluate_sampled(arch, xor_dataset, num_samples=5, seed=seed, split_spec=spec)
    x_train, y_train, x_val, y_val, mean, scale = evaluate.standardized_splits(
        xor_dataset, spec
    )
    stack = np.stack(
        [mlp.init_weights(arch, np.random.SeedSequence((seed, i))) for i in range(5)]
    )
    trained, _ = mlp.train_batch(arch, stack, x_train, y_train, None, mean, scale)
    vectors = [
        performance_vector(MlpModel(arch, w), (x_val - mean) / scale, y_val)
        for w in trained
    ]
    via_memory = pqm.retrieve_analytic(
        pqm.PatternMemory(v.bits for v in vectors), BitString.ones(len(y_val))
    )
    assert report.score_p0 == pytest.approx(via_memory.p0, abs=1e-12)


@pytest.mark.parametrize("activation", ["logistic", "tanh", "relu"])
@pytest.mark.parametrize("dataset_name", ["xor_dataset", "blobs3_dataset"])
def test_pipeline_miss_counts_match_performance_vectors(
    dataset_name, activation, request, monkeypatch
):
    # the pipeline's per-network miss counts equal the public performance
    # vectors'; the pipeline standardizes before training while this replay
    # lets train_batch standardize, and both routes train the same bits
    dataset = request.getfixturevalue(dataset_name)
    arch = evaluate.architecture_for(dataset, 3, activation)
    seed = 4
    spec = SplitSpec(seed=seed)
    real, pipeline_weights = mlp.train_batch, []

    def recording(*args):
        weights, diverged = real(*args)
        pipeline_weights.append(weights)
        return weights, diverged

    monkeypatch.setattr(mlp, "train_batch", recording)
    report = evaluate_sampled(arch, dataset, num_samples=10, seed=seed, split_spec=spec)
    x_train, y_train, x_val, y_val, mean, scale = evaluate.standardized_splits(dataset, spec)
    stack = np.stack(
        [mlp.init_weights(arch, np.random.SeedSequence((seed, i))) for i in range(10)]
    )
    trained, _ = real(arch, stack, x_train, y_train, None, mean, scale)
    assert np.array_equal(np.concatenate(pipeline_weights), trained)
    vectors = [
        performance_vector(MlpModel(arch, w), (x_val - mean) / scale, y_val) for w in trained
    ]
    t_s = len(y_val)
    misses = np.rint(t_s * (1.0 - report.accuracy_per_sample)).astype(int)
    assert misses.tolist() == [t_s - sum(v.bits) for v in vectors]
    assert np.array_equal(report.accuracy_per_sample, [v.accuracy for v in vectors])
    assert report.score_p0 == score(vectors, t_s)


def test_sampled_excludes_diverged(xor_dataset, monkeypatch):
    real = mlp.train_batch

    def sabotage(arch, stack, x, y, cfg=None, mean=None, scale=None):
        weights, diverged = real(arch, stack, x, y, cfg, mean, scale)
        diverged = diverged.copy()
        diverged[0] = True
        return weights, diverged

    monkeypatch.setattr(mlp, "train_batch", sabotage)
    report = evaluate_sampled(MlpArchitecture(2, 2, 1), xor_dataset, num_samples=4, seed=1)
    assert report.excluded == 1
    assert report.num_samples == 3


def diverge_on_calls(monkeypatch, calls):
    """Patch train_batch so every row of the given (0-based) calls diverges."""
    real, count = mlp.train_batch, [0]

    def sabotage(arch, stack, x, y, cfg=None, mean=None, scale=None):
        weights, diverged = real(arch, stack, x, y, cfg, mean, scale)
        if count[0] in calls:
            diverged = np.ones_like(diverged)
        count[0] += 1
        return weights, diverged

    monkeypatch.setattr(mlp, "train_batch", sabotage)


def test_sampled_excludes_a_wholly_diverged_chunk(xor_dataset, monkeypatch):
    # the middle chunk classifies an empty (0, W) stack
    arch = MlpArchitecture(2, 2, 1)
    monkeypatch.setattr(evaluate, "TRAIN_CHUNK", 4)
    whole = evaluate_sampled(arch, xor_dataset, num_samples=12, seed=1)
    diverge_on_calls(monkeypatch, {1})
    report = evaluate_sampled(arch, xor_dataset, num_samples=12, seed=1)
    assert report.excluded == 4
    assert report.num_samples == 8
    kept = np.r_[0:4, 8:12]
    assert np.array_equal(report.accuracy_per_sample, whole.accuracy_per_sample[kept])


def test_sampled_every_chunk_diverged(xor_dataset, monkeypatch):
    monkeypatch.setattr(evaluate, "TRAIN_CHUNK", 4)
    diverge_on_calls(monkeypatch, {0, 1, 2})
    with pytest.raises(ValueError, match="every weight sample diverged; nothing to score"):
        evaluate_sampled(MlpArchitecture(2, 2, 1), xor_dataset, num_samples=12, seed=1)


def test_standardization_overflow_names_the_column():
    features = np.zeros((20, 3))
    features[:, 1] = np.where(np.arange(20) % 2, 1e308, -1e308)
    ds = dataio.Dataset(features, np.arange(20) % 2, 2, feature_names=("a", "b", "c"))
    with pytest.raises(ValueError, match="feature column b overflows"):
        evaluate.standardized_splits(ds, SplitSpec(train_fraction=0.5))


# ---------------------------------------------------------------------------
# weight grid and exhaustive evaluation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        WeightGrid((), 3)
    with pytest.raises(ValueError):
        WeightGrid((-1.0, -1.0, 1.0), 3)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite") as err:
            WeightGrid((-1.0, bad), 3)
        assert str(bad) in str(err.value)
    grid = WeightGrid((-1.0, 1.0), 5)
    assert grid.num_points == 32


def test_grid_budget(xor_dataset):
    arch = MlpArchitecture(2, 3, 1)  # 13 weights
    grid = WeightGrid((-1.0, 0.0, 1.0), arch.weight_count, budget=3**12)
    with pytest.raises(BudgetExceededError) as err:
        evaluate_exhaustive(arch, xor_dataset, grid)
    assert err.value.required == 3**13


@pytest.mark.parametrize("arch", [MlpArchitecture(2, 37, 1), MlpArchitecture(2, 10, 3)],
                         ids=["2^149-points", "2^63-points"])
def test_grid_past_sys_maxsize_exceeds_any_budget(xor_dataset, arch):
    # len(grid) must fit an index-sized integer, so no budget admits more points
    grid = WeightGrid((-1.0, 1.0), arch.weight_count, budget=2**200)
    with pytest.raises(BudgetExceededError) as err:
        evaluate_exhaustive(arch, xor_dataset, grid)
    assert err.value.required == 2**arch.weight_count > sys.maxsize
    assert err.value.budget == sys.maxsize


def test_exhaustive_matches_brute_force(xor_dataset):
    arch = MlpArchitecture(2, 1, 1)  # 5 weights -> 32 networks
    grid = WeightGrid((-1.0, 1.0), arch.weight_count)
    spec = SplitSpec(seed=0)
    report = evaluate_exhaustive(arch, xor_dataset, grid, train=False, split_spec=spec)

    # independent enumeration with its own forward pass and score formula
    _, _, x_val, y_val, mean, scale = evaluate.standardized_splits(xor_dataset, spec)
    xs = (x_val - mean) / scale
    t_s = len(y_val)
    total = 0.0
    count = 0
    for point in itertools.product((-1.0, 1.0), repeat=5):
        w1 = np.array(point[:3]).reshape(3, 1)
        w2 = np.array(point[3:]).reshape(2, 1)
        hidden = 1.0 / (1.0 + np.exp(-(xs @ w1[:2] + w1[2])))
        z = (hidden @ w2[:1] + w2[1])[:, 0]
        predicted = (z > 0).astype(int)
        misses = int(np.sum(predicted != y_val))
        total += math.cos(math.pi * misses / (2 * t_s)) ** 2
        count += 1
    assert count == 32
    assert report.num_samples == 32
    assert report.score_p0 == pytest.approx(total / 32, abs=1e-12)


def test_exhaustive_single_point_matches_weight_list(xor_dataset):
    arch = MlpArchitecture(2, 1, 1)
    grid = WeightGrid((0.0,), arch.weight_count)
    spec = SplitSpec(seed=2)
    via_grid = evaluate_exhaustive(arch, xor_dataset, grid, split_spec=spec)
    via_list = evaluate_weight_list(
        arch, xor_dataset, [np.zeros(5)], False, None, spec, 0
    )
    assert via_grid.score_p0 == via_list.score_p0
    assert np.array_equal(via_grid.accuracy_per_sample, via_list.accuracy_per_sample)


def test_exhaustive_grid_coherence(xor_dataset):
    # feeding the full grid through the shared weight-list path reproduces
    # evaluate_exhaustive bit for bit
    arch = MlpArchitecture(2, 1, 1)
    grid = WeightGrid((-1.0, 1.0), arch.weight_count)
    spec = SplitSpec(seed=1)
    direct = evaluate_exhaustive(arch, xor_dataset, grid, split_spec=spec, seed=7)
    points = [
        np.array(p, dtype=np.float64)
        for p in itertools.product(grid.levels, repeat=grid.weight_count)
    ]
    replay = evaluate_weight_list(
        arch, xor_dataset, points, False, None, spec, 7
    )
    assert direct.score_p0 == replay.score_p0
    assert np.array_equal(direct.accuracy_per_sample, replay.accuracy_per_sample)


def val_row_bytes(dataset, arch):
    """Bytes one network adds to an untrained chunk's largest classification buffer."""
    t_s = len(evaluate.standardized_splits(dataset, SplitSpec(seed=0))[3])
    return t_s * max(arch.hidden_neurons, arch.output_dim) * 8


def count_classify_calls(monkeypatch):
    real = mlp.classify
    shapes = []

    def counting(model, x):
        shapes.append(model.weights.shape)
        return real(model, x)

    monkeypatch.setattr(mlp, "classify", counting)
    return shapes


@pytest.mark.parametrize(
    "case", ["sampled_binary", "sampled_3class", "train_grid", "exhaustive"]
)
def test_reports_independent_of_chunk_size(case, xor_dataset, blobs3_dataset, monkeypatch):
    # training stacks hold TRAIN_CHUNK networks; untrained chunks are bounded
    # by CLASSIFY_CHUNK_BYTES, varied here from one row to the whole grid
    arch = MlpArchitecture(2, 1, 1)
    grid = WeightGrid((-1.0, 0.0, 1.0), arch.weight_count)

    def report_row():
        if case == "sampled_binary":
            report = evaluate_sampled(MlpArchitecture(2, 2, 1), xor_dataset, 20, seed=3)
        elif case == "sampled_3class":
            report = evaluate_sampled(MlpArchitecture(2, 2, 3), blobs3_dataset, 20, seed=3)
        else:
            cfg = TrainConfig(max_iter=20)
            report = evaluate_exhaustive(arch, xor_dataset, grid, case == "train_grid", cfg)
        return evaluate.report_csv_row(report)

    if case == "exhaustive":
        row_bytes = val_row_bytes(xor_dataset, arch)
        name = "CLASSIFY_CHUNK_BYTES"
        rows_per_size = {k * row_bytes: k for k in (1, 7, grid.num_points)}
    else:
        name, rows_per_size = "TRAIN_CHUNK", {7: 7, 64: 64}
    num_samples = 20 if case.startswith("sampled") else grid.num_points
    shapes = count_classify_calls(monkeypatch)
    reports = []
    for size, chunk_rows in rows_per_size.items():
        monkeypatch.setattr(evaluate, name, size)
        shapes.clear()
        reports.append(report_row())
        assert len(shapes) == math.ceil(num_samples / chunk_rows)
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_one_classify_call_per_chunk(mode, xor_dataset, monkeypatch):
    # each chunk is classified by one call over its whole weight stack, never
    # one call per network
    shapes = count_classify_calls(monkeypatch)
    if mode == "sampled":
        arch = MlpArchitecture(2, 2, 1)
        monkeypatch.setattr(evaluate, "TRAIN_CHUNK", 7)
        report = evaluate_sampled(arch, xor_dataset, 20, seed=3)
    else:
        arch = MlpArchitecture(2, 1, 1)
        monkeypatch.setattr(evaluate, "CLASSIFY_CHUNK_BYTES", 7 * val_row_bytes(xor_dataset, arch))
        report = evaluate_exhaustive(arch, xor_dataset, WeightGrid((-1.0, 1.0), arch.weight_count))
    n = report.num_samples
    assert report.excluded == 0 and n == (20 if mode == "sampled" else 32)
    assert shapes == [(min(7, n - s), arch.weight_count) for s in range(0, n, 7)]


def test_exhaustive_grid_is_product_order(xor_dataset, monkeypatch):
    seen = {}

    def capture(arch, dataset, weights, *rest):
        seen["weights"] = weights

    monkeypatch.setattr(evaluate, "evaluate_weight_list", capture)
    arch = MlpArchitecture(2, 1, 1)
    grid = WeightGrid((2.0, -1.0, 0.5), arch.weight_count)
    evaluate_exhaustive(arch, xor_dataset, grid)
    expected = np.array(list(itertools.product(grid.levels, repeat=grid.weight_count)))
    rows = seen["weights"]
    assert len(rows) == len(expected) == 243
    for chunk in (1, 7, 100, 243, 1000):
        pieces = [rows[start : start + chunk] for start in range(0, len(rows), chunk)]
        assert all(piece.dtype == np.float64 for piece in pieces)
        assert np.array_equal(np.concatenate(pieces), expected)


def test_untrained_grid_memory_is_bounded_by_the_chunk_bytes(xor_dataset):
    # 131,072 points, whose (N, W) float64 array alone would take 17.8 MB; what
    # may grow with the grid is a few numbers per point (miss counts,
    # accuracies, the score's running sums), never a row of weights
    arch = MlpArchitecture(2, 4, 1)
    grid = WeightGrid((-1.0, 1.0), arch.weight_count)
    assert grid.num_points * arch.weight_count * 8 > 17.8e6
    tracemalloc.start()
    try:
        report = evaluate_exhaustive(arch, xor_dataset, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.num_samples == grid.num_points
    assert peak < 4 * evaluate.CLASSIFY_CHUNK_BYTES + 32 * grid.num_points


@pytest.mark.parametrize("hidden", [1, 2])
@pytest.mark.parametrize("levels", [(-1.0, 1.0), (-1.0, 0.0, 1.0)], ids=["pm1", "pm1-0"])
@pytest.mark.parametrize("activation", ["logistic", "tanh", "relu"])
def test_untrained_binary_grid_pairs_each_point_with_its_negated_output_layer(
    xor_dataset, activation, levels, hidden
):
    """Negating the output layer, (w1, w2) -> (w1, -w2), negates every binary
    score and so flips every label whose score is not exactly 0.  On levels
    closed under negation both points lie on the grid, and their miss counts
    sum to t_s: cos^2 meets sin^2, and the untrained grid scores one half for
    any architecture.  Multiclass argmax has no such pairing: negating every
    score does not move the argmax off each correct class.
    """
    assert levels == tuple(-v for v in reversed(levels))
    arch = MlpArchitecture(2, hidden, 1, activation)
    report = evaluate_exhaustive(arch, xor_dataset, WeightGrid(levels, arch.weight_count))
    _, _, x_val, _, mean, scale = evaluate.standardized_splits(xor_dataset, SplitSpec(seed=0))
    t_s = len(x_val)
    misses = t_s - np.rint(report.accuracy_per_sample * t_s).astype(np.int64)

    num_levels, width = len(levels), arch.weight_count
    digits = np.array(list(itertools.product(range(num_levels), repeat=width)))
    twin_digits = digits.copy()
    twin_digits[:, -(hidden + 1):] = num_levels - 1 - digits[:, -(hidden + 1):]
    twin = twin_digits @ num_levels ** np.arange(width - 1, -1, -1)
    scores = mlp.forward(MlpModel(arch, np.array(levels)[digits]), (x_val - mean) / scale)
    zero = np.any(scores[..., 0] == 0.0, axis=1)
    assert np.array_equal(zero, zero[twin])

    first = np.arange(len(twin)) <= twin  # each pair once; a point may be its own twin
    paired = first & ~zero
    assert np.all(misses[paired] + misses[twin[paired]] == t_s)
    exempt = int(np.count_nonzero(first & zero))
    assert exempt < np.count_nonzero(paired)
    if exempt == 0:
        assert report.score_p0 == pytest.approx(0.5, abs=1e-12)


def test_grid_arch_mismatch(xor_dataset):
    with pytest.raises(ValueError):
        evaluate_exhaustive(
            MlpArchitecture(2, 1, 1), xor_dataset, WeightGrid((-1.0, 1.0), 7)
        )


# ---------------------------------------------------------------------------
# sweeps and export
# ---------------------------------------------------------------------------

def test_sweep_range_and_order(xor_dataset):
    reports = sweep(xor_dataset, (1, 3), num_samples=3, seed=0)
    assert [r.architecture.hidden_neurons for r in reports] == [1, 2]


def test_sweep_validates_range(xor_dataset):
    with pytest.raises(ValueError):
        sweep(xor_dataset, (0, 3))
    with pytest.raises(ValueError):
        sweep(xor_dataset, (3, 3))


def test_report_csv(tmp_path, xor_dataset):
    reports = sweep(xor_dataset, (1, 3), num_samples=3, seed=0)
    path = tmp_path / "reports.csv"
    evaluate.write_reports_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == evaluate.REPORT_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")

