"""Architecture evaluation: many trained weight samples scored through the memory.

Each trained network contributes a performance bit-vector over the validation
split (bit j = 1 iff example j is classified correctly).  The architecture score
is the memory-retrieval probability of the all-ones vector against the stored
performance vectors:

    score = (1/|W|) * sum_k cos^2(pi * d_H(1..1, performance_k) / (2 * t_s))

Sampled mode trains many random initializations; exhaustive mode enumerates a
quantized weight grid.  All randomness derives from a single seed, and the
score reduction runs in fixed sample order, so reports are reproducible
bit-for-bit.  The score is read through `pqm.retrieve_from_distances`, the one
copy of the retrieval formula, with each network's miss count as its distance.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import mlp, pqm
from .dataio import Dataset, SplitSpec, split
from .mlp import MlpArchitecture, MlpModel, TrainConfig
from .pqm import BitString

DEFAULT_NUM_SAMPLES = 1000
DEFAULT_GRID_BUDGET = 3**12
DEFAULT_GRID_LEVELS = (-1.0, 0.0, 1.0)
DEFAULT_HIDDEN_RANGE = (1, 20)
# models trained together per vectorized chunk
TRAIN_CHUNK = 64
# bound on the largest buffer of an untrained chunk's classification, its
# (rows, t_s, max(h, o)) float64 hidden or output layer: 182 rows at t_s=360, h=2
CLASSIFY_CHUNK_BYTES = 2**20


class BudgetExceededError(RuntimeError):
    """Named as a power, so a grid too large to count gets a short message."""

    def __init__(self, levels: int, weight_count: int, budget: int):
        super().__init__(f"grid needs {levels}^{weight_count} points, budget is {budget}")
        self.levels = levels
        self.weight_count = weight_count
        self.budget = budget

    @property
    def required(self) -> int:
        return self.levels**self.weight_count


@dataclass(frozen=True)
class PerformanceVector:
    bits: BitString

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def accuracy(self) -> float:
        return sum(self.bits) / len(self.bits)


@dataclass(frozen=True)
class WeightGrid:
    """Every assignment of `levels` to `weight_count` weights, in the order of
    itertools.product: point i has weight j at level digit j of i in base
    len(levels), most significant digit first.

    `len(grid)` and `grid[a:b]` read the points as the rows of a
    (num_points, weight_count) array, made one slice at a time.
    """

    levels: Tuple[float, ...]
    weight_count: int
    budget: int = DEFAULT_GRID_BUDGET

    def __post_init__(self):
        check_grid_levels(self.levels)
        if self.weight_count < 1:
            raise ValueError("weight_count must be >= 1")

    @property
    def num_points(self) -> int:
        return len(self.levels) ** self.weight_count

    def __len__(self) -> int:
        return self.num_points

    def __getitem__(self, rows: slice) -> np.ndarray:
        num_levels = len(self.levels)
        # an int64 array of the place values: a power past int64 raises, never wraps
        place = np.array([num_levels**k for k in range(self.weight_count - 1, -1, -1)])
        index = np.arange(*rows.indices(self.num_points))
        return np.array(self.levels, dtype=np.float64)[index[:, None] // place % num_levels]


@dataclass
class ArchitectureReport:
    architecture: MlpArchitecture
    score_p0: float
    accuracy_per_sample: np.ndarray
    seed: int
    excluded: int = 0

    def __post_init__(self):
        self.accuracy_per_sample = np.asarray(self.accuracy_per_sample, dtype=np.float64)
        if not 0.0 <= self.score_p0 <= 1.0:
            raise ValueError(f"score out of [0,1]: {self.score_p0}")

    @property
    def num_samples(self) -> int:
        return len(self.accuracy_per_sample)

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracy_per_sample.mean())


def performance_vector(
    model: MlpModel, features: np.ndarray, labels: np.ndarray
) -> PerformanceVector:
    """Bit j = 1 iff the model classifies validation example j correctly."""
    if len(labels) == 0:
        raise ValueError("validation set must be non-empty")
    if model.weights.ndim != 1:
        raise ValueError("performance_vector takes one network, not a stack")
    predicted = mlp.classify(model, features)
    bits = (np.asarray(predicted) == np.asarray(labels)).astype(int)
    return PerformanceVector(BitString(bits))


def score(performances: Sequence[PerformanceVector], t_s: int) -> float:
    """Retrieval probability of the all-ones input against the performance memory."""
    if not performances:
        raise ValueError("need at least one performance vector")
    for perf in performances:
        if len(perf) != t_s:
            raise ValueError(f"performance vector length {len(perf)} != t_s {t_s}")
    # a miss count is the Hamming distance from the all-ones probe
    return pqm.retrieve_from_distances(
        [t_s - sum(perf.bits) for perf in performances], t_s
    ).p0


def standardized_splits(
    dataset: Dataset, split_spec: SplitSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split and return (x_train, y_train, x_val, y_val, mean, scale).

    Standardization statistics come from the train split only; constant
    features keep scale 1 so they standardize to zero.  A feature whose mean,
    scale or any standardized value overflows to a non-finite number is a
    ValueError naming its column.
    """
    train, validation = split(dataset, split_spec)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.features.mean(axis=0)
        scale = train.features.std(axis=0)
        scale[scale == 0.0] = 1.0
        finite = np.isfinite(mean) & np.isfinite(scale)
        for features in (train.features, validation.features):
            finite &= np.isfinite((features - mean) / scale).all(axis=0)
    if not finite.all():
        column = dataset.feature_names[int(np.argmin(finite))]
        raise ValueError(
            f"feature column {column} overflows when standardized; rescale its values"
        )
    return (
        train.features,
        train.labels,
        validation.features,
        validation.labels,
        mean,
        scale,
    )


def architecture_for(dataset: Dataset, hidden: int, activation: str) -> MlpArchitecture:
    output_dim = 1 if dataset.num_classes == 2 else dataset.num_classes
    return MlpArchitecture(dataset.num_features, hidden, output_dim, activation)


def evaluate_weight_list(
    arch: MlpArchitecture,
    dataset: Dataset,
    weights: np.ndarray | Sequence[np.ndarray] | WeightGrid,
    train: bool,
    train_cfg: Optional[TrainConfig],
    split_spec: Optional[SplitSpec],
    seed: int,
) -> ArchitectureReport:
    """Shared core: evaluate weight rows in order.

    `weights` is read only through `len(weights)` and `weights[a:b]`, so an
    (S, weight_count) array, a list of rows and a `WeightGrid` all serve, and
    a grid makes its points one chunk at a time.  Training runs on stacks of
    TRAIN_CHUNK models; an untrained chunk holds as many rows as keep its
    classification's largest buffer within CLASSIFY_CHUNK_BYTES.  Both splits
    are standardized once, here, and `mlp` trains and classifies them as given.
    The final reduction runs in sample order.  Each network is reduced to its
    number of validation misses; diverged trainings are excluded from the
    memory and counted.  `split_spec` defaults to `SplitSpec(seed=seed)`.
    """
    x_train, y_train, x_val, y_val, mean, scale = standardized_splits(
        dataset, split_spec or SplitSpec(seed=seed)
    )
    t_s = len(y_val)
    x_train = (x_train - mean) / scale
    x_val = (x_val - mean) / scale
    if train:
        chunk = TRAIN_CHUNK
    else:
        row_bytes = t_s * max(arch.hidden_neurons, arch.output_dim) * 8
        chunk = max(1, CLASSIFY_CHUNK_BYTES // row_bytes)

    chunk_misses = []
    excluded = 0
    for start in range(0, len(weights), chunk):
        stack = np.asarray(weights[start : start + chunk], dtype=np.float64)
        if train:
            stack, diverged = mlp.train_batch(arch, stack, x_train, y_train, train_cfg)
            stack = stack[~diverged]
            excluded += int(diverged.sum())
        predicted = mlp.classify(MlpModel(arch, stack), x_val)
        chunk_misses.append(np.count_nonzero(predicted != y_val, axis=1))
    misses = np.concatenate(chunk_misses)
    if misses.size == 0:
        raise ValueError("every weight sample diverged; nothing to score")
    return ArchitectureReport(
        architecture=arch,
        score_p0=pqm.retrieve_from_distances(misses, t_s).p0,
        accuracy_per_sample=(t_s - misses) / t_s,
        seed=seed,
        excluded=excluded,
    )


def evaluate_sampled(
    arch: MlpArchitecture,
    dataset: Dataset,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    train_cfg: Optional[TrainConfig] = None,
    seed: int = 0,
    split_spec: Optional[SplitSpec] = None,
) -> ArchitectureReport:
    """Train `num_samples` independent random initializations and score them."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    weights = np.stack(
        [mlp.init_weights(arch, np.random.SeedSequence((seed, i))) for i in range(num_samples)]
    )
    return evaluate_weight_list(arch, dataset, weights, True, train_cfg, split_spec, seed)


def evaluate_exhaustive(
    arch: MlpArchitecture,
    dataset: Dataset,
    grid: WeightGrid,
    train: bool = False,
    train_cfg: Optional[TrainConfig] = None,
    seed: int = 0,
    split_spec: Optional[SplitSpec] = None,
) -> ArchitectureReport:
    """Score every grid point, in the grid's product order.

    The budget is checked before any point is made.  A grid is counted and
    sliced with index-sized integers, so no budget admits more than
    sys.maxsize points.
    """
    if grid.weight_count != arch.weight_count:
        raise ValueError(
            f"grid is over {grid.weight_count} weights, architecture has {arch.weight_count}"
        )
    # with 2 or more levels, W weights give at least 2^W points, which exceeds
    # any budget of fewer than W bits: decided without computing the power
    num_levels, width = len(grid.levels), grid.weight_count
    budget = min(grid.budget, sys.maxsize)
    if (num_levels > 1 and width > budget.bit_length()) or grid.num_points > budget:
        raise BudgetExceededError(num_levels, width, budget)
    return evaluate_weight_list(arch, dataset, grid, train, train_cfg, split_spec, seed)


def check_grid_levels(levels: Tuple[float, ...]) -> None:
    """Reject grid levels that are empty, non-finite or repeated."""
    if not levels:
        raise ValueError("grid levels must be non-empty")
    if not all(math.isfinite(v) for v in levels):
        raise ValueError(f"grid levels must be finite, got {levels}")
    if len(set(levels)) != len(levels):
        raise ValueError(f"grid levels must be distinct, got {levels}")


def check_hidden_range(lo: int, hi: int) -> None:
    """Reject a hidden-neuron range [lo, hi) that is empty or starts below 1."""
    if lo < 1 or hi <= lo:
        raise ValueError(f"hidden range needs 1 <= lo < hi, got [{lo}, {hi})")


def sweep(
    dataset: Dataset,
    hidden_range: Tuple[int, int] = DEFAULT_HIDDEN_RANGE,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    train_cfg: Optional[TrainConfig] = None,
    seed: int = 0,
    split_spec: Optional[SplitSpec] = None,
    activation: str = MlpArchitecture.activation,
) -> List[ArchitectureReport]:
    """One sampled-mode report per hidden-neuron count in [lo, hi), ascending."""
    lo, hi = hidden_range
    check_hidden_range(lo, hi)
    return [
        evaluate_sampled(
            architecture_for(dataset, hidden, activation), dataset, num_samples,
            train_cfg, seed, split_spec,
        )
        for hidden in range(lo, hi)
    ]


REPORT_CSV_HEADER = (
    "hidden,score_p0,mean_accuracy,min_accuracy,max_accuracy,std_accuracy,"
    "num_samples,excluded,seed"
)


def report_csv_row(report: ArchitectureReport) -> str:
    acc = report.accuracy_per_sample
    fields = [
        str(report.architecture.hidden_neurons),
        f"{report.score_p0:.12g}",
        f"{report.mean_accuracy:.12g}",
        f"{acc.min():.12g}",
        f"{acc.max():.12g}",
        f"{acc.std():.12g}",
        str(report.num_samples),
        str(report.excluded),
        str(report.seed),
    ]
    return ",".join(fields)


def report_csv(reports: Sequence[ArchitectureReport]) -> str:
    """The report CSV text: the header, then one line per report."""
    return "".join(f"{line}\n" for line in [REPORT_CSV_HEADER, *map(report_csv_row, reports)])


def write_reports_csv(reports: Sequence[ArchitectureReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_csv(reports))

