"""Architecture evaluation: many trained weight samples scored through the memory.

Each trained network contributes a performance bit-vector over the validation
split (bit j = 1 iff example j is classified correctly).  The architecture score
is the memory-retrieval probability of the all-ones vector against the stored
performance vectors:

    score = (1/|W|) * sum_k cos^2(pi * d_H(1..1, performance_k) / (2 * t_s))

Sampled mode trains many random initializations; exhaustive mode enumerates a
quantized weight grid.  All randomness derives from a single seed, and the
score reduction runs in fixed sample order, so reports are reproducible
bit-for-bit regardless of worker count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import mlp
from .dataio import Dataset, SplitSpec, split
from .mlp import MlpArchitecture, MlpModel, TrainConfig
from .pqm import BitString

log = logging.getLogger(__name__)

DEFAULT_NUM_SAMPLES = 1000
DEFAULT_GRID_BUDGET = 3**12
DEFAULT_HIDDEN_RANGE = (1, 20)
# models trained together per vectorized chunk; fixed so results never depend
# on worker count
TRAIN_CHUNK = 64


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: int):
        super().__init__(f"grid needs {required} points, budget is {budget}")
        self.required = required
        self.budget = budget


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
    levels: Tuple[float, ...]
    weight_count: int
    budget: int = DEFAULT_GRID_BUDGET

    def __post_init__(self):
        if not self.levels:
            raise ValueError("grid levels must be non-empty")
        if not all(math.isfinite(v) for v in self.levels):
            raise ValueError(f"grid levels must be finite, got {self.levels}")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"grid levels must be distinct, got {self.levels}")
        if self.weight_count < 1:
            raise ValueError("weight_count must be >= 1")

    @property
    def num_points(self) -> int:
        return len(self.levels) ** self.weight_count


@dataclass
class ArchitectureReport:
    architecture: MlpArchitecture
    score_p0: float
    mean_accuracy: float
    accuracy_per_sample: np.ndarray
    num_samples: int
    mode: str
    seed: int
    excluded: int = 0

    def __post_init__(self):
        self.accuracy_per_sample = np.asarray(self.accuracy_per_sample, dtype=np.float64)
        if not 0.0 <= self.score_p0 <= 1.0:
            raise ValueError(f"score out of [0,1]: {self.score_p0}")


def performance_vector(
    model: MlpModel, features: np.ndarray, labels: np.ndarray
) -> PerformanceVector:
    """Bit j = 1 iff the model classifies validation example j correctly."""
    if len(labels) == 0:
        raise ValueError("validation set must be non-empty")
    predicted = mlp.classify(model, features)
    bits = (np.asarray(predicted) == np.asarray(labels)).astype(int)
    return PerformanceVector(BitString(bits))


def _score_from_misses(misses: Sequence[int], t_s: int) -> float:
    """Mean of cos^2(pi * misses / (2 t_s)), summed left to right in sample order."""
    total = 0.0
    for m in misses:
        total += math.cos(math.pi * m / (2 * t_s)) ** 2
    return total / len(misses)


def score(performances: Sequence[PerformanceVector], t_s: int) -> float:
    """Retrieval probability of the all-ones input against the performance memory."""
    if not performances:
        raise ValueError("need at least one performance vector")
    for perf in performances:
        if len(perf) != t_s:
            raise ValueError(f"performance vector length {len(perf)} != t_s {t_s}")
    return _score_from_misses([t_s - sum(perf.bits) for perf in performances], t_s)


def standardized_splits(
    dataset: Dataset, split_spec: SplitSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split and return (x_train, y_train, x_val, y_val, mean, scale).

    Standardization statistics come from the train split only; constant
    features keep scale 1 so they standardize to zero.
    """
    train, validation = split(dataset, split_spec)
    mean = train.features.mean(axis=0)
    scale = train.features.std(axis=0)
    scale[scale == 0.0] = 1.0
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


def _sample_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, index))


def evaluate_weight_list(
    arch: MlpArchitecture,
    dataset: Dataset,
    weights: np.ndarray,
    train: bool,
    train_cfg: Optional[TrainConfig],
    split_spec: SplitSpec,
    seed: int,
    mode: str,
    map_fn: Optional[Callable] = None,
) -> ArchitectureReport:
    """Shared core: evaluate the rows of an (S, weight_count) array in order.

    Training is vectorized across models in fixed-size chunks; `map_fn` allows a
    parallel map over chunks (e.g. a thread-pool executor's).  Chunk boundaries
    and the final reduction order are fixed, so output is independent of
    scheduling.  Each network is reduced to its number of validation misses;
    diverged trainings are excluded from the memory and counted.
    """
    x_train, y_train, x_val, y_val, mean, scale = standardized_splits(dataset, split_spec)
    t_s = len(y_val)
    if t_s == 0:
        raise ValueError("validation set must be non-empty")
    cfg = train_cfg or TrainConfig()
    weights = np.asarray(weights, dtype=np.float64)

    def run_chunk(start: int) -> Tuple[np.ndarray, int]:
        stack = weights[start : start + TRAIN_CHUNK]
        if train:
            stack, diverged = mlp.train_batch(arch, stack, x_train, y_train, cfg, mean, scale)
        else:
            diverged = np.zeros(len(stack), dtype=bool)
        misses = np.zeros(len(stack), dtype=np.int64)
        for row, w in enumerate(stack):
            if diverged[row]:
                log.warning("sample %d diverged; excluded", start + row)
                continue
            predicted = mlp.classify(MlpModel(arch, w, mean, scale), x_val)
            misses[row] = np.count_nonzero(predicted != y_val)
        return misses[~diverged], int(diverged.sum())

    mapper = map_fn or map
    results = list(mapper(run_chunk, range(0, len(weights), TRAIN_CHUNK)))
    misses = np.concatenate([m for m, _ in results])
    excluded = sum(d for _, d in results)
    if misses.size == 0:
        raise ValueError("every weight sample diverged; nothing to score")
    accuracies = (t_s - misses) / t_s
    return ArchitectureReport(
        architecture=arch,
        score_p0=_score_from_misses(misses.tolist(), t_s),
        mean_accuracy=float(accuracies.mean()),
        accuracy_per_sample=accuracies,
        num_samples=misses.size,
        mode=mode,
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
    map_fn: Optional[Callable] = None,
) -> ArchitectureReport:
    """Train `num_samples` independent random initializations and score them."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    spec = split_spec or SplitSpec(seed=seed)
    weights = np.stack(
        [mlp.init_weights(arch, _sample_seed(seed, i)) for i in range(num_samples)]
    )
    return evaluate_weight_list(
        arch, dataset, weights, True, train_cfg, spec, seed, "sampled", map_fn
    )


def evaluate_exhaustive(
    arch: MlpArchitecture,
    dataset: Dataset,
    grid: WeightGrid,
    train: bool = False,
    train_cfg: Optional[TrainConfig] = None,
    seed: int = 0,
    split_spec: Optional[SplitSpec] = None,
    map_fn: Optional[Callable] = None,
) -> ArchitectureReport:
    """Enumerate every grid point (lexicographic in level order) and score them all.

    Point i has weight j at level digit j of i in base len(levels), most
    significant digit first: the order of itertools.product.
    """
    if grid.weight_count != arch.weight_count:
        raise ValueError(
            f"grid is over {grid.weight_count} weights, architecture has {arch.weight_count}"
        )
    if grid.num_points > grid.budget:
        raise BudgetExceededError(grid.num_points, grid.budget)
    spec = split_spec or SplitSpec(seed=seed)
    levels = np.array(grid.levels, dtype=np.float64)
    index = np.arange(grid.num_points)
    weights = np.empty((grid.num_points, grid.weight_count))
    for j in range(grid.weight_count):
        place = len(levels) ** (grid.weight_count - 1 - j)
        weights[:, j] = levels[index // place % len(levels)]
    return evaluate_weight_list(
        arch, dataset, weights, train, train_cfg, spec, seed, "exhaustive", map_fn
    )


def sweep(
    dataset: Dataset,
    hidden_range: Tuple[int, int] = DEFAULT_HIDDEN_RANGE,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    train_cfg: Optional[TrainConfig] = None,
    seed: int = 0,
    split_spec: Optional[SplitSpec] = None,
    activation: str = "logistic",
    map_fn: Optional[Callable] = None,
) -> List[ArchitectureReport]:
    """One sampled-mode report per hidden-neuron count in [lo, hi), ascending."""
    lo, hi = hidden_range
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    return [
        evaluate_sampled(
            architecture_for(dataset, hidden, activation), dataset, num_samples,
            train_cfg, seed, split_spec, map_fn,
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


def write_reports_csv(reports: Sequence[ArchitectureReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_CSV_HEADER + "\n")
        for report in reports:
            fh.write(report_csv_row(report) + "\n")

