"""Neural-network architecture scoring through a probabilistic quantum memory."""

from .dataio import Dataset, SplitSpec, load_csv, make_synthetic, split, write_csv
from .evaluate import (
    ArchitectureReport,
    BudgetExceededError,
    PerformanceVector,
    WeightGrid,
    evaluate_exhaustive,
    evaluate_sampled,
    performance_vector,
    score,
    sweep,
)
from .mlp import (
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    classify,
    forward,
    init_weights,
    train,
)
from .pqm import (
    BitString,
    PatternMemory,
    RetrievalOutcome,
    hamming_distance,
    prepare_memory_state,
    retrieve_analytic,
    retrieve_circuit,
    retrieve_exact_from_circuit,
)
from .qsim import SparseState, StateVector

__version__ = "0.1.0"
