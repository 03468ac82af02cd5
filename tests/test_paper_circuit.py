"""QNNAE as a circuit: weights in superposition, entangled with their performance.

The closed-form score of `evaluate` is the control bit's P(c=0) after
Trugenberger's retrieval, run with the all-ones input on a memory whose
branches are the networks of the weight grid.  This builds that state at toy
size with the dense simulator and reads P(c=0) off it, once with the grid's
own networks in the branches and once with the networks trained from them.
The sparse simulator runs the trained case at the width `evaluate` scores.
"""
import itertools

import numpy as np

from qnnae import dataio, evaluate, mlp, pqm, qsim
from qnnae.dataio import SplitSpec
from qnnae.evaluate import WeightGrid
from qnnae.mlp import MlpArchitecture, MlpModel

LEVELS = (-1.0, 1.0)
SPEC = SplitSpec(0.25, seed=0)
ARCH = MlpArchitecture(2, 1, 1)


def xor8():
    return dataio.make_synthetic("xor", 8, 0.3, seed=1)


def circuit_p0(networks: np.ndarray, x_val: np.ndarray, y_val: np.ndarray) -> float:
    """P(c=0) of the retrieval circuit whose weight branch w holds networks[w]."""
    n, width = len(y_val), ARCH.weight_count
    num_qubits = 2 * n + 1 + width
    assert (n, num_qubits) == (6, 18)

    # input on [0, n) set to all ones, memory on [n, 2n) and control 2n at 0,
    # the weight register on [2n+1, 2n+1+W) in uniform superposition
    state = qsim.StateVector(num_qubits)
    for q in range(n):
        qsim.apply_x(state, q)
    for q in range(2 * n + 1, num_qubits):
        qsim.apply_hadamard(state, q)

    # each weight branch w writes perf(networks[w]) into the memory register,
    # as the basis permutation memory -> memory XOR perf
    branches = state.amplitudes.reshape(2**width, 2, 2**n, 2**n)
    memory = np.arange(2**n)
    for w, network in enumerate(networks):
        perf = evaluate.performance_vector(MlpModel(ARCH, network), x_val, y_val)
        branches[w] = branches[w][:, memory ^ perf.bits.to_index(), :]

    pqm.apply_retrieval(state, n)
    # the gates left the weight register alone: every branch keeps weight 1/2^W
    weight_marginal = np.sum(np.abs(state.amplitudes.reshape(2**width, -1)) ** 2, axis=1)
    assert np.allclose(weight_marginal, 1.0 / 2**width, rtol=0, atol=1e-12)
    return state.probability(2 * n, 0)


def test_circuit_readout_is_the_exhaustive_score():
    dataset = xor8()
    report = evaluate.evaluate_exhaustive(
        ARCH, dataset, WeightGrid(LEVELS, ARCH.weight_count), split_spec=SPEC
    )
    _, _, x_val, y_val, mean, scale = evaluate.standardized_splits(dataset, SPEC)
    # branch w is grid point w
    grid = np.array(list(itertools.product(LEVELS, repeat=ARCH.weight_count)))
    p0 = circuit_p0(grid, (x_val - mean) / scale, y_val)
    assert abs(p0 - report.score_p0) <= 1e-12


def trained_branches(dataset, spec):
    """The networks training reaches from each grid point, with the
    standardized validation split they are scored on."""
    x_train, y_train, x_val, y_val, mean, scale = evaluate.standardized_splits(dataset, spec)
    points = np.array(list(itertools.product(LEVELS, repeat=ARCH.weight_count)))
    trained, diverged = mlp.train_batch(ARCH, points, (x_train - mean) / scale, y_train)
    assert not diverged.any()
    return trained, (x_val - mean) / scale, y_val


def test_circuit_readout_of_trained_branches_is_the_trained_exhaustive_score():
    # the paper's mode: branch w holds perf(train(w)), the network that the
    # learning algorithm reaches from grid point w
    dataset = xor8()
    grid = WeightGrid(LEVELS, ARCH.weight_count)
    trained_report = evaluate.evaluate_exhaustive(
        ARCH, dataset, grid, train=True, split_spec=SPEC
    )
    untrained_report = evaluate.evaluate_exhaustive(ARCH, dataset, grid, split_spec=SPEC)
    assert trained_report.mean_accuracy != untrained_report.mean_accuracy

    trained, x_val, y_val = trained_branches(dataset, SPEC)
    # every branch is in the memory, as every grid point is in the report
    assert trained_report.excluded == 0
    assert abs(circuit_p0(trained, x_val, y_val) - trained_report.score_p0) <= 1e-12


def test_sparse_circuit_readout_at_the_width_evaluate_scores():
    # xor n=400 with the default train fraction leaves t_s = 360 validation
    # rows: 721 circuit qubits plus the weight register, one sparse row per
    # trained branch
    dataset = dataio.make_synthetic("xor", 400, 0.3, seed=1)
    spec = SplitSpec(seed=0)
    report = evaluate.evaluate_exhaustive(
        ARCH, dataset, WeightGrid(LEVELS, ARCH.weight_count), train=True, split_spec=spec
    )
    trained, x_val, y_val = trained_branches(dataset, spec)
    assert report.excluded == 0
    n, width = len(y_val), ARCH.weight_count
    assert n == 360

    # input on [0, n) all ones, memory on [n, 2n) holding branch w's
    # performance bits, control 2n at 0, branch w on [2n+1, 2n+1+W)
    rows = [
        (2**n - 1)
        | (evaluate.performance_vector(MlpModel(ARCH, network), x_val, y_val).bits.to_index() << n)
        | (w << (2 * n + 1))
        for w, network in enumerate(trained)
    ]
    state = qsim.SparseState(2 * n + 1 + width, rows, [2 ** (-width / 2)] * len(rows))
    pqm.apply_retrieval(state, n)
    assert len(state.amplitudes) <= 2 * len(rows)

    # the gates left the weight register alone: every branch keeps weight 1/2^W
    branch = [int.from_bytes(row.astype("<u8").tobytes(), "little") >> (2 * n + 1)
              for row in state.rows]
    weight_marginal = np.bincount(branch, np.abs(state.amplitudes) ** 2, minlength=2**width)
    assert np.allclose(weight_marginal, 1.0 / 2**width, rtol=0, atol=1e-12)
    assert abs(state.probability(2 * n, 0) - report.score_p0) <= 1e-12
