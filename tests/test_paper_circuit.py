"""QNNAE as a circuit: weights in superposition, entangled with their performance.

The closed-form score of `evaluate` is the control bit's P(c=0) after
Trugenberger's retrieval, run with the all-ones input on a memory whose
branches are the networks of the weight grid.  This builds that state at toy
size with the simulator and reads P(c=0) off it.
"""
import itertools

import numpy as np

from qnnae import dataio, evaluate, pqm, qsim
from qnnae.dataio import SplitSpec
from qnnae.evaluate import WeightGrid
from qnnae.mlp import MlpArchitecture, MlpModel

LEVELS = (-1.0, 1.0)


def test_circuit_readout_is_the_exhaustive_score():
    dataset = dataio.make_synthetic("xor", 8, 0.3, seed=1)
    spec = SplitSpec(0.25, seed=0)
    arch = MlpArchitecture(2, 1, 1)
    width = arch.weight_count
    report = evaluate.evaluate_exhaustive(
        arch, dataset, WeightGrid(LEVELS, width), split_spec=spec
    )

    _, _, x_val, y_val, mean, scale = evaluate.standardized_splits(dataset, spec)
    n = len(y_val)
    num_qubits = 2 * n + 1 + width
    assert (n, num_qubits) == (6, 18)

    # input on [0, n) set to all ones, memory on [n, 2n) and control 2n at 0,
    # the weight register on [2n+1, 2n+1+W) in uniform superposition
    state = qsim.StateVector(num_qubits)
    for q in range(n):
        qsim.apply_x(state, q)
    for q in range(2 * n + 1, num_qubits):
        qsim.apply_hadamard(state, q)

    # each weight branch w writes perf(w) into the memory register, as the
    # basis permutation memory -> memory XOR perf(w); branch w is grid point w
    branches = state.amplitudes.reshape(2**width, 2, 2**n, 2**n)
    memory = np.arange(2**n)
    for w, point in enumerate(itertools.product(LEVELS, repeat=width)):
        model = MlpModel(arch, np.array(point), mean, scale)
        perf = evaluate.performance_vector(model, x_val, y_val).bits.to_index()
        branches[w] = branches[w][:, memory ^ perf, :]

    pqm.apply_retrieval(state, n)
    p0 = state.probability(2 * n, 0)
    assert abs(p0 - report.score_p0) <= 1e-12

    # the gates left the weight register alone: every branch keeps weight 1/2^W
    weight_marginal = np.sum(np.abs(state.amplitudes.reshape(2**width, -1)) ** 2, axis=1)
    assert np.allclose(weight_marginal, 1.0 / 2**width, rtol=0, atol=1e-12)
