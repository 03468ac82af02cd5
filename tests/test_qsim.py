"""State-vector simulator tests: gate actions, unitarity, measurement statistics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnnae import qsim
from qnnae.qsim import (
    StateVector,
    apply_cnot,
    apply_hadamard,
    apply_phase,
    apply_x,
    measure_qubit,
)

SQRT2_INV = 1 / math.sqrt(2)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits, amps)


# ---------------------------------------------------------------------------
# single-gate actions on basis states
# ---------------------------------------------------------------------------

def test_hadamard_on_zero():
    state = apply_hadamard(StateVector(1), 0)
    assert np.allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV])


def test_hadamard_on_one():
    state = apply_hadamard(StateVector.from_basis_state(1, 1), 0)
    assert np.allclose(state.amplitudes, [SQRT2_INV, -SQRT2_INV])


def test_hadamard_self_inverse():
    state = StateVector(1)
    apply_hadamard(state, 0)
    apply_hadamard(state, 0)
    assert np.allclose(state.amplitudes, [1, 0], atol=1e-10)


def test_x_flips():
    assert np.allclose(apply_x(StateVector(1), 0).amplitudes, [0, 1])
    assert np.allclose(apply_x(StateVector.from_basis_state(1, 1), 0).amplitudes, [1, 0])


def test_x_on_plus_state_is_identity():
    state = apply_hadamard(StateVector(1), 0)
    before = state.amplitudes.copy()
    apply_x(state, 0)
    assert np.allclose(state.amplitudes, before)


@pytest.mark.parametrize(
    "start,expected",
    [(0b10, 0b11), (0b00, 0b00), (0b11, 0b10)],
)
def test_cnot_basis_action(start, expected):
    # qubit 1 controls qubit 0; basis labels read qubit1,qubit0
    state = StateVector.from_basis_state(2, start)
    apply_cnot(state, control=1, target=0)
    assert np.allclose(state.amplitudes, np.eye(4)[expected])


def test_phase_zero_angle_is_identity():
    state = random_state(3, 7)
    before = state.amplitudes.copy()
    apply_phase(state, 1, 0.0)
    assert np.allclose(state.amplitudes, before)


def test_phase_pi_is_z():
    state = StateVector.from_basis_state(1, 1)
    apply_phase(state, 0, math.pi, on_value=1)
    assert np.allclose(state.amplitudes, [0, -1])


def test_phase_half_pi_on_plus_state():
    state = apply_hadamard(StateVector(1), 0)
    apply_phase(state, 0, math.pi / 2, on_value=1)
    assert np.allclose(state.amplitudes, [SQRT2_INV, 1j * SQRT2_INV])


def test_controlled_phase_needs_control_set():
    state = StateVector.from_basis_state(2, 0b01)  # control qubit 1 is 0
    apply_phase(state, 0, math.pi, on_value=1, control=1)
    assert np.allclose(state.amplitudes, np.eye(4)[0b01])
    state = StateVector.from_basis_state(2, 0b11)
    apply_phase(state, 0, math.pi, on_value=1, control=1)
    assert np.allclose(state.amplitudes, -np.eye(4)[0b11])


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_index_out_of_range():
    state = StateVector(2)
    with pytest.raises(IndexError):
        apply_hadamard(state, 2)
    with pytest.raises(IndexError):
        apply_x(state, -1)


def test_equal_indices_rejected():
    state = StateVector(3)
    with pytest.raises(IndexError):
        apply_cnot(state, 1, 1)
    with pytest.raises(IndexError):
        apply_phase(state, 2, 0.1, control=2)


def test_bad_constructor():
    with pytest.raises(ValueError):
        StateVector(0)
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3))


# ---------------------------------------------------------------------------
# invariants: norm preservation and unitarity
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10**6), num_qubits=st.integers(1, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_gates_preserve_norm_and_invert(seed, num_qubits, data):
    state = random_state(num_qubits, seed)
    original = state.amplitudes.copy()
    qubits = st.integers(0, num_qubits - 1)
    gate = data.draw(st.sampled_from(["h", "x", "cnot", "phase"]))
    if gate == "h":
        q = data.draw(qubits)
        apply_hadamard(state, q)
        assert abs(state.norm_sq() - 1) <= 1e-10
        apply_hadamard(state, q)
    elif gate == "x":
        q = data.draw(qubits)
        apply_x(state, q)
        assert abs(state.norm_sq() - 1) <= 1e-10
        apply_x(state, q)
    elif gate == "cnot":
        if num_qubits < 2:
            return
        c, t = data.draw(
            st.lists(qubits, min_size=2, max_size=2, unique=True)
        )
        apply_cnot(state, c, t)
        assert abs(state.norm_sq() - 1) <= 1e-10
        apply_cnot(state, c, t)
    else:
        q = data.draw(qubits)
        angle = data.draw(st.floats(-10, 10, allow_nan=False))
        apply_phase(state, q, angle)
        assert abs(state.norm_sq() - 1) <= 1e-10
        apply_phase(state, q, -angle)
    assert np.max(np.abs(state.amplitudes - original)) <= 1e-10


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_deterministic_state():
    for seed in range(5):
        outcome, post = measure_qubit(StateVector(1), 0, seed)
        assert outcome == 0
        assert np.allclose(post.amplitudes, [1, 0])


def test_measure_full_register_distribution():
    # two-qubit state with unequal amplitudes; measure both qubits, compare
    # joint outcome frequencies against |amplitude|^2 via chi-square
    from scipy.stats import chisquare

    amps = np.array([0.1, 0.7, 0.5, 0.5], dtype=complex)
    amps /= np.linalg.norm(amps)
    probs = np.abs(amps) ** 2
    shots = 20000
    rng = np.random.default_rng(123)
    counts = np.zeros(4)
    base = StateVector(2, amps)
    for _ in range(shots):
        state = base.copy()
        b0, _ = measure_qubit(state, 0, rng)
        b1, _ = measure_qubit(state, 1, rng)
        counts[(b1 << 1) | b0] += 1
    _, pvalue = chisquare(counts, probs * shots)
    assert pvalue > 0.001


def test_measure_plus_state_frequency():
    shots = 100000
    rng = np.random.default_rng(7)
    plus = apply_hadamard(StateVector(1), 0)
    zeros = sum(
        1 - measure_qubit(plus.copy(), 0, rng)[0] for _ in range(shots)
    )
    sigma = math.sqrt(0.25 / shots)
    assert abs(zeros / shots - 0.5) <= 4 * sigma


def test_measure_collapses_and_renormalizes():
    state = apply_hadamard(StateVector(2), 0)
    outcome, post = measure_qubit(state, 0, 3)
    assert abs(post.norm_sq() - 1) <= 1e-10
    assert post.probability(0, outcome) == pytest.approx(1.0)

