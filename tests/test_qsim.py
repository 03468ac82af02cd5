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


@pytest.mark.parametrize("value", [2, -1])
def test_control_and_on_values_must_be_bits(value):
    state = StateVector(3)
    before = state.amplitudes.copy()
    with pytest.raises(ValueError, match=f"control_value must be 0 or 1, got {value}"):
        apply_cnot(state, 0, 2, control_value=value)
    with pytest.raises(ValueError, match=f"on_value must be 0 or 1, got {value}"):
        apply_phase(state, 1, 0.3, on_value=value, control=0)
    assert np.array_equal(state.amplitudes, before)


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


def test_measure_draws_one_double_per_call():
    """A given Generator advances by exactly one random() double per call, so
    calls that share it read consecutive draws of its stream (the shots of
    pqm.retrieve_circuit do); an int seed builds a fresh generator each call."""
    for seed in range(20):
        gen, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for q in range(3):
            state = random_state(3, 10 * seed + q)
            p1 = state.probability(q, 1)
            outcome, _ = measure_qubit(state, q, gen)
            assert outcome == int(reference.random() < p1)
            assert gen.bit_generator.state == reference.bit_generator.state
    plus = apply_hadamard(StateVector(1), 0)
    outcomes = set()
    for seed in range(20):
        expected = int(np.random.default_rng(seed).random() < plus.probability(0, 1))
        for _ in range(2):
            assert measure_qubit(plus.copy(), 0, seed)[0] == expected
        outcomes.add(expected)
    assert outcomes == {0, 1}


def test_measure_collapses_and_renormalizes():
    state = apply_hadamard(StateVector(2), 0)
    outcome, post = measure_qubit(state, 0, 3)
    assert abs(post.norm_sq() - 1) <= 1e-10
    assert post.probability(0, outcome) == pytest.approx(1.0)



# ---------------------------------------------------------------------------
# in-place kernels against the plain formulas
# ---------------------------------------------------------------------------

def plain_halves(num_qubits, q):
    """Index tuples of the q=0 and q=1 halves of the (2,)*n view."""
    sel0 = [slice(None)] * num_qubits
    sel1 = [slice(None)] * num_qubits
    sel0[num_qubits - 1 - q] = 0
    sel1[num_qubits - 1 - q] = 1
    return tuple(sel0), tuple(sel1)


def plain_block(view, num_qubits, fixed):
    """Writable part of the (2,)*n view where each (qubit, value) in `fixed` holds.

    The trailing Ellipsis keeps a fully indexed selection a 0-d array view.
    """
    sel = [slice(None)] * num_qubits
    for q, v in fixed:
        sel[num_qubits - 1 - q] = v
    return view[tuple(sel) + (Ellipsis,)]


def plain_swap(amps, num_qubits, fixed, target):
    """Swap the target=0 and target=1 parts of the block where `fixed` holds."""
    view = amps.copy().reshape([2] * num_qubits)
    a = plain_block(view, num_qubits, fixed + [(target, 0)])
    b = plain_block(view, num_qubits, fixed + [(target, 1)])
    a0 = a.copy()
    a[...] = b
    b[...] = a0
    return view.reshape(-1)


def plain_phase(amps, num_qubits, q, angle, on_value, control):
    view = amps.copy().reshape([2] * num_qubits)
    fixed = [(q, on_value)] + ([] if control is None else [(control, 1)])
    # in place: a 0-d `block * factor` would run numpy's scalar math, which
    # may round the last bit differently from the array loop
    block = plain_block(view, num_qubits, fixed)
    block *= np.exp(1j * angle)
    return view.reshape(-1)


def plain_hadamard(amps, num_qubits, q):
    view = amps.copy().reshape([2] * num_qubits)
    i0, i1 = plain_halves(num_qubits, q)
    a0, a1 = view[i0].copy(), view[i1].copy()
    view[i0] = (a0 + a1) * SQRT2_INV
    view[i1] = (a0 - a1) * SQRT2_INV
    return view.reshape(-1)


def plain_measure(amps, num_qubits, q, outcome):
    view = amps.copy().reshape([2] * num_qubits)
    view[plain_halves(num_qubits, q)[1 - outcome]] = 0.0
    post = view.reshape(-1)
    return post / math.sqrt(float(np.sum(np.abs(post) ** 2)))


@pytest.mark.parametrize("num_qubits", range(1, 8))
def test_kernels_match_plain_formulas(num_qubits):
    for q in range(num_qubits):
        amps = random_state(num_qubits, 100 * num_qubits + q).amplitudes
        view = amps.reshape([2] * num_qubits)
        halves = plain_halves(num_qubits, q)

        state = apply_hadamard(StateVector(num_qubits, amps), q)
        assert np.array_equal(state.amplitudes, plain_hadamard(amps, num_qubits, q))

        state = StateVector(num_qubits, amps)
        assert state.norm_sq() == float(np.sum(np.abs(amps) ** 2))
        for value in (0, 1):
            expected = float(np.sum(np.abs(view[halves[value]]) ** 2))
            assert state.probability(q, value) == expected

        for seed in range(4):
            outcome, post = measure_qubit(StateVector(num_qubits, amps), q, seed)
            assert np.array_equal(post.amplitudes, plain_measure(amps, num_qubits, q, outcome))

        state = apply_x(StateVector(num_qubits, amps), q)
        assert np.array_equal(state.amplitudes, plain_swap(amps, num_qubits, [], q))

        angle = 0.3 + q
        for on_value in (0, 1):
            for control in [None] + [c for c in range(num_qubits) if c != q]:
                state = apply_phase(StateVector(num_qubits, amps), q, angle, on_value, control)
                expected = plain_phase(amps, num_qubits, q, angle, on_value, control)
                assert np.array_equal(state.amplitudes, expected)

        for control in range(num_qubits):
            if control == q:
                continue
            for value in (0, 1):
                state = apply_cnot(StateVector(num_qubits, amps), control, q, control_value=value)
                expected = plain_swap(amps, num_qubits, [(control, value)], q)
                assert np.array_equal(state.amplitudes, expected)


# ---------------------------------------------------------------------------
# the sparse state against the dense one
# ---------------------------------------------------------------------------

# Hadamard and CNOT give the dense kernels' bits.  A phase can round an
# amplitude one ulp apart, because numpy multiplies contiguous and strided
# complex arrays in different loops; over 3000 runs of 24 random gates the
# amplitudes and marginals stayed within 4.5 ulp of 1.0.
SPARSE_TOLERANCE = 8 * np.finfo(float).eps


def sparse_to_dense(state, place, background):
    """The amplitudes of `state` with its qubit place[i] read as qubit i; every
    row holds `background` on the qubits outside `place`."""
    placed = sum(1 << q for q in place)
    amps = np.zeros(2 ** len(place), dtype=complex)
    for row, amp in zip(state.rows, state.amplitudes):
        index = int.from_bytes(row.astype("<u8").tobytes(), "little")
        assert index & ~placed == background
        amps[sum(((index >> q) & 1) << i for i, q in enumerate(place))] = amp
    return amps


def test_sparse_state_matches_dense():
    """Random gates on at most 10 qubits, run on a dense and a sparse state.
    Odd seeds scatter the sparse state's qubits among 150, so that its rows
    span three 64-bit words, over a fixed pattern on the other qubits."""
    splits = merges = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        width = 150 if seed % 2 else n
        place = [int(q) for q in rng.permutation(width)[:n]]
        background = sum(1 << q for q in range(width) if q not in place and rng.random() < 0.5)
        indices = rng.choice(2**n, int(rng.integers(1, min(2**n, 8) + 1)), replace=False)
        amps = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        amps /= np.linalg.norm(amps)
        full = np.zeros(2**n, dtype=complex)
        full[indices] = amps
        dense = StateVector(n, full)
        sparse = qsim.SparseState(
            width,
            [background | sum(((int(i) >> j) & 1) << q for j, q in enumerate(place))
             for i in indices],
            amps,
        )
        # gates act on at most 3 qubits, so a Hadamard often meets its pair
        # again and merges; the other qubits keep the initial rows apart
        qubits = [int(q) for q in rng.permutation(n)[:3]]
        phased = False
        for _ in range(24):
            q, *others = rng.permutation(qubits).tolist()
            gate = rng.choice(["h", "cnot", "phase"] if others else ["h", "phase"])
            control = others[0] if others and rng.random() < 0.5 else None
            rows = len(sparse.amplitudes)
            for state, at in ((dense, list(range(n))), (sparse, place)):
                if gate == "h":
                    apply_hadamard(state, at[q])
                elif gate == "cnot":
                    apply_cnot(state, at[others[0]], at[q], control_value=int(seed // 2 % 2))
                else:
                    apply_phase(state, at[q], 0.7 + seed, on_value=int(seed // 4 % 2),
                                control=None if control is None else at[control])
            phased |= gate == "phase"
            splits += len(sparse.amplitudes) > rows
            merges += len(sparse.amplitudes) < rows
            got = sparse_to_dense(sparse, place, background)
            # rows are distinct and none holds an exact 0
            assert np.count_nonzero(got) == len(sparse.amplitudes)
            if phased:
                assert np.max(np.abs(got - dense.amplitudes)) <= SPARSE_TOLERANCE
            else:
                assert got.tobytes() == dense.amplitudes.tobytes()
            for qubit in range(n):
                for value in (0, 1):
                    assert abs(sparse.probability(place[qubit], value)
                               - dense.probability(qubit, value)) <= SPARSE_TOLERANCE
    assert splits > 0 and merges > 0


def test_sparse_state_rejects_bad_rows():
    for indices, amps, message in (
        ([0, 8], [1, 0], "basis index 8 out of range for 3 qubits"),
        ([-1], [1], "basis index -1 out of range"),
        ([2, 2], [1, 0], "basis indices must be distinct"),
        ([1, 2], [1], "expected 2 amplitudes, got 1"),
    ):
        with pytest.raises(ValueError, match=message):
            qsim.SparseState(3, indices, amps)
    with pytest.raises(ValueError, match="num_qubits must be >= 1"):
        qsim.SparseState(0, [], [])
    state = qsim.SparseState(3, [1], [1])
    with pytest.raises(IndexError):
        apply_hadamard(state, 3)
    with pytest.raises(IndexError):
        apply_cnot(state, 1, 1)
    with pytest.raises(ValueError, match="control_value must be 0 or 1"):
        apply_cnot(state, 0, 2, control_value=2)
