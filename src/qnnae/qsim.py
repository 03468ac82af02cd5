"""State simulators with the small gate set needed for memory retrieval.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
basis index.  Gates mutate the state in place and return it for chaining.

`StateVector` holds all 2^n amplitudes.  Its kernels index low-rank block
views of the flat amplitude array, not a (2,)*n view.  A one-qubit kernel on
qubit q reshapes the amplitudes to (high, 2, 2**q): axis 1 is qubit q, and the
outer and inner axes run over the qubits above and below it.  A two-qubit
kernel on qubits lo < hi reshapes them to (high, 2, 2**(hi-lo-1), 2, 2**lo),
whose axes 1 and 3 are qubits hi and lo.  Fixing those axes selects a half or
a quarter of the state as a writable strided view of at most three axes,
whatever the number of qubits.

`SparseState` holds only the basis states whose amplitude is not zero, so its
size does not grow with 2^n.  `apply_hadamard`, `apply_cnot`, `apply_phase`
and `probability` take either state and do the same arithmetic on the
non-zero amplitudes; `apply_x` and `measure_qubit` take a `StateVector`.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

RngLike = Union[int, np.random.Generator]


class StateVector:
    """2^n complex amplitudes over n qubits, kept at unit norm."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Optional[np.ndarray] = None):
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = num_qubits
        if amplitudes is None:
            amps = np.zeros(2**num_qubits, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
            if amps.shape[0] != 2**num_qubits:
                raise ValueError(
                    f"expected {2 ** num_qubits} amplitudes, got {amps.shape[0]}"
                )
        self.amplitudes = amps

    @classmethod
    def from_basis_state(cls, num_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < 2**num_qubits:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        state = cls(num_qubits)
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes)

    def norm_sq(self) -> float:
        return _sum_sq(self.amplitudes)

    def probability(self, q: int, value: int) -> float:
        """Marginal probability that qubit q reads `value`."""
        _check_qubit(self, q)
        return _sum_sq(_halves(self.amplitudes, q)[:, value])

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


class SparseState:
    """The non-zero amplitudes of a state over n qubits, one row per basis state.

    `rows[i]` is a basis index packed into ceil(n/64) uint64 words, qubit q in
    bit q % 64 of word q // 64, and `amplitudes[i]` is its amplitude.  Rows
    are distinct, and a basis state with no row has amplitude 0.  Memory and
    gate cost grow with the number of rows times n, not with 2^n.
    """

    __slots__ = ("num_qubits", "rows", "amplitudes")

    def __init__(self, num_qubits: int, indices: Sequence[int], amplitudes: Sequence[complex]):
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.shape[0] != len(indices):
            raise ValueError(f"expected {len(indices)} amplitudes, got {amps.shape[0]}")
        for index in indices:
            if not 0 <= index < 1 << num_qubits:
                raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        if len(set(indices)) != len(indices):
            raise ValueError("basis indices must be distinct")
        width = 8 * ((num_qubits + 63) // 64)
        packed = b"".join(int(index).to_bytes(width, "little") for index in indices)
        self.num_qubits = num_qubits
        self.rows = np.frombuffer(packed, dtype="<u8").astype(np.uint64).reshape(-1, width // 8)
        self.amplitudes = amps

    def probability(self, q: int, value: int) -> float:
        """Marginal probability that qubit q reads `value`."""
        _check_qubit(self, q)
        return _sum_sq(self.amplitudes[_reads(self, q, value)])

    def __repr__(self) -> str:
        return f"SparseState(num_qubits={self.num_qubits}, rows={len(self.amplitudes)})"


State = Union[StateVector, SparseState]


def _reads(state: SparseState, q: int, value: int) -> np.ndarray:
    """Mask of the rows whose qubit q reads `value`."""
    word, bit = divmod(q, 64)
    return ((state.rows[:, word] >> np.uint64(bit)) & np.uint64(1)) == value


def _sum_sq(amps: np.ndarray) -> float:
    """Sum of |a|^2, squaring the `abs` buffer in place (same bits as `abs(a) ** 2`).

    `np.add.reduce` over all axes is the reduction `np.sum` runs, without its
    Python-level dispatch, which dominates on the small states of a shot.
    """
    mags = np.abs(amps)
    mags *= mags
    return float(np.add.reduce(mags, axis=None))


def _check_qubit(state: State, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise IndexError(f"qubit {q} out of range for {state.num_qubits}-qubit state")


def _check_pair(state: State, control: int, target: int) -> None:
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise IndexError("control and target must differ")


def _check_bit(name: str, value: int) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")


def _halves(amps: np.ndarray, q: int) -> np.ndarray:
    """(high, 2, low) block view of the amplitudes; axis 1 is qubit q."""
    return amps.reshape(-1, 2, 1 << q)


def _quarter(amps: np.ndarray, a: int, value_a: int, b: int, value_b: int) -> np.ndarray:
    """Writable view of the amplitudes with qubit a == value_a and qubit b == value_b.

    Indexes the (high, 2, middle, 2, low) block view whose axes 1 and 3 are
    the larger and the smaller of a and b.
    """
    lo, hi = min(a, b), max(a, b)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if a > b:
        return view[:, value_a, :, value_b]
    return view[:, value_b, :, value_a]


def _butterfly(a0: np.ndarray, a1: np.ndarray) -> None:
    """(a0, a1) <- ((a0 + a1) / sqrt(2), (a0 - a1) / sqrt(2)), in place."""
    s = a0 + a1
    np.subtract(a0, a1, out=a1)
    a1 *= _INV_SQRT2
    np.multiply(s, _INV_SQRT2, out=a0)


def _sparse_hadamard(state: SparseState, q: int) -> SparseState:
    """Pair the rows that differ only in qubit q, a missing partner reading 0,
    run the dense butterfly on each pair and drop the rows that come out
    exactly 0.  The rows come out in basis-index order."""
    word, bit = divmod(q, 64)
    mask = np.uint64(1 << bit)
    values = _reads(state, q, 1).astype(np.intp)
    keys = state.rows.copy()
    keys[:, word] &= ~mask
    order = np.lexsort(keys.T)  # the top word is lexsort's primary key
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    pairs = np.zeros((np.count_nonzero(first), 2), dtype=np.complex128)
    pairs[np.cumsum(first) - 1, values[order]] = state.amplitudes[order]
    _butterfly(pairs[:, 0], pairs[:, 1])
    rows = np.repeat(keys[first], 2, axis=0)
    rows[1::2, word] |= mask
    amplitudes = pairs.reshape(-1)
    kept = amplitudes != 0
    state.rows, state.amplitudes = rows[kept], amplitudes[kept]
    return state


def apply_hadamard(state: State, q: int) -> State:
    _check_qubit(state, q)
    if isinstance(state, SparseState):
        return _sparse_hadamard(state, q)
    halves = _halves(state.amplitudes, q)
    _butterfly(halves[:, 0], halves[:, 1])
    return state


def apply_x(state: StateVector, q: int) -> StateVector:
    _check_qubit(state, q)
    halves = _halves(state.amplitudes, q)
    tmp = halves[:, 0].copy()
    halves[:, 0] = halves[:, 1]
    halves[:, 1] = tmp
    return state


def apply_cnot(state: State, control: int, target: int, *, control_value: int = 1) -> State:
    """Flip qubit `target` on the amplitudes with qubit `control` == control_value.

    control_value=0 is the anti-controlled X: it equals X(control), CNOT,
    X(control), and also CNOT followed by X(target), in one quarter swap.
    """
    _check_pair(state, control, target)
    _check_bit("control_value", control_value)
    if isinstance(state, SparseState):
        word, bit = divmod(target, 64)
        state.rows[_reads(state, control, control_value), word] ^= np.uint64(1 << bit)
        return state
    a0 = _quarter(state.amplitudes, control, control_value, target, 0)
    a1 = _quarter(state.amplitudes, control, control_value, target, 1)
    tmp = a0.copy()
    a0[...] = a1
    a1[...] = tmp
    return state


def apply_phase(
    state: State,
    q: int,
    angle: float,
    on_value: int = 1,
    control: Optional[int] = None,
) -> State:
    """Multiply amplitudes with qubit q == on_value (and control == 1) by e^{i*angle}."""
    _check_qubit(state, q)
    _check_bit("on_value", on_value)
    if control is not None:
        _check_pair(state, control, q)
    if isinstance(state, SparseState):
        where = _reads(state, q, on_value)
        if control is not None:
            where &= _reads(state, control, 1)
        state.amplitudes[where] *= np.exp(1j * angle)
        return state
    if control is None:
        block = _halves(state.amplitudes, q)[:, on_value]
    else:
        block = _quarter(state.amplitudes, control, 1, q, on_value)
    block *= np.exp(1j * angle)
    return state


def measure_qubit(state: StateVector, q: int, rng: RngLike) -> Tuple[int, StateVector]:
    """Projectively measure qubit q; collapses and renormalizes in place.

    Reads exactly one `random()` double: from `rng` itself if it is a
    Generator, which advances by that one draw, or from a fresh generator
    seeded with it.
    """
    _check_qubit(state, q)
    gen = np.random.default_rng(rng)
    halves = _halves(state.amplitudes, q)
    p1 = _sum_sq(halves[:, 1])
    outcome = 1 if gen.random() < p1 else 0
    halves[:, 1 - outcome] = 0.0
    norm = math.sqrt(state.norm_sq())
    if norm == 0.0:
        raise FloatingPointError("measurement branch has zero probability mass")
    # only the kept half: the zeroed half would stay +0 under the division
    halves[:, outcome] /= norm
    return outcome, state
