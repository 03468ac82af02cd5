"""Dense state-vector simulator with the small gate set needed for memory retrieval.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
basis index.  Gates mutate the state in place and return it for chaining.
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
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probability(self, q: int, value: int) -> float:
        """Marginal probability that qubit q reads `value`."""
        _check_qubit(self, q)
        view = self.amplitudes.reshape([2] * self.num_qubits)
        sel = [slice(None)] * self.num_qubits
        sel[self.num_qubits - 1 - q] = value
        return float(np.sum(np.abs(view[tuple(sel)]) ** 2))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise IndexError(f"qubit {q} out of range for {state.num_qubits}-qubit state")


def _slices(state: StateVector, fixed: Sequence[Tuple[int, int]]):
    sel = [slice(None)] * state.num_qubits
    for q, v in fixed:
        sel[state.num_qubits - 1 - q] = v
    return tuple(sel)


def apply_hadamard(state: StateVector, q: int) -> StateVector:
    _check_qubit(state, q)
    view = state.amplitudes.reshape([2] * state.num_qubits)
    i0 = _slices(state, [(q, 0)])
    i1 = _slices(state, [(q, 1)])
    a0 = view[i0].copy()
    a1 = view[i1]
    view[i0] = (a0 + a1) * _INV_SQRT2
    view[i1] = (a0 - a1) * _INV_SQRT2
    return state


def apply_x(state: StateVector, q: int) -> StateVector:
    _check_qubit(state, q)
    view = state.amplitudes.reshape([2] * state.num_qubits)
    i0 = _slices(state, [(q, 0)])
    i1 = _slices(state, [(q, 1)])
    tmp = view[i0].copy()
    view[i0] = view[i1]
    view[i1] = tmp
    return state


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise IndexError("control and target must differ")
    view = state.amplitudes.reshape([2] * state.num_qubits)
    i10 = _slices(state, [(control, 1), (target, 0)])
    i11 = _slices(state, [(control, 1), (target, 1)])
    tmp = view[i10].copy()
    view[i10] = view[i11]
    view[i11] = tmp
    return state


def apply_phase(
    state: StateVector,
    q: int,
    angle: float,
    on_value: int = 1,
    control: Optional[int] = None,
) -> StateVector:
    """Multiply amplitudes with qubit q == on_value (and control == 1) by e^{i*angle}."""
    _check_qubit(state, q)
    if on_value not in (0, 1):
        raise ValueError(f"on_value must be 0 or 1, got {on_value}")
    fixed = [(q, on_value)]
    if control is not None:
        _check_qubit(state, control)
        if control == q:
            raise IndexError("control and target must differ")
        fixed.append((control, 1))
    view = state.amplitudes.reshape([2] * state.num_qubits)
    view[_slices(state, fixed)] *= np.exp(1j * angle)
    return state


def measure_qubit(state: StateVector, q: int, rng: RngLike) -> Tuple[int, StateVector]:
    """Projectively measure qubit q; collapses and renormalizes in place."""
    _check_qubit(state, q)
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    p1 = state.probability(q, 1)
    outcome = 1 if gen.random() < p1 else 0
    view = state.amplitudes.reshape([2] * state.num_qubits)
    view[_slices(state, [(q, 1 - outcome)])] = 0.0
    norm = math.sqrt(state.norm_sq())
    if norm == 0.0:
        raise FloatingPointError("measurement branch has zero probability mass")
    state.amplitudes /= norm
    return outcome, state
