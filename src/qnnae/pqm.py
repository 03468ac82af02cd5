"""Probabilistic quantum memory: Hamming-distance retrieval over stored bit patterns.

The memory holds p equal-length bit patterns in uniform superposition.  Probing it
with an input pattern yields a control bit that reads 0 with probability

    P(c=0) = (1/p) * sum_k cos^2(pi * d_H(input, pattern_k) / (2n))

Both an analytic evaluation and a circuit-level realization on the state-vector
simulator are provided; they must agree, and tests enforce that.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from . import qsim

MAX_PATTERN_QUBITS = 10


class CapacityError(RuntimeError):
    """Raised when a circuit would exceed the simulator budget."""


class BitString:
    """Fixed-length pattern of 0/1 bits."""

    __slots__ = ("bits",)

    def __init__(self, bits: Iterable[int]):
        bits = tuple(int(b) for b in bits)
        if len(bits) < 1:
            raise ValueError("bit string must have length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits}")
        self.bits = bits

    @classmethod
    def from_string(cls, text: str) -> "BitString":
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(ch) for ch in text)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls((1,) * n)

    def to_index(self) -> int:
        """Basis-state index, leftmost bit most significant."""
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitString) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __repr__(self) -> str:
        return f"BitString({self})"


def hamming_distance(a: BitString, b: BitString) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a.bits, b.bits))


class PatternMemory:
    """Ordered multiset of equal-length bit patterns (duplicates allowed)."""

    __slots__ = ("patterns", "pattern_length")

    def __init__(self, patterns: Iterable[BitString]):
        patterns = tuple(patterns)
        if not patterns:
            raise ValueError("pattern memory must not be empty")
        n = len(patterns[0])
        for p in patterns:
            if len(p) != n:
                raise ValueError(
                    f"all patterns must have length {n}, got {len(p)} ({p})"
                )
        self.patterns = patterns
        self.pattern_length = n

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "PatternMemory":
        return cls(BitString.from_string(s) for s in strings)

    @classmethod
    def from_file(cls, path) -> "PatternMemory":
        """One bit string per line; blank lines and `#` comments are skipped."""
        strings = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    pattern = BitString.from_string(line)
                    if strings and len(pattern) != len(strings[0]):
                        raise ValueError(
                            f"all patterns must have length {len(strings[0])}, "
                            f"got {len(pattern)} ({pattern})"
                        )
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                strings.append(pattern)
        if not strings:
            raise ValueError(f"{path}: no patterns")
        return cls(strings)

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)


@dataclass(frozen=True)
class RetrievalOutcome:
    """Probabilities of reading the control qubit as 0 or 1."""

    p0: float
    p1: float

    def __post_init__(self):
        for name, v in (("p0", self.p0), ("p1", self.p1)):
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} out of [0,1]: {v}")


def _check_input(memory: PatternMemory, input_pattern: BitString) -> None:
    if len(input_pattern) != memory.pattern_length:
        raise ValueError(
            f"input length {len(input_pattern)} != pattern length {memory.pattern_length}"
        )


def retrieve_analytic(memory: PatternMemory, input_pattern: BitString) -> RetrievalOutcome:
    """Closed-form retrieval probabilities; duplicates count once per occurrence."""
    _check_input(memory, input_pattern)
    n = memory.pattern_length
    p0 = 0.0
    p1 = 0.0
    for pattern in memory.patterns:
        theta = math.pi * hamming_distance(input_pattern, pattern) / (2 * n)
        p0 += math.cos(theta) ** 2
        p1 += math.sin(theta) ** 2
    p = memory.num_patterns
    return RetrievalOutcome(p0 / p, p1 / p)


def prepare_memory_state(memory: PatternMemory) -> qsim.StateVector:
    """Uniform-superposition storage state: amplitude sqrt(mult/p) per distinct pattern."""
    n = memory.pattern_length
    p = memory.num_patterns
    amps = np.zeros(2**n, dtype=np.complex128)
    for pattern, mult in Counter(memory.patterns).items():
        amps[pattern.to_index()] = math.sqrt(mult / p)
    return qsim.StateVector(n, amps)


def _prepare_retrieval_state(memory: PatternMemory, input_pattern: BitString) -> qsim.StateVector:
    """Run the retrieval circuit, returning the pre-measurement 2n+1 qubit state.

    Register layout (little-endian qubit indices): input on [0, n), memory on
    [n, 2n), control on 2n.  Bit k of a pattern string maps to qubit n-1-k of
    its register, so a register's integer value equals the bit string read as
    binary.

    Circuit: for each position, CNOT(input -> memory) then X(memory), leaving
    memory qubits 0 exactly where the bits differ; H on control; phase
    e^{i*pi/(2n)} on each zero memory qubit plus control-conditioned phase
    e^{-i*pi/n} on the same qubits; H on control; uncompute the X/CNOT layer.
    The two control branches then carry relative phase 2*pi*d_H/(2n), which the
    final H converts into the cos^2/sin^2 amplitudes.
    """
    _check_input(memory, input_pattern)
    n = memory.pattern_length
    if n > MAX_PATTERN_QUBITS:
        raise CapacityError(
            f"retrieval circuit needs {2 * n + 1} qubits; "
            f"pattern length is limited to {MAX_PATTERN_QUBITS}"
        )
    control = 2 * n

    amps = np.zeros(2 ** (2 * n + 1), dtype=np.complex128)
    memory_index = np.arange(2**n) << n
    amps[input_pattern.to_index() + memory_index] = prepare_memory_state(memory).amplitudes
    state = qsim.StateVector(2 * n + 1, amps)

    for j in range(n):
        qsim.apply_cnot(state, control=j, target=n + j)
        qsim.apply_x(state, n + j)
    qsim.apply_hadamard(state, control)
    for j in range(n):
        qsim.apply_phase(state, n + j, math.pi / (2 * n), on_value=0)
        qsim.apply_phase(state, n + j, -math.pi / n, on_value=0, control=control)
    qsim.apply_hadamard(state, control)
    for j in reversed(range(n)):
        qsim.apply_x(state, n + j)
        qsim.apply_cnot(state, control=j, target=n + j)
    return state


def retrieve_exact_from_circuit(
    memory: PatternMemory, input_pattern: BitString
) -> RetrievalOutcome:
    """Control-qubit marginal read directly off the simulated final state."""
    state = _prepare_retrieval_state(memory, input_pattern)
    control = 2 * memory.pattern_length
    p0 = state.probability(control, 0)
    p1 = state.probability(control, 1)
    total = p0 + p1
    return RetrievalOutcome(p0 / total, p1 / total)


def retrieve_circuit(
    memory: PatternMemory,
    input_pattern: BitString,
    shots: int,
    rng_seed: int,
) -> Tuple[RetrievalOutcome, Dict[int, int]]:
    """Shot-sampled retrieval: measure the control qubit `shots` times.

    State preparation is deterministic, so the prepared state is built once and
    copied per shot.  Shot i uses seed rng_seed + i, making results independent
    of execution order.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    state = _prepare_retrieval_state(memory, input_pattern)
    control = 2 * memory.pattern_length
    counts = {0: 0, 1: 0}
    for shot in range(shots):
        outcome, _ = qsim.measure_qubit(state.copy(), control, rng_seed + shot)
        counts[outcome] += 1
    return RetrievalOutcome(counts[0] / shots, counts[1] / shots), counts
