"""Probabilistic quantum memory: Hamming-distance retrieval over stored bit patterns.

The memory holds p equal-length bit patterns in uniform superposition.  Probing it
with an input pattern yields a control bit that reads 0 with probability

    P(c=0) = (1/p) * sum_k cos^2(pi * d_H(input, pattern_k) / (2n))

Both an analytic evaluation (`retrieve_from_distances`, the formula's one copy)
and a circuit-level realization on the simulator are provided; they must agree,
and tests enforce that.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import dataio, qsim

class BitString(tuple):
    """Fixed-length pattern of 0/1 bits: a tuple, so it equals and hashes as
    the plain tuple of its bits."""

    __slots__ = ()

    def __new__(cls, bits: Iterable[int]):
        bits = tuple(int(b) for b in bits)
        if len(bits) < 1:
            raise ValueError("bit string must have length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits}")
        return super().__new__(cls, bits)

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
        for b in self:
            idx = (idx << 1) | b
        return idx

    def __str__(self) -> str:
        return "".join(str(b) for b in self)

    def __repr__(self) -> str:
        return f"BitString({self})"


def hamming_distance(a: BitString, b: BitString) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def _check_pattern_length(pattern: BitString, n: int) -> None:
    if len(pattern) != n:
        raise ValueError(f"all patterns must have length {n}, got {len(pattern)} ({pattern})")


class PatternMemory:
    """Ordered multiset of equal-length bit patterns (duplicates allowed)."""

    __slots__ = ("patterns", "pattern_length")

    def __init__(self, patterns: Iterable[BitString]):
        patterns = tuple(patterns)
        if not patterns:
            raise ValueError("pattern memory must not be empty")
        n = len(patterns[0])
        for p in patterns:
            _check_pattern_length(p, n)
        self.patterns = patterns
        self.pattern_length = n

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "PatternMemory":
        return cls(BitString.from_string(s) for s in strings)

    @classmethod
    def from_file(cls, path) -> "PatternMemory":
        """One bit string per line; blank lines and `#` comments are skipped."""
        strings = []
        for lineno, line in dataio.content_lines(path):
            try:
                pattern = BitString.from_string(line)
                if strings:
                    _check_pattern_length(pattern, len(strings[0]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            strings.append(pattern)
        if not strings:
            raise ValueError(f"{path}: no patterns")
        return cls(strings)

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


def retrieve_from_distances(distances: Sequence[int], n: int) -> RetrievalOutcome:
    """P(c=0) and P(c=1) of a memory whose n-bit patterns lie at these Hamming
    distances from the input: the one copy of the formula above.

    Each of the n+1 possible terms is computed once, then the terms are summed
    left to right in the order of `distances`: numpy's accumulate adds strictly
    in order, where `np.sum` would add pairwise.
    """
    distances = np.asarray(distances)
    if distances.size == 0:
        raise ValueError("need at least one distance")
    if n < 1 or distances.min() < 0 or distances.max() > n:
        raise ValueError(f"distances must lie in [0, {n}] with n >= 1")
    cos_sq = np.array([math.cos(math.pi * d / (2 * n)) ** 2 for d in range(n + 1)])
    sin_sq = np.array([math.sin(math.pi * d / (2 * n)) ** 2 for d in range(n + 1)])
    p0 = float(np.cumsum(cos_sq[distances])[-1])
    p1 = float(np.cumsum(sin_sq[distances])[-1])
    p = distances.size
    return RetrievalOutcome(p0 / p, p1 / p)


def retrieve_analytic(memory: PatternMemory, input_pattern: BitString) -> RetrievalOutcome:
    """Closed-form retrieval probabilities; duplicates count once per occurrence."""
    _check_input(memory, input_pattern)
    return retrieve_from_distances(
        [hamming_distance(input_pattern, pattern) for pattern in memory.patterns],
        memory.pattern_length,
    )


def prepare_memory_state(memory: PatternMemory) -> qsim.StateVector:
    """Uniform-superposition storage state: amplitude sqrt(mult/p) per distinct pattern."""
    n = memory.pattern_length
    p = len(memory)
    amps = np.zeros(2**n, dtype=np.complex128)
    for pattern, mult in Counter(memory.patterns).items():
        amps[pattern.to_index()] = math.sqrt(mult / p)
    return qsim.StateVector(n, amps)


def retrieval_state(memory: PatternMemory, input_pattern: BitString) -> qsim.SparseState:
    """Run the retrieval circuit, returning the pre-measurement 2n+1 qubit state.

    Register layout (little-endian qubit indices): input on [0, n), memory on
    [n, 2n), control on 2n.  Bit k of a pattern string maps to qubit n-1-k of
    its register, so a register's integer value equals the bit string read as
    binary.  The input register starts in the input pattern, the memory
    register in the storage state of `prepare_memory_state`, and
    `apply_retrieval` runs the gates.  The state is a `qsim.SparseState`: one
    row per distinct pattern, which the two Hadamards on the control at most
    double, so any pattern length runs.
    """
    _check_input(memory, input_pattern)
    n = memory.pattern_length
    p = len(memory)
    counts = Counter(memory.patterns)
    input_index = input_pattern.to_index()
    state = qsim.SparseState(
        2 * n + 1,
        [input_index | (pattern.to_index() << n) for pattern in counts],
        [math.sqrt(mult / p) for mult in counts.values()],
    )
    return apply_retrieval(state, n)


def apply_retrieval(state: qsim.State, n: int) -> qsim.State:
    """Run the retrieval gates on qubits [0, 2n] of `state`, in place.

    Qubits [0, n) hold the input, [n, 2n) the memory and 2n the control, laid
    out as in `retrieval_state`; qubits above 2n are left alone, so a memory
    entangled with a higher register is probed branch by branch.

    Circuit: for each position, CNOT(input -> memory) then X(memory), leaving
    memory qubits 0 exactly where the bits differ; H on control; phase
    e^{i*pi/(2n)} on each zero memory qubit plus control-conditioned phase
    e^{-i*pi/n} on the same qubits; H on control; uncompute the X/CNOT layer.
    The two control branches then carry relative phase 2*pi*d_H/(2n), which the
    final H converts into the cos^2/sin^2 amplitudes.

    Each CNOT+X pair runs as one anti-controlled X (`apply_cnot` with
    control_value=0), which flips memory_j where input_j reads 0.  That sets
    memory_j to NOT(memory_j XOR input_j), as CNOT then X does: where input_j
    is 1 the CNOT's flip and the X's flip cancel, and where it is 0 only the X
    flips.  The pair is a permutation of the amplitudes, so the fused gate
    leaves the same state bit for bit, and it is its own inverse, so it also
    uncomputes the layer.  It moves one quarter-block pair instead of a
    quarter pair and then a half pair.
    """
    if state.num_qubits < 2 * n + 1:
        raise ValueError(f"retrieval needs at least {2 * n + 1} qubits, got {state.num_qubits}")
    control = 2 * n
    for j in range(n):
        qsim.apply_cnot(state, control=j, target=n + j, control_value=0)
    qsim.apply_hadamard(state, control)
    for j in range(n):
        qsim.apply_phase(state, n + j, math.pi / (2 * n), on_value=0)
        qsim.apply_phase(state, n + j, -math.pi / n, on_value=0, control=control)
    qsim.apply_hadamard(state, control)
    for j in reversed(range(n)):
        qsim.apply_cnot(state, control=j, target=n + j, control_value=0)
    return state


def _given_or_built(
    memory: PatternMemory, input_pattern: BitString, state: Optional[qsim.State]
) -> qsim.State:
    if state is None:
        return retrieval_state(memory, input_pattern)
    _check_input(memory, input_pattern)
    width = 2 * memory.pattern_length + 1
    if state.num_qubits != width:
        raise ValueError(
            f"retrieval state has {state.num_qubits} qubits; this memory needs {width}"
        )
    return state


def retrieve_exact_from_circuit(
    memory: PatternMemory,
    input_pattern: BitString,
    *,
    state: Optional[qsim.State] = None,
) -> RetrievalOutcome:
    """Control-qubit marginal read directly off the simulated final state.

    `state`, if given, is `retrieval_state(memory, input_pattern)` built by the
    caller; it is only read.
    """
    state = _given_or_built(memory, input_pattern, state)
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
    *,
    state: Optional[qsim.State] = None,
) -> Tuple[RetrievalOutcome, Dict[int, int]]:
    """Shot-sampled retrieval: measure the control qubit `shots` times.

    State preparation is deterministic, so the prepared state is built once (or
    taken from `state`, which is only read).  A shot reads only the control
    qubit, so its marginal is read once from the state into a 1-qubit state
    with amplitudes [sqrt(p0), sqrt(p1)], and each shot measures a fresh copy
    of that marginal in one reused 2-amplitude scratch state.  All shots share
    one generator, so shot i reads the i-th draw of default_rng(rng_seed).

    The marginal is left unnormalized, so each shot compares its draw with
    p1' = fl(sqrt(p1)**2), which is p1 or 1 ulp away from it.  A draw is a
    multiple of 2**-53, so at most one draw value lies between p1 and p1':
    a shot reads differently from measuring a copy of the whole state with
    probability at most 2**-53.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    state = _given_or_built(memory, input_pattern, state)
    control = 2 * memory.pattern_length
    marginal = qsim.StateVector(1, [math.sqrt(state.probability(control, value))
                                    for value in (0, 1)])
    scratch = marginal.copy()
    gen = np.random.default_rng(rng_seed)
    counts = {0: 0, 1: 0}
    for _ in range(shots):
        np.copyto(scratch.amplitudes, marginal.amplitudes)
        outcome = qsim.measure_qubit(scratch, 0, gen)[0]
        counts[outcome] += 1
    return RetrievalOutcome(counts[0] / shots, counts[1] / shots), counts
