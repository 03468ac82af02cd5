"""Pattern-memory tests: analytic retrieval vs the simulated circuit."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnnae import cli, evaluate, pqm, qsim
from qnnae.pqm import (
    BitString,
    PatternMemory,
    hamming_distance,
    prepare_memory_state,
    retrieve_analytic,
    retrieve_circuit,
    retrieve_exact_from_circuit,
    retrieval_state,
)


def brute_force_p0(patterns, input_bits):
    """Direct sum over the stored patterns, written independently of the library."""
    n = len(input_bits)
    total = 0.0
    for pattern in patterns:
        d = sum(a != b for a, b in zip(pattern, input_bits))
        total += math.cos(math.pi * d / (2 * n)) ** 2
    return total / len(patterns)


# widths from 30 bits up spread the 2n+1 qubits of the retrieval circuit over
# more than one 64-bit word of a sparse state's rows
bit_strings = st.one_of(st.integers(1, 6), st.integers(30, 70)).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=8).map(
        lambda ps: (n, ps)
    )
)


# ---------------------------------------------------------------------------
# bit strings and Hamming distance
# ---------------------------------------------------------------------------

def test_bitstring_parse_and_str():
    b = BitString.from_string("0101")
    assert len(b) == 4
    assert str(b) == "0101"
    assert b.to_index() == 5


def test_bitstring_rejects_garbage():
    with pytest.raises(ValueError):
        BitString.from_string("01a1")
    with pytest.raises(ValueError):
        BitString([])
    with pytest.raises(ValueError):
        BitString([0, 2])


@pytest.mark.parametrize(
    "a,b,d",
    [("0000", "0000", 0), ("0101", "1010", 4), ("0011", "0001", 1)],
)
def test_hamming_distance(a, b, d):
    assert hamming_distance(BitString.from_string(a), BitString.from_string(b)) == d


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(BitString.from_string("01"), BitString.from_string("011"))


# ---------------------------------------------------------------------------
# analytic retrieval
# ---------------------------------------------------------------------------

def test_analytic_exact_match():
    out = retrieve_analytic(PatternMemory.from_strings(["0000"]), BitString.from_string("0000"))
    assert out.p0 == pytest.approx(1.0)


def test_analytic_complement():
    out = retrieve_analytic(PatternMemory.from_strings(["1111"]), BitString.from_string("0000"))
    assert out.p0 == pytest.approx(0.0, abs=1e-12)


def test_analytic_uniform_memory():
    memory = PatternMemory.from_strings(["00", "01", "10", "11"])
    out = retrieve_analytic(memory, BitString.from_string("00"))
    # distances 0,1,1,2 -> (1 + 0.5 + 0.5 + 0)/4
    assert out.p0 == pytest.approx(0.5)


def test_analytic_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        patterns = [list(rng.integers(0, 2, n)) for _ in range(int(rng.integers(1, 9)))]
        input_bits = list(rng.integers(0, 2, n))
        memory = PatternMemory(BitString(p) for p in patterns)
        out = retrieve_analytic(memory, BitString(input_bits))
        assert out.p0 == pytest.approx(brute_force_p0(patterns, input_bits), abs=1e-12)


def test_analytic_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        retrieve_analytic(PatternMemory.from_strings(["01"]), BitString.from_string("011"))
    with pytest.raises(ValueError):
        PatternMemory([])


# ---------------------------------------------------------------------------
# storage state
# ---------------------------------------------------------------------------

def test_prepare_single_pattern():
    state = prepare_memory_state(PatternMemory.from_strings(["101"]))
    assert state.amplitudes[0b101] == pytest.approx(1.0)
    assert state.norm_sq() == pytest.approx(1.0)


def test_prepare_two_patterns():
    state = prepare_memory_state(PatternMemory.from_strings(["00", "11"]))
    assert state.amplitudes[0b00] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[0b11] == pytest.approx(1 / math.sqrt(2))


def test_prepare_duplicates_collapse():
    state = prepare_memory_state(PatternMemory.from_strings(["01", "01"]))
    assert state.amplitudes[0b01] == pytest.approx(1.0)
    assert state.norm_sq() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# circuit realization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "patterns,input_bits,expected_p0",
    [
        (["000", "111"], "000", 0.5),
        (["0"], "1", 0.0),
        (["01"], "00", 0.5),
    ],
)
def test_exact_from_circuit_known_cases(patterns, input_bits, expected_p0):
    out = retrieve_exact_from_circuit(
        PatternMemory.from_strings(patterns), BitString.from_string(input_bits)
    )
    assert out.p0 == pytest.approx(expected_p0, abs=1e-12)


@given(bit_strings, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_circuit_agrees_with_analytic(case, rnd):
    n, patterns = case
    memory = PatternMemory(BitString(p) for p in patterns)
    input_bits = BitString([rnd.randint(0, 1) for _ in range(n)])
    analytic = retrieve_analytic(memory, input_bits)
    state = retrieval_state(memory, input_bits)
    assert len(state.amplitudes) <= 2 * len(set(memory.patterns))
    circuit = retrieve_exact_from_circuit(memory, input_bits, state=state)
    assert abs(circuit.p0 - analytic.p0) <= 1e-9


def test_circuit_runs_past_ten_bits():
    rng = np.random.default_rng(12)
    for n in (11, 12, 360):
        memory, probe = random_memory(rng, n)
        circuit = retrieve_exact_from_circuit(memory, probe)
        assert abs(circuit.p0 - retrieve_analytic(memory, probe).p0) <= 1e-12


def test_shots_degenerate_cases():
    out, counts = retrieve_circuit(
        PatternMemory.from_strings(["0000"]), BitString.from_string("0000"), 200, 1
    )
    assert counts == {0: 200, 1: 0}
    out, counts = retrieve_circuit(
        PatternMemory.from_strings(["1111"]), BitString.from_string("0000"), 200, 1
    )
    assert counts == {0: 0, 1: 200}


def test_shots_converge():
    memory = PatternMemory.from_strings(["00", "01", "10", "11"])
    out, _ = retrieve_circuit(memory, BitString.from_string("00"), 20000, 9)
    sigma = math.sqrt(0.25 / 20000)
    assert abs(out.p0 - 0.5) <= 4 * sigma


def test_shots_deterministic_per_seed():
    memory = PatternMemory.from_strings(["01", "10"])
    first, counts1 = retrieve_circuit(memory, BitString.from_string("00"), 500, 4)
    second, counts2 = retrieve_circuit(memory, BitString.from_string("00"), 500, 4)
    assert counts1 == counts2


def random_memory(rng, n):
    patterns = [rng.integers(0, 2, n) for _ in range(int(rng.integers(1, 9)))]
    return PatternMemory(BitString(p) for p in patterns), BitString(rng.integers(0, 2, n))


@pytest.mark.parametrize("shots", [1, 60, 301])
@pytest.mark.parametrize("n", range(1, 9))
def test_shots_read_one_generator_stream(n, shots):
    """Shot i reads the i-th double of default_rng(seed) against the marginal's
    p1' = fl(sqrt(p1)**2): the counts are exactly the tally of those draws, and
    the same as measuring a copy of the whole dense state per shot from that
    stream."""
    rng = np.random.default_rng(n)
    for trial in range(4 if n <= 5 else 2):
        memory, probe = random_memory(rng, n)
        seed = int(rng.integers(0, 1000))
        state = retrieval_state(memory, probe)
        p1 = state.probability(2 * n, 1)
        ones = int(np.count_nonzero(np.random.default_rng(seed).random(shots) < math.sqrt(p1) ** 2))
        expected = {0: shots - ones, 1: ones}
        gen = np.random.default_rng(seed)
        dense = pqm.apply_retrieval(dense_initial_state(memory, probe), n)
        copies = [qsim.measure_qubit(dense.copy(), 2 * n, gen)[0] for _ in range(shots)]
        assert {0: copies.count(0), 1: copies.count(1)} == expected
        out, counts = retrieve_circuit(memory, probe, shots, seed)
        assert counts == expected
        assert (out.p0, out.p1) == (expected[0] / shots, expected[1] / shots)


def test_shots_copy_no_state():
    """Traced, 5,000 shots peak less than a byte per shot above 50 shots, and
    below the bytes of the state they read."""
    rng = np.random.default_rng(8)
    memory = PatternMemory(BitString(rng.integers(0, 2, 360)) for _ in range(64))
    probe = BitString(rng.integers(0, 2, 360))
    state = retrieval_state(memory, probe)
    retrieve_circuit(memory, probe, 1, 3, state=state)  # lazy set-up outside the trace
    peaks = []
    for shots in (50, 5000):
        tracemalloc.start()
        try:
            retrieve_circuit(memory, probe, shots, 3, state=state)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 5000 - 50
    assert peaks[1] < state.rows.nbytes + state.amplitudes.nbytes  # 14 KiB


def test_shot_marginal_is_within_one_ulp_of_p1(monkeypatch):
    """Each shot compares its draw, a multiple of 2**-53, with the marginal's
    p1' instead of the state's p1; within one ulp at most one draw value
    separates them, so a shot moves with probability at most 2**-53."""
    measured = []
    measure_qubit = qsim.measure_qubit

    def recording(state, q, rng):
        measured.append(state.probability(q, 1))
        return measure_qubit(state, q, rng)

    monkeypatch.setattr(qsim, "measure_qubit", recording)
    rng = np.random.default_rng(80)
    for n in range(1, 9):
        for trial in range(10):
            memory, probe = random_memory(rng, n)
            state = retrieval_state(memory, probe)
            p1 = state.probability(2 * n, 1)
            measured.clear()
            retrieve_circuit(memory, probe, 1, 0, state=state)
            assert abs(measured[0] - p1) <= math.ulp(p1)


def dense_initial_state(memory, probe):
    """The retrieval circuit's starting state in all 2^(2n+1) amplitudes."""
    n = memory.pattern_length
    amps = np.zeros(2 ** (2 * n + 1), dtype=complex)
    memory_index = np.arange(2**n) << n
    amps[probe.to_index() + memory_index] = prepare_memory_state(memory).amplitudes
    return qsim.StateVector(2 * n + 1, amps)


def documented_retrieval_state(memory, probe):
    """The retrieval circuit as documented: every CNOT(input -> memory) then X(memory)."""
    n = memory.pattern_length
    state = dense_initial_state(memory, probe)
    for j in range(n):
        qsim.apply_cnot(state, j, n + j)
        qsim.apply_x(state, n + j)
    qsim.apply_hadamard(state, 2 * n)
    for j in range(n):
        qsim.apply_phase(state, n + j, math.pi / (2 * n), on_value=0)
        qsim.apply_phase(state, n + j, -math.pi / n, on_value=0, control=2 * n)
    qsim.apply_hadamard(state, 2 * n)
    for j in reversed(range(n)):
        qsim.apply_x(state, n + j)
        qsim.apply_cnot(state, j, n + j)
    return state


def sparse_to_dense(state):
    amps = np.zeros(2**state.num_qubits, dtype=complex)
    for row, amp in zip(state.rows, state.amplitudes):
        amps[int.from_bytes(row.astype("<u8").tobytes(), "little")] = amp
    return amps


@pytest.mark.parametrize("n", range(1, 7))
def test_fused_circuit_matches_documented_gates(n):
    rng = np.random.default_rng(40 + n)
    for trial in range(4):
        memory, probe = random_memory(rng, n)
        fused = pqm.apply_retrieval(dense_initial_state(memory, probe), n)
        documented = documented_retrieval_state(memory, probe)
        assert fused.amplitudes.tobytes() == documented.amplitudes.tobytes()
        # the program's sparse state: a phase may round an amplitude an ulp
        # apart from the dense kernel (see tests/test_qsim.py)
        sparse = retrieval_state(memory, probe)
        assert len(sparse.amplitudes) <= 2 * len(set(memory.patterns))
        got = sparse_to_dense(sparse)
        assert np.count_nonzero(got) == len(sparse.amplitudes)
        assert np.max(np.abs(got - documented.amplitudes)) <= 8 * np.finfo(float).eps


def test_given_state_matches_built_state():
    rng = np.random.default_rng(21)
    for n in (1, 3, 4):
        memory, probe = random_memory(rng, n)
        state = retrieval_state(memory, probe)
        before = state.rows.copy(), state.amplitudes.copy()
        assert retrieve_exact_from_circuit(memory, probe, state=state) == (
            retrieve_exact_from_circuit(memory, probe)
        )
        assert retrieve_circuit(memory, probe, 80, 5, state=state) == (
            retrieve_circuit(memory, probe, 80, 5)
        )
        assert np.array_equal(state.rows, before[0])  # only read
        assert np.array_equal(state.amplitudes, before[1])


def test_given_state_of_wrong_width_rejected():
    memory = PatternMemory.from_strings(["01", "10"])
    probe = BitString.from_string("00")
    for num_qubits in (4, 6):
        wrong = qsim.StateVector(num_qubits)
        with pytest.raises(ValueError, match="needs 5"):
            retrieve_exact_from_circuit(memory, probe, state=wrong)
        with pytest.raises(ValueError, match="needs 5"):
            retrieve_circuit(memory, probe, 10, 0, state=wrong)


def test_cli_builds_retrieval_state_once(tmp_path, monkeypatch):
    path = tmp_path / "memory.txt"
    path.write_text("0110\n1011\n0000\n")
    built = []

    def counting(memory, input_pattern):
        built.append(str(input_pattern))
        return retrieval_state(memory, input_pattern)

    monkeypatch.setattr(pqm, "retrieval_state", counting)
    for flags, builds in ((["--circuit", "--shots", "50"], 1), (["--circuit"], 1),
                          (["--shots", "50"], 1), ([], 0)):
        built.clear()
        assert cli.main(["pqm", str(path), "0111", *flags, "--seed", "3"]) == 0
        assert built == ["0111"] * builds


# ---------------------------------------------------------------------------
# spec invariants
# ---------------------------------------------------------------------------

@given(bit_strings, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_p0_plus_p1_is_one(case, rnd):
    n, patterns = case
    memory = PatternMemory(BitString(p) for p in patterns)
    input_bits = BitString([rnd.randint(0, 1) for _ in range(n)])
    out = retrieve_analytic(memory, input_bits)
    assert abs(out.p0 + out.p1 - 1.0) <= 1e-12


def test_monotone_in_distance_single_pattern():
    n = 6
    pattern = BitString([0] * n)
    previous = None
    for d in range(n + 1):
        probe = BitString([1] * d + [0] * (n - d))
        p0 = retrieve_analytic(PatternMemory([pattern]), probe).p0
        if previous is not None:
            assert p0 < previous
        previous = p0


@given(bit_strings, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_permutation_invariance(case, rnd):
    n, patterns = case
    perm = list(range(n))
    rnd.shuffle(perm)
    input_bits = [rnd.randint(0, 1) for _ in range(n)]
    original = retrieve_analytic(
        PatternMemory(BitString(p) for p in patterns), BitString(input_bits)
    )
    permuted = retrieve_analytic(
        PatternMemory(BitString([p[j] for j in perm]) for p in patterns),
        BitString([input_bits[j] for j in perm]),
    )
    assert permuted.p0 == pytest.approx(original.p0, abs=1e-12)


@given(bit_strings, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_multiset_linearity(case, rnd):
    n, patterns = case
    input_bits = BitString([rnd.randint(0, 1) for _ in range(n)])
    single = retrieve_analytic(PatternMemory(BitString(p) for p in patterns), input_bits)
    doubled = retrieve_analytic(
        PatternMemory(BitString(p) for p in patterns + patterns), input_bits
    )
    assert doubled.p0 == pytest.approx(single.p0, abs=1e-12)


# ---------------------------------------------------------------------------
# memory files
# ---------------------------------------------------------------------------

def test_memory_file_roundtrip(tmp_path):
    path = tmp_path / "memory.txt"
    path.write_text("# stored patterns\n0101\n1111  \n\n0000 # trailing comment\n")
    memory = PatternMemory.from_file(path)
    assert [str(p) for p in memory] == ["0101", "1111", "0000"]


def test_memory_file_bad_line(tmp_path):
    path = tmp_path / "memory.txt"
    path.write_text("0101\n01x1\n")
    with pytest.raises(ValueError, match="2"):
        PatternMemory.from_file(path)


def test_memory_file_unequal_lengths(tmp_path):
    path = tmp_path / "memory.txt"
    path.write_text("0101\n011\n")
    with pytest.raises(ValueError):
        PatternMemory.from_file(path)
    # the file and the constructor share one rule and one message; the file
    # adds the line of the first pattern that breaks it
    for text, patterns, lineno, message in (
        ("0101\n011\n", ["0101", "011"], 2, "all patterns must have length 4, got 3 (011)"),
        ("# c\n01\n\n10 # x\n1\n", ["01", "10", "1"], 5,
         "all patterns must have length 2, got 1 (1)"),
        ("0\n10\n", ["0", "10"], 2, "all patterns must have length 1, got 2 (10)"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            PatternMemory.from_file(path)
        assert str(err.value) == f"{path}:{lineno}: {message}"
        with pytest.raises(ValueError) as err:
            PatternMemory.from_strings(patterns)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# the retrieval formula from distances
# ---------------------------------------------------------------------------

def test_retrieve_from_distances_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        pqm.retrieve_from_distances([], 3)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=r"\[0, 3\]"):
            pqm.retrieve_from_distances([0, bad, 1], 3)


def test_retrieve_from_distances_is_the_analytic_and_score_formula():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        memory, probe = random_memory(rng, n)
        distances = [hamming_distance(probe, pattern) for pattern in memory]
        assert pqm.retrieve_from_distances(distances, n) == retrieve_analytic(memory, probe)
        performances = [evaluate.PerformanceVector(p) for p in memory]
        ones = BitString.ones(n)
        misses = [hamming_distance(ones, pattern) for pattern in memory]
        assert pqm.retrieve_from_distances(misses, n).p0 == evaluate.score(performances, n)


def test_retrieve_from_distances_sums_left_to_right():
    # the reference is the plain loop; the builtin `sum` compensates from
    # Python 3.12 and np.sum adds pairwise, so neither may stand in for it
    rng = np.random.default_rng(78)
    cases = [(360, 19683)] + [
        (int(rng.integers(1, 401)), int(rng.integers(1, 30001))) for _ in range(30)
    ]
    for n, size in cases:
        distances = rng.integers(0, n + 1, size).tolist()
        cos_sq = [math.cos(math.pi * d / (2 * n)) ** 2 for d in range(n + 1)]
        sin_sq = [math.sin(math.pi * d / (2 * n)) ** 2 for d in range(n + 1)]
        p0 = p1 = 0.0
        for d in distances:
            p0 += cos_sq[d]
            p1 += sin_sq[d]
        want = pqm.RetrievalOutcome(p0 / size, p1 / size)
        assert pqm.retrieve_from_distances(distances, n) == want
        assert pqm.retrieve_from_distances(np.array(distances), n) == want


def test_apply_retrieval_needs_room_for_its_registers():
    with pytest.raises(ValueError, match="at least 5 qubits, got 4"):
        pqm.apply_retrieval(qsim.StateVector(4), 2)
