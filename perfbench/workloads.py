"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, output checks.

Each workload writes its input files from the benchmark seed, lists the
`qnnae` command lines that make up one pass, and checks the outputs of a
pass.  The program sees only the generated files and the command lines.
Constructor keywords set the workload sizes; the defaults are the benchmark's.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

GRID_TOLERANCE = 1e-12
CIRCUIT_TOLERANCE = 1e-9
SHOT_SIGMAS = 4.0
# the CLI prints p0 with 6 decimals
PRINTED_P0_TOLERANCE = 1e-6
TRAIN_FRACTION = 0.1  # the CLI default, which every workload uses
GRID_LEVELS = (-1.0, 0.0, 1.0)
# grid points per oracle step: a few hundred KiB of temporaries, so the
# oracle, which runs in the benchmark's process, never sets its peak RSS
ORACLE_CHUNK = 64


@dataclass(frozen=True)
class Call:
    """One `qnnae` command line and the files it writes, by key."""

    argv: Tuple[str, ...]
    outputs: Tuple[Tuple[str, Path], ...] = ()


@dataclass
class CallOutput:
    rc: Optional[int]
    stdout: str
    stderr: str
    files: Dict[str, Optional[bytes]] = field(default_factory=dict)


# ---- input generators (the benchmark's own, independent of qnnae) ----------

def _write_dataset(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    lines = ["f1,f2,label"]
    lines += [f"{float(a)!r},{float(b)!r},{int(c)}" for (a, b), c in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_xor(path: Path, n: int, noise: float, rng: np.random.Generator) -> None:
    """Four noisy corners of the unit square; label is x XOR y."""
    corners = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    which = np.arange(n) % 4
    labels = (corners[which, 0] != corners[which, 1]).astype(np.int64)
    _write_dataset(path, corners[which] + rng.normal(0.0, noise, (n, 2)), labels)


def write_blobs(path: Path, n: int, spread: float, rng: np.random.Generator) -> None:
    """Three overlapping Gaussian blobs, labels 0, 1, 2 in turn."""
    centers = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.7)])
    labels = np.arange(n) % 3
    _write_dataset(path, centers[labels] + rng.normal(0.0, spread, (n, 2)), labels)


def _bit_string(rng: np.random.Generator, n: int) -> str:
    return "".join("01"[b] for b in rng.integers(0, 2, n))


def analytic_p0(patterns: Sequence[str], probe: str) -> float:
    """The benchmark's own P(c=0) = mean_k cos^2(pi * d_H(probe, p_k) / (2n))."""
    n = len(probe)
    d = np.array([sum(a != b for a, b in zip(p, probe)) for p in patterns])
    return float(np.mean(np.cos(np.pi * d / (2 * n)) ** 2))


# ---- output parsing ----------------------------------------------------------

def _field(text: str, key: str) -> float:
    match = re.search(rf"(?:^|\s){re.escape(key)}=(\S+)", text)
    if match is None:
        raise ValueError(f"no {key}= in output")
    return float(match.group(1))


def _report_rows(data: Optional[bytes]) -> List[Dict[str, str]]:
    if data is None:
        raise ValueError("report file missing")
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _exit_problems(calls: Sequence[Call], outputs: Sequence[CallOutput]) -> List[str]:
    if len(outputs) != len(calls):
        return [f"expected {len(calls)} call outputs, got {len(outputs)}"]
    return [
        f"{' '.join(call.argv[:1])} exited {out.rc}: {out.stderr.strip()[-300:]}"
        for call, out in zip(calls, outputs) if out.rc != 0
    ]


class Workload:
    """Base: subclasses set `calls`, `items`, `sizes` and implement `_check`."""

    name = ""
    calls: List[Call]
    items: int  # networks or probes per pass
    sizes: Dict[str, object]

    def check(self, outputs: Sequence[CallOutput]) -> List[str]:
        """Problems found in one pass's outputs; empty when the pass is correct."""
        problems = _exit_problems(self.calls, outputs)
        if problems:
            return problems
        try:
            return self._check(outputs)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check(self, outputs: Sequence[CallOutput]) -> List[str]:
        raise NotImplementedError


class SweepSampled(Workload):
    """`qnnae sweep` on a binary xor set, then on a 3-class blob set with a plot.

    The default sample counts fill whole training stacks of the program
    (64 networks per `mlp.train_batch` call), as a default sweep does.
    """

    name = "sweep_sampled"

    def __init__(self, workdir: Path, seed: int, xor_samples: int = 64,
                 xor_hidden: Tuple[int, int] = (1, 9), blobs_samples: int = 64,
                 blobs_hidden: Tuple[int, int] = (1, 5)):
        rng = np.random.default_rng([seed, 1])
        xor_csv, blobs_csv = workdir / "xor.csv", workdir / "blobs.csv"
        write_xor(xor_csv, 400, 0.15, rng)
        write_blobs(blobs_csv, 300, 0.7, rng)
        common = ("--seed", str(seed), "--threads", "1")
        xor_report = workdir / "sweep_xor.csv"
        blobs_report = workdir / "sweep_blobs.csv"
        plot = workdir / "sweep_blobs.svg"
        self.calls = [
            Call(("sweep", str(xor_csv), "--samples", str(xor_samples),
                  "--hidden-range", str(xor_hidden[0]), str(xor_hidden[1]),
                  "--out", str(xor_report)) + common,
                 (("report", xor_report),)),
            Call(("sweep", str(blobs_csv), "--samples", str(blobs_samples),
                  "--hidden-range", str(blobs_hidden[0]), str(blobs_hidden[1]),
                  "--out", str(blobs_report), "--plot", str(plot)) + common,
                 (("report", blobs_report), ("plot", plot))),
        ]
        self.hidden = [xor_hidden, blobs_hidden]
        self.items = (xor_samples * (xor_hidden[1] - xor_hidden[0])
                      + blobs_samples * (blobs_hidden[1] - blobs_hidden[0]))
        self.sizes = {"xor": {"n": 400, "noise": 0.15, "samples": xor_samples,
                              "hidden_range": list(xor_hidden)},
                      "blobs3": {"n": 300, "spread": 0.7, "samples": blobs_samples,
                                 "hidden_range": list(blobs_hidden), "plot": True}}
        self._reference: Optional[List[Dict[str, Optional[bytes]]]] = None

    def _check(self, outputs: Sequence[CallOutput]) -> List[str]:
        problems = []
        files = [out.files for out in outputs]
        if self._reference is None:
            self._reference = files
        elif files != self._reference:
            problems.append("report or plot bytes differ from the first pass")
        scores = []
        for out, (lo, hi) in zip(outputs, self.hidden):
            rows = _report_rows(out.files["report"])
            if [int(r["hidden"]) for r in rows] != list(range(lo, hi)):
                problems.append(f"report rows are not hidden sizes {lo}..{hi - 1}")
            by_hidden = {int(r["hidden"]): float(r["score_p0"]) for r in rows}
            bad = {h: v for h, v in by_hidden.items() if not 0.0 <= v <= 1.0}
            if bad:
                problems.append(f"scores outside [0,1]: {bad}")
            scores.append(by_hidden)
        xor = scores[0]
        if 1 in xor and 4 in xor and not xor[1] < xor[4]:
            problems.append(f"xor score h=1 ({xor[1]}) is not below h=4 ({xor[4]})")
        return problems


class GridExhaustive(Workload):
    """`qnnae evaluate --exhaustive` over an untrained weight grid on xor."""

    name = "grid_exhaustive"

    def __init__(self, workdir: Path, seed: int, hidden: int = 2):
        rng = np.random.default_rng([seed, 2])
        self.dataset = workdir / "xor.csv"
        write_xor(self.dataset, 400, 0.15, rng)
        self.seed, self.hidden = seed, hidden
        report = workdir / "grid.csv"
        self.calls = [Call(
            ("evaluate", str(self.dataset), "--hidden", str(hidden), "--exhaustive",
             "--levels=" + ",".join(f"{v:g}" for v in GRID_LEVELS),
             "--seed", str(seed), "--threads", "1", "--out", str(report)),
            (("report", report),))]
        weight_count = 3 * hidden + (hidden + 1)  # 2 inputs, 1 output, biases
        self.items = len(GRID_LEVELS) ** weight_count
        self.sizes = {"xor": {"n": 400, "noise": 0.15}, "hidden": hidden,
                      "levels": list(GRID_LEVELS), "grid_points": self.items}
        self._oracle: Optional[float] = None

    def oracle(self) -> float:
        if self._oracle is None:
            self._oracle = grid_score_oracle(self.dataset, self.seed, self.hidden, GRID_LEVELS)
        return self._oracle

    def _check(self, outputs: Sequence[CallOutput]) -> List[str]:
        rows = _report_rows(outputs[0].files["report"])
        if len(rows) != 1 or int(rows[0]["num_samples"]) != self.items:
            return [f"report does not cover {self.items} grid points: {rows}"]
        got, want = float(rows[0]["score_p0"]), self.oracle()
        if not abs(got - want) <= GRID_TOLERANCE:
            return [f"grid score {got!r} differs from the oracle {want!r}"]
        return []


def grid_score_oracle(dataset_path: Path, seed: int, hidden: int,
                      levels: Sequence[float]) -> float:
    """Score of every untrained grid point, vectorized over points with numpy.

    Uses the program's CSV loader and split (their outputs are not what is
    checked), then its own forward pass, classification and score.  Weight
    layout: (inputs+1) x hidden, then (hidden+1) x outputs, bias rows last;
    points in lexicographic order of `levels`.
    """
    from qnnae import dataio

    ds = dataio.load_csv(dataset_path)
    train, val = dataio.split(ds, dataio.SplitSpec(TRAIN_FRACTION, seed, stratified=True))
    mean = train.features.mean(axis=0)
    scale = train.features.std(axis=0)
    scale[scale == 0.0] = 1.0
    x = (val.features - mean) / scale
    y = val.labels
    d, o = ds.num_features, (1 if ds.num_classes == 2 else ds.num_classes)
    n1 = (d + 1) * hidden
    weight_count = n1 + (hidden + 1) * o
    lv = np.asarray(levels, dtype=np.float64)
    points = len(lv) ** weight_count
    place = len(lv) ** np.arange(weight_count - 1, -1, -1)
    total = 0.0
    for start in range(0, points, ORACLE_CHUNK):
        index = np.arange(start, min(start + ORACLE_CHUNK, points))
        w = lv[(index[:, None] // place) % len(lv)]
        w1 = w[:, :n1].reshape(-1, d + 1, hidden)
        w2 = w[:, n1:].reshape(-1, hidden + 1, o)
        z1 = np.matmul(x, w1[:, :-1]) + w1[:, -1][:, None, :]
        h = 1.0 / (1.0 + np.exp(-np.clip(z1, -500, 500)))
        z = np.matmul(h, w2[:, :-1]) + w2[:, -1][:, None, :]
        predicted = (z[..., 0] > 0.0) if o == 1 else np.argmax(z, axis=2)
        misses = np.sum(predicted != y[None, :], axis=1)
        total += float(np.sum(np.cos(np.pi * misses / (2 * len(y))) ** 2))
    return total / points


class PqmProbe(Workload):
    """`qnnae pqm --circuit --shots` on random memories, plus the many-shot n=2 case."""

    name = "pqm_probe"

    def __init__(self, workdir: Path, seed: int,
                 widths: Tuple[Tuple[int, int], ...] = ((6, 16), (8, 8), (10, 1)),
                 patterns: int = 64, circuit_shots: int = 20, small_shots: int = 20000):
        rng = np.random.default_rng([seed, 3])
        self.calls, self.expected = [], []  # expected: (p0, shots, circuit)
        for width, probes in widths:
            memory = [_bit_string(rng, width) for _ in range(patterns)]
            path = workdir / f"memory{width}.txt"
            path.write_text("\n".join(memory) + "\n", encoding="utf-8")
            for _ in range(probes):
                probe = _bit_string(rng, width)
                self.calls.append(Call(("pqm", str(path), probe, "--circuit",
                                        "--shots", str(circuit_shots), "--seed", str(seed))))
                self.expected.append((analytic_p0(memory, probe), circuit_shots, True))
        # criterion 3's memory: every 2-bit pattern once, probed with 00
        small = ["00", "01", "10", "11"]
        path = workdir / "memory2.txt"
        path.write_text("# all 2-bit patterns\n" + "\n".join(small) + "\n", encoding="utf-8")
        self.calls.append(Call(("pqm", str(path), "00", "--shots", str(small_shots),
                                "--seed", str(seed))))
        self.expected.append((analytic_p0(small, "00"), small_shots, False))
        self.items = len(self.calls)
        self.sizes = {"widths_probes": [list(wp) for wp in widths], "patterns": patterns,
                      "circuit_shots": circuit_shots, "n2_shots": small_shots}

    def _check(self, outputs: Sequence[CallOutput]) -> List[str]:
        problems = []
        for call, out, (p0, shots, circuit) in zip(self.calls, outputs, self.expected):
            where = f"pqm {call.argv[2]}"
            printed = _field(out.stdout, "p0")
            if not abs(printed - p0) <= PRINTED_P0_TOLERANCE:
                problems.append(f"{where}: p0={printed} but analytic p0 is {p0}")
            if circuit and not _field(out.stdout, "difference") <= CIRCUIT_TOLERANCE:
                problems.append(f"{where}: circuit difference above {CIRCUIT_TOLERANCE}")
            freq = _field(out.stdout, "freq0")
            sigma = math.sqrt(p0 * (1.0 - p0) / shots)
            if not abs(freq - p0) <= SHOT_SIGMAS * sigma + 1e-12:
                problems.append(f"{where}: freq0={freq} is beyond {SHOT_SIGMAS} sigma of {p0}")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepSampled, GridExhaustive, PqmProbe)}
