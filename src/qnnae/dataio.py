"""Dataset loading, deterministic train/validation splitting, synthetic generators.

CSV schema: UTF-8, comma separated, header `f1,...,fk,label` of unique,
non-empty column names.  Labels may be any non-empty tokens; they are mapped to
dense integers in order of first appearance and the mapping is kept on the
Dataset.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

SYNTHETIC_KINDS = ("xor", "two_gaussians", "rings")


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"
    label_names: Tuple[str, ...] = ()
    feature_names: Tuple[str, ...] = ()

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels).reshape(-1)
        # the int64 cast would drop a fraction and warn on NaN, infinity or a value past its range
        if labels.dtype.kind == "f" and not np.all(
                (np.round(labels) == labels) & (labels >= 0) & (labels < self.num_classes)):
            raise ValueError(f"labels must be whole numbers in [0, {self.num_classes})")
        self.labels = labels.astype(np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or infinity")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if not self.label_names:
            self.label_names = tuple(str(c) for c in range(self.num_classes))
        # `write_csv` writes these and `load_csv` must read back the same strings
        if len(self.label_names) != self.num_classes:
            raise ValueError(f"{len(self.label_names)} label names for {self.num_classes} classes")
        for name in self.label_names:
            if not isinstance(name, str) or not name or name != name.strip():
                raise ValueError(
                    f"label name {name!r} must be a non-empty str without surrounding whitespace"
                )
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"label name {name!r} is not UTF-8 text") from None
        if len(set(self.label_names)) != self.num_classes:
            raise ValueError(f"label names {self.label_names!r} repeat")
        if not self.feature_names:
            self.feature_names = tuple(f"f{i + 1}" for i in range(self.num_features))
        if len(self.feature_names) != self.num_features:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {self.num_features} features"
            )
        # `write_csv` heads the label column `label`
        _check_column_names((*self.feature_names, "label"))

    @property
    def num_examples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx],
            self.labels[idx],
            self.num_classes,
            self.name,
            self.label_names,
            self.feature_names,
        )


def _check_column_names(names: Sequence[str]) -> None:
    """ValueError unless every name is non-empty, prints on one line, has no
    surrounding whitespace and is used once: messages name columns, and a CSV
    header, whose cells `load_csv` strips, must read back."""
    seen = set()
    for i, name in enumerate(names, start=1):
        if not name:
            raise ValueError(f"column {i} has no name")
        if not name.isprintable():
            raise ValueError(f"column name {name!r} does not print")
        if name != name.strip():
            raise ValueError(f"column name {name!r} has surrounding whitespace")
        if name in seen:
            raise ValueError(f"repeated column name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.1
    seed: int = 0
    stratified: bool = True  # kept only for perfbench's keyword; every split is stratified

    def __post_init__(self):
        if not self.stratified:
            raise ValueError("every split is stratified; stratified=False is not supported")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0,1), got {self.train_fraction}"
            )


def open_text(path, newline=None) -> io.StringIO:
    """The UTF-8 text of `path`, split into lines as `open(path, encoding="utf-8",
    newline=newline)` would; bytes that are not UTF-8 are reported by line number.

    One leading byte-order mark is dropped before decoding, so that the
    decoder's error offsets, and the line numbers read from them, count from
    the text itself.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]  # lines end at \n, \r or \r\n, as open() splits them
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None
    return io.StringIO(text, newline=newline)


def content_lines(path) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line of `path` that has content: the text
    before any `#`, stripped, and skipped when empty.  Numbers count from 1."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def _csv_records(path, reader) -> Iterator[List[str]]:
    """The records of a `csv.reader`; a record it cannot parse (a field over
    its size limit, or a NUL character before Python 3.11) is a ValueError
    naming the file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def load_csv(path) -> Dataset:
    """Parse the documented CSV schema; malformed rows are reported by line number."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        records = _csv_records(path, reader)
        try:
            header = next(records)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: header has no `label` column")
        label_col = header.index("label")
        feature_cols = [i for i in range(len(header)) if i != label_col]
        if not feature_cols:
            raise ValueError(f"{path}: header has no feature columns")
        # a repeated `label` would also leave its copies among the features
        try:
            _check_column_names(header)
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None

        rows: List[List[float]] = []
        raw_labels: List[str] = []
        for row in records:
            if not row:
                continue
            # the file line the record ends on; a quoted field may span lines
            lineno = reader.line_num
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            values = []
            for i in feature_cols:
                try:
                    v = float(row[i])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric feature {row[i]!r} in column {header[i]}"
                    ) from None
                if not math.isfinite(v):
                    raise ValueError(
                        f"{path}:{lineno}: non-finite feature {row[i]!r} in column {header[i]}"
                    )
                values.append(v)
            label = row[label_col].strip()
            if not label:
                raise ValueError(f"{path}:{lineno}: empty label")
            rows.append(values)
            raw_labels.append(label)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    mapping: dict = {}
    labels = []
    for token in raw_labels:
        if token not in mapping:
            mapping[token] = len(mapping)
        labels.append(mapping[token])
    if len(mapping) < 2:
        raise ValueError(f"{path}: need at least 2 distinct labels")
    return Dataset(
        np.array(rows),
        np.array(labels),
        num_classes=len(mapping),
        name=str(path),
        label_names=tuple(mapping),
        feature_names=tuple(header[i] for i in feature_cols),
    )


def _csv_record(fields: Sequence[str]) -> str:
    """One CSV line ending in a newline.  A field holding a comma, a quote, a
    newline or a carriage return is quoted, its quotes doubled; csv.writer
    leaves a lone carriage return bare when lines end in a newline, and the
    reader would split the record there."""
    return ",".join(
        '"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\n\r') else f
        for f in fields
    ) + "\n"


def write_csv(ds: Dataset, path) -> None:
    """The dataset in the schema `load_csv` reads, with its own column and
    label names, quoted where they hold a comma, a quote, a newline or a
    carriage return."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_record([*ds.feature_names, "label"]))
        for row, label in zip(ds.features, ds.labels):
            fh.write(_csv_record([repr(float(v)) for v in row] + [ds.label_names[label]]))


def _train_quota(counts: np.ndarray, train_size: int) -> np.ndarray:
    """Per-class train counts by largest remainder, each class taking >= 1."""
    num_classes = counts.shape[0]
    if train_size < num_classes:
        raise ValueError(
            f"train split of {train_size} cannot cover all {num_classes} classes"
        )
    exact = counts * (train_size / counts.sum())
    quota = np.maximum(np.floor(exact).astype(np.int64), 1)
    quota = np.minimum(quota, counts)
    # settle the residual one example at a time, largest remainder first
    while quota.sum() != train_size:
        if quota.sum() < train_size:
            room = quota < counts
            frac = np.where(room, exact - quota, -np.inf)
            quota[int(np.argmax(frac))] += 1
        else:
            shrinkable = quota > 1
            frac = np.where(shrinkable, exact - quota, np.inf)
            quota[int(np.argmin(frac))] -= 1
    return quota


def split(ds: Dataset, spec: SplitSpec) -> Tuple[Dataset, Dataset]:
    """Deterministic stratified partition; both parts preserve original row order."""
    n = ds.num_examples
    train_size = int(round(spec.train_fraction * n))
    if train_size < 1 or train_size >= n:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty split for {n} rows"
        )
    rng = np.random.default_rng(spec.seed)
    classes, counts = np.unique(ds.labels, return_counts=True)
    quota = _train_quota(counts, train_size)
    train_idx: List[int] = []
    for cls, take in zip(classes, quota):
        members = np.flatnonzero(ds.labels == cls)
        chosen = rng.choice(members, size=int(take), replace=False)
        train_idx.extend(int(i) for i in chosen)
    mask = np.zeros(n, dtype=bool)
    mask[train_idx] = True
    return ds.subset(np.flatnonzero(mask)), ds.subset(np.flatnonzero(~mask))


def make_synthetic(kind: str, n: int, noise: float = 0.2, seed: int = 0) -> Dataset:
    """Balanced 2-D two-class dataset; deterministic per seed."""
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"kind must be one of {SYNTHETIC_KINDS}, got {kind!r}")
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    which = np.arange(n) % (4 if kind == "xor" else 2)
    if kind == "xor":
        corners = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        features = corners[which]
        labels = np.array([0, 1, 1, 0])[which]  # x XOR y of each corner
    elif kind == "two_gaussians":
        features = np.array([(-1.0, 0.0), (1.0, 0.0)])[which]
        labels = which
    else:  # rings
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.array([1.0, 2.0])[which]
        features = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
        labels = which
    features += rng.normal(0.0, noise, size=(n, 2))
    name = f"{kind}(n={n},noise={noise},seed={seed})"
    return Dataset(features, labels, num_classes=2, name=name)
