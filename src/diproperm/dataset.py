"""Labeled data container and disk formats.

Two on-disk formats are supported: dense CSV (one sample per row,
optional single header row) and the common sparse ML interchange format
("<label> <index>:<value> ..." with 1-based indices).  Labels live either
in a column of the dense file, in a separate labels-only file, or at the
front of each sparse line, and must be coded -1/1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    DatasetEmptyError,
    LabelDomainError,
    NonMonotoneIndexError,
    ParseError,
    RaggedRowsError,
    SingleClassError,
    ValidationError,
)

_LABEL_TOKENS = {"-1": -1, "1": 1, "+1": 1}


@dataclass(eq=False)
class LabeledDataset:
    """n x p feature matrix with per-sample class labels in {-1, +1}.

    Instances are immutable after construction (the arrays are marked
    read-only) and safe to share across threads/processes.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        y = np.asarray(self.labels)
        if X.ndim != 2:
            raise ValidationError(f"features must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValidationError(
                f"labels must be a length-{X.shape[0]} vector, got shape {y.shape}"
            )
        if not np.isfinite(X).all():
            raise ValidationError("features contain NaN or Inf entries")
        bad = np.setdiff1d(np.unique(y), [-1, 1])
        if bad.size:
            raise LabelDomainError(bad[0])
        y = np.ascontiguousarray(y, dtype=np.int64)
        if not ((y == -1).any() and (y == 1).any()):
            raise SingleClassError("labels must contain at least one -1 and one +1")
        if X.shape[0] < 4:
            raise ValidationError(f"need at least 4 samples, got {X.shape[0]}")
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != X.shape[1]:
                raise ValidationError(
                    f"feature_names has length {len(names)}, expected {X.shape[1]}"
                )
            object.__setattr__(self, "feature_names", names)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        """Feature names, defaulting to V1..Vp."""
        if self.feature_names is not None:
            return self.feature_names
        return tuple(f"V{j + 1}" for j in range(self.n_features))

    def class_counts(self) -> tuple[int, int]:
        """(#negative, #positive)."""
        return int((self.labels == -1).sum()), int((self.labels == 1).sum())

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and self.feature_names == other.feature_names
        )


def _parse_label(token: str, row: int | None = None):
    tok = token.strip()
    if tok in _LABEL_TOKENS:
        return _LABEL_TOKENS[tok]
    raise LabelDomainError(tok, row)


def load_labels(path) -> np.ndarray:
    """Read a labels-only file: one token per line, or one comma-separated row."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    labels = [_parse_label(t, row=lineno)
              for lineno, line in enumerate(text.splitlines(), start=1)
              for t in line.split(",") if t.strip()]
    if not labels:
        raise DatasetEmptyError(f"no labels in {path}")
    return np.array(labels, dtype=np.int64)


def load_dense(path, has_header: bool = False, label_column=None,
               labels_path=None) -> LabeledDataset:
    """Load a dense CSV data set.

    Labels come from `label_column` (a header name or 0-based column
    index) or from the separate file `labels_path`; exactly one of the
    two must be given.
    """
    if (label_column is None) == (labels_path is None):
        raise ValidationError("give exactly one of label_column or labels_path")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise DatasetEmptyError(f"{path} is empty")

    header = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DatasetEmptyError(f"{path} has a header but no data rows")

    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise RaggedRowsError(
                f"row has {len(r)} columns, expected {width}", row=i + 1
            )

    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str) and not label_column.lstrip("-").isdigit():
            if header is None or label_column not in header:
                raise ValidationError(f"label column {label_column!r} not in header")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise ValidationError(f"label column index {label_idx} out of range")

    data = np.empty((len(rows), width - (label_idx is not None)), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64) if label_idx is not None else None
    for i, r in enumerate(rows):
        j_out = 0
        for j, tok in enumerate(r):
            if j == label_idx:
                labels[i] = _parse_label(tok, row=i + 1)
                continue
            try:
                data[i, j_out] = float(tok)
            except ValueError:
                raise ParseError(
                    f"cannot parse {tok!r} as a real number", row=i + 1, col=j + 1
                ) from None
            j_out += 1

    if labels is None:
        labels = load_labels(labels_path)
        if labels.shape[0] != data.shape[0]:
            raise ValidationError(
                f"{labels.shape[0]} labels for {data.shape[0]} samples"
            )

    names = None
    if header is not None:
        names = tuple(h for j, h in enumerate(header) if j != label_idx)
    return LabeledDataset(data, labels, names)


def load_sparse(path, n_features: int | None = None,
                feature_names=None) -> LabeledDataset:
    """Load a sparse-format file ("<label> <idx>:<val> ...", 1-based indices).

    Indices must be strictly increasing within a line.  The width defaults
    to the largest index seen; pass `n_features` when trailing columns are
    all-zero in this particular file.
    """
    samples = []  # (label, [(idx, val), ...])
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            label = _parse_label(parts[0], row=lineno)
            prev = 0
            entries = []
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(
                        f"bad sparse entry {tok!r}", row=lineno
                    ) from None
                if idx <= prev:
                    raise NonMonotoneIndexError(
                        f"index {idx} after {prev}: indices must be strictly "
                        "increasing and 1-based", row=lineno
                    )
                prev = idx
                entries.append((idx, val))
            max_idx = max(max_idx, prev)
            samples.append((label, entries))

    if not samples:
        raise DatasetEmptyError(f"{path} is empty")
    p = n_features if n_features is not None else max_idx
    if p < max_idx:
        raise ValidationError(f"n_features={p} smaller than max index {max_idx}")
    X = np.zeros((len(samples), p), dtype=np.float64)
    y = np.empty(len(samples), dtype=np.int64)
    for i, (label, entries) in enumerate(samples):
        y[i] = label
        for idx, val in entries:
            X[i, idx - 1] = val
    return LabeledDataset(X, y, feature_names)


def write_dense(ds: LabeledDataset, path) -> None:
    """Write features as CSV using shortest round-trip float formatting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in ds.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_labels(ds: LabeledDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in ds.labels:
            fh.write(f"{int(v)}\n")


def write_sparse(ds: LabeledDataset, path) -> None:
    """Write the sparse format; zero entries are omitted."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(ds.features, ds.labels):
            nz = np.flatnonzero(row)
            entries = " ".join(f"{j + 1}:{repr(float(row[j]))}" for j in nz)
            fh.write(f"{int(label)}" + (" " + entries if entries else "") + "\n")


def subset_rows(ds: LabeledDataset, rows) -> LabeledDataset:
    """Row-slice a dataset; the result must still satisfy all invariants."""
    idx = np.asarray(rows, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= ds.n_samples):
        raise IndexError(f"row index out of range 0..{ds.n_samples - 1}")
    if np.unique(idx).size != idx.size:
        raise IndexError("duplicate row indices")
    return LabeledDataset(ds.features[idx], ds.labels[idx], ds.feature_names)


def mushrooms50() -> LabeledDataset:
    """The bundled 50-sample, 112-feature mushroom edibility subset.

    Binary attribute dummies of the first 50 records of the classic
    gilled-mushroom data; poisonous = +1 (12 samples), edible = -1 (38).
    The file's largest populated column is 111, so the full width of 112
    is passed explicitly along with the attribute=value names sidecar.
    """
    pkg = resources.files("diproperm") / "data"
    names = tuple(
        (pkg / "mushrooms50_names.txt").read_text(encoding="utf-8").split()
    )
    with resources.as_file(pkg / "mushrooms50.svm") as fp:
        return load_sparse(fp, n_features=len(names), feature_names=names)


def synthetic_blobs(n_samples: int = 100, n_features: int = 2,
                    center_distance: float = 6.0, cluster_std: float = 2.0,
                    seed: int = 0) -> LabeledDataset:
    """Two spherical Gaussian clusters with labels -1/+1.

    Centers sit at +-center_distance/2 along the first axis; samples are
    split as evenly as possible between the clusters.
    """
    if n_samples < 4 or n_features < 1:
        raise ValidationError("need n_samples >= 4 and n_features >= 1")
    rng = np.random.default_rng(seed)
    n_neg = n_samples // 2
    X = rng.normal(scale=cluster_std, size=(n_samples, n_features))
    X[:n_neg, 0] -= center_distance / 2.0
    X[n_neg:, 0] += center_distance / 2.0
    y = np.concatenate([np.full(n_neg, -1), np.full(n_samples - n_neg, 1)])
    return LabeledDataset(X, y)
