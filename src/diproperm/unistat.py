"""Univariate two-sample statistics on projection scores.

All statistics take absolute values, so the permutation test built on
them is two-sided by construction.  Each reduces along the last axis: a
vector gives a numpy float, each row of a stack its own call's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import LabeledDataset
from .direction import Direction
from .errors import (
    DimensionMismatchError,
    LabelDomainError,
    SingleClassError,
    ValidationError,
    ZeroVarianceError,
)


@dataclass(eq=False)
class ProjectionScores:
    """Per-sample scalar scores x.w + beta, aligned with their -1/1 labels;
    or an (m x n) stack of such rows, all with the same class counts."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s, y = np.asarray(self.scores, dtype=np.float64), np.asarray(self.labels)
        if y.dtype.kind != "i":  # the int64 cast would make -1.9 a -1 and 1.5 a 1
            for v in y.ravel().tolist():
                if v not in (-1, 1):
                    raise LabelDomainError(v)
        y = y.astype(np.int64, copy=False)
        if s.ndim not in (1, 2) or y.shape != s.shape:
            raise DimensionMismatchError(
                f"scores {s.shape} and labels {y.shape} must be equal-length vectors or stacks"
            )
        if not np.isfinite(s).all():
            raise ValidationError("scores contain NaN or Inf")
        counts = np.array([(y == -1).sum(axis=-1), (y == 1).sum(axis=-1)]).reshape(2, -1)
        if counts.sum() != y.size:  # a label neither -1 nor 1
            raise LabelDomainError(int(y[(y != -1) & (y != 1)][0]))
        if not (counts.size and counts.all()):
            raise SingleClassError("projection scores must cover both classes")
        if (counts.T != counts[:, 0]).any():  # split() reshapes by row
            raise DimensionMismatchError("every row of a stack must have the same class counts")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", y)

    def row(self, i: int) -> ProjectionScores:
        """Row i of a stack, as views; not re-checked, as the stack was."""
        ps = object.__new__(ProjectionScores)
        ps.scores, ps.labels = self.scores[i], self.labels[i]
        return ps

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(negative-class scores, positive-class scores); (m x n-, m x n+) for a stack."""
        rows = self.scores.shape[:-1]
        return tuple(self.scores[self.labels == c].reshape(*rows, -1) for c in (-1, 1))


def project(ds: LabeledDataset, direction: Direction) -> ProjectionScores:
    """Project every sample onto the direction: score_i = x_i . w + beta.

    On the features array a DWD direction was fit to, these are the fit's
    own scores from its row-space solution, as diproperm() scores it.
    """
    if direction.w.shape[0] != ds.n_features:
        raise DimensionMismatchError(
            f"direction has length {direction.w.shape[0]}, data has "
            f"{ds.n_features} features"
        )
    fit = direction._fit
    if fit is not None and fit[0] is ds.features:
        return ProjectionScores(fit[1], ds.labels)
    return ProjectionScores(ds.features @ direction.w + direction.beta, ds.labels)


def stat_md(ps: ProjectionScores) -> float | np.ndarray:
    """Absolute difference of class means."""
    neg, pos = ps.split()
    return np.abs(pos.mean(axis=-1) - neg.mean(axis=-1))


def stat_t(ps: ProjectionScores) -> float | np.ndarray:
    """Absolute two-sample t-statistic, unequal-variance (Welch) form."""
    neg, pos = ps.split()
    if min(neg.shape[-1], pos.shape[-1]) < 2:
        raise SingleClassError("t-statistic needs at least 2 samples per class")
    se2 = pos.var(axis=-1, ddof=1) / pos.shape[-1] + neg.var(axis=-1, ddof=1) / neg.shape[-1]
    if (se2 <= 0.0).any():  # in any row of a stack
        raise ZeroVarianceError("both classes have zero spread")
    return np.abs(pos.mean(axis=-1) - neg.mean(axis=-1)) / np.sqrt(se2)


def stat_med(ps: ProjectionScores) -> float | np.ndarray:
    """Absolute difference of class medians (midpoint rule for even counts)."""
    neg, pos = ps.split()
    return np.abs(np.median(pos, axis=-1) - np.median(neg, axis=-1))


STATISTICS: dict[str, Callable[[ProjectionScores], float | np.ndarray]] = {
    "md": stat_md,
    "t": stat_t,
    "med": stat_med,
}
