"""Univariate two-sample statistics on projection scores.

All statistics take absolute values, so the permutation test built on
them is two-sided by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import LabeledDataset
from .direction import Direction
from .errors import DimensionMismatchError, SingleClassError, ValidationError, ZeroVarianceError


@dataclass(eq=False)
class ProjectionScores:
    """Per-sample scalar scores x.w + beta, aligned with their labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if s.ndim != 1 or y.shape != s.shape:
            raise DimensionMismatchError(
                f"scores {s.shape} and labels {y.shape} must be equal-length vectors"
            )
        if not np.isfinite(s).all():
            raise ValidationError("scores contain NaN or Inf")
        if not ((y == -1).any() and (y == 1).any()):
            raise SingleClassError("projection scores must cover both classes")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", y)

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(negative-class scores, positive-class scores)."""
        return self.scores[self.labels == -1], self.scores[self.labels == 1]


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


def stat_md(ps: ProjectionScores) -> float:
    """Absolute difference of class means."""
    neg, pos = ps.split()
    return abs(float(pos.mean() - neg.mean()))


def stat_t(ps: ProjectionScores) -> float:
    """Absolute two-sample t-statistic, unequal-variance (Welch) form."""
    neg, pos = ps.split()
    if len(neg) < 2 or len(pos) < 2:
        raise SingleClassError("t-statistic needs at least 2 samples per class")
    se2 = pos.var(ddof=1) / len(pos) + neg.var(ddof=1) / len(neg)
    if se2 <= 0.0:
        raise ZeroVarianceError("both classes have zero spread")
    return abs(float(pos.mean() - neg.mean())) / math.sqrt(se2)


def stat_med(ps: ProjectionScores) -> float:
    """Absolute difference of class medians (midpoint rule for even counts)."""
    neg, pos = ps.split()
    return abs(float(np.median(pos) - np.median(neg)))


STATISTICS: dict[str, Callable[[ProjectionScores], float]] = {
    "md": stat_md,
    "t": stat_t,
    "med": stat_med,
}
