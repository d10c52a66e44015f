"""Full direction-projection-permutation test orchestration.

Fits the classifier to the observed labels and to B permuted relabelings,
and summarizes the permutation null distribution with a p-value, z-score,
and empirical critical value.  A run's fits are numbered 0..B, 0 the
observed labels and the first row of block 1; they run in at most
`workers` contiguous blocks of at least _MIN_BLOCK re-fits (or one
block), the calling thread running the first, a thread pool the rest.
Each block is relabeled in one pass (permute.relabel_block, each row
bit-identical to permute_labels with derive_stream's stream), fit as one
batch by the run's direction._fitter (each row a single fit's bits) and
scored at once.  Only permutation 0 forms a Direction (and for DWD its
w), and a failed fit for its error.  A block returns arrays, which the
run concatenates once.  Every permutation b >= 1 draws from its own
(seed, b) stream, so the answer does not depend on the worker count.

Null hypothesis: the two classes are draws from one distribution; it is
rejected when the observed projected separation is extreme against the
re-fit permutation distribution.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from types import MappingProxyType

import numpy as np

from .dataset import LabeledDataset
from .direction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Direction,
    DwdModel,
    Loading,
    _check_stopping,
    _fitter,
    loadings_of,
)
from .errors import (
    DppError,
    EmptyError,
    ValidationError,
    ZeroVarianceError,
    is_integer,
)
from .permute import PermutationPlan, half_split_fits, relabel_block
from .unistat import STATISTICS, ProjectionScores

log = logging.getLogger(__name__)

CLASSIFIERS = ("dwd", "md")


@dataclass(frozen=True)
class TestConfig:
    """Everything needed to reproduce a run (with the same data).

    Validated on construction: an instance always describes a run that
    diproperm() accepts.  Scheme, B and seed are checked by the
    PermutationPlan they make up, the DWD stopping rule dwd_tol and
    dwd_max_iter (which md runs ignore) as every DWD fit checks it.
    """

    classifier: str
    statistic: str
    scheme: str
    B: int
    seed: int
    alpha: float
    dwd_tol: float
    dwd_max_iter: int

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ValidationError(f"classifier must be one of {CLASSIFIERS}, got {self.classifier!r}")
        if self.statistic not in STATISTICS:
            raise ValidationError(f"statistic must be one of {tuple(STATISTICS)}, got {self.statistic!r}")
        PermutationPlan(self.scheme, self.B, self.seed)
        _check_stopping(self.dwd_tol, self.dwd_max_iter)
        _check_alpha(self.alpha)
        if self.alpha * self.B < 1.0:
            raise ValidationError(
                f"alpha*B = {self.alpha * self.B:.3g} < 1: too few permutations for the cutoff"
            )


@dataclass(eq=False)
class PermutationRecord:
    """One permutation's relabeling, re-fit projection scores, and statistic."""

    perm_index: int
    permuted_labels: np.ndarray
    scores: ProjectionScores
    statistic: float


@dataclass(eq=False)
class DppResult:
    """A run's answer: the rows of the sorted permutations `kept` (0, the observed labels, first)
    as one stack, and the derived rest (observed statistic, summary, loadings, records)."""

    config: TestConfig
    observed_direction: Direction
    perm_statistics: np.ndarray
    kept: np.ndarray
    kept_scores: ProjectionScores
    observed_model: DwdModel | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        k, rows, B = self.kept, self.kept_scores.scores, self.config.B
        if not (self.perm_statistics.shape == (B,) and rows.ndim == 2 and k.shape == rows.shape[:1]
                and k[0] == 0 and (np.diff(k) > 0).all() and k[-1] <= B):
            raise ValidationError(f"a result holds B={B} permutation statistics and kept rows "
                                  f"0 < ... <= B, one per row of kept_scores")
        for a in (self.perm_statistics, k, rows, self.kept_scores.labels):
            a.setflags(write=False)  # so no view of them can edit the result

    def __reduce__(self):  # pickle through __init__, so the arrays come back read-only
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def observed_scores(self) -> ProjectionScores:
        return self.kept_scores.row(0)

    @property
    def records(self) -> MappingProxyType:
        """The kept b >= 1 as a read-only {b: PermutationRecord} view, made on each access."""
        stats, rows = self.perm_statistics, map(self.kept_scores.row, range(self.kept.size))
        return MappingProxyType({b: PermutationRecord(b, ps.labels, ps, float(stats[b - 1]))
                                 for b, ps in zip(self.kept.tolist(), rows) if b})

    @property
    def loadings(self) -> list[Loading]:
        """All loadings of the observed direction by |value| descending (loadings_of)."""
        return loadings_of(self.observed_direction, names=self.feature_names)

    @property
    def observed_statistic(self) -> float:
        return float(STATISTICS[self.config.statistic](self.observed_scores))

    @property
    def p_value(self) -> float:
        return p_value(self.perm_statistics, self.observed_statistic)

    @property
    def z_score(self) -> float:  # nan for a constant null
        try:
            return z_score(self.perm_statistics, self.observed_statistic)
        except ZeroVarianceError:
            return math.nan

    @property
    def cutoff(self) -> float:
        return cutoff(self.perm_statistics, self.config.alpha)

    @property
    def min_index(self) -> int:
        """1-based index of the permutation with the smallest statistic."""
        return int(np.argmin(self.perm_statistics)) + 1

    @property
    def max_index(self) -> int:
        return int(np.argmax(self.perm_statistics)) + 1


def p_value(perm_stats, observed: float) -> float:
    """Proportion of permutation statistics at or above the observed one."""
    stats = np.asarray(perm_stats, dtype=np.float64)
    if stats.size == 0:
        raise EmptyError("no permutation statistics")
    return float((stats >= observed).sum()) / stats.size


def z_score(perm_stats, observed: float) -> float:
    """Observed statistic standardized against the permutation distribution."""
    stats = np.asarray(perm_stats, dtype=np.float64)
    if stats.size < 2:
        raise EmptyError("z-score needs at least 2 permutation statistics")
    sd = float(stats.std(ddof=1))
    if sd <= 0.0 or stats.min() == stats.max():  # equal values' sd may be rounding noise
        raise ZeroVarianceError("permutation statistics are constant")
    return (float(observed) - float(stats.mean())) / sd


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")


def cutoff(perm_stats, alpha: float) -> float:
    """Empirical critical value: the ceil((1-alpha)*B)-th order statistic."""
    stats = np.asarray(perm_stats, dtype=np.float64)
    if stats.size == 0:
        raise EmptyError("no permutation statistics")
    _check_alpha(alpha)
    rank = math.ceil((1.0 - alpha) * stats.size - 1e-9)
    rank = min(max(rank, 1), stats.size)
    return float(np.sort(stats)[rank - 1])


# Fewest re-fits a block needs to pay for a thread of its own.  DWD, one
# block against two threads, median wall s of 10 alternating pairs of
# fresh processes, each the median of 5 calls, and the pairs the threads
# won, in two sessions on 2 cores:
#
#   B      mushrooms50                60 x 5000 blobs
#   200    0.048 / 0.037   7/10       0.031 / 0.030   4/10
#   300    0.053 / 0.050   6/10       0.039 / 0.037   9/10
#          0.038 / 0.043   3/10       0.027 / 0.028   5/10
#   400    0.082 / 0.059   9/10       0.051 / 0.041   9/10
#          0.053 / 0.047   8/10       0.033 / 0.033   7/10
#
# An md re-fit is mostly relabeling, Python code that holds the GIL, so
# an md run never splits.
_MIN_BLOCK = {"dwd": 200, "md": math.inf}


def _permutations(y, config, fit, indices):
    """One block's columns: permutation 0's (direction, model) if the block
    holds it (else None), its rows' labels and scores as (m x n) stacks,
    their statistics and solver iterations, and its wall time.

    Pure in its arguments: the run's labels y, its TestConfig and its
    direction._fitter.  relabel_block gives index 0 y itself and any
    other b its (seed, b) stream's relabeling, in one pass; fit(labels)
    is one batch, its stack scored up to the first failed fit; only row 0
    forms a Direction.  An error carries its row's index as perm_index
    (None for 0); the lowest failing index wins, fit or statistic.
    """
    t0 = time.perf_counter()
    labels = relabel_block(y, config.scheme, config.seed, indices)
    S, iterations, k, row = fit(labels)
    first = row(0) if k and indices[0] == 0 else None
    statistic = STATISTICS[config.statistic]
    try:
        stats = statistic(ProjectionScores(S[:k], labels[:k])) if k else None
    except DppError:  # find the lowest failing row, one row at a time
        for b, s, y_b in zip(indices, S, labels[:k]):
            try:
                statistic(ProjectionScores(s, y_b))
            except DppError as err:
                err.perm_index = b or None
                raise err from None
        raise
    if k < len(S):  # row k failed, and no lower statistic did
        try:
            row(k)
        except DppError as err:
            err.perm_index = indices[k] or None
            raise
    return first, labels, S, stats, iterations, time.perf_counter() - t0


def diproperm(ds: LabeledDataset, plan: PermutationPlan | None = None,
              classifier: str = "dwd", statistic: str = "md",
              alpha: float = 0.05, workers: int | None = None,
              retain_all: bool = False, dwd_tol: float = DEFAULT_TOL,
              dwd_max_iter: int = DEFAULT_MAX_ITER) -> DppResult:
    """Run the full test and assemble a DppResult.

    The fits share one direction._fitter, whose DWD penalty C (from the
    observed labels) and factor come from one Gram matrix of the data less
    its column means (the intercept is free: a translation of X moves p
    and the statistics only by rounding); an md run forms neither.
    `workers` is an upper bound (default: the usable cores, per the CPU
    affinity mask): the fits 0..B are split into max(1, min(workers,
    B // _MIN_BLOCK[classifier])) contiguous blocks, so no block has fewer
    than its classifier's minimum of re-fits (md runs never split); the
    calling thread runs the first block and a thread pool the rest.
    Permutation 0, the observed labels, is the first row of block 1 (row
    0 of its batch), so block 1's DEBUG wall time includes it; it alone
    forms a Direction.  From the blocks, concatenated once, the run
    copies the statistics of 1..B and the rows it keeps as one stack: of
    every permutation if `retain_all`, else of 0, 1, 2 and the first
    minimum and maximum.  Each b >= 1 draws from its own (seed, b)
    stream, so results are bit-identical for any worker count.  An error
    in the observed fit has no perm_index; one in re-fitting or scoring
    permutation b (NonConvergedError, ...) aborts the run with perm_index
    the lowest failing b; no permutation is silently dropped.
    """
    plan = plan or PermutationPlan()
    config = TestConfig(classifier, statistic, plan.scheme, plan.B,
                        plan.seed, alpha, dwd_tol, dwd_max_iter)
    if workers is None:  # the cores this process may run on
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if not is_integer(workers) or workers < 1:
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")

    if config.scheme == "balanced" and not half_split_fits(*ds.class_counts()):
        log.warning(
            "balanced half-and-half draw infeasible for class sizes "
            "(%d, %d); using the composition-matched relabeling",
            *ds.class_counts(),
        )
    run = partial(_permutations, ds.labels, config,
                  _fitter(classifier, ds.features, ds.labels, dwd_tol, dwd_max_iter))

    # contiguous blocks of indices 0..B in index order, each worth a
    # thread; block 1 starts at 0, the observed labels, in the same batch
    n_blocks = max(1, min(workers, config.B // _MIN_BLOCK[classifier]))
    bounds = [min(k, 1) + k * config.B // n_blocks for k in range(n_blocks + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # the calling thread runs block 1, a pool the rest; one block starts no pool
    with ThreadPoolExecutor(n_blocks - 1) if n_blocks > 1 else nullcontext() as pool:
        rest = [pool.submit(run, block) for block in blocks[1:]]
        block_outputs = [run(blocks[0])] + [future.result() for future in rest]
    fits, labels, scores, stats, block_iterations, seconds = zip(*block_outputs)
    observed_direction, observed_model = fits[0]
    perm_statistics = np.concatenate(stats, dtype=np.float64)[1:].copy()
    iterations = np.concatenate(block_iterations)[1:]

    if log.isEnabledFor(logging.DEBUG):
        for block, block_seconds in zip(blocks, seconds):
            log.debug("perms %d-%d: relabeled, re-fit and scored in %.4fs",
                      max(block[0], 1), block[-1], block_seconds)  # 1 also fits 0
        for b, (stat_b, iters) in enumerate(zip(perm_statistics, iterations), start=1):
            log.debug("perm %d: statistic=%.6g iterations=%d", b, stat_b, iters)
    log.info(
        "ran B=%d permutations (%s/%s, scheme=%s): solver iterations "
        "total=%d, statistic range [%.4g, %.4g]",
        config.B, classifier, statistic, config.scheme, iterations.sum(),
        perm_statistics.min(), perm_statistics.max(),
    )

    kept = np.arange(config.B + 1) if retain_all else np.unique(
        [0, 1, 2, perm_statistics.argmin() + 1, perm_statistics.argmax() + 1])
    # copies, so the result does not pin the (B + 1) x n stacks
    kept_scores = ProjectionScores(np.concatenate(scores)[kept], np.concatenate(labels)[kept])
    return DppResult(config, observed_direction, perm_statistics, kept, kept_scores,
                     observed_model, ds.feature_names)
