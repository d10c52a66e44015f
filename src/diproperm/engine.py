"""Full direction-projection-permutation test orchestration.

Fits the observed direction, re-fits the classifier on B permuted
relabelings, and summarizes the permutation null distribution with a
p-value, z-score, and empirical critical value.  The permutation indices
1..B run in at most `workers` contiguous blocks of at least _MIN_BLOCK
re-fits (or one block); the caller runs the first, a process pool the
rest.  Each block is relabeled whole, its DWD fits run as one lockstep
batch of Newton solves (direction._dwd_batch, each row bit-identical to a
single fit; the observed labels are row 0 of block 1's batch), then its
rows scored in index order, keeping the scores of its first minimum and
maximum statistic for the run's extreme records.
Every permutation b draws from its own (seed, b) stream, so the answer
does not depend on the worker count.

Null hypothesis: the two classes are draws from one distribution; it is
rejected when the observed projected separation is extreme against the
re-fit permutation distribution.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import LabeledDataset
from .direction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Direction,
    DwdModel,
    Loading,
    _dwd_batch,
    _factor,
    _md_arrays,
    loadings_of,
    penalty_parameter,
)
from .errors import EmptyError, NonConvergedError, ValidationError, ZeroVarianceError
from .permute import PermutationPlan, derive_stream, half_split_fits, permute_labels
from .unistat import STATISTICS, ProjectionScores

log = logging.getLogger(__name__)

CLASSIFIERS = ("dwd", "md")
SCORE_PANELS = ("obs", "min", "max", "perm1", "perm2")
PANELS = SCORE_PANELS + ("permdist",)


@dataclass(frozen=True)
class TestConfig:
    """Everything needed to reproduce a run (with the same data).

    Validated on construction: an instance always describes a run that
    diproperm() accepts.  Scheme, B and seed are checked by the
    PermutationPlan they make up.
    """

    classifier: str
    statistic: str
    scheme: str
    B: int
    seed: int
    alpha: float

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ValidationError(f"classifier must be one of {CLASSIFIERS}, got {self.classifier!r}")
        if self.statistic not in STATISTICS:
            raise ValidationError(f"statistic must be one of {tuple(STATISTICS)}, got {self.statistic!r}")
        PermutationPlan(self.scheme, self.B, self.seed)
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
    config: TestConfig
    observed_direction: Direction
    observed_scores: ProjectionScores
    observed_statistic: float
    perm_statistics: np.ndarray
    records: dict[int, PermutationRecord]
    p_value: float
    z_score: float
    cutoff: float
    observed_model: DwdModel | None = None
    feature_names: tuple[str, ...] | None = None

    @property
    def loadings(self) -> list[Loading]:
        """All variable loadings of the observed direction, sorted by
        |value| descending (see loadings_of); computed on each access."""
        return loadings_of(self.observed_direction, names=self.feature_names)

    @property
    def min_index(self) -> int:
        """1-based index of the permutation with the smallest statistic."""
        return int(np.argmin(self.perm_statistics)) + 1

    @property
    def max_index(self) -> int:
        return int(np.argmax(self.perm_statistics)) + 1

    def panel_index(self, panel: str) -> int:
        return {"perm1": 1, "perm2": 2, "min": self.min_index,
                "max": self.max_index}[panel]

    def record_for_panel(self, panel: str) -> PermutationRecord | None:
        """The retained record backing a score panel, or None if dropped."""
        return self.records.get(self.panel_index(panel))


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
    if sd <= 0.0:
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


# Permutations whose scores are always kept: the perm1/perm2 panels.
_KEEP_SCORES_UPTO = 2

# Fewest re-fits a block needs to pay for a worker process (fork, pickled
# run state, BLAS thread wake-up): on 2 cores two blocks of 75 DWD re-fits
# tied with one process, two of 100 won (mushrooms50 and 60 x 5000).
_MIN_BLOCK = 100


def _fit_and_score(X, labels, config, C, factors, tol, max_iter):
    """(direction, DWD model, scores, statistic) for each label vector in
    `labels`, in order.  DWD fits them as one lockstep batch and hands
    them out one at a time, so each is scored before the next w is formed."""
    if config.classifier == "md":
        fits = ((_md_arrays(X, y), None) for y in labels)
    else:
        fits = ((m.direction, m)
                for m in _dwd_batch(X, np.array(labels), factors, C, tol, max_iter))
    for y, (direction, model) in zip(labels, fits):
        ps = ProjectionScores(X @ direction.w + direction.beta, y)
        yield direction, model, ps, STATISTICS[config.statistic](ps)


def _permutations(state, indices, keep: bool, observed: bool = False):
    """The observed fit if `observed` (else None), the statistic, scores
    and solver iterations of each permutation of one block, in index
    order, and the block's wall time.  Scores are kept if `keep`, for
    perm1/perm2, and for the block's first minimum and maximum.

    Pure in (state, indices); `state` is the run's (X, y, config, C,
    factors, tol, max_iter).  The block is relabeled at once and fit as
    one batch, the observed labels y first if `observed`; a failing
    observed fit raises as it is, a failing re-fit aborts at the lowest
    failing index.
    """
    X, y, config, *fit_args = state
    t0 = time.perf_counter()
    labels = [permute_labels(y, config.scheme, derive_stream(config.seed, b))
              for b in indices]
    fits = _fit_and_score(X, ([y] if observed else []) + labels, config, *fit_args)
    first = next(fits) if observed else None
    outputs, lo, hi = [], None, None
    for i, b in enumerate(indices):
        try:
            _, model, ps, stat = next(fits)
        except NonConvergedError as err:
            raise NonConvergedError(
                err.iterations, err.kkt_residual, model=err.model, perm_index=b
            ) from None
        outputs.append((stat, ps if keep or b <= _KEEP_SCORES_UPTO else None,
                        model.iterations if model else 0))
        lo = lo if lo and lo[0] <= stat else (stat, ps, i)  # first minimum
        hi = hi if hi and hi[0] >= stat else (stat, ps, i)  # first maximum
    for stat, ps, i in (lo, hi):
        outputs[i] = stat, ps, outputs[i][2]
    return first, outputs, time.perf_counter() - t0


def diproperm(ds: LabeledDataset, plan: PermutationPlan | None = None,
              classifier: str = "dwd", statistic: str = "md",
              alpha: float = 0.05, workers: int | None = None,
              retain_all: bool = False, dwd_tol: float = DEFAULT_TOL,
              dwd_max_iter: int = DEFAULT_MAX_ITER) -> DppResult:
    """Run the full test and assemble a DppResult.

    The DWD penalty C is computed once from the observed data and reused
    for every permutation re-fit.  `workers` is an upper bound (default:
    the usable cores, per the CPU affinity mask): 1..B is split into
    max(1, min(workers, B // _MIN_BLOCK)) contiguous blocks, so blocks of
    fewer than _MIN_BLOCK re-fits are not forked; this process runs the
    first block and a pool the rest.  Each block's DWD re-fits are one
    lockstep batch whose rows are bit-identical to single fits; the
    observed fit is row 0 of block 1's batch, so the DEBUG wall time of
    block 1 includes it.  Every permutation b draws from its own (seed, b)
    stream, so results are bit-identical for any worker count.  A
    NonConvergedError on the observed fit has no perm_index; on any
    re-fit it aborts the run with the lowest failing permutation index;
    no permutation is silently dropped.
    """
    plan = plan or PermutationPlan()
    config = TestConfig(classifier, statistic, plan.scheme, plan.B,
                        plan.seed, alpha)
    if workers is None:  # the cores this process may run on
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")

    if config.scheme == "balanced" and not half_split_fits(*ds.class_counts()):
        log.warning(
            "balanced half-and-half draw infeasible for class sizes "
            "(%d, %d); using the composition-matched relabeling",
            *ds.class_counts(),
        )
    C = penalty_parameter(ds) if classifier == "dwd" else None
    factors = _factor(ds.features) if classifier == "dwd" else None
    state = (ds.features, ds.labels, config, C, factors, dwd_tol, dwd_max_iter)

    # contiguous blocks of indices in index order, each worth a process;
    # block 1 fits the observed labels too, in the same batch
    n_blocks = max(1, min(workers, config.B // _MIN_BLOCK))
    bounds = [1 + k * config.B // n_blocks for k in range(n_blocks + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    run = partial(_permutations, state, keep=retain_all)
    if n_blocks == 1:  # in this process: no process start, no state pickle
        block_outputs = [run(blocks[0], observed=True)]
    else:  # this process runs the first block while the pool runs the rest
        with ProcessPoolExecutor(max_workers=n_blocks - 1) as pool:
            rest = [pool.submit(run, block) for block in blocks[1:]]
            block_outputs = [run(blocks[0], observed=True)] + [f.result() for f in rest]
    (observed_direction, observed_model, observed_scores,
     observed_statistic) = block_outputs[0][0]
    outputs = [out for _, block, _ in block_outputs for out in block]

    perm_statistics = np.array([o[0] for o in outputs], dtype=np.float64)
    perm_statistics.setflags(write=False)

    # retain diagnostics records: first, second, extremes (or everything);
    # each global extreme is its block's first one, whose scores it kept
    wanted = (range(1, config.B + 1) if retain_all else
              sorted({*range(1, _KEEP_SCORES_UPTO + 1),
                      int(np.argmin(perm_statistics)) + 1,
                      int(np.argmax(perm_statistics)) + 1}))
    records = {b: PermutationRecord(b, outputs[b - 1][1].labels, outputs[b - 1][1],
                                    outputs[b - 1][0]) for b in wanted}

    if log.isEnabledFor(logging.DEBUG):
        for block, (*_, seconds) in zip(blocks, block_outputs):
            log.debug("perms %d-%d: relabeled, re-fit and scored in %.4fs",
                      block[0], block[-1], seconds)
        for b, (stat_b, _, iters) in enumerate(outputs, start=1):
            log.debug("perm %d: statistic=%.6g iterations=%d", b, stat_b, iters)
    iter_total = sum(o[2] for o in outputs)
    log.info(
        "ran B=%d permutations (%s/%s, scheme=%s): solver iterations "
        "total=%d, statistic range [%.4g, %.4g]",
        config.B, classifier, statistic, config.scheme, iter_total,
        perm_statistics.min(), perm_statistics.max(),
    )

    try:
        z = z_score(perm_statistics, observed_statistic)
    except ZeroVarianceError:
        z = math.nan  # degenerate null (constant permutation statistics)

    return DppResult(
        config=config,
        observed_direction=observed_direction,
        observed_scores=observed_scores,
        observed_statistic=observed_statistic,
        perm_statistics=perm_statistics,
        records=records,
        p_value=p_value(perm_statistics, observed_statistic),
        z_score=z,
        cutoff=cutoff(perm_statistics, alpha),
        observed_model=observed_model,
        feature_names=ds.feature_names,
    )
