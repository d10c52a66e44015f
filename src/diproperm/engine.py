"""Full direction-projection-permutation test orchestration.

Fits the observed direction, re-fits the classifier on B permuted
relabelings (in parallel across a worker pool), and summarizes the
permutation null distribution with a p-value, z-score, and empirical
critical value.

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
    _dwd_arrays,
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
    loadings: list[Loading]
    perm_statistics: np.ndarray
    records: dict[int, PermutationRecord]
    p_value: float
    z_score: float
    cutoff: float
    observed_model: DwdModel | None = None
    feature_names: tuple[str, ...] | None = None

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

# Worker-side run state (X, y, config, C, tol, max_iter), installed once
# per process by _init_state.
_STATE: tuple = ()


def _init_state(*state):
    global _STATE
    _STATE = state


def _fit_and_score(X, y, config, C, tol, max_iter):
    """Direction (and DWD model) fit to labels y, its scores and statistic."""
    if config.classifier == "md":
        direction, model = _md_arrays(X, y), None
    else:
        model = _dwd_arrays(X, y, C, tol, max_iter)
        direction = model.direction
    ps = ProjectionScores(X @ direction.w + direction.beta, y)
    return direction, model, ps, STATISTICS[config.statistic](ps)


def _one_permutation(b: int, keep: bool = False):
    """Stat (and, if kept, scores) for permutation b; pure in (state, b)."""
    X, y, config, C, tol, max_iter = _STATE
    t0 = time.perf_counter()
    perm_y = permute_labels(y, config.scheme, derive_stream(config.seed, b))
    try:
        _, model, ps, stat = _fit_and_score(X, perm_y, config, C, tol, max_iter)
    except NonConvergedError as err:
        raise NonConvergedError(
            err.iterations, err.kkt_residual, model=err.model, perm_index=b
        ) from None
    telemetry = (model.iterations if model else 0, time.perf_counter() - t0)
    return stat, ps if keep or b <= _KEEP_SCORES_UPTO else None, telemetry


def diproperm(ds: LabeledDataset, plan: PermutationPlan | None = None,
              classifier: str = "dwd", statistic: str = "md",
              alpha: float = 0.05, workers: int | None = None,
              retain_all: bool = False, dwd_tol: float = DEFAULT_TOL,
              dwd_max_iter: int = DEFAULT_MAX_ITER) -> DppResult:
    """Run the full test and assemble a DppResult.

    The DWD penalty C is computed once from the observed data and reused
    for every permutation re-fit.  Permutations run on `workers`
    processes (default: the usable cores, per the CPU affinity mask);
    results are bit-identical for any worker count because each
    permutation derives its own stream.
    A NonConvergedError on any re-fit aborts the run with that
    permutation's index; no permutation is silently dropped.
    """
    plan = plan or PermutationPlan()
    config = TestConfig(classifier, statistic, plan.scheme, plan.B,
                        plan.seed, alpha)
    if workers is None:  # the cores this process may run on
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")

    if config.scheme == "balanced" and not half_split_fits(*ds.class_counts()):
        log.warning(
            "balanced half-and-half draw infeasible for class sizes "
            "(%d, %d); using the composition-matched relabeling",
            *ds.class_counts(),
        )
    C = penalty_parameter(ds) if classifier == "dwd" else None
    state = (ds.features, ds.labels, config, C, dwd_tol, dwd_max_iter)
    (observed_direction, observed_model, observed_scores,
     observed_statistic) = _fit_and_score(*state)
    loadings = loadings_of(observed_direction, ds.n_features, ds.feature_names)

    _init_state(*state)
    run = partial(_one_permutation, keep=retain_all)
    indices = range(1, config.B + 1)
    if workers == 1 or config.B == 1:
        outputs = [run(b) for b in indices]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_state, initargs=state
        ) as pool:
            chunk = max(1, config.B // (workers * 4))
            outputs = list(pool.map(run, indices, chunksize=chunk))

    perm_statistics = np.array([o[0] for o in outputs], dtype=np.float64)
    perm_statistics.setflags(write=False)
    if log.isEnabledFor(logging.DEBUG):
        for b, out in enumerate(outputs, start=1):
            iters, seconds = out[2]
            log.debug(
                "perm %d: statistic=%.6g iterations=%d time=%.4fs",
                b, out[0], iters, seconds,
            )
    iter_total = sum(o[2][0] for o in outputs)
    log.info(
        "ran B=%d permutations (%s/%s, scheme=%s): solver iterations "
        "total=%d, statistic range [%.4g, %.4g]",
        config.B, classifier, statistic, config.scheme, iter_total,
        perm_statistics.min(), perm_statistics.max(),
    )

    # retain diagnostics records: first, second, extremes (or everything);
    # extreme permutations are recomputed from their streams, so no
    # per-permutation scores need to be held for the whole run
    wanted = {*range(1, min(_KEEP_SCORES_UPTO, config.B) + 1),
              int(np.argmin(perm_statistics)) + 1,
              int(np.argmax(perm_statistics)) + 1}
    records: dict[int, PermutationRecord] = {}
    for b in (indices if retain_all else sorted(wanted)):
        stat_b, scores = outputs[b - 1][:2]
        if scores is None:
            stat_b, scores = _one_permutation(b, keep=True)[:2]
        records[b] = PermutationRecord(b, scores.labels, scores, stat_b)

    try:
        z = z_score(perm_statistics, observed_statistic)
    except (ZeroVarianceError, EmptyError):
        z = math.nan  # degenerate null (constant permutation statistics)

    return DppResult(
        config=config,
        observed_direction=observed_direction,
        observed_scores=observed_scores,
        observed_statistic=observed_statistic,
        loadings=loadings,
        perm_statistics=perm_statistics,
        records=records,
        p_value=p_value(perm_statistics, observed_statistic),
        z_score=z,
        cutoff=cutoff(perm_statistics, alpha),
        observed_model=observed_model,
        feature_names=ds.feature_names,
    )
