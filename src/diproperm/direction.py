"""Separating directions: mean-difference rule and the DWD classifier.

The DWD fit minimizes sum_i V_C(y_i (x_i . w + beta)) over the Euclidean
unit ball ||w|| <= 1, where

    V_C(u) = 1/u               for u >= 1/sqrt(C)
    V_C(u) = 2 sqrt(C) - C u   for u <  1/sqrt(C)

is the slack-eliminated margin loss: convex, strictly decreasing, and
continuously differentiable at the knot.  The solver is projected
gradient descent with a spectral (Barzilai-Borwein) trial step and
monotone Armijo backtracking, stopping when the accepted step length
falls to `tol`.  It runs in coefficient space, w = Xᵀc with c in R^n,
on the Gram matrix K = X Xᵀ: K is computed once per run (relabeling
only flips signs) and an iteration costs O(n²).

Fits to m label vectors on the same X run as one lockstep batch: each
round, every unfinished row evaluates its trial point, then accepts it
or halves its own step.  Rows keep their own step sizes and iteration
counts, so each row does exactly the iterations it would do alone.  The
batch is bit-identical to single fits because every per-row reduction
is a last-axis sum, a stacked dot or a stacked K @ g product, each of
which gives a row the bits of the single-vector operation; a (m, n) @
(n, n) matrix product would not.  A single fit is a batch of one.
Memory is O(n² + np + mn): the rows' w are formed one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    DegenerateScaleError,
    NonConvergedError,
    ValidationError,
    ZeroDirectionError,
)

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 5000


@dataclass(eq=False)
class Direction:
    """Unit normal vector to a separating hyperplane, plus intercept.

    Orientation convention: projections of the +1 class average at least
    as high as those of the -1 class on the data the direction was fit to.
    """

    w: np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("w must be a nonempty vector")
        nrm = float(np.linalg.norm(w))
        if abs(nrm - 1.0) > 1e-8:
            raise ValidationError(f"w must have unit norm, got {nrm!r}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(eq=False)
class DwdModel:
    """Fitted DWD solution with solver telemetry."""

    direction: Direction
    C: float
    iterations: int
    objective: float
    kkt_residual: float
    training_error: float
    objective_trace: tuple[float, ...] = ()


class Loading(NamedTuple):
    index: int  # 1-based variable index
    value: float
    name: str | None = None


def _split_classes(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return X[y == -1], X[y == 1]


def _md_arrays(X: np.ndarray, y: np.ndarray) -> Direction:
    neg, pos = _split_classes(X, y)
    diff = pos.mean(axis=0) - neg.mean(axis=0)
    nrm = float(np.linalg.norm(diff))
    if nrm < 1e-12:
        raise ZeroDirectionError("class means coincide; mean-difference direction undefined")
    w = diff / nrm
    beta = -float(w @ ((pos.mean(axis=0) + neg.mean(axis=0)) / 2.0))
    return Direction(w, beta)  # mean difference is oriented by construction


def md_direction(ds: LabeledDataset) -> Direction:
    """Unit mean-difference direction with the midpoint intercept."""
    return _md_arrays(ds.features, ds.labels)


def penalty_parameter(ds: LabeledDataset) -> float:
    """Scale-adaptive DWD penalty: C = 100 / median between-class distance^2."""
    neg, pos = _split_classes(ds.features, ds.labels)
    sq = np.empty((len(neg), len(pos)))
    for i, a in enumerate(neg):  # one row at a time: O(n- n+ + n+ p) memory
        d = pos - a
        sq[i] = np.einsum("jk,jk->j", d, d)
    med = float(np.median(np.sqrt(sq)))
    if med < 1e-12:
        raise DegenerateScaleError("all between-class distances are ~0")
    return 100.0 / (med * med)


def _loss(u: np.ndarray, C: float, grad: bool):
    """V_C(u) elementwise, plus V_C'(u) when `grad` is set (else None)."""
    sqrt_c = math.sqrt(C)
    knot = 1.0 / sqrt_c
    recip = 1.0 / np.maximum(u, knot)
    hi = u >= knot
    value = np.where(hi, recip, 2.0 * sqrt_c - C * u)
    return value, (np.where(hi, -recip * recip, -C) if grad else None)


def dwd_loss(u, C: float):
    """Per-sample DWD margin loss V_C evaluated elementwise."""
    return _loss(np.asarray(u, dtype=np.float64), C, False)[0]


def dwd_loss_grad(u, C: float):
    """First derivative of V_C evaluated elementwise."""
    return _loss(np.asarray(u, dtype=np.float64), C, True)[1]


def _gram(X: np.ndarray) -> np.ndarray:
    """K = X Xᵀ, shared by every DWD fit on X whatever its labels; one
    product of X with itself (numpy's syrk), so every caller gets its bits."""
    return X @ X.T


def _mv(K: np.ndarray, G: np.ndarray) -> np.ndarray:
    """K @ G[i] for each row of G, as a stack of matrix-vector products:
    row i is bit-identical to K @ G[i], where the GEMM G @ K is not."""
    return np.matmul(K, G[:, :, None])[:, :, 0]


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[i] @ B[i] for each row, as a stack of dot products (bit-identical
    to each single dot, where a summed elementwise product is not)."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _dwd_batch(X: np.ndarray, Y: np.ndarray, K: np.ndarray, C: float,
               tol: float, max_iter: int, keep_trace: bool = False):
    """DWD fits of X to each row of the label stack Y (m x n), in lockstep.

    Every row runs the same iteration it would run alone, and its model is
    bit-identical to a one-row batch.  Yields the DwdModel of each row in
    row order, raising that row's ZeroDirectionError or NonConvergedError
    when its turn comes; w is formed only then, so one p-vector is alive
    at a time.
    """
    if not (np.isfinite(C) and C > 0.0):
        raise DegenerateScaleError(f"penalty C must be positive and finite, got {C!r}")
    if tol <= 0.0 or max_iter < 1:
        raise ValidationError("tol must be > 0 and max_iter >= 1")

    Yf = Y.astype(np.float64)

    # The iterates stay in the row space of X: w = Xᵀc, ||w||² = c.Kc,
    # margins u = y(Kc + beta), and the w-gradient Xᵀ(y V'(u)) has
    # coefficients g = y V'(u).  Kc and Kg are updated by linearity
    # alongside c and g.  All per-row reductions are last-axis sums,
    # stacked dots and stacked K @ g products, so each row gets the bits
    # of its single fit.
    def grad(Ya, gu):  # g = y V'(u), K g and the beta gradient
        G = Ya * gu
        return G, _mv(K, G), _dots(gu, Ya)

    # warm start from the mean-difference rule when it exists: w = Xᵀc /
    # ||Xᵀc|| for c = y / (size of y's class), class-mean midpoint at 0
    c = np.zeros_like(Yf)
    for c_i, y, yf in zip(c, Y, Yf):
        c0 = yf / np.where(y == 1, np.sum(y == 1), np.sum(y == -1))
        nrm = float(np.linalg.norm(X.T @ c0))
        if nrm >= 1e-12:  # else zero: the class means coincide
            c_i[:] = c0 / nrm
    Kc = _mv(K, c)
    beta = np.array([-0.5 * float(kc[y == 1].mean() + kc[y == -1].mean())
                     for kc, y in zip(Kc, Y)])

    v, gu = _loss(Yf * (Kc + beta[:, None]), C, True)
    f = v.sum(axis=1)
    G, KG, gb = grad(Yf, gu)
    t = 1.0 / np.maximum(1.0, np.sqrt(np.maximum(_dots(G, KG), 0.0) + gb * gb))
    traces = [[float(v)] for v in f] if keep_trace else None
    # each row's c, beta, objective, step length and iterations at its end
    final = np.empty_like(c), np.empty(len(Y)), np.empty(len(Y)), np.empty(len(Y))
    final_iters = np.empty(len(Y), dtype=np.int64)

    # Lockstep rounds: each live row evaluates its trial point; accepted
    # rows take their gradient and spectral (Barzilai-Borwein) step,
    # rejected rows halve t and retry the same iteration.  A row leaves
    # when its step length reaches tol or it has run max_iter iterations.
    rows, Ya = np.arange(len(Y)), Yf
    iters = np.zeros(len(Y), dtype=np.int64)
    live = np.ones(len(Y), dtype=bool)
    while rows.size:
        tc = t[:, None]
        c_t = c - tc * G
        Kc_t = Kc - tc * KG
        b_t = beta - t * gb
        nw = np.sqrt(np.maximum(_dots(c_t, Kc_t), 0.0))
        shrink = np.where(nw > 1.0, nw, 1.0)[:, None]  # x / 1.0 is x
        c_t /= shrink
        Kc_t /= shrink
        Kdc = Kc_t - Kc
        db = b_t - beta
        step_sq = np.maximum(_dots(c_t - c, Kdc), 0.0) + db * db
        v_t, gu_t = _loss(Ya * (Kc_t + b_t[:, None]), C, True)
        f_t = v_t.sum(axis=1)
        bound = f + _dots(G, Kdc) + gb * db + step_sq / (2.0 * t)
        moved = live & (step_sq != 0.0)
        accept = moved & (f_t <= bound) & (f_t <= f)
        retry = moved & ~accept
        t = np.where(retry, t * 0.5, t)
        stuck = retry & (t < 1e-20)  # no float-representable descent left
        step_sq[stuck] = 0.0
        done = (live & ~retry) | stuck  # rows that finish an iteration
        if not np.count_nonzero(done):
            continue
        if np.count_nonzero(accept):
            G_t, KG_t, gb_t = grad(Ya, gu_t)
            sy = _dots(G_t - G, Kdc) + (gb_t - gb) * db
            curved = sy > 0.0
            spectral = np.minimum(np.maximum(step_sq / np.where(curved, sy, 1.0), 1e-16), 1e16)
            t = np.where(accept, np.where(curved, spectral, t * 2.0), t)
            f = np.where(accept, f_t, f)
            G = np.where(accept[:, None], G_t, G)
            KG = np.where(accept[:, None], KG_t, KG)
            gb = np.where(accept, gb_t, gb)
        c = np.where(done[:, None], c_t, c)
        Kc = np.where(done[:, None], Kc_t, Kc)
        beta = np.where(done, b_t, beta)
        iters += done
        step = np.sqrt(step_sq)
        if keep_trace:
            for r, v in zip(rows[done], f[done]):
                traces[r].append(float(v))
        leave = done & ((step <= tol) | (iters == max_iter))
        if np.count_nonzero(leave):
            for out, v in zip((*final, final_iters), (c, beta, f, step, iters)):
                out[rows[leave]] = v[leave]
            live &= ~leave
            # finished rows stay, frozen, until half the rows have finished:
            # O(log m) array sizes instead of m keep the heap from
            # fragmenting, and frozen rows cost at most what live ones do
            if 2 * np.count_nonzero(live) <= len(live):
                rows, Ya, c, Kc, beta, f, G, KG, gb, t, iters, live = (
                    v[live] for v in (rows, Ya, c, Kc, beta, f, G, KG, gb, t, iters, live))

    for i, (y, yf, c, beta, f, step) in enumerate(zip(Y, Yf, *final)):
        w = X.T @ c
        nw = float(np.linalg.norm(w))
        if nw < 1e-12:
            raise ZeroDirectionError("DWD solution collapsed to the zero direction")
        # Kc + beta is X w + beta scaled by nw > 0: it orients the direction
        # and signs the training margins without an n x p product
        scores = K @ c + beta
        sign = -1.0 if scores[y == 1].mean() < scores[y == -1].mean() else 1.0
        direction = Direction(sign * w / nw, sign * beta / nw)
        del w  # while the row is scored, only direction.w is alive
        margins = sign * yf * scores
        model = DwdModel(
            direction=direction,
            C=C,
            iterations=int(final_iters[i]),
            objective=float(f),
            kkt_residual=float(step),
            training_error=float((margins <= 0.0).mean()),
            objective_trace=tuple(traces[i]) if keep_trace else (),
        )
        if not step <= tol:
            raise NonConvergedError(model.iterations, model.kkt_residual, model=model)
        yield model


def dwd_direction(ds: LabeledDataset, C: float | None = None,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  keep_trace: bool = False) -> DwdModel:
    """Fit the DWD classifier; C defaults to penalty_parameter(ds).

    Raises NonConvergedError (with the partial model attached) if the
    step-length tolerance is not reached within max_iter iterations.
    """
    if C is None:
        C = penalty_parameter(ds)
    X = ds.features
    return next(_dwd_batch(X, ds.labels[None, :], _gram(X), C, tol, max_iter,
                           keep_trace))


def loadings_of(direction: Direction, loadnum: int | None = None,
                names=None) -> list[Loading]:
    """Variable loadings sorted by |value| descending, ties by index.

    Returns `loadnum` entries (all of them by default) as 1-based
    (index, signed value[, name]) records.
    """
    w = direction.w
    p = w.shape[0]
    if loadnum is None:
        loadnum = p
    if not 1 <= loadnum <= p:
        raise IndexError(f"loadnum must be in 1..{p}, got {loadnum}")
    if names is not None and len(names) != p:
        raise ValidationError(f"expected {p} names, got {len(names)}")
    order = np.lexsort((np.arange(p), -np.abs(w)))[:loadnum]
    return [
        Loading(int(j) + 1, float(w[j]), None if names is None else str(names[j]))
        for j in order
    ]
