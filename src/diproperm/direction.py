"""Separating directions: mean-difference rule and the DWD classifier.

The DWD fit minimizes sum_i V_C(y_i (x_i . w + beta)) over the Euclidean
unit ball ||w|| <= 1, where

    V_C(u) = 1/u               for u >= 1/sqrt(C)
    V_C(u) = 2 sqrt(C) - C u   for u <  1/sqrt(C)

is the slack-eliminated margin loss: convex, strictly decreasing, and
continuously differentiable at the knot.  The intercept is free, so only
Xc w matters, for Xc = X less its column means.  The default C comes from
the between-class distances, read off K = Xc Xcᵀ: only the few pairs
whose rounding interval can reach the median are recomputed from X, so
the median is the one the n- x n+ x p difference tensor gives, bit for
bit, in O(n² + np) memory.  K = Z Zᵀ is factored once per run (pivoted
Cholesky to the rank r <= min(n - 1, p) of Xc; relabeling only flips
signs); with w = Xcᵀ P a, Xc w = Z a and ||w|| = ||a||, so a fit has
r + 1 <= n unknowns (a, beta) whatever p and wherever the data sits.
The solver is semismooth Newton on them (V_C'' = 2/u³ above the knot, 0
below): the bordered KKT system on the sphere ||a|| = 1 while its
multiplier is positive, else the plain Newton system, either shifted on
the diagonal by min(res, res²) for the KKT residual res
(Levenberg-Marquardt with mu = ||F||² near the optimum; Yamashita &
Fukushima 2001), then an Armijo step rescaled into the ball.
A bordered system whose Hessian has k < r/2 active samples (above the
knot; at a p >> n optimum most samples are not) is solved through a
k x k one by Sherman-Morrison-Woodbury.  A fit stops when the KKT
residual (tangential gradient, d/d beta and complementarity, for the
problem rescaled to C = 1) falls to `tol`.  It starts from the
mean-difference (md) rule in the row space, a = Zᵀc / ||Zᵀc|| for
c = y / (size of y's class), with the class-mean midpoint; an md fit
itself is taken in feature space, exactly, in O(np) (_md_batch).

Fits to m label vectors on the same X run as one lockstep batch: each
round, every unfinished row takes its own Newton step, so each row does
exactly the iterations it would do alone.  The batch is bit-identical to
single fits because every per-row product is a stacked np.matmul,
np.linalg.solve or gather and every per-row reduction a last-axis sum,
each of which gives a row the bits of its single operation; the k x k
systems are padded to a size k alone sets.  md fits batch the same
way.  A single fit, of either rule, is a batch of one.  Memory is
O(n² + np + mn), O(np + mn) for md: the Newton systems are built a chunk
of rows at a time (~2 MB of stacked matrices, _CHUNK_BYTES).  A DWD row's
scores on X come from the row space, X w + beta = sign Z1 x / (sqrt(C)
||a||), so a batch forms no w: only forming a row's Direction (the
observed fit's, or a failed row's for its error) pays the O(np) product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    DegenerateScaleError,
    NonConvergedError,
    ValidationError,
    ZeroDirectionError,
    is_integer,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 5000
# Stacked per-row arrays are built this many bytes of rows at a time, so a
# batch's solver memory does not grow with the batch: at 2 MB a B=100
# block's Newton round is one call per step kind and size class
_CHUNK_BYTES = 1 << 21


@dataclass(eq=False)
class Direction:
    """Unit normal vector to a separating hyperplane, plus intercept.

    Orientation convention: projections of the +1 class average at least
    as high as those of the -1 class on the data the direction was fit to.
    """

    w: np.ndarray
    beta: float = 0.0
    # (X, scores) of a fit: the features array it was fit to and its
    # X w + beta from the row space, which project() returns for that X.
    # Not a field (no repr) and not pickled: a copy need not carry X.
    _fit = None

    def __reduce__(self):
        return Direction, (self.w, self.beta)

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("w must be a nonempty vector")
        beta = float(self.beta)
        if not (np.isfinite(w).all() and math.isfinite(beta)):
            raise ValidationError("w and beta must be finite")
        nrm = float(np.linalg.norm(w))
        if abs(nrm - 1.0) > 1e-8:
            raise ValidationError(f"w must have unit norm, got {nrm!r}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "beta", beta)


@dataclass(eq=False)
class DwdModel:
    """Fitted DWD solution with solver telemetry."""

    direction: Direction
    C: float
    iterations: int
    objective: float
    kkt_residual: float
    training_error: float


class Loading(NamedTuple):
    index: int  # 1-based variable index
    value: float
    name: str | None = None


def _md_batch(X: np.ndarray, Y: np.ndarray):
    """md fits of X to each row of the label stack Y (m x n), returned as
    _dwd_batch returns DWD's, with zero iterations and model None.  A
    row's w is its class-mean difference c Xc for c = y / (size of y's
    class) and Xc = X less its column means (exact far from the origin),
    normalized; its scores are Xc w less their class means' midpoint (NaN
    where the means coincide).  Stacked np.matmul and last-axis sums give
    each row a one-row batch's bits, ~_CHUNK_BYTES of rows at a time."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        center = X.mean(axis=0)
        Xc = X - center
        d = np.einsum("ij,ij->i", Xc, Xc)
    _check_scale(X, d)
    small = 1e-12 * math.sqrt(d.max())  # relative to the data's scale

    def fit(y):  # rows' (scores, w, b)
        p = y == 1
        n_pos, n_neg = p.sum(axis=1), (~p).sum(axis=1)
        c = y / np.where(p, n_pos[:, None], n_neg[:, None])
        diff = np.matmul(c[:, None, :], Xc)[:, 0, :]
        nrm = np.sqrt((diff * diff).sum(axis=1))
        W = diff / np.where(nrm > small, nrm, np.inf)[:, None]  # 0 if the means coincide
        s = np.matmul(Xc, W[:, :, None])[:, :, 0]
        b = -0.5 * ((s * p).sum(axis=1) / n_pos + (s * ~p).sum(axis=1) / n_neg)
        s += b[:, None]
        s[~(nrm > small)] = np.nan
        return s, W, b

    def row(i):  # row i refit alone, with the bits it has in the batch
        (s,), (w,), (b,) = fit(Y[i:i + 1])
        if np.isnan(s[0]):
            raise ZeroDirectionError("class means coincide; mean-difference direction undefined")
        s.setflags(write=False)
        direction = Direction(w, b - center @ w)  # X w + beta = Xc w + b
        direction._fit = X, s
        return direction, None

    S = _chunks(lambda y: fit(y)[0], len(X) + X.shape[1], Y)
    return S, np.zeros(len(Y), np.int64), int(np.append(np.isnan(S[:, 0]), True).argmax()), row


def md_direction(ds: LabeledDataset) -> Direction:
    """Unit mean-difference direction with the midpoint intercept, as a
    batch of one, as diproperm() fits it (project() gives it the run's
    scores on X)."""
    return _md_batch(ds.features, ds.labels[None, :])[3](0)[0]


def _check_scale(X: np.ndarray, d: np.ndarray) -> None:  # d = diag(Xc Xcᵀ)
    if not math.isfinite(8.0 * float(d.max())):
        raise DegenerateScaleError(f"X Xᵀ is too large for float64: the data's largest "
                                   f"magnitude is {np.abs(X).max():.3g}; rescale the features")


def _gram(X: np.ndarray):
    """(center, K): X's column means and K = Xc Xcᵀ for Xc = X - center (not
    kept), refused unless 8 max K_ii is finite (spread below ~1e153):
    _penalty's rounding bounds reach 6 max K_ii, and |K_ij| <= max K_ii."""
    with np.errstate(over="ignore", invalid="ignore"):
        center = X.mean(axis=0)
        Xc = X - center
        K = Xc @ Xc.T
    _check_scale(X, K.diagonal())
    return center, K


def _penalty(X: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    """penalty_parameter from K = Xc Xcᵀ (_gram), in O(n² + np) memory.

    A between-class distance² is K_ii + K_jj - 2 K_ij up to a rounding
    bound; a pair whose interval cannot reach the middle order statistics
    stands in as 0 or inf, the others are recomputed from their rows of X
    as the n- x n+ x p difference tensor would, so the median is its bits.
    The bound 8 (p + 4) u (K_ii + K_jj + |d²|), u = 2⁻⁵³, covers the p-term
    sums of K (~2 p u (K_ii + K_jj)) and of the tensor (~(p + 2) u d²), and
    Xc = X - center: translated rows keep their differences, and rounding
    each entry of Xc moves d² by at most 4 u (K_ii + K_jj).
    """
    neg, pos = np.flatnonzero(y == -1), np.flatnonzero(y == 1)
    d = K.diagonal()
    # in place, so that at most three n- x n+ arrays are alive at once
    sq = K[np.ix_(neg, pos)] * -2.0
    err = d[neg][:, None] + d[pos]  # the norms
    sq += err
    # rounding of the p-term sums in K and in the recomputation, with
    # slack; tiny covers underflow
    err += np.abs(sq)
    err *= 8 * (X.shape[1] + 4) * 2.0 ** -53
    err += np.finfo(np.float64).tiny
    lo, hi = sq - err, np.add(sq, err, out=sq)
    del err
    mid = (lo.size - 1) // 2, lo.size // 2
    below = hi < np.partition(lo, mid[0], axis=None)[mid[0]]
    above = lo > np.partition(hi, mid[1], axis=None)[mid[1]]
    del lo, hi
    sq = np.where(below, 0.0, np.inf)
    rows, cols = np.nonzero(~(below | above))
    for k in range(0, rows.size, len(X)):  # n pairs at a time: O(np) memory
        i, j = rows[k:k + len(X)], cols[k:k + len(X)]
        diff = X[pos[j]] - X[neg[i]]
        sq[i, j] = np.einsum("jk,jk->j", diff, diff)
    med = float(np.median(np.sqrt(sq)))
    if not med > 1e-12 * math.sqrt(d.max()):  # relative to the data's scale
        raise DegenerateScaleError("all between-class distances are ~0")
    return 100.0 / (med * med)


def penalty_parameter(ds: LabeledDataset) -> float:
    """Scale-adaptive DWD penalty: C = 100 / median between-class distance^2.

    Exact: the median is the one the n- x n+ x p tensor of class
    differences gives, bit for bit, taken from the n x n Gram matrix of
    the centered X with only the pairs near the middle recomputed from X,
    so memory is O(n² + np).
    """
    return _penalty(ds.features, ds.labels, _gram(ds.features)[1])


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


def _factor(center: np.ndarray, K: np.ndarray):
    """K = Xc Xcᵀ = Z Zᵀ, for Xc = X - center, by Cholesky with diagonal
    pivoting, stopped at the numerical rank r <= min(n - 1, p): Z is
    n x r, and P (n x r, nonzero on the r pivot rows) makes w = Xcᵀ P a
    satisfy Xc w = Z a and ||w|| = ||a||.  Returns (center, Z, P),
    shared by every DWD fit on X whatever its labels."""
    d, Z = K.diagonal().copy(), np.zeros((len(K), min(len(K) - 1, len(center))))
    piv, r = np.empty(Z.shape[1], dtype=np.intp), 0
    floor = len(K) * np.finfo(np.float64).eps * d.max()
    while r < Z.shape[1] and d[i := d.argmax()] > floor:
        # the row K[i] is the column K[:, i] bit for bit: K is symmetric
        Z[:, r] = (K[i] - Z[:, :r] @ Z[i, :r]) / math.sqrt(d[i])
        d -= Z[:, r] * Z[:, r]
        piv[r], r = i, r + 1
        d[piv[:r]] = 0.0
    Z, piv = Z[:, :r].copy(), piv[:r]  # C order, as in any process it is sent to
    P = np.zeros_like(Z)
    P[piv] = np.linalg.inv(Z[piv]).T
    return center, Z, P


def _check_stopping(tol, max_iter) -> None:
    """The one check of a DWD stopping rule, for every fit and TestConfig."""
    if isinstance(tol, bool) or not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be in (0, inf), got {tol!r}")
    if not is_integer(max_iter) or max_iter < 1:
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _chunks(step, budget, *rows):
    """step(*chunk) over ~_CHUNK_BYTES of `rows` at a time, `budget`
    float64 entries a row, concatenated."""
    size = max(1, _CHUNK_BYTES // (8 * budget))
    return np.concatenate([step(*(v[k:k + size] for v in rows))
                           for k in range(0, len(rows[0]), size)])


# A bordered step with k active samples goes through _active_step when
# k < _FEW_ACTIVE * r: on 60 x 5000 blobs (r = 59) every step of a B=100
# run qualifies, on mushrooms50 (r = 24) none does.
_FEW_ACTIVE = 0.5


def _active_step(Za, Ga, x, G, curv, lam, mu, size):
    """The bordered Newton steps (d_a, d_b) of rows on the sphere, by
    Sherman-Morrison-Woodbury over their active samples (V_1'' > 0).

    A row's a-block is N = s I + Uᵀ D U for s = lam + mu, U the active
    rows of Z1[:, :r] (k x r) and D their curvatures, so N⁻¹V =
    (V - Uᵀ T⁻¹ U V) / s for the k x k T = s D⁻¹ + U Uᵀ.  One solve takes
    V = [-g_a, h_ab, a] (h_ab = Uᵀ c, the a-b block); a 2 x 2 system in
    d_b and the ball multiplier nu is left, solved in closed form, and
    d_a = Y0 - Y1 d_b - Y2 nu for Y = N⁻¹V.  Za is Z1[:, :r] with a zero
    row n below, Ga = Za Zaᵀ.  Every row's k is padded to `size` (which
    may exceed n) with index n (a zero row of U, zero curvature, identity
    in T), so its bits depend on its own k alone.
    """
    m, n = curv.shape
    r = Za.shape[1]
    # each row's active samples in order, then n (size may exceed n)
    idx = np.full((m, size), n)
    act = np.sort(np.where(curv > 0.0, np.arange(n), n), axis=1)[:, :size]
    idx[:, :act.shape[1]] = act
    c = np.take_along_axis(np.hstack([curv, np.zeros((m, 1))]), idx, axis=1)
    s = lam + mu
    U = Za.take(idx, axis=0)
    Ut = U.transpose(0, 2, 1)
    T = Ga.take(idx[:, :, None] * (n + 1) + idx[:, None, :])  # Ga[idx, idx] of each row
    T.reshape(m, -1)[:, ::size + 1] += s[:, None] / np.where(idx < n, c, s[:, None])
    h, a = np.matmul(Ut, c[:, :, None])[:, :, 0], x[:, :r]
    V = np.stack([-G[:, :r], h, a], axis=2)
    Y = (V - np.matmul(Ut, np.linalg.solve(T, np.matmul(U, V)))) / s[:, None, None]
    Q = np.matmul(np.stack([h, a], axis=1), Y)  # hᵀY, aᵀY
    # rows b and nu of the bordered system once d_a is eliminated,
    # [[e, -q], [p, g]] (d_b, nu) = (f0, f1), by Cramer's rule: e (a Schur
    # complement) and g = aᵀN⁻¹a are positive and q = p up to rounding, so
    # the determinant e g + q p does not cancel
    e, q, p, g = c.sum(axis=1) + mu - Q[:, 0, 1], Q[:, 0, 2], Q[:, 1, 1], Q[:, 1, 2]
    f0, f1 = -G[:, r] - Q[:, 0, 0], Q[:, 1, 0]
    det = e * g + q * p
    db, nu = (f0 * g + q * f1) / det, (e * f1 - p * f0) / det
    D = np.empty_like(x)
    D[:, :r] = Y[:, :, 0] - Y[:, :, 1] * db[:, None] - Y[:, :, 2] * nu[:, None]
    D[:, r] = db
    return D


def _dwd_batch(X: np.ndarray, Y: np.ndarray, factors, C: float, tol: float, max_iter: int):
    """DWD fits of X to each row of the label stack Y (m x n), in lockstep.

    `factors` is _factor(*_gram(X)).  Returns (S, iterations, k, row):
    the rows' (m x n) scores on X, from the row space, and iterations;
    the number k of rows before the first that failed; and row(i), which
    forms row i's (Direction, DwdModel), w and all, or raises its
    ZeroDirectionError or NonConvergedError (model included).  Each row's
    are bit-identical to a one-row batch's.
    """
    if not (np.isfinite(C) and C > 0.0):
        raise DegenerateScaleError(f"penalty C must be positive and finite, got {C!r}")
    _check_stopping(tol, max_iter)

    center, Z, P = factors
    n, r = Z.shape
    root_c = math.sqrt(C)
    # Iterate on x = (a, b), w = Xcᵀ P a, beta = b / sqrt(C) - center w:
    # the margins are y Z1 x / sqrt(C) for Z1 = [sqrt(C) Z, 1], and since
    # V_C(u) = sqrt(C) V_1(sqrt(C) u) the problem is the C = 1 one on Z1
    # over ||a|| <= 1, which no rescaling of X changes.
    Z1 = np.hstack([root_c * Z, np.ones((n, 1))])
    Z2 = np.hstack([Z1, np.zeros((n, 1))])  # Z2ᵀ diag(c) Z2: a bordered system
    Za = np.vstack([Z1[:, :r], np.zeros((1, r))])  # _active_step's gathers
    gram_a = cache(lambda: Za @ Za.T)  # (n + 1)², formed by the first active-sample step
    Yf = Y.astype(np.float64)

    def scores(x):  # Z1 x of each row
        return np.matmul(Z1, x[:, :, None])[:, :, 0]

    def at(x, Ya):  # objective, gradient, V_1'' and KKT residual
        u = Ya * scores(x)
        v, gu = _loss(u, 1.0, True)
        hi = u >= 1.0
        curv = np.where(hi, -2.0 * gu / np.maximum(u, 1.0), 0.0)  # 2/u³
        G = np.matmul((Ya * gu)[:, None, :], Z1)[:, 0, :]
        a, ga, gb = x[:, :r], G[:, :r], G[:, r]
        lam = np.maximum(-(a * ga).sum(axis=1), 0.0)  # multiplier of the ball
        na = np.sqrt((a * a).sum(axis=1))
        tangent = ga + lam[:, None] * a
        res = np.sqrt((tangent * tangent).sum(axis=1) + gb * gb
                      + (lam * (1.0 - na)) ** 2)
        return v.sum(axis=1), G, curv, lam, na, res

    def dense(x, G, curv, lam, mu, on):
        # rows on the sphere with lam > 0 solve the bordered KKT system
        # [[H + lam I, a], [aᵀ, 0]] (H the Hessian in x), the others the
        # plain Newton system; both shifted on the diagonal by mu
        M = np.matmul(Z2.T * curv[:, None, :], Z2)
        diag = M.reshape(len(x), -1)[:, ::r + 3]  # a view of each diagonal
        diag[:, :r + 1] += mu[:, None]
        diag[:, :r] += np.where(on, lam, 0.0)[:, None]
        diag[:, r + 1] = np.where(on, 0.0, 1.0)
        M[:, :r, r + 1] = M[:, r + 1, :r] = np.where(on[:, None], x[:, :r], 0.0)
        rhs = np.zeros((len(x), r + 2, 1))
        rhs[:, :r + 1, 0] = -G
        return np.linalg.solve(M, rhs)[:, :r + 1, 0]

    def newton(x, G, curv, lam, na, res):
        # mu = min(res, res²) is Levenberg-Marquardt with mu = ||F||² near
        # the optimum, so the steps turn quadratic; it still bounds a step
        # along a direction of zero curvature (linear loss).  A row on the
        # sphere with few active samples solves its bordered system
        # through a k x k one (_active_step), padded to the next power of
        # two >= 16 so that rows group by a size their own k sets.
        mu = np.minimum(res, res * res)
        on = (na > 1.0 - 1e-9) & (lam > 0.0)
        k = (curv > 0.0).sum(axis=1)
        few = on & (k < _FEW_ACTIVE * r)
        dense_budget = (r + 2) * (n + r + 2)
        if not few.any():
            return _chunks(dense, dense_budget, x, G, curv, lam, mu, on)
        D = np.empty_like(x)
        if not few.all():
            D[~few] = _chunks(dense, dense_budget, *(v[~few] for v in (x, G, curv, lam, mu, on)))
        size = np.maximum(16, 1 << np.frexp(k - 1.0)[1])  # next power of two >= k
        for kb in np.unique(size[few]):
            rows = few & (size == kb)
            D[rows] = _chunks(partial(_active_step, Za, gram_a(), size=kb), kb * (r + kb),
                              *(v[rows] for v in (x, G, curv, lam, mu)))
        return D

    # warm start from the mean-difference rule when it exists: a = Zᵀc /
    # ||Zᵀc|| for c = y / (size of y's class), class-mean midpoint at 0
    pos = Y == 1
    n_pos, n_neg = pos.sum(axis=1), (~pos).sum(axis=1)

    def class_means(s):  # of each row's scores over its +1 and its -1 samples
        return (s * pos).sum(axis=1) / n_pos, (s * ~pos).sum(axis=1) / n_neg

    c = Yf / np.where(pos, n_pos[:, None], n_neg[:, None])
    A = np.matmul(c[:, None, :], Z)[:, 0, :]
    nrm = np.sqrt((A * A).sum(axis=1, keepdims=True))
    small = 1e-12 * math.sqrt((Z * Z).sum(axis=1).max())  # relative to the data's scale
    x = np.zeros((len(Y), r + 1))
    x[:, :r] = A / np.where(nrm >= small, nrm, np.inf)  # a = 0 if the means coincide
    mean_pos, mean_neg = class_means(scores(x))
    x[:, r] = -0.5 * (mean_pos + mean_neg)

    # Lockstep rounds: each live row takes a Newton direction, then an
    # Armijo step along it (halving from 1), with a rescaled into the ball
    # (on the sphere, a retraction).  A row leaves when its KKT residual
    # reaches tol, after max_iter iterations, or when no step decreases f.
    state = [x, *at(x, Yf)]  # x, f, G, curv, lam, na, res of every row
    iters = np.zeros(len(Y), dtype=np.int64)
    stuck = np.zeros(len(Y), dtype=bool)
    live = np.arange(len(Y))
    while True:
        live = live[(state[-1][live] > tol) & (iters[live] < max_iter) & ~stuck[live]]
        if not live.size:
            break
        now = [v[live] for v in state]
        x, f, G = now[:3]
        D = newton(x, *now[2:])
        slope = (G * D).sum(axis=1)
        t = np.ones(live.size)
        todo = np.arange(live.size)
        while todo.size:
            x_t = x[todo] + t[todo, None] * D[todo]
            a_t = x_t[:, :r]
            a_t /= np.maximum(np.sqrt((a_t * a_t).sum(axis=1)), 1.0)[:, None]
            trial = (x_t, *at(x_t, Yf[live[todo]]))
            # Armijo up to rounding in f: near the optimum a Newton step
            # lowers f by less than f's own rounding error
            ok = trial[1] <= f[todo] * (1.0 + 1e-13) + 1e-4 * t[todo] * slope[todo]
            for out, v in zip(state, trial):
                out[live[todo[ok]]] = v[ok]
            todo = todo[~ok]
            t[todo] *= 0.5
            stuck[live[todo]] = t[todo] < 1e-12  # no representable descent left
            todo = todo[t[todo] >= 1e-12]
        moved = live[~stuck[live]]
        iters[moved] += 1

    # Z1 x is X w + beta scaled by sqrt(C) ||a|| > 0: it orients each
    # row, signs its training margins and gives its scores without an
    # n x p product (NaN where a collapsed to 0)
    x, f, na, res = state[0], state[1], state[5], state[-1]
    s = scores(x)
    mean_pos, mean_neg = class_means(s)
    signs = np.where(mean_pos < mean_neg, -1.0, 1.0)
    collapsed = na < 1e-12  # ||a|| is scale-free: a solves the problem rescaled to C = 1
    S = (signs / (root_c * np.where(collapsed, np.nan, na)))[:, None] * s

    def row(i):
        if collapsed[i]:
            raise ZeroDirectionError("DWD solution collapsed to the zero direction")
        w = (X - center).T @ (P @ x[i, :r])
        nw = float(np.linalg.norm(w))
        direction = Direction(signs[i] * w / nw, signs[i] * (x[i, r] / root_c - center @ w) / nw)
        row_scores = S[i].copy()  # a copy, which does not hold the stack
        row_scores.setflags(write=False)
        direction._fit = X, row_scores
        model = DwdModel(direction, C, int(iters[i]), root_c * float(f[i]), float(res[i]),
                         training_error=float((signs[i] * Yf[i] * s[i] <= 0.0).sum() / n))
        if not res[i] <= tol:
            raise NonConvergedError(model.iterations, model.kkt_residual, model=model)
        return direction, model

    return S, iters, int(np.append(collapsed | ~(res <= tol), True).argmax()), row


def dwd_direction(ds: LabeledDataset, C: float | None = None,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> DwdModel:
    """Fit the DWD classifier; C defaults to penalty_parameter(ds).

    Raises ValidationError unless `tol` is in (0, inf) and `max_iter` an
    integer >= 1, and NonConvergedError (with the partial model attached)
    if the KKT residual does not reach `tol` within max_iter iterations.
    """
    X = ds.features
    center, K = _gram(X)
    C = _penalty(X, ds.labels, K) if C is None else C
    return _dwd_batch(X, ds.labels[None, :], _factor(center, K), C, tol, max_iter)[3](0)[1]


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
