"""Separating directions: mean-difference rule and the DWD classifier.

The DWD fit minimizes sum_i V_C(y_i (x_i . w + beta)) over the Euclidean
unit ball ||w|| <= 1, where

    V_C(u) = 1/u               for u >= 1/sqrt(C)
    V_C(u) = 2 sqrt(C) - C u   for u <  1/sqrt(C)

is the slack-eliminated margin loss: convex, strictly decreasing, and
continuously differentiable at the knot.  K = X Xᵀ = Z Zᵀ is factored
once per run (pivoted Cholesky to the rank r of X; relabeling only flips
signs); with w = Xᵀ P a, X w = Z a and ||w|| = ||a||, so a fit has
r + 1 <= n + 1 unknowns (a, beta) whatever p.  The solver is semismooth
Newton on them (V_C'' = 2/u³ above the knot, 0 below): the bordered KKT
system on the sphere ||a|| = 1 while its multiplier is positive, else
the plain Newton system, either shifted on the diagonal by min(res, res²)
for the KKT residual res (Levenberg-Marquardt with mu = ||F||² near the
optimum; Yamashita & Fukushima 2001), then an Armijo step rescaled into
the ball.  It stops when the KKT residual (tangential gradient, d/d beta
and complementarity, for the problem rescaled to C = 1) falls to `tol`.

Fits to m label vectors on the same X run as one lockstep batch: each
round, every unfinished row takes its own Newton step, so each row does
exactly the iterations it would do alone.  The batch is bit-identical to
single fits because every per-row product is a stacked np.matmul or
np.linalg.solve and every per-row reduction a last-axis sum, each of
which gives a row the bits of its single operation.  A single fit is a
batch of one.  Memory is O(n² + np + mn): the Newton systems are built a
chunk of rows at a time (~512 kB of stacked matrices), and the rows' w
one at a time.
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

DEFAULT_TOL = 1e-8
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


class Loading(NamedTuple):
    index: int  # 1-based variable index
    value: float
    name: str | None = None


def _md_arrays(X: np.ndarray, y: np.ndarray) -> Direction:
    neg, pos = X[y == -1], X[y == 1]
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
    X, y = ds.features, ds.labels
    pos, neg = X[y == 1], np.flatnonzero(y == -1)  # only one class copied
    sq = np.empty((len(neg), len(pos)))
    for k, i in enumerate(neg):  # one row at a time: O(n- n+ + n+ p) memory
        d = pos - X[i]
        sq[k] = np.einsum("jk,jk->j", d, d)
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


def _factor(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K = X Xᵀ = Z Zᵀ by Cholesky with diagonal pivoting, stopped at the
    numerical rank r: Z is n x r, and P (n x r, nonzero on the r pivot
    rows) makes w = Xᵀ P a satisfy X w = Z a and ||w|| = ||a||.  Shared by
    every DWD fit on X whatever its labels."""
    K = X @ X.T
    d, Z, piv = K.diagonal().copy(), np.zeros_like(K), []
    floor = len(K) * np.finfo(np.float64).eps * d.max()
    while d.max() > floor:
        i, j = int(np.argmax(d)), len(piv)
        Z[:, j] = (K[:, i] - Z[:, :j] @ Z[i, :j]) / math.sqrt(d[i])
        d -= Z[:, j] * Z[:, j]
        piv.append(i)
        d[piv] = 0.0
    Z = Z[:, :len(piv)].copy()  # C order, as in any process it is sent to
    P = np.zeros_like(Z)
    P[piv] = np.linalg.inv(Z[piv]).T
    return Z, P


def _check_stopping(tol, max_iter) -> None:
    """The one check of a DWD stopping rule, for every fit and TestConfig."""
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be in (0, inf), got {tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _dwd_batch(X: np.ndarray, Y: np.ndarray, factors, C: float,
               tol: float, max_iter: int):
    """DWD fits of X to each row of the label stack Y (m x n), in lockstep.

    `factors` is _factor(X).  Each row's model is bit-identical to a
    one-row batch.  Yields the DwdModel of each row in row order, raising
    that row's ZeroDirectionError or NonConvergedError when its turn
    comes; w is formed only then, so one p-vector is alive at a time.
    """
    if not (np.isfinite(C) and C > 0.0):
        raise DegenerateScaleError(f"penalty C must be positive and finite, got {C!r}")
    _check_stopping(tol, max_iter)

    Z, P = factors
    n, r = Z.shape
    root_c = math.sqrt(C)
    # Iterate on x = (a, b), w = Xᵀ P a, beta = b / sqrt(C): the margins
    # are y Z1 x / sqrt(C) for Z1 = [sqrt(C) Z, 1], and since
    # V_C(u) = sqrt(C) V_1(sqrt(C) u) the problem is the C = 1 one on Z1
    # over ||a|| <= 1, which no rescaling of X changes.
    Z1 = np.hstack([root_c * Z, np.ones((n, 1))])
    Z2 = np.hstack([Z1, np.zeros((n, 1))])  # Z2ᵀ diag(c) Z2: a bordered system
    Yf = Y.astype(np.float64)
    # rows whose Newton systems are built and solved at once: ~512 kB of
    # stacked matrices, so solver memory does not grow with the batch
    chunk = max(1, (1 << 19) // (8 * (r + 2) * (n + r + 2)))

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

    def newton(x, curv, lam, na, res, rhs):
        # rows on the sphere with lam > 0 solve the bordered KKT system
        # [[H + lam I, a], [aᵀ, 0]] (H the Hessian in x), the others the
        # plain Newton system; both shifted on the diagonal by min(res, res²)
        # (Levenberg-Marquardt with mu = ||F||² near the optimum, so the
        # steps turn quadratic), which still bounds a step along a
        # direction of zero curvature (linear loss)
        on = (na > 1.0 - 1e-9) & (lam > 0.0)
        M = np.matmul(Z2.T * curv[:, None, :], Z2)
        diag = M.reshape(len(x), -1)[:, ::r + 3]  # a view of each diagonal
        diag[:, :r + 1] += np.minimum(res, res * res)[:, None]
        diag[:, :r] += np.where(on, lam, 0.0)[:, None]
        diag[:, r + 1] = np.where(on, 0.0, 1.0)
        M[:, :r, r + 1] = M[:, r + 1, :r] = np.where(on[:, None], x[:, :r], 0.0)
        return np.linalg.solve(M, rhs)[:, :r + 1, 0]

    # warm start from the mean-difference rule when it exists: a = Zᵀc /
    # ||Zᵀc|| for c = y / (size of y's class), class-mean midpoint at 0
    pos = Y == 1
    n_pos, n_neg = pos.sum(axis=1), (~pos).sum(axis=1)

    def class_means(s):  # of each row's scores over its +1 and its -1 samples
        return (s * pos).sum(axis=1) / n_pos, (s * ~pos).sum(axis=1) / n_neg

    c = Yf / np.where(pos, n_pos[:, None], n_neg[:, None])
    A = np.matmul(c[:, None, :], Z)[:, 0, :]
    nrm = np.sqrt((A * A).sum(axis=1, keepdims=True))
    x = np.zeros((len(Y), r + 1))
    x[:, :r] = A / np.where(nrm >= 1e-12, nrm, np.inf)  # a = 0 if the means coincide
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
        rhs = np.zeros((live.size, r + 2, 1))
        rhs[:, :r + 1, 0] = -G
        D = np.concatenate([newton(*(v[k:k + chunk] for v in now[:1] + now[3:] + [rhs]))
                            for k in range(0, live.size, chunk)])
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

    # Z1 x is X w + beta scaled by sqrt(C) > 0: it orients each direction
    # and signs its training margins without an n x p product
    s = scores(state[0])
    mean_pos, mean_neg = class_means(s)
    signs = np.where(mean_pos < mean_neg, -1.0, 1.0)
    errors = (signs[:, None] * Yf * s <= 0.0).sum(axis=1)
    for i, (sign, x, f, res) in enumerate(zip(signs, state[0], state[1], state[-1])):
        w = X.T @ (P @ x[:r])
        nw = float(np.linalg.norm(w))
        if nw < 1e-12:
            raise ZeroDirectionError("DWD solution collapsed to the zero direction")
        direction = Direction(sign * w / nw, sign * (x[r] / root_c) / nw)
        del w  # while the row is scored, only direction.w is alive
        model = DwdModel(direction, C, int(iters[i]), root_c * float(f), float(res),
                         training_error=float(errors[i] / n))
        if not res <= tol:
            raise NonConvergedError(model.iterations, model.kkt_residual, model=model)
        yield model


def dwd_direction(ds: LabeledDataset, C: float | None = None,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> DwdModel:
    """Fit the DWD classifier; C defaults to penalty_parameter(ds).

    Raises ValidationError unless `tol` is in (0, inf) and `max_iter` an
    integer >= 1, and NonConvergedError (with the partial model attached)
    if the KKT residual does not reach `tol` within max_iter iterations.
    """
    if C is None:
        C = penalty_parameter(ds)
    X = ds.features
    return next(_dwd_batch(X, ds.labels[None, :], _factor(X), C, tol, max_iter))


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
