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
only flips signs), an iteration costs O(n²), memory is O(n² + np).
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


def _dwd_arrays(X: np.ndarray, y: np.ndarray, K: np.ndarray, C: float,
                tol: float, max_iter: int, keep_trace: bool = False) -> DwdModel:
    if not (np.isfinite(C) and C > 0.0):
        raise DegenerateScaleError(f"penalty C must be positive and finite, got {C!r}")
    if tol <= 0.0 or max_iter < 1:
        raise ValidationError("tol must be > 0 and max_iter >= 1")

    yf = y.astype(np.float64)

    # The iterates stay in the row space of X: w = Xᵀc, ||w||² = c.Kc,
    # margins y(Kc + beta), and the w-gradient Xᵀ(y gu) has coefficients
    # g = y gu.  Kc and Kg are updated by linearity alongside c and g.
    def value(Kc, beta):
        return float(_loss(yf * (Kc + beta), C, False)[0].sum())

    def value_grad(Kc, beta):
        v, gu = _loss(yf * (Kc + beta), C, True)
        g = yf * gu
        return float(v.sum()), g, K @ g, float(gu @ yf)

    # warm start from the mean-difference rule when it exists: w = Xᵀc /
    # ||Xᵀc|| for c = y / (size of y's class), class-mean midpoint at 0
    c = yf / np.where(y == 1, np.sum(y == 1), np.sum(y == -1))
    nrm = float(np.linalg.norm(X.T @ c))
    c = c / nrm if nrm >= 1e-12 else np.zeros(len(y))  # zero: means coincide
    Kc = K @ c
    beta = -0.5 * float(Kc[y == 1].mean() + Kc[y == -1].mean())

    f, g, Kg, gb = value_grad(Kc, beta)
    gnorm = math.sqrt(max(float(g @ Kg), 0.0) + gb * gb)
    t = 1.0 / max(1.0, gnorm)
    trace = [f]
    step = math.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        while True:
            c_t = c - t * g
            Kc_t = Kc - t * Kg
            b_t = beta - t * gb
            nw = math.sqrt(max(float(c_t @ Kc_t), 0.0))
            if nw > 1.0:
                c_t = c_t / nw
                Kc_t = Kc_t / nw
            Kdc = Kc_t - Kc
            db = b_t - beta
            step_sq = max(float((c_t - c) @ Kdc), 0.0) + db * db
            if step_sq == 0.0:
                f_t, g_t, Kg_t, gb_t = f, g, Kg, gb
                break
            f_t = value(Kc_t, b_t)
            model = f + float(g @ Kdc) + gb * db + step_sq / (2.0 * t)
            if f_t <= model and f_t <= f:
                g_t = None
                break
            t *= 0.5
            if t < 1e-20:  # no float-representable descent left
                step_sq = 0.0
                f_t, g_t, Kg_t, gb_t = f, g, Kg, gb
                break

        step = math.sqrt(step_sq)
        if g_t is None:
            f_t, g_t, Kg_t, gb_t = value_grad(Kc_t, b_t)
            # spectral trial step for the next iteration
            sy = float((g_t - g) @ Kdc) + (gb_t - gb) * db
            t = min(max(step_sq / sy, 1e-16), 1e16) if sy > 0.0 else t * 2.0
        c, Kc, beta, f, g, Kg, gb = c_t, Kc_t, b_t, f_t, g_t, Kg_t, gb_t
        if keep_trace:
            trace.append(f)
        if step <= tol:
            converged = True
            break

    w = X.T @ c
    nw = float(np.linalg.norm(w))
    if nw < 1e-12:
        raise ZeroDirectionError("DWD solution collapsed to the zero direction")
    # Kc + beta is X w + beta scaled by nw > 0: it orients the direction
    # and signs the training margins without an n x p product
    scores = K @ c + beta
    sign = -1.0 if scores[y == 1].mean() < scores[y == -1].mean() else 1.0
    direction = Direction(sign * w / nw, sign * beta / nw)
    margins = sign * yf * scores
    model = DwdModel(
        direction=direction,
        C=C,
        iterations=iterations,
        objective=f,
        kkt_residual=step,
        training_error=float((margins <= 0.0).mean()),
        objective_trace=tuple(trace) if keep_trace else (),
    )
    if not converged:
        raise NonConvergedError(iterations, step, model=model)
    return model


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
    return _dwd_arrays(X, ds.labels, _gram(X), C, tol, max_iter, keep_trace)


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
