"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np
import pytest

from diproperm import LabeledDataset


def make_blobs(n=20, p=2, distance=4.0, std=1.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = rng.normal(scale=std, size=(n, p))
    X[:half, 0] -= distance / 2.0
    X[half:, 0] += distance / 2.0
    y = np.r_[np.full(half, -1), np.full(n - half, 1)]
    return LabeledDataset(X, y)


# --- independent DWD objective + brute-force oracle -------------------------
# Deliberately re-implemented here (not imported from the package) so the
# solver is checked against a second, dumber route to the same number.

def oracle_objective(X, y, w, beta, C):
    u = y * (X @ w + beta)
    k = 1.0 / math.sqrt(C)
    v = np.where(u >= k, 1.0 / np.where(u >= k, u, k), 2.0 * math.sqrt(C) - C * u)
    return float(v.sum())


def oracle_gradient(X, y, w, beta, C):
    """Gradient of oracle_objective in w and in beta."""
    u = y * (X @ w + beta)
    k = 1.0 / math.sqrt(C)
    dv = np.where(u >= k, -1.0 / np.where(u >= k, u, k) ** 2, -C)
    return X.T @ (dv * y), float(dv @ y)


def grid_oracle(X, y, C, n_angles=10_000, beta_iters=80):
    """Best objective over a grid of unit directions with beta optimized.

    Golden-section search on beta is run simultaneously for all angles
    (the objective is convex in beta for each fixed direction).
    """
    theta = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    W = np.stack([np.cos(theta), np.sin(theta)])  # (2, n_angles)
    proj = (X @ W) * y[:, None]                   # (n, n_angles)
    k = 1.0 / math.sqrt(C)
    span = float(np.abs(X).max()) + 10.0 / math.sqrt(C) + 1.0

    def value(beta_vec):
        u = proj + y[:, None] * beta_vec[None, :]
        v = np.where(u >= k, 1.0 / np.maximum(u, k), 2.0 * math.sqrt(C) - C * u)
        return v.sum(axis=0)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(n_angles, -span)
    hi = np.full(n_angles, span)
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = value(c), value(d)
    for _ in range(beta_iters):
        shrink = fc < fd
        hi = np.where(shrink, d, hi)
        lo = np.where(shrink, lo, c)
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = value(c), value(d)
    return float(np.minimum(fc, fd).min())


@pytest.fixture(scope="session")
def mushrooms():
    from diproperm import mushrooms50

    return mushrooms50()


# --- the single-problem DWD iteration ---------------------------------------
# The package fits many label vectors in lockstep.  This is the iteration
# each of them must follow, written for one problem with scalar step
# control, so a batched row can be compared with it bit for bit.

def reference_dwd(X, y, C, tol=1e-5, max_iter=5000):
    """Projected gradient with Barzilai-Borwein trial steps and Armijo
    backtracking on w = Xᵀc.  Returns the oriented unit w, beta,
    iterations, objective, final step length, objective trace and
    whether the step length reached tol."""
    K = X @ X.T
    yf = y.astype(np.float64)
    sqrt_c = math.sqrt(C)

    def loss(Kc, beta):
        u = yf * (Kc + beta)
        recip = 1.0 / np.maximum(u, 1.0 / sqrt_c)
        hi = u >= 1.0 / sqrt_c
        return np.where(hi, recip, 2.0 * sqrt_c - C * u), np.where(hi, -recip * recip, -C)

    def value_grad(Kc, beta):
        v, gu = loss(Kc, beta)
        g = yf * gu
        return float(v.sum()), g, K @ g, float(gu @ yf)

    c = yf / np.where(y == 1, np.sum(y == 1), np.sum(y == -1))
    nrm = float(np.linalg.norm(X.T @ c))
    c = c / nrm if nrm >= 1e-12 else np.zeros(len(y))
    Kc = K @ c
    beta = -0.5 * float(Kc[y == 1].mean() + Kc[y == -1].mean())
    f, g, Kg, gb = value_grad(Kc, beta)
    t = 1.0 / max(1.0, math.sqrt(max(float(g @ Kg), 0.0) + gb * gb))
    trace, step, converged = [f], math.inf, False
    for iterations in range(1, max_iter + 1):
        while True:
            c_t, Kc_t, b_t = c - t * g, Kc - t * Kg, beta - t * gb
            nw = math.sqrt(max(float(c_t @ Kc_t), 0.0))
            if nw > 1.0:
                c_t, Kc_t = c_t / nw, Kc_t / nw
            Kdc, db = Kc_t - Kc, b_t - beta
            step_sq = max(float((c_t - c) @ Kdc), 0.0) + db * db
            if step_sq == 0.0:
                new = f, g, Kg, gb
                break
            f_t = float(loss(Kc_t, b_t)[0].sum())
            if f_t <= f + float(g @ Kdc) + gb * db + step_sq / (2.0 * t) and f_t <= f:
                new = value_grad(Kc_t, b_t)
                sy = float((new[1] - g) @ Kdc) + (new[3] - gb) * db
                t = min(max(step_sq / sy, 1e-16), 1e16) if sy > 0.0 else t * 2.0
                break
            t *= 0.5
            if t < 1e-20:
                step_sq, new = 0.0, (f, g, Kg, gb)
                break
        step = math.sqrt(step_sq)
        c, Kc, beta = c_t, Kc_t, b_t
        f, g, Kg, gb = new
        trace.append(f)
        if step <= tol:
            converged = True
            break
    w = X.T @ c
    nw = float(np.linalg.norm(w))
    scores = K @ c + beta
    sign = -1.0 if scores[y == 1].mean() < scores[y == -1].mean() else 1.0
    return (sign * w / nw, sign * beta / nw, iterations, f, step, tuple(trace),
            converged)
