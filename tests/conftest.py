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

def reference_dwd(X, y, C, tol, max_iter=5000):
    """Newton's method on the coefficients (a, b) of a factor
    K = Xc Xcᵀ = Z Zᵀ of the centered X:
    bordered KKT steps on the sphere ||a|| = 1 while its multiplier is
    positive, plain Newton steps otherwise, both shifted on the diagonal
    by min(res, res²) for the KKT residual res, an Armijo step rescaled into
    the ball, stopping on the KKT residual.  It starts from the md rule
    with the class-mean midpoint, which a y with classes of unequal size
    moves by one Newton step in b alone, clipped to [-1, 1] (sign(g_b)
    where b has no curvature).  A bordered step with k < r/2
    active samples (V_1'' > 0) goes through a k x k system padded to the
    next power of two >= 16 (Sherman-Morrison-Woodbury), its last 2 x 2
    system solved by Cramer's rule.  Returns the
    oriented unit w, beta, iterations, objective, KKT residual, objective
    trace, whether the residual reached tol, ||w|| at the solution (1 on
    the sphere; w and beta are the solution's divided by it), and the
    number of steps that took the k x k form."""
    center = X.mean(axis=0)  # the intercept is free: factor the centered X
    Xc = X - center
    K = Xc @ Xc.T  # = Z Zᵀ, by Cholesky with diagonal pivoting to the rank r
    n, d, piv = len(K), K.diagonal().copy(), []
    Z = np.zeros((n, n))
    for j in range(min(n - 1, X.shape[1])):  # the rank of Xc
        i = int(np.argmax(d))
        if d[i] <= n * np.finfo(np.float64).eps * K.diagonal().max():
            break
        Z[:, j] = (K[:, i] - Z[:, :j] @ Z[i, :j]) / math.sqrt(d[i])
        d -= Z[:, j] * Z[:, j]
        piv.append(i)
        d[piv] = 0.0
    r = len(piv)
    Z = Z[:, :r].copy()
    P = np.zeros((n, r))
    P[piv] = np.linalg.inv(Z[piv]).T  # w = Xcᵀ P a: Xc w = Z a, ||w|| = ||a||
    root_c = math.sqrt(C)
    Z1 = np.hstack([root_c * Z, np.ones((n, 1))])
    Z2 = np.hstack([Z1, np.zeros((n, 1))])
    Za = np.vstack([Z1[:, :r], np.zeros((1, r))])  # row n pads U with zeros
    Ga = Za @ Za.T
    yf = y.astype(np.float64)

    def loss(x):  # V_1, V_1' and V_1'' at the margins y Z1 x
        u = yf * (Z1 @ x)
        hi = u >= 1.0
        recip = 1.0 / np.maximum(u, 1.0)
        gu = np.where(hi, -recip * recip, -1.0)
        return np.where(hi, recip, 2.0 - u), gu, np.where(hi, -2.0 * gu / np.maximum(u, 1.0), 0.0)

    def at(x):  # f, gradient, V_1'', ball multiplier, ||a||, KKT residual
        v, gu, curv = loss(x)
        g = (yf * gu) @ Z1
        lam = max(-float((x[:r] * g[:r]).sum()), 0.0)
        na = math.sqrt(float((x[:r] * x[:r]).sum()))
        tangent = g[:r] + lam * x[:r]
        comp = lam * (1.0 - na)
        res = math.sqrt(float((tangent * tangent).sum()) + g[r] * g[r] + comp * comp)
        return float(v.sum()), g, curv, lam, na, res

    def active_step(x, g, curv, lam, mu):  # N = s I + Uᵀ D U by Woodbury
        act = np.flatnonzero(curv > 0.0)
        size = 16
        while size < len(act):
            size *= 2
        idx = np.r_[act, np.full(size - len(act), n)]
        c, s = np.r_[curv, 0.0][idx], lam + mu
        U = Za[idx]
        T = Ga[np.ix_(idx, idx)]
        T[np.diag_indices(size)] += s / np.where(idx < n, c, s)
        h = (U.T @ c[:, None])[:, 0]
        V = np.stack([-g[:r], h, x[:r]], axis=1)
        Y = (V - U.T @ np.linalg.solve(T, U @ V)) / s
        Q = np.stack([h, x[:r]]) @ Y
        # [[e, -q], [p, gg]] (db, nu) = (f0, f1) by Cramer's rule
        e, q, p, gg = c.sum() + mu - Q[0, 1], Q[0, 2], Q[1, 1], Q[1, 2]
        f0, f1 = -g[r] - Q[0, 0], Q[1, 0]
        det = e * gg + q * p
        db, nu = (f0 * gg + q * f1) / det, (e * f1 - p * f0) / det
        return np.r_[Y[:, 0] - Y[:, 1] * db - Y[:, 2] * nu, db]

    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())

    def class_means(s):
        return float((s * pos).sum()) / n_pos, float((s * ~pos).sum()) / n_neg

    a0 = (yf / np.where(pos, n_pos, n_neg)) @ Z
    nrm = math.sqrt(float((a0 * a0).sum()))
    x = np.zeros(r + 1)
    if nrm >= 1e-12:
        x[:r] = a0 / nrm
    mean_pos, mean_neg = class_means(Z1 @ x)
    x[r] = -0.5 * (mean_pos + mean_neg)
    if 2 * n_pos != n:  # unequal classes: one Newton step in b alone
        _, gu, curv = loss(x)
        gb, hb = float((yf * gu).sum()), float(curv.sum())
        x[r] -= min(max(gb / hb if hb > 0.0 else float(np.sign(gb)), -1.0), 1.0)
    f, g, curv, lam, na, res = at(x)
    trace, iterations, active = [root_c * f], 0, 0
    while res > tol and iterations < max_iter:
        on = na > 1.0 - 1e-9 and lam > 0.0
        mu = min(res, res * res)
        if on and 2 * int((curv > 0.0).sum()) < r:
            d = active_step(x, g, curv, lam, mu)
            active += 1
        else:
            M = (Z2.T * curv) @ Z2  # zero in the border row and column
            for i in range(r + 1):
                M[i, i] += mu
                if on and i < r:
                    M[i, i] += lam
            if on:
                M[:r, r + 1] = M[r + 1, :r] = x[:r]
            else:
                M[r + 1, r + 1] = 1.0
            d = np.linalg.solve(M, np.r_[-g, 0.0][:, None])[:r + 1, 0]
        slope = float((g * d).sum())
        t = 1.0
        while True:
            x_t = x + t * d
            x_t[:r] /= max(math.sqrt(float((x_t[:r] * x_t[:r]).sum())), 1.0)
            new = at(x_t)
            if new[0] <= f * (1.0 + 1e-13) + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-12:
                new = None
                break
        if new is None:  # no step decreases f
            break
        x, (f, g, curv, lam, na, res) = x_t, new
        iterations += 1
        trace.append(root_c * f)
    w = Xc.T @ (P @ x[:r])
    nw = float(np.linalg.norm(w))
    mean_pos, mean_neg = class_means(Z1 @ x)
    sign = -1.0 if mean_pos < mean_neg else 1.0
    beta = x[r] / root_c - center @ w  # Xc w + b / sqrt(C) = X w + beta
    return (sign * w / nw, sign * beta / nw, iterations, root_c * f,
            res, tuple(trace), res <= tol, nw, active)
