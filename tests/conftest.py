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
