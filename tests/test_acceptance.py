"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured quantities so the
run log doubles as a reproduction record.  Tolerances are fixed here and
nowhere else.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

import diproperm as dp
from diproperm import engine
from conftest import grid_oracle, make_blobs

WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def mushrooms_run(mushrooms):
    t0 = time.time()
    result = dp.diproperm(
        mushrooms,
        dp.PermutationPlan(scheme="balanced", B=1000, seed=5),
        classifier="dwd",
        statistic="md",
        alpha=0.05,
        workers=WORKERS,
    )
    return result, time.time() - t0


def test_criterion_1_mushrooms_reproduction(mushrooms, mushrooms_run):
    result, elapsed = mushrooms_run
    assert mushrooms.features.shape == (50, 112)
    assert mushrooms.class_counts() == (38, 12)
    assert result.observed_model.training_error == 0.0
    assert result.p_value <= 0.001
    assert result.z_score >= 8.0
    assert 0.45 <= result.cutoff <= 0.90
    assert elapsed <= 300.0
    print(
        f"ACCEPTANCE 1 PASS: mushrooms n=50 p=112, training_error="
        f"{result.observed_model.training_error}, p={result.p_value}, "
        f"z={result.z_score:.2f}, cutoff={result.cutoff:.3f}, "
        f"runtime={elapsed:.0f}s (workers={WORKERS})"
    )


def test_criterion_2_loadings_concordance(mushrooms_run):
    result, _ = mushrooms_run
    top5 = [ld.index for ld in result.loadings[:5]]
    reference = {29, 37, 36, 111, 20}
    overlap = len(set(top5) & reference)
    first = result.loadings[0]
    assert overlap >= 3
    assert first.index == 29
    assert first.value > 0.0
    assert 0.35 <= first.value <= 0.70
    print(
        f"ACCEPTANCE 2 PASS: top5={top5} overlap={overlap}/5, "
        f"loading[29]={first.value:.4f} ({first.name})"
    )


def test_criterion_3_exactness_under_null():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    rejections = 0
    runs = 200
    for i in range(runs):
        X = rng.standard_normal((40, 50))
        y = np.r_[np.full(20, -1), np.full(20, 1)]
        result = dp.diproperm(
            dp.LabeledDataset(X, y),
            dp.PermutationPlan(scheme="unbalanced", B=99, seed=1000 + i),
            classifier="md",
            statistic="md",
            alpha=0.05,
            workers=1,
        )
        rejections += result.p_value <= 0.05
    elapsed = time.time() - t0
    rate = rejections / runs
    assert 0.01 <= rate <= 0.10
    assert elapsed <= 600.0
    print(
        f"ACCEPTANCE 3 PASS: null rejection rate {rate:.3f} over {runs} runs "
        f"(runtime {elapsed:.0f}s)"
    )


def test_criterion_4_brute_force_oracle_equivalence():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(6, 2))
    X[3:, 0] += 1.5
    y = np.r_[np.full(3, -1), np.full(3, 1)]

    # independent oracle: every distinct 3/3 relabeling, own statistic code
    def md_stat(labels):
        pos = X[labels == 1].mean(axis=0)
        neg = X[labels == -1].mean(axis=0)
        d = pos - neg
        w = d / np.linalg.norm(d)
        proj = X @ w
        return abs(proj[labels == 1].mean() - proj[labels == -1].mean())

    observed = md_stat(y)
    exhaustive = []
    for pos_idx in itertools.combinations(range(6), 3):
        labels = np.full(6, -1)
        labels[list(pos_idx)] = 1
        exhaustive.append(md_stat(labels))
    p_exact = sum(s >= observed for s in exhaustive) / len(exhaustive)
    assert len(exhaustive) == 20

    result = dp.diproperm(
        dp.LabeledDataset(X, y),
        dp.PermutationPlan(scheme="unbalanced", B=10_000, seed=123),
        classifier="md",
        statistic="md",
        alpha=0.05,
        workers=1,
    )
    assert abs(result.p_value - p_exact) <= 0.02
    print(
        f"ACCEPTANCE 4 PASS: exact p={p_exact:.4f}, monte carlo "
        f"p={result.p_value:.4f} (B=10000)"
    )


def test_criterion_5_dwd_solver_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 31))
        n_neg = int(rng.integers(4, n - 3))
        X = rng.normal(size=(n, 2))
        X[:n_neg, 0] -= 2.0
        X[n_neg:, 0] += 2.0
        y = np.r_[np.full(n_neg, -1), np.full(n - n_neg, 1)]
        ds = dp.LabeledDataset(X, y)
        C = dp.penalty_parameter(ds)
        model = dp.dwd_direction(ds, C=C)
        best = grid_oracle(X, y.astype(float), C, n_angles=10_000)
        rel = abs(model.objective - best) / best
        worst = max(worst, rel)
        assert rel <= 1e-3

    for C in (0.5, 7.0, 100.0):
        knot = 1.0 / math.sqrt(C)
        assert abs(1.0 / knot - (2.0 * math.sqrt(C) - C * knot)) <= 1e-10
        assert abs(-1.0 / knot**2 - (-C)) <= 1e-10
    print(
        f"ACCEPTANCE 5 PASS: 20 instances, worst relative objective gap "
        f"{worst:.2e}; loss value/derivative continuous at the knot"
    )


def test_criterion_6_parallel_determinism(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_MIN_BLOCK", 1)  # fork blocks of B=60 too
    ds = make_blobs(n=24, p=6, distance=2.5, std=1.0, seed=21)
    plan = dp.PermutationPlan(scheme="balanced", B=60, seed=9)
    outputs = {}
    for workers in (1, 2, 8):
        result = dp.diproperm(
            ds, plan, classifier="dwd", statistic="md", workers=workers
        )
        path = tmp_path / f"w{workers}.json"
        dp.emit_result_json(result, path)
        outputs[workers] = (result.perm_statistics, path.read_bytes())
    base_stats, base_json = outputs[1]
    for workers in (2, 8):
        stats, blob = outputs[workers]
        assert np.array_equal(stats, base_stats)  # bit-identical
        assert blob == base_json
    print(
        "ACCEPTANCE 6 PASS: workers 1/2/8 produce bit-identical "
        "perm_statistics and identical result JSON"
    )


def test_criterion_7_statistic_invariances():
    rng = np.random.default_rng(4242)
    cases = 1000
    for _ in range(cases):
        n = int(rng.integers(4, 40))
        scores = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        labels = rng.permutation(np.r_[np.full(2, -1), np.full(2, 1),
                                       rng.choice([-1, 1], size=n - 4)])
        ps = dp.ProjectionScores(scores, labels)
        flipped = dp.ProjectionScores(scores, -labels)
        a = rng.uniform(-5, 5)
        while abs(a) < 1e-3:
            a = rng.uniform(-5, 5)
        b = rng.uniform(-10, 10)
        affine = dp.ProjectionScores(a * scores + b, labels)

        md, med = dp.stat_md(ps), dp.stat_med(ps)
        assert md >= 0.0 and med >= 0.0
        assert dp.stat_md(flipped) == pytest.approx(md, rel=1e-9, abs=1e-9)
        assert dp.stat_med(flipped) == pytest.approx(med, rel=1e-9, abs=1e-9)
        assert dp.stat_md(affine) == pytest.approx(abs(a) * md, rel=1e-9, abs=1e-8)
        assert dp.stat_med(affine) == pytest.approx(abs(a) * med, rel=1e-9, abs=1e-8)
        try:
            t = dp.stat_t(ps)
        except dp.errors.ZeroVarianceError:
            continue
        assert t >= 0.0
        assert dp.stat_t(flipped) == pytest.approx(t, rel=1e-9, abs=1e-9)
        assert dp.stat_t(affine) == pytest.approx(t, rel=1e-6, abs=1e-8)
    print(f"ACCEPTANCE 7 PASS: invariance suite over {cases} random score sets")


def test_criterion_8_blob_example_power():
    t0 = time.time()
    rejections = 0
    runs = 100
    for seed in range(runs):
        ds = dp.synthetic_blobs(
            n_samples=100, n_features=2, center_distance=6.0,
            cluster_std=2.0, seed=seed,
        )
        result = dp.diproperm(
            ds,
            dp.PermutationPlan(scheme="balanced", B=1000, seed=seed),
            classifier="dwd",
            statistic="md",
            alpha=0.05,
            workers=WORKERS,
        )
        rejections += result.p_value <= 0.05
    elapsed = time.time() - t0
    assert rejections >= 95
    print(
        f"ACCEPTANCE 8 PASS: {rejections}/{runs} rejections at alpha=0.05 "
        f"(runtime {elapsed:.0f}s)"
    )
