"""Mean-difference and DWD direction tests."""

import math
import tracemalloc

import numpy as np
import pytest

import diproperm as dp
from diproperm.errors import (
    DegenerateScaleError,
    NonConvergedError,
    ValidationError,
    ZeroDirectionError,
)
from conftest import grid_oracle, make_blobs, oracle_objective


def test_md_unit_difference():
    ds = dp.LabeledDataset([[1, 0], [1, 0], [0, 0], [0, 0]], [1, 1, -1, -1])
    d = dp.md_direction(ds)
    assert np.allclose(d.w, [1, 0])
    assert d.beta == pytest.approx(-0.5)


def test_md_hand_arithmetic():
    ds = dp.LabeledDataset([[2, 1], [4, 3], [0, 1], [2, -1]], [1, 1, -1, -1])
    d = dp.md_direction(ds)
    s = 1 / math.sqrt(2)
    assert np.allclose(d.w, [s, s])
    # midpoint of class means is (2, 1)
    assert d.beta == pytest.approx(-3 / math.sqrt(2))


def test_md_identical_means():
    ds = dp.LabeledDataset([[3, 3], [3, 3], [3, 3], [3, 3]], [1, 1, -1, -1])
    with pytest.raises(ZeroDirectionError):
        dp.md_direction(ds)


def test_md_translation_invariance_and_label_flip():
    ds = make_blobs(n=12, seed=3)
    d = dp.md_direction(ds)
    shifted = dp.LabeledDataset(ds.features + 13.5, ds.labels)
    assert np.allclose(dp.md_direction(shifted).w, d.w)
    flipped = dp.LabeledDataset(ds.features, -ds.labels)
    assert np.allclose(dp.md_direction(flipped).w, -d.w)


def test_orientation_convention():
    for seed in range(5):
        ds = make_blobs(n=14, distance=1.0, seed=seed)
        for d in (dp.md_direction(ds), dp.dwd_direction(ds).direction):
            s = dp.project(ds, d)
            neg, pos = s.split()
            assert pos.mean() >= neg.mean()


def test_penalty_parameter_value():
    ds = dp.LabeledDataset([[0, 0], [0, 0], [10, 0], [10, 0]], [1, 1, -1, -1])
    assert dp.penalty_parameter(ds) == pytest.approx(1.0)


def test_penalty_parameter_scaling():
    ds = make_blobs(n=10, seed=2)
    c1 = dp.penalty_parameter(ds)
    scaled = dp.LabeledDataset(3.0 * ds.features, ds.labels)
    assert dp.penalty_parameter(scaled) == pytest.approx(c1 / 9.0, rel=1e-12)


def test_penalty_parameter_matches_tensor_formula_in_small_memory(mushrooms):
    def tensor_formula(ds):
        neg, pos = ds.features[ds.labels == -1], ds.features[ds.labels == 1]
        diffs = pos[:, None, :] - neg[None, :, :]
        med = np.median(np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)))
        return 100.0 / (med * med)

    hdlss = dp.synthetic_blobs(60, 5000, seed=0)
    for ds in (mushrooms, make_blobs(n=15, p=3, seed=1), hdlss):
        assert dp.penalty_parameter(ds) == tensor_formula(ds)
    # the n- x n+ x p difference tensor alone would take 36 MB here
    tracemalloc.start()
    try:
        dp.penalty_parameter(hdlss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_penalty_parameter_degenerate():
    ds = dp.LabeledDataset(np.ones((4, 2)), [-1, 1, -1, 1])
    with pytest.raises(DegenerateScaleError):
        dp.penalty_parameter(ds)


def test_loss_continuity_at_knot():
    for C in (0.25, 1.0, 7.0, 144.0):
        knot = 1.0 / math.sqrt(C)
        # the two closed-form branches agree at the knot itself
        reciprocal_branch = 1.0 / knot
        linear_branch = 2.0 * math.sqrt(C) - C * knot
        assert abs(reciprocal_branch - linear_branch) < 1e-10
        assert abs(-1.0 / knot**2 - (-C)) < 1e-10
        assert float(dp.dwd_loss(knot, C)) == pytest.approx(math.sqrt(C), rel=1e-12)
        assert float(dp.dwd_loss_grad(knot, C)) == pytest.approx(-C, rel=1e-12)
        # approaching the knot from both sides: jump vanishes beyond the
        # slope-induced O(C*eps) term
        eps = 1e-12
        v_jump = abs(dp.dwd_loss(knot - eps, C) - dp.dwd_loss(knot + eps, C))
        assert v_jump <= 2.0 * C * eps + 1e-10
        g_jump = abs(dp.dwd_loss_grad(knot - eps, C) - dp.dwd_loss_grad(knot + eps, C))
        assert g_jump <= 4.0 * C ** 1.5 * eps + 1e-10


def test_loss_convexity_samples():
    u = np.linspace(-3, 5, 401)
    v = dp.dwd_loss(u, 2.0)
    second = v[:-2] - 2 * v[1:-1] + v[2:]
    assert np.all(second >= -1e-9)


def test_dwd_1d_symmetric():
    ds = dp.LabeledDataset([[-1], [-1], [1], [1]], [-1, -1, 1, 1])
    model = dp.dwd_direction(ds, C=1.0)
    assert model.direction.w[0] == pytest.approx(1.0)
    assert abs(model.direction.beta) < 1e-9
    assert model.training_error == 0.0
    assert model.kkt_residual <= 1e-5


def test_dwd_matches_grid_oracle_smoke():
    for seed in (0, 1, 2):
        ds = make_blobs(n=16, distance=4.0, seed=seed)
        C = dp.penalty_parameter(ds)
        model = dp.dwd_direction(ds, C=C)
        best = grid_oracle(ds.features, ds.labels, C, n_angles=4000)
        assert model.objective <= best + 1e-3
        assert abs(model.objective - best) / best < 1e-3


def test_dwd_objective_equals_loss_sum():
    ds = make_blobs(n=12, seed=7)
    C = 2.5
    model = dp.dwd_direction(ds, C=C)
    d = model.direction
    assert model.objective == pytest.approx(
        oracle_objective(ds.features, ds.labels.astype(float), d.w, d.beta, C),
        rel=1e-9,
    )


def test_dwd_trace_monotone():
    ds = make_blobs(n=24, p=6, distance=1.0, seed=9)
    model = dp.dwd_direction(ds, keep_trace=True)
    trace = np.array(model.objective_trace)
    assert len(trace) == model.iterations + 1
    assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0]))


def test_dwd_training_error_tie_rule():
    ds = make_blobs(n=20, distance=3.0, std=1.2, seed=11)
    model = dp.dwd_direction(ds)
    margins = ds.labels * (ds.features @ model.direction.w + model.direction.beta)
    assert model.training_error == pytest.approx(float((margins <= 0).mean()))


def test_dwd_non_converged_carries_model():
    ds = make_blobs(n=20, distance=1.0, seed=4)
    with pytest.raises(NonConvergedError) as exc:
        dp.dwd_direction(ds, max_iter=2, tol=1e-12)
    assert exc.value.iterations == 2
    assert exc.value.model is not None
    assert exc.value.model.direction.w.shape == (2,)


def test_dwd_invalid_parameters():
    ds = make_blobs(n=10, seed=0)
    with pytest.raises(DegenerateScaleError):
        dp.dwd_direction(ds, C=-1.0)
    with pytest.raises(ValidationError):
        dp.dwd_direction(ds, C=1.0, tol=-1.0)


def test_direction_requires_unit_norm():
    with pytest.raises(ValidationError):
        dp.Direction([1.0, 1.0], 0.0)


def test_loadings_sorting_and_ties():
    d = dp.Direction([0.6, -0.8], 0.0)
    out = dp.loadings_of(d, 2)
    assert [(ld.index, ld.value) for ld in out] == [(2, -0.8), (1, 0.6)]
    s = 0.5
    tied = dp.loadings_of(dp.Direction([s, -s, s, -s], 0.0))
    assert [ld.index for ld in tied] == [1, 2, 3, 4]


def test_loadings_names_and_range():
    d = dp.Direction([0.6, -0.8], 0.0)
    named = dp.loadings_of(d, 2, names=("alpha", "beta"))
    assert named[0].name == "beta"
    with pytest.raises(IndexError):
        dp.loadings_of(d, 3)
    with pytest.raises(IndexError):
        dp.loadings_of(d, 0)


def test_dwd_mushrooms_training_error_zero(mushrooms):
    model = dp.dwd_direction(mushrooms)
    assert model.training_error == 0.0
    scores = dp.project(mushrooms, model.direction)
    assert dp.stat_md(scores) > 2.0
