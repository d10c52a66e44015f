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
from diproperm.direction import DEFAULT_TOL, _dwd_batch, _factor
from conftest import (
    grid_oracle,
    make_blobs,
    oracle_gradient,
    oracle_objective,
    reference_dwd,
)


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


def test_dwd_p_much_greater_than_n_is_certified_optimal():
    # KKT conditions of min f(w, beta) over ||w|| <= 1 at the returned
    # unit w: the gradient in w points inward along -w, and f is flat in beta
    for seed in (0, 1, 2):
        ds = make_blobs(n=30, p=2000, seed=seed)
        X, y = ds.features, ds.labels.astype(float)
        C = dp.penalty_parameter(ds)
        model = dp.dwd_direction(ds, C=C)
        w, beta = model.direction.w, model.direction.beta
        gw, gb = oracle_gradient(X, y, w, beta, C)
        gnorm = float(np.linalg.norm(gw))
        assert np.linalg.norm(gw - (gw @ w) * w) <= 1e-4 * gnorm
        assert gw @ w <= 0.0
        assert abs(gb) <= 1e-3 * gnorm
        assert model.objective == pytest.approx(
            oracle_objective(X, y, w, beta, C), rel=1e-9
        )


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
    # the objective after each iteration of the single-problem reference,
    # whose every step the package's fit takes bit for bit
    ds = make_blobs(n=24, p=6, distance=1.0, seed=9)
    C = dp.penalty_parameter(ds)
    model = dp.dwd_direction(ds, C=C)
    w, beta, iters, objective, res, trace, converged, _ = reference_dwd(
        ds.features, ds.labels, C, DEFAULT_TOL)
    assert converged and np.array_equal(model.direction.w, w)
    assert (model.direction.beta, model.iterations, model.objective,
            model.kkt_residual) == (beta, iters, objective, res)
    assert len(trace) == iters + 1 and trace[-1] == objective
    trace = np.array(trace)
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


def test_dwd_batch_rows_match_single_fits_bit_for_bit(mushrooms):
    # each row of a lockstep batch is the single-problem iteration, bit for
    # bit, whether its neighbours stop far earlier or far later than it
    cases = [
        (make_blobs(n=12, p=3, distance=1.0, seed=1), 1),
        (mushrooms, 2),
        (dp.synthetic_blobs(60, 500, seed=0), 3),
        (make_blobs(n=100, p=2, distance=3.0, seed=4), 4),
        (make_blobs(n=200, p=20, distance=2.0, seed=5), 5),
    ]
    interior = 0  # rows whose optimum is inside the ball
    for ds, seed in cases:
        X, C = ds.features, dp.penalty_parameter(ds)
        # a sample alone against the rest takes 2-4x the Newton iterations
        # of a relabeling; on the 12 x 3 blobs it takes 9-14, and the
        # relabelings 1-15 include one of 5
        alone = [np.where(np.arange(len(X)) == i, 1, -1) for i in range(min(len(X), 60))]
        Y = np.array([ds.labels] + [
            dp.permute_labels(ds.labels, "unbalanced", dp.derive_stream(seed, b))
            for b in range(1, 16)] + alone)
        batch = list(_dwd_batch(X, Y, _factor(X), C, DEFAULT_TOL, 5000))
        iterations = [m.iterations for m in batch]
        assert max(iterations) >= 2 * min(iterations)
        for y, m in zip(Y, batch):
            single = dp.dwd_direction(dp.LabeledDataset(X, y), C=C)
            w, beta, iters, objective, res, _, converged, nw = reference_dwd(
                X, y, C, DEFAULT_TOL)
            assert converged
            # KKT of min f over ||w|| <= 1 at the solution (nw w, nw beta):
            # on the sphere the w-gradient is -lam w with lam >= 0, inside
            # the ball it is zero; f is flat in beta
            yf = y.astype(float)
            gw, gb = oracle_gradient(X, yf, nw * w, nw * beta, C)
            if nw > 1.0 - 1e-9:
                lam = -float(gw @ w)
                assert lam >= 0.0
                assert np.linalg.norm(gw + lam * w) <= 1e-7 * lam
                assert abs(gb) <= 1e-6 * lam
            else:  # against the gradient's terms before they cancel
                dv = np.abs(dp.dwd_loss_grad(yf * (X @ (nw * w) + nw * beta), C))
                interior += 1
                assert np.linalg.norm(gw) <= 1e-7 * np.linalg.norm(np.abs(X).T @ dv)
                assert abs(gb) <= 1e-7 * dv.sum()
            for fit in (m, single):
                assert np.array_equal(fit.direction.w, w)
                assert fit.direction.beta == beta
                assert fit.iterations == iters and isinstance(fit.iterations, int)
                assert fit.objective == objective and fit.kkt_residual == res
            assert m.training_error == single.training_error
    assert interior > 0


def test_stacked_kernels_give_each_row_its_single_bits():
    # the premise of batch rows = single fits, on whatever numpy runs this:
    # every stacked kernel the solver calls gives a row of a k-row stack
    # the bits of a one-row stack and of the plain single call (the
    # bordered Newton system, its diagonal shifted in place through a
    # strided view, and the masked class means among them)
    rng = np.random.default_rng(0)
    n = 100
    for r in (2, 25, 60):
        Z = rng.normal(size=(n, r + 1))
        for k in (1, 2, 50, 101):
            x, q = rng.normal(size=(k, r + 1)), rng.normal(size=(k, n))
            d = rng.uniform(0.0, 2.0, size=(k, n))
            M = np.matmul(Z.T * d[:, None, :], Z) + np.eye(r + 1)
            b = rng.normal(size=(k, r + 1, 1))
            Z2 = np.hstack([Z, np.zeros((n, 1))])  # the bordered system
            mask, shift = q > 0.0, rng.uniform(0.0, 1.0, size=k)

            def shifted(i):  # a diagonal updated in place through a strided view
                S = np.matmul(Z2.T * d[i, None, :], Z2)
                S.reshape(len(S), -1)[:, ::r + 3][:, :r + 1] += shift[i, None]
                return S
            kernels = [  # (stacked, single)
                (lambda i: np.matmul(Z, x[i, :, None])[:, :, 0], lambda i: Z @ x[i]),
                (lambda i: np.matmul(q[i, None, :], Z)[:, 0, :], lambda i: q[i] @ Z),
                (lambda i: np.matmul(Z.T * d[i, None, :], Z), lambda i: (Z.T * d[i]) @ Z),
                (lambda i: np.linalg.solve(M[i], b[i]), lambda i: np.linalg.solve(M[i], b[i])),
                (lambda i: (q[i] * q[i]).sum(axis=1), lambda i: (q[i] * q[i]).sum()),
                (lambda i: np.matmul(Z2.T * d[i, None, :], Z2), lambda i: (Z2.T * d[i]) @ Z2),
                (shifted, lambda i: (Z2.T * d[i]) @ Z2 + np.diag(np.r_[np.full(r + 1, shift[i]), 0.0])),
                (lambda i: (q[i] * mask[i]).sum(axis=1) / mask[i].sum(axis=1),
                 lambda i: float((q[i] * mask[i]).sum()) / int(mask[i].sum())),
            ]
            rows = np.arange(k)
            for stacked, single in kernels:
                whole = stacked(rows)
                for i in rows:
                    assert whole[i].tobytes() == stacked([i])[0].tobytes()
                    assert whole[i].tobytes() == np.asarray(single(i)).tobytes()


def test_dwd_batch_failures_in_row_order():
    # rows are handed out in order; the first failing row raises, and its
    # NonConvergedError carries the single fit's iterations and model
    A = np.array([[0.1, -0.1], [0.6, 0.1], [-0.5, 0.4], [1.3, 0.9]])
    X = np.vstack([A, -A])
    fast = np.array([1, 1, 1, 1, -1, -1, -1, -1])  # converges in 3 iterations
    slow = np.array([1, 1, 1, -1, -1, -1, -1, 1])  # needs 4
    no_w = np.array([1, 1, -1, -1, 1, 1, -1, -1])  # symmetric classes: w = 0

    def single(y):
        return dp.dwd_direction(dp.LabeledDataset(X, y), C=1.0, max_iter=3)

    with pytest.raises(NonConvergedError) as expected:
        single(slow)
    with pytest.raises(ZeroDirectionError):
        single(no_w)
    raised = []
    for Y, error in (((fast, slow, no_w), NonConvergedError),
                     ((fast, no_w, slow), ZeroDirectionError)):
        rows = _dwd_batch(X, np.array(Y), _factor(X), 1.0, DEFAULT_TOL, 3)
        assert np.array_equal(next(rows).direction.w, single(fast).direction.w)
        with pytest.raises(error) as exc:
            next(rows)
        raised.append(exc.value)
    err, ref = raised[0], expected.value
    assert err.iterations == ref.iterations == 3
    assert err.kkt_residual == ref.kkt_residual
    assert np.array_equal(err.model.direction.w, ref.model.direction.w)
    assert err.model.objective == ref.model.objective


def test_dwd_invalid_parameters():
    ds = make_blobs(n=10, seed=0)
    with pytest.raises(DegenerateScaleError):
        dp.dwd_direction(ds, C=-1.0)
    for tol in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="tol"):
            dp.dwd_direction(ds, C=1.0, tol=tol)
    # max_iter follows PermutationPlan.B's rule: 2.5 used to run 3
    # iterations and end in a NonConvergedError
    for max_iter in (0, 2.5, 3.0, "3", None):
        with pytest.raises(ValidationError, match="max_iter"):
            dp.dwd_direction(ds, C=1.0, max_iter=max_iter)
    assert dp.dwd_direction(ds, C=1.0, max_iter=np.int64(50)).iterations <= 50


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
