"""Mean-difference and DWD direction tests."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import diproperm as dp
import diproperm.direction as direction
from diproperm.errors import (
    DegenerateScaleError,
    NonConvergedError,
    ValidationError,
    ZeroDirectionError,
)
from diproperm.direction import (
    DEFAULT_TOL,
    _active_step,
    _dwd_batch,
    _factor,
    _gram,
    _md_batch,
    _penalty,
)
from conftest import (
    grid_oracle,
    make_blobs,
    oracle_gradient,
    oracle_objective,
    reference_dwd,
)


@pytest.mark.parametrize("classifier", ["md", "dwd"])
@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-13, 1e-10, 1e10, 1e100, 1e150])
def test_answers_are_scale_equivariant(classifier, scale):
    # no threshold is absolute: well-separated data is fit at any scale
    # whose X Xᵀ is a normal float64, and the statistics scale with it
    ds = dp.synthetic_blobs(40, 5, seed=0)
    plan = dp.PermutationPlan("balanced", 20, 0)
    ref, r = (dp.diproperm(d, plan, classifier=classifier, workers=1) for d in (
        ds, dp.LabeledDataset(ds.features * scale, ds.labels)))
    assert r.observed_statistic / scale == pytest.approx(ref.observed_statistic, rel=1e-14)
    assert np.allclose(r.perm_statistics / scale, ref.perm_statistics, rtol=1e-14, atol=0)
    assert r.p_value == ref.p_value


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


def _md_reference(X, y):
    """The md rule by its formula: the unit class-mean difference w, the
    midpoint intercept beta and the scores X w + beta, in exact rational
    arithmetic.  Float64 class means would not do: on data translated by
    +1e6 their difference is off by ~1e-10 relative."""
    rows = [[Fraction(v) for v in x] for x in X.tolist()]

    def mean(label):
        members = [row for row, l in zip(rows, y.tolist()) if l == label]
        return [sum(col) / len(members) for col in zip(*members)]

    pos, neg = mean(1), mean(-1)
    diff = np.array([float(a - b) for a, b in zip(pos, neg)])
    w = diff / np.linalg.norm(diff)
    mid, wq = [(a + b) / 2 for a, b in zip(pos, neg)], [Fraction(v) for v in w.tolist()]
    scores = [float(sum((v - m) * u for v, m, u in zip(row, mid, wq))) for row in rows]
    return w, -float(sum(m * u for m, u in zip(mid, wq))), np.array(scores)


@pytest.mark.parametrize("case", ["n > p", "p > n", "rank-deficient", "translated",
                                  "scaled up", "scaled down", "unequal scales",
                                  "small spread"])
def test_md_matches_its_closed_form(case, mushrooms):
    # md is the class-mean difference of the centered X; its w, beta and
    # projected scores are the formula's, also on features whose scales
    # differ by 1e8 and along a direction whose spread is 1e-9 of the
    # largest sample norm, which a factor of X Xᵀ to its numerical rank cuts
    blobs = dp.synthetic_blobs(200, 10, seed=0)
    X, y = blobs.features, blobs.labels
    ds = {"n > p": blobs, "p > n": dp.synthetic_blobs(60, 500, seed=0),
          "rank-deficient": mushrooms, "translated": dp.LabeledDataset(X + 1e6, y),
          "scaled up": dp.LabeledDataset(X * 1e150, y),
          "scaled down": dp.LabeledDataset(X * 1e-150, y),
          "unequal scales": dp.LabeledDataset(X * np.repeat([1e4, 1e-4], 5), y),
          "small spread": dp.LabeledDataset(
              [[1e6, 1e-3], [-1e6, 1e-3], [1e6, 0.0], [-1e6, 0.0]], [1, 1, -1, -1])}[case]
    w, beta, scores = _md_reference(ds.features, ds.labels)
    d = dp.md_direction(ds)
    for half in np.array_split(np.arange(len(w)), 2):  # each to its own scale
        assert np.linalg.norm(d.w[half] - w[half]) <= 1e-12 * max(np.linalg.norm(w[half]), 1.0)
    assert d.beta == pytest.approx(beta, rel=1e-12, abs=0)
    assert np.abs(dp.project(ds, d).scores - scores).max() <= 1e-12 * np.abs(scores).max()


def _directions_made(monkeypatch):
    """A list that gains an entry for each Direction constructed."""
    made, real = [], dp.Direction.__post_init__
    monkeypatch.setattr(dp.Direction, "__post_init__", lambda self: real(self) or made.append(1))
    return made


def test_md_batch_rows_match_single_fits_bit_for_bit(monkeypatch):
    # rows of an md batch, in and across its ~2 MB chunks (32 rows here;
    # the spy makes sure that the chunks do split), have the bits of
    # one-row batches, as md_direction and project give them; the batch
    # forms no Direction until row(i) is called
    ds = dp.synthetic_blobs(60, 8000, seed=0)
    X = ds.features
    Y = np.array([ds.labels] + [dp.permute_labels(ds.labels, "unbalanced", dp.derive_stream(0, b))
                                for b in range(1, 70)])
    chunks, real = [], direction._chunks
    monkeypatch.setattr(direction, "_chunks", lambda step, budget, *rows: real(
        lambda *chunk: chunks.append(len(chunk[0])) or step(*chunk), budget, *rows))
    made = _directions_made(monkeypatch)
    S, iterations, k, row = _md_batch(X, Y)
    assert len(chunks) >= 2 and made == []
    assert k == len(Y) and iterations.tolist() == [0] * len(Y)
    for i, y in enumerate(Y):
        ds_y = dp.LabeledDataset(X, y)
        single = dp.md_direction(ds_y)
        assert S[i].tobytes() == dp.project(ds_y, single).scores.tobytes()
        before = len(made)
        d, model = row(i)
        assert len(made) == before + 1 and model is None
        assert (d.w.tobytes(), d.beta) == (single.w.tobytes(), single.beta)


def test_md_refuses_class_means_that_coincide_at_the_data_scale():
    # class means 1e-8 apart among samples of norm 1e6: below 1e-12 of the
    # largest (centered) sample norm, the means coincide, for a single fit
    # and for the observed fit of a run
    ds = dp.LabeledDataset([[1e6, 1.0], [-1e6, 1.0], [0.0, 1.0 + 1e-8], [0.0, 1.0 + 1e-8]],
                           [1, 1, -1, -1])
    with pytest.raises(ZeroDirectionError, match="class means coincide"):
        dp.md_direction(ds)
    with pytest.raises(ZeroDirectionError, match="class means coincide") as exc:
        dp.diproperm(ds, dp.PermutationPlan("unbalanced", 20, 0), classifier="md",
                     alpha=0.1, workers=1)
    assert exc.value.perm_index is None


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
    blobs = make_blobs(n=20, p=50, seed=6)
    cases = [
        mushrooms, make_blobs(n=15, p=3, seed=1), hdlss,
        # every distance nine times: ties at the median
        dp.LabeledDataset(np.repeat(blobs.features, 3, axis=0), np.repeat(blobs.labels, 3)),
        # a common offset: X Xᵀ's entries ~1e9, the distances² ~1e2; the
        # centered Gram is read off X - center, whose rounding the bound covers
        dp.LabeledDataset(blobs.features + 1e4, blobs.labels),
        dp.LabeledDataset(mushrooms.features + 1e3, mushrooms.labels),
        dp.LabeledDataset(mushrooms.features + 1e6, mushrooms.labels),
        dp.LabeledDataset(hdlss.features + 1e6, hdlss.labels),
        # n- n+ = 15 (odd) and 16 (even); p = 1
        dp.LabeledDataset(make_blobs(n=8, p=4, seed=2).features, [-1] * 3 + [1] * 5),
        make_blobs(n=8, p=4, seed=2),
        make_blobs(n=11, p=1, seed=3),
        dp.LabeledDataset(make_blobs(n=12, p=1, seed=4).features, [-1] * 5 + [1] * 7),
    ]
    for ds in cases:
        assert dp.penalty_parameter(ds) == tensor_formula(ds)
    # the n- x n+ x p difference tensor alone would take 36 MB here
    tracemalloc.start()
    try:
        dp.penalty_parameter(hdlss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_penalty_parameter_degenerate(mushrooms):
    ds = dp.LabeledDataset(np.ones((4, 2)), [-1, 1, -1, 1])
    with pytest.raises(DegenerateScaleError):
        dp.penalty_parameter(ds)
    # distances of ~1e-157 are not ~0 for their data, but 100 / med²
    # overflows: refused by the penalty itself, not returned as inf
    tiny = dp.LabeledDataset(mushrooms.features * 1e-157, mushrooms.labels)
    for fit in (dp.penalty_parameter, dp.dwd_direction,
                lambda ds: dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 0), workers=1)):
        with pytest.raises(DegenerateScaleError, match="default penalty"):
            fit(tiny)


def test_overflowing_gram_matrix_is_refused_naming_the_data_scale():
    # X Xᵀ of ~1e155 entries overflows; it is refused as such, not as a
    # zero penalty, and no numpy overflow warning escapes
    X = np.random.default_rng(0).normal(size=(20, 5))
    y = [-1] * 10 + [1] * 10
    def run(ds, classifier="dwd"):
        return dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 0), classifier, workers=1)

    huge = dp.LabeledDataset(X * 1e155, y)
    for fit in (dp.penalty_parameter, dp.dwd_direction, run, dp.md_direction,
                partial(run, classifier="md")):
        with pytest.raises(DegenerateScaleError, match=r"largest magnitude is 2\.33e\+155"):
            fit(huge)
    fine = dp.LabeledDataset(X * 1e150, y)
    assert run(fine).observed_statistic == pytest.approx(
        run(dp.LabeledDataset(X, y)).observed_statistic * 1e150, rel=1e-9)
    assert dp.penalty_parameter(fine) == pytest.approx(
        dp.penalty_parameter(dp.LabeledDataset(X, y)) * 1e-300, rel=1e-12)
    assert np.allclose(dp.dwd_direction(fine).direction.w,
                       dp.dwd_direction(dp.LabeledDataset(X, y)).direction.w, atol=1e-9)


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
    w, beta, iters, objective, res, trace, converged, _, _ = reference_dwd(
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


def test_dwd_batch_rows_match_single_fits_bit_for_bit(mushrooms, monkeypatch):
    # each row of a lockstep batch is the single-problem iteration, bit for
    # bit, whether its neighbours stop far earlier or far later than it;
    # the batch forms no Direction (no w) until row(i) is called
    # (data, seed of the relabelings, least max / min iterations of its stack)
    cases = [
        (make_blobs(n=12, p=3, distance=1.0, seed=1), 1, 2),
        (mushrooms, 2, 2),
        (dp.synthetic_blobs(60, 500, seed=0), 3, 2),
        (make_blobs(n=100, p=2, distance=3.0, seed=4), 4, 2),
        (make_blobs(n=200, p=20, distance=2.0, seed=5), 5, 2),
        (dp.synthetic_blobs(60, 5000, seed=0), 6, 2),  # p >> n: few active samples
        # p >> n with classes of 30 and 15: every row starts from the
        # Newton-corrected intercept, and 30-33 samples are active, so its
        # steps are dense.  Its relabelings take 4 iterations and its
        # "alone" rows 6-7 (5 and 8-9 from the midpoint): a spread under 2x
        (dp.subset_rows(dp.synthetic_blobs(60, 5000, seed=0), range(45)), 7, 1.5),
        # and with classes of 30 and 29, whose relabelings take
        # active-sample steps from the corrected intercept
        (dp.subset_rows(dp.synthetic_blobs(60, 5000, seed=0), range(59)), 8, 2),
    ]
    interior = 0  # rows whose optimum is inside the ball
    active = 0  # steps through the k x k active-sample system
    unequal_active = 0  # those of rows whose classes differ in size
    for ds, seed, spread in cases:
        X, C = ds.features, dp.penalty_parameter(ds)
        # a sample alone against the rest takes 1.5-4x the Newton
        # iterations of a relabeling; on the 12 x 3 blobs it takes 9-14,
        # and the relabelings 1-15 include one of 5.  The stack mixes rows
        # with equal classes, which start from the class-mean midpoint, and
        # unequal ones (the "alone" rows, and every row of an unequal data
        # set), which start from the intercept's Newton step
        alone = [np.where(np.arange(len(X)) == i, 1, -1) for i in range(min(len(X), 60))]
        Y = np.array([ds.labels] + [
            dp.permute_labels(ds.labels, "unbalanced", dp.derive_stream(seed, b))
            for b in range(1, 16)] + alone)
        made = _directions_made(monkeypatch)
        S, iterations, k, row = _dwd_batch(X, Y, _factor(*_gram(X)), C, DEFAULT_TOL, 5000)
        assert made == [] and k == len(Y)
        assert iterations.max() >= spread * iterations.min()
        for i, (y, scores) in enumerate(zip(Y, S)):
            ds_y = dp.LabeledDataset(X, y)
            single = dp.dwd_direction(ds_y, C=C)
            # a row's scores are the one-row batch's (project gives a fit
            # its own), formed without its w
            assert scores.tobytes() == dp.project(ds_y, single.direction).scores.tobytes()
            before = len(made)
            _, m = row(i)
            assert len(made) == before + 1 and m.iterations == iterations[i]
            w, beta, iters, objective, res, _, converged, nw, row_active = reference_dwd(
                X, y, C, DEFAULT_TOL)
            assert converged
            active += row_active
            unequal_active += row_active if 2 * (y == 1).sum() != len(y) else 0
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
            # the row-space scores are X w + beta up to rounding
            exact = X @ w + beta
            assert np.abs(scores - exact).max() <= 1e-13 * np.abs(exact).max()
            for d in (m.direction, single.direction):
                assert np.array_equal(d.w, w) and d.beta == beta
            for fit in (m, single):
                assert fit.iterations == iters and isinstance(fit.iterations, int)
                assert fit.objective == objective and fit.kkt_residual == res
            assert m.training_error == single.training_error
    assert interior > 0 and active > 0 and unequal_active > 0


def test_dwd_batch_rows_without_descent_keep_their_state(monkeypatch):
    # a row that finds no descent leaves the batch with the state it had
    # before that round, and no iteration for it, while the rows around it
    # go on: each has a one-row batch's bits.  The objective is made NaN,
    # which Armijo refuses, at every trial point whose first sample has a
    # positive margin (a test of the row alone)
    ds = make_blobs(n=12, p=3, distance=1.0, seed=1)
    X, C = ds.features, dp.penalty_parameter(ds)
    factors = _factor(*_gram(X))
    loss, chunks, trials = direction._loss, direction._chunks, []

    def refusing(u, C):  # after the first Newton direction, trials alone
        v, g, c = loss(u, C)
        return (np.where(u[:, :1] > 0.0, np.nan, v) if trials else v), g, c

    monkeypatch.setattr(direction, "_loss", refusing)
    monkeypatch.setattr(direction, "_chunks", lambda *a: trials.append(1) or chunks(*a))
    Y = np.array([ds.labels] + [
        dp.permute_labels(ds.labels, "unbalanced", dp.derive_stream(3, b)) for b in range(1, 16)])
    S, iterations, _, row = _dwd_batch(X, Y, factors, C, DEFAULT_TOL, 5000)
    failed = 0
    for i, y in enumerate(Y):
        trials.clear()
        (s,), (n_iter,), _, single = _dwd_batch(X, y[None], factors, C, DEFAULT_TOL, 5000)
        assert s.tobytes() == S[i].tobytes() and n_iter == iterations[i]
        models = []
        for fit in (partial(row, i), partial(single, 0)):
            try:
                models.append(fit()[1])
            except NonConvergedError as err:
                models.append(err.model)
        a, b = models
        assert (a.iterations, a.objective, a.kkt_residual) == (b.iterations, b.objective,
                                                                b.kkt_residual)
        failed += not a.kkt_residual <= DEFAULT_TOL
    assert 0 < failed < len(Y) and iterations.min() == 0 < iterations.max()


def test_dwd_batch_rows_match_across_chunks(monkeypatch):
    # a round whose dense steps and whose size-16 active-sample class each
    # span two or more ~2 MB chunks (35 and 218 rows at n = 60): every row
    # still has the bits of a one-row batch.  A sample alone against the
    # rest takes dense steps here, a relabeling active-sample ones; the spy
    # makes sure that the chunks do split
    ds = dp.synthetic_blobs(60, 5000, seed=0)
    X, C = ds.features, dp.penalty_parameter(ds)
    factors = _factor(*_gram(X))
    alone = [np.where(np.arange(len(X)) == i, 1, -1) for i in range(len(X))]
    Y = np.array([ds.labels] + [
        dp.permute_labels(ds.labels, "unbalanced", dp.derive_stream(7, b))
        for b in range(1, 300)] + alone)
    split = set()  # step kinds whose rows went through >= 2 chunks in a round
    real = direction._chunks

    def spy(step, budget, *rows):
        calls = []

        def counted(*chunk):
            calls.append(len(chunk[0]))
            return step(*chunk)
        out = real(counted, budget, *rows)
        if len(calls) >= 2:
            split.add("active" if isinstance(step, partial) else "dense")
        return out
    monkeypatch.setattr(direction, "_chunks", spy)
    S, _, k, row = _dwd_batch(X, Y, factors, C, DEFAULT_TOL, 5000)
    monkeypatch.undo()
    assert split == {"active", "dense"} and k == len(Y)
    for i, y in enumerate(Y):
        one_S, _, _, one_row = _dwd_batch(X, y[None], factors, C, DEFAULT_TOL, 5000)
        assert S[i].tobytes() == one_S[0].tobytes()
        m, one = row(i)[1], one_row(0)[1]
        assert (m.iterations, m.objective, m.kkt_residual, m.direction.w.tobytes()) == (
            one.iterations, one.objective, one.kkt_residual, one.direction.w.tobytes())


def test_stacked_kernels_give_each_row_its_single_bits():
    # the premise of batch rows = single fits, on whatever numpy runs this:
    # every stacked kernel the solver calls gives a row of a k-row stack
    # the bits of a one-row stack and of the plain single call (the
    # bordered Newton system, its diagonal shifted in place through a
    # strided view, the masked class means, and the gathers, products and
    # padded solves of the active-sample step among them), and so do the
    # statistics the engine takes of a block's stacked relabelings
    rng = np.random.default_rng(0)
    n = 100
    for r in (2, 25, 60):
        base = np.r_[np.full(40 + r % 2, -1), np.full(60 - r % 2, 1)]  # odd and even classes
        Z = rng.normal(size=(n, r + 1))
        Za = np.vstack([Z[:, :r], np.zeros((1, r))])
        Ga = Za @ Za.T
        for k in (1, 2, 50, 101):
            size = 16  # active samples of each row, padded with index n
            idx = np.sort(rng.choice(n + 1, size=(k, size)), axis=1)
            U = Za[idx]
            c = np.take_along_axis(rng.uniform(0.0, 2.0, size=(k, n + 1)), idx, axis=1)
            T = Ga[idx[:, :, None], idx[:, None, :]] + np.eye(size)
            V, W = rng.normal(size=(k, r, 3)), rng.normal(size=(k, size, 3))
            B2 = rng.normal(size=(k, 2, r))
            x, q = rng.normal(size=(k, r + 1)), rng.normal(size=(k, n))
            d = rng.uniform(0.0, 2.0, size=(k, n))
            M = np.matmul(Z.T * d[:, None, :], Z) + np.eye(r + 1)
            b = rng.normal(size=(k, r + 1, 1))
            Z2 = np.hstack([Z, np.zeros((n, 1))])  # the bordered system
            mask, shift = q > 0.0, rng.uniform(0.0, 1.0, size=k)
            L = np.array([rng.permutation(base) for _ in range(k)])

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
                (lambda i: Za.take(idx[i], axis=0), lambda i: Za[idx[i]]),
                (lambda i: Ga.take(idx[i][:, :, None] * (n + 1) + idx[i][:, None, :]),
                 lambda i: Ga[np.ix_(idx[i], idx[i])]),
                (lambda i: np.take_along_axis(q[i], idx[i] % n, axis=1), lambda i: q[i][idx[i] % n]),
                (lambda i: np.linalg.solve(T[i], W[i]), lambda i: np.linalg.solve(T[i], W[i])),
                (lambda i: np.matmul(U[i].transpose(0, 2, 1), W[i]), lambda i: U[i].T @ W[i]),
                (lambda i: np.matmul(U[i].transpose(0, 2, 1), c[i][:, :, None]),
                 lambda i: U[i].T @ c[i][:, None]),
                (lambda i: np.matmul(U[i], V[i]), lambda i: U[i] @ V[i]),
                (lambda i: np.matmul(B2[i], V[i]), lambda i: B2[i] @ V[i]),
            ] + [(lambda i, f=stat: f(dp.ProjectionScores(q[i], L[i])),) * 2
                 for stat in (dp.stat_md, dp.stat_t, dp.stat_med)]
            rows = np.arange(k)
            for stacked, single in kernels:
                whole = stacked(rows)
                for i in rows:
                    assert whole[i].tobytes() == stacked([i])[0].tobytes()
                    assert whole[i].tobytes() == np.asarray(single(i)).tobytes()


def test_active_sample_step_solves_the_bordered_system():
    # the k x k Woodbury form of a bordered Newton step against the full
    # (r + 2) x (r + 2) system, on random states on the sphere with lam > 0;
    # k = 0, rows padded from k to the group's size, and, with n = 12
    # samples, the smallest size padded past n (all samples active too)
    # among them.  Each row has the bits of a one-row call
    rng = np.random.default_rng(1)
    for n, r, size, ks in ((40, 30, 16, (0, 1, 4, 9, 16)), (40, 30, 32, (17, 30)),
                           (12, 8, 16, (0, 1, 3, 6, 12))):
        Z1 = np.hstack([rng.normal(size=(n, r)), np.ones((n, 1))])
        Za = np.vstack([Z1[:, :r], np.zeros((1, r))])
        m = len(ks)
        curv = np.zeros((m, n))
        for i, k in enumerate(ks):
            curv[i, rng.choice(n, k, replace=False)] = rng.uniform(0.01, 2.0, k)
        a = rng.normal(size=(m, r))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        x, G = np.hstack([a, rng.normal(size=(m, 1))]), rng.normal(size=(m, r + 1))
        lam, mu = rng.uniform(0.05, 2.0, m), 10.0 ** rng.uniform(-8, 0, m)
        D = _active_step(Za, Za @ Za.T, x, G, curv, lam, mu, size)
        for i in range(m):
            one = _active_step(Za, Za @ Za.T, *(v[i:i + 1] for v in (x, G, curv, lam, mu)), size)
            assert one[0].tobytes() == D[i].tobytes()
            M = np.zeros((r + 2, r + 2))
            M[:r + 1, :r + 1] = (Z1.T * curv[i]) @ Z1 + mu[i] * np.eye(r + 1)
            M[:r, :r] += lam[i] * np.eye(r)
            M[:r, r + 1] = M[r + 1, :r] = a[i]
            dense = np.linalg.solve(M, np.r_[-G[i], 0.0])[:r + 1]
            assert np.linalg.norm(D[i] - dense) <= 1e-10 * np.linalg.norm(dense)


def test_no_fit_forms_an_n_by_n_array_it_does_not_need():
    # on 3000 x 5 blobs an n x n float array takes 72 MB: the penalty keeps
    # at most three of its n- x n+ arrays (18 MB each) alive, the factor's
    # Z has at most p columns, and a DWD fit whose Newton steps are all
    # dense never forms the (n + 1)² Gram matrix of the active-sample step
    ds = dp.synthetic_blobs(3000, 5, seed=0)
    X, y = ds.features, ds.labels
    n_by_n = 8 * len(X) ** 2

    def traced(fit):
        tracemalloc.start()
        try:
            return fit(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    center, K = _gram(X)
    C, peak = traced(lambda: _penalty(X, y, K))
    assert peak < 3.5 * 8 * 1500 * 1500  # 58.5 MB on numpy 2.4.6
    (_, Z, P), peak = traced(lambda: _factor(center, K))
    assert Z.shape[1] <= X.shape[1] and peak < n_by_n / 2
    _, peak = traced(lambda: _dwd_batch(X, y[None], (center, Z, P), C, DEFAULT_TOL, 5000)[3](0))
    assert peak < n_by_n / 2


def test_dwd_batch_failures_in_row_order():
    # a batch counts the rows before the first failing one, which keep
    # their one-row bits; row(k) raises that row's own error, and a
    # NonConvergedError carries the single fit's iterations and model, w
    # included.  An md row whose class means coincide fails the same way,
    # its scores marked NaN without a floating-point warning
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
        S, _, k, row = _dwd_batch(X, np.array(Y), _factor(*_gram(X)), 1.0, DEFAULT_TOL, 3)
        assert k == 1
        assert np.array_equal(row(0)[0].w, single(fast).direction.w)
        with pytest.raises(error) as exc:
            row(1)
        raised.append(exc.value)
    ds_fast = dp.LabeledDataset(X, fast)
    with pytest.raises(ZeroDirectionError) as expected_md:
        dp.md_direction(dp.LabeledDataset(X, no_w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S, _, k, row = _md_batch(X, np.array([fast, no_w, slow]))
    one = dp.md_direction(ds_fast)
    assert k == 1 and np.isnan(S[1]).all()
    assert S[0].tobytes() == dp.project(ds_fast, one).scores.tobytes()
    assert (row(0)[0].w.tobytes(), row(0)[0].beta) == (one.w.tobytes(), one.beta)
    with pytest.raises(ZeroDirectionError) as exc:
        row(1)
    assert str(exc.value) == str(expected_md.value)
    err, ref = raised[0], expected.value
    assert err.iterations == ref.iterations == 3
    assert err.kkt_residual == ref.kkt_residual
    assert np.array_equal(err.model.direction.w, ref.model.direction.w)
    assert err.model.objective == ref.model.objective


def test_dwd_invalid_parameters(monkeypatch):
    # each is refused before the O(n²p) set-up: no Gram matrix is formed
    ds = make_blobs(n=10, seed=0)
    grams, real = [], direction._gram
    monkeypatch.setattr(direction, "_gram", lambda X: grams.append(X) or real(X))
    for C in (-1.0, 0.0, math.nan, math.inf, True):
        with pytest.raises(DegenerateScaleError, match="penalty C"):
            dp.dwd_direction(ds, C=C)
    for tol in (-1.0, 0.0, math.inf, math.nan, True):
        with pytest.raises(ValidationError, match="tol"):
            dp.dwd_direction(ds, C=1.0, tol=tol)
    # max_iter follows PermutationPlan.B's rule: 2.5 used to run 3
    # iterations and end in a NonConvergedError
    for max_iter in (0, 2.5, 3.0, "3", None, True):
        with pytest.raises(ValidationError, match="max_iter"):
            dp.dwd_direction(ds, C=1.0, max_iter=max_iter)
    assert grams == []
    assert dp.dwd_direction(ds, C=1.0, max_iter=np.int64(50)).iterations <= 50
    assert len(grams) == 1


def test_direction_requires_unit_norm():
    with pytest.raises(ValidationError):
        dp.Direction([1.0, 1.0], 0.0)
    # NaN fails every comparison, so a norm test alone lets it through
    for w, beta in (([math.nan, math.nan], 0.0), ([math.nan, 1.0], 0.0),
                    ([math.inf, 0.0], 0.0), ([1.0, 0.0], math.nan),
                    ([1.0, 0.0], math.inf), ([1.0, 0.0], -math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            dp.Direction(w, beta)


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
    # loadnum is an integer: 2.5 and "2" used to raise TypeError, True gave 1 row
    for loadnum in (2.5, "2", True):
        with pytest.raises(ValidationError, match="loadnum must be an integer"):
            dp.loadings_of(d, loadnum)


def test_dwd_mushrooms_training_error_zero(mushrooms):
    model = dp.dwd_direction(mushrooms)
    assert model.training_error == 0.0
    scores = dp.project(mushrooms, model.direction)
    assert dp.stat_md(scores) > 2.0
