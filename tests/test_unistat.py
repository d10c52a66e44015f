"""Projection and two-sample statistic tests."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diproperm as dp
from diproperm.direction import DEFAULT_MAX_ITER, DEFAULT_TOL, _dwd_batch, _factor, _gram
from diproperm.errors import (
    DimensionMismatchError,
    LabelDomainError,
    NonConvergedError,
    SingleClassError,
    ZeroVarianceError,
)


def ps(pos, neg):
    scores = np.r_[np.asarray(pos, float), np.asarray(neg, float)]
    labels = np.r_[np.ones(len(pos), int), -np.ones(len(neg), int)]
    return dp.ProjectionScores(scores, labels)


def test_project_coordinate():
    ds = dp.LabeledDataset([[3, 9], [-2, 5], [0, 0], [1, 1]], [1, -1, -1, 1])
    out = dp.project(ds, dp.Direction([1.0, 0.0], 0.0))
    assert np.array_equal(out.scores, [3, -2, 0, 1])
    assert np.array_equal(out.labels, ds.labels)


def test_project_intercept_only():
    ds = dp.LabeledDataset(np.zeros((4, 2)), [-1, 1, -1, 1])
    out = dp.project(ds, dp.Direction([1.0, 0.0], 7.0))
    assert np.all(out.scores == 7.0)


def test_project_diagonal_unit():
    s = 1 / math.sqrt(2)
    ds = dp.LabeledDataset([[1, 1], [0, 0], [2, 0], [0, 2]], [1, -1, 1, -1])
    out = dp.project(ds, dp.Direction([s, s], 0.0))
    assert out.scores[0] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_project_dimension_mismatch():
    ds = dp.LabeledDataset(np.eye(4), [-1, 1, -1, 1])
    with pytest.raises(DimensionMismatchError):
        dp.project(ds, dp.Direction([1.0, 0.0], 0.0))


def test_project_gives_a_dwd_fit_its_own_scores():
    # on the features array a DWD direction was fit to, project() returns
    # the fit's row-space scores: a batch's row of its scores stack, formed
    # without w, and the engine's observed scores, bit for bit; on any
    # other array, and once pickled (which does not carry X), it computes
    # X w + beta
    ds = dp.synthetic_blobs(60, 5000, seed=0)
    X, C = ds.features, dp.penalty_parameter(ds)
    d = dp.dwd_direction(ds, C=C).direction
    (scores,), *_ = _dwd_batch(X, ds.labels[None], _factor(*_gram(X)), C, DEFAULT_TOL,
                               DEFAULT_MAX_ITER)
    run = dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 0), workers=1)
    assert dp.LabeledDataset(X, ds.labels[::-1]).features is X
    assert (dp.project(ds, d).scores.tobytes() == scores.tobytes()
            == run.observed_scores.scores.tobytes())
    assert "_fit" not in repr(d)
    copy = dp.LabeledDataset(X.copy(), ds.labels)
    assert dp.project(copy, d).scores.tobytes() == (X @ d.w + d.beta).tobytes()
    with pytest.raises(NonConvergedError) as exc:
        dp.dwd_direction(ds, C=C, max_iter=1)
    failed = exc.value.model.direction
    assert failed._fit[0] is X
    sent = [pickle.dumps(obj) for obj in (d, exc.value)]
    assert max(map(len, sent)) < X.nbytes
    for back, sender in zip((pickle.loads(sent[0]), pickle.loads(sent[1]).model.direction),
                            (d, failed)):
        assert (back.w.tobytes(), back.beta) == (sender.w.tobytes(), sender.beta)
        assert dp.project(ds, back).scores.tobytes() == (X @ back.w + back.beta).tobytes()


def test_stat_md():
    assert dp.stat_md(ps([1, 2, 3], [1, 2, 3])) == 0.0
    assert dp.stat_md(ps([2, 4], [1, 1])) == 2.0


def test_stat_t_hand_value():
    # |1 - 12| / sqrt(2/2 + 8/2)
    assert dp.stat_t(ps([0, 2], [10, 14])) == pytest.approx(11 / math.sqrt(5), rel=1e-12)


def test_stat_t_zero_numerator():
    assert dp.stat_t(ps([1, 2, 3], [1, 2, 3])) == 0.0


def test_stat_t_degenerate():
    with pytest.raises(ZeroVarianceError):
        dp.stat_t(ps([5, 5], [2, 2]))
    with pytest.raises(SingleClassError):
        dp.stat_t(ps([5], [1, 2]))


def test_stat_med():
    assert dp.stat_med(ps([1, 100], [50])) == pytest.approx(0.5)
    assert dp.stat_med(ps([1, 2, 9], [4, 4])) == 2.0
    # equal medians, different means
    assert dp.stat_med(ps([0, 1, 2], [1, 1, 1])) == 0.0
    assert dp.stat_md(ps([0, 1, 2], [1, 1, 1])) == 0.0


def test_both_classes_required():
    with pytest.raises(SingleClassError):
        dp.ProjectionScores(np.ones(3), np.ones(3, int))


def test_a_stack_scores_each_row_as_its_own_call():
    # rows of 300 samples (classes of 130 and 170, past numpy's 128-element
    # pairwise-sum block) relabeled as a permutation does: the statistics
    # of the stack are its rows' own, bit for bit
    rng = np.random.default_rng(3)
    base = np.r_[np.full(130, -1), np.full(170, 1)]
    labels = np.array([rng.permutation(base) for _ in range(7)])
    scores = rng.normal(size=labels.shape)
    stack = dp.ProjectionScores(scores, labels)
    neg, pos = stack.split()
    assert neg.shape == (7, 130) and pos.shape == (7, 170)
    for stat in (dp.stat_md, dp.stat_t, dp.stat_med):
        whole = stat(stack)
        assert whole.shape == (7,)
        for i in range(7):
            row = stat(dp.ProjectionScores(scores[i], labels[i]))
            assert whole[i].tobytes() == row.tobytes()
    # a zero-spread row fails the whole stack's t statistic
    scores[4] = np.where(labels[4] == 1, 2.0, -1.0)
    with pytest.raises(ZeroVarianceError):
        dp.stat_t(dp.ProjectionScores(scores, labels))


def test_labels_other_than_minus_one_and_one_are_refused():
    # split() takes the -1 and the +1 samples, so any other label would
    # silently drop its sample from the statistic
    for labels in ([-1, 1, 7, 1], [[-1, 1, -1, 1], [-1, 0, 1, 1]]):
        with pytest.raises(LabelDomainError, match="label (7|0) is not in"):
            dp.ProjectionScores(np.zeros(np.shape(labels)), labels)


def test_labels_the_int64_cast_would_change_are_refused():
    # -1.9 would load as -1 and 1.5 as 1: the error carries the label as
    # given, and names no data-file advice; integer labels take no detour
    for labels, bad in (([-1.9, -1, 1.5, 1], -1.9), ([-1.0, 1.0, np.nan, 1.0], math.nan),
                        (np.array([-1, 1, 1, 1], dtype=object) * 1.5, -1.5),
                        (["-1", "1", "1", "1"], "-1")):
        with pytest.raises(LabelDomainError) as exc:
            dp.ProjectionScores(np.zeros(4), labels)
        assert repr(exc.value.value) == repr(bad)
        assert "recode" not in str(exc.value)
    ps = dp.ProjectionScores(np.zeros(4), np.array([-1.0, -1.0, 1.0, 1.0]))
    assert ps.labels.dtype == np.int64 and ps.labels.tolist() == [-1, -1, 1, 1]


def test_a_stack_needs_equal_class_counts():
    # split() reshapes each class by row, so rows with other counts would
    # be mis-split silently; they are refused, as is a row with one class
    labels = np.array([[-1, -1, 1, 1], [-1, 1, 1, 1]])
    with pytest.raises(DimensionMismatchError, match="same class counts"):
        dp.ProjectionScores(np.zeros((2, 4)), labels)
    with pytest.raises(SingleClassError):
        dp.ProjectionScores(np.zeros((2, 4)), [[-1, -1, 1, 1], [1, 1, 1, 1]])
    with pytest.raises(SingleClassError):
        dp.ProjectionScores(np.zeros((0, 4)), np.zeros((0, 4), int))
    with pytest.raises(DimensionMismatchError):
        dp.ProjectionScores(np.zeros((2, 2, 4)), np.ones((2, 2, 4), int))


score_vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=20
)


@settings(max_examples=200, deadline=None)
@given(values=score_vectors, data=st.data())
def test_statistic_properties(values, data):
    n = len(values)
    labels = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    )
    if len(set(labels)) < 2:
        labels[0], labels[-1] = -1, 1
    x = dp.ProjectionScores(np.array(values), np.array(labels))
    flipped = dp.ProjectionScores(np.array(values), -np.array(labels))

    for stat in (dp.stat_md, dp.stat_med):
        v = stat(x)
        assert v >= 0.0
        assert stat(flipped) == pytest.approx(v, rel=1e-9, abs=1e-9)
        # affine equivariance: s -> a s + b scales the statistic by |a|
        y = dp.ProjectionScores(-2.0 * x.scores + 3.0, x.labels)
        assert stat(y) == pytest.approx(2.0 * v, rel=1e-9, abs=1e-12)
