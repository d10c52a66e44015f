"""Permutation scheme and stream-derivation tests."""

import itertools

import numpy as np
import pytest

from diproperm import derive_stream, permute_labels
from diproperm.errors import InfeasibleBalanceError, SingleClassError
from diproperm.permute import PermutationPlan, half_split_fits


def counts(y):
    return int((y == -1).sum()), int((y == 1).sum())


def test_plan_validation():
    PermutationPlan("balanced", 1000, 0)
    with pytest.raises(Exception):
        PermutationPlan("bogus", 10, 0)
    with pytest.raises(Exception):
        PermutationPlan("balanced", 0, 0)


def test_stream_determinism_and_distinctness():
    a = derive_stream(42, 1).random(5)
    b = derive_stream(42, 1).random(5)
    c = derive_stream(42, 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_unbalanced_preserves_counts():
    rng = derive_stream(0, 1)
    for n_neg, n_pos in [(1, 3), (2, 2), (5, 1), (4, 4), (7, 2)]:
        y = np.r_[-np.ones(n_neg, int), np.ones(n_pos, int)]
        for _ in range(20):
            out = permute_labels(y, "unbalanced", rng)
            assert counts(out) == (n_neg, n_pos)


def test_unbalanced_label_flip_covariance():
    y = np.array([-1, -1, 1, 1, 1, -1])
    a = permute_labels(y, "unbalanced", derive_stream(3, 5))
    b = permute_labels(-y, "unbalanced", derive_stream(3, 5))
    assert np.array_equal(a, -b)


def test_balanced_two_two_exact_mixing():
    y = np.array([-1, -1, 1, 1])
    seen = set()
    for b in range(1, 4001):
        out = permute_labels(y, "balanced", derive_stream(9, b))
        assert counts(out) == (2, 2)
        new_neg = frozenset(np.flatnonzero(out == -1).tolist())
        # exactly one original -1 member and one original +1 member
        assert len(new_neg & {0, 1}) == 1 and len(new_neg & {2, 3}) == 1
        seen.add(new_neg)
    assert len(seen) == 4


def test_balanced_two_two_uniformity_chisquare():
    y = np.array([-1, -1, 1, 1])
    tally = {}
    draws = 4000
    for b in range(1, draws + 1):
        out = permute_labels(y, "balanced", derive_stream(9, b))
        key = tuple(np.flatnonzero(out == -1).tolist())
        tally[key] = tally.get(key, 0) + 1
    expected = draws / 4
    chi2 = sum((c - expected) ** 2 / expected for c in tally.values())
    assert chi2 < 16.27  # chi-square 0.1% critical value, 3 dof


def test_balanced_four_two_takes_whole_pos_group():
    y = np.array([-1, -1, -1, -1, 1, 1])
    for b in range(1, 200):
        out = permute_labels(y, "balanced", derive_stream(1, b))
        assert counts(out) == (4, 2)
        new_neg = set(np.flatnonzero(out == -1).tolist())
        assert len(new_neg & {0, 1, 2, 3}) == 2
        assert new_neg >= {4, 5}  # both original +1 members relabeled


def test_balanced_even_keeps_exactly_half():
    y = np.r_[-np.ones(6, int), np.ones(6, int)]
    for b in range(1, 100):
        out = permute_labels(y, "balanced", derive_stream(2, b))
        kept = np.flatnonzero((out == -1)[:6])
        assert kept.size == 3


def test_balanced_odd_randomizes_split():
    y = np.r_[-np.ones(5, int), np.ones(5, int)]
    ks = set()
    for b in range(1, 200):
        out = permute_labels(y, "balanced", derive_stream(3, b))
        assert counts(out) == (5, 5)
        ks.add(int((out[:5] == -1).sum()))
    assert ks == {2, 3}


def test_balanced_lopsided_composition_matched():
    # 10 vs 2: half-and-half infeasible; out-group draw = round(20/12) = 2
    y = np.r_[-np.ones(10, int), np.ones(2, int)]
    for b in range(1, 100):
        out = permute_labels(y, "balanced", derive_stream(4, b))
        assert counts(out) == (10, 2)
        new_neg = set(np.flatnonzero(out == -1).tolist())
        assert len(new_neg & {10, 11}) == 2  # both +1 members relabeled
        assert len(new_neg & set(range(10))) == 8


def test_half_split_fits():
    assert half_split_fits(4, 2) and not half_split_fits(10, 2)
    # 5 vs 2: a draw keeping 3 fits, one keeping 2 does not, so not always
    assert not half_split_fits(5, 2) and half_split_fits(5, 2, keep=3)


def test_balanced_uniform_over_admissible_relabelings():
    # 4 vs 2 -> C(4,2) * C(2,2) = 6 admissible outcomes
    y = np.array([-1, -1, -1, -1, 1, 1])
    tally = {}
    draws = 6000
    for b in range(1, draws + 1):
        out = permute_labels(y, "balanced", derive_stream(8, b))
        tally[tuple(out.tolist())] = tally.get(tuple(out.tolist()), 0) + 1
    assert len(tally) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in tally.values())
    assert chi2 < 20.5  # chi-square 0.1% critical value, 5 dof


def test_balanced_requires_two_per_class():
    with pytest.raises(InfeasibleBalanceError):
        permute_labels(np.array([-1, 1, 1, 1]), "balanced", derive_stream(0, 1))


def test_single_class_rejected():
    with pytest.raises(SingleClassError):
        permute_labels(np.array([1, 1, 1]), "unbalanced", derive_stream(0, 1))


def test_exhaustive_count_preservation_small_n():
    rng_index = 0
    for n in range(2, 8):
        for labels in itertools.product([-1, 1], repeat=n):
            y = np.array(labels)
            if len(set(labels)) < 2:
                continue
            rng_index += 1
            out = permute_labels(y, "unbalanced", derive_stream(5, rng_index))
            assert counts(out) == counts(y)
            if (y == -1).sum() >= 2 and (y == 1).sum() >= 2:
                out = permute_labels(y, "balanced", derive_stream(6, rng_index))
                assert counts(out) == counts(y)
