"""Engine orchestration, summary quantities, and determinism tests."""

import json
import math

import numpy as np
import pytest

import diproperm as dp
from diproperm import cli, engine
from diproperm.errors import (
    EmptyError,
    NonConvergedError,
    ValidationError,
    ZeroVarianceError,
)
from conftest import make_blobs


def test_p_value_examples():
    assert dp.p_value([1, 2, 3, 4], 2.5) == 0.5
    assert dp.p_value([1, 2, 3, 4], 9.0) == 0.0
    assert dp.p_value([2, 2, 2], 2.0) == 1.0
    with pytest.raises(EmptyError):
        dp.p_value([], 1.0)


def test_z_score_examples():
    assert dp.z_score([0, 2], 1.0) == 0.0
    assert dp.z_score([0, 2], 1.0 + math.sqrt(2)) == pytest.approx(1.0)
    with pytest.raises(ZeroVarianceError):
        dp.z_score([3, 3, 3], 5.0)


def test_cutoff_examples():
    assert dp.cutoff(np.arange(1, 101), 0.05) == 95.0
    assert dp.cutoff([1, 2, 3, 4], 0.5) == 2.0
    with pytest.raises(EmptyError):
        dp.cutoff([], 0.05)
    with pytest.raises(ValidationError):
        dp.cutoff([1, 2], 1.5)


def test_validation_of_engine_arguments(tmp_path):
    ds = make_blobs(n=10, seed=0)
    with pytest.raises(ValidationError):
        dp.diproperm(ds, classifier="svm")
    with pytest.raises(ValidationError):
        dp.diproperm(ds, statistic="auc")
    with pytest.raises(ValidationError):
        dp.diproperm(ds, dp.PermutationPlan("unbalanced", 10, 0), alpha=0.05)
    with pytest.raises(ValidationError):
        dp.diproperm(ds, alpha=0.0)
    with pytest.raises(ValidationError):
        dp.diproperm(ds, workers=0)
    with pytest.raises(ValidationError):
        dp.TestConfig("dwd", "md", "shuffled", 100, 0, 0.05)
    # a stored result whose config no run could have produced is refused
    path = tmp_path / "result.json"
    dp.emit_result_json(run_small(make_blobs(n=12, seed=2), B=25), path)
    for key, edit in (("classifier", lambda c: c.update(classifier="svm")),
                      ("alpha", lambda c: c.update(alpha=2)),
                      ("missing", lambda c: c.pop("seed"))):
        doc = json.loads(path.read_text())
        edit(doc["config"])
        tampered = tmp_path / f"{key}.json"
        tampered.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            dp.load_result_json(tampered)
        assert cli.main(["report", str(tampered), "--out", str(tmp_path / key)]) == 2


def test_default_workers_follow_cpu_affinity(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one usable core must take the serial path")

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    r = dp.diproperm(make_blobs(n=12, seed=2),
                     dp.PermutationPlan("unbalanced", 25, 1), classifier="md")
    assert len(r.perm_statistics) == 25


def test_infeasible_balance_warning(caplog):
    lopsided = dp.LabeledDataset(make_blobs(n=12, seed=3).features,
                                 [-1] * 9 + [1] * 3)
    for ds, warned in ((make_blobs(n=12, seed=3), False), (lopsided, True)):
        caplog.clear()
        run_small(ds, scheme="balanced", B=25)
        assert ("infeasible" in caplog.text) is warned


def run_small(ds, scheme="unbalanced", B=40, seed=1, classifier="md", **kw):
    return dp.diproperm(
        ds, dp.PermutationPlan(scheme, B, seed), classifier=classifier,
        statistic="md", workers=1, **kw
    )


def test_result_invariants_recomputable():
    ds = make_blobs(n=16, distance=2.0, seed=5)
    r = run_small(ds, B=60)
    assert r.p_value == dp.p_value(r.perm_statistics, r.observed_statistic)
    assert r.z_score == dp.z_score(r.perm_statistics, r.observed_statistic)
    assert r.cutoff == dp.cutoff(r.perm_statistics, r.config.alpha)
    assert len(r.perm_statistics) == r.config.B
    assert 0.0 <= r.p_value <= 1.0


def test_records_retention_and_statistic_identity():
    ds = make_blobs(n=16, distance=2.0, seed=5)
    r = run_small(ds, B=60)
    wanted = {1, 2, r.min_index, r.max_index}
    assert set(r.records) == wanted
    for b, rec in r.records.items():
        assert rec.perm_index == b
        assert rec.statistic == r.perm_statistics[b - 1]
        # statistic recomputable from the stored scores
        assert dp.stat_md(rec.scores) == pytest.approx(rec.statistic, rel=1e-12)
        assert np.array_equal(rec.scores.labels, rec.permuted_labels)
    assert r.record_for_panel("min").statistic == r.perm_statistics.min()
    assert r.record_for_panel("max").statistic == r.perm_statistics.max()


def test_retain_all_keeps_every_record():
    ds = make_blobs(n=12, seed=2)
    r = run_small(ds, B=25, retain_all=True)
    assert set(r.records) == set(range(1, 26))


def test_exhaustive_balanced_point_mass():
    # two point-mass classes far apart: every balanced relabeling yields
    # the same statistic, and the observed value exceeds them all
    X = np.r_[np.zeros((3, 2)), np.tile([10.0, 0.0], (3, 1))]
    ds = dp.LabeledDataset(X, [-1, -1, -1, 1, 1, 1])
    r = run_small(ds, scheme="balanced", B=50, seed=3)
    assert r.observed_statistic == pytest.approx(10.0)
    # every admissible relabeling mixes one or two points across; the
    # statistic is 10/3 for all of them (exhaustive enumeration), so the
    # Monte-Carlo p-value matches the exhaustive one exactly
    assert np.allclose(r.perm_statistics, 10.0 / 3.0)
    assert r.p_value == 0.0


def test_constant_null_gives_undefined_z(monkeypatch):
    # a statistic with zero spread across permutations leaves z undefined
    from diproperm import unistat

    monkeypatch.setitem(unistat.STATISTICS, "const", lambda ps: 1.0)
    ds = make_blobs(n=12, distance=3.0, seed=1)
    r = dp.diproperm(
        ds, dp.PermutationPlan("unbalanced", 40, 5), classifier="md",
        statistic="const", workers=1,
    )
    assert np.all(r.perm_statistics == 1.0)
    assert r.p_value == 1.0
    assert math.isnan(r.z_score)  # degenerate constant null


def test_scale_invariance_same_seed():
    ds = make_blobs(n=14, distance=1.5, seed=8)
    scaled = dp.LabeledDataset(ds.features * 4.0, ds.labels)
    r1 = run_small(ds, B=80, seed=21)
    r2 = run_small(scaled, B=80, seed=21)
    assert r1.p_value == r2.p_value
    assert np.allclose(r2.perm_statistics, 4.0 * r1.perm_statistics, rtol=1e-12)
    assert r2.observed_statistic == pytest.approx(4.0 * r1.observed_statistic)


def test_label_swap_symmetry_unbalanced():
    ds = make_blobs(n=14, distance=1.5, seed=8)
    flipped = dp.LabeledDataset(ds.features, -ds.labels)
    r1 = run_small(ds, B=80, seed=13)
    r2 = run_small(flipped, B=80, seed=13)
    assert r1.observed_statistic == pytest.approx(r2.observed_statistic)
    assert np.array_equal(r1.perm_statistics, r2.perm_statistics)


def test_parallel_determinism_two_workers():
    ds = make_blobs(n=20, p=4, distance=2.0, seed=6)
    kw = dict(classifier="dwd", statistic="md", alpha=0.05)
    plan = dp.PermutationPlan("balanced", 30, 17)
    r1 = dp.diproperm(ds, plan, workers=1, **kw)
    r2 = dp.diproperm(ds, plan, workers=2, **kw)
    assert np.array_equal(r1.perm_statistics, r2.perm_statistics)
    assert r1.observed_statistic == r2.observed_statistic
    assert r1.p_value == r2.p_value and r1.cutoff == r2.cutoff


def test_permutation_nonconvergence_aborts_with_index():
    # observed fit converges from its warm start, permuted re-fits cannot
    ds = make_blobs(n=24, p=2, distance=8.0, std=0.5, seed=10)
    with pytest.raises(NonConvergedError) as exc:
        dp.diproperm(
            ds, dp.PermutationPlan("balanced", 20, 1), classifier="dwd",
            workers=1, dwd_max_iter=12,
        )
    assert exc.value.perm_index is not None
    assert 1 <= exc.value.perm_index <= 20


def test_dwd_engine_uses_single_penalty(mushrooms):
    r = dp.diproperm(
        mushrooms, dp.PermutationPlan("balanced", 20, 2), workers=1
    )
    assert r.observed_model is not None
    assert r.observed_model.C == pytest.approx(dp.penalty_parameter(mushrooms))
    assert r.observed_model.training_error == 0.0


def test_loadings_cover_all_features():
    ds = make_blobs(n=12, p=5, seed=4)
    r = run_small(ds, B=30)
    assert len(r.loadings) == 5
    mags = [abs(ld.value) for ld in r.loadings]
    assert mags == sorted(mags, reverse=True)
