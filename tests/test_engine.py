"""Engine orchestration, summary quantities, and determinism tests."""

import gc
import json
import logging
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import diproperm as dp
from diproperm import cli, direction, engine
from diproperm.errors import (
    DppError,
    EmptyError,
    NonConvergedError,
    ValidationError,
    ZeroDirectionError,
    ZeroVarianceError,
)
from conftest import make_blobs

# every classifier's minimum block at 1: runs of any B split, md's too
SPLIT = dict.fromkeys(engine.CLASSIFIERS, 1)


def test_p_value_examples():
    assert dp.p_value([1, 2, 3, 4], 2.5) == 0.5
    assert dp.p_value([1, 2, 3, 4], 9.0) == 0.0
    assert dp.p_value([2, 2, 2], 2.0) == 1.0
    with pytest.raises(EmptyError):
        dp.p_value([], 1.0)


def test_z_score_examples():
    assert dp.z_score([0, 2], 1.0) == 0.0
    assert dp.z_score([0, 2], 1.0 + math.sqrt(2)) == pytest.approx(1.0)
    # equal statistics are a constant null even when their mean is not
    # exact and std(ddof=1) is rounding noise (4.5e-16 for 50 x 10/3)
    for stats in ([3, 3, 3], [0.1] * 3, [10 / 3] * 50):
        with pytest.raises(ZeroVarianceError):
            dp.z_score(stats, 5.0)
    with pytest.raises(EmptyError, match="at least 2"):
        dp.z_score([1.0], 0.0)


def test_cutoff_examples():
    assert dp.cutoff(np.arange(1, 101), 0.05) == 95.0
    assert dp.cutoff([1, 2, 3, 4], 0.5) == 2.0
    with pytest.raises(EmptyError):
        dp.cutoff([], 0.05)
    with pytest.raises(ValidationError):
        dp.cutoff([1, 2], 1.5)


def test_validation_of_engine_arguments(tmp_path, capsys):
    ds = make_blobs(n=10, seed=0)
    with pytest.raises(ValidationError):
        dp.diproperm(ds, classifier="svm")
    with pytest.raises(ValidationError):
        dp.diproperm(ds, statistic="auc")
    with pytest.raises(ValidationError):
        dp.diproperm(ds, dp.PermutationPlan("unbalanced", 10, 0), alpha=0.05)
    with pytest.raises(ValidationError):
        dp.diproperm(ds, alpha=0.0)
    for workers in (0, 2.5, True):
        with pytest.raises(ValidationError, match="workers"):
            dp.diproperm(ds, workers=workers)
    with pytest.raises(ValidationError, match="max_iter"):
        dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 5), dwd_max_iter=2.5)
    # the stopping rule is part of every config, so md refuses a bad one too
    with pytest.raises(ValidationError, match="tol"):
        dp.diproperm(ds, classifier="md", dwd_tol=0)
    with pytest.raises(ValidationError):
        dp.TestConfig("dwd", "md", "shuffled", 100, 0, 0.05, 1e-8, 5000)
    # a stored result whose config no run could have produced, or with a
    # field missing or of the wrong type, is refused naming the field, and
    # saying what is wrong with it
    path = tmp_path / "result.json"
    dp.emit_result_json(run_small(make_blobs(n=12, seed=2), B=25), path)
    for key, message, edit in (
            ("config", "classifier must be one of", lambda d: d["config"].update(classifier="svm")),
            ("config", "alpha must be in (0, 1), got 2", lambda d: d["config"].update(alpha=2)),
            ("config", "B must be an integer >= 1, got 100.5",
             lambda d: d["config"].update(B=100.5)),
            ("config", "argument: 'seed'", lambda d: d["config"].pop("seed")),
            ("config", "seed must be", lambda d: d["config"].update(seed=True)),
            ("config", "max_iter must be", lambda d: d["config"].update(dwd_max_iter=True)),
            ("perm_statistics", "KeyError", lambda d: d.pop("perm_statistics")),
            ("perm_statistics", "0 entries, expected 25", lambda d: d.update(perm_statistics=[])),
            ("perm_statistics", "5 entries, expected 25",
             lambda d: d.update(perm_statistics=d["perm_statistics"][:5])),
            ("records", "has no attribute 'keys'", lambda d: d.update(records=[1, 2])),
            # a record must be one of 1..B and one entry per sample
            ("records", "permutation 0 outside 1..25",
             lambda d: d["records"].update({"0": d["records"]["1"]})),
            ("records", "permutation 26 outside 1..25",
             lambda d: d["records"].update({str(d["config"]["B"] + 1): d["records"]["1"]})),
            ("records", "3 entries, expected 12", lambda d: d["records"]["1"].update(
                labels=[-1, 1, 1], scores=[-1.0, 1.0, 2.0])),
            ("records", "3 entries, expected 12",
             lambda d: d["records"]["1"].update(scores=[-1.0, 1.0, 2.0])),
            ("records", "scores contain NaN or Inf",
             lambda d: d["records"]["1"]["scores"].__setitem__(0, math.nan)),
            # labels are -1 or 1, and a record relabels the observed
            # labels: its class counts are theirs
            ("observed_scores", "class label 7 is not in {-1, 1})",
             lambda d: d["observed_scores"]["labels"].__setitem__(0, 7)),
            ("records", "class label 7 is not in {-1, 1})",
             lambda d: d["records"]["1"]["labels"].__setitem__(0, 7)),
            ("records", "permutation 1's labels change the observed class counts",
             lambda d: d["records"]["1"]["labels"].__setitem__(
                 d["records"]["1"]["labels"].index(-1), 1)),
            ("records", "permutation 2's labels change the observed class counts",
             lambda d: d["records"]["2"].update(labels=[1] * 12))):
        doc = json.loads(path.read_text())
        edit(doc)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            dp.load_result_json(tampered)
        assert f"field {key!r}" in str(exc.value) and message in str(exc.value)
        capsys.readouterr()
        assert cli.main(["report", str(tampered), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)  # only the mask keeps B=25 serial

    def no_pool(*args, **kwargs):
        raise AssertionError("one usable core must take the serial path")

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", no_pool)
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


def test_debug_log_times_blocks_and_counts_iterations(caplog, monkeypatch):
    # a block's re-fits run as one batch: one wall time per block, solver
    # iterations per permutation
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)  # blocks of 3 re-fits
    ds = make_blobs(n=12, seed=3)
    with caplog.at_level(logging.DEBUG, logger="diproperm.engine"):
        r = dp.diproperm(ds, dp.PermutationPlan("balanced", 6, 1), alpha=0.5,
                         workers=2)
    blocks = [m for m in caplog.messages if m.startswith("perms ")]
    assert [m.split(":")[0] for m in blocks] == ["perms 1-3", "perms 4-6"]
    perms = [m for m in caplog.messages if m.startswith("perm ")]
    assert len(perms) == 6 and "time" not in " ".join(perms)
    for b, m in enumerate(perms, start=1):
        y_b = dp.permute_labels(ds.labels, "balanced", dp.derive_stream(1, b))
        fit = dp.dwd_direction(dp.LabeledDataset(ds.features, y_b),
                               C=r.observed_model.C)
        assert m.endswith(f"iterations={fit.iterations}")


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
    assert r.records[r.min_index].statistic == r.perm_statistics.min()
    assert r.records[r.max_index].statistic == r.perm_statistics.max()


def test_retain_all_keeps_every_record():
    ds = make_blobs(n=12, seed=2)
    r = run_small(ds, B=25, retain_all=True)
    assert set(r.records) == set(range(1, 26))
    assert r.kept.tolist() == list(range(26)) and r.kept_scores.scores.shape == (26, 12)
    # the kept stack owns its memory, so it does not pin a block's
    # (B + 1) x n stacks; the observed scores and the records are views of it
    stack = r.kept_scores
    assert stack.scores.base is None and stack.labels.base is None
    views = [r.observed_scores] + [rec.scores for rec in r.records.values()]
    for i, ps in enumerate(views):
        assert ps.scores.base is stack.scores and ps.labels.base is stack.labels
        assert np.array_equal(ps.scores, stack.scores[i])
    assert all(rec.permuted_labels is rec.scores.labels for rec in r.records.values())
    # and none of them can be written: a view cannot edit the result
    for a in (r.kept, r.perm_statistics, stack.scores, stack.labels, views[1].scores):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    with pytest.raises(TypeError):
        r.records[1] = r.records[2]
    # the view is not stored, so a result still pickles after it was read
    # and comes back through its constructor, read-only
    again = pickle.loads(pickle.dumps(r))
    assert again.kept_scores.scores.tobytes() == stack.scores.tobytes()
    for a in (again.perm_statistics, again.kept, again.kept_scores.scores,
              again.kept_scores.labels):
        assert not a.flags.writeable
    assert again.records.keys() == r.records.keys()


def test_a_block_scores_its_rows_as_one_stack(monkeypatch, tmp_path):
    # outside an error, a block takes one ProjectionScores of all its rows
    # and the run one of the rows it keeps; records are made only when
    # `records` is read, and nothing that emits or loads a result reads it
    made = []
    check = dp.ProjectionScores.__post_init__

    def spy_scores(self):
        made.append(np.shape(self.scores))
        check(self)

    def spy_record(self, *args):
        made.append("record")
        self.perm_index, self.permuted_labels, self.scores, self.statistic = args

    monkeypatch.setattr(dp.ProjectionScores, "__post_init__", spy_scores)
    monkeypatch.setattr(dp.PermutationRecord, "__init__", spy_record)
    for retain_all, k in ((False, 5), (True, 41)):
        made.clear()
        r = run_small(make_blobs(n=12, seed=2), B=40, retain_all=retain_all)
        assert made == [(41, 12), (k, 12)]
        dp.emit_result_json(r, tmp_path / "result.json")
        dp.emit_bundle(r, dp.DiagnosticsBundle(dp.report.PANELS, tmp_path))
        loaded = dp.load_result_json(tmp_path / "result.json")
        assert "record" not in made and loaded.kept.tolist() == r.kept.tolist()
        assert len(r.records) == k - 1 and made.count("record") == k - 1


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
    assert math.isnan(r.z_score)  # a constant null has no z-score
    # DWD's w lies in the row space of the centered X, which is the first
    # axis alone wherever the points sit, so every relabeling gives one
    # statistic too
    for shift in (0.0, 0.1, 1 / 3, 1e3):
        stats = run_small(dp.LabeledDataset(X + shift, ds.labels), scheme="balanced",
                          B=50, seed=3, classifier="dwd").perm_statistics
        assert stats.max() - stats.min() <= 1e-12 * stats.max()


def test_dwd_answers_do_not_depend_on_where_the_data_sits(mushrooms):
    # DWD's intercept is free and its factor is of the centered X, so a
    # translation by 1e6 leaves p and the statistics as they were, up to
    # rounding; a factor of the uncentered X did not converge there
    plan = dp.PermutationPlan("balanced", 100, 5)
    for ds in (dp.synthetic_blobs(200, 10, seed=3), mushrooms,
               dp.synthetic_blobs(60, 5000, seed=0)):
        near, far = (dp.diproperm(dp.LabeledDataset(ds.features + shift, ds.labels), plan,
                                  workers=1) for shift in (0.0, 1e6))
        assert far.p_value == near.p_value
        assert far.observed_statistic == pytest.approx(near.observed_statistic, rel=1e-9, abs=0)
        assert np.allclose(far.perm_statistics, near.perm_statistics, rtol=1e-9, atol=0)


def test_constant_null_gives_undefined_z(monkeypatch):
    # a statistic with zero spread across permutations leaves z undefined
    from diproperm import unistat

    # one value per row, as the statistics give for a stack of relabelings
    monkeypatch.setitem(unistat.STATISTICS, "const", lambda ps: np.ones(ps.scores.shape[:-1]))
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


def test_parallel_determinism_two_workers(monkeypatch):
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)  # split even tiny blocks
    ds = make_blobs(n=20, p=4, distance=2.0, seed=6)
    kw = dict(classifier="dwd", statistic="md", alpha=0.05)
    plan = dp.PermutationPlan("balanced", 30, 17)
    r1 = dp.diproperm(ds, plan, workers=1, **kw)
    r2 = dp.diproperm(ds, plan, workers=2, **kw)
    assert np.array_equal(r1.perm_statistics, r2.perm_statistics)
    assert r1.observed_statistic == r2.observed_statistic
    assert r1.p_value == r2.p_value and r1.cutoff == r2.cutoff
    # more workers than permutations: one index per block
    plan = dp.PermutationPlan("unbalanced", 3, 17)
    r1, r4 = (dp.diproperm(ds, plan, classifier="md", alpha=0.5, workers=w)
              for w in (1, 4))
    assert np.array_equal(r1.perm_statistics, r4.perm_statistics)
    assert r4.records.keys() == r1.records.keys()
    for b, rec in r4.records.items():
        assert np.array_equal(rec.permuted_labels, r1.records[b].permuted_labels)
        assert np.array_equal(rec.scores.scores, r1.records[b].scores.scores)


def test_records_byte_identical_for_any_worker_count(mushrooms, monkeypatch):
    # each block keeps the scores of its first minimum and maximum; the
    # run's extreme records come from the blocks holding the global ones
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)  # split B=100 and 200 too
    cases = [(mushrooms, 100, 5), (dp.synthetic_blobs(100, 2), 200, 3),
             (dp.synthetic_blobs(60, 5000), 100, 0)]
    for ds, B, seed in cases:
        plan = dp.PermutationPlan("balanced", B, seed)
        one, *more = (dp.diproperm(ds, plan, workers=w) for w in (1, 2, 3))
        assert sorted(one.records) == sorted({1, 2, one.min_index, one.max_index})
        for r in more:
            assert r.perm_statistics.tobytes() == one.perm_statistics.tobytes()
            assert (r.p_value, r.z_score, r.cutoff) == (one.p_value, one.z_score, one.cutoff)
            assert list(r.records) == list(one.records)
            for b, rec in r.records.items():
                ref = one.records[b]
                assert rec.statistic == ref.statistic == one.perm_statistics[b - 1]
                assert rec.permuted_labels.tobytes() == ref.permuted_labels.tobytes()
                assert rec.scores.scores.tobytes() == ref.scores.scores.tobytes()


def test_permutation_nonconvergence_aborts_with_index(monkeypatch):
    # observed fit converges from its warm start, permuted re-fits cannot;
    # the run aborts at the lowest failing index with that re-fit's own
    # error, whatever block (and thread) the index falls in: on seed 10
    # all re-fits fail at max_iter 5; on seed 24 only 11 does at 10, so it
    # is in the second block at 2 and at 3 workers (1-10 | 11-20,
    # 1-6 | 7-13 | 14-20), and is raised in a pool thread
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    plan = dp.PermutationPlan("balanced", 20, 1)
    for seed, max_iter, lowest in ((10, 5, 1), (24, 10, 11)):
        ds = make_blobs(n=24, p=2, distance=8.0, std=0.5, seed=seed)
        C = dp.penalty_parameter(ds)
        for b in range(1, plan.B + 1):  # the first single re-fit that fails
            y_b = dp.permute_labels(ds.labels, plan.scheme, dp.derive_stream(plan.seed, b))
            try:
                dp.dwd_direction(dp.LabeledDataset(ds.features, y_b), C=C,
                                 max_iter=max_iter)
            except NonConvergedError as err:
                expected = b, err
                break
        assert expected[0] == lowest
        for workers in (1, 2, 3):
            with pytest.raises(NonConvergedError) as exc:
                dp.diproperm(ds, plan, classifier="dwd", workers=workers,
                             dwd_max_iter=max_iter)
            got, (b, ref) = exc.value, expected
            assert got.perm_index == b
            assert got.iterations == ref.iterations == max_iter
            assert got.kkt_residual == ref.kkt_residual
            assert np.array_equal(got.model.direction.w, ref.model.direction.w)
            assert got.model.direction.beta == ref.model.direction.beta
            assert got.model.objective == ref.model.objective


def test_any_refit_failure_names_its_permutation(monkeypatch, tmp_path, capsys):
    # the observed fit is fine, but every balanced relabeling gives both
    # classes the same rows, so no re-fit has a direction: the error is
    # the lowest index's, names it, keeps it across a pickle (as a user
    # may store it) and reaches the CLI as one line
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    ds = dp.LabeledDataset([[0, 1], [0, 1], [1, 0], [1, 0]], [-1, -1, 1, 1])
    data, labels = tmp_path / "x.csv", tmp_path / "y.txt"
    dp.write_dense(ds, data)
    dp.write_labels(ds, labels)
    for classifier in ("md", "dwd"):
        for workers in (1, 3):
            with pytest.raises(ZeroDirectionError) as exc:
                dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 1), alpha=0.1,
                             classifier=classifier, workers=workers)
            err = exc.value
            assert err.perm_index == 1 and str(err).endswith(" (permutation 1)")
            again = pickle.loads(pickle.dumps(err))
            assert (type(again), again.perm_index, str(again)) == (type(err), 1, str(err))
            code = cli.main(["run", "--data", str(data), "--labels", str(labels),
                             "-B", "20", "--seed", "1", "--alpha", "0.1",
                             "--classifier", classifier, "--workers", str(workers),
                             "--out", str(tmp_path / "out")])
            assert (code, capsys.readouterr().err) == (2, f"error: {err}\n")


def test_permutation_scoring_failure_names_its_permutation(monkeypatch):
    # every re-fit has a direction, but one relabeling projects a class
    # onto a single point: its t statistic fails, naming its permutation
    # from whatever block (and thread) it falls in
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    ds = dp.LabeledDataset([[0], [0], [1], [0], [1], [1]], [-1, -1, -1, 1, 1, 1])
    plan = dp.PermutationPlan("unbalanced", 20, 3)
    for b in range(1, plan.B + 1):  # the first permutation the public route fails on
        y_b = dp.permute_labels(ds.labels, plan.scheme, dp.derive_stream(plan.seed, b))
        ds_b = dp.LabeledDataset(ds.features, y_b)
        try:
            dp.stat_t(dp.project(ds_b, dp.md_direction(ds_b)))
        except ZeroVarianceError as err:
            expected = b, str(err)
            break
    assert expected[0] == 20  # in the third block at 3 workers (14-20)
    for workers in (1, 3):
        with pytest.raises(ZeroVarianceError) as exc:
            dp.diproperm(ds, plan, classifier="md", statistic="t", alpha=0.1,
                         workers=workers)
        assert exc.value.perm_index == expected[0]
        assert str(exc.value) == f"{expected[1]} (permutation 20)"


def test_lowest_failure_wins_across_fits_and_statistics(monkeypatch):
    # an md re-fit fails where a relabeling gives both classes one mean,
    # the t statistic where it makes both classes constant; the lower index
    # names the run's error, also when both fall in one block: on seed 28
    # permutation 2's statistic and 4's fit fail (block 1-6 at 3 workers),
    # on seed 4 1's fit and 2's statistic, on seed 747 7's fit and 8's
    # statistic (block 7-13, a pool thread's)
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    ds = dp.LabeledDataset(np.c_[[0, 0, 0, 1, 0, 1, 1, 1], np.zeros(8)], [-1] * 4 + [1] * 4)
    for seed, expected in ((28, ".S.F"), (4, "FS"), (747, "......FS")):
        plan = dp.PermutationPlan("unbalanced", 20, seed)
        seen, first = "", None
        for b in range(1, len(expected) + 1):  # the public route's outcomes
            y_b = dp.permute_labels(ds.labels, plan.scheme, dp.derive_stream(seed, b))
            ds_b = dp.LabeledDataset(ds.features, y_b)
            try:
                dp.stat_t(dp.project(ds_b, dp.md_direction(ds_b)))
                seen += "."
            except (ZeroDirectionError, ZeroVarianceError) as err:
                seen += "F" if isinstance(err, ZeroDirectionError) else "S"
                first = first or (b, type(err), str(err))
        assert seen == expected
        for workers in (1, 3):
            with pytest.raises(DppError) as exc:
                dp.diproperm(ds, plan, classifier="md", statistic="t", alpha=0.1,
                             workers=workers)
            assert (exc.value.perm_index, type(exc.value), str(exc.value)) == (
                first[0], first[1], f"{first[2]} (permutation {first[0]})")


def test_pool_only_for_blocks_worth_a_process(monkeypatch):
    # `workers` is an upper bound: a block of fewer than its classifier's
    # _MIN_BLOCK re-fits gets no thread (an md run never splits), and the
    # calling thread runs block 1 beside a pool of the other blocks; the
    # answer is the same on every path
    pools = []

    class SpyPool(engine.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.max_workers, self.blocks = max_workers, []
            pools.append(self)

        def submit(self, fn, block):
            self.blocks.append(block)
            return super().submit(fn, block)

    def answer(r):
        return (r.perm_statistics.tobytes(), r.p_value, r.z_score, r.cutoff,
                [(b, rec.statistic, rec.permuted_labels.tobytes(),
                  rec.scores.scores.tobytes()) for b, rec in r.records.items()])

    monkeypatch.setattr(engine, "ThreadPoolExecutor", SpyPool)
    ds = make_blobs(n=20, p=4, distance=2.0, seed=6)
    for classifier, B, min_block, split in (
            ("dwd", 100, None, {1: [], 2: [], 3: []}),
            ("md", 1152, None, {2: [], 3: []}),
            ("dwd", 1152, None, {2: [range(577, 1153)],
                                 3: [range(385, 769), range(769, 1153)]}),
            ("dwd", 20, SPLIT, {2: [range(11, 21)], 3: [range(7, 14), range(14, 21)]})):
        if min_block:
            monkeypatch.setattr(engine, "_MIN_BLOCK", min_block)
        plan = dp.PermutationPlan("balanced", B, 3)
        one = dp.diproperm(ds, plan, classifier, workers=1)
        for workers, blocks in split.items():
            pools.clear()
            r = dp.diproperm(ds, plan, classifier, workers=workers)
            assert [(p.max_workers, p.blocks) for p in pools] == (
                [(len(blocks), blocks)] if blocks else [])
            assert answer(r) == answer(one)


def test_abort_in_callers_block_leaves_no_worker_behind(monkeypatch):
    # every re-fit fails (seed 10, max_iter 5): the caller's own block 1
    # raises while the pool runs blocks 2 and 3, and no thread outlives it
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    threads = set(threading.enumerate())
    ds = make_blobs(n=24, p=2, distance=8.0, std=0.5, seed=10)
    with pytest.raises(NonConvergedError) as exc:
        dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 1), workers=3,
                     dwd_max_iter=5)
    assert exc.value.perm_index == 1
    assert set(threading.enumerate()) == threads


def test_split_run_loads_no_multiprocessing():
    # a split run's extra blocks run on threads: neither the import nor
    # the run loads multiprocessing, and two blocks give one block's answer
    code = ("import sys, diproperm as dp; from diproperm import engine\n"
            "engine._MIN_BLOCK = dict.fromkeys(engine.CLASSIFIERS, 1)\n"
            "ds, plan = dp.synthetic_blobs(20, 4), dp.PermutationPlan('balanced', 20, 3)\n"
            "one, two = (dp.diproperm(ds, plan, workers=w).perm_statistics for w in (1, 2))\n"
            "print('multiprocessing' in sys.modules, one.tobytes() == two.tobytes())")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dp.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out == ["False", "True"]


def test_observed_fit_is_row_0_of_block_1(monkeypatch):
    # one _dwd_batch per block, block 1's with the observed labels first;
    # the observed model is dwd_direction's bit for bit at any worker count
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    ds = make_blobs(n=20, p=4, distance=2.0, seed=6)
    calls, real = [], direction._dwd_batch

    def spy(X, Y, **kw):
        calls.append((len(Y), np.array_equal(Y[0], ds.labels)))
        return real(X, Y, **kw)

    monkeypatch.setattr(direction, "_dwd_batch", spy)
    single = dp.dwd_direction(ds, C=dp.penalty_parameter(ds))
    plan = dp.PermutationPlan("balanced", 20, 3)
    for workers, sizes in ((1, [20]), (2, [10, 10]), (3, [6, 7, 7])):
        calls.clear()
        m = dp.diproperm(ds, plan, workers=workers).observed_model
        assert sorted(calls) == sorted([(sizes[0] + 1, True)]
                                       + [(k, False) for k in sizes[1:]])
        assert m.direction.w.tobytes() == single.direction.w.tobytes()
        assert m.direction.beta == single.direction.beta
        assert (m.iterations, m.objective, m.kkt_residual, m.training_error) == (
            single.iterations, single.objective, single.kkt_residual, single.training_error)
    # an observed fit that fails raises its own error, with no perm_index
    with pytest.raises(NonConvergedError) as expected:
        dp.dwd_direction(ds, C=dp.penalty_parameter(ds), max_iter=1)
    for workers in (1, 3):
        with pytest.raises(NonConvergedError) as exc:
            dp.diproperm(ds, plan, workers=workers, dwd_max_iter=1)
        assert exc.value.perm_index is None
        assert (exc.value.iterations, exc.value.kkt_residual) == (
            expected.value.iterations, expected.value.kkt_residual)


def test_only_the_observed_fit_forms_w(monkeypatch):
    # re-fits are scored from their (w, beta) arrays (md) or row-space
    # solutions (DWD): a run of either classifier constructs one
    # Direction, permutation 0's, in the calling thread, and no pool block any
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    made, real = [], dp.Direction.__post_init__

    def spy(self):
        made.append(threading.get_ident())
        real(self)

    monkeypatch.setattr(dp.Direction, "__post_init__", spy)
    ds = make_blobs(n=20, p=50, seed=6)
    for classifier in ("md", "dwd"):
        for workers in (1, 3):
            made.clear()
            dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 3), classifier=classifier,
                         workers=workers)
            assert made == [threading.get_ident()]


def test_run_state_is_released():
    # no run's arrays (X, y, K, ...) outlive diproperm(), whether it
    # returns or raises
    ds = make_blobs(n=24, p=2, distance=8.0, std=0.5, seed=10)
    features = weakref.ref(ds.features)
    plan = dp.PermutationPlan("balanced", 20, 1)
    dp.diproperm(ds, plan, workers=1)
    try:  # not pytest.raises: its ExceptionInfo would keep the frames alive
        dp.diproperm(ds, plan, workers=1, dwd_max_iter=12)
    except NonConvergedError:
        pass
    else:
        raise AssertionError("the re-fits were expected not to converge")
    del ds
    gc.collect()
    assert features() is None


def test_engine_matches_public_refits_bit_for_bit(monkeypatch):
    # each permutation statistic is what the public per-stage API gives for
    # that relabeling, at any worker count (p > n: coefficient-space DWD)
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)
    ds = make_blobs(n=20, p=200, seed=3)
    plan = dp.PermutationPlan("balanced", 20, 4)
    C = dp.penalty_parameter(ds)
    expected = []
    for b in range(1, plan.B + 1):
        y_b = dp.permute_labels(ds.labels, plan.scheme, dp.derive_stream(plan.seed, b))
        ds_b = dp.LabeledDataset(ds.features, y_b)
        direction = dp.dwd_direction(ds_b, C=C).direction
        expected.append(dp.stat_md(dp.project(ds_b, direction)))
    for workers in (1, 2, 3):  # 3 blocks of 6, 7 and 7
        r = dp.diproperm(ds, plan, workers=workers)
        assert r.perm_statistics.tolist() == expected


def test_records_view_is_the_per_permutation_records(monkeypatch):
    # `records` is derived from the kept stack, and each of its entries is
    # the record a run kept before it stored a stack: the relabeling of b's
    # stream, its re-fit's scores through the public API and entry b of
    # perm_statistics; default and retain_all runs, one block and two
    monkeypatch.setattr(engine, "_MIN_BLOCK", SPLIT)  # workers=2 splits md too
    ds = make_blobs(n=14, p=3, seed=8)
    plan = dp.PermutationPlan("unbalanced", 30, 6)
    for retain_all in (False, True):
        for workers in (1, 2):
            r = dp.diproperm(ds, plan, classifier="md", workers=workers,
                             retain_all=retain_all)
            stats = r.perm_statistics
            wanted = (range(1, 31) if retain_all
                      else sorted({1, 2, stats.argmin() + 1, stats.argmax() + 1}))
            assert list(r.records) == list(wanted) == r.kept[1:].tolist()
            for b, rec in r.records.items():
                y_b = dp.permute_labels(ds.labels, plan.scheme, dp.derive_stream(plan.seed, b))
                ds_b = dp.LabeledDataset(ds.features, y_b)
                scores = dp.project(ds_b, dp.md_direction(ds_b))
                assert rec.perm_index == b and type(rec.statistic) is float
                assert rec.permuted_labels.tobytes() == y_b.tobytes()
                assert rec.scores.labels.tobytes() == y_b.tobytes()
                assert rec.scores.scores.tobytes() == scores.scores.tobytes()
                assert rec.statistic == stats[b - 1] == dp.stat_md(scores)


def test_dwd_run_memory_stays_small():
    # re-fits are batched and scored from the row space without forming
    # their w, so no per-permutation p-vector is held for the run (200 of
    # them would take 8 MB here)
    ds = dp.synthetic_blobs(60, 5000, seed=0)
    tracemalloc.start()
    try:
        dp.diproperm(ds, dp.PermutationPlan("balanced", 200, 0), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the peak, 4.79 MB on numpy 2.4.6, is set by the Newton steps: the
    # batch's 201 rows of solver state and one ~2 MB chunk of stacked
    # systems with its solve's copy (the batch alone peaks at 4.46 MB);
    # the centered Gram peaks at 2.47 MB, the observed fit's w from X less
    # its column means at 3.62 MB.  The bound is the one-fit-at-a-time
    # engine's 4.81 MB plus 0.5 MB: 200 held w's would add 8 MB
    assert peak <= 4.81e6 + 0.5e6


def test_md_run_holds_no_n_by_n_array():
    # md is fit in feature space: a run never holds X Xᵀ, which takes
    # 72 MB here
    ds = dp.synthetic_blobs(3000, 5, seed=0)
    tracemalloc.start()
    try:
        dp.diproperm(ds, dp.PermutationPlan("balanced", 20, 0), classifier="md", workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(ds.features) ** 2 / 4  # 3.0 MB on numpy 2.4.6


def test_dwd_engine_uses_single_penalty(mushrooms):
    r = dp.diproperm(
        mushrooms, dp.PermutationPlan("balanced", 20, 2), workers=1
    )
    assert r.observed_model is not None
    assert r.observed_model.C == pytest.approx(dp.penalty_parameter(mushrooms))
    assert r.observed_model.training_error == 0.0


def test_loadings_cover_all_features(mushrooms, monkeypatch):
    # a result derives its loadings from the observed direction on access;
    # diproperm() itself builds none
    real, calls = engine.loadings_of, []
    monkeypatch.setattr(engine, "loadings_of",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for ds, classifier in ((mushrooms, "dwd"), (make_blobs(n=12, p=5, seed=4), "md")):
        calls.clear()
        r = run_small(ds, B=30, classifier=classifier)
        assert calls == []
        assert r.loadings == real(r.observed_direction, names=ds.feature_names)
        assert len(r.loadings) == ds.n_features
        assert (r.loadings[0].name is None) == (ds.feature_names is None)
        mags = [abs(ld.value) for ld in r.loadings]
        assert mags == sorted(mags, reverse=True)
