"""End-to-end CLI tests (subprocess)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diproperm as dp
from diproperm import cli, engine
from diproperm.engine import CLASSIFIERS
from diproperm.errors import ValidationError
from diproperm.report import PANELS
from diproperm.permute import SCHEMES
from diproperm.unistat import STATISTICS


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None, **kw):
    # the child imports this checkout's package: pytest's own pythonpath
    # setting does not reach a subprocess
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "diproperm.cli", *map(str, args)],
        capture_output=True, text=True, env=env, **kw,
    )


@pytest.fixture(scope="module")
def blob_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("blobs")
    data, labels = d / "x.csv", d / "y.txt"
    out = run_cli("synth", "--out", data, "--labels-out", labels,
                  "-n", 60, "-p", 2, "--std", 2.0, "--distance", 6.0,
                  "--seed", 3)
    assert out.returncode == 0, out.stderr
    return data, labels


@pytest.fixture(scope="module")
def run_dir(blob_files, tmp_path_factory):
    data, labels = blob_files
    out_dir = tmp_path_factory.mktemp("run")
    out = run_cli(
        "run", "--data", data, "--labels", labels, "--out", out_dir,
        "-B", 100, "--seed", 4, "--workers", 1, "--classifier", "dwd",
    )
    assert out.returncode == 0, out.stderr
    return out_dir, out.stdout


def test_run_outputs_and_summary_line(run_dir):
    out_dir, stdout = run_dir
    result = json.loads((out_dir / "result.json").read_text())
    files = {p.name for p in out_dir.iterdir()}
    assert files >= {
        "result.json", "obs.csv", "obs.svg", "min.csv", "min.svg",
        "max.csv", "max.svg", "permdist.csv", "permdist.svg",
    }
    line = stdout.strip().splitlines()[-1]
    # summary numbers must equal the JSON fields exactly
    assert line == (
        f"stat={result['observed_statistic']!r} p={result['p_value']!r} "
        f"z={result['z_score']!r} cutoff={result['cutoff']!r}"
    )
    # separated blobs: the test rejects
    assert result["p_value"] <= 0.05


def test_run_is_deterministic(blob_files, tmp_path):
    data, labels = blob_files
    outs = []
    for sub in ("a", "b"):
        out = run_cli(
            "run", "--data", data, "--labels", labels,
            "--out", tmp_path / sub, "-B", 50, "--seed", 11, "--workers", 2,
            "--classifier", "md",
        )
        assert out.returncode == 0, out.stderr
        outs.append((tmp_path / sub / "result.json").read_bytes())
    assert outs[0] == outs[1]


def test_run_rejects_bad_b(blob_files, tmp_path):
    data, labels = blob_files
    out = run_cli("run", "--data", data, "--labels", labels,
                  "--out", tmp_path / "x", "-B", 0)
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "B" in out.stderr
    # a B whose indices need spawn keys of two words is refused before the run
    out = run_cli("run", "--data", data, "--labels", labels,
                  "--out", tmp_path / "y", "-B", 2**32)
    assert out.returncode == 2
    assert out.stderr.startswith("error: B ") and out.stderr.count("\n") == 1


def test_run_rejects_non_finite_dwd_tol(blob_files, tmp_path, capsys):
    # inf would return the warm start as a converged fit, nan would read
    # as non-convergence (exit 3): both are bad arguments
    data, labels = blob_files
    for tol in ("inf", "nan"):
        code = cli.main(["run", "--data", str(data), "--labels", str(labels),
                         "-B", "40", "--dwd-tol", tol, "--out", str(tmp_path / tol)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "tol" in err


def test_result_json_reproduces_its_run(tmp_path, capsys):
    # the stored config holds the DWD stopping rule too, so diproperm()
    # given the file's config gives the file's statistics, bit for bit
    out = tmp_path / "run"
    assert cli.main(["run", "--data", "bundled:mushrooms50", "-B", "20", "--seed", "5",
                     "--alpha", "0.1", "--dwd-tol", "1e-6", "--dwd-max-iter", "50",
                     "--workers", "1", "--out", str(out)]) == 0
    stored = json.loads((out / "result.json").read_text())["perm_statistics"]
    c = dp.load_result_json(out / "result.json").config
    assert (c.dwd_tol, c.dwd_max_iter) == (1e-6, 50)
    again = dp.diproperm(dp.mushrooms50(), dp.PermutationPlan(c.scheme, c.B, c.seed),
                         classifier=c.classifier, statistic=c.statistic, alpha=c.alpha,
                         workers=1, dwd_tol=c.dwd_tol, dwd_max_iter=c.dwd_max_iter)
    assert again.config == c
    assert again.perm_statistics.tobytes() == np.array(stored).tobytes()


def test_run_missing_file(tmp_path):
    out = run_cli("run", "--data", tmp_path / "nope.csv",
                  "--labels", tmp_path / "nope2.txt", "--out", tmp_path / "o")
    assert out.returncode == 1
    assert out.stderr.startswith("error:")


def test_loadings_output(run_dir):
    out_dir, _ = run_dir
    out = run_cli("loadings", out_dir / "result.json", "--loadnum", 2)
    assert out.returncode == 0
    rows = out.stdout.strip().splitlines()
    assert len(rows) == 2
    result = json.loads((out_dir / "result.json").read_text())
    first = result["loadings"][0]
    assert rows[0].split()[0] == str(first["index"])
    assert float(rows[0].split()[1]) == first["value"]


def test_loadings_all_and_out_of_range(run_dir):
    out_dir, _ = run_dir
    out = run_cli("loadings", out_dir / "result.json")
    assert out.returncode == 0
    assert len(out.stdout.strip().splitlines()) == 2  # p = 2 variables
    out = run_cli("loadings", out_dir / "result.json", "--loadnum", 3)
    assert out.returncode == 2
    out = run_cli("loadings", out_dir / "missing.json")
    assert out.returncode == 1


def test_non_finite_direction_is_refused(run_dir, tmp_path, capsys):
    # a NaN loading would otherwise sort silently out of the printed rows
    out_dir, _ = run_dir
    doc = json.loads((out_dir / "result.json").read_text())
    for w, beta in (([float("nan"), 1.0], 0.0), ([1.0, 0.0], float("inf"))):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, "direction": {"w": w, "beta": beta}}))
        assert cli.main(["loadings", str(path), "--loadnum", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "'direction'" in captured.err


def test_report_single_panel(run_dir, tmp_path):
    out_dir, _ = run_dir
    out = run_cli("report", out_dir / "result.json", "--panels", "permdist",
                  "--out", tmp_path / "rep")
    assert out.returncode == 0
    files = sorted(p.name for p in (tmp_path / "rep").iterdir())
    assert files == ["permdist.csv", "permdist.svg"]


def test_report_perm1_retained_by_default(run_dir, tmp_path):
    out_dir, _ = run_dir
    out = run_cli("report", out_dir / "result.json", "--panels", "perm1,perm2",
                  "--out", tmp_path / "rep2")
    assert out.returncode == 0
    files = sorted(p.name for p in (tmp_path / "rep2").iterdir())
    assert files == ["perm1.csv", "perm1.svg", "perm2.csv", "perm2.svg"]


def test_report_unknown_panel(run_dir, tmp_path):
    out_dir, _ = run_dir
    for panels in ("bogus", "", ",,"):  # an empty list is refused too
        out = run_cli("report", out_dir / "result.json", "--panels", panels,
                      "--out", tmp_path / "rep3")
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and "panels" in out.stderr


def test_bad_bins_fail_before_the_run(blob_files, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a bad --bins must be refused before the run")

    monkeypatch.setattr(cli, "diproperm", no_run)
    data, labels = blob_files
    assert cli.main(["run", "--data", str(data), "--labels", str(labels), "-B", "40",
                     "--bins", "0", "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "bins" in err
    assert not (tmp_path / "b" / "result.json").exists()


def test_non_finite_feature_is_one_located_error(tmp_path, capsys):
    data, labels = tmp_path / "x.csv", tmp_path / "y.txt"
    data.write_text("1,2\n3,nan\n5,6\n7,8\n")
    labels.write_text("-1\n1\n-1\n1\n")
    assert cli.main(["run", "--data", str(data), "--labels", str(labels),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: features contain NaN or Inf entries; "
                                       "the first is nan at sample 2, feature 2\n")


def test_data_without_a_feature_column_is_refused(tmp_path, capsys):
    # a file of labels alone has no variable to test on: it is refused on
    # load, not fit and failed under another name
    with pytest.raises(ValidationError, match="^features must have at least one column$"):
        dp.LabeledDataset(np.zeros((4, 0)), [-1, 1, -1, 1])
    dense, sparse = tmp_path / "onlylab.csv", tmp_path / "onlylab.svm"
    dense.write_text("-1\n1\n-1\n1\n-1\n1\n")
    sparse.write_text("-1\n1\n-1\n1\n-1\n1\n")
    for data in (["--data", str(dense), "--label-column", "0"],
                 ["--data", str(sparse), "--format", "sparse"]):
        for classifier in CLASSIFIERS:
            assert cli.main(["run", *data, "-B", "20", "--classifier", classifier,
                             "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == "error: features must have at least one column\n"
    assert not (tmp_path / "o").exists()


def test_data_options_are_read_or_refused(blob_files, tmp_path, capsys):
    # each format reads its own options: a header and label column for a
    # dense file, a width for a sparse one; an option the data does not
    # read is refused by name rather than ignored (shuffled labels beside
    # a sparse file used to run on the file's own)
    data, labels = blob_files
    ds = dp.load_dense(data, labels_path=labels)
    headed, svm = tmp_path / "headed.csv", tmp_path / "x.svm"
    headed.write_text("x1,cls,x2\n" + "".join(
        f"{a!r},{y},{b!r}\n" for (a, b), y in zip(ds.features.tolist(), ds.labels)))
    dp.write_sparse(ds, svm)
    common = ["-B", "20", "--seed", "1", "--classifier", "md", "--workers", "1"]
    runs = {"dense": ["--data", str(data), "--labels", str(labels)],
            "headed": ["--data", str(headed), "--has-header", "--label-column", "cls"],
            "index": ["--data", str(headed), "--has-header", "--label-column", "1"],
            "sparse": ["--data", str(svm), "--format", "sparse", "--n-features", "2"]}
    for name, args in runs.items():
        assert cli.main(["run", *args, *common, "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().out.count("stat=") == len(runs)
    results = [json.loads((tmp_path / name / "result.json").read_text()) for name in runs]
    assert all(r["perm_statistics"] == results[0]["perm_statistics"] for r in results)
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("".join(f"{y}\n" for y in np.random.default_rng(0).permutation(ds.labels)))
    bundled = "bundled:mushrooms50"
    for args, flag, kind in (
            (["--data", str(svm), "--format", "sparse", "--labels", str(shuffled)],
             "--labels", "sparse data"),
            (["--data", str(svm), "--format", "sparse", "--label-column", "0"],
             "--label-column", "sparse data"),
            (["--data", str(svm), "--format", "sparse", "--has-header"],
             "--has-header", "sparse data"),
            (["--data", str(data), "--labels", str(labels), "--n-features", "3"],
             "--n-features", "dense data"),
            (["--data", bundled, "--labels", str(shuffled)], "--labels", bundled),
            (["--data", bundled, "--label-column", "0"], "--label-column", bundled),
            (["--data", bundled, "--has-header"], "--has-header", bundled),
            (["--data", bundled, "--n-features", "0"], "--n-features", bundled),
            (["--data", bundled, "--format", "sparse"], "--format", bundled),
            (["--data", bundled, "--format", "dense"], "--format", bundled)):
        out = tmp_path / "refused"
        assert cli.main(["run", *args, *common, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply to {kind}\n"
        assert not out.exists()


def test_bundled_mushrooms_run(tmp_path):
    out = run_cli(
        "run", "--data", "bundled:mushrooms50", "--out", tmp_path / "m",
        "-B", 25, "--seed", 1, "--workers", 1, "--alpha", "0.2",
        "--classifier", "md",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads((tmp_path / "m" / "result.json").read_text())
    assert len(result["observed_scores"]["scores"]) == 50
    assert result["loadings"][0]["name"]  # names travel with the bundle


def test_workers_env_fallback(blob_files, tmp_path):
    data, labels = blob_files
    env = {**os.environ, "DPP_WORKERS": "1"}
    out = run_cli(
        "run", "--data", data, "--labels", labels, "--out", tmp_path / "w",
        "-B", 30, "--seed", 2, "--classifier", "md", env=env,
    )
    assert out.returncode == 0, out.stderr


def test_bad_worker_counts_are_errors(blob_files, tmp_path):
    data, labels = blob_files
    base = ["run", "--data", data, "--labels", labels, "--out", tmp_path / "z",
            "-B", 30, "--classifier", "md"]
    for extra, workers in (([], "0"), (["--workers", 0], ""), ([], "two")):
        out = run_cli(*base, *extra, env={**os.environ, "DPP_WORKERS": workers})
        assert out.returncode == 2
        assert "workers" in out.stderr


def test_parser_restates_no_library_choice_or_default(monkeypatch, tmp_path):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices
    choices = {a.dest: a.choices for a in sub["run"]._actions if a.choices}
    assert choices["classifier"] == CLASSIFIERS
    assert choices["statistic"] == tuple(STATISTICS)
    assert choices["scheme"] == SCHEMES
    panels = next(a for a in sub["report"]._actions if a.dest == "panels")
    assert tuple(panels.help.split()[-1].split(",")) == PANELS

    # a run given only --data/--out is configured exactly like diproperm()
    class Captured(Exception):
        pass

    seen = []

    def spy(state, *args, **kw):  # state is (y, config, fit)
        seen.append(state[1])
        raise Captured

    monkeypatch.setattr(engine, "_permutations", spy)
    monkeypatch.delenv("DPP_WORKERS", raising=False)
    with pytest.raises(Captured):
        dp.diproperm(dp.mushrooms50())
    with pytest.raises(Captured):
        cli.main(["run", "--data", "bundled:mushrooms50", "--out", str(tmp_path)])
    assert seen[0] == seen[1]
