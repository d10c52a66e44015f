"""End-to-end CLI tests (subprocess)."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

import diproperm as dp
from diproperm import cli, engine
from diproperm.engine import CLASSIFIERS, PANELS
from diproperm.permute import SCHEMES
from diproperm.unistat import STATISTICS


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "diproperm.cli", *map(str, args)],
        capture_output=True, text=True, **kw,
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
    out = run_cli("report", out_dir / "result.json", "--panels", "bogus",
                  "--out", tmp_path / "rep3")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


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
    import os
    env = {**os.environ, "DPP_WORKERS": "1"}
    out = run_cli(
        "run", "--data", data, "--labels", labels, "--out", tmp_path / "w",
        "-B", 30, "--seed", 2, "--classifier", "md", env=env,
    )
    assert out.returncode == 0, out.stderr


def test_bad_worker_counts_are_errors(blob_files, tmp_path):
    data, labels = blob_files
    import os
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

    def spy(X, y, config, C, factors):
        seen.append(config)
        raise Captured

    monkeypatch.setattr(engine, "_fit_and_score", spy)
    monkeypatch.delenv("DPP_WORKERS", raising=False)
    with pytest.raises(Captured):
        dp.diproperm(dp.mushrooms50())
    with pytest.raises(Captured):
        cli.main(["run", "--data", "bundled:mushrooms50", "--out", str(tmp_path)])
    assert seen[0] == seen[1]
