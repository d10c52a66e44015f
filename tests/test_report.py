"""Diagnostics emission tests: CSV, SVG structure, JSON round-trip."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import diproperm as dp
from diproperm import cli
from diproperm.direction import DEFAULT_MAX_ITER, DEFAULT_TOL
from diproperm.engine import PANELS
from diproperm.errors import PanelUnavailableError, ValidationError
from conftest import make_blobs

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def result():
    ds = make_blobs(n=20, p=3, distance=3.0, seed=12)
    return dp.diproperm(
        ds, dp.PermutationPlan("balanced", 60, 9), classifier="dwd",
        statistic="md", workers=1,
    )


def test_scores_csv_contents(result, tmp_path):
    path = tmp_path / "obs.csv"
    dp.emit_scores_csv(result, "obs", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "score,label"
    assert len(lines) == 1 + 20
    score, label = lines[1].split(",")
    assert float(score) == result.observed_scores.scores[0]
    assert int(label) == result.observed_scores.labels[0]


def test_csv_byte_identical_reemission(result, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dp.emit_scores_csv(result, "min", a)
    dp.emit_scores_csv(result, "min", b)
    assert a.read_bytes() == b.read_bytes()


def test_panel_unavailable_when_records_pruned(result, tmp_path):
    pruned = dp.DppResult(**{**result.__dict__, "records": {}})
    with pytest.raises(PanelUnavailableError):
        dp.emit_scores_csv(pruned, "min", tmp_path / "x.csv")
    with pytest.raises(ValidationError):
        dp.emit_scores_csv(result, "permdist", tmp_path / "x.csv")


def test_permdist_svg_structure(result, tmp_path):
    path = tmp_path / "permdist.svg"
    dp.emit_permdist_svg(result, path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    bars = root.findall(f".//{SVG}g[@class='bars']/{SVG}rect")
    assert len(bars) >= 10
    assert sum(int(r.get("data-count")) for r in bars) == result.config.B
    markers = {
        line.get("class"): line for line in root.findall(f".//{SVG}line")
        if line.get("class", "").startswith("marker")
    }
    assert set(markers) == {"marker observed", "marker cutoff"}
    # separable blobs: observed statistic sits right of every bar
    xo = float(markers["marker observed"].get("x1"))
    for r in bars:
        assert float(r.get("x")) + float(r.get("width")) < xo
    text = "".join(root.find(f".//{SVG}text[@class='summary']").itertext())
    assert f"p={result.p_value:.3g}" in text
    assert f"z={result.z_score:.3g}" in text
    assert f"cutoff={result.cutoff:.3g}" in text
    assert f"stat={result.observed_statistic:.3g}" in text


def test_permdist_svg_deterministic(result, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    dp.emit_permdist_svg(result, a, bins=17)
    dp.emit_permdist_svg(result, b, bins=17)
    assert a.read_bytes() == b.read_bytes()


def test_score_panel_svg_mean_markers(result, tmp_path):
    obs, low = tmp_path / "obs.svg", tmp_path / "min.svg"
    dp.emit_score_panel_svg(result, "obs", obs)
    dp.emit_score_panel_svg(result, "min", low)

    def mean_gap(path):
        root = ET.parse(path).getroot()
        xs = {}
        for line in root.findall(f".//{SVG}line"):
            cls = line.get("class", "")
            if cls.startswith("mean"):
                xs[cls.split()[-1]] = float(line.get("x1"))
        return xs

    xs_obs = mean_gap(obs)
    assert xs_obs["mean-neg"] < xs_obs["mean-pos"]  # orientation convention
    xs_min = mean_gap(low)
    # the weakest permutation separates less than the observed data
    assert abs(xs_min["mean-pos"] - xs_min["mean-neg"]) <= (
        xs_obs["mean-pos"] - xs_obs["mean-neg"]
    )


def test_score_panel_svg_deterministic(result, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    dp.emit_score_panel_svg(result, "perm1", a)
    dp.emit_score_panel_svg(result, "perm1", b)
    assert a.read_bytes() == b.read_bytes()
    root = ET.parse(a).getroot()
    circles = root.findall(f".//{SVG}circle")
    assert len(circles) == 20


def test_result_json_roundtrip(result, tmp_path, capsys):
    path = tmp_path / "result.json"
    dp.emit_result_json(result, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    again = dp.load_result_json(path)
    assert again.config == result.config
    assert again.observed_statistic == result.observed_statistic
    assert again.p_value == result.p_value
    assert again.z_score == result.z_score
    assert again.cutoff == result.cutoff
    assert np.array_equal(again.perm_statistics, result.perm_statistics)
    assert np.array_equal(again.observed_direction.w, result.observed_direction.w)
    assert again.observed_direction.beta == result.observed_direction.beta
    assert set(again.records) == set(result.records)
    for b in result.records:
        assert np.array_equal(
            again.records[b].scores.scores, result.records[b].scores.scores
        )
    assert again.observed_model.training_error == result.observed_model.training_error
    assert again.loadings == result.loadings

    # the loadings are derived from direction.w and feature_names: a
    # document without them loads, prints the same loadings and re-emits
    # the original bytes, with and without feature names
    named = dp.DppResult(**{**result.__dict__, "feature_names": ("a", "b", "c")})
    for res in (result, named):
        dp.emit_result_json(res, path)
        doc = json.loads(path.read_text())
        del doc["loadings"]
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(doc))
        printed = []
        for source in (path, stripped):
            loaded = dp.load_result_json(source)
            assert loaded.loadings == res.loadings
            dp.emit_result_json(loaded, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
            assert cli.main(["loadings", str(source)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].count("\n") == 3


def test_result_json_feature_names_match_direction(result, tmp_path, capsys):
    # one name too few (or too many) is refused on load, naming the field
    named = dp.DppResult(**{**result.__dict__, "feature_names": ("a", "b", "c")})
    path = tmp_path / "result.json"
    dp.emit_result_json(named, path)
    for names in (["a", "b"], ["a", "b", "c", "d"]):
        doc = json.loads(path.read_text())
        doc["feature_names"] = names
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="feature_names"):
            dp.load_result_json(tampered)
        capsys.readouterr()
        for command in (["report", str(tampered), "--out", str(tmp_path / "out")],
                        ["loadings", str(tampered)]):
            assert cli.main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "feature_names" in err


def test_result_json_dwd_stopping_rule(result, tmp_path, capsys):
    # the config holds the DWD stopping rule; one no fit accepts is refused
    # on load, and a config without it (as in files written before the
    # config held it) loads with the defaults and re-emits the same panels
    path = tmp_path / "result.json"
    dp.emit_result_json(result, path)
    doc = json.loads(path.read_text())
    assert doc["config"]["dwd_tol"] == DEFAULT_TOL
    assert doc["config"]["dwd_max_iter"] == DEFAULT_MAX_ITER
    for key, value in (("dwd_tol", 0), ("dwd_tol", -1), ("dwd_tol", math.nan),
                       ("dwd_max_iter", 2.5)):
        name = key.removeprefix("dwd_")
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps({**doc, "config": {**doc["config"], key: value}}))
        with pytest.raises(ValidationError, match=name):
            dp.load_result_json(tampered)
        capsys.readouterr()
        assert cli.main(["report", str(tampered), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and name in err
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**doc, "config": {
        k: v for k, v in doc["config"].items() if not k.startswith("dwd_")}}))
    assert dp.load_result_json(old).config == result.config
    for source in (path, old):
        assert cli.main(["report", str(source), "--panels", ",".join(PANELS),
                         "--out", str(tmp_path / source.stem)]) == 0
    for name in (f"{panel}.{ext}" for panel in PANELS for ext in ("csv", "svg")):
        assert (tmp_path / "old" / name).read_bytes() == (
            tmp_path / "result" / name).read_bytes()


def test_result_json_loadings_sorted(result, tmp_path):
    path = tmp_path / "result.json"
    dp.emit_result_json(result, path)
    doc = json.loads(path.read_text())
    mags = [abs(ld["value"]) for ld in doc["loadings"]]
    assert mags == sorted(mags, reverse=True)


def test_result_json_nan_z_is_null(result, tmp_path):
    weird = dp.DppResult(**{**result.__dict__, "z_score": math.nan})
    path = tmp_path / "weird.json"
    dp.emit_result_json(weird, path)
    doc = json.loads(path.read_text())
    assert doc["z_score"] is None
    assert math.isnan(dp.load_result_json(path).z_score)


def test_emit_bundle_default_panels(result, tmp_path):
    bundle = dp.DiagnosticsBundle(out_dir=tmp_path / "panels")
    paths = dp.emit_bundle(result, bundle)
    assert len(paths) == 8
    names = sorted(p.name for p in paths)
    assert names == sorted(
        ["obs.csv", "obs.svg", "min.csv", "min.svg",
         "max.csv", "max.svg", "permdist.csv", "permdist.svg"]
    )
    with pytest.raises(ValidationError):
        dp.DiagnosticsBundle(panels=("bogus",), out_dir=tmp_path)


def test_permdist_csv(result, tmp_path):
    path = tmp_path / "permdist.csv"
    dp.emit_permdist_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "perm_index,statistic"
    assert len(lines) == 1 + result.config.B
    idx, stat = lines[1].split(",")
    assert idx == "1"
    assert float(stat) == result.perm_statistics[0]
