"""Diagnostics emission tests: CSV, SVG structure, JSON round-trip."""

import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import diproperm as dp
from diproperm import cli
from diproperm.direction import DEFAULT_MAX_ITER, DEFAULT_TOL
from diproperm.report import PANELS
from diproperm.errors import PanelUnavailableError, ValidationError
from conftest import make_blobs

SVG = "{http://www.w3.org/2000/svg}"
# schema v1, written before results held their kept rows as one stack:
# md on synthetic_blobs(12, 2), PermutationPlan("unbalanced", 25, 1), retain_all
RESULT_V1 = Path(__file__).parent / "data" / "result_v1.json"


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
    # every run keeps perm1, perm2, min and max: a missing one was edited out
    stack = result.kept_scores
    pruned = dataclasses.replace(result, kept=result.kept[:1], kept_scores=dp.ProjectionScores(
        stack.scores[:1], stack.labels[:1]))
    with pytest.raises(PanelUnavailableError) as exc:
        dp.emit_scores_csv(pruned, "min", tmp_path / "x.csv")
    assert str(exc.value) == (f"panel 'min': the result holds no record of "
                              f"permutation {result.min_index}")
    with pytest.raises(ValidationError):
        dp.emit_scores_csv(result, "permdist", tmp_path / "x.csv")
    # a stack that does not start at the observed row 0, is out of order,
    # past B, not one row per kept index, or one row alone is refused, so
    # no other row can pass for the observed one
    scores, labels, kept = stack.scores, stack.labels, result.kept
    for kept_b, rows in ((kept[1:], slice(1, None)), (kept[::-1], slice(None, None, -1)),
                         (np.append(kept[:-1], result.config.B + 1), slice(None)), (kept[:2], slice(None)),
                         (kept[:1], 0)):
        with pytest.raises(ValidationError, match="kept rows"):
            dataclasses.replace(result, kept=kept_b, kept_scores=dp.ProjectionScores(
                scores[rows], labels[rows]))
    with pytest.raises(ValidationError, match="kept rows"):
        dataclasses.replace(result, perm_statistics=result.perm_statistics[1:])


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
    named = dataclasses.replace(result, feature_names=("a", "b", "c"))
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
    named = dataclasses.replace(result, feature_names=("a", "b", "c"))
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


def test_result_json_dwd_block_is_the_model(result, tmp_path, capsys):
    # the dwd block holds every DwdModel field but the direction, which the
    # document keeps once; a key the model lacks, or one it misses, is refused
    path = tmp_path / "result.json"
    dp.emit_result_json(result, path)
    doc = json.loads(path.read_text())
    names = {f.name for f in dataclasses.fields(dp.DwdModel)} - {"direction"}
    assert set(doc["dwd"]) == names
    loaded = dp.load_result_json(path).observed_model
    assert loaded.direction.w.tobytes() == result.observed_direction.w.tobytes()
    for name in names:
        assert getattr(loaded, name) == getattr(result.observed_model, name)
    tampered = tmp_path / "tampered.json"
    # and so is a field other than a finite JSON number (iterations:
    # integer); json writes and reads NaN and Infinity, which are not JSON
    for dwd in ({**doc["dwd"], "margin": 1.0},
                {k: v for k, v in doc["dwd"].items() if k != "C"},
                {**doc["dwd"], "C": "abc"}, {**doc["dwd"], "objective": True},
                {**doc["dwd"], "iterations": float(doc["dwd"]["iterations"])},
                {**doc["dwd"], "C": math.nan}, {**doc["dwd"], "kkt_residual": math.inf}):
        tampered.write_text(json.dumps({**doc, "dwd": dwd}))
        with pytest.raises(ValidationError, match="'dwd'"):
            dp.load_result_json(tampered)
        capsys.readouterr()
        assert cli.main(["report", str(tampered), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "dwd" in err


def test_result_json_loadings_sorted(result, tmp_path):
    path = tmp_path / "result.json"
    dp.emit_result_json(result, path)
    doc = json.loads(path.read_text())
    mags = [abs(ld["value"]) for ld in doc["loadings"]]
    assert mags == sorted(mags, reverse=True)


def test_result_json_nan_z_is_null(tmp_path):
    # two point-mass classes: every balanced relabeling gives 10/3, a
    # constant null with no z-score
    X = np.r_[np.zeros((3, 2)), np.tile([10.0, 0.0], (3, 1))]
    ds = dp.LabeledDataset(X, [-1, -1, -1, 1, 1, 1])
    const = dp.diproperm(ds, dp.PermutationPlan("balanced", 50, 3), classifier="md",
                         workers=1)
    assert math.isnan(const.z_score)
    path = tmp_path / "const.json"
    dp.emit_result_json(const, path)
    doc = json.loads(path.read_text())
    assert doc["z_score"] is None
    assert math.isnan(dp.load_result_json(path).z_score)


def test_result_json_non_finite_statistic_is_refused(tmp_path, capsys):
    # json reads NaN and Infinity, and a float64 array makes null a nan: a
    # statistic that is not a finite number is a malformed field, refused
    # before any panel is written
    path = tmp_path / "result.json"
    dp.emit_result_json(dp.diproperm(make_blobs(n=12, seed=2), dp.PermutationPlan(
        "unbalanced", 20, 1), classifier="md", workers=1), path)
    doc = json.loads(path.read_text())
    for value, read in ((None, "nan"), (math.nan, "nan"), (math.inf, "inf")):
        doc["perm_statistics"][3] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))  # null, NaN or Infinity
        with pytest.raises(ValidationError, match="'perm_statistics'.*permutation 4 has"):
            dp.load_result_json(edited)
        for panels in ([], ["--panels", "permdist,obs"]):
            out = tmp_path / f"panels-{read}-{len(panels)}"
            assert cli.main(["report", str(edited), *panels, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == ("error: result.json field 'perm_statistics' missing or malformed "
                           f"(ValueError: permutation 4 has statistic {read})\n")
            assert not out.exists()
    # so is a number written as a string or as true, which numpy would read
    # as a number, whether a statistic, a coordinate of w, beta or a score
    for keys in (("perm_statistics", 3), ("direction", "w", 0), ("direction", "beta"),
                 ("observed_scores", "scores", 0), ("records", "1", "scores", 0)):
        for value in ("0.5", True):
            doc = json.loads(path.read_text())
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
            edited.write_text(json.dumps(doc))
            with pytest.raises(ValidationError,
                               match=rf"'{keys[0]}'.*{value!r} is not a JSON number"):
                dp.load_result_json(edited)
    # so is a document of another schema
    doc = json.loads(path.read_text())
    edited.write_text(json.dumps({**doc, "schema_version": 2}))
    with pytest.raises(ValidationError, match="^unsupported schema_version 2$"):
        dp.load_result_json(edited)


def test_result_json_summary_is_derived_on_load(result, tmp_path, capsys):
    # the observed and record statistics, p, z and cutoff are written for
    # readers of the file; a loaded result derives them from its own scores
    # and statistics, so an edited file cannot contradict its distribution,
    # and re-emitting restores the originals
    path, edited = tmp_path / "result.json", tmp_path / "edited.json"
    dp.emit_result_json(result, path)
    doc = json.loads(path.read_text())
    doc["records"]["1"]["statistic"] = 123.0
    edited.write_text(json.dumps({**doc, "p_value": 0.9, "z_score": None, "cutoff": -1.0,
                                  "observed_statistic": 0.0}))
    loaded = dp.load_result_json(edited)
    stats, obs = loaded.perm_statistics, loaded.observed_statistic
    assert obs == dp.stat_md(loaded.observed_scores) == result.observed_statistic != 0.0
    assert loaded.records[1].statistic == stats[0] == result.records[1].statistic != 123.0
    assert loaded.p_value == dp.p_value(stats, obs) == result.p_value != 0.9
    assert loaded.z_score == dp.z_score(stats, obs) == result.z_score
    assert loaded.cutoff == dp.cutoff(stats, loaded.config.alpha) == result.cutoff
    dp.emit_result_json(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert cli.main(["report", str(edited), "--panels", "permdist",
                     "--out", str(tmp_path / "panels")]) == 0
    capsys.readouterr()
    text = (tmp_path / "panels" / "permdist.svg").read_text()
    assert f"p={result.p_value:.3g} " in text and "p=0.9 " not in text
    assert f"stat={result.observed_statistic:.3g} " in text


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
    # bins is an integer >= 1: numpy would fail on 2.5, and True is 1 bin
    for bins in (0, 2.5, True, "2"):
        with pytest.raises(ValidationError, match="bins must be an integer"):
            dp.DiagnosticsBundle(bins=bins, out_dir=tmp_path)


def test_permdist_csv(result, tmp_path):
    path = tmp_path / "permdist.csv"
    dp.emit_permdist_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "perm_index,statistic"
    assert len(lines) == 1 + result.config.B
    idx, stat = lines[1].split(",")
    assert idx == "1"
    assert float(stat) == result.perm_statistics[0]


def test_a_stored_v1_result_reemits_byte_for_byte(tmp_path, capsys):
    # the file's observed scores and 25 records load as one 26-row stack,
    # and emitting it again writes the file's bytes (pure float repr)
    loaded = dp.load_result_json(RESULT_V1)
    assert loaded.kept.tolist() == list(range(26))
    assert loaded.kept_scores.scores.shape == (26, 12)
    dp.emit_result_json(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == RESULT_V1.read_bytes()
    doc = json.loads(RESULT_V1.read_text())
    for b, rec in loaded.records.items():
        assert rec.scores.scores.tolist() == doc["records"][str(b)]["scores"]
        assert rec.permuted_labels.tolist() == doc["records"][str(b)]["labels"]
        assert rec.statistic == doc["records"][str(b)]["statistic"]
    assert cli.main(["report", str(RESULT_V1), "--panels", "obs,perm2",
                     "--out", str(tmp_path / "panels")]) == 0
    capsys.readouterr()
    obs = (tmp_path / "panels" / "obs.csv").read_text().splitlines()[1:]
    assert obs == [f"{s!r},{y}" for s, y in zip(doc["observed_scores"]["scores"],
                                               doc["observed_scores"]["labels"])]


def test_record_keys_are_plain_decimals_given_once(tmp_path, capsys):
    # "01", " 1" or "+1" would stand for record 1 and silently replace it;
    # a key that the text gives twice would keep only its last record
    text = RESULT_V1.read_text()
    doc = json.loads(text)
    for key in ("01", " 1", "+1", "1_0", "1.0"):
        edited = json.loads(text)
        edited["records"][key] = {**doc["records"]["2"], "scores": doc["records"]["3"]["scores"]}
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited))
        with pytest.raises(ValidationError, match="'records'"):
            dp.load_result_json(path)
        assert cli.main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "records" in err
    # a repeated key is refused under the field that holds it, however deep
    head, tail = text.split('"records": {')
    for field, key, repeated in (
            ("records", "1", text.replace(
                '"records": {', '"records": {\n    "1": {"labels": [], "scores": []},', 1)),
            ("observed_scores", "labels",
             text.replace('"labels": [', '"labels": [], "labels": [', 1)),
            ("records", "statistic", '"records": {'.join(
                (head, tail.replace('"statistic":', '"statistic": 0, "statistic":', 1)))),
            ("records", "1", text.replace(  # the repeat's first value is dropped
                '"records": {', '"records": {\n    "1": {"scores": [], "scores": []},', 1)),
            ("p_value", "p_value", text.replace('"p_value":', '"p_value": 0, "p_value":', 1))):
        path = tmp_path / "repeated.json"
        path.write_text(repeated)
        message = f"result.json field {field!r} repeats the key {key!r} in one object"
        with pytest.raises(ValidationError) as exc:
            dp.load_result_json(path)
        assert str(exc.value) == message
        assert cli.main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    path.write_text("[]")
    with pytest.raises(ValidationError, match="not one JSON object"):
        dp.load_result_json(path)


def test_result_labels_are_exactly_minus_one_or_one(tmp_path):
    # a label that the int64 cast would change is refused with its value,
    # in the observed scores or in a record; the data-file advice ("recode
    # ... before loading") is not given for a stored result
    # nor one that is not a JSON integer, which numpy would read as -1 or 1
    for field, label in (("observed_scores", -1.9), ("observed_scores", 7),
                         ("records", 1.5), ("records", -1.0000001),
                         ("observed_scores", True), ("records", True),
                         ("observed_scores", -1.0), ("records", 1.0)):
        edited = json.loads(RESULT_V1.read_text())
        labels = (edited["observed_scores"] if field == "observed_scores"
                  else edited["records"]["4"])["labels"]
        labels[labels.index(-1 if label < 0 else 1)] = label
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited))
        with pytest.raises(ValidationError, match=rf"'{field}'.*label {label!r} is not in") as exc:
            dp.load_result_json(path)
        assert "recode" not in str(exc.value)
