"""Diagnostics emission: score panels, permutation histogram, result JSON.

Every emitter is a pure function of the result (plus explicit bin/jitter
parameters), so re-emitting the same result is byte-identical.  SVG is
generated directly (no plotting dependency) to keep the output diffable.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .direction import DEFAULT_MAX_ITER, DEFAULT_TOL, Direction, DwdModel
from .engine import DppResult, TestConfig
from .errors import LabelDomainError, PanelUnavailableError, ValidationError, is_integer
from .unistat import ProjectionScores

SCHEMA_VERSION = 1
SCORE_PANELS = ("obs", "min", "max", "perm1", "perm2")
PANELS = SCORE_PANELS + ("permdist",)

_WIDTH, _HEIGHT = 640, 400
_ML, _MR, _MT, _MB = 55, 25, 25, 45
_NEG_COLOR, _POS_COLOR = "#1f77b4", "#d62728"


@dataclass(frozen=True)
class DiagnosticsBundle:
    """A set of diagnostic panels to emit into a directory, and the
    permdist histogram's bin count (None: Freedman-Diaconis)."""

    panels: tuple[str, ...] = ("obs", "min", "max", "permdist")
    out_dir: str | Path = "."
    bins: int | None = None

    def __post_init__(self):
        if not self.panels or not set(self.panels) <= set(PANELS):
            raise ValidationError(f"panels must be one or more of {PANELS}, got {self.panels}")
        _check_bins(self.bins)


def _check_bins(bins: int | None) -> None:
    if bins is not None and not (is_integer(bins) and bins >= 1):
        raise ValidationError(f"bins must be an integer >= 1, got {bins!r}")


def _panel_scores(result: DppResult, panel: str) -> ProjectionScores:
    if panel not in SCORE_PANELS:
        raise ValidationError(f"{panel!r} is not a score panel")
    b = {"obs": 0, "perm1": 1, "perm2": 2, "min": result.min_index, "max": result.max_index}[panel]
    if b not in result.kept:  # every run keeps these five: the file was edited
        raise PanelUnavailableError(
            f"panel {panel!r}: the result holds no record of permutation {b}")
    return result.kept_scores.row(int(np.searchsorted(result.kept, b)))


def emit_scores_csv(result: DppResult, panel: str, path) -> None:
    """Two-column score,label file for one score panel, in sample order."""
    ps = _panel_scores(result, panel)
    lines = ["score,label"]
    lines += [f"{float(s)!r},{int(l)}" for s, l in zip(ps.scores, ps.labels)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_permdist_csv(result: DppResult, path) -> None:
    """perm_index,statistic rows for the permutation distribution panel."""
    lines = ["perm_index,statistic"]
    lines += [f"{b + 1},{float(s)!r}" for b, s in enumerate(result.perm_statistics)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fd_bins(stats: np.ndarray, floor: int = 10) -> int:
    q75, q25 = np.percentile(stats, [75, 25])
    iqr = q75 - q25
    span = float(stats.max() - stats.min())
    if iqr <= 0 or span <= 0:
        return floor
    width = 2.0 * iqr / (stats.size ** (1.0 / 3.0))
    return min(max(math.ceil(span / width), floor), 400)


def _x_scale(lo: float, hi: float):
    span = (hi - lo) or 1.0
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    inner = _WIDTH - _ML - _MR

    def sx(v: float) -> float:
        return _ML + (v - lo) / (hi - lo) * inner

    return sx


def _svg_open(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<title>{title}</title>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]


def _axis(sx, lo: float, hi: float, label: str) -> list[str]:
    y0 = _HEIGHT - _MB
    parts = [
        f'<g class="axis" stroke="#333" fill="none">'
        f'<line x1="{_ML}" y1="{y0}" x2="{_WIDTH - _MR}" y2="{y0}"/></g>'
    ]
    ticks = np.linspace(lo, hi, 5)
    for t in ticks:
        x = sx(float(t))
        parts.append(
            f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" font-size="11" fill="#333" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _WIDTH - _MR) / 2:.2f}" y="{_HEIGHT - 8}" '
        f'font-size="12" fill="#333" text-anchor="middle">{label}</text>'
    )
    return parts


def emit_permdist_svg(result: DppResult, path, bins: int | None = None) -> None:
    """Histogram of permutation statistics with observed/cutoff markers.

    The p-value, z-score, cutoff, and observed statistic are printed in a
    text block to 3 significant digits.
    """
    stats = result.perm_statistics
    _check_bins(bins)
    counts, edges = np.histogram(stats, bins=bins if bins is not None else _fd_bins(stats))

    lo = min(float(stats.min()), result.observed_statistic, result.cutoff)
    hi = max(float(stats.max()), result.observed_statistic, result.cutoff)
    sx = _x_scale(lo, hi)
    y0 = _HEIGHT - _MB
    y_top = _MT + 30
    cmax = max(int(counts.max()), 1)

    parts = _svg_open("permutation statistic distribution")
    parts.append('<g class="bars" fill="#9ecae1" stroke="#4292c6">')
    for k, c in enumerate(counts):
        x1, x2 = sx(float(edges[k])), sx(float(edges[k + 1]))
        h = (y0 - y_top) * (int(c) / cmax)
        parts.append(
            f'<rect data-count="{int(c)}" x="{x1:.2f}" y="{y0 - h:.2f}" '
            f'width="{max(x2 - x1, 0.5):.2f}" height="{h:.2f}"/>'
        )
    parts.append("</g>")
    xo, xc = sx(result.observed_statistic), sx(result.cutoff)
    parts.append(
        f'<line class="marker observed" x1="{xo:.2f}" y1="{y_top}" '
        f'x2="{xo:.2f}" y2="{y0}" stroke="#d62728" stroke-width="2" '
        'stroke-dasharray="6,3"/>'
    )
    parts.append(
        f'<line class="marker cutoff" x1="{xc:.2f}" y1="{y_top}" '
        f'x2="{xc:.2f}" y2="{y0}" stroke="#2ca02c" stroke-width="2" '
        'stroke-dasharray="2,3"/>'
    )
    summary = (
        f"stat={result.observed_statistic:.3g} p={result.p_value:.3g} "
        f"z={result.z_score:.3g} cutoff={result.cutoff:.3g}"
    )
    parts.append(
        f'<text class="summary" x="{_ML}" y="{_MT + 12}" font-size="13" '
        f'fill="#111">{summary}</text>'
    )
    parts += _axis(sx, lo, hi, "permutation statistic")
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _silverman_bandwidth(x: np.ndarray) -> float:
    sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    candidates = [s for s in (sd, iqr / 1.34) if s > 0]
    scale = min(candidates) if candidates else 1e-3
    return 0.9 * scale * x.size ** (-0.2)


def _kde(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    bw = _silverman_bandwidth(x)
    z = (grid[:, None] - x[None, :]) / bw
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bw * math.sqrt(2 * math.pi))


def emit_score_panel_svg(result: DppResult, panel: str, path) -> None:
    """One-dimensional score scatter per class with density curves.

    Points are jittered vertically with a stream derived from the panel
    name, and each class mean is marked with a vertical line, so output
    is deterministic for a given result and panel.
    """
    ps = _panel_scores(result, panel)
    neg, pos = ps.split()
    lo = float(ps.scores.min())
    hi = float(ps.scores.max())
    sx = _x_scale(lo, hi)
    y0 = _HEIGHT - _MB

    band = (y0 - _MT) / 2.0
    baselines = {"neg": y0 - 0.25 * band, "pos": y0 - 1.25 * band}
    rng = np.random.default_rng(zlib.crc32(panel.encode("ascii")))
    grid = np.linspace(lo, hi, 256)

    parts = _svg_open(f"projection scores: {panel}")
    for key, scores, color in (
        ("neg", neg, _NEG_COLOR), ("pos", pos, _POS_COLOR),
    ):
        base = baselines[key]
        dens = _kde(scores, grid)
        peak = float(dens.max()) or 1.0
        pts = " ".join(
            f"{sx(float(g)):.2f},{base - 0.65 * band * float(d) / peak:.2f}"
            for g, d in zip(grid, dens)
        )
        parts.append(
            f'<polyline class="density density-{key}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        jitter = rng.uniform(-0.12 * band, 0.12 * band, size=scores.size)
        parts.append(f'<g class="points points-{key}" fill="{color}" fill-opacity="0.6">')
        for s, dy in zip(scores, jitter):
            parts.append(f'<circle cx="{sx(float(s)):.2f}" cy="{base + dy:.2f}" r="3"/>')
        parts.append("</g>")
        xm = sx(float(scores.mean()))
        parts.append(
            f'<line class="mean mean-{key}" x1="{xm:.2f}" y1="{base - 0.7 * band:.2f}" '
            f'x2="{xm:.2f}" y2="{base + 0.2 * band:.2f}" stroke="{color}" '
            'stroke-width="2"/>'
        )
    parts += _axis(sx, lo, hi, f"projection score ({panel})")
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def emit_bundle(result: DppResult, bundle: DiagnosticsBundle) -> list[Path]:
    """Emit CSV + SVG for each requested panel; returns the written paths."""
    out = Path(bundle.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for panel in bundle.panels:
        csv_path, svg_path = out / f"{panel}.csv", out / f"{panel}.svg"
        if panel == "permdist":
            emit_permdist_csv(result, csv_path)
            emit_permdist_svg(result, svg_path, bins=bundle.bins)
        else:
            emit_scores_csv(result, panel, csv_path)
            emit_score_panel_svg(result, panel, svg_path)
        written += [csv_path, svg_path]
    return written


def emit_result_json(result: DppResult, path) -> None:
    """Serialize the full result (schema_version 1) to a JSON document."""
    stats, kept = result.perm_statistics.tolist(), result.kept.tolist()
    rows = [{"scores": s, "labels": y} for s, y in zip(  # the observed row, then the records
        result.kept_scores.scores.tolist(), result.kept_scores.labels.tolist())]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(result.config),
        "observed_statistic": float(result.observed_statistic),
        "p_value": float(result.p_value),
        "z_score": (
            float(result.z_score) if math.isfinite(result.z_score) else None
        ),
        "cutoff": float(result.cutoff),
        "direction": {
            "w": [float(v) for v in result.observed_direction.w],
            "beta": float(result.observed_direction.beta),
        },
        "dwd": None if result.observed_model is None else {
            f.name: getattr(result.observed_model, f.name)
            for f in fields(DwdModel) if f.name != "direction"},
        "loadings": [
            {"index": ld.index, "value": ld.value,
             **({"name": ld.name} if ld.name is not None else {})}
            for ld in result.loadings
        ],
        "feature_names": (
            list(result.feature_names) if result.feature_names else None
        ),
        "observed_scores": rows[0],
        "perm_statistics": stats,
        "records": {str(b): {"statistic": stats[b - 1], **row}
                    for b, row in zip(kept[1:], rows[1:])},
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_json(path):
    """The JSON document at path, refused, naming its field, if an object
    in it repeats a key (json would keep the last value)."""
    repeats = []  # (object, key), inner objects first

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeats.append((obj, next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)))
        return obj

    doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    if not isinstance(doc, dict):
        raise ValidationError("result.json is not one JSON object")
    for obj, key in repeats:  # a repeat's first value is held by no field: its parent names one
        name = key if obj is doc else next((name for name, v in doc.items() if _holds(v, obj)), None)
        if name is not None:
            raise ValidationError(f"result.json field {name!r} repeats the key {key!r} in one object")
    return doc


def _holds(v, obj) -> bool:
    """Whether the parsed JSON value v is obj or holds it."""
    children = v.values() if isinstance(v, dict) else v if isinstance(v, list) else ()
    return v is obj or any(_holds(child, obj) for child in children)


def _numbers(v, kind=(int, float)):
    """v, refused unless it is a JSON number or a list of them, of `kind`
    ((int,) for integers): numpy would read the string "0.5" and true as numbers."""
    for x in v if type(v) is list else [v]:
        if type(x) not in kind:
            raise ValueError(f"{x!r} is not a JSON {'number' if float in kind else 'integer'}")
    return v


def _labels(v):
    """v, refused unless each label is a JSON integer: numpy would read true as 1."""
    for x in v:
        if type(x) is not int:
            raise LabelDomainError(x)
    return v


def load_result_json(path) -> DppResult:
    """Rebuild a DppResult from emit_result_json output.

    The observed scores and the records, in index order, become the
    result's one stack of kept rows, checked once.  A missing or malformed
    field raises ValidationError naming it: so do perm_statistics other
    than config.B finite numbers, a number not written as a JSON number
    (a string, true or false), an unknown key in dwd, a dwd number that
    is not finite, dwd.iterations other than a JSON integer, a label
    other than the JSON integers -1 and 1, and a record key other than
    the plain decimal of an index in 1..B, or
    a record not one entry per sample or whose class counts differ from
    the observed ones.  So does a key repeated in any
    object, naming the field that holds it.  `observed_statistic`,
    records' `statistic`, `loadings`, `p_value`, `z_score` and `cutoff`
    are not read.
    Files written before the config held `dwd_tol` and `dwd_max_iter`
    load with DEFAULT_TOL and DEFAULT_MAX_ITER.
    """
    doc = _read_json(path)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )

    def field(name, parse):
        try:
            return parse(doc[name])
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise ValidationError(f"result.json field {name!r} missing or "
                                  f"malformed ({type(err).__name__}: {err})") from None

    direction = field("direction", lambda d: Direction(np.array(_numbers(d["w"])),
                                                       _numbers(d["beta"])))
    config = field("config", lambda c: TestConfig(**{
        "dwd_tol": DEFAULT_TOL, "dwd_max_iter": DEFAULT_MAX_ITER, **c}))

    def one_each(v, n):  # one entry per permutation, variable or sample
        if len(v) != n:
            raise ValueError(f"{len(v)} entries, expected {n}")
        return v

    def finite(v):  # json reads NaN and Infinity, and float64 makes null a nan;
        # those are named by permutation, then anything else not a JSON number
        a = np.array(one_each(v, config.B), dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise ValueError(f"permutation {bad[0] + 1} has statistic {a[bad[0]]}")
        _numbers(v)
        return a

    perm_statistics = field("perm_statistics", finite)
    observed = field("observed_scores", lambda d: ProjectionScores(
        np.array(_numbers(d["scores"])), np.array(_labels(d["labels"]))))

    n, n_pos = observed.labels.size, int((observed.labels == 1).sum())

    def stack(recs):  # the observed row, then the records keyed 1..B in index order
        keys = sorted(recs.keys(), key=int)
        for b, key in zip(map(int, keys), keys):
            if key != str(b):  # "01" or "+1" would stand for b, and could repeat it
                raise ValueError(f"record key {key!r} is not written as {b}")
            if not 1 <= b <= config.B:
                raise ValueError(f"permutation {b} outside 1..{config.B}")
            y = _labels(one_each(recs[key]["labels"], n))
            _numbers(one_each(recs[key]["scores"], n))
            # every scheme keeps the class counts; a label other than -1 and 1 the stack names
            if y.count(1) != n_pos and y.count(1) + y.count(-1) == n:
                raise ValueError(f"permutation {b}'s labels change the observed class counts")
        return np.array([0, *map(int, keys)]), ProjectionScores(
            np.array([observed.scores, *(recs[key]["scores"] for key in keys)]),
            np.array([observed.labels, *(recs[key]["labels"] for key in keys)]))

    def model(d):  # a finite JSON number in each field, an integer in iterations
        for k, v in d.items():
            _numbers(v, (int,) if k == "iterations" else (int, float))
            if type(v) is float and not math.isfinite(v):  # json reads NaN and Infinity
                raise ValueError(f"{k} is {v}")
        return DwdModel(direction=direction, **d)

    kept, kept_scores = field("records", stack)
    return DppResult(
        config=config,
        observed_direction=direction,
        perm_statistics=perm_statistics,
        kept=kept,
        kept_scores=kept_scores,
        observed_model=field("dwd", model) if doc.get("dwd") is not None else None,
        feature_names=(field("feature_names", lambda v: tuple(one_each(v, direction.w.size)))
                       if doc.get("feature_names") else None),
    )
