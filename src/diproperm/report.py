"""Diagnostics emission: score panels, permutation histogram, result JSON.

Every emitter is a pure function of the result (plus explicit bin/jitter
parameters), so re-emitting the same result is byte-identical.  SVG is
generated directly (no plotting dependency) to keep the output diffable.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .direction import DEFAULT_MAX_ITER, DEFAULT_TOL, Direction, DwdModel
from .engine import (
    PANELS,
    SCORE_PANELS,
    DppResult,
    PermutationRecord,
    TestConfig,
)
from .errors import PanelUnavailableError, ValidationError
from .unistat import ProjectionScores

SCHEMA_VERSION = 1

_WIDTH, _HEIGHT = 640, 400
_ML, _MR, _MT, _MB = 55, 25, 25, 45
_NEG_COLOR, _POS_COLOR = "#1f77b4", "#d62728"


@dataclass(frozen=True)
class DiagnosticsBundle:
    """A set of diagnostic panels to emit into a directory."""

    panels: tuple[str, ...] = ("obs", "min", "max", "permdist")
    out_dir: str | Path = "."

    def __post_init__(self):
        bad = [p for p in self.panels if p not in PANELS]
        if bad:
            raise ValidationError(f"unknown panels {bad}; choose from {PANELS}")


def _panel_scores(result: DppResult, panel: str) -> ProjectionScores:
    if panel == "obs":
        return result.observed_scores
    if panel not in SCORE_PANELS:
        raise ValidationError(f"{panel!r} is not a score panel")
    record = result.record_for_panel(panel)
    if record is None:
        raise PanelUnavailableError(
            f"panel {panel!r} (permutation {result.panel_index(panel)}) was "
            "not retained; re-run with retain_all"
        )
    return record.scores


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
    nbins = bins if bins is not None else _fd_bins(stats)
    if nbins < 1:
        raise ValidationError(f"bins must be >= 1, got {nbins}")
    counts, edges = np.histogram(stats, bins=nbins)

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


def emit_bundle(result: DppResult, bundle: DiagnosticsBundle,
                bins: int | None = None) -> list[Path]:
    """Emit CSV + SVG for each requested panel; returns the written paths."""
    out = Path(bundle.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for panel in bundle.panels:
        csv_path, svg_path = out / f"{panel}.csv", out / f"{panel}.svg"
        if panel == "permdist":
            emit_permdist_csv(result, csv_path)
            emit_permdist_svg(result, svg_path, bins=bins)
        else:
            emit_scores_csv(result, panel, csv_path)
            emit_score_panel_svg(result, panel, svg_path)
        written += [csv_path, svg_path]
    return written


def _scores_to_json(ps: ProjectionScores) -> dict:
    return {
        "scores": [float(v) for v in ps.scores],
        "labels": [int(v) for v in ps.labels],
    }


def emit_result_json(result: DppResult, path) -> None:
    """Serialize the full result (schema_version 1) to a JSON document."""
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
        "dwd": None,
        "loadings": [
            {"index": ld.index, "value": ld.value,
             **({"name": ld.name} if ld.name is not None else {})}
            for ld in result.loadings
        ],
        "feature_names": (
            list(result.feature_names) if result.feature_names else None
        ),
        "observed_scores": _scores_to_json(result.observed_scores),
        "perm_statistics": [float(v) for v in result.perm_statistics],
        "records": {
            str(b): {
                "statistic": float(r.statistic),
                "labels": [int(v) for v in r.permuted_labels],
                "scores": [float(v) for v in r.scores.scores],
            }
            for b, r in sorted(result.records.items())
        },
    }
    if result.observed_model is not None:
        m = result.observed_model
        doc["dwd"] = {
            "C": float(m.C),
            "iterations": int(m.iterations),
            "objective": float(m.objective),
            "kkt_residual": float(m.kkt_residual),
            "training_error": float(m.training_error),
        }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_result_json(path) -> DppResult:
    """Rebuild a DppResult from emit_result_json output.

    A missing or malformed field raises ValidationError naming it.
    `loadings` is not read: DppResult derives it from the direction.
    Files written before the config held `dwd_tol` and `dwd_max_iter`
    load with DEFAULT_TOL and DEFAULT_MAX_ITER.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
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

    def record(key, rec):
        labels = np.array(rec["labels"], dtype=np.int64)
        return PermutationRecord(int(key), labels, ProjectionScores(
            np.array(rec["scores"]), labels), float(rec["statistic"]))

    direction = field("direction", lambda d: Direction(np.array(d["w"]), d["beta"]))
    model = None
    if doc.get("dwd") is not None:
        model = field("dwd", lambda d: DwdModel(
            direction=direction, C=d["C"], iterations=d["iterations"],
            objective=d["objective"], kkt_residual=d["kkt_residual"],
            training_error=d["training_error"],
        ))
    perm_statistics = field("perm_statistics", lambda v: np.array(v, dtype=np.float64))
    perm_statistics.setflags(write=False)

    def names(v):  # one per variable of the direction
        if len(v) != direction.w.size:
            raise ValueError(f"{len(v)} names for {direction.w.size} variables")
        return tuple(v)

    return DppResult(
        config=field("config", lambda c: TestConfig(**{
            "dwd_tol": DEFAULT_TOL, "dwd_max_iter": DEFAULT_MAX_ITER, **c})),
        observed_direction=direction,
        observed_scores=field("observed_scores", lambda d: ProjectionScores(
            np.array(d["scores"]), np.array(d["labels"]))),
        observed_statistic=field("observed_statistic", float),
        perm_statistics=perm_statistics,
        records=field("records", lambda recs: {
            int(key): record(key, rec) for key, rec in recs.items()}),
        p_value=field("p_value", float),
        z_score=field("z_score", lambda z: math.nan if z is None else float(z)),
        cutoff=field("cutoff", float),
        observed_model=model,
        feature_names=(field("feature_names", names) if doc.get("feature_names")
                       else None),
    )
