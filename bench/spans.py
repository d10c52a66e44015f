"""Spans recorded from outside the package, and the stage-by-stage replay.

The replay walks the same stages as `diproperm()` through the public
functions only: penalty, observed fit, then for each permutation
stream -> relabel -> re-fit -> projection -> statistic, then the extreme
records the engine recomputes and the summary.  Its permutation
statistics must equal the engine's bit for bit, or the per-layer numbers
would describe a different program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import workloads as wl


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []  # (name, t0, t1, parent)
        self._stack: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1]))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, t0, _, parent = self.spans[idx]
            self.spans[idx] = (name, t0, time.perf_counter(), parent)

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the spans called `name`, optionally only those
        whose parent span is called `parent`."""
        return [
            t1 - t0 for n, t0, t1, p in self.spans
            if n == name and (parent is None
                              or (p >= 0 and self.spans[p][0] == parent))
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's.

        Children of one span run one after another, so the part of the
        parent they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        totals: dict[str, float] = {}
        for (name, t0, t1, _), c in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (t1 - t0) - c
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "parent": parent,
                    "name": name, "start": t0, "end": t1,
                }) + "\n")


def replay(tracer: Tracer, ds, w, seed: int, B: int, alpha: float = 0.05):
    """One traced pass of the test.

    Returns the permutation statistics, the observed statistic, the
    retained records, the summary (p, z, cutoff, loadings) and the solver
    iterations of each permutation re-fit (1 for the closed-form
    mean-difference rule).
    A NonConvergedError aborts the pass, as it aborts `diproperm()`.
    """
    import diproperm as dp
    import numpy as np

    stat_fn = wl.statistic(w)
    iterations: list[int] = []

    def one_permutation(b: int, name: str = "engine.permutation"):
        with tracer.span(name):
            with tracer.span("permute.stream"):
                stream = dp.derive_stream(seed, b)
            with tracer.span("permute.relabel"):
                y_b = dp.permute_labels(ds.labels, w.scheme, stream)
            with tracer.span("dataset.wrap"):
                ds_b = dp.LabeledDataset(ds.features, y_b)
            with tracer.span("direction.refit"):
                direction, iters = wl.fit(w, ds_b, C)
            with tracer.span("unistat.project"):
                scores = dp.project(ds_b, direction)
            with tracer.span("unistat.stat"):
                stat = stat_fn(scores)
        if name == "engine.permutation":
            iterations.append(iters)
        return y_b, scores, stat

    with tracer.span("engine.replay"):
        with tracer.span("direction.penalty"):
            C = dp.penalty_parameter(ds) if w.classifier == "dwd" else None
        with tracer.span("direction.observed_fit"):
            direction, _ = wl.fit(w, ds, C)
        with tracer.span("unistat.observed"):
            observed = stat_fn(dp.project(ds, direction))
        outputs = [one_permutation(b) for b in range(1, B + 1)]
        stats = np.array([o[2] for o in outputs], dtype=np.float64)
        # the engine keeps permutations 1 and 2 (all with retain_all) and
        # recomputes the two extremes from their streams
        with tracer.span("engine.records"):
            wanted = {1, min(2, B), int(np.argmin(stats)) + 1,
                      int(np.argmax(stats)) + 1}
            records = {}
            for b in (range(1, B + 1) if w.retain_all else sorted(wanted)):
                y_b, scores, stat = (
                    outputs[b - 1] if w.retain_all or b <= 2
                    else one_permutation(b, "engine.record")
                )
                records[b] = dp.PermutationRecord(
                    b, y_b, dp.ProjectionScores(scores.scores, y_b), stat
                )
        with tracer.span("engine.summary"):
            summary = (
                dp.p_value(stats, observed), dp.z_score(stats, observed),
                dp.cutoff(stats, alpha),
                dp.loadings_of(direction, ds.n_features, ds.feature_names),
            )
    return stats, observed, records, summary, iterations
