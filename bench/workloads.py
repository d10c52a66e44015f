"""The benchmark's three workloads, their inputs and their correctness checks.

A workload is fixed by a data seed (which data set), a base permutation
seed (which relabelings) and B.  The benchmark seed given on the command
line picks the permutation seed of every timed test from the base, so a
claim can be re-checked on seeds never used while it was written.  The
package only ever receives the generated inputs.

This module imports numpy and the package lazily: `run.py` must be able
to reject a checkout without the package before anything is imported.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library": one diproperm() call; "cli": `run` then `report`
    data: str  # "mushrooms50" or "blobs"
    n: int
    p: int
    data_seed: int | None  # None for the bundled data set
    classifier: str
    statistic: str
    scheme: str
    B: int
    perm_seed: int
    workers: int
    retain_all: bool = False
    smoke_B: int = 20

    def effective_workers(self) -> int:
        """The workload's worker count, never more than the usable cores."""
        return max(1, min(self.workers, len(os.sched_getaffinity(0))))


# Why each workload exists is in README.md and BENCHMARK.json.
# cli-md-retain is not listed in BENCHMARK.json: its run-to-run spread on a
# shared 2-core host came too close to the largest bound allowed (see
# README.md); it still runs by hand and in smoke.py.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mushrooms-dwd",
            kind="library", data="mushrooms50", n=50, p=112, data_seed=None,
            classifier="dwd", statistic="md", scheme="balanced", B=100,
            perm_seed=5, workers=2,
        ),
        Workload(
            name="hdlss-dwd",
            kind="library", data="blobs", n=60, p=5000, data_seed=0,
            classifier="dwd", statistic="md", scheme="balanced", B=100,
            perm_seed=0, workers=1,
        ),
        Workload(
            name="cli-md-retain",
            kind="cli", data="blobs", n=200, p=10, data_seed=3,
            classifier="md", statistic="med", scheme="unbalanced", B=2000,
            perm_seed=7, workers=2, retain_all=True, smoke_B=40,
        ),
    )
}

# Tolerances of the correctness gate.  DWD answers may move with solver
# tolerance changes (about 1.6e-4 on the mushrooms statistic is expected),
# so they are checked loosely; the mean-difference rule has no solver and
# is checked tightly.  p-values are checked in steps of 1/B.
TOLERANCES = {
    "dwd": {"statistic_rel": 1e-3, "z_rel": 1e-2, "p_steps": 2},
    "md": {"statistic_rel": 1e-9, "z_rel": 1e-9, "p_steps": 0},
}

CLI_PANELS = ("obs", "min", "max", "perm1", "perm2", "permdist")
RUN_PANELS = ("obs", "min", "max", "permdist")  # what `run` writes


def timed_seed(base: int, bench_seed: int, k: int) -> int:
    """Permutation seed of the k-th timed test (k >= 1) of a run."""
    import numpy as np

    ss = np.random.SeedSequence([base, bench_seed % 2**64, k])
    return int(ss.generate_state(1, np.uint32)[0])


def build_dataset(w: Workload, data_seed: int | None):
    """The workload's data set, built through the package's public API."""
    import diproperm as dp

    if w.data == "mushrooms50":
        return dp.mushrooms50()
    return dp.synthetic_blobs(w.n, w.p, seed=data_seed)


def write_csv_inputs(ds, work: Path) -> tuple[Path, Path]:
    import diproperm as dp

    data, labels = work / "x.csv", work / "y.txt"
    dp.write_dense(ds, data)
    dp.write_labels(ds, labels)
    return data, labels


def fit(w: Workload, ds, C: float | None):
    """The workload's direction on `ds` and the solver iterations it took
    (1 for the closed-form mean-difference rule)."""
    import diproperm as dp

    if w.classifier == "md":
        return dp.md_direction(ds), 1
    model = dp.dwd_direction(ds, C=C)
    return model.direction, model.iterations


def statistic(w: Workload):
    import diproperm as dp

    return {"md": dp.stat_md, "med": dp.stat_med, "t": dp.stat_t}[w.statistic]


def reference_key(w: Workload, data_seed: int | None) -> str:
    return f"{w.name}/data-{'bundled' if data_seed is None else data_seed}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def answer_of(result) -> dict:
    """The answer a user reads off a DppResult."""
    return {
        "observed_statistic": float(result.observed_statistic),
        "p_value": float(result.p_value),
        "z_score": float(result.z_score),
        "cutoff": float(result.cutoff),
        "top_loadings": [int(ld.index) for ld in result.loadings[:5]],
    }


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(b), 1e-300)


def check_data_answer(answer: dict, ref: dict | None, w: Workload) -> list[str]:
    """Seed-independent checks: observed statistic and top loadings."""
    if ref is None:
        return []
    tol = TOLERANCES[w.classifier]
    errors = []
    if not _close(answer["observed_statistic"], ref["observed_statistic"],
                  tol["statistic_rel"]):
        errors.append(
            f"observed_statistic {answer['observed_statistic']!r} != "
            f"reference {ref['observed_statistic']!r}"
        )
    # as a set: close loadings of noise variables may trade ranks
    if set(answer["top_loadings"]) != set(ref["top_loadings"]):
        errors.append(
            f"top loadings {answer['top_loadings']} != {ref['top_loadings']}"
        )
    return errors


def check_seed_answer(answer: dict, ref: dict, w: Workload, B: int) -> list[str]:
    """Checks of p, z and cutoff against the answer recorded for one seed."""
    tol = TOLERANCES[w.classifier]
    errors = []
    if abs(answer["p_value"] - ref["p_value"]) * B > tol["p_steps"] + 1e-9:
        errors.append(
            f"p_value {answer['p_value']!r} more than {tol['p_steps']}/B "
            f"from reference {ref['p_value']!r}"
        )
    if not _close(answer["z_score"], ref["z_score"], tol["z_rel"]):
        errors.append(f"z_score {answer['z_score']!r} != reference {ref['z_score']!r}")
    if not _close(answer["cutoff"], ref["cutoff"], tol["statistic_rel"]):
        errors.append(f"cutoff {answer['cutoff']!r} != reference {ref['cutoff']!r}")
    return errors


def check_summary(result, alpha: float = 0.05) -> list[str]:
    """p, z and cutoff recomputed from perm_statistics by plain numpy."""
    import numpy as np

    stats = np.asarray(result.perm_statistics, dtype=np.float64)
    obs = float(result.observed_statistic)
    errors = []
    if not (np.isfinite(stats).all() and (stats >= 0).all()):
        errors.append("permutation statistics are not finite and >= 0")
    p = float(np.count_nonzero(stats >= obs)) / stats.size
    if p != result.p_value:
        errors.append(f"p_value {result.p_value!r} != recomputed {p!r}")
    z = (obs - stats.mean()) / stats.std(ddof=1)
    if not _close(float(result.z_score), float(z), 1e-9):
        errors.append(f"z_score {result.z_score!r} != recomputed {z!r}")
    rank = min(max(math.ceil((1.0 - alpha) * stats.size - 1e-9), 1), stats.size)
    c = float(np.sort(stats)[rank - 1])
    if c != result.cutoff:
        errors.append(f"cutoff {result.cutoff!r} != recomputed {c!r}")
    return errors


def spot_check(result, ds, w: Workload, seed: int) -> list[str]:
    """Re-derive a few permutation statistics through the per-stage API.

    Checks the extreme permutations and one more index, picked by the
    seed, against the engine's perm_statistics, and each retained record
    against both.
    """
    import diproperm as dp
    import numpy as np

    tol = TOLERANCES[w.classifier]["statistic_rel"]
    stats = result.perm_statistics
    B = stats.size
    C = dp.penalty_parameter(ds) if w.classifier == "dwd" else None
    stat_fn = statistic(w)
    errors = []
    for b in sorted({result.min_index, result.max_index, 1 + seed % B}):
        y_b = dp.permute_labels(ds.labels, w.scheme, dp.derive_stream(seed, b))
        ds_b = dp.LabeledDataset(ds.features, y_b)
        s = stat_fn(dp.project(ds_b, fit(w, ds_b, C)[0]))
        if not _close(float(stats[b - 1]), s, tol):
            errors.append(f"perm {b}: engine statistic {float(stats[b - 1])!r} != re-fit {s!r}")
        rec = result.records.get(b)
        if rec is not None and not (
            np.array_equal(rec.permuted_labels, y_b)
            and rec.statistic == stats[b - 1]
        ):
            errors.append(f"perm {b}: retained record disagrees with the re-fit")
    if w.retain_all and len(result.records) != B:
        errors.append(f"{len(result.records)} records retained, expected {B}")
    return errors
