"""Run one workload of the diproperm benchmark and print its metrics.

    python3 bench/run.py --workload mushrooms-dwd --seed 0 --seconds 50 --trace 0

Run it from the root of a checkout; it uses the package in `src/` as it
is, with no install step.  `--trace 0` measures the end-to-end metrics,
`--trace 1` the per-layer ones from a traced replay.  Earlier lines of
standard output are for people: the host and provenance block, one line
per test, a summary.  The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s", "perms_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "passed_frac": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s", "dataset.build_s": "s",
    "direction.penalty_s": "s", "direction.penalty_peak_mb": "MB",
    "direction.observed_fit_s": "s",
    "direction.refit_s.p50": "s", "direction.refit_s.p95": "s",
    "direction.refit_iters.mean": "count", "direction.refit_iters.max": "count",
    "direction.us_per_iter": "us", "direction.nonconverged": "count",
    "permute.stream_s.p50": "s", "permute.relabel_s.p50": "s",
    "unistat.project_s.p50": "s", "unistat.stat_s.p50": "s",
    "engine.replay_s": "s", "engine.overhead_s": "s", "engine.records_s": "s",
    "engine.summary_s": "s",
    "report.json_s": "s", "report.json_bytes": "bytes", "report.bundle_s": "s",
    "report.load_s": "s",
    "cli.run_s": "s", "cli.report_s": "s",
    "trace.overhead_frac": "ratio",
}
# set-up is measured this many times before the tests and again after
# them, so that its median does not rest on one moment of a noisy host
SETUP_SPAWNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "DPP_WORKERS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _child(role: str, args, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), role,
           "--workload", args.workload, "--work", str(args.work),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--perm-seed", str(args.perm_seed), "--B", str(args.B)]
    if args.data_seed is not None:
        cmd += ["--data-seed", str(args.data_seed)]
    # its own process group, so that a timeout also ends the CLI processes
    # and pool workers it started
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} exited {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diproperm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, w) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": w.name,
        "seed": args.seed,
        "data_seed": args.data_seed,
        "perm_seed": args.perm_seed,
        "B": args.B,
        "workers": w.effective_workers(),
    }


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"median {statistics.median(xs):.6g} (n={len(xs)})"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"median {q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] (n={len(xs)})"


def measure(args, w, env, deadline) -> dict:
    """Timed tests, end-to-end metrics."""
    out = _child("tests", args, env, deadline)
    tests = out["tests"]
    for t in tests:
        kind = "reference" if t["reference"] else "timed"
        status = "ok" if not t["errors"] else "FAILED: " + "; ".join(t["errors"])
        print(f"test {kind} perm_seed={t['seed']} wall_s={t.get('wall_s')} "
              f"cpu_s={t.get('cpu_s')} {status}")
    if not out["data_reference_checked"]:
        print(f"note: no stored reference for data seed {args.data_seed}; "
              "only consistency checks ran")
    elif not out["reference_checked"]:
        print(f"note: no stored reference for perm seed {args.perm_seed} at "
              f"B={args.B}; p, z and cutoff were checked for consistency only")
    timed = [t for t in tests if not t["reference"] and not t["errors"]]
    if not timed:
        timed = [t for t in tests if not t["reference"] and "wall_s" in t]
    if not timed:
        raise BenchError("no timed test produced a measurement")
    failed = sum(1 for t in tests if t["errors"])
    series = {
        "wall_s": [t["wall_s"] for t in timed],
        "perms_per_s": [args.B / t["wall_s"] for t in timed],
        "cpu_s": [t["cpu_s"] for t in timed],
        "peak_rss_mb": [t["peak_rss_mb"] for t in timed],
    }
    for name, xs in series.items():
        print(f"{name}: {_quartiles(xs)}")
    if w.kind == "cli":
        for name in ("run_s", "report_s"):
            print(f"cli {name}: {_quartiles([t[name] for t in timed])}")
    print(f"failed_frac: {failed}/{len(tests)} = {failed / len(tests):.6g}")
    values = {k: statistics.median(v) for k, v in series.items()}
    values["passed_frac"] = (len(tests) - failed) / len(tests)
    return {"correct": failed == 0, "attempted": len(tests), "failed": failed,
            "values": values, "units": END_TO_END}


def traced(args, w, env, deadline) -> dict:
    """The traced replay, per-layer metrics."""
    out = _child("trace", args, env, deadline)
    values = dict(out["metrics"])
    print(f"trace: perm_seed={out['seed']} passes={out['passes']} "
          f"workers={out['workers']} untraced wall_s={out['wall_workers_s']:.6g} "
          f"(1 worker: {out['wall_1_s']:.6g})")
    print(f"self time by span, summed over the run ({out['passes']} replay passes):")
    for name, secs in sorted(out["self_time_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {secs:.6g} s")
    print(f"tracing overhead: traced replay / untraced 1-worker diproperm() "
          f"- 1 = {values['trace.overhead_frac']:.4g}")
    for msg in out["failures"]:
        print(f"FAILED: {msg}")
    failed = min(len(out["failures"]), out["attempted"])
    return {"correct": not out["failures"], "attempted": out["attempted"],
            "failed": failed, "values": values, "units": PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: picks the permutation seed of each timed test")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="data set seed (default: the workload's)")
    parser.add_argument("--perm-seed", type=int, default=None,
                        help="base permutation seed (default: the workload's)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny B, for checking the benchmark itself")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (SRC / "diproperm" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'diproperm'}; run from the root of "
              "a diproperm checkout", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    args.data_seed = w.data_seed if args.data_seed is None else args.data_seed
    args.perm_seed = w.perm_seed if args.perm_seed is None else args.perm_seed
    args.B = w.smoke_B if args.smoke else w.B
    args.work = ROOT / ".bench_work" / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    args.work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))

    print("provenance: " + json.dumps(provenance(args, w), sort_keys=True))
    try:
        setups = [_child("setup", args, env, deadline) for _ in range(SETUP_SPAWNS)]
        module = Path(setups[0]["module"]).resolve()
        if SRC.resolve() not in module.parents:
            raise BenchError(f"imported diproperm from {module}, not from {SRC}")
        res = (traced if args.trace else measure)(args, w, env, deadline)
        setups += [_child("setup", args, env, deadline) for _ in range(SETUP_SPAWNS)]
        setup_s = [s["import_s"] + s["build_s"] for s in setups]
        print(f"setup_s: {_quartiles(setup_s)}")
        values = res["values"]
        if args.trace:
            values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
            if values["dataset.build_s"] is None:
                values["dataset.build_s"] = statistics.median(s["build_s"] for s in setups)
        else:
            values["setup_s"] = statistics.median(setup_s)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        for leftover in args.work.glob("*"):
            if leftover.name != "spans.jsonl":
                (shutil.rmtree if leftover.is_dir() else Path.unlink)(leftover)
        if not any(args.work.iterdir()):
            args.work.rmdir()

    metrics = {name: {"value": res["values"][name], "unit": unit}
               for name, unit in res["units"].items()}
    print(f"elapsed {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
