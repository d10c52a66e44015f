"""Processes that run.py starts, one role each.

`setup` times a fresh interpreter until the inputs are ready, `tests`
runs the timed tests, `trace` the traced replay.  Each prints one JSON
object as its last line.  run.py puts the package's `src` directory on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import workloads as wl

MAX_PASSES = 5  # traced passes per run; each pass keeps ~7 spans per permutation


def setup(args, w) -> dict:
    """A fresh interpreter until the inputs are ready."""
    t0 = time.perf_counter()
    import diproperm

    t1 = time.perf_counter()
    ds = wl.build_dataset(w, args.data_seed)
    if w.kind == "cli":
        wl.write_csv_inputs(ds, Path(args.work))
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1, "module": diproperm.__file__}


def _cpu_now() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _run_process(cmd: list[str], stdout_path: Path):
    """Run one process to completion; returns (wall, cpu, maxrss MB, code).

    The process is reaped with wait4, so its CPU time and peak resident
    set include the pool workers it waited for, and nothing else.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6, proc.returncode


def _cli_commands(w, inputs, seed: int, B: int, workers: int,
                  run_dir: Path, report_dir: Path):
    cli = [sys.executable, "-m", "diproperm.cli"]
    if w.data == "mushrooms50":
        data = ["--data", "bundled:mushrooms50"]
    else:
        data = ["--data", str(inputs[0]), "--labels", str(inputs[1])]
    run = cli + [
        "run", *data, "--out", str(run_dir), "--classifier", w.classifier,
        "--stat", w.statistic, "--scheme", w.scheme, "-B", str(B),
        "--seed", str(seed), "--workers", str(workers),
    ] + (["--retain-all"] if w.retain_all else [])
    report = cli + [
        "report", str(run_dir / "result.json"), "--panels",
        ",".join(wl.CLI_PANELS), "--out", str(report_dir),
    ]
    return run, report


def _parse_summary_line(text: str) -> dict:
    """`stat=... p=... z=... cutoff=...` as printed by `diproperm run`."""
    fields = dict(tok.split("=", 1) for tok in text.strip().splitlines()[-1].split())
    return {k: float(fields[k]) for k in ("stat", "p", "z", "cutoff")}


class Runner:
    """Runs tests of one workload and checks every answer."""

    def __init__(self, args, w, need_csv: bool):
        import diproperm as dp

        self.dp, self.w = dp, w
        self.work = Path(args.work)
        self.B = args.B
        self.workers = w.effective_workers()
        self.ds = wl.build_dataset(w, args.data_seed)
        self.inputs = (wl.write_csv_inputs(self.ds, self.work)
                       if need_csv and w.data != "mushrooms50" else None)
        ref = wl.load_reference().get(wl.reference_key(w, args.data_seed))
        self.data_ref = ref
        self.seed_ref = (ref or {}).get("seeds", {}).get(f"{args.perm_seed}/B{self.B}")

    def library_test(self, seed: int, workers: int):
        plan = self.dp.PermutationPlan(self.w.scheme, self.B, seed)
        c0, t0 = _cpu_now(), time.perf_counter()
        result = self.dp.diproperm(
            self.ds, plan, classifier=self.w.classifier,
            statistic=self.w.statistic, workers=workers,
            retain_all=self.w.retain_all,
        )
        return result, time.perf_counter() - t0, _cpu_now() - c0

    def cli_test(self, seed: int, tag: str):
        """`run` then `report`; returns result, per-process (wall, cpu, rss)."""
        run_dir, report_dir = self.work / f"{tag}-run", self.work / f"{tag}-report"
        run_cmd, report_cmd = _cli_commands(
            self.w, self.inputs, seed, self.B, self.workers, run_dir, report_dir
        )
        procs, errors = [], []
        for name, cmd in (("run", run_cmd), ("report", report_cmd)):
            wall, cpu, rss, code = _run_process(cmd, self.work / f"{tag}-{name}.out")
            procs.append((wall, cpu, rss))
            if code != 0:
                err = (self.work / f"{tag}-{name}.err").read_text(errors="replace")
                raise RuntimeError(f"`diproperm {name}` exited {code}: {err.strip()[-300:]}")
        result = self.dp.load_result_json(run_dir / "result.json")
        printed = _parse_summary_line((self.work / f"{tag}-run.out").read_text())
        answer = wl.answer_of(result)
        for key, field in (("stat", "observed_statistic"), ("p", "p_value"),
                           ("z", "z_score"), ("cutoff", "cutoff")):
            if printed[key] != answer[field]:
                errors.append(f"`run` printed {key}={printed[key]!r}, result.json has {answer[field]!r}")
        for panel in wl.RUN_PANELS:
            for ext in ("csv", "svg"):
                a, b = run_dir / f"{panel}.{ext}", report_dir / f"{panel}.{ext}"
                if a.read_bytes() != b.read_bytes():
                    errors.append(f"re-emitted {panel}.{ext} differs from the one `run` wrote")
        for panel in wl.CLI_PANELS:
            if not (report_dir / f"{panel}.svg").is_file():
                errors.append(f"`report` did not write {panel}.svg")
        shutil.rmtree(run_dir)
        shutil.rmtree(report_dir)
        return result, procs, errors

    def verify(self, result, seed: int, reference_test: bool) -> list[str]:
        answer = wl.answer_of(result)
        errors = wl.check_data_answer(answer, self.data_ref, self.w)
        if reference_test and self.seed_ref is not None:
            errors += wl.check_seed_answer(answer, self.seed_ref, self.w, self.B)
        errors += wl.check_summary(result)
        errors += wl.spot_check(result, self.ds, self.w, seed)
        return errors

    def one_test(self, seed: int, tag: str, reference_test: bool) -> dict:
        rec = {"seed": seed, "reference": reference_test}
        try:
            if self.w.kind == "library":
                result, wall, cpu = self.library_test(seed, self.workers)
                errors = []
            else:
                result, procs, errors = self.cli_test(seed, tag)
                wall = sum(p[0] for p in procs)
                cpu = sum(p[1] for p in procs)
                rec["peak_rss_mb"] = max(p[2] for p in procs)
                rec["run_s"], rec["report_s"] = procs[0][0], procs[1][0]
            rec.update(wall_s=wall, cpu_s=cpu)
            errors += self.verify(result, seed, reference_test)
        except Exception as err:  # a failed test is counted, not fatal
            errors = [f"{type(err).__name__}: {err}"]
        rec["errors"] = errors
        return rec


def tests(args, w) -> dict:
    """The reference test (also the warm-up), then timed tests until the
    time is up, each on a permutation seed derived from the run's seed."""
    runner = Runner(args, w, need_csv=w.kind == "cli")
    records = [runner.one_test(args.perm_seed, "ref", reference_test=True)]
    start, k = time.perf_counter(), 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        k += 1
        seed = wl.timed_seed(args.perm_seed, args.seed, k)
        records.append(runner.one_test(seed, f"t{k}", reference_test=False))
    if w.kind == "library":
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        for rec in records:
            rec["peak_rss_mb"] = rss * 1024 / 1e6
    return {"tests": records, "workers": runner.workers,
            "reference_checked": runner.seed_ref is not None,
            "data_reference_checked": runner.data_ref is not None}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quantile(xs, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(xs), q)) if xs else 0.0


def trace(args, w) -> dict:
    """Untraced calls and traced replays until the time is up, then the
    report layer and the CLI processes, each timed once."""
    import numpy as np

    from spans import Tracer, replay

    runner = Runner(args, w, need_csv=True)
    dp, ds, B = runner.dp, runner.ds, runner.B
    seed = wl.timed_seed(args.perm_seed, args.seed, 1)
    tracer = Tracer(f"{w.name}-seed{args.seed}-trace")
    failures: list[str] = []
    attempted = 0

    build_s = None
    if w.kind == "cli":  # `run` loads the CSV with load_dense
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            dp.load_dense(runner.inputs[0], labels_path=runner.inputs[1])
            times.append(time.perf_counter() - t0)
        build_s = _median(times)

    penalty_peak = 0
    if w.classifier == "dwd":
        tracemalloc.start()
        dp.penalty_parameter(ds)
        penalty_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    # each pass: untraced at the workload's worker count, untraced in one
    # process, then the traced replay, which must reproduce both; a pass
    # that would end after the time is up, at the last one's length, is
    # not started
    walls_w, walls_1, totals, iterations, nonconverged = [], [], [], [], 0
    start, pass_s = time.perf_counter(), 0.0
    while not totals or (time.perf_counter() - start + pass_s < args.seconds
                         and len(totals) < MAX_PASSES):
        pass_start = time.perf_counter()
        attempted += 1
        result, wall_w, _ = runner.library_test(seed, runner.workers)
        result_1, wall_1 = result, wall_w
        if runner.workers != 1:
            result_1, wall_1, _ = runner.library_test(seed, 1)
        walls_w.append(wall_w)
        walls_1.append(wall_1)
        failures += runner.verify(result, seed, reference_test=False)
        if not np.array_equal(result.perm_statistics, result_1.perm_statistics):
            failures.append("perm_statistics differ between worker counts")
        t0 = time.perf_counter()
        try:
            stats, observed, records, summary, iters = replay(tracer, ds, w, seed, B)
        except dp.errors.NonConvergedError as err:
            nonconverged += 1
            failures.append(f"replay: {err}")
            break
        totals.append(time.perf_counter() - t0)
        iterations += iters
        same = (
            np.array_equal(stats, result.perm_statistics)
            and observed == result.observed_statistic
            and {b: r.statistic for b, r in records.items()}
            == {b: r.statistic for b, r in result.records.items()}
            and summary[:3] == (result.p_value, result.z_score, result.cutoff)
            and summary[3] == result.loadings
        )
        if not same:
            failures.append("replay does not reproduce diproperm() bit for bit")
        if failures:
            break
        pass_s = time.perf_counter() - pass_start

    out = runner.work / "trace-result"
    out.mkdir(exist_ok=True)
    attempted += 1
    with tracer.span("report.json"):
        dp.emit_result_json(result, out / "result.json")
    json_bytes = (out / "result.json").stat().st_size
    with tracer.span("report.bundle"):
        dp.emit_bundle(result, dp.DiagnosticsBundle(out_dir=out))
    with tracer.span("report.load"):
        loaded = dp.load_result_json(out / "result.json")
    if not np.array_equal(loaded.perm_statistics, result.perm_statistics):
        failures.append("load_result_json does not return the emitted statistics")
    shutil.rmtree(out)

    attempted += 1
    with tracer.span("cli.test"):
        try:
            cli_result, procs, errors = runner.cli_test(seed, "trace-cli")
            failures += errors
            if not np.array_equal(cli_result.perm_statistics, result.perm_statistics):
                failures.append("the CLI's perm_statistics differ from diproperm()'s")
        except Exception as err:
            failures.append(f"CLI: {type(err).__name__}: {err}")
            procs = [(0.0, 0.0, 0.0)] * 2

    tracer.write(runner.work / "spans.jsonl")

    def median_span(name):
        return _median(tracer.durations(name))

    stage = {n: tracer.durations(n, parent="engine.permutation")
             for n in ("permute.stream", "permute.relabel", "direction.refit",
                       "unistat.project", "unistat.stat")}
    n_pass = len(totals)
    replay_s = sum(sum(v) for v in stage.values()) / max(n_pass, 1)
    attributed = (median_span("direction.penalty") + median_span("direction.observed_fit")
                  + median_span("unistat.observed") + replay_s / runner.workers
                  + median_span("engine.records") + median_span("engine.summary"))
    refit = stage["direction.refit"]
    metrics = {
        "dataset.build_s": build_s,
        "direction.penalty_s": median_span("direction.penalty"),
        "direction.penalty_peak_mb": penalty_peak / 1e6,
        "direction.observed_fit_s": median_span("direction.observed_fit"),
        "direction.refit_s.p50": _median(refit),
        "direction.refit_s.p95": _quantile(refit, 0.95),
        "direction.refit_iters.mean": float(np.mean(iterations)) if iterations else 0.0,
        "direction.refit_iters.max": max(iterations, default=0),
        "direction.us_per_iter": 1e6 * sum(refit) / max(sum(iterations), 1),
        "direction.nonconverged": nonconverged,
        "permute.stream_s.p50": _median(stage["permute.stream"]),
        "permute.relabel_s.p50": _median(stage["permute.relabel"]),
        "unistat.project_s.p50": _median(stage["unistat.project"]),
        "unistat.stat_s.p50": _median(stage["unistat.stat"]),
        "engine.replay_s": replay_s,
        "engine.overhead_s": _median(walls_w) - attributed,
        "engine.records_s": median_span("engine.records"),
        "engine.summary_s": median_span("engine.summary"),
        "report.json_s": median_span("report.json"),
        "report.json_bytes": json_bytes,
        "report.bundle_s": median_span("report.bundle"),
        "report.load_s": median_span("report.load"),
        "cli.run_s": procs[0][0],
        "cli.report_s": procs[1][0],
        "trace.overhead_frac": _median(totals) / _median(walls_1) - 1.0 if totals else 0.0,
    }
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "passes": n_pass, "seed": seed, "wall_workers_s": _median(walls_w),
            "wall_1_s": _median(walls_1), "workers": runner.workers,
            "self_time_s": tracer.self_times()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "tests", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--data-seed", type=int)  # none for the bundled data
    parser.add_argument("--perm-seed", type=int, required=True)
    parser.add_argument("--B", type=int, required=True)
    args = parser.parse_args()
    w = wl.WORKLOADS[args.workload]
    role = {"setup": setup, "tests": tests, "trace": trace}[args.role]
    print(json.dumps(role(args, w)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
