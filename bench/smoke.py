"""Self-check of the benchmark, at a tiny B.

    python3 bench/smoke.py

Runs every workload, also one that BENCHMARK.json leaves out, with
`--trace 0` and `--trace 1` and asserts that each run is correct and
prints exactly the metrics BENCHMARK.json names, each with its unit.  Then checks that `run.py` refuses, with a non-zero exit
code and no result line, a directory holding only BENCHMARK.json and the
benchmark.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - set(wl.WORKLOADS))
    assert not unknown, f"BENCHMARK.json names unknown workloads {unknown}"
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    # every workload, also those BENCHMARK.json leaves out
    for name in wl.WORKLOADS:
        for trace, metrics in wanted.items():
            out = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            assert out.returncode == 0, f"{name} trace={trace}:\n{out.stderr}"
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
            assert res["correct"] is True and res["failed"] == 0, out.stdout
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in metrics}, (name, trace, got)
            for k, v in res["metrics"].items():
                value = v["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (k, value)
            print(f"ok {name} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} attempted")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = _run(bare, "--workload", names[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out.stdout
    print(f"ok a directory without the package is refused (exit {out.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
