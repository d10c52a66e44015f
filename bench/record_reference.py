"""Record the reference answers that the benchmark checks against.

    PYTHONPATH=src python3 bench/record_reference.py

Runs each workload once at its own data seed, permutation seed and B
through `diproperm()` and writes bench/reference.json.  Re-record only on
purpose (say, a deliberate change of the result), never to make a
failing check pass.
"""

from __future__ import annotations

import json
import platform
import sys

import workloads as wl


def main() -> int:
    import diproperm as dp
    import numpy as np

    doc = {"_recorded_with": {"diproperm": dp.__version__, "numpy": np.__version__,
                              "python": platform.python_version()}}
    for w in wl.WORKLOADS.values():
        ds = wl.build_dataset(w, w.data_seed)
        result = dp.diproperm(
            ds, dp.PermutationPlan(w.scheme, w.B, w.perm_seed),
            classifier=w.classifier, statistic=w.statistic,
            workers=w.effective_workers(), retain_all=w.retain_all,
        )
        answer = wl.answer_of(result)
        doc[wl.reference_key(w, w.data_seed)] = {
            "observed_statistic": answer["observed_statistic"],
            "top_loadings": answer["top_loadings"],
            # |loading| of ranks 5 and 6: how far a re-ordering is from here
            "loading_5_6": [abs(ld.value) for ld in result.loadings[4:6]],
            "seeds": {f"{w.perm_seed}/B{w.B}": {
                k: answer[k] for k in ("p_value", "z_score", "cutoff")
            }},
        }
        print(w.name, json.dumps(doc[wl.reference_key(w, w.data_seed)]))
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
