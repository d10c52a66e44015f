"""Command-line interface.

Subcommands mirror the library surface: `run` executes the full test and
writes the result JSON plus default diagnostic panels, `loadings` prints
the top variable loadings from a result file, `report` re-emits panels
from a result file, and `synth` generates the two-cluster Gaussian
example data.

Exit codes: 0 success, 1 I/O error or a lost worker process, 2
validation error, 3 solver non-convergence.  Every failure prints one
"error: ..." line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import dataset as ds_mod
from .dataset import load_dense, load_sparse, mushrooms50, synthetic_blobs
from .direction import loadings_of
from .engine import CLASSIFIERS, PANELS, diproperm
from .errors import (
    DppError,
    NonConvergedError,
    PanelUnavailableError,
    ValidationError,
)
from .permute import SCHEMES, PermutationPlan
from .report import (
    DiagnosticsBundle,
    emit_bundle,
    emit_result_json,
    load_result_json,
)
from .unistat import STATISTICS

_BUNDLED = {"bundled:mushrooms50": mushrooms50}


def _load_dataset(args) -> ds_mod.LabeledDataset:
    if args.data in _BUNDLED:
        return _BUNDLED[args.data]()
    if args.format == "sparse":
        return load_sparse(args.data, n_features=args.n_features)
    return load_dense(
        args.data,
        has_header=args.has_header,
        label_column=args.label_column,
        labels_path=args.labels,
    )


def _given(args, *names) -> dict:
    """The named options the user gave; the rest keep the library default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_run(args) -> int:
    ds = _load_dataset(args)
    plan = PermutationPlan(**_given(args, "scheme", "B", "seed"))
    result = diproperm(
        ds, plan, workers=args.workers, retain_all=args.retain_all,
        **_given(args, "classifier", "statistic", "alpha", "dwd_tol",
                 "dwd_max_iter"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_result_json(result, out / "result.json")
    emit_bundle(result, DiagnosticsBundle(out_dir=out), bins=args.bins)
    print(
        f"stat={result.observed_statistic!r} p={result.p_value!r} "
        f"z={result.z_score!r} cutoff={result.cutoff!r}"
    )
    return 0


def _cmd_loadings(args) -> int:
    result = load_result_json(args.result)
    for ld in loadings_of(result.observed_direction, args.loadnum,
                          result.feature_names):
        suffix = f"  {ld.name}" if ld.name else ""
        print(f"{ld.index}  {ld.value!r}{suffix}")
    return 0


def _cmd_report(args) -> int:
    result = load_result_json(args.result)
    bundle = DiagnosticsBundle(out_dir=args.out, **_given(args, "panels"))
    for path in emit_bundle(result, bundle, bins=args.bins):
        print(path)
    return 0


def _cmd_synth(args) -> int:
    ds = synthetic_blobs(**_given(args, "n_samples", "n_features",
                                  "center_distance", "cluster_std", "seed"))
    ds_mod.write_dense(ds, args.out)
    ds_mod.write_labels(ds, args.labels_out)
    print(f"wrote {args.out} ({ds.n_samples}x{ds.n_features}) and {args.labels_out}")
    return 0


def _panel_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diproperm",
        description="Direction-projection-permutation two-sample test",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options without a CLI default are left out of the namespace when not
    # given, so the library's own default applies
    lib = argparse.SUPPRESS

    run = sub.add_parser("run", help="run the full test and emit results")
    run.add_argument("--data", required=True,
                     help="data file, or 'bundled:mushrooms50'")
    run.add_argument("--format", choices=("dense", "sparse"), default="dense")
    run.add_argument("--labels", help="labels-only file (dense format)")
    run.add_argument("--label-column",
                     help="label column name or 0-based index (dense format)")
    run.add_argument("--has-header", action="store_true")
    run.add_argument("--n-features", type=int,
                     help="explicit width for sparse files")
    run.add_argument("--classifier", choices=CLASSIFIERS, default=lib)
    run.add_argument("--stat", dest="statistic", choices=tuple(STATISTICS),
                     default=lib)
    run.add_argument("--scheme", choices=SCHEMES, default=lib)
    run.add_argument("-B", "--permutations", dest="B", type=int, default=lib)
    run.add_argument("--seed", type=int, default=lib)
    run.add_argument("--alpha", type=float, default=lib)
    run.add_argument("--workers", type=int,  # type=int parses the env value too
                     default=os.environ.get("DPP_WORKERS") or None,
                     help="at most this many processes (default: usable cores)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--retain-all", action="store_true",
                     help="retain every permutation's scores in the result")
    run.add_argument("--dwd-tol", type=float, default=lib, help="DWD stopping KKT residual")
    run.add_argument("--dwd-max-iter", type=int, default=lib)
    run.add_argument("--bins", type=int, default=None,
                     help="histogram bin count (default: Freedman-Diaconis)")
    run.set_defaults(func=_cmd_run)

    loadings = sub.add_parser("loadings", help="print sorted loadings")
    loadings.add_argument("result", help="result.json from a run")
    loadings.add_argument("--loadnum", type=int, default=None,
                          help="number of rows (default: all)")
    loadings.set_defaults(func=_cmd_loadings)

    report = sub.add_parser("report", help="re-emit diagnostic panels")
    report.add_argument("result", help="result.json from a run")
    report.add_argument("--panels", type=_panel_list, default=lib,
                        help=f"comma list from {','.join(PANELS)}")
    report.add_argument("--out", default=".", help="output directory")
    report.add_argument("--bins", type=int, default=None)
    report.set_defaults(func=_cmd_report)

    synth = sub.add_parser("synth", help="generate two-cluster Gaussian data")
    synth.add_argument("--out", required=True, help="output data CSV")
    synth.add_argument("--labels-out", required=True, help="output labels file")
    synth.add_argument("-n", dest="n_samples", type=int, default=lib)
    synth.add_argument("-p", dest="n_features", type=int, default=lib)
    synth.add_argument("--std", dest="cluster_std", type=float, default=lib)
    synth.add_argument("--distance", dest="center_distance", type=float,
                       default=lib)
    synth.add_argument("--seed", type=int, default=lib)
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValidationError, PanelUnavailableError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, DppError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
