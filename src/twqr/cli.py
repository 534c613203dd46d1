"""Command-line interface.

Three non-interactive subcommands: ``fit`` runs the full inference
pipeline on a CSV panel, ``simulate`` runs rejection-frequency
experiments from a JSON design document, ``demo-nongaussian`` produces
the interaction-regime samples. Exit codes: 0 success, 2 input or usage
error, 3 numeric failure. Diagnostics go to stderr, results to stdout or
to files under --out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

# The stages after the fit run in montecarlo._infer. Its six stage functions
# stay imported here only because perfbench/run.py's instrument wraps each
# stage by name in this module too; tests/test_cli.py checks that they do.
from .crve import CrveKind, omega_variant, sandwich, t_test
from .errors import InputError, InvalidConfig, NonFinite, NumericError
from .jacobian import powell_jacobian, rule_of_thumb_bandwidth
from .montecarlo import (
    REPORT_COLUMNS,
    _demo_args,
    _infer,
    _one_blas_thread,
    config_from_json,
    nongaussian_demo,
    rejection_experiment,
    report_rows,
    report_to_json,
)
from .panel import _replacing, _usable_cpus, load_csv, read_header
from .solver import _require_tau, fit_qr, score_matrix

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        if value < 1:
            raise InvalidConfig(f"--threads must be >= 1, got {value}")
        return value
    env = os.environ.get("TWQR_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise InvalidConfig(f"TWQR_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise InvalidConfig(f"TWQR_THREADS must be >= 1, got {n}")
        return n
    return _usable_cpus()


def _fit_schema(args: argparse.Namespace) -> dict:
    if args.x_cols:
        x_cols = [c.strip() for c in args.x_cols.split(",") if c.strip()]
    else:
        reserved = {args.g_col, args.h_col, args.y_col}
        x_cols = [c for c in read_header(args.input) if c not in reserved]
    return {"g": args.g_col, "h": args.h_col, "y": args.y_col, "x": x_cols}


def _parse_nulls(raw: str | None, d: int) -> list[float]:
    if raw is None:
        return [0.0] * d
    try:
        vals = [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise InvalidConfig(f"--null must be comma-separated floats, got {raw!r}") from None
    if not all(map(math.isfinite, vals)):
        raise InvalidConfig(f"--null values must be finite, got {raw!r}")
    if len(vals) == 1:
        return vals * d
    if len(vals) != d:
        raise InvalidConfig(f"--null needs 1 or {d} values, got {len(vals)}")
    return vals


def cmd_fit(args: argparse.Namespace) -> int:
    if args.bandwidth is not None and not 0.0 < args.bandwidth < math.inf:
        raise InvalidConfig(f"--bandwidth must be finite and > 0, got {args.bandwidth}")
    _require_tau(args.tau)
    schema = _fit_schema(args)
    nulls = _parse_nulls(args.null, len(schema["x"]))
    # OpenBLAS results can depend on its thread count, so a fit must not
    # depend on the machine's core count
    with _one_blas_thread():
        panel = load_csv(args.input, schema)
        fit = fit_qr(panel, args.tau)
        kinds = list(dict.fromkeys(CrveKind(k) for k in (args.crve or ["ctw"])))
        ell, jac, results = _infer(panel, fit, kinds, list(enumerate(nulls)), args.bandwidth)
    methods = {}
    for kind in kinds:  # the first kind that failed, in --crve order, is the error
        if isinstance(results[kind], NumericError):
            raise results[kind]
        var, tests = results[kind]
        methods[kind.value] = {
            "std_errors": [float(v) for v in var.std_errors],
            "t_stats": [t.t_stat for t in tests],
            "p_values": [t.p_value for t in tests],
            "clip_count_I": var.omega.clip_count_I,
            "clip_count_II": var.omega.clip_count_II,
        }
    response = {
        "tau": args.tau,
        "beta_hat": [float(b) for b in fit.beta_hat],
        "null_values": nulls,
        "bandwidth": {"value": ell,
                      "source": "rule_of_thumb" if args.bandwidth is None else "override"},
        "methods": methods,
        "diagnostics": {
            "n": panel.n, "d": panel.d, "G": panel.G, "H": panel.H,
            "kernel_hits": jac.kernel_hits,
            "solver_iterations": fit.solver.iterations,
            "duality_gap": fit.solver.duality_gap,
            "converged": fit.solver.converged,
            "objective": fit.objective,
        },
    }
    try:  # JSON has no token for NaN or Infinity, so neither format prints them
        text = json.dumps(response, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFinite("the response has a non-finite number") from None
    if args.format == "json":
        sys.stdout.write(text + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["coefficient", "method", "beta_hat", "null_value",
                        "std_error", "t_stat", "p_value"])
        for kind in kinds:
            block = methods[kind.value]
            for j in range(panel.d):
                writer.writerow([
                    j, kind.value, repr(response["beta_hat"][j]), repr(nulls[j]),
                    repr(block["std_errors"][j]), repr(block["t_stats"][j]),
                    repr(block["p_values"][j]),
                ])
    return EXIT_OK


def _merge_design(base: dict, override: dict) -> dict:
    if not isinstance(override, dict):
        raise InvalidConfig("each grid entry must be a JSON object")
    merged = dict(base)
    for key, val in override.items():
        if key == "weights" and isinstance(val, dict) and isinstance(merged.get("weights"), dict):
            merged["weights"] = {**merged["weights"], **val}
        else:
            merged[key] = val
    return merged


def cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidConfig("config document must be a JSON object")
    grid = obj.pop("grid", None)
    if grid is None:
        designs = [obj]
    else:
        if not isinstance(grid, list) or not grid:
            raise InvalidConfig("'grid' must be a non-empty list of override objects")
        designs = [_merge_design(obj, entry) for entry in grid]
    if args.seed is not None:
        for design in designs:
            design["seed"] = args.seed
    configs = [config_from_json(design) for design in designs]
    threads = _resolve_threads(args.threads)
    os.makedirs(args.out, exist_ok=True)
    reports = []
    for idx, cfg in enumerate(configs):
        print(f"design {idx + 1}/{len(configs)}: G={cfg.G} H={cfg.H} d={cfg.d} "
              f"tau={cfg.tau} reps={cfg.reps}", file=sys.stderr)
        reports.append(rejection_experiment(cfg, n_jobs=threads))
    csv_path = os.path.join(args.out, "report.csv")
    with _replacing(csv_path) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(REPORT_COLUMNS), lineterminator="\n")
        writer.writeheader()
        for report in reports:
            for row in report_rows(report):
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
    json_path = os.path.join(args.out, "report.json")
    with _replacing(json_path) as fh:
        json.dump({"reports": [report_to_json(r) for r in reports]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    return EXIT_OK


def cmd_demo_nongaussian(args: argparse.Namespace) -> int:
    _demo_args(args.G, args.H, args.c, args.reps, args.seed)
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before any replication
    demo = nongaussian_demo(G=args.G, H=args.H, c=args.c,
                            reps=args.reps, seed=args.seed)
    for name, sample in (("empirical", demo.empirical), ("reference", demo.reference)):
        with _replacing(os.path.join(args.out, f"{name}.csv")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "value"])
            for i, v in enumerate(sample):
                writer.writerow([i, repr(float(v))])
    summary = {"G": args.G, "H": args.H, "c": args.c, "reps": args.reps,
               "seed": args.seed, **asdict(demo.summary)}
    with _replacing(os.path.join(args.out, "summary.json")) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote samples and summary under {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twqr",
        description="Quantile regression with two-way cluster-robust inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a CSV panel and report robust t-tests")
    fit.add_argument("input", help="long-format CSV, one row per (g, h) cell")
    fit.add_argument("--tau", type=float, default=0.5, help="quantile level (default 0.5)")
    fit.add_argument("--crve", action="append",
                     choices=[k.value for k in CrveKind],
                     help="variance estimator, repeatable (default: ctw)")
    fit.add_argument("--bandwidth", type=float, default=None,
                     help="kernel bandwidth override (default: rule of thumb)")
    fit.add_argument("--null", default=None,
                     help="null value(s) for t-tests: one float or d comma-separated")
    fit.add_argument("--format", choices=("json", "csv"), default="json")
    fit.add_argument("--g-col", default="g", help="row-cluster column name")
    fit.add_argument("--h-col", default="h", help="column-cluster column name")
    fit.add_argument("--y-col", default="y", help="response column name")
    fit.add_argument("--x-cols", default=None,
                     help="comma-separated regressor columns (default: all others)")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="rejection-frequency experiments from a JSON design")
    sim.add_argument("config", help="JSON design document, optional 'grid' override list")
    sim.add_argument("--out", default=".", help="directory for report.csv / report.json")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the seed of every design, grid entries included")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: TWQR_THREADS, else every CPU "
                          "the process may run on)")
    sim.set_defaults(func=cmd_simulate)

    demo = sub.add_parser("demo-nongaussian",
                          help="median-regression interaction-regime demonstration",
                          description="Median-regression interaction-regime demonstration. "
                                      "Uses every CPU the process may run on; output is "
                                      "identical at any count.")
    demo.add_argument("--G", type=int, default=100)
    demo.add_argument("--H", type=int, default=100)
    demo.add_argument("--c", type=float, default=1.0,
                      help="local drift of the column sign probability (>= 0)")
    demo.add_argument("--reps", type=int, default=2000)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--out", default=".", help="directory for sample CSVs and summary.json")
    demo.set_defaults(func=cmd_demo_nongaussian)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except csv.Error as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
