#!/usr/bin/env python3
"""Benchmark for twqr: replication throughput, CSV time-to-fit, non-Gaussian demo.

Run from the repository root:

    python3 perfbench/run.py --workload mc_two_way --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced units of work and reports the
per-layer metrics of the traced ones. Every output is checked; a failed
check counts as a failed operation. Human-readable lines go first; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Metric definitions are in perfbench/METRICS.md.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads, so the two-worker units
# never run more compute threads than the box has cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

_START = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, self_times, write_spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
FIT_SCHEMA = ROOT / "docs" / "schemas" / "fit_response.schema.json"

WORKLOADS = ("mc_two_way", "fit_csv_large", "nongaussian")
SETUP_PASSES = 3          # setup_s is the median over this many set-ups
N_INPUT_SEEDS = 32        # references exist for input seeds 0..31
SUBPROCESS_TIMEOUT_S = 150

METHODS = ("ctw", "cg", "ch", "ci", "ctw2")
MC_REPS = 50              # replications per rejection_experiment call
FIT_G = FIT_H = 500       # 250k cells, about 51 MB of CSV
NG_G = NG_H = 100
NG_REPS = 500             # the API minimum
NG_MAX_FAILURES = NG_REPS // 100
# fit_csv_large reference tolerances: the solver certifies its objective to
# 1e-8 relative, which pins beta_hat far tighter than 1e-6; standard errors
# also move with discrete kernel hits and score signs, hence 1e-3.
BETA_ABS_TOL = 1e-6       # |beta - ref| <= tol * (1 + |ref|)
SE_REL_TOL = 1e-3         # |se - ref| <= tol * |ref|
GAP_REL_TOL = 1e-8        # duality_gap <= tol * (1 + |objective|)

END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "reps_per_s_2w": "1/s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "montecarlo.generate_dgp.ms_p50": "ms",
    "montecarlo.generate_dgp.ms_p97": "ms",
    "montecarlo.rep_ms_p50": "ms",
    "montecarlo.rep_ms_p97": "ms",
    "montecarlo.self_ms_per_rep": "ms",
    "montecarlo.self_s": "s",
    "solver.fit_qr.ms_p50": "ms",
    "solver.fit_qr.ms_p97": "ms",
    "solver.fit_qr.s": "s",
    "solver.iterations_p50": "count",
    "solver.iterations_max": "count",
    "solver.iterations_sum": "count",
    "solver.ms_per_iteration": "ms",
    "solver.converged_frac": "ratio",
    "solver.score_matrix.ms_p50": "ms",
    "solver.self_s": "s",
    "jacobian.rule_of_thumb_bandwidth.ms_p50": "ms",
    "jacobian.rule_of_thumb_bandwidth.s": "s",
    "jacobian.powell_jacobian.ms_p50": "ms",
    "jacobian.kernel_hits_mean": "count",
    "jacobian.kernel_hits_sum": "count",
    "jacobian.self_s": "s",
    "crve.omega_variant.ms_per_rep": "ms",
    "crve.sandwich.ms_per_rep": "ms",
    "crve.t_test.ms_per_rep": "ms",
    "crve.clip_count_I_mean": "count",
    "crve.clip_count_II_mean": "count",
    "crve.clip_count_sum": "count",
    "crve.self_s": "s",
    "panel.load_csv.s": "s",
    "panel.load_csv.mb_per_s": "MB/s",
    "panel.write_csv.s": "s",
    "panel.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.units": "count",
    "trace.spans_per_unit": "count",
}
# Counts that must repeat exactly for fixed code and seed.
EXACT_COUNTS = ("solver.iterations_sum", "jacobian.kernel_hits_sum", "crve.clip_count_sum")
LAYERS = ("montecarlo", "solver", "jacobian", "crve", "panel", "cli")


class Program:
    """The twqr modules the benchmark drives, imported from ``src/``."""

    def __init__(self):
        if not (SRC / "twqr" / "__init__.py").is_file():
            raise SystemExit(f"error: twqr sources not found under {SRC}")
        sys.path.insert(0, str(SRC))
        self.np = importlib.import_module("numpy")
        self.montecarlo = importlib.import_module("twqr.montecarlo")
        self.panel = importlib.import_module("twqr.panel")
        self.cli = importlib.import_module("twqr.cli")


def input_seed(seed: int) -> int:
    """The seed the program sees; recorded references cover all of them."""
    return seed % N_INPUT_SEEDS


def acceptance_config(tw: Program, seed: int, G: int, H: int, reps: int):
    mc = tw.montecarlo
    return mc.MonteCarloConfig(
        G=G, H=H, d=10, tau=0.5, weights=mc.DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        reps=reps, seed=seed, methods=METHODS,
    )


def fit_argv(csv_path) -> list[str]:
    argv = ["fit", str(csv_path)]
    for kind in METHODS:
        argv += ["--crve", kind]
    return argv + ["--null", "1.0", "--format", "json"]


def run_cli_fit(tw: Program, csv_path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tw.cli.main(fit_argv(csv_path))
    return rc, out.getvalue()


def run_cli_pair(argv_a: list[str], argv_b: list[str] | None = None) -> list[tuple[int, str]]:
    """Run two ``twqr`` CLI processes at once; (exit code, stdout) of each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-m", "twqr.cli", *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
             for argv in (argv_a, argv_b or argv_a)]
    try:
        outs = [p.communicate(timeout=SUBPROCESS_TIMEOUT_S)[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    return [(p.returncode, out) for p, out in zip(procs, outs)]


def rejection_counts(report) -> dict:
    return {
        "rejections": {k: round(report.frequencies[k] * report.reps_used[k]) for k in METHODS},
        "failures": {k: report.failures[k] for k in METHODS},
    }


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# --- workloads ---
#
# A workload has a set-up, a unit of work at one worker (``unit``) and at two
# workers (``unit_2w``), and checks that turn each unit's output into
# (attempted, failed) operation counts. ``reps`` and ``reps_2w`` are the
# replications one unit completes; a CLI fit counts as one replication.

class McTwoWay:
    """rejection_experiment on the acceptance two-way design."""

    reps = MC_REPS
    reps_2w = MC_REPS

    def __init__(self, tw: Program, seed: int):
        self.tw = tw
        self.ref = load_references()["mc_two_way"][str(seed)]
        self.config = acceptance_config(tw, seed, 50, 50, MC_REPS)
        self.first_json = None

    def setup(self):
        warm = acceptance_config(self.tw, self.config.seed, 50, 50, 2)
        self.tw.montecarlo.rejection_experiment(warm, n_jobs=1)
        self.tw.montecarlo.rejection_experiment(warm, n_jobs=2)

    def unit(self):
        return self.tw.montecarlo.rejection_experiment(self.config, n_jobs=1)

    def unit_2w(self):
        return self.tw.montecarlo.rejection_experiment(self.config, n_jobs=2)

    def check(self, report) -> tuple[int, int]:
        pairs = MC_REPS * len(METHODS)
        if report is None:
            return pairs, pairs
        # byte-determinism: every report, at either worker count, equals the first
        text = json.dumps(self.tw.montecarlo.report_to_json(report), sort_keys=True)
        if self.first_json is None:
            self.first_json = text
        if text != self.first_json or rejection_counts(report) != self.ref:
            return pairs, pairs
        return pairs, sum(report.failures.values())

    check_2w = check

    def teardown(self):
        pass


class FitCsvLarge:
    """``twqr fit`` on a G=H=500, d=10 CSV written with panel.write_csv."""

    reps = 1
    reps_2w = 2

    def __init__(self, tw: Program, seed: int):
        self.tw = tw
        self.seed = seed
        self.ref = load_references()["fit_csv_large"][str(seed)]
        import jsonschema
        with open(FIT_SCHEMA, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.tmp = OUT_DIR / f"tmp-{os.getpid()}"
        self.csv = self.tmp / "panel.csv"
        self.first_out = None

    def setup(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        cfg = acceptance_config(self.tw, self.seed, FIT_G, FIT_H, 1)
        self.tw.panel.write_csv(self.tw.montecarlo.generate_dgp(cfg, 0), self.csv)
        small = self.tmp / "warm.csv"
        warm = acceptance_config(self.tw, self.seed, 20, 20, 1)
        self.tw.panel.write_csv(self.tw.montecarlo.generate_dgp(warm, 0), small)
        run_cli_fit(self.tw, small)

    def unit(self):
        return [run_cli_fit(self.tw, self.csv)]

    def unit_2w(self):
        return run_cli_pair(fit_argv(self.csv))

    def _fit_ok(self, rc: int, text: str) -> bool:
        if rc != 0:
            return False
        if self.first_out is None:
            self.first_out = text
        if text != self.first_out:
            return False
        doc = json.loads(text)
        if not self.validator.is_valid(doc):
            return False
        diag = doc["diagnostics"]
        if not diag["converged"] or diag["duality_gap"] > GAP_REL_TOL * (1.0 + abs(diag["objective"])):
            return False
        for b, r in zip(doc["beta_hat"], self.ref["beta_hat"], strict=True):
            if abs(b - r) > BETA_ABS_TOL * (1.0 + abs(r)):
                return False
        for kind in METHODS:
            for s, r in zip(doc["methods"][kind]["std_errors"], self.ref["std_errors"][kind],
                            strict=True):
                if abs(s - r) > SE_REL_TOL * abs(r):
                    return False
        return True

    def check(self, fits) -> tuple[int, int]:
        if fits is None:
            return 1, 1
        return len(fits), sum(not self._fit_ok(rc, text) for rc, text in fits)

    def check_2w(self, fits) -> tuple[int, int]:
        return (2, 2) if fits is None else self.check(fits)

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class NonGaussian:
    """nongaussian_demo(G=H=100, c=0) at the API minimum of 500 replications."""

    reps = NG_REPS
    reps_2w = 2 * NG_REPS

    def __init__(self, tw: Program, seed: int):
        self.tw = tw
        self.seed = seed
        self.tmp = OUT_DIR / f"tmp-{os.getpid()}"
        self.first = None

    def _demo(self, G=NG_G, H=NG_H):
        return self.tw.montecarlo.nongaussian_demo(G=G, H=H, c=0.0, reps=NG_REPS, seed=self.seed)

    def setup(self):
        self._demo(G=5, H=5)

    def unit(self):
        return self._demo()

    def unit_2w(self):
        argv = ["demo-nongaussian", "--G", str(NG_G), "--H", str(NG_H), "--c", "0.0",
                "--reps", str(NG_REPS), "--seed", str(self.seed)]
        dirs = [self.tmp / f"demo{i}" for i in range(2)]
        return run_cli_pair(argv + ["--out", str(dirs[0])], argv + ["--out", str(dirs[1])]), dirs

    def _summary_ok(self, summary: dict, empirical) -> bool:
        if self.first is None:
            self.first = (summary, empirical)
        return ((summary, empirical) == self.first and summary["failures"] <= NG_MAX_FAILURES
                and summary["kurtosis_empirical"] > 3.0)

    def check(self, demo) -> tuple[int, int]:
        if demo is None:
            return NG_REPS, NG_REPS
        s = demo.summary
        summary = {"kappa": s.kappa, "kurtosis_empirical": s.kurtosis_empirical,
                   "ks_vs_fitted_normal": s.ks_vs_fitted_normal, "failures": s.failures}
        ok = self._summary_ok(summary, [float(v) for v in demo.empirical])
        return NG_REPS, s.failures if ok else NG_REPS

    def check_2w(self, out) -> tuple[int, int]:
        if out is None:
            return 2 * NG_REPS, 2 * NG_REPS
        failed = 0
        for (rc, _), out_dir in zip(*out):
            if rc != 0:
                failed += NG_REPS
                continue
            doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            summary = {k: doc[k] for k in ("kappa", "kurtosis_empirical",
                                           "ks_vs_fitted_normal", "failures")}
            with open(out_dir / "empirical.csv", encoding="utf-8") as fh:
                empirical = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
            failed += summary["failures"] if self._summary_ok(summary, empirical) else NG_REPS
        return 2 * NG_REPS, failed

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOAD_CLASSES = {"mc_two_way": McTwoWay, "fit_csv_large": FitCsvLarge,
                    "nongaussian": NonGaussian}


# --- tracing ---

def instrument(tracer: Tracer, tw: Program) -> None:
    """Wrap each layer's public functions as montecarlo and cli call them."""
    mc, cli = tw.montecarlo, tw.cli
    tracer.wrap(mc, "rejection_experiment", "montecarlo.rejection_experiment")
    tracer.wrap(mc, "_replication_outcome", "montecarlo.replication", rep=lambda a: a[1])
    tracer.wrap(mc, "nongaussian_demo", "montecarlo.nongaussian_demo")
    tracer.wrap(mc, "generate_dgp", "montecarlo.generate_dgp")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_csv", "panel.load_csv",
                counts=lambda a, r: {"bytes": os.path.getsize(a[0])})
    for caller in (mc, cli):
        tracer.wrap(caller, "fit_qr", "solver.fit_qr", counts=lambda a, r: {
            "iterations": r.solver.iterations, "converged": int(r.solver.converged)})
        tracer.wrap(caller, "score_matrix", "solver.score_matrix")
        tracer.wrap(caller, "rule_of_thumb_bandwidth", "jacobian.rule_of_thumb_bandwidth")
        tracer.wrap(caller, "powell_jacobian", "jacobian.powell_jacobian",
                    counts=lambda a, r: {"kernel_hits": r.kernel_hits})
        tracer.wrap(caller, "omega_variant", "crve.omega_variant", counts=lambda a, r: {
            "clip_I": r.clip_count_I, "clip_II": r.clip_count_II})
        tracer.wrap(caller, "sandwich", "crve.sandwich")
        tracer.wrap(caller, "t_test", "crve.t_test")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def rep_durations(spans) -> list[float]:
    """Replication wall times in seconds.

    The Monte Carlo replication has its own span. The non-Gaussian demo's
    replication loop is inline, so one of its replications is the interval
    from the previous fit's end (or the demo's start) to this fit's end.
    """
    reps = [s.duration for s in spans if s.name == "montecarlo.replication"]
    for demo in (s for s in spans if s.name == "montecarlo.nongaussian_demo"):
        fits = sorted((s for s in spans if s.parent == demo.span_id and s.name == "solver.fit_qr"),
                      key=lambda s: s.start)
        prev = demo.start
        for rep, fit in enumerate(fits):
            fit.rep = rep
            reps.append(fit.end - prev)
            prev = fit.end
    return reps


def unit_summary(spans, wall: float) -> dict:
    """Totals and exact counts for one traced unit of work."""
    own = self_times(spans)
    total = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        layer_self[s.name.split(".")[0]] += own[s.span_id]
    fits = [s for s in spans if s.name == "solver.fit_qr"]
    omegas = [s for s in spans if s.name == "crve.omega_variant"]
    n_reps = (sum(s.name == "montecarlo.replication" for s in spans)
              or sum(s.name == "cli.main" for s in spans) or len(fits))
    return {
        "total": total,
        "layer_self": layer_self,
        "reps": n_reps,
        "spans": len(spans),
        "accounted": sum(own.values()) / wall,
        "solver.iterations_sum": sum(s.counts.get("iterations", 0) for s in fits),
        "jacobian.kernel_hits_sum": sum(s.counts.get("kernel_hits", 0) for s in spans
                                        if s.name == "jacobian.powell_jacobian"),
        "crve.clip_count_sum": sum(s.counts.get("clip_I", 0) + s.counts.get("clip_II", 0)
                                   for s in omegas),
    }


def layer_metrics(units, untraced_walls, write_spans) -> tuple[dict, bool]:
    """Per-layer metrics over traced units; also whether exact counts repeated."""
    spans = [s for tracer, _ in units for s in tracer.spans]
    summaries = [unit_summary(tracer.spans, wall) for tracer, wall in units]

    def ms(name):
        return [s.duration * 1e3 for s in spans if s.name == name]

    def per_unit(fn):
        return statistics.median(fn(u) for u in summaries)

    def per_rep_ms(name):
        return per_unit(lambda u: 1e3 * u["total"][name] / u["reps"] if u["reps"] else 0.0)

    fits = [s for s in spans if s.name == "solver.fit_qr"]
    iters = [s.counts["iterations"] for s in fits if "iterations" in s.counts]
    hits = [s.counts["kernel_hits"] for s in spans if "kernel_hits" in s.counts]
    omegas = [s for s in spans if "clip_I" in s.counts]
    loads = [s for s in spans if s.name == "panel.load_csv" and "bytes" in s.counts]
    fit_s = sum(s.duration for s in fits)
    reps_ms = [1e3 * d for d in rep_durations(spans)]
    big = max((s.counts["cells"] for s in write_spans), default=0)
    write_spans = [s for s in write_spans if s.counts["cells"] == big]
    m = {
        "montecarlo.generate_dgp.ms_p50": percentile(ms("montecarlo.generate_dgp"), 50),
        "montecarlo.generate_dgp.ms_p97": percentile(ms("montecarlo.generate_dgp"), 97),
        "montecarlo.rep_ms_p50": percentile(reps_ms, 50),
        "montecarlo.rep_ms_p97": percentile(reps_ms, 97),
        "montecarlo.self_ms_per_rep": per_unit(
            lambda u: 1e3 * u["layer_self"]["montecarlo"] / u["reps"] if u["reps"] else 0.0),
        "solver.fit_qr.ms_p50": percentile(ms("solver.fit_qr"), 50),
        "solver.fit_qr.ms_p97": percentile(ms("solver.fit_qr"), 97),
        "solver.fit_qr.s": per_unit(lambda u: u["total"]["solver.fit_qr"]),
        "solver.iterations_p50": percentile(iters, 50),
        "solver.iterations_max": float(max(iters, default=0)),
        "solver.iterations_sum": float(summaries[0]["solver.iterations_sum"]),
        "solver.ms_per_iteration": 1e3 * fit_s / sum(iters) if sum(iters) else 0.0,
        "solver.converged_frac": (sum(s.counts.get("converged", 0) for s in fits) / len(fits)
                                  if fits else 0.0),
        "solver.score_matrix.ms_p50": percentile(ms("solver.score_matrix"), 50),
        "jacobian.rule_of_thumb_bandwidth.ms_p50": percentile(
            ms("jacobian.rule_of_thumb_bandwidth"), 50),
        "jacobian.rule_of_thumb_bandwidth.s": per_unit(
            lambda u: u["total"]["jacobian.rule_of_thumb_bandwidth"]),
        "jacobian.powell_jacobian.ms_p50": percentile(ms("jacobian.powell_jacobian"), 50),
        "jacobian.kernel_hits_mean": statistics.fmean(hits) if hits else 0.0,
        "jacobian.kernel_hits_sum": float(summaries[0]["jacobian.kernel_hits_sum"]),
        "crve.omega_variant.ms_per_rep": per_rep_ms("crve.omega_variant"),
        "crve.sandwich.ms_per_rep": per_rep_ms("crve.sandwich"),
        "crve.t_test.ms_per_rep": per_rep_ms("crve.t_test"),
        "crve.clip_count_I_mean": (statistics.fmean(s.counts["clip_I"] for s in omegas)
                                   if omegas else 0.0),
        "crve.clip_count_II_mean": (statistics.fmean(s.counts["clip_II"] for s in omegas)
                                    if omegas else 0.0),
        "crve.clip_count_sum": float(summaries[0]["crve.clip_count_sum"]),
        "panel.load_csv.s": per_unit(lambda u: u["total"]["panel.load_csv"]),
        "panel.load_csv.mb_per_s": (statistics.median(s.counts["bytes"] / 1e6 / s.duration
                                                      for s in loads) if loads else 0.0),
        "panel.write_csv.s": (statistics.median(s.duration for s in write_spans)
                              if write_spans else 0.0),
        "trace.overhead_frac": (statistics.median(w for _, w in units)
                                / statistics.median(untraced_walls) - 1.0),
        "trace.accounted_frac": per_unit(lambda u: u["accounted"]),
        "trace.units": float(len(units)),
        "trace.spans_per_unit": per_unit(lambda u: u["spans"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_unit(lambda u, layer=layer: u["layer_self"][layer])
    repeat = all(u[k] == summaries[0][k] for u in summaries for k in EXACT_COUNTS)
    return {k: float(m[k]) for k in PER_LAYER}, repeat


# --- running a workload ---

def machine_facts(tw: Program) -> dict:
    import scipy
    blas = "unknown"
    try:
        dep = tw.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": tw.np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def timed(fn):
    start = time.perf_counter()
    try:
        out = fn()
    except Exception:  # a unit that raises is a failed unit, not a crash
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tw = Program()
    import_s = time.perf_counter() - _START
    work = WORKLOAD_CLASSES[name](tw, input_seed(seed))
    attempted = failed = 0

    def tally(counts):
        nonlocal attempted, failed
        attempted += counts[0]
        failed += counts[1]

    try:
        setup_tracer = Tracer()
        if trace:
            setup_tracer.wrap(tw.panel, "write_csv", "panel.write_csv",
                              counts=lambda a, r: {"cells": a[0].n})
        with setup_tracer:
            passes = []
            for _ in range(SETUP_PASSES):
                start = time.perf_counter()
                work.setup()
                passes.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(passes)

        walls_1w, walls_2w, traced_units = [], [], []
        traced_attempted = 0
        while True:
            out, wall = timed(work.unit)
            walls_1w.append(wall)
            tally(work.check(out))
            if trace:
                with Tracer() as tracer:
                    instrument(tracer, tw)
                    out, wall = timed(work.unit)
                traced_units.append((tracer, wall))
                counts = work.check(out)
                traced_attempted += counts[0]
            else:
                out, wall = timed(work.unit_2w)
                walls_2w.append(wall)
                counts = work.check_2w(out)
            tally(counts)
            if sum(walls_1w) + sum(walls_2w) + sum(w for _, w in traced_units) >= seconds:
                break
    finally:
        work.teardown()

    facts = machine_facts(tw)
    if trace:
        metrics, repeat = layer_metrics(traced_units, walls_1w, setup_tracer.spans)
        if not repeat:
            print("check failed: exact counts differ between traced units", file=sys.stderr)
            failed += traced_attempted
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        write_spans(setup_tracer.spans + [s for t, _ in traced_units for s in t.spans],
                    OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        units = PER_LAYER
    else:
        fit_s = statistics.median(walls_1w)
        metrics = {
            "setup_s": setup_s,
            "reps_per_s": work.reps / fit_s,
            "reps_per_s_2w": work.reps_2w / statistics.median(walls_2w),
            "fit_s": fit_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print("machine " + json.dumps(facts, sort_keys=True))
    for key, value in metrics.items():
        print(f"{name:<14} {key:<40} {value:>14.6g} {units[key]}")
    print(f"{name:<14} {'failed_frac':<40} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted})")
    return {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
