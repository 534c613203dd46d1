"""Tests for the DGP, rejection experiments, variance oracles, and the demo."""

import dataclasses
import math
import multiprocessing
import os
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm as scipy_norm

from helpers import allow_cpus, needs_fork, reference_stream

import twqr.montecarlo as mc
import twqr.panel as panel_mod
from twqr.crve import CrveKind
from twqr.errors import (
    DegenerateDesign,
    DegenerateScale,
    ExcessiveFailureRate,
    InvalidConfig,
    InvalidTau,
    NonpositiveBandwidth,
    RankDeficient,
    SingularJacobian,
    TooFewClusters,
    ZeroStdError,
)
from twqr.montecarlo import (
    DgpWeights,
    MonteCarloConfig,
    config_from_json,
    config_to_json,
    direct_score_variance,
    generate_dgp,
    nongaussian_demo,
    oracle_variance_components,
    rejection_experiment,
    report_rows,
    report_to_json,
    true_beta,
    true_bread,
    REPORT_COLUMNS,
)
from twqr.solver import fit_qr

TWO_WAY = DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
PURE_IID = DgpWeights(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def small_config(**overrides):
    base = dict(G=12, H=12, d=2, tau=0.5, weights=TWO_WAY, reps=40, seed=9)
    base.update(overrides)
    return MonteCarloConfig(**base)


def cov_entry_se(c, k):
    """Normal-theory standard error of each sample covariance entry."""
    dd = np.diag(c)
    return np.sqrt((np.outer(dd, dd) + c ** 2) / k)


# --- configuration ---

def test_config_validation():
    with pytest.raises(InvalidConfig):
        small_config(reps=0)
    with pytest.raises(InvalidConfig):
        small_config(G=1)
    with pytest.raises(InvalidConfig):
        small_config(d=1)
    with pytest.raises(InvalidConfig):
        small_config(tau=1.2)
    with pytest.raises(InvalidConfig):
        small_config(weights=DgpWeights(wWx=0.0))
    with pytest.raises(InvalidConfig):
        DgpWeights(wUx=-0.5)
    with pytest.raises(InvalidConfig):
        small_config(methods=())
    with pytest.raises(InvalidConfig):
        small_config(methods=("nope",))


def test_config_accepts_method_names():
    cfg = small_config(methods=("ctw", "ci"))
    assert cfg.methods == (CrveKind.CTW, CrveKind.CI)


def test_config_json_round_trip():
    cfg = small_config(methods=("ctw", "cg"), null_value=2.0)
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_config_from_json_rejects_bad_documents():
    doc = config_to_json(small_config())
    extra = dict(doc)
    extra["typo"] = 1
    with pytest.raises(InvalidConfig):
        config_from_json(extra)
    missing = dict(doc)
    del missing["tau"]
    with pytest.raises(InvalidConfig):
        config_from_json(missing)
    bad_weights = dict(doc)
    bad_weights["weights"] = {"wWx": 1.0, "bogus": 2.0}
    with pytest.raises(InvalidConfig):
        config_from_json(bad_weights)
    with pytest.raises(InvalidConfig, match="must be a JSON object"):
        config_from_json([])


# each violates a rule of docs/schemas/simulate_config.schema.json
SCHEMA_VIOLATIONS = {
    "non-integral G": {"G": 12.5},
    "non-integral reps": {"reps": 40.5},
    "bool reps": {"reps": True},
    "bool seed": {"seed": False},
    "string reps": {"reps": "40"},
    "string tau": {"tau": "0.5"},
    "negative seed": {"seed": -1},
    "nan null_value": {"null_value": float("nan")},
    "infinite null_value": {"null_value": float("inf")},
    "bare string methods": {"methods": "ctw"},
    "duplicate methods": {"methods": ["ctw", "cg", "ctw"]},
    "list weights": {"weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]},
    "string weights": {"weights": "two-way"},
    "string weight": {"weights": {"wWx": "1.0"}},
    "bool weight": {"weights": {"wWx": True}},
}


@pytest.mark.parametrize("change", SCHEMA_VIOLATIONS.values(), ids=SCHEMA_VIOLATIONS)
def test_config_rejects_schema_violations(change):
    doc = {**config_to_json(small_config()), **change}
    with pytest.raises(InvalidConfig):
        config_from_json(doc)
    # library callers get the same rules
    with pytest.raises(InvalidConfig):
        MonteCarloConfig(**doc)


def test_config_accepts_integral_floats():
    doc = {**config_to_json(small_config()), "G": 12.0, "reps": 1000.0, "seed": 9.0}
    cfg = config_from_json(doc)
    assert (cfg.G, cfg.reps, cfg.seed) == (12, 1000, 9)
    assert all(type(v) is int for v in (cfg.G, cfg.reps, cfg.seed))
    assert cfg == small_config(reps=1000)
    assert type(small_config(tau=np.float64(0.5), reps=np.int64(40)).reps) is int


# --- DGP ---

def test_dgp_deterministic_and_rep_varying():
    cfg = small_config()
    a = generate_dgp(cfg, 3)
    b = generate_dgp(cfg, 3)
    assert_array_equal(a.y, b.y)
    assert_array_equal(a.x, b.x)
    c = generate_dgp(cfg, 4)
    assert not np.array_equal(a.y, c.y)
    other_seed = generate_dgp(small_config(seed=10), 3)
    assert not np.array_equal(a.y, other_seed.y)


def test_dgp_shapes_and_constant_column():
    cfg = small_config(G=7, H=5, d=4)
    panel = generate_dgp(cfg, 0)
    assert (panel.G, panel.H, panel.n, panel.d) == (7, 5, 35, 4)
    assert_array_equal(panel.x[:, 0], np.ones(35))
    assert_array_equal(panel.g_idx, np.repeat(np.arange(7), 5))
    assert_array_equal(panel.h_idx, np.tile(np.arange(5), 7))


def test_dgp_zero_noise_recovers_truth():
    cfg = small_config(weights=DgpWeights(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    panel = generate_dgp(cfg, 0)
    assert_allclose(panel.y, panel.x.sum(axis=1), rtol=1e-12)
    fit = fit_qr(panel, 0.5)
    assert fit.objective <= 1e-7
    assert_allclose(fit.beta_hat, np.ones(2), atol=1e-5)


def test_dgp_no_row_dependence_without_shared_latents():
    cfg = MonteCarloConfig(G=200, H=200, d=2, tau=0.5, weights=PURE_IID,
                           reps=1, seed=15)
    panel = generate_dgp(cfg, 0)
    x = panel.x[:, 1].reshape(200, 200)
    corr = np.corrcoef(x, rowvar=False)  # across columns, over the 200 rows
    off = corr[np.triu_indices(200, 1)]
    assert abs(off.mean()) < 0.05


def test_dgp_replications_share_one_read_only_grid(monkeypatch):
    panel_mod._grid.cache_clear()  # so no panel has seen the pair yet
    g_idx, h_idx, g_labels, h_labels = panel_mod._grid(7, 5)
    for idx in (g_idx, h_idx):
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 1
    cfg = small_config(G=7, H=5)
    a, b = generate_dgp(cfg, 0), generate_dgp(cfg, 1)
    assert a.g_idx is b.g_idx and a.h_idx is b.h_idx
    assert a.g_idx is g_idx and a.h_idx is h_idx
    assert a.g_labels is g_labels and a.h_labels is h_labels
    # the demo's panels use the same pair
    panels = []
    real_fit = mc.fit_qr

    def recording_fit(panel, tau):
        panels.append(panel)
        return real_fit(panel, tau)

    monkeypatch.setattr(mc, "fit_qr", recording_fit)
    nongaussian_demo(G=7, H=5, c=0.0, reps=500, seed=0)
    assert len(panels) == 500
    assert all(p.g_idx is a.g_idx and p.h_idx is a.h_idx for p in panels)


def test_true_beta_values_and_fit_consistency():
    cfg = small_config(weights=PURE_IID)
    assert_allclose(true_beta(cfg, 0.5), [1.0, 1.0], rtol=1e-15)
    expect = 1.0 + scipy_norm.ppf(0.75)
    assert_allclose(true_beta(cfg, 0.75), [expect, 1.0], rtol=1e-12)
    big = MonteCarloConfig(G=60, H=60, d=2, tau=0.75, weights=PURE_IID,
                           reps=1, seed=19)
    fit = fit_qr(generate_dgp(big, 0), 0.75)
    assert_allclose(fit.beta_hat, true_beta(big, 0.75), atol=0.08)


ORACLES = {"true_beta": true_beta, "oracle_variance_components": oracle_variance_components,
           "direct_score_variance": direct_score_variance, "true_bread": true_bread}


@pytest.mark.parametrize("tau", [0.0, 1.0, math.nan])
@pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES)
def test_oracles_reject_tau_outside_the_unit_interval(oracle, tau):
    with pytest.raises(InvalidTau):
        oracle(small_config(), tau)


def test_true_bread_checks_tau_before_the_error_scale():
    no_error = small_config(weights=DgpWeights(0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidTau):
        true_bread(no_error, 0.0)
    with pytest.raises(DegenerateScale):
        true_bread(no_error, 0.5)


# --- rejection experiments ---

def test_rejection_thread_count_does_not_change_output():
    cfg = small_config(reps=40)
    serial = rejection_experiment(cfg, n_jobs=1)
    threaded = rejection_experiment(cfg, n_jobs=4)
    assert serial.frequencies == threaded.frequencies
    assert serial.mc_se == threaded.mc_se
    assert serial.reps_used == threaded.reps_used
    assert serial.failures == threaded.failures


def _raise(err):
    def stage(*args, **kwargs):
        raise err
    return stage


def _unconverged_fit(panel, tau):
    fit = fit_qr(panel, tau)
    return dataclasses.replace(
        fit, solver=dataclasses.replace(fit.solver, converged=False))


@pytest.mark.parametrize("stage, replacement, code", [
    ("fit_qr", _unconverged_fit, mc.FailureCode.NOT_CONVERGED),
    ("fit_qr", _raise(RankDeficient("rank")), mc.FailureCode.RANK_DEFICIENT),
    ("rule_of_thumb_bandwidth", _raise(DegenerateScale("mad")), mc.FailureCode.DEGENERATE),
    ("rule_of_thumb_bandwidth", _raise(DegenerateDesign("q")), mc.FailureCode.DEGENERATE),
    ("powell_jacobian", _raise(SingularJacobian("hits")), mc.FailureCode.SINGULAR_JACOBIAN),
    ("powell_jacobian", _raise(NonpositiveBandwidth("ell")), mc.FailureCode.OTHER_NUMERIC),
    ("t_test", _raise(ZeroStdError("se")), mc.FailureCode.ZERO_STD_ERROR),
    ("omega_variant", _raise(TooFewClusters("G")), mc.FailureCode.OTHER_NUMERIC),
    ("sandwich", _raise(SingularJacobian("d")), mc.FailureCode.SINGULAR_JACOBIAN),
], ids=["not_converged", "rank_deficient", "degenerate_scale", "degenerate_design",
        "singular_jacobian", "other_before_tests", "zero_std_error", "other_in_meat",
        "singular_in_sandwich"])
def test_replication_outcome_codes_each_failure_class(monkeypatch, stage, replacement, code):
    cfg = small_config()
    assert (mc._replication_outcome(cfg, 0) >= 0).all()
    monkeypatch.setattr(mc, stage, replacement)
    row = mc._replication_outcome(cfg, 0)
    assert row.dtype == np.int8
    assert row.tolist() == [code] * len(cfg.methods)


@pytest.mark.parametrize("tau", [0.05, 0.5, 0.95])
def test_replication_outcome_with_two_row_clusters(tau):
    # G = 2 leaves one-way row clustering two clusters; every outcome is
    # still a test or a failure code
    codes = {0, 1} | {int(code) for code in mc.FailureCode}
    for G, H, d in ((2, 2, 2), (2, 10, 3), (2, 50, 5)):
        cfg = small_config(G=G, H=H, d=d, tau=tau)
        for rep in range(5):
            row = mc._replication_outcome(cfg, rep)
            assert row.dtype == np.int8 and set(row.tolist()) <= codes


def test_failure_in_one_method_codes_only_its_column(monkeypatch):
    cfg = small_config()
    real = mc.t_test
    target = cfg.methods[1]

    def t_test(fit, var, j, null):
        if var.kind is target:
            raise ZeroStdError("se")
        return real(fit, var, j, null)

    monkeypatch.setattr(mc, "t_test", t_test)
    row = mc._replication_outcome(cfg, 0)
    assert row[1] == mc.FailureCode.ZERO_STD_ERROR
    assert (np.delete(row, 1) >= 0).all()


def test_every_failure_code_counts_as_a_failure(monkeypatch):
    # one replication per code, within the 1% tolerance of 600 replications
    codes = [int(c) for c in mc.FailureCode]
    assert sorted(codes) == list(range(-len(codes), 0))
    cfg = small_config(reps=600)

    def outcome(config, rep):
        value = codes[rep] if rep < len(codes) else rep % 2
        return np.full(len(config.methods), value, dtype=np.int8)

    monkeypatch.setattr(mc, "_replication_outcome", outcome)
    report = rejection_experiment(cfg)
    n_ok = 600 - len(codes)
    for kind in cfg.methods:
        assert report.failures[kind.value] == len(codes)
        assert report.reps_used[kind.value] == n_ok
        assert report.frequencies[kind.value] == (n_ok // 2) / n_ok


# --- forked replication chunks ---

class _InlineProcess:
    """A fork context's ``Process`` that runs its target in this process
    when started, so that what the target records is seen here."""

    def __init__(self, target, args, daemon):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def _planned_chunks(monkeypatch, reps, n_jobs, cpus):
    """Worker count and the ``[lo, hi)`` chunks ``_replicate`` hands
    ``_forked``, in order. The fork context is a stand-in whose processes
    run in this process, so every chunk is recorded here."""
    allow_cpus(monkeypatch, cpus)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    started, chunks = [], []

    def process(**kwargs):
        started.append(kwargs["args"][0])
        return _InlineProcess(**kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: types.SimpleNamespace(
        Pipe=multiprocessing.Pipe, Process=process))
    real = panel_mod._forked

    def spy(fn, items, jobs):
        def recorded(lo, hi):
            chunks.append((lo, hi))
            return fn(lo, hi)
        return real(recorded, items, jobs)

    monkeypatch.setattr(mc, "_forked", spy)
    rows = mc._replicate(lambda rep: rep, (), reps, n_jobs)
    assert rows == list(range(reps))
    # the forked chunks start first; the caller runs chunk 0 last
    assert chunks[-1][0] == 0 and started == list(range(1, len(chunks)))
    return len(started) + 1, sorted(chunks)


@pytest.mark.parametrize("reps, n_jobs, cpus, expected", [
    (3, 8, 16, [(0, 1), (1, 2), (2, 3)]),         # fewer reps than workers
    (7, 2, 2, [(0, 3), (3, 7)]),                   # reps not divisible
    (10, 3, 4, [(0, 3), (3, 6), (6, 10)]),
    (2000, 10_000, 2, [(0, 1000), (1000, 2000)]),  # far more workers than CPUs
    (5, 1, 8, [(0, 5)]),
    (1, 4, 4, [(0, 1)]),
    (9, 4, 1, [(0, 9)]),
])
def test_chunk_bounds(monkeypatch, reps, n_jobs, cpus, expected):
    workers, chunks = _planned_chunks(monkeypatch, reps, n_jobs, cpus)
    assert workers == min(n_jobs, reps, cpus)
    assert chunks == expected


def test_chunk_bounds_partition_in_order(monkeypatch):
    for reps in range(1, 40):
        for n_jobs in (1, 2, 3, 5, 8, 64, 10**9):
            for cpus in (1, 2, 3, 4, 7, 128):
                workers, chunks = _planned_chunks(monkeypatch, reps, n_jobs, cpus)
                assert workers == len(chunks) == min(n_jobs, reps, cpus)
                assert chunks[0][0] == 0 and chunks[-1][1] == reps
                assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
                sizes = [hi - lo for lo, hi in chunks]
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


@needs_fork
@pytest.mark.parametrize("n_jobs", [2, 3])
def test_forked_outcome_rows_equal_serial(monkeypatch, n_jobs):
    # the size experiment's outcome rows and the demo's estimates
    cfg = small_config(reps=7)
    cases = [(mc._replication_outcome, (cfg,), np.int8),
             (mc._interaction_estimate, (9, 7, 0.6, 3), np.float64)]
    serial = [np.array(mc._replicate(fn, args, 7, 1)) for fn, args, _ in cases]
    assert serial[0].shape == (7, len(cfg.methods)) and not np.isnan(serial[1]).any()
    allow_cpus(monkeypatch, 8)
    started = []
    real_get_context = multiprocessing.get_context

    def spy(method):
        assert method == "fork"
        context = real_get_context(method)

        def process(**kwargs):
            started.append(kwargs["args"][0])
            return context.Process(**kwargs)

        return types.SimpleNamespace(Pipe=context.Pipe, Process=process)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    for (fn, args, dtype), rows in zip(cases, serial):
        pooled = np.array(mc._replicate(fn, args, 7, n_jobs))
        assert pooled.dtype == dtype and pooled.shape[0] == 7
        assert pooled.tobytes() == rows.tobytes()
    # min(n_jobs, reps, cpus) chunks, the first run by this process
    assert started == [*range(1, n_jobs)] * 2
    assert multiprocessing.active_children() == []


def test_no_fork_start_method_runs_serially(monkeypatch):
    cfg = small_config(reps=7)
    serial = rejection_experiment(cfg, n_jobs=1)

    def no_pool(method):
        raise AssertionError(f"a {method} process was started")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert report_to_json(rejection_experiment(cfg, n_jobs=2)) == report_to_json(serial)


def test_one_cpu_affinity_runs_serially(monkeypatch):
    # the machine may have many CPUs; the process may run on one
    cfg = small_config(reps=7)
    serial = rejection_experiment(cfg, n_jobs=1)

    def no_pool(method):
        raise AssertionError(f"a {method} process was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    allow_cpus(monkeypatch, 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert report_to_json(rejection_experiment(cfg, n_jobs=2)) == report_to_json(serial)


def test_cpu_count_caps_workers_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert panel_mod._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert panel_mod._usable_cpus() == 1


@needs_fork
def test_worker_exception_propagates_and_pool_is_reaped(monkeypatch):
    real = mc.generate_dgp

    def failing(config, rep):
        if rep == 5:
            raise ValueError("synthetic failure in replication 5")
        return real(config, rep)

    # the workers are forked, so they call the patched module attribute
    monkeypatch.setattr(mc, "generate_dgp", failing)
    allow_cpus(monkeypatch, 8)
    with pytest.raises(ValueError, match="replication 5"):
        rejection_experiment(small_config(reps=7), n_jobs=2)
    assert multiprocessing.active_children() == []


@needs_fork
def test_replications_run_with_one_blas_thread(monkeypatch):
    controls = mc._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    before = [get() for get, _ in controls]
    real = mc.generate_dgp

    def checked(config, rep):
        counts = [get() for get, _ in mc._openblas_thread_controls()]
        if counts != [1] * len(controls):
            raise RuntimeError(f"BLAS thread counts {counts} in replication {rep}")
        return real(config, rep)

    monkeypatch.setattr(mc, "generate_dgp", checked)
    allow_cpus(monkeypatch, 8)
    for n_jobs in (1, 2):
        rejection_experiment(small_config(reps=4), n_jobs=n_jobs)
        assert [get() for get, _ in controls] == before
    # the non-Gaussian demo's fits run with one thread too
    real_fit = mc.fit_qr

    def checked_fit(panel, tau):
        counts = [get() for get, _ in mc._openblas_thread_controls()]
        if counts != [1] * len(controls):
            raise RuntimeError(f"BLAS thread counts {counts} in a demo fit")
        return real_fit(panel, tau)

    monkeypatch.setattr(mc, "fit_qr", checked_fit)
    nongaussian_demo(G=4, H=4, c=0.0, reps=500, seed=0)
    assert [get() for get, _ in controls] == before
    with pytest.raises(ValueError):
        with mc._one_blas_thread():
            raise ValueError("leaves the block")
    assert [get() for get, _ in controls] == before


def test_blas_controls_are_found_once_per_process(monkeypatch):
    controls = mc._openblas_thread_controls()
    # what a fresh search of the now-loaded libraries finds
    assert len(controls) == len(mc._openblas_thread_controls.__wrapped__())

    def no_search(*args, **kwargs):
        raise AssertionError("searched for OpenBLAS again")

    monkeypatch.setattr(mc, "open", no_search, raising=False)
    monkeypatch.setattr(mc.ctypes, "CDLL", no_search)
    with mc._one_blas_thread():
        assert mc._openblas_thread_controls() is controls

    # a search without /proc/self/maps, or whose libraries do not load, finds none
    def unloadable(*args, **kwargs):
        raise OSError("no such file")

    monkeypatch.setattr(mc.ctypes, "CDLL", unloadable)
    monkeypatch.delattr(mc, "open")
    assert mc._openblas_thread_controls.__wrapped__() == ()
    monkeypatch.setattr(mc, "open", unloadable, raising=False)
    assert mc._openblas_thread_controls.__wrapped__() == ()


@pytest.mark.parametrize("n_jobs", [0, -3, True, 2.5, "2"])
def test_rejection_experiment_rejects_bad_n_jobs(n_jobs):
    with pytest.raises(InvalidConfig, match="n_jobs"):
        rejection_experiment(small_config(reps=2), n_jobs=n_jobs)


def test_rejection_report_contents():
    cfg = small_config(reps=25, methods=("ctw", "ci"))
    report = rejection_experiment(cfg)
    assert set(report.frequencies) == {"ctw", "ci"}
    for key in ("ctw", "ci"):
        p = report.frequencies[key]
        assert 0.0 <= p <= 1.0
        assert report.reps_used[key] == 25
        assert report.failures[key] == 0
        expect_se = np.sqrt(p * (1 - p) / 25)
        assert_allclose(report.mc_se[key], expect_se, rtol=1e-12)


def test_degenerate_noise_pins_estimates_to_truth():
    # the error scale cancels from the t statistic, so smashing it to 1e-6
    # reproduces the unit-noise t draws; estimates collapse onto beta0
    weights_eps = DgpWeights(1.0, 1.0, 1.0, 0.0, 0.0, 1e-6)
    weights_one = DgpWeights(1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    cfg_eps = MonteCarloConfig(G=30, H=30, d=3, tau=0.5, weights=weights_eps,
                               reps=150, seed=77, methods=("ctw",))
    cfg_one = MonteCarloConfig(G=30, H=30, d=3, tau=0.5, weights=weights_one,
                               reps=150, seed=77, methods=("ctw",))
    for rep in range(8):
        fit = fit_qr(generate_dgp(cfg_eps, rep), 0.5)
        assert np.abs(fit.beta_hat - 1.0).max() <= 1e-4
    rep_eps = rejection_experiment(cfg_eps)
    rep_one = rejection_experiment(cfg_one)
    assert rep_eps.frequencies["ctw"] <= 0.10
    assert abs(rep_eps.frequencies["ctw"] - rep_one.frequencies["ctw"]) <= 0.04


def test_transposition_symmetry():
    base = MonteCarloConfig(
        G=24, H=12, d=2, tau=0.5, reps=400, seed=55, methods=("ctw", "ci"),
        weights=DgpWeights(wUx=1.0, wVx=0.4, wWx=1.0, wUe=1.0, wVe=0.4, wWe=1.0))
    flipped = MonteCarloConfig(
        G=12, H=24, d=2, tau=0.5, reps=400, seed=56, methods=("ctw", "ci"),
        weights=DgpWeights(wUx=0.4, wVx=1.0, wWx=1.0, wUe=0.4, wVe=1.0, wWe=1.0))
    rep_a = rejection_experiment(base)
    rep_b = rejection_experiment(flipped)
    for key in ("ctw", "ci"):
        pa, pb = rep_a.frequencies[key], rep_b.frequencies[key]
        se = np.sqrt(pa * (1 - pa) / 400 + pb * (1 - pb) / 400)
        assert abs(pa - pb) <= 3.0 * max(se, 1e-3)


def test_failed_replications_are_excluded_and_reported(monkeypatch):
    real_fit = mc.fit_qr
    calls = {"n": 0}

    def flaky(panel, tau, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RankDeficient("synthetic failure")
        return real_fit(panel, tau, **kw)

    monkeypatch.setattr(mc, "fit_qr", flaky)
    cfg = small_config(reps=200, methods=("ctw",))
    report = mc.rejection_experiment(cfg)
    assert report.failures["ctw"] == 1
    assert report.reps_used["ctw"] == 199


def test_excessive_failures_abort(monkeypatch):
    def broken(panel, tau, **kw):
        raise RankDeficient("synthetic failure")

    monkeypatch.setattr(mc, "fit_qr", broken)
    with pytest.raises(ExcessiveFailureRate):
        mc.rejection_experiment(small_config(reps=50))


def test_report_serialization():
    cfg = small_config(reps=10, methods=("ctw", "cg"))
    report = rejection_experiment(cfg)
    doc = report_to_json(report)
    assert set(doc) == {"config", "frequencies", "mc_se", "reps_used", "failures"}
    assert doc["config"] == config_to_json(cfg)
    rows = report_rows(report)
    assert len(rows) == 2
    for row in rows:
        assert tuple(row) == REPORT_COLUMNS
    assert {row["method"] for row in rows} == {"ctw", "cg"}


# --- variance oracles ---

def test_oracle_rejects_small_outer_sample_and_positional_sizes():
    cfg = small_config()
    with pytest.raises(InvalidConfig):
        oracle_variance_components(cfg, 0.5, mc_outer=1)
    # the sample sizes are keyword-only: a stale positional inner sample
    # size must not become mc_outer
    with pytest.raises(TypeError):
        oracle_variance_components(cfg, 0.5, 10_000)


def nested_psi_mean(w, tau, q, slope_base, err_base, gen, m, k,
                    draw_row, draw_col, draw_cell):
    """Reference inner integral: mean score over m fresh draws of the
    unconditioned latents, with the Monte Carlo standard error of each
    entry."""
    slopes = np.broadcast_to(slope_base, (m, k)).copy()
    err = np.full(m, err_base)
    if draw_row:
        slopes += w.wUx * gen.standard_normal((m, k))
        err += w.wUe * gen.standard_normal(m)
    if draw_col:
        slopes += w.wVx * gen.standard_normal((m, k))
        err += w.wVe * gen.standard_normal(m)
    if draw_cell:
        slopes += w.wWx * gen.standard_normal((m, k))
        err += w.wWe * gen.standard_normal(m)
    weight = tau - (err <= q)
    psi = np.column_stack((weight, slopes * weight[:, None]))
    return psi.mean(axis=0), psi.std(axis=0, ddof=1) / np.sqrt(m)


@pytest.mark.parametrize("weights, tau", [
    (TWO_WAY, 0.5),
    (DgpWeights(0.5, 1.2, 0.8, 1.5, 0.4, 0.9), 0.3),
    (DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 0.0), 0.5),
], ids=["acceptance_design", "unequal_weights", "no_cell_error"])
def test_oracle_closed_form_matches_nested_simulation(weights, tau):
    cfg = MonteCarloConfig(G=50, H=50, d=10, tau=tau, weights=weights,
                           reps=1, seed=12)
    w, k = cfg.weights, cfg.d - 1
    q = w.sigma_e * scipy_norm.ppf(tau)
    rng = np.random.default_rng(2026)
    for _ in range(3):  # outer draws of the row and column latents
        ux, vx = rng.standard_normal(k), rng.standard_normal(k)
        ue, ve = rng.standard_normal(), rng.standard_normal()
        projections = (  # base slope, base error, sd integrated out, flags
            (w.wUx * ux, w.wUe * ue, math.hypot(w.wVe, w.wWe), (False, True, True)),
            (w.wVx * vx, w.wVe * ve, math.hypot(w.wUe, w.wWe), (True, False, True)),
            (w.wUx * ux + w.wVx * vx, w.wUe * ue + w.wVe * ve, w.wWe,
             (False, False, True)),
        )
        for slope_base, err_base, s_rest, flags in projections:
            exact = mc._psi_mean(tau, q, slope_base[None, :],
                                 np.array([err_base]), s_rest)[0]
            ref, se = nested_psi_mean(w, tau, q, slope_base, err_base, rng,
                                      100_000, k, *flags)
            assert (np.abs(exact - ref) <= 4.0 * se + 1e-12).all()
    orc = oracle_variance_components(cfg, tau, mc_outer=200, seed=12)
    for comp in (orc.sigma_I2, orc.sigma_II2, orc.sigma_III2, orc.sigma_IV2,
                 orc.omega_GH):
        assert np.isfinite(comp).all()
    assert np.isfinite(orc.r_GH)


def test_oracle_pure_iid_components():
    cfg = MonteCarloConfig(G=20, H=20, d=2, tau=0.5, weights=PURE_IID,
                           reps=1, seed=5)
    orc = oracle_variance_components(cfg, 0.5, mc_outer=800, seed=5)
    # no shared latents: every projection on U or V is flat
    assert np.abs(orc.sigma_I2).max() < 1e-3
    assert np.abs(orc.sigma_II2).max() < 1e-3
    assert np.abs(orc.sigma_III2).max() < 1e-3
    # slope score is x (tau - 1{e<=0}) with x independent of e:
    # variance tau (1-tau) E[x^2] = 0.25
    slope = orc.sigma_IV2[1, 1]
    band = 3.0 * np.sqrt(2.0 / 800) * slope
    assert abs(slope - 0.25) <= band
    assert orc.r_GH == 400.0


def test_oracle_symmetric_design():
    cfg = MonteCarloConfig(
        G=20, H=20, d=2, tau=0.5, reps=1, seed=6,
        weights=DgpWeights(0.7, 0.7, 1.0, 0.7, 0.7, 1.0))
    orc = oracle_variance_components(cfg, 0.5, mc_outer=600, seed=6)
    k = 600
    band = 3.0 * np.sqrt(cov_entry_se(orc.sigma_I2, k) ** 2
                         + cov_entry_se(orc.sigma_II2, k) ** 2)
    assert (np.abs(orc.sigma_I2 - orc.sigma_II2) <= band).all()


def test_oracle_orthogonality_sums_to_direct_variance():
    cfg = MonteCarloConfig(G=20, H=20, d=2, tau=0.5, weights=TWO_WAY,
                           reps=1, seed=7)
    orc = oracle_variance_components(cfg, 0.5, mc_outer=600, seed=7)
    total = orc.sigma_I2 + orc.sigma_II2 + orc.sigma_III2 + orc.sigma_IV2
    direct = direct_score_variance(cfg, 0.5, n_draws=200_000, seed=7)
    k = 600
    band = 3.0 * np.sqrt(
        cov_entry_se(orc.sigma_I2, k) ** 2 + cov_entry_se(orc.sigma_II2, k) ** 2
        + cov_entry_se(orc.sigma_III2, k) ** 2
        + cov_entry_se(orc.sigma_IV2, k) ** 2
        + cov_entry_se(direct, 200_000) ** 2)
    assert (np.abs(total - direct) <= band).all()


def test_oracle_psd_components_and_omega_identity():
    cfg = MonteCarloConfig(G=15, H=10, d=2, tau=0.3, weights=TWO_WAY,
                           reps=1, seed=8)
    orc = oracle_variance_components(cfg, 0.3, mc_outer=300, seed=8)
    for comp in (orc.sigma_I2, orc.sigma_II2, orc.sigma_III2, orc.sigma_IV2):
        vals = np.linalg.eigvalsh(comp)
        assert vals.min() >= -1e-10 * max(1.0, vals.max())
    expect = (10 * orc.sigma_I2 + 15 * orc.sigma_II2
              + orc.sigma_III2 + orc.sigma_IV2) / 150.0
    assert_allclose(orc.omega_GH, expect, rtol=1e-12)
    expect_r = min(15.0 / orc.sigma_I2[0, 0], 10.0 / orc.sigma_II2[0, 0], 150.0)
    assert_allclose(orc.r_GH, expect_r, rtol=1e-12)


def test_oracle_is_deterministic_given_seed():
    cfg = small_config()
    a = oracle_variance_components(cfg, 0.5, mc_outer=50, seed=4)
    b = oracle_variance_components(cfg, 0.5, mc_outer=50, seed=4)
    assert_array_equal(a.sigma_IV2, b.sigma_IV2)
    assert_array_equal(a.omega_GH, b.omega_GH)


def test_true_bread_matches_closed_form():
    # independent route: at X perpendicular to e the density factorizes, so
    # D = f_e(q_tau) E[x x'] = pdf(ppf(tau))/sigma_e diag(1, sum of w^2)
    for tau in (0.3, 0.5, 0.8):
        cfg = small_config(weights=TWO_WAY)
        bread = true_bread(cfg, tau)
        sigma_e = np.sqrt(3.0)
        dens = scipy_norm.pdf(scipy_norm.ppf(tau)) / sigma_e
        expect = dens * np.diag([1.0, 3.0])
        assert_allclose(bread, expect, rtol=1e-8)


def test_infeasible_oracle_test_has_nominal_size():
    # replaces the estimated variance with the oracle one; size must be close
    # to the nominal 5% level
    cfg = MonteCarloConfig(G=50, H=50, d=3, tau=0.5, weights=TWO_WAY,
                           reps=2000, seed=33)
    orc = oracle_variance_components(cfg, 0.5, mc_outer=1500, seed=33)
    d_inv = np.linalg.inv(true_bread(cfg, 0.5))
    sigma = d_inv @ orc.omega_GH @ d_inv
    se_inf = np.sqrt(sigma[2, 2])
    crit = scipy_norm.isf(0.025)
    rejections = 0
    for rep in range(cfg.reps):
        fit = fit_qr(generate_dgp(cfg, rep), 0.5)
        rejections += abs(fit.beta_hat[2] - 1.0) / se_inf > crit
    rate = rejections / cfg.reps
    assert 0.035 <= rate <= 0.065


# --- non-Gaussian demo ---

def test_demo_validation():
    with pytest.raises(InvalidConfig):
        nongaussian_demo(G=40, H=40, c=-1.0, reps=600, seed=0)
    with pytest.raises(InvalidConfig):
        nongaussian_demo(G=40, H=40, c=0.0, reps=100, seed=0)
    with pytest.raises(InvalidConfig):
        # sign probability 1/2 + c/(2 sqrt(H)) must stay <= 1
        nongaussian_demo(G=40, H=4, c=6.0, reps=600, seed=0)
    for c in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfig):
            nongaussian_demo(G=40, H=40, c=c, reps=600, seed=0)
    with pytest.raises(InvalidConfig):
        nongaussian_demo(G=40, H=40, c=0.0, reps=600, seed=-1)
    for G, H in ((1, 40), (40, 1)):
        with pytest.raises(InvalidConfig, match=r"^G and H must be >= 2"):
            nongaussian_demo(G=G, H=H, c=0.0, reps=600, seed=0)
    # the design-number rule of MonteCarloConfig: bools and strings are not
    # numbers, and an integer takes 10.0 but not 10.5
    args = dict(G=10, H=10, c=0.0, reps=500, seed=4)
    for name, value, message in (
        ("G", 10.5, "G must be an integer, got 10.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("G", True, "G must be a number, got True"),
        ("H", "10", "H must be a number, got '10'"),
        ("reps", True, "reps must be a number, got True"),
        ("c", "1", "c must be a number, got '1'"),
        ("c", False, "c must be a number, got False"),
    ):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            nongaussian_demo(**{**args, name: value})
    demo = nongaussian_demo(**args)
    as_floats = nongaussian_demo(**{**args, "G": 10.0, "reps": 500.0, "seed": 4.0, "c": 0})
    assert demo.empirical.tobytes() == as_floats.empirical.tobytes()
    assert demo.reference.tobytes() == as_floats.reference.tobytes()
    assert demo.summary == as_floats.summary


def test_demo_failed_replications(monkeypatch):
    # replications whose fit raises a NumericError or does not converge are
    # counted as failures and left out of the sample
    args = dict(G=10, H=10, c=0.0, reps=500, seed=4)
    clean = nongaussian_demo(**args)
    assert clean.summary.failures == 0
    real = mc.fit_qr

    def failing_on(rank_deficient, unconverged):
        calls = iter(range(args["reps"]))

        def fit_qr(panel, tau):
            rep = next(calls)
            if rep in rank_deficient:
                raise RankDeficient("synthetic")
            fit = real(panel, tau)
            if rep in unconverged:
                solver = dataclasses.replace(fit.solver, converged=False)
                fit = dataclasses.replace(fit, solver=solver)
            return fit
        return fit_qr

    # 5 failures are 1% of 500, the most the demo tolerates
    monkeypatch.setattr(mc, "fit_qr", failing_on({3, 250}, {0, 7, 499}))
    demo = nongaussian_demo(**args)
    assert demo.summary.failures == 5
    expect = np.delete(clean.empirical, [0, 3, 7, 250, 499])
    assert demo.empirical.tobytes() == expect.tobytes()
    monkeypatch.setattr(mc, "fit_qr", failing_on({3, 250, 251}, {0, 7, 499}))
    with pytest.raises(ExcessiveFailureRate, match="^6 of 500 replications failed$"):
        nongaussian_demo(**args)


def test_demo_shape_statistics():
    demo = nongaussian_demo(G=40, H=40, c=0.0, reps=600, seed=21)
    e = demo.empirical
    assert e.shape == (600,)
    assert demo.summary.failures == 0
    # product-form limit is heavy tailed and symmetric
    assert demo.summary.kurtosis_empirical > 4.5
    assert abs(e.mean()) / e.std() < 0.1
    assert 0.0 < demo.summary.ks_vs_fitted_normal < 1.0
    assert demo.summary.kappa > 0.0
    assert demo.reference.shape == (600,)


def test_demo_deterministic():
    a = nongaussian_demo(G=20, H=20, c=0.5, reps=500, seed=3)
    b = nongaussian_demo(G=20, H=20, c=0.5, reps=500, seed=3)
    assert_array_equal(a.empirical, b.empirical)
    assert_array_equal(a.reference, b.reference)
    c = nongaussian_demo(G=20, H=20, c=0.5, reps=500, seed=4)
    assert not np.array_equal(a.empirical, c.empirical)


def _same_float(a, b):
    a, b = float(a), float(b)
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _summary_samples():
    rng = np.random.default_rng(20261018)
    for i in range(1200):
        n = 500 if i % 10 == 0 else int(rng.integers(500, 3001))
        kind = i % 5
        if kind == 0:
            yield rng.standard_normal(n)
        elif kind == 1:  # the demo's product-normal limit
            yield rng.standard_normal(n) * (rng.standard_normal(n) + rng.uniform(0.0, 2.0))
        elif kind == 2:  # heavy tails
            yield rng.standard_cauchy(n) * 10.0 ** rng.uniform(-3, 3)
        elif kind == 3:  # tied values
            yield np.round(rng.standard_normal(n), 1)
        else:
            yield rng.integers(-3, 4, n).astype(float)
    yield rng.standard_normal(200_000) * rng.standard_normal(200_000)
    for value in (0.0, 0.1, -7.25):  # constant: scipy's kurtosis is NaN
        yield np.full(500, value)


def test_summary_statistics_match_scipy_stats_bit_for_bit():
    from scipy.stats import iqr, kstest, kurtosis

    count = 0
    for x in _summary_samples():
        loc, scale = x.mean(), x.std(ddof=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy on constant samples
            want = (iqr(x), kurtosis(x, fisher=False),
                    kstest(x, "norm", args=(loc, scale)).statistic)
        got = (mc._iqr(x), mc._pearson_kurtosis(x), mc._ks_normal(x, loc, scale))
        assert all(map(_same_float, got, want)), (len(x), got, want)
        count += 1
    assert count >= 1000
    assert math.isnan(mc._pearson_kurtosis(np.zeros(500)))


def test_demo_summary_matches_scipy_stats():
    from scipy.stats import iqr, kstest, kurtosis

    c, seed = 0.5, 7
    demo = nongaussian_demo(G=12, H=12, c=c, reps=500, seed=seed)
    gen_ref = reference_stream(seed, 0, mc._ORACLE_BASE, 0)
    raw = (gen_ref.standard_normal(mc._REF_CALIBRATION_SIZE)
           * (gen_ref.standard_normal(mc._REF_CALIBRATION_SIZE) + c))
    e = demo.empirical
    assert demo.summary.kappa == float(iqr(e) / iqr(raw))
    assert demo.summary.kurtosis_empirical == float(kurtosis(e, fisher=False))
    assert demo.summary.ks_vs_fitted_normal == float(
        kstest(e, "norm", args=(e.mean(), e.std(ddof=1))).statistic)
    assert demo.reference.tobytes() == (demo.summary.kappa * raw[:500]).tobytes()
