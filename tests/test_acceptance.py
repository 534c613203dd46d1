"""End-to-end acceptance suite.

Nine numbered checks cover size control across dependence designs, bread
and meat consistency against independent oracles, exact assembly algebra,
solver optimality against an off-the-shelf LP, the non-Gaussian
interaction regime, and byte-level determinism of the CLI across worker
counts. Each check emits one PASS/FAIL line on the live output stream
(see the emit_verdict fixture); the assertions carry the same content.

The heavy inputs (three 2000-replication experiments, a 2000-replication
estimate/meat sweep, and the seed-2026 non-Gaussian demo) are computed once
in module-scoped fixtures and shared, as is the variance oracle, whose
conditional means are exact and whose 2000 outer draws take well under a
second.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kurtosis, ks_2samp, norm

from helpers import grid_panel, lp_objective

from twqr import cli
from twqr.crve import CrveKind, evc, omega_ctw, omega_variant
from twqr.jacobian import powell_jacobian, rule_of_thumb_bandwidth
from twqr.montecarlo import (
    DgpWeights,
    MonteCarloConfig,
    _replicate,
    generate_dgp,
    nongaussian_demo,
    oracle_variance_components,
    rejection_experiment,
    true_bread,
)
from twqr.solver import ScoreMatrix, fit_qr, score_matrix

ALL_METHODS = ("ctw", "cg", "ch", "ci", "ctw2")
LEVEL = 0.05


def _design(weights: DgpWeights, seed: int) -> MonteCarloConfig:
    return MonteCarloConfig(G=50, H=50, d=10, tau=0.5, weights=weights,
                            reps=2000, seed=seed, methods=ALL_METHODS)


@pytest.fixture(scope="module")
def two_way_config():
    return _design(DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), seed=101)


@pytest.fixture(scope="module")
def two_way_report(two_way_config):
    return rejection_experiment(two_way_config, n_jobs=2)


@pytest.fixture(scope="module")
def independence_report():
    cfg = _design(DgpWeights(0.0, 0.0, 1.0, 0.0, 0.0, 1.0), seed=102)
    return rejection_experiment(cfg, n_jobs=2)


@pytest.fixture(scope="module")
def one_way_report():
    cfg = _design(DgpWeights(0.0, 1.0, 1.0, 0.0, 1.0, 1.0), seed=103)
    return rejection_experiment(cfg, n_jobs=2)


@pytest.fixture(scope="module")
def two_way_oracle(two_way_config):
    return oracle_variance_components(two_way_config, 0.5, mc_outer=2000,
                                      seed=105)


@pytest.fixture(scope="module")
def big_demo():
    return nongaussian_demo(G=100, H=100, c=0.0, reps=2000, seed=2026)


_N_MEAT = 500


def _slope_and_meat(cfg: MonteCarloConfig, rep: int):
    """Last-slope estimate of one replication, and its two-way meat if it
    is one of the first _N_MEAT."""
    panel = generate_dgp(cfg, rep)
    fit = fit_qr(panel, cfg.tau)
    beta = fit.beta_hat[cfg.d - 1]
    if rep >= _N_MEAT:
        return beta, None
    return beta, omega_ctw(score_matrix(panel, fit.beta_hat, cfg.tau)).omega_total


@pytest.fixture(scope="module")
def two_way_draws(two_way_config):
    """Last-slope estimates for all 2000 replications and the mean
    two-way meat over the first 500, summed in replication order."""
    cfg = two_way_config
    draws = _replicate(_slope_and_meat, (cfg,), cfg.reps, n_jobs=2)
    omega_sum = np.zeros((cfg.d, cfg.d))
    for _, meat in draws[:_N_MEAT]:
        omega_sum += meat
    return np.array([beta for beta, _ in draws]), omega_sum / _N_MEAT


def test_acceptance_1_two_way_size(two_way_report, emit_verdict):
    f = two_way_report.frequencies
    ok = (0.10 <= f["cg"] <= 0.22 and 0.10 <= f["ch"] <= 0.22
          and f["ci"] >= max(f["cg"], f["ch"])
          and 0.03 <= f["ctw"] <= 0.11 and f["ctw2"] <= f["ctw"])
    emit_verdict(1, ok, "two-way design, 5% level: "
             + " ".join(f"{k}={f[k]:.4f}" for k in ALL_METHODS))


def test_acceptance_2_independence_size(independence_report, emit_verdict):
    f = independence_report.frequencies
    in_band = {k: 0.03 <= f[k] <= 0.09 for k in ("ci", "cg", "ch", "ctw")}
    ok = all(in_band.values()) and f["ctw2"] < f["ctw"]
    detail = ("independence design, 5% level: "
              + " ".join(f"{k}={f[k]:.4f}" for k in ALL_METHODS))
    misses = [k for k, v in in_band.items() if not v]
    if misses:
        detail += f" (outside [0.03, 0.09]: {', '.join(misses)})"
    emit_verdict(2, ok, detail)


def test_acceptance_3_one_way_size(one_way_report, emit_verdict):
    f = one_way_report.frequencies
    ok = (0.03 <= f["ch"] <= 0.10 and 0.03 <= f["ctw"] <= 0.10
          and f["cg"] >= 0.10)
    emit_verdict(3, ok, "column-dependence design, 5% level: "
             + " ".join(f"{k}={f[k]:.4f}" for k in ("cg", "ch", "ctw")))


def test_acceptance_4_bread_consistency(emit_verdict):
    # iid Gaussian location design: the Jacobian of the median score is
    # the density at the median, 1/sqrt(2*pi)
    rng = np.random.default_rng(104)
    G = H = 200
    x = np.ones((G * H, 1))
    vals = []
    for _ in range(200):
        y = 1.0 + rng.standard_normal(G * H)
        panel = grid_panel(G, H, x, y)
        fit = fit_qr(panel, 0.5)
        bw = rule_of_thumb_bandwidth(panel, fit.residuals, 0.5)
        vals.append(powell_jacobian(panel, fit.residuals, bw.ell).d_hat[0, 0])
    target = 1.0 / np.sqrt(2.0 * np.pi)
    rel = abs(np.mean(vals) / target - 1.0)
    emit_verdict(4, rel <= 0.05,
             f"mean Jacobian {np.mean(vals):.6f} vs density {target:.6f} "
             f"at the median, rel dev {rel:.4f} (tol 0.05)")


def test_acceptance_5_meat_vs_oracle(two_way_draws, two_way_oracle, emit_verdict):
    _, omega_mean = two_way_draws
    target = two_way_oracle.omega_GH
    rel = (np.linalg.norm(omega_mean - target, "fro")
           / np.linalg.norm(target, "fro"))
    emit_verdict(5, rel <= 0.15,
             f"mean two-way meat over 500 reps vs closed-form oracle, "
             f"rel Frobenius dev {rel:.4f} (tol 0.15)")


def test_acceptance_6_assembly_identities(emit_verdict):
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        G = int(rng.integers(2, 21))
        H = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        psi = rng.standard_normal((G * H, d)) + rng.standard_normal((1, d))
        scores = ScoreMatrix(scores=psi, g_idx=np.repeat(np.arange(G), H),
                             h_idx=np.tile(np.arange(H), G), G=G, H=H)
        cg = omega_variant(scores, CrveKind.CG)
        ch = omega_variant(scores, CrveKind.CH)
        tw2 = omega_variant(scores, CrveKind.CTW_II)
        scale = max(np.linalg.norm(cg.omega_total), 1e-300)
        dev1 = np.linalg.norm(cg.omega_total
                              - (cg.omega_I_raw + cg.omega_diag)) / scale
        dev2 = np.linalg.norm(tw2.omega_total
                              - (cg.omega_total + ch.omega_total)) / scale
        m = cg.omega_I_raw
        dev3 = (np.linalg.norm(evc(evc(m)) - evc(m))
                / max(np.linalg.norm(m), 1e-300))
        worst = max(worst, dev1, dev2, dev3)
    emit_verdict(6, worst <= 1e-12,
             f"row-sum, double-count, and idempotence identities on 200 "
             f"random score arrays, max rel dev {worst:.2e} (tol 1e-12)")


def test_acceptance_7_solver_optimality(emit_verdict):
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        G = int(rng.integers(2, 31))
        H = int(rng.integers(2, 31))
        d = int(rng.integers(1, 7))
        tau = float(rng.choice([0.2, 0.5, 0.8]))
        x = np.hstack([np.ones((G * H, 1)), rng.standard_normal((G * H, d - 1))])
        y = x.sum(axis=1) + rng.standard_normal(G * H)
        panel = grid_panel(G, H, x, y)
        fit = fit_qr(panel, tau)
        ref = lp_objective(panel, tau)
        worst = max(worst, (fit.objective - ref) / (1.0 + abs(ref)))
    emit_verdict(7, worst <= 1e-6,
             f"objective vs LP oracle on 100 random panels, "
             f"max rel excess {worst:.2e} (tol 1e-6)")


def test_acceptance_8_nongaussian_regime(big_demo, emit_verdict):
    small = nongaussian_demo(G=50, H=50, c=0.0, reps=2000, seed=2027)
    kurt = big_demo.summary.kurtosis_empirical
    ks_fit = big_demo.summary.ks_vs_fitted_normal
    ks_cross = ks_2samp(big_demo.empirical, small.empirical).statistic
    ok = kurt > 5.0 and ks_fit > 0.03 and ks_cross <= 0.08
    emit_verdict(8, ok,
             f"interaction-dominant limit: kurtosis {kurt:.2f} (> 5), "
             f"KS vs fitted normal {ks_fit:.4f} (> 0.03), "
             f"cross-size KS {ks_cross:.4f} (<= 0.08)")


def test_acceptance_9_thread_determinism(tmp_path, emit_verdict):
    cfg = {
        "G": 15, "H": 15, "d": 2, "tau": 0.5,
        "weights": {"wUx": 1.0, "wVx": 1.0, "wWx": 1.0,
                    "wUe": 1.0, "wVe": 1.0, "wWe": 1.0},
        "reps": 100, "seed": 9, "methods": list(ALL_METHODS),
    }
    cfg_path = tmp_path / "design.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for threads in (1, 4, 8):
        out_dir = tmp_path / f"t{threads}"
        out_dir.mkdir()
        rc = cli.main(["simulate", str(cfg_path), "--out", str(out_dir),
                       "--threads", str(threads)])
        assert rc == 0
        outputs.append((out_dir / "report.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    emit_verdict(9, ok, f"simulate report.csv byte-identical under 1, 4, and 8 "
             f"threads ({len(outputs[0])} bytes)")


def test_infeasible_oracle_nominal_size(two_way_config, two_way_draws,
                                        two_way_oracle):
    # with the true bread and the oracle score variance, the t-test on the
    # last slope should reject a true null at about the nominal 5% level;
    # this isolates the Monte Carlo pipeline from the estimated sandwich
    beta_d, _ = two_way_draws
    d_inv = np.linalg.inv(true_bread(two_way_config, 0.5))
    sigma = d_inv @ two_way_oracle.omega_GH @ d_inv
    se = np.sqrt(sigma[-1, -1])
    rate = np.mean(np.abs(beta_d - 1.0) / se > norm.isf(LEVEL / 2.0))
    assert 0.035 <= rate <= 0.065, rate


def test_nongaussian_moments_match_product_normal(big_demo):
    # at c=0 the limit is a centered product of two standard normals times
    # a scale; its kurtosis is 9 (Pearson), so excess kurtosis is 6
    excess = kurtosis(big_demo.reference, fisher=True, bias=True)
    assert abs(excess - 6.0) < 2.5
    assert big_demo.summary.failures == 0
