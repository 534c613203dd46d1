"""Tests for the bias constant, bandwidth rule, and kernel Jacobian."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm as scipy_norm

from helpers import grid_panel, random_panel

from twqr.errors import (
    DegenerateDesign,
    DegenerateScale,
    InvalidTau,
    NonpositiveBandwidth,
    ZeroBias,
)
from twqr.jacobian import (
    MAD_NORMALIZER,
    alpha,
    amse_optimal_bandwidth,
    powell_jacobian,
    rule_of_thumb_bandwidth,
    vech,
)
from twqr.panel import PanelArray
from twqr.solver import fit_qr

# frozen by a 40-digit normal-distribution evaluation:
# alpha(t) = (1 - ppf(t))^2 pdf(ppf(t))
ALPHA_09 = 0.013911978122784341
ALPHA_01 = 0.913552626276962
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def test_alpha_examples():
    # at the median ppf = 0, so alpha(0.5) = pdf(0) exactly
    assert_allclose(alpha(0.5), INV_SQRT_2PI, rtol=1e-14)
    assert_allclose(alpha(0.9), ALPHA_09, rtol=1e-12)
    assert_allclose(alpha(0.1), ALPHA_01, rtol=1e-12)


def test_alpha_rejects_boundary_tau():
    for tau in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(InvalidTau):
            alpha(tau)


def test_vech_is_column_major_lower_triangle():
    m2 = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert_array_equal(vech(m2), [1.0, 2.0, 5.0])
    m3 = np.arange(9.0).reshape(3, 3)
    m3 = 0.5 * (m3 + m3.T)
    expect = [m3[0, 0], m3[1, 0], m3[2, 0], m3[1, 1], m3[2, 1], m3[2, 2]]
    assert_array_equal(vech(m3), expect)


def test_mad_scale_example():
    panel = grid_panel(1, 3, np.ones((3, 1)), np.zeros(3))
    diag = rule_of_thumb_bandwidth(panel, np.array([-1.0, 0.0, 1.0]), 0.5)
    assert_allclose(diag.sigma_hat, 1.0 / MAD_NORMALIZER, rtol=1e-14)


def test_mad_uses_lower_median_for_even_counts():
    panel = grid_panel(2, 2, np.ones((4, 1)), np.zeros(4))
    # residual deviations from the lower median 1.0 are {0, 1, 2, 9};
    # their lower median is 1.0
    diag = rule_of_thumb_bandwidth(panel, np.array([1.0, 2.0, 3.0, 10.0]), 0.5)
    assert_allclose(diag.sigma_hat, 1.0 / MAD_NORMALIZER, rtol=1e-14)


def test_identical_design_rows_cancel_q_ratio():
    # constant x makes mean||Q||^2 = ||mean Q||^2, so the ratio drops out;
    # residuals are scaled for sigma_hat = 1 exactly
    panel = grid_panel(1, 3, np.ones((3, 1)), np.zeros(3))
    resid = np.array([-MAD_NORMALIZER, 0.0, MAD_NORMALIZER])
    diag = rule_of_thumb_bandwidth(panel, resid, 0.5)
    assert_allclose(diag.sigma_hat, 1.0, rtol=1e-14)
    assert_allclose(diag.q_norm_mean, diag.q_mean_norm, rtol=1e-14)
    expect = 3.0 ** (-0.2) * (4.5 / alpha(0.5)) ** 0.2
    assert_allclose(diag.ell, expect, rtol=1e-12)


@pytest.mark.parametrize("d, drop", [(1, 0.0), (4, 0.0), (10, 0.0), (4, 0.2)],
                         ids=["d1", "d4", "d10", "d4_missing_cells"])
def test_rule_of_thumb_matches_independent_formula(d, drop):
    # fresh arithmetic: explicit loops, no shared helpers
    rng = np.random.default_rng(29)
    panel = random_panel(rng, 12, 11, d)
    if drop:
        keep = rng.random(panel.n) >= drop
        panel = PanelArray(G=panel.G, H=panel.H, g_idx=panel.g_idx[keep],
                           h_idx=panel.h_idx[keep], y=panel.y[keep], x=panel.x[keep])
    fit = fit_qr(panel, 0.7)
    diag = rule_of_thumb_bandwidth(panel, fit.residuals, 0.7)

    r = np.sort(fit.residuals.copy())
    n = r.shape[0]
    med = r[(n - 1) // 2]
    dev = np.sort(np.abs(fit.residuals - med))
    sigma = dev[(n - 1) // 2] / 0.6745
    q_rows = []
    for i in range(n):
        outer = np.outer(panel.x[i], panel.x[i])
        q_rows.append([outer[a, b] for b in range(d) for a in range(b, d)])
    q_rows = np.array(q_rows)
    num = np.mean([row @ row for row in q_rows])
    mean_q = q_rows.mean(axis=0)
    den = mean_q @ mean_q
    z = scipy_norm.ppf(0.7)
    a_tau = (1.0 - z) ** 2 * scipy_norm.pdf(z)
    expect = sigma * n ** (-0.2) * (4.5 * num / (a_tau * den)) ** 0.2
    assert_allclose(diag.ell, expect, rtol=1e-12)
    assert_allclose(diag.sigma_hat, sigma, rtol=1e-12)
    assert_allclose(diag.q_norm_mean, num, rtol=1e-12)
    assert_allclose(diag.q_mean_norm, den, rtol=1e-12)


def test_rule_of_thumb_scale_equivariance():
    rng = np.random.default_rng(37)
    panel = random_panel(rng, 8, 8, 3)
    resid = rng.standard_normal(panel.n)
    c = 7.25
    base = rule_of_thumb_bandwidth(panel, resid, 0.5)
    scaled = rule_of_thumb_bandwidth(panel, c * resid, 0.5)
    assert_allclose(scaled.sigma_hat, c * base.sigma_hat, rtol=1e-12)
    assert_allclose(scaled.ell, c * base.ell, rtol=1e-12)


def test_rule_of_thumb_degenerate_inputs():
    panel = grid_panel(2, 2, np.ones((4, 1)), np.zeros(4))
    with pytest.raises(DegenerateScale):
        rule_of_thumb_bandwidth(panel, np.full(4, 3.0), 0.5)
    zero_x = grid_panel(2, 2, np.zeros((4, 1)), np.zeros(4))
    with pytest.raises(DegenerateDesign):
        rule_of_thumb_bandwidth(zero_x, np.array([-1.0, 0.0, 1.0, 2.0]), 0.5)
    with pytest.raises(InvalidTau):
        rule_of_thumb_bandwidth(panel, np.array([-1.0, 0.0, 1.0, 2.0]), 1.0)


def test_powell_single_cell_example():
    panel = grid_panel(1, 1, np.ones((1, 1)), np.zeros(1))
    jac = powell_jacobian(panel, np.zeros(1), 1.0)
    assert_allclose(jac.d_hat, [[0.5]], rtol=1e-15)
    assert jac.kernel_hits == 1


def test_powell_two_cells_one_hit():
    panel = grid_panel(1, 2, np.ones((2, 1)), np.zeros(2))
    jac = powell_jacobian(panel, np.array([0.5, 2.0]), 1.0)
    assert_allclose(jac.d_hat, [[0.25]], rtol=1e-15)
    assert jac.kernel_hits == 1


def test_powell_boundary_residual_counts():
    panel = grid_panel(1, 1, np.ones((1, 1)), np.zeros(1))
    jac = powell_jacobian(panel, np.array([1.0]), 1.0)
    assert jac.kernel_hits == 1
    assert_allclose(jac.d_hat, [[0.5]], rtol=1e-15)
    just_out = powell_jacobian(panel, np.array([np.nextafter(1.0, 2.0)]), 1.0)
    assert just_out.kernel_hits == 0


def test_powell_large_bandwidth_recovers_design_moment():
    rng = np.random.default_rng(73)
    panel = random_panel(rng, 6, 6, 3)
    resid = rng.standard_normal(panel.n)
    ell = 10.0 * np.abs(resid).max()
    jac = powell_jacobian(panel, resid, ell)
    expect = 0.5 * panel.x.T @ panel.x / (panel.n * ell)
    assert_allclose(jac.d_hat, expect, rtol=1e-12)
    assert jac.kernel_hits == panel.n


def test_powell_psd_and_monotone_hits():
    rng = np.random.default_rng(79)
    panel = random_panel(rng, 8, 8, 4)
    resid = rng.standard_normal(panel.n)
    prev_hits = -1
    for ell in (0.05, 0.2, 0.5, 1.0, 3.0):
        jac = powell_jacobian(panel, resid, ell)
        vals = np.linalg.eigvalsh(jac.d_hat)
        assert vals.min() >= -1e-12 * max(np.abs(vals).max(), 1.0)
        assert jac.kernel_hits >= prev_hits
        prev_hits = jac.kernel_hits


def test_powell_iid_density_recovery():
    # intercept-only design: D reduces to a density estimate at the median,
    # which for standard normal errors is pdf(0) = 1/sqrt(2 pi)
    rng = np.random.default_rng(83)
    G = H = 200
    n = G * H
    panel = grid_panel(G, H, np.ones((n, 1)), 1.0 + rng.standard_normal(n))
    fit = fit_qr(panel, 0.5)
    diag = rule_of_thumb_bandwidth(panel, fit.residuals, 0.5)
    jac = powell_jacobian(panel, fit.residuals, diag.ell)
    assert_allclose(jac.d_hat[0, 0], INV_SQRT_2PI, rtol=0.05)


def test_powell_rejects_bad_bandwidth():
    panel = grid_panel(1, 1, np.ones((1, 1)), np.zeros(1))
    for ell in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NonpositiveBandwidth):
            powell_jacobian(panel, np.zeros(1), ell)


def test_powell_is_deterministic():
    rng = np.random.default_rng(89)
    panel = random_panel(rng, 5, 5, 2)
    resid = rng.standard_normal(panel.n)
    a = powell_jacobian(panel, resid, 0.4)
    b = powell_jacobian(panel, resid, 0.4)
    assert_array_equal(a.d_hat, b.d_hat)


def test_amse_examples():
    # trace = 1/4.5 and unit bias cancel the constant at n = 1
    assert_allclose(amse_optimal_bandwidth(1.0 / 4.5, [1.0], 1), 1.0, rtol=1e-12)
    # frozen by 40-digit evaluation of 32^(-1/5) 4.5^(1/5)
    assert_allclose(amse_optimal_bandwidth(1.0, [1.0], 32),
                    0.67548001926030671, rtol=1e-12)


def test_amse_homogeneity_in_n():
    base = amse_optimal_bandwidth(2.0, [0.3, 0.4], 100)
    doubled = amse_optimal_bandwidth(2.0, [0.3, 0.4], 200)
    assert_allclose(doubled, base * 2.0 ** (-0.2), rtol=1e-12)


def test_amse_rejects_degenerate_terms():
    with pytest.raises(ZeroBias):
        amse_optimal_bandwidth(1.0, [0.0, 0.0], 10)
    with pytest.raises(ZeroBias):
        amse_optimal_bandwidth(0.0, [1.0], 10)
