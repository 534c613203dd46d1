"""Tests for the check-loss objective, the interior-point fit, and scores."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linprog

from helpers import grid_panel, random_panel

from twqr.errors import DimensionMismatch, InvalidTau, RankDeficient
from twqr.panel import PanelArray
from twqr.solver import _dual_step, _primal_step, check_loss, fit_qr, score_matrix


def lp_objective(panel, tau):
    """Reference optimum from an off-the-shelf LP solver.

    min tau 1'u + (1-tau) 1'v  s.t.  y - X b = u - v, u, v >= 0,
    with b free. Decision vector [b+, b-, u, v].
    """
    n, d = panel.n, panel.d
    c = np.concatenate([np.zeros(2 * d), tau * np.ones(n), (1 - tau) * np.ones(n)])
    a_eq = np.hstack([panel.x, -panel.x, np.eye(n), -np.eye(n)])
    res = linprog(c, A_eq=a_eq, b_eq=panel.y, method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_check_loss_examples():
    assert check_loss(np.array(0.0), 0.5) == 0.0
    assert check_loss(np.array(2.0), 0.5) == 1.0
    assert_allclose(check_loss(np.array(-1.0), 0.3), 0.7, rtol=1e-15)


def test_check_loss_vectorized_and_kink():
    u = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    expect = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
    assert_allclose(check_loss(u, 0.5), expect, rtol=1e-15)
    # u = 0 sits on the kink and must contribute exactly zero at any tau
    for tau in (0.1, 0.25, 0.9):
        assert check_loss(np.array(0.0), tau) == 0.0


def test_check_loss_rejects_bad_tau():
    for tau in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidTau):
            check_loss(np.array(1.0), tau)


def test_median_of_three_objective():
    panel = grid_panel(1, 3, np.ones((3, 1)), [1.0, 2.0, 3.0])
    fit = fit_qr(panel, 0.5)
    assert_allclose(fit.objective, 1.0, atol=1e-7)
    assert_allclose(fit.beta_hat, [2.0], atol=1e-5)
    assert fit.solver.converged


def test_first_quartile_grid_oracle():
    # brute force over a beta grid pins the optimum of the n=4 problem
    y = np.array([1.0, 2.0, 3.0, 4.0])
    grid = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    totals = check_loss(y[:, None] - grid[None, :], 0.25).sum(axis=0)
    assert_allclose(totals.min(), 1.5, atol=1e-9)
    panel = grid_panel(2, 2, np.ones((4, 1)), y)
    fit = fit_qr(panel, 0.25)
    assert_allclose(fit.objective, 1.5, atol=1e-7)
    # optimum is the flat segment [1, 2]; any point on it is acceptable
    assert 1.0 - 1e-6 <= fit.beta_hat[0] <= 2.0 + 1e-6


def test_exact_fit_recovers_coefficients():
    rng = np.random.default_rng(11)
    x = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
    beta0 = np.array([0.5, -1.0, 2.0])
    panel = grid_panel(5, 6, x, x @ beta0)
    fit = fit_qr(panel, 0.5)
    assert fit.objective <= 1e-7
    assert_allclose(fit.beta_hat, beta0, atol=1e-5)


def test_objective_equals_check_loss_sum():
    rng = np.random.default_rng(2)
    for tau in (0.25, 0.5, 0.8):
        panel = random_panel(rng, 6, 7, 3)
        fit = fit_qr(panel, tau)
        total = check_loss(fit.residuals, tau).sum()
        assert_allclose(fit.objective, total, rtol=1e-9)


def test_residual_definition():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, 5, 5, 2)
    fit = fit_qr(panel, 0.4)
    assert_allclose(fit.residuals, panel.y - panel.x @ fit.beta_hat, rtol=1e-12)


def test_matches_lp_oracle():
    rng = np.random.default_rng(17)
    for tau in (0.2, 0.5, 0.75):
        panel = random_panel(rng, 8, 9, 3)
        fit = fit_qr(panel, tau)
        ref = lp_objective(panel, tau)
        assert_allclose(fit.objective, ref, rtol=1e-7, atol=1e-9)


def test_perturbation_optimality():
    rng = np.random.default_rng(23)
    panel = random_panel(rng, 7, 8, 3)
    tau = 0.3
    fit = fit_qr(panel, tau)
    slack = 1e-8 * (1.0 + abs(fit.objective))
    for _ in range(100):
        delta = rng.standard_normal(panel.d)
        delta *= rng.uniform(0, 0.1) / np.linalg.norm(delta)
        perturbed = check_loss(panel.y - panel.x @ (fit.beta_hat + delta), tau).sum()
        assert fit.objective <= perturbed + slack


def test_first_order_condition():
    rng = np.random.default_rng(31)
    for tau in (0.25, 0.5, 0.9):
        panel = random_panel(rng, 10, 10, 3)
        fit = fit_qr(panel, tau)
        scores = score_matrix(panel, fit.beta_hat, tau).scores
        mean_score = np.abs(scores.mean(axis=0)).max()
        row_norms = np.linalg.norm(panel.x, axis=1)
        bound = (panel.d + 1) * row_norms.max() / panel.n + 1e-8 * (1 + fit.objective)
        assert mean_score <= bound


def test_response_scale_equivariance():
    rng = np.random.default_rng(41)
    panel = random_panel(rng, 6, 6, 2)
    fit = fit_qr(panel, 0.5)
    c = 3.7
    scaled = grid_panel(6, 6, panel.x, c * panel.y)
    fit_c = fit_qr(scaled, 0.5)
    assert_allclose(fit_c.objective, c * fit.objective, rtol=1e-7)
    assert_allclose(fit_c.beta_hat, c * fit.beta_hat, rtol=1e-5, atol=1e-7)


def test_regressor_scale_equivariance():
    rng = np.random.default_rng(43)
    panel = random_panel(rng, 6, 6, 3)
    fit = fit_qr(panel, 0.5)
    c = 5.0
    x2 = panel.x.copy()
    x2[:, 1] *= c
    fit_c = fit_qr(grid_panel(6, 6, x2, panel.y), 0.5)
    assert_allclose(fit_c.objective, fit.objective, rtol=1e-7)
    expect = fit.beta_hat.copy()
    expect[1] /= c
    assert_allclose(fit_c.beta_hat, expect, rtol=1e-5, atol=1e-7)


def test_cluster_relabeling_leaves_fit_unchanged():
    # the solver never looks at cluster indices, so the fit is bit-identical
    rng = np.random.default_rng(47)
    panel = random_panel(rng, 5, 4, 2)
    perm = rng.permutation(5)
    relabeled = PanelArray(G=5, H=4, g_idx=perm[panel.g_idx], h_idx=panel.h_idx,
                           y=panel.y, x=panel.x)
    fit = fit_qr(panel, 0.5)
    fit2 = fit_qr(relabeled, 0.5)
    assert_array_equal(fit.beta_hat, fit2.beta_hat)
    assert fit.objective == fit2.objective


def test_fit_is_deterministic():
    rng = np.random.default_rng(53)
    panel = random_panel(rng, 6, 6, 3)
    fit = fit_qr(panel, 0.3)
    fit2 = fit_qr(panel, 0.3)
    assert_array_equal(fit.beta_hat, fit2.beta_hat)
    assert fit.solver.iterations == fit2.solver.iterations


def test_max_iter_exhaustion_returns_best_iterate():
    rng = np.random.default_rng(59)
    panel = random_panel(rng, 10, 10, 3)
    full = fit_qr(panel, 0.5)
    for max_iter in (1, 2):
        fit = fit_qr(panel, 0.5, max_iter=max_iter)
        assert not fit.solver.converged
        assert fit.solver.iterations == max_iter
        assert np.isfinite(fit.objective)
        assert np.isfinite(fit.beta_hat).all()
        # the capped run cannot beat the converged optimum
        assert fit.objective >= full.objective - 1e-9


def test_zero_iterations_returns_certified_start():
    rng = np.random.default_rng(67)
    panel = random_panel(rng, 9, 8, 3)
    tau = 0.3
    fit = fit_qr(panel, tau, max_iter=0)
    start, *_ = np.linalg.lstsq(panel.x, panel.y, rcond=None)
    assert fit.beta_hat.tobytes() == start.tobytes()
    assert fit.solver.iterations == 0
    assert fit.solver.converged is False
    # the dual starts at a = (1 - tau) 1, so its value is y'a - (1 - tau) 1'y
    dual = float(panel.y @ np.full(panel.n, 1.0 - tau)) - (1.0 - tau) * float(panel.y.sum())
    assert np.isfinite(fit.solver.duality_gap)
    assert fit.solver.duality_gap == fit.objective - dual


@pytest.mark.parametrize("x_scale", [1e-150, 1.0, 1e100, 1e150, 1e200])
@pytest.mark.parametrize("y_scale", [1e-150, 1.0, 1e150, 1e300])
def test_extreme_magnitudes_return_or_raise_rank_deficient(x_scale, y_scale):
    # an overflowing normal matrix must end the solve, not escape as ValueError
    rng = np.random.default_rng(71)
    panel = random_panel(rng, 8, 8, 3)
    scaled = grid_panel(8, 8, panel.x * x_scale, panel.y * y_scale)
    try:
        fit = fit_qr(scaled, 0.5)
    except RankDeficient:
        return
    assert fit.beta_hat.shape == (3,)
    assert isinstance(fit.solver.converged, bool)


def masked_step(v, dv):
    """Fraction-to-boundary step written with a boolean mask."""
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, 0.9995 * float(np.min(-v[neg] / dv[neg])))


_directions = st.one_of(st.just(0.0), st.just(-0.0),
                        st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
_positives = st.floats(1e-6, 1e6)


@st.composite
def _step_cases(draw):
    """Positive iterates and directions of one common length; some directions
    are drawn nonnegative only, so the step is 1.0."""
    n = draw(st.integers(1, 12))
    direction = draw(st.sampled_from([_directions, st.one_of(st.just(0.0), st.just(-0.0),
                                                             st.floats(1e-6, 1e6))]))
    vecs = [np.array(draw(st.lists(_positives, min_size=n, max_size=n))) for _ in range(2)]
    dirs = [np.array(draw(st.lists(direction, min_size=n, max_size=n))) for _ in range(2)]
    return vecs[0], vecs[1], dirs[0], dirs[1]


@settings(max_examples=300, deadline=None)
@given(case=_step_cases())
@example(case=(np.array([1.0]), np.array([2.0]), np.array([-0.0]), np.array([0.0])))
@example(case=(np.array([1.0, 3.0]), np.array([2.0, 5.0]),
               np.array([0.5, -0.0]), np.array([0.0, 2.0])))
def test_step_lengths_match_masked_formula(case):
    v1, v2, d1, d2 = case
    primal = _primal_step(v1, v2, d1)
    assert primal == masked_step(np.concatenate([v1, v2]), np.concatenate([d1, -d1]))
    dual = _dual_step(v1, d1, v2, d2)
    assert dual == masked_step(np.concatenate([v1, v2]), np.concatenate([d1, d2]))
    assert 0.0 < primal <= 1.0 and 0.0 < dual <= 1.0


def test_fit_rejects_bad_inputs():
    panel = grid_panel(2, 2, np.ones((4, 1)), np.arange(4.0))
    with pytest.raises(InvalidTau):
        fit_qr(panel, 1.0)
    rank_deficient = grid_panel(
        2, 2, np.column_stack([np.ones(4), 2 * np.ones(4)]), np.arange(4.0))
    with pytest.raises(RankDeficient):
        fit_qr(rank_deficient, 0.5)


def test_score_matrix_examples():
    # residual 1.0 at tau = 0.5 with x = 1: psi = 0.5
    panel = grid_panel(1, 2, np.ones((2, 1)), [1.0, 0.0])
    sm = score_matrix(panel, np.array([0.0]), 0.5)
    assert sm.scores[0, 0] == 0.5
    # residual 0.0 counts as <= 0: psi = tau - 1
    assert sm.scores[1, 0] == -0.5
    # x = (1, 3), residual -2, tau = 0.3: psi = x (0.3 - 1)
    panel2 = grid_panel(1, 1, np.array([[1.0, 3.0]]), [0.0])
    sm2 = score_matrix(panel2, np.array([2.0, 0.0]), 0.3)
    assert_allclose(sm2.scores[0], [-0.7, -2.1], rtol=1e-15)


def test_score_matrix_shape_and_indices():
    rng = np.random.default_rng(61)
    panel = random_panel(rng, 4, 5, 2)
    sm = score_matrix(panel, np.zeros(2), 0.5)
    assert sm.scores.shape == (20, 2)
    assert (sm.G, sm.H) == (4, 5)
    assert_array_equal(sm.g_idx, panel.g_idx)
    assert_array_equal(sm.h_idx, panel.h_idx)


def test_score_matrix_rejects_wrong_beta_length():
    panel = grid_panel(2, 2, np.ones((4, 1)), np.arange(4.0))
    with pytest.raises(DimensionMismatch):
        score_matrix(panel, np.zeros(3), 0.5)
    with pytest.raises(InvalidTau):
        score_matrix(panel, np.zeros(1), 0.0)
