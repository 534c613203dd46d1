"""Tests for the check-loss objective, the interior-point fit, and scores."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import sparse
from scipy.optimize import linprog

from helpers import (
    grid_panel,
    random_panel,
    reference_dual_step,
    reference_interior_point,
    reference_primal_step,
    traced_peak,
)

from twqr.errors import DimensionMismatch, InvalidTau, RankDeficient
from twqr.montecarlo import DgpWeights, MonteCarloConfig, generate_dgp
from twqr.panel import PanelArray
from twqr.solver import (
    DEFAULT_GAP_TOL,
    DEFAULT_MAX_ITER,
    _dual_step,
    _interior_point,
    _primal_step,
    check_loss,
    fit_qr,
    score_matrix,
)


def lp_objective(panel, tau, method="highs"):
    """Reference optimum from an off-the-shelf LP solver.

    min tau 1'u + (1-tau) 1'v  s.t.  y - X b = u - v, u, v >= 0,
    with b free. Decision vector [b+, b-, u, v]. The constraint matrix is
    sparse, so a 10,000-cell panel stays small in memory; ``method`` picks
    the HiGHS solver, and "highs-ipm" solves that panel about seven times
    faster than the default simplex.
    """
    n, d = panel.n, panel.d
    c = np.concatenate([np.zeros(2 * d), tau * np.ones(n), (1 - tau) * np.ones(n)])
    eye = sparse.identity(n, format="csr")
    a_eq = sparse.hstack([panel.x, -panel.x, eye, -eye], format="csr")
    res = linprog(c, A_eq=a_eq, b_eq=panel.y, method=method)
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


X_SCALES = [1e-150, 1.0, 1e100, 1e150, 1e200]
Y_SCALES = [1e-150, 1.0, 1e150, 1e300]


def extreme_panel(x_scale, y_scale):
    rng = np.random.default_rng(71)
    panel = random_panel(rng, 8, 8, 3)
    return grid_panel(8, 8, panel.x * x_scale, panel.y * y_scale)


@pytest.mark.parametrize("x_scale", X_SCALES)
@pytest.mark.parametrize("y_scale", Y_SCALES)
def test_extreme_magnitudes_return_or_raise_rank_deficient(x_scale, y_scale):
    # an overflowing normal matrix must end the solve, not escape as ValueError
    scaled = extreme_panel(x_scale, y_scale)
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


_MIN_NORMAL = 2.2250738585072014e-308  # below it, doubles are subnormal
_directions = st.one_of(st.just(0.0), st.just(-0.0),
                        st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
_nonfinite_or_subnormal = st.one_of(
    st.sampled_from([np.inf, -np.inf, np.nan]),
    st.floats(5e-324, _MIN_NORMAL, exclude_max=True),
    st.floats(-_MIN_NORMAL, -5e-324, exclude_min=True))
_positives = st.floats(1e-6, 1e6)


@st.composite
def _step_cases(draw):
    """Positive iterates and directions of one common length; some directions
    are drawn nonnegative only, so the step is 1.0, and some include
    infinities, NaN and subnormals."""
    n = draw(st.integers(1, 12))
    direction = draw(st.sampled_from([
        _directions,
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-6, 1e6)),
        st.one_of(_directions, _nonfinite_or_subnormal),
    ]))
    vecs = [np.array(draw(st.lists(_positives, min_size=n, max_size=n))) for _ in range(2)]
    dirs = [np.array(draw(st.lists(direction, min_size=n, max_size=n))) for _ in range(2)]
    return vecs[0], vecs[1], dirs[0], dirs[1]


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=500, deadline=None)
@given(case=_step_cases())
@example(case=(np.array([1.0]), np.array([2.0]), np.array([-0.0]), np.array([0.0])))
@example(case=(np.array([1.0, 3.0]), np.array([2.0, 5.0]),
               np.array([0.5, -0.0]), np.array([0.0, 2.0])))
# d = +inf: a / -d is -0.0, s / d is +0.0, and the step must be +0.0
@example(case=(np.array([1.0]), np.array([2.0]), np.array([np.inf]), np.array([-np.inf])))
@example(case=(np.array([1.0, 3.0]), np.array([2.0, 5.0]),
               np.array([-np.inf, np.inf]), np.array([np.nan, -1.0])))
@example(case=(np.array([1.0, 3.0]), np.array([2.0, 5.0]),
               np.array([5e-324, -5e-324]), np.array([-1e-310, 0.5])))
def test_step_lengths_match_masked_formula(case):
    v1, v2, d1, d2 = case
    t1, t2 = np.empty_like(v1), np.empty_like(v1)
    primal = _primal_step(v1, v2, d1, t1, t2)
    dual = _dual_step(v1, d1, v2, d2, t1)
    with np.errstate(all="ignore"):
        assert _bits(primal) == _bits(reference_primal_step(v1, v2, d1))
        assert _bits(dual) == _bits(reference_dual_step(v1, d1, v2, d2))
        if not (np.isnan(d1).any() or np.isnan(d2).any()):
            # a NaN direction makes the formulas' step 1.0; the mask skips it
            assert primal == masked_step(np.concatenate([v1, v2]), np.concatenate([d1, -d1]))
            assert dual == masked_step(np.concatenate([v1, v2]), np.concatenate([d1, d2]))
    if np.isfinite(d1).all() and np.isfinite(d2).all():
        assert 0.0 < primal <= 1.0 and 0.0 < dual <= 1.0


# --- the buffered interior-point loop against the one-array-per-operation
# reference in helpers.py ---

def _demo_panel(G, seed):
    """The non-Gaussian demo's d = 1 design: x = U_g V_h, sign-product errors."""
    rng = np.random.default_rng(seed)
    x = np.outer(rng.standard_normal(G), rng.standard_normal(G) + 1.0)
    signs = np.outer(rng.choice([-1.0, 1.0], G), rng.choice([-1.0, 1.0], G))
    e = signs * np.abs(rng.uniform(-1.0, 1.0, (G, G)))
    return grid_panel(G, G, x.reshape(-1, 1), (x + e).reshape(-1))


def _missing_panel(seed):
    """A random panel with about 20% of its cells dropped."""
    rng = np.random.default_rng(seed)
    full = random_panel(rng, 15, 13, 3)
    keep = rng.random(full.n) >= 0.2
    return PanelArray(G=15, H=13, g_idx=full.g_idx[keep], h_idx=full.h_idx[keep],
                      y=full.y[keep], x=full.x[keep])


def _acceptance_panel(G, d=10):
    cfg = MonteCarloConfig(G=G, H=G, d=d, tau=0.5, reps=1, seed=101,
                           weights=DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    return generate_dgp(cfg, 0)


def assert_matches_reference(x, y, tau, max_iter=DEFAULT_MAX_ITER):
    """All six fields of the loop equal the reference's, bit for bit; a
    RankDeficient start raises in both."""
    with np.errstate(all="ignore"):  # the reference's handled overflows
        try:
            want = reference_interior_point(x, y, tau, DEFAULT_GAP_TOL, max_iter)
        except RankDeficient:
            want = None
    if want is None:
        with pytest.raises(RankDeficient):
            _interior_point(x, y, tau, DEFAULT_GAP_TOL, max_iter)
        return
    got = _interior_point(x, y, tau, DEFAULT_GAP_TOL, max_iter)
    assert len(got) == len(want) == 6
    for field, g, w in zip(("beta", "residuals", "objective", "iterations", "gap",
                            "converged"), got, want):
        assert type(g) is type(w), field
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), field


@pytest.mark.parametrize("make_panel", [
    lambda: _acceptance_panel(12), lambda: _acceptance_panel(50),
    lambda: _demo_panel(20, 3), lambda: _demo_panel(100, 4),
    lambda: _missing_panel(5), lambda: _missing_panel(6),
    lambda: _acceptance_panel(13, 7), lambda: _acceptance_panel(15, 16),
], ids=["acceptance_12", "acceptance_50", "demo_20", "demo_100",
        "missing_a", "missing_b", "d7_13", "d16_15"])
@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 0.9, 0.95])
def test_interior_point_matches_reference_bit_for_bit(make_panel, tau):
    # d = 1 and 3 keep the weighted design inside the block's seven scratch
    # rows, d = 7 fills them exactly, and d = 10 and 16 extend the block;
    # n = 169 and 225 start every other row off a 16-byte boundary
    panel = make_panel()
    for max_iter in (0, 1, 2, DEFAULT_MAX_ITER):
        assert_matches_reference(panel.x, panel.y, tau, max_iter)


@pytest.mark.parametrize("x_scale", X_SCALES)
@pytest.mark.parametrize("y_scale", Y_SCALES)
def test_interior_point_matches_reference_at_extreme_magnitudes(x_scale, y_scale):
    # covers the early exits: an overflowing or indefinite normal matrix
    panel = extreme_panel(x_scale, y_scale)
    for tau in (0.1, 0.5, 0.9):
        assert_matches_reference(panel.x, panel.y, tau)


def test_fit_on_overflowing_design_raises_no_warning():
    panel = extreme_panel(1e200, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_qr(panel, 0.5)
    assert not fit.solver.converged


def fit_working_set(d):
    """tracemalloc's peak of fit_qr at G=H=200, in n-vectors of float64."""
    panel = _acceptance_panel(200, d)
    fit, peak = traced_peak(fit_qr, panel, 0.5)
    assert fit.solver.converged
    return peak / (8 * panel.n)


def test_fit_working_set():
    """The block of max(d, 7) = 10 rows that holds x q and seven scratch
    vectors, r_d, qinv, a, s, z, w and the returned residual read 17.03
    (18.06 while the loop allocated each iteration's residual and kept the
    best one, 25.06 with x q apart from the scratch as well)."""
    assert fit_working_set(10) <= 17.03 + 1


def test_fit_working_set_with_fewer_regressors_than_scratch_vectors():
    """At d = 3 the block has seven rows: 14.01 (15.05 with a fresh residual
    per iteration, 18.04 with x q apart as well)."""
    assert fit_working_set(3) <= 14.01 + 1


# --- the exact one-regressor path (d = 1) ---

def _one_regressor_panel(kind):
    """d = 1 panels: a constant column with n = 40, whose optimum is flat at
    each tau tested below since 40 tau is an integer; mixed-sign x with zero
    cells; integer x and y with tied ratios; and about 20% missing cells."""
    rng = np.random.default_rng(83)
    if kind == "constant":
        return grid_panel(5, 8, np.ones((40, 1)), rng.standard_normal(40))
    if kind == "zeros":
        x = rng.standard_normal(120) * (rng.random(120) >= 0.15)
        return grid_panel(10, 12, x[:, None], 0.5 * x + rng.standard_normal(120))
    if kind == "ties":
        x = rng.choice([-2.0, -1.0, 1.0, 2.0], 90)
        return grid_panel(9, 10, x[:, None], rng.integers(-4, 5, 90).astype(float))
    x = rng.standard_normal(195)
    full = grid_panel(15, 13, x[:, None], 1.0 - x + rng.standard_normal(195))
    keep = rng.random(full.n) >= 0.2
    return PanelArray(G=15, H=13, g_idx=full.g_idx[keep], h_idx=full.h_idx[keep],
                      y=full.y[keep], x=full.x[keep])


@pytest.mark.parametrize("make_panel", [
    lambda: _demo_panel(20, 3), lambda: _demo_panel(100, 4),
    lambda: _one_regressor_panel("constant"), lambda: _one_regressor_panel("zeros"),
    lambda: _one_regressor_panel("ties"), lambda: _one_regressor_panel("missing"),
], ids=["demo_20", "demo_100", "constant", "zeros", "ties", "missing"])
@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 0.9, 0.95])
def test_one_regressor_fit_is_optimal(make_panel, tau):
    panel = make_panel()
    fit = fit_qr(panel, tau)
    _, _, ref_obj, *_ = reference_interior_point(
        panel.x, panel.y, tau, DEFAULT_GAP_TOL, DEFAULT_MAX_ITER)
    obj = fit.objective
    assert obj <= ref_obj + 1e-12 * (1.0 + abs(obj))
    lp = lp_objective(panel, tau, method="highs-ipm")
    assert abs(obj - lp) <= 1e-9 * (1.0 + abs(lp))
    assert fit.solver.converged is True
    assert fit.solver.iterations == 1
    assert fit.solver.duality_gap <= DEFAULT_GAP_TOL * (1.0 + abs(obj))
    assert fit.residuals.tobytes() == (panel.y - panel.x[:, 0] * fit.beta_hat).tobytes()


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 0.9, 0.95])
def test_one_regressor_flat_optimum_returns_the_midpoint(tau):
    # with x = 1 and 40 tau an integer k, every beta in [y_(k), y_(k+1)] is optimal
    panel = _one_regressor_panel("constant")
    k = round(40 * tau) - 1
    ys = np.sort(panel.y)
    assert fit_qr(panel, tau).beta_hat[0] == 0.5 * ys[k] + 0.5 * ys[k + 1]


_EPS = np.finfo(float).eps


@st.composite
def _one_regressor_cases(draw):
    """A seed-drawn d = 1 problem. Gaussian data have a unique minimiser
    almost surely; a constant column at even n and integer data with tied
    ratios often have a flat one."""
    kind = draw(st.sampled_from(["gaussian", "constant", "ties"]))
    n = draw(st.integers(1, 40))
    tau = draw(st.floats(0.02, 0.98))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
    elif kind == "constant":
        x, y = np.ones(2 * n), rng.standard_normal(2 * n)
    else:
        x = rng.choice([-2.0, -1.0, 1.0, 3.0], n)
        y = rng.integers(-4, 5, n).astype(float)
    return kind == "gaussian", x, y, tau


def _fit_one(x, y, tau, must_converge=True):
    fit = fit_qr(grid_panel(1, len(y), x[:, None], y), tau)
    assert fit.solver.iterations == 1
    assert fit.solver.converged is True or not must_converge
    return fit.beta_hat[0], fit.objective


def _assert_equivariant(got, want, scale, unique):
    """Betas agree within a few ulps of ``scale`` where the minimiser is
    unique; the objectives (``got``/``want`` second fields) always agree."""
    (b1, o1), (b2, o2), (beta_scale, obj_scale) = got, want, scale
    if unique:
        assert abs(b1 - b2) <= 8 * _EPS * beta_scale, (b1, b2)
    assert abs(o1 - o2) <= 1e-12 * obj_scale, (o1, o2)


def _obj_scale(x, y, beta):
    return float(np.sum(np.abs(y) + np.abs(x * beta)))


_UNIQUE_CASE = (True, np.array([0.3, -1.2, 2.0]), np.array([1.0, 0.5, -0.7]), 0.5)


@settings(max_examples=150, deadline=None)
@given(case=_one_regressor_cases(),
       c=st.one_of(st.sampled_from([1e-150, 1e150]), st.floats(1e-3, 1e3)))
@example(case=_UNIQUE_CASE, c=1e-150)
@example(case=_UNIQUE_CASE, c=1e150)
def test_one_regressor_response_scale_equivariance(case, c):
    unique, x, y, tau = case
    beta, obj = _fit_one(x, y, tau)
    # the y x 1e-150 fit converges; at y x 1e150 a perfect fit (n = 1, say)
    # leaves a rounding-sized objective and gap, and the gap test, relative
    # to the objective, cannot pass
    got = _fit_one(x, c * y, tau, must_converge=c <= 1e3)
    _assert_equivariant(got, (c * beta, c * obj),
                        (abs(c * beta), c * _obj_scale(x, y, beta)), unique)


@settings(max_examples=150, deadline=None)
@given(case=_one_regressor_cases())
def test_one_regressor_sign_flip_equivariance(case):
    unique, x, y, tau = case
    beta, obj = _fit_one(x, y, 1.0 - tau)
    got = _fit_one(x, -y, tau)
    _assert_equivariant(got, (-beta, obj), (abs(beta), _obj_scale(x, y, beta)), unique)


@settings(max_examples=150, deadline=None)
@given(case=_one_regressor_cases(), g=st.floats(-100.0, 100.0))
def test_one_regressor_shift_equivariance(case, g):
    unique, x, y, tau = case
    beta, obj = _fit_one(x, y, tau)
    got = _fit_one(x, y + g * x, tau)
    scale = _obj_scale(x, y, beta) + _obj_scale(x, g * x, 1.0)
    _assert_equivariant(got, (beta + g, obj), (abs(beta) + abs(g), scale), unique)


@settings(max_examples=150, deadline=None)
@given(case=_one_regressor_cases(),
       a=st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3),
                   st.sampled_from([-1e100, -1e-100, 1e-100, 1e100])))
def test_one_regressor_regressor_scale_equivariance(case, a):
    unique, x, y, tau = case
    beta, obj = _fit_one(x, y, tau)
    got = _fit_one(a * x, y, tau)
    _assert_equivariant(got, (beta / a, obj), (abs(beta / a), _obj_scale(x, y, beta)),
                        unique)


# --- Koenker-Bassett equivariance at d >= 2, where the interior point runs ---

@st.composite
def _multi_regressor_cases(draw):
    """A seed-drawn problem at d = 2 to 4 with an intercept, and tau in
    [0.5, 0.98], so that 1 - tau is exact. Gaussian data have a unique
    minimiser almost surely; small integers often have a flat one."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        y = x.sum(axis=1) + rng.standard_normal(n)
    else:
        x = np.column_stack([np.ones(n), rng.integers(-2, 4, (n, d - 1))]).astype(float)
        y = rng.integers(-4, 5, n).astype(float)
    assume(np.linalg.matrix_rank(x) == d)
    return x, y, draw(st.floats(0.5, 0.98))


def _fit_many(x, y, tau):
    """A fit whose gap certifies its objective, converged or not: a few
    small integer problems end early on an indefinite normal matrix."""
    fit = fit_qr(grid_panel(1, len(y), x, y), tau)
    assert np.isfinite(fit.solver.duality_gap)
    return fit


def _assert_same_optimum(fit, other, c, data_abs):
    """``fit`` and ``c`` times ``other`` solve one problem, so each objective
    lies above the common optimum by at most its certified gap and the two
    differ by at most the sum of the gaps. The allowance for rounding, in
    the objectives, the dual values and any data the caller computed, is
    1e-12 of ``data_abs`` (the absolute data values that round, summed by
    the caller: the |y| of both problems at least) plus both fits'
    |residuals|, scaled alike."""
    (o1, g1), (o2, g2) = ((f.objective, f.solver.duality_gap) for f in (fit, other))
    scale = data_abs + np.abs(fit.residuals).sum() + c * np.abs(other.residuals).sum()
    assert abs(o1 - c * o2) <= g1 + c * g2 + 1e-12 * scale, (o1, c * o2, g1, c * g2)


# derandomized, as the CLI fuzz is: the same problems every run
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_multi_regressor_cases(), sign=st.sampled_from([1.0, -1.0]))
def test_sign_flip_equivariance(case, sign):
    # the fit of -y at tau against that of y at 1 - tau, for y and -y alike
    x, y, tau = case
    y = sign * y
    _assert_same_optimum(_fit_many(x, -y, tau), _fit_many(x, y, 1.0 - tau), 1.0,
                         2 * np.abs(y).sum())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_multi_regressor_cases(), k=st.integers(-4, 4))
def test_response_power_of_two_scale_equivariance(case, k):
    x, y, tau = case
    c = 2.0 ** k  # exact: c * y rounds nothing
    _assert_same_optimum(_fit_many(x, c * y, tau), _fit_many(x, y, tau), c,
                         2 * c * np.abs(y).sum())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_multi_regressor_cases(), g=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
def test_regression_shift_equivariance(case, g):
    # y + Xg has y's optimum, at beta + g. Forming y + Xg rounds each entry
    # by a few units in the last place of |y| + |X||g|, and the check loss
    # is 1-Lipschitz in y, so the optima differ by far less than 1e-12 of
    # the sum of both responses and |X||g|
    x, y, tau = case
    g = np.array(g[:x.shape[1]])
    shifted = y + x @ g
    _assert_same_optimum(_fit_many(x, shifted, tau), _fit_many(x, y, tau), 1.0,
                         np.abs(y).sum() + np.abs(shifted).sum() + (np.abs(x) @ np.abs(g)).sum())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_multi_regressor_cases(), seed=st.integers(0, 2**32 - 1))
def test_design_reparametrization_equivariance(case, seed):
    # (y, XA) has (y, X)'s optimum, at A^-1 beta. Forming XA rounds: at any
    # b, (XA)b moves by a few units in the last place of |X||A||b|, so the
    # allowance adds that sum at each fit's coefficients, mapped to XA's
    x, y, tau = case
    d = x.shape[1]
    a = 2.0 * np.eye(d) + np.random.default_rng(seed).uniform(-1.0, 1.0, (d, d))
    assume(np.linalg.cond(a) < 100.0)
    fit, other = _fit_many(x @ a, y, tau), _fit_many(x, y, tau)
    moved = sum((np.abs(x) @ (np.abs(a) @ np.abs(b))).sum()
                for b in (fit.beta_hat, np.linalg.solve(a, other.beta_hat)))
    _assert_same_optimum(fit, other, 1.0, 2 * np.abs(y).sum() + moved)


def test_one_regressor_all_zero_column_is_rank_deficient():
    panel = grid_panel(2, 3, np.array([[0.0], [-0.0], [0.0], [0.0], [0.0], [0.0]]),
                       np.arange(6.0))
    with pytest.raises(RankDeficient, match="rank < d = 1"):
        fit_qr(panel, 0.5)


def test_one_regressor_zero_iterations_returns_lstsq_start():
    panel = _one_regressor_panel("zeros")
    fit = fit_qr(panel, 0.3, max_iter=0)
    start, *_ = np.linalg.lstsq(panel.x, panel.y, rcond=None)
    assert fit.beta_hat.tobytes() == start.tobytes()
    assert fit.solver.iterations == 0
    assert fit.solver.converged is False


@pytest.mark.parametrize("x_scale", X_SCALES)
@pytest.mark.parametrize("y_scale", Y_SCALES)
def test_one_regressor_extreme_magnitudes_return_or_raise_rank_deficient(x_scale, y_scale):
    scaled = extreme_panel(x_scale, y_scale)
    panel = grid_panel(8, 8, scaled.x[:, 1:2], scaled.y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = fit_qr(panel, 0.5)
        except RankDeficient:
            return
    assert fit.beta_hat.shape == (1,)
    assert fit.solver.iterations == 1
    assert np.isfinite(fit.beta_hat).all() or not fit.solver.converged


def test_one_regressor_overflowing_breakpoint_is_not_converged():
    # every ratio y / x is 1e400 or more, past the largest double
    panel = grid_panel(2, 2, np.full((4, 1), 1e-200), 1e200 * np.arange(1.0, 5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_qr(panel, 0.5)
    assert fit.solver.converged is False
    assert fit.solver.iterations == 1


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
