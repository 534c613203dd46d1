"""Tests for PSD projection, meat assembly, sandwich, and t-tests."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm as scipy_norm

from helpers import grid_panel, random_panel

from twqr.crve import (
    CrveKind,
    evc,
    omega_ctw,
    omega_variant,
    sandwich,
    t_test,
)
from twqr.errors import (
    NonFinite,
    NumericError,
    SingularJacobian,
    TooFewClusters,
    ZeroStdError,
)
from twqr.jacobian import JacobianEstimate, powell_jacobian, rule_of_thumb_bandwidth
from twqr.solver import QuantileFit, ScoreMatrix, SolverInfo, fit_qr, score_matrix

ALL_KINDS = (CrveKind.CTW, CrveKind.CG, CrveKind.CH, CrveKind.CI, CrveKind.CTW_II)


def make_scores(scores, g_idx, h_idx, G, H):
    return ScoreMatrix(scores=np.asarray(scores, dtype=float),
                       g_idx=np.asarray(g_idx), h_idx=np.asarray(h_idx),
                       G=G, H=H)


def random_scores(rng, G, H, d):
    n = G * H
    return make_scores(rng.standard_normal((n, d)),
                       np.repeat(np.arange(G), H), np.tile(np.arange(H), G), G, H)


def random_unbalanced_scores(rng, G, H, d, drop=0.2):
    """random_scores with about ``drop`` of the cells missing, keeping at
    least one cell in every row and column."""
    keep = rng.random((G, H)) >= drop
    keep[np.arange(G), rng.integers(H, size=G)] = True
    keep[rng.integers(G, size=H), np.arange(H)] = True
    g_idx, h_idx = np.nonzero(keep)
    return make_scores(rng.standard_normal((len(g_idx), d)), g_idx, h_idx, G, H)


def brute_force_components(sm):
    """O(n^2) double loop over cell pairs; independent of the fast assembly."""
    n, d = sm.n, sm.d
    psi, g, h = sm.scores, sm.g_idx, sm.h_idx
    i_raw = np.zeros((d, d))
    ii_raw = np.zeros((d, d))
    diag = np.zeros((d, d))
    for a in range(n):
        for b in range(n):
            outer = np.outer(psi[a], psi[b])
            if a == b:
                diag += outer
            else:
                if g[a] == g[b]:
                    i_raw += outer
                if h[a] == h[b]:
                    ii_raw += outer
    scale = float(n) ** 2
    return i_raw / scale, ii_raw / scale, diag / scale


def make_fit(beta_hat):
    beta_hat = np.asarray(beta_hat, dtype=float)
    return QuantileFit(tau=0.5, beta_hat=beta_hat,
                       residuals=np.zeros(1), objective=0.0,
                       solver=SolverInfo(iterations=1, duality_gap=0.0,
                                         converged=True))


def make_jacobian(d_mat):
    d_mat = np.asarray(d_mat, dtype=float)
    return JacobianEstimate(d_hat=d_mat, bandwidth=1.0, kernel_hits=0)


def test_evc_identity_is_fixed_point():
    assert_array_equal(evc(np.eye(3)), np.eye(3))


def test_evc_clips_negative_eigenvalue():
    # eigenpairs of [[1,2],[2,1]] are 3 at (1,1)/sqrt2 and -1 at (1,-1)/sqrt2;
    # dropping the negative one leaves 1.5 in every entry
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert_allclose(evc(m), np.full((2, 2), 1.5), atol=1e-12)


def test_evc_idempotent_and_psd():
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = rng.integers(2, 6)
        m = rng.standard_normal((d, d))
        m = 0.5 * (m + m.T)
        once = evc(m)
        assert_allclose(evc(once), once, atol=1e-12 * max(1.0, np.abs(once).max()))
        vals = np.linalg.eigvalsh(once)
        assert vals.min() >= -1e-12 * max(1.0, vals.max())
        # projection never shrinks the trace
        assert np.trace(once) >= np.trace(m) - 1e-12


def test_evc_preserves_psd_input():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((4, 4))
    m = a @ a.T
    assert_allclose(evc(m), m, rtol=1e-10, atol=1e-12)


def test_evc_rejects_nonfinite():
    with pytest.raises(NonFinite):
        evc(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_omega_frozen_2x2_example():
    # psi = 1,2,3,4 over a 2x2 grid; every component is a hand-checkable scalar:
    # diag = 30/16, row sums (3,7) -> 58/16, column sums (4,6) -> 52/16
    sm = make_scores([[1.0], [2.0], [3.0], [4.0]],
                     [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
    om = omega_ctw(sm)
    assert_allclose(om.omega_I_raw, [[1.75]], rtol=1e-15)
    assert_allclose(om.omega_II_raw, [[1.375]], rtol=1e-15)
    assert_allclose(om.omega_diag, [[1.875]], rtol=1e-15)
    assert_allclose(om.omega_total, [[5.0]], rtol=1e-15)
    assert om.clip_count_I == 0 and om.clip_count_II == 0
    assert_allclose(omega_variant(sm, CrveKind.CG).omega_total, [[3.625]], rtol=1e-15)
    assert_allclose(omega_variant(sm, CrveKind.CH).omega_total, [[3.25]], rtol=1e-15)
    assert_allclose(omega_variant(sm, CrveKind.CI).omega_total, [[1.875]], rtol=1e-15)
    assert_allclose(omega_variant(sm, CrveKind.CTW_II).omega_total, [[6.875]],
                    rtol=1e-15)


def test_omega_matches_brute_force():
    rng = np.random.default_rng(107)
    for trial in range(40):
        G = int(rng.integers(2, 7))
        H = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        sm = (random_scores if trial % 2 == 0 else random_unbalanced_scores)(rng, G, H, d)
        i_raw, ii_raw, diag = brute_force_components(sm)
        om = omega_ctw(sm)
        assert_allclose(om.omega_I_raw, i_raw, rtol=1e-12, atol=1e-14)
        assert_allclose(om.omega_II_raw, ii_raw, rtol=1e-12, atol=1e-14)
        assert_allclose(om.omega_diag, diag, rtol=1e-12, atol=1e-14)
        expect = {
            CrveKind.CTW: evc(i_raw) + evc(ii_raw) + diag,
            CrveKind.CG: i_raw + diag,
            CrveKind.CH: ii_raw + diag,
            CrveKind.CI: diag,
            CrveKind.CTW_II: i_raw + ii_raw + 2.0 * diag,
        }
        for kind in ALL_KINDS:
            assert_allclose(omega_variant(sm, kind).omega_total, expect[kind],
                            rtol=1e-10, atol=1e-13)


def test_omega_transposition_swaps_margins():
    # relabelling rows as columns swaps the one-way pieces and leaves the
    # symmetric estimators unchanged
    rng = np.random.default_rng(157)
    for sm in (random_scores(rng, 7, 4, 3), random_unbalanced_scores(rng, 5, 8, 2)):
        flipped = make_scores(sm.scores, sm.h_idx, sm.g_idx, sm.H, sm.G)
        om, om_t = omega_ctw(sm), omega_ctw(flipped)
        for a, b in ((om.omega_I_raw, om_t.omega_II_raw),
                     (om.omega_II_raw, om_t.omega_I_raw),
                     (om.omega_I, om_t.omega_II), (om.omega_II, om_t.omega_I),
                     (om.omega_diag, om_t.omega_diag)):
            assert_allclose(a, b, rtol=1e-13, atol=1e-15)
        assert (om.clip_count_I, om.clip_count_II) == (om_t.clip_count_II, om_t.clip_count_I)
        swap = {CrveKind.CG: CrveKind.CH, CrveKind.CH: CrveKind.CG}
        for kind in ALL_KINDS:
            assert_allclose(omega_variant(sm, kind).omega_total,
                            omega_variant(flipped, swap.get(kind, kind)).omega_total,
                            rtol=1e-13, atol=1e-15)


def test_omega_zero_scores():
    sm = make_scores(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1],
                     [0, 1, 2, 0, 1, 2], 2, 3)
    for kind in ALL_KINDS:
        assert_array_equal(omega_variant(sm, kind).omega_total, np.zeros((2, 2)))


def test_omega_identities():
    rng = np.random.default_rng(109)
    for _ in range(20):
        G = int(rng.integers(2, 21))
        H = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        sm = random_scores(rng, G, H, d)
        parts = {kind: omega_variant(sm, kind).omega_total for kind in ALL_KINDS}
        om = omega_ctw(sm)
        scale = max(np.abs(parts[CrveKind.CTW_II]).max(), 1e-30)
        assert_allclose(parts[CrveKind.CG], om.omega_I_raw + om.omega_diag,
                        rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(parts[CrveKind.CH], om.omega_II_raw + om.omega_diag,
                        rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(parts[CrveKind.CTW_II],
                        parts[CrveKind.CG] + parts[CrveKind.CH],
                        rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(parts[CrveKind.CTW],
                        om.omega_I + om.omega_II + om.omega_diag,
                        rtol=1e-12, atol=1e-12 * scale)


def test_omega_psd_totals():
    rng = np.random.default_rng(113)
    for _ in range(10):
        sm = random_scores(rng, 6, 5, 3)
        for kind in ALL_KINDS:
            total = omega_variant(sm, kind).omega_total
            vals = np.linalg.eigvalsh(total)
            assert vals.min() >= -1e-10 * max(np.abs(vals).max(), 1e-30)


def test_omega_label_permutation_invariance():
    rng = np.random.default_rng(127)
    sm = random_scores(rng, 8, 7, 3)
    perm_g = rng.permutation(8)
    perm_h = rng.permutation(7)
    sm2 = make_scores(sm.scores, perm_g[sm.g_idx], perm_h[sm.h_idx], 8, 7)
    for kind in ALL_KINDS:
        a = omega_variant(sm, kind).omega_total
        b = omega_variant(sm2, kind).omega_total
        assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def test_omega_too_few_clusters():
    sm_one_row = make_scores(np.ones((3, 1)), [0, 0, 0], [0, 1, 2], 1, 3)
    with pytest.raises(TooFewClusters):
        omega_ctw(sm_one_row)
    with pytest.raises(TooFewClusters):
        omega_variant(sm_one_row, CrveKind.CG)
    with pytest.raises(TooFewClusters):
        omega_variant(sm_one_row, CrveKind.CTW_II)
    # column clustering is still well defined with a single row cluster
    assert omega_variant(sm_one_row, CrveKind.CH).omega_total.shape == (1, 1)
    assert omega_variant(sm_one_row, CrveKind.CI).omega_total.shape == (1, 1)


def omega_outcome(sm, kind):
    """Every field of ``omega_variant(sm, kind)`` as bytes, or the error raised."""
    try:
        om = omega_variant(sm, kind)
    except NumericError as exc:
        return type(exc), str(exc)
    return (om.kind, om.clip_count_I, om.clip_count_II,
            *(getattr(om, f).tobytes() for f in ("omega_I_raw", "omega_II_raw", "omega_I",
                                                  "omega_II", "omega_diag", "omega_total")))


def test_omega_shared_blocks_match_fresh_per_kind():
    # the blocks are built once per ScoreMatrix; any order of kinds on one
    # instance must give what each kind gives on a fresh one, errors included
    rng = np.random.default_rng(163)
    panels = [random_scores(rng, 6, 5, 3), random_unbalanced_scores(rng, 7, 6, 2),
              random_scores(rng, 1, 5, 2), random_scores(rng, 4, 1, 2),
              random_unbalanced_scores(rng, 1, 6, 3)]
    for sm in panels:
        def fresh():
            return make_scores(sm.scores.copy(), sm.g_idx.copy(), sm.h_idx.copy(), sm.G, sm.H)

        expect = {kind: omega_outcome(fresh(), kind) for kind in ALL_KINDS}
        raised = [kind for kind in ALL_KINDS if expect[kind][0] is TooFewClusters]
        assert len(raised) == (3 if 1 in (sm.G, sm.H) else 0)
        for order in itertools.permutations(ALL_KINDS):
            shared = fresh()
            for kind in order:
                assert omega_outcome(shared, kind) == expect[kind], (order, kind)
        om = omega_variant(shared, CrveKind.CI)
        for f in ("omega_I_raw", "omega_II_raw", "omega_I", "omega_II", "omega_diag"):
            assert not getattr(om, f).flags.writeable


def test_omega_overflow_raises_on_every_call():
    # a failed build is not kept, so each call raises again; a shortfall of
    # clusters is reported before the blocks are built
    psi = [[1e300, 1.0], [2.0, -1e300], [3.0, 1.0], [4.0, 2.0]]
    sm = make_scores(psi, [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
    one_row = make_scores(psi, [0, 0, 0, 0], [0, 1, 2, 3], 1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            for kind in ALL_KINDS:
                with pytest.raises(NonFinite, match="non-finite entries"):
                    omega_variant(sm, kind)
                error = NonFinite if kind in (CrveKind.CH, CrveKind.CI) else TooFewClusters
                with pytest.raises(error):
                    omega_variant(one_row, kind)


def test_clip_counts_reported():
    # strongly negative cross products force eigenvalue clipping
    sm = make_scores([[1.0, 0.0], [-1.0, 0.1], [0.5, -1.0], [-0.5, 1.1]],
                     [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
    om = omega_ctw(sm)
    assert om.clip_count_I + om.clip_count_II > 0
    # clipping only ever adds PSD mass
    for raw, fixed in ((om.omega_I_raw, om.omega_I),
                       (om.omega_II_raw, om.omega_II)):
        diff_vals = np.linalg.eigvalsh(fixed - raw)
        assert diff_vals.min() >= -1e-12


def test_sandwich_identity_bread():
    om = omega_ctw(make_scores([[1.0], [2.0], [3.0], [4.0]],
                               [0, 0, 1, 1], [0, 1, 0, 1], 2, 2))
    var = sandwich(make_jacobian(np.eye(1)), om)
    assert_allclose(var.sigma_hat, om.omega_total, rtol=1e-14)
    assert_allclose(var.std_errors, [np.sqrt(5.0)], rtol=1e-14)


def test_sandwich_scalar_scaling():
    # D = 2 I halves each factor: sigma = omega / 4
    om = omega_ctw(make_scores([[1.0], [2.0], [3.0], [4.0]],
                               [0, 0, 1, 1], [0, 1, 0, 1], 2, 2))
    var = sandwich(make_jacobian(2.0 * np.eye(1)), om)
    assert_allclose(var.sigma_hat, om.omega_total / 4.0, rtol=1e-14)


def test_sandwich_matches_inverse_oracle():
    rng = np.random.default_rng(131)
    for _ in range(10):
        d = 5
        a = rng.standard_normal((d, d))
        d_mat = a @ a.T + d * np.eye(d)
        sm = random_scores(rng, 6, 6, d)
        om = omega_ctw(sm)
        var = sandwich(make_jacobian(d_mat), om)
        inv = np.linalg.inv(d_mat)
        expect = inv @ om.omega_total @ inv
        assert_allclose(var.sigma_hat, expect, rtol=1e-10, atol=1e-13)
        assert_allclose(var.sigma_hat, var.sigma_hat.T, rtol=0, atol=0)
        assert_allclose(var.std_errors, np.sqrt(np.diag(expect)), rtol=1e-10)


def test_sandwich_shared_jacobian_matches_fresh():
    # D is checked and factored once per JacobianEstimate and reused by kinds
    rng = np.random.default_rng(167)
    a = rng.standard_normal((4, 4))
    d_mat = a @ a.T + np.eye(4)
    sm = random_unbalanced_scores(rng, 6, 7, 4)
    shared = make_jacobian(d_mat)
    for kind in ALL_KINDS[::-1] + ALL_KINDS:
        om = omega_variant(sm, kind)
        got, expect = sandwich(shared, om, kind), sandwich(make_jacobian(d_mat.copy()), om, kind)
        assert got.kind is expect.kind is kind
        assert got.sigma_hat.tobytes() == expect.sigma_hat.tobytes()
        assert got.std_errors.tobytes() == expect.std_errors.tobytes()


def test_memoised_inputs_are_read_only():
    # the meat blocks and the factor of D are kept per ScoreMatrix and
    # JacobianEstimate, so the first omega_variant/sandwich call makes the
    # arrays they are built from read-only, however the inputs were built
    rng = np.random.default_rng(171)
    panel = random_panel(rng, 6, 5, 3)
    fit = fit_qr(panel, 0.5)
    from_pipeline = (score_matrix(panel, fit.beta_hat, 0.5),
                     powell_jacobian(panel, fit.residuals, 1.0))
    by_hand = (random_scores(rng, 6, 5, 3), make_jacobian(np.eye(3) + 0.25))
    for scores, jac in (from_pipeline, by_hand):
        assert scores.scores.flags.writeable and jac.d_hat.flags.writeable
        for kind in (CrveKind.CG, CrveKind.CTW):
            before = sandwich(jac, omega_variant(scores, kind)).sigma_hat.tobytes()
            for arr in (scores.scores, jac.d_hat):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 1e6
                with pytest.raises(ValueError, match="read-only"):
                    arr *= 2.0
            assert sandwich(jac, omega_variant(scores, kind)).sigma_hat.tobytes() == before


def test_sandwich_rejects_singular_bread():
    om = omega_ctw(make_scores([[1.0], [2.0], [3.0], [4.0]],
                               [0, 0, 1, 1], [0, 1, 0, 1], 2, 2))
    singular = make_jacobian(np.zeros((1, 1)))
    for _ in range(2):  # a failed check is not kept, so it raises each time
        with pytest.raises(SingularJacobian):
            sandwich(singular, om)
    sm = random_scores(np.random.default_rng(137), 4, 4, 2)
    near_singular = make_jacobian(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
    for kind in (CrveKind.CTW, CrveKind.CG):
        with pytest.raises(SingularJacobian, match="eigenvalue ratio"):
            sandwich(near_singular, omega_variant(sm, kind), kind)


def test_t_test_null_equals_estimate():
    fit = make_fit([1.0, 2.5])
    var_est = sandwich(make_jacobian(np.eye(2)),
                       omega_ctw(random_scores(np.random.default_rng(139), 4, 4, 2)))
    res = t_test(fit, var_est, 1, 2.5)
    assert res.t_stat == 0.0
    assert res.p_value == 1.0
    assert res.coefficient_index == 1
    assert res.null_value == 2.5


def test_t_test_frozen_critical_value():
    # |t| = 1.959964 is the two-sided 5% normal critical point
    sm = make_scores([[1.0], [-1.0], [0.5], [-0.5]],
                     [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
    var_est = sandwich(make_jacobian(np.eye(1)), omega_ctw(sm))
    se = var_est.std_errors[0]
    fit = make_fit([1.959964 * se])
    res = t_test(fit, var_est, 0, 0.0)
    assert_allclose(res.t_stat, 1.959964, rtol=1e-12)
    assert abs(res.p_value - 0.05) <= 1e-6


def test_t_test_symmetry_and_normal_identity():
    sm = random_scores(np.random.default_rng(149), 5, 5, 1)
    var_est = sandwich(make_jacobian(np.eye(1)), omega_ctw(sm))
    se = var_est.std_errors[0]
    for mult in (0.3, 1.0, 2.2):
        up = t_test(make_fit([mult * se]), var_est, 0, 0.0)
        down = t_test(make_fit([-mult * se]), var_est, 0, 0.0)
        assert_allclose(up.p_value, down.p_value, rtol=1e-13)
        expect = 2.0 * (1.0 - scipy_norm.cdf(abs(up.t_stat)))
        assert_allclose(up.p_value, expect, atol=1e-12)


def test_t_test_zero_standard_error():
    sm = make_scores(np.zeros((4, 1)), [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
    var_est = sandwich(make_jacobian(np.eye(1)), omega_ctw(sm))
    with pytest.raises(ZeroStdError):
        t_test(make_fit([1.0]), var_est, 0, 0.0)


def scaled_column_t(panel, kind, ell, c=40.0, j=2):
    def pipeline(p):
        fit = fit_qr(p, 0.5)
        jac = powell_jacobian(p, fit.residuals, ell)
        sm = score_matrix(p, fit.beta_hat, 0.5)
        om = omega_variant(sm, kind)
        var_est = sandwich(jac, om)
        return t_test(fit, var_est, j, 0.0).t_stat, om

    base, om_base = pipeline(panel)
    x2 = panel.x.copy()
    x2[:, j] *= c
    scaled, om_scaled = pipeline(grid_panel(panel.G, panel.H, x2, panel.y))
    return base, scaled, om_base, om_scaled


def test_t_stat_invariant_to_regressor_scaling():
    # rescaling one regressor rescales beta and se together; the bandwidth
    # is held fixed because the rule of thumb itself is not scale-free in x
    rng = np.random.default_rng(151)
    panel = random_panel(rng, 10, 10, 3)
    ell = rule_of_thumb_bandwidth(panel, fit_qr(panel, 0.5).residuals, 0.5).ell
    for kind in (CrveKind.CG, CrveKind.CH, CrveKind.CI, CrveKind.CTW_II):
        base, scaled, _, _ = scaled_column_t(panel, kind, ell)
        assert_allclose(scaled, base, rtol=1e-8)


def test_ctw_t_stat_scale_invariant_when_unclipped():
    # the eigenvalue projection commutes with column scaling only when it is
    # inactive; congruence preserves eigenvalue signs, so clip counts match
    from twqr.montecarlo import DgpWeights, MonteCarloConfig, generate_dgp
    cfg = MonteCarloConfig(G=12, H=12, d=3, tau=0.5,
                           weights=DgpWeights(1.0, 1.0, 0.3, 1.0, 1.0, 0.3),
                           reps=1, seed=2)
    panel = generate_dgp(cfg, 0)
    ell = rule_of_thumb_bandwidth(panel, fit_qr(panel, 0.5).residuals, 0.5).ell
    base, scaled, om_base, om_scaled = scaled_column_t(panel, CrveKind.CTW, ell)
    assert om_base.clip_count_I == 0 and om_base.clip_count_II == 0
    assert om_scaled.clip_count_I == 0 and om_scaled.clip_count_II == 0
    assert_allclose(scaled, base, rtol=1e-8)
