"""Check-loss minimization and quantile scores.

The fit minimizes the exact LP reformulation of the check loss,

    min  tau * 1'u + (1 - tau) * 1'v   s.t.  y - X beta = u - v,  u, v >= 0,

with a Mehrotra predictor-corrector primal-dual interior-point method on
the bounded dual

    max  y'a   s.t.  X'a = (1 - tau) X'1,  0 <= a <= 1.

Each iteration factorizes one d-by-d normal matrix, so the cost per step is
O(n d^2). The method is deterministic and, among non-unique minimizers,
converges to a well-centered point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DimensionMismatch, InvalidTau, RankDeficient
from .panel import RANK_TOL, PanelArray

__all__ = ["QuantileFit", "ScoreMatrix", "check_loss", "fit_qr", "score_matrix"]

DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_STEP_SHRINK = 0.9995  # fraction-to-boundary


@dataclass(frozen=True)
class SolverInfo:
    iterations: int
    duality_gap: float
    converged: bool


@dataclass(frozen=True)
class QuantileFit:
    """Result of a quantile regression fit.

    ``objective`` is the attained check-loss sum; ``duality_gap`` bounds its
    distance to the true optimum via the LP dual certificate.
    """

    tau: float
    beta_hat: np.ndarray
    residuals: np.ndarray
    objective: float
    solver: SolverInfo


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-cell estimated quantile scores, aligned with the source panel."""

    scores: np.ndarray  # (n, d)
    g_idx: np.ndarray
    h_idx: np.ndarray
    G: int
    H: int

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def d(self) -> int:
        return self.scores.shape[1]


def check_loss(u, tau: float):
    """Asymmetric absolute loss ``u * (tau - 1{u <= 0})``.

    Vectorized over ``u``; nonnegative, and zero only at ``u == 0``.
    """
    _require_tau(tau)
    u = np.asarray(u, dtype=np.float64)
    out = u * (tau - (u <= 0.0))
    return float(out) if out.ndim == 0 else out


def _require_tau(tau: float) -> None:
    if not (0.0 < tau < 1.0) or not np.isfinite(tau):
        raise InvalidTau(tau)


def _primal_step(a: np.ndarray, s: np.ndarray, d_a: np.ndarray) -> float:
    """Fraction-to-boundary step keeping a + alpha*d_a and s - alpha*d_a positive.

    Where d_a < 0 the ratio is a / |d_a|, where d_a > 0 it is s / |d_a|, and
    a zero direction of either sign gives inf, so one pass covers both bounds.
    """
    with np.errstate(divide="ignore"):
        ratio = np.where(d_a < 0, a, s) / np.abs(d_a)
    return min(1.0, _STEP_SHRINK * float(ratio.min()))


def _dual_step(z: np.ndarray, d_z: np.ndarray, w: np.ndarray, d_w: np.ndarray) -> float:
    """Fraction-to-boundary step keeping z + alpha*d_z and w + alpha*d_w positive.

    A nonnegative direction divides by +0.0 and gives inf, so it never binds.
    This needs ``np.maximum(-0.0, 0.0)`` to return the second operand, +0.0;
    test_solver's step-length property checks it.
    """
    with np.errstate(divide="ignore"):
        ratio = min((z / np.maximum(-d_z, 0.0)).min(), (w / np.maximum(-d_w, 0.0)).min())
    return min(1.0, _STEP_SHRINK * float(ratio))


def _interior_point(x, y, tau, gap_tol, max_iter):
    """Solve the check-loss LP; returns (beta, residuals, objective,
    iterations, gap, converged), the residuals and objective being beta's.

    ``gap`` is the certified duality gap objective(beta) - dual value, an
    upper bound on the objective suboptimality of the returned beta. A
    non-finite or numerically indefinite normal matrix ends the loop early
    with ``converged = False``. The rank check reads the singular values
    that the ``lstsq`` start returns.
    """
    n, d = x.shape
    xt1 = x.sum(axis=0)
    b_eq = (1.0 - tau) * xt1
    ysum = (1.0 - tau) * float(y.sum())

    # dual multiplier lam relates to coefficients via beta = -lam
    beta0, _, _, sv = np.linalg.lstsq(x, y, rcond=None)
    if sv.size == 0 or sv[0] == 0.0 or np.sum(sv > RANK_TOL * sv[0]) < d:
        raise RankDeficient(f"stacked design has numeric rank < d = {d}")
    lam = -beta0
    r0 = y - x @ beta0
    delta = max(1e-4, 0.1 * float(np.mean(np.abs(r0))) if n else 1e-4)
    w = np.maximum(r0, 0.0) + delta
    z = np.maximum(-r0, 0.0) + delta
    a = np.full(n, 1.0 - tau)
    s = np.full(n, tau)

    def certified(xl, a_vec):
        u = y + xl  # y - x @ beta with beta = -lam, bit for bit
        obj = float(np.sum(u * (tau - (u <= 0.0))))
        dual = float(y @ a_vec) - ysum
        return u, obj, obj - dual

    best_beta, best_u, best_obj = beta0, r0, np.inf
    it = 0
    for it in range(1, max_iter + 1):
        # np.dot, not @: matmul skips BLAS when x has a single column
        xl = np.dot(x, lam)
        u, obj, gap = certified(xl, a)
        if obj < best_obj:
            best_obj, best_beta, best_u = obj, -lam, u
        tol = gap_tol * (1.0 + abs(obj))
        r_p = b_eq - x.T @ a
        r_d = -y - xl - z + w
        if gap <= tol and np.abs(r_p).max(initial=0.0) <= tol and np.abs(r_d).max(initial=0.0) <= tol:
            return -lam, u, obj, it - 1, gap, True

        q = z / a + w / s
        qinv = 1.0 / q
        m = (x * qinv[:, None]).T @ x
        if not np.isfinite(m).all():
            break
        factor, info = dpotrf(m, lower=1, clean=0)
        if info != 0:
            break

        def solve_direction(rc1, rc2):
            rhs_n = r_d - rc1 / a + rc2 / s
            d_lam, _ = dpotrs(factor, r_p + x.T @ (qinv * rhs_n), lower=1)
            d_a = qinv * (np.dot(x, d_lam) - rhs_n)
            d_z = (rc1 - z * d_a) / a
            d_w = (rc2 + w * d_a) / s
            return d_lam, d_a, d_z, d_w

        # predictor (affine scaling, mu = 0)
        rc1 = -a * z
        rc2 = -s * w
        d_lam, d_a, d_z, d_w = solve_direction(rc1, rc2)
        ap = _primal_step(a, s, d_a)
        ad = _dual_step(z, d_z, w, d_w)
        comp = float(a @ z + s @ w)
        comp_aff = float(
            (a + ap * d_a) @ (z + ad * d_z) + (s - ap * d_a) @ (w + ad * d_w)
        )
        mu = (comp_aff / comp) ** 2 * comp_aff / (2 * n)

        # corrector with second-order terms, same factorization
        rc1 = mu - a * z - d_a * d_z
        rc2 = mu - s * w + d_a * d_w
        d_lam, d_a, d_z, d_w = solve_direction(rc1, rc2)
        ap = _primal_step(a, s, d_a)
        ad = _dual_step(z, d_z, w, d_w)

        a = a + ap * d_a
        s = s - ap * d_a
        lam = lam + ad * d_lam
        z = z + ad * d_z
        w = w + ad * d_w

    u, obj, gap = certified(np.dot(x, lam), a)
    if obj < best_obj:
        best_obj, best_beta, best_u = obj, -lam, u
    if best_u is r0:  # every objective was inf or nan: report the start's
        best_obj = float(np.sum(r0 * (tau - (r0 <= 0.0))))
    return best_beta, best_u, best_obj, it, gap, False


def fit_qr(panel: PanelArray, tau: float, gap_tol: float = DEFAULT_GAP_TOL,
           max_iter: int = DEFAULT_MAX_ITER) -> QuantileFit:
    """Fit linear quantile regression on a panel at level ``tau``.

    Parameters
    ----------
    panel : PanelArray
        Data; the stacked design must have full numeric rank.
    tau : float
        Quantile level in (0, 1).
    gap_tol : float
        Relative duality-gap tolerance; convergence requires
        ``gap <= gap_tol * (1 + |objective|)``.
    max_iter : int
        Iteration cap. On hitting it the best iterate is returned with
        ``solver.converged = False``; no exception is raised.

    Raises
    ------
    InvalidTau, RankDeficient
    """
    _require_tau(tau)
    beta, residuals, objective, iters, gap, converged = _interior_point(
        panel.x, panel.y, tau, gap_tol, max_iter
    )
    # a copy made once the loop's temporaries are freed: the loop's own array
    # kept them resident, raising a 250k-row fit's peak RSS from 153 to 168 MB
    residuals = residuals.copy()
    return QuantileFit(
        tau=float(tau),
        beta_hat=beta,
        residuals=residuals,
        objective=objective,
        solver=SolverInfo(iterations=iters, duality_gap=gap, converged=converged),
    )


def score_matrix(panel: PanelArray, beta, tau: float) -> ScoreMatrix:
    """Estimated quantile scores ``x * (tau - 1{y <= x . beta})`` per cell.

    The indicator compares the computed residual to zero exactly, with no
    tolerance band.
    """
    _require_tau(tau)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (panel.d,):
        raise DimensionMismatch(
            f"beta has shape {beta.shape}, expected ({panel.d},)"
        )
    resid = panel.y - panel.x @ beta
    weight = tau - (resid <= 0.0)
    scores = panel.x * weight[:, None]
    # crve keeps the meat blocks built from these scores on the ScoreMatrix
    scores.flags.writeable = False
    return ScoreMatrix(
        scores=scores,
        g_idx=panel.g_idx,
        h_idx=panel.h_idx,
        G=panel.G,
        H=panel.H,
    )
