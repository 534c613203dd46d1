"""Check-loss minimization and quantile scores.

The fit minimizes the exact LP reformulation of the check loss,

    min  tau * 1'u + (1 - tau) * 1'v   s.t.  y - X beta = u - v,  u, v >= 0,

with a Mehrotra predictor-corrector primal-dual interior-point method on
the bounded dual

    max  y'a   s.t.  X'a = (1 - tau) X'1,  0 <= a <= 1.

Each iteration factorizes one d-by-d normal matrix, so the cost per step is
O(n d^2). The method is deterministic and, among non-unique minimizers,
converges to a well-centered point.

With one regressor (d = 1) the minimizer is a weighted tau-quantile of the
ratios y_i / x_i: ``fit_qr`` finds it exactly with one sort, reports one
iteration, returns the midpoint of a flat optimum, and certifies it with the
same duality gap. ``max_iter = 0`` returns the ``lstsq`` start at any d.

An iteration allocates no n-vector: its vectors and the weighted design
are buffers made once per fit and filled through the ufuncs' output
argument, in the order and on the operands of the plain array expressions
named in the comments, so every element rounds as it would with one fresh
array per operation. The design shares one block with seven scratch
vectors, which are dead while it lives. The fraction-to-boundary steps are
branch-free: the primal ratio is ``max(a / -d_a, s / d_a)`` rather than a
select on the sign of ``d_a``.
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
    """Raise InvalidTau unless 0 < tau < 1, which NaN and +-inf fail too."""
    if not 0.0 < tau < 1.0:
        raise InvalidTau(tau)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _primal_step(a: np.ndarray, s: np.ndarray, d_a: np.ndarray,
                 t1: np.ndarray, t2: np.ndarray) -> float:
    """Fraction-to-boundary step keeping a + alpha*d_a and s - alpha*d_a positive.

    For positive a and s, ``max(a / -d_a, s / d_a)`` is the bounding ratio
    a / |d_a| where d_a < 0 and s / |d_a| where d_a > 0, since the other
    quotient is negative; a zero direction of either sign makes exactly one
    quotient +inf, and a NaN direction makes both NaN. The two quotients
    are written into the scratch vectors ``t1`` and ``t2``, and this
    branch-free select rounds as the masked ratio does. Only the sign of a
    zero ratio can differ (d_a = +inf gives -0.0), so ``+ 0.0`` clears it.
    """
    # t1 = a / -d_a, t2 = s / d_a
    np.divide(a, np.negative(d_a, t1), t1)
    np.divide(s, d_a, t2)
    ratio = float(np.maximum(t1, t2, out=t1).min()) + 0.0
    return min(1.0, _STEP_SHRINK * ratio)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _dual_step(z: np.ndarray, d_z: np.ndarray, w: np.ndarray, d_w: np.ndarray,
               t: np.ndarray) -> float:
    """Fraction-to-boundary step keeping z + alpha*d_z and w + alpha*d_w positive.

    A nonnegative direction divides by +0.0 and gives inf, so it never binds.
    This needs ``np.maximum(-0.0, 0.0)`` to return the second operand, +0.0;
    test_solver's step-length property checks it. ``t`` is scratch.
    """
    # t = z / np.maximum(-d_z, 0.0), then w / np.maximum(-d_w, 0.0)
    rz = np.divide(z, np.maximum(np.negative(d_z, t), 0.0, out=t), t).min()
    rw = np.divide(w, np.maximum(np.negative(d_w, t), 0.0, out=t), t).min()
    return min(1.0, _STEP_SHRINK * float(min(rz, rw)))


@np.errstate(over="ignore", invalid="ignore")
def _interior_point(x, y, tau, gap_tol, max_iter):
    """Solve the check-loss LP; returns (beta, residuals, objective,
    iterations, gap, converged), the residuals and objective being beta's.

    ``gap`` is the certified duality gap objective(beta) - dual value, an
    upper bound on the objective suboptimality of the returned beta. A
    non-finite or numerically indefinite normal matrix ends the loop early
    with ``converged = False``; that is where the overflows and NaNs of a
    design of extreme magnitude end up, so they raise no RuntimeWarning.
    The rank check reads the singular values that the ``lstsq`` start
    returns.

    Every n-vector of an iteration lives in a buffer allocated once per fit
    and is filled through the ufuncs' output argument, passed positionally
    (a keyword is parsed anew in each of the hundred-odd calls of an
    iteration) except to np.maximum, where numpy 2.4 deprecates that. Each
    chain's comment names the array expression it computes, operation for
    operation, so every element rounds as that expression does. The
    iterates a, s, z, w are updated in place; ``lam`` is a fresh d-vector
    each iteration, so the best iterate is kept as its ``lam`` and its
    objective alone.

    The buffers are ``r_d``, ``qinv`` and one C-ordered block of max(d, 7)
    rows of n. The block's first seven rows are ``d_a``, ``d_z``, ``d_w``,
    ``rc1``, ``rc2`` and the scratch ``t1`` and ``t2``; its first n * d
    elements are the n-by-d weighted design ``xq``. ``xq`` lives only from
    the product that fills it to the Gram product, a span in which none of
    the seven holds a live value. ``xl`` and ``rhs_n`` live in ``t2``,
    since ``xl`` is dead once ``r_d`` is formed and ``rhs_n`` once ``d_a``
    is. Each iteration's residual is written into ``rc1``, which holds no
    live value from the top of the loop to the predictor, and read only up
    to the convergence test. The returned residual is one copy of it: a
    converged fit's own, or an unconverged fit's recomputed into ``rc1``
    from the best ``lam`` with the same operands. The start's residual is
    not kept; a fit whose every objective is inf or NaN recomputes it.
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
    del r0
    a = np.full(n, 1.0 - tau)
    s = np.full(n, tau)

    r_d, qinv = np.empty(n), np.empty(n)
    block = np.empty((max(d, 7), n))
    d_a, d_z, d_w, rc1, rc2, t1, t2 = block[:7]
    xq = block.reshape(-1)[:n * d].reshape(n, d)
    xl = rhs_n = t2

    def certified(xl, a_vec):
        """Objective and gap of beta = -lam, xl being x @ lam; the
        residual is left in rc1."""
        u = np.add(y, xl, rc1)  # y - x @ beta with beta = -lam, bit for bit
        # obj = sum(u * (tau - (u <= 0.0))), the comparison's 0/1 in float
        np.subtract(tau, np.less_equal(u, 0.0, t1), t1)
        obj = float(np.sum(np.multiply(u, t1, t1)))
        dual = float(y @ a_vec) - ysum
        return obj, obj - dual

    def solve_direction(factor, r_p):
        """Newton direction for the rc1, rc2 buffers; fills d_a, d_z, d_w."""
        # rhs_n = r_d - rc1 / a + rc2 / s
        np.subtract(r_d, np.divide(rc1, a, rhs_n), rhs_n)
        np.add(rhs_n, np.divide(rc2, s, t1), rhs_n)
        d_lam, _ = dpotrs(factor, r_p + x.T @ np.multiply(qinv, rhs_n, t1), lower=1)
        # d_a = qinv * (np.dot(x, d_lam) - rhs_n)
        np.multiply(qinv, np.subtract(np.dot(x, d_lam, d_a), rhs_n, d_a), d_a)
        # d_z = (rc1 - z * d_a) / a
        np.divide(np.subtract(rc1, np.multiply(z, d_a, d_z), d_z), a, d_z)
        # d_w = (rc2 + w * d_a) / s
        np.divide(np.add(rc2, np.multiply(w, d_a, d_w), d_w), s, d_w)
        return d_lam

    best_lam, best_obj = None, np.inf
    it = 0
    for it in range(1, max_iter + 1):
        # np.dot, not @: matmul skips BLAS when x has a single column
        np.dot(x, lam, xl)
        obj, gap = certified(xl, a)
        if obj < best_obj:
            best_obj, best_lam = obj, lam
        tol = gap_tol * (1.0 + abs(obj))
        r_p = b_eq - x.T @ a
        # r_d = -y - xl - z + w
        np.add(np.subtract(np.subtract(np.negative(y, r_d), xl, r_d), z, r_d), w, r_d)
        if (gap <= tol and np.abs(r_p).max(initial=0.0) <= tol
                and np.abs(r_d, t1).max(initial=0.0) <= tol):
            return -lam, rc1.copy(), obj, it - 1, gap, True

        # qinv = 1.0 / (z / a + w / s)
        np.add(np.divide(z, a, qinv), np.divide(w, s, t1), qinv)
        np.divide(1.0, qinv, qinv)
        # m = (x * qinv[:, None]).T @ x
        m = np.multiply(x, qinv[:, None], xq).T @ x
        if not np.isfinite(m).all():
            break
        factor, info = dpotrf(m, lower=1, clean=0)
        if info != 0:
            break

        # predictor (affine scaling, mu = 0): rc1 = -a * z, rc2 = -s * w
        np.multiply(np.negative(a, rc1), z, rc1)
        np.multiply(np.negative(s, rc2), w, rc2)
        solve_direction(factor, r_p)
        ap = _primal_step(a, s, d_a, t1, t2)
        ad = _dual_step(z, d_z, w, d_w, t1)
        comp = float(a @ z + s @ w)
        # comp_aff = (a + ap * d_a) @ (z + ad * d_z) + (s - ap * d_a) @ (w + ad * d_w)
        aff_az = (np.add(a, np.multiply(ap, d_a, t1), t1)
                  @ np.add(z, np.multiply(ad, d_z, t2), t2))
        aff_sw = (np.subtract(s, np.multiply(ap, d_a, t1), t1)
                  @ np.add(w, np.multiply(ad, d_w, t2), t2))
        comp_aff = float(aff_az + aff_sw)
        mu = (comp_aff / comp) ** 2 * comp_aff / (2 * n)

        # corrector with second-order terms, same factorization:
        # rc1 = mu - a * z - d_a * d_z, rc2 = mu - s * w + d_a * d_w
        np.subtract(np.subtract(mu, np.multiply(a, z, rc1), rc1),
                    np.multiply(d_a, d_z, t1), rc1)
        np.add(np.subtract(mu, np.multiply(s, w, rc2), rc2),
               np.multiply(d_a, d_w, t1), rc2)
        d_lam = solve_direction(factor, r_p)
        ap = _primal_step(a, s, d_a, t1, t2)
        ad = _dual_step(z, d_z, w, d_w, t1)

        # a += ap * d_a, s -= ap * d_a, z += ad * d_z, w += ad * d_w
        np.multiply(ap, d_a, t1)
        np.add(a, t1, a)
        np.subtract(s, t1, s)
        lam = lam + ad * d_lam
        np.add(z, np.multiply(ad, d_z, t1), z)
        np.add(w, np.multiply(ad, d_w, t1), w)

    obj, gap = certified(np.dot(x, lam, xl), a)
    if obj < best_obj:
        best_obj, best_lam = obj, lam
    if best_lam is None:  # every objective was inf or nan: report the start's
        best_u = y - x @ beta0
        return beta0, best_u, float(np.sum(best_u * (tau - (best_u <= 0.0)))), it, gap, False
    certified(np.dot(x, best_lam, xl), a)  # the best iterate's residual, into rc1
    return -best_lam, rc1.copy(), best_obj, it, gap, False


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _one_regressor_fit(x, y, tau, gap_tol):
    """Solve the one-column check-loss LP exactly; returns the six fields
    of ``_interior_point``, with one iteration.

    A cell puts a kink of size |x_i| at r_i = y_i / x_i, and left of all
    kinks the slope is -(tau |x_i| summed over x_i > 0 and (1 - tau) |x_i|
    over x_i < 0), so the first sorted ratio where the running sum of |x|
    reaches that weight is a minimizer. The dual vector is 1{x < 0} below
    it, 1{x > 0} above it and 1{y > 0} where x = 0; the breakpoint's entry,
    clipped to [0, 1], closes x'a = (1 - tau) x'1. A breakpoint that
    overflows leaves a non-finite gap, reported unconverged.
    """
    x = x[:, 0]
    if not x.any():
        raise RankDeficient("stacked design has numeric rank < d = 1")
    # y / 0 is +-inf or nan, so a zero-x cell sorts to an end, where its zero
    # weight leaves it off the breakpoint; its dual entry is added apart
    ratio = y / x
    order = np.argsort(ratio)
    ratio, xs = ratio[order], x[order]
    abs_x = np.abs(xs)
    cum = np.cumsum(abs_x)
    neg = xs < 0.0
    s_neg = float(abs_x @ neg)
    target = tau * (cum[-1] - s_neg) + (1.0 - tau) * s_neg
    # the slope just right of sorted ratio k is cum[k] - target
    k = min(int(np.searchsorted(cum, target)), cum.size - 1)
    beta = ratio[k]
    if cum[k] == target and k + 1 < cum.size:  # flat up to the next ratio
        beta = 0.5 * ratio[k] + 0.5 * ratio[k + 1]
    a = neg.astype(np.float64)
    a[k + 1:] = xs[k + 1:] > 0.0
    a[k] = 0.0
    a[k] = min(max(((1.0 - tau) * float(x.sum()) - float(xs @ a)) / xs[k], 0.0), 1.0)
    dual = (float(y[order] @ a) + float(np.maximum(y[x == 0.0], 0.0).sum())
            - (1.0 - tau) * float(y.sum()))
    u = y - x * beta
    obj = float(np.sum(u * (tau - (u <= 0.0))))
    gap = obj - dual
    converged = bool(np.isfinite(gap) and gap <= gap_tol * (1.0 + abs(obj)))
    return np.array([beta]), u, obj, 1, gap, converged


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
        Convergence requires ``gap <= gap_tol * (1 + |objective|)``, a
        test that is absolute, not relative, when ``|objective| << 1``.
    max_iter : int
        Iteration cap. On hitting it the best iterate is returned with
        ``solver.converged = False``; no exception is raised. With
        ``max_iter = 0`` the ``lstsq`` start is returned, with 0 iterations
        and ``converged = False``.

    A one-column design (d = 1) with ``max_iter >= 1`` is solved exactly by
    sorting the ratios y / x: ``solver.iterations`` is 1, a flat optimum
    gives the midpoint of its interval, and ``duality_gap`` and
    ``converged`` come from the same dual certificate and test as the
    interior-point method's.

    Raises
    ------
    InvalidTau, RankDeficient
    """
    _require_tau(tau)
    if panel.d == 1 and max_iter >= 1:
        result = _one_regressor_fit(panel.x, panel.y, tau, gap_tol)
    else:
        result = _interior_point(panel.x, panel.y, tau, gap_tol, max_iter)
    beta, residuals, objective, iters, gap, converged = result
    return QuantileFit(
        tau=float(tau),
        beta_hat=beta,
        residuals=residuals,
        objective=objective,
        solver=SolverInfo(iterations=iters, duality_gap=gap, converged=converged),
    )


@np.errstate(over="ignore", invalid="ignore")
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
    # an unconverged fit's beta can overflow x @ beta; inf and nan compare too
    resid = panel.y - panel.x @ beta
    weight = tau - (resid <= 0.0)
    return ScoreMatrix(
        scores=panel.x * weight[:, None],
        g_idx=panel.g_idx,
        h_idx=panel.h_idx,
        G=panel.G,
        H=panel.H,
    )
