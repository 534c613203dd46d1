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

With d >= 2 and at least ``_PREPROCESS_MIN_N`` cells, ``fit_qr`` first
tries Portnoy and Koenker's preprocessing (``_preprocessed_fit``): the LP
is solved on a subproblem of about ((d + 1) n)^(2/3) cells, and the result
is certified on the full panel or the full interior point runs instead.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .errors import DimensionMismatch, InvalidTau, RankDeficient
from .panel import RANK_TOL, PanelArray

__all__ = ["QuantileFit", "ScoreMatrix", "check_loss", "fit_qr", "score_matrix"]

DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_STEP_SHRINK = 0.9995  # fraction-to-boundary

# Preprocessing (Portnoy and Koenker 1997); see _preprocessed_fit
_PREPROCESS_MIN_N = 10_000  # the measured crossover
_PREPROCESS_GAP_TOL = 1e-11  # the reduced solve's tolerance
_BAND_SHARE = 0.8  # of the subsample size: the cells kept between the globs
_MAX_FIXUPS = 3
_BAND_CHUNK_ROWS = 4096


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


def _converged(gap: float, obj: float, gap_tol: float, *violations) -> bool:
    """Every fit path's stopping rule: the gap is finite, and it and each of
    ``violations`` (callables returning a largest absolute infeasibility, each
    called only after those before it pass) are at most gap_tol * (1 + |obj|)."""
    tol = gap_tol * (1.0 + abs(obj))
    return math.isfinite(gap) and gap <= tol and all(v() <= tol for v in violations)


def _lstsq_start(x, y):
    """The least-squares coefficients; raises RankDeficient when the
    singular values that ``lstsq`` returns give a numeric rank below d."""
    d = x.shape[1]
    beta0, _, _, sv = np.linalg.lstsq(x, y, rcond=None)
    if sv.size == 0 or sv[0] == 0.0 or np.sum(sv > RANK_TOL * sv[0]) < d:
        raise RankDeficient(f"stacked design has numeric rank < d = {d}")
    return beta0


@np.errstate(over="ignore", invalid="ignore")
def _interior_point(x, y, tau, gap_tol, max_iter, dual_out=None):
    """Solve the check-loss LP; returns (beta, residuals, objective,
    iterations, gap, converged), the residuals and objective being beta's.
    A converged fit also copies its dual vector ``a`` into ``dual_out``,
    an n-vector, when one is given.

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
    beta0 = _lstsq_start(x, y)
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
        r_p = b_eq - x.T @ a
        # r_d = -y - xl - z + w
        np.add(np.subtract(np.subtract(np.negative(y, r_d), xl, r_d), z, r_d), w, r_d)
        if _converged(gap, obj, gap_tol, lambda: np.abs(r_p).max(initial=0.0),
                      lambda: np.abs(r_d, t1).max(initial=0.0)):
            if dual_out is not None:
                dual_out[:] = a
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
        return beta0, best_u, float(np.sum(check_loss(best_u, tau))), it, gap, False
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
    obj = float(np.sum(check_loss(u, tau)))
    gap = obj - dual
    return np.array([beta]), u, obj, 1, gap, _converged(gap, obj, gap_tol)


def _subsample(n: int, m: int) -> np.ndarray:
    """m distinct cell indices, increasing, drawn from a stream keyed by n."""
    return np.sort(np.random.default_rng(n).choice(n, m, replace=False))


def _scaled_residuals(x, y, beta, factor):
    """(y - x beta) / max(sqrt(x_i' (X_s' X_s)^-1 x_i), 1e-6) for each cell,
    ``factor`` being the lower Cholesky factor of the subsample's X_s' X_s.
    The quadratic form is formed over chunks of rows, so no n-by-d array is
    allocated."""
    n = x.shape[0]
    linv_t = dtrtri(factor, lower=1)[0].T
    band = np.empty(n)
    for lo in range(0, n, _BAND_CHUNK_ROWS):
        t = x[lo:lo + _BAND_CHUNK_ROWS] @ linv_t
        np.einsum("ij,ij->i", t, t, out=band[lo:lo + _BAND_CHUNK_ROWS])
    np.maximum(np.sqrt(band, band), 1e-6, out=band)
    resid = np.dot(x, beta)
    return np.divide(np.subtract(y, resid, resid), band, band)


def _reduced_solve(x, y, tau, gap_tol, max_iter, below, above):
    """Solve the LP on the cells in neither mask plus one pseudo-cell per
    nonempty mask, the sum of its cells' x and y; returns beta, the
    iterations and the reduced dual scattered back to the n cells (a
    pseudo-cell's entry to each of its cells), or None when that solve
    does not converge or its design is rank deficient."""
    keep = ~(below | above)
    globs = [mask for mask in (below, above) if mask.any()]
    weights = [mask.astype(np.float64) for mask in globs]
    x_r = np.vstack([x[keep], *(w @ x for w in weights)])
    y_r = np.concatenate([y[keep], [w @ y for w in weights]])
    del weights
    a_r = np.empty(y_r.size)
    try:
        beta, _, _, iterations, _, converged = _interior_point(
            x_r, y_r, tau, min(gap_tol, _PREPROCESS_GAP_TOL), max_iter, a_r)
    except RankDeficient:
        return None
    if not converged:
        return None
    k = y_r.size - len(globs)
    a = np.empty(x.shape[0])
    a[keep] = a_r[:k]
    for entry, mask in zip(a_r[k:], globs):
        a[mask] = entry
    return beta, iterations, a


@np.errstate(over="ignore", invalid="ignore")
def _preprocessed_fit(x, y, tau, gap_tol, max_iter):
    """Solve the check-loss LP on a globbed subproblem (Portnoy and Koenker
    1997, "The Gaussian hare and the Laplacian tortoise", section 3);
    returns the six fields of ``_interior_point`` for the full panel, or
    None where the full interior point must solve it.

    1. ``_interior_point`` fits a subsample of m = ((d + 1) n)^(2/3) cells
       (rounded), drawn from a stream keyed by n, so it depends on the
       panel's shape alone.
    2. Each cell's residual from that fit, over sqrt(x_i' (X_s' X_s)^-1
       x_i), is its scaled residual. The cells whose scaled residual lies
       between its quantiles at tau -+ 0.4 m / n are kept; those below are
       globbed into one pseudo-cell, the sum of their x and y, and those
       above into another.
    3. ``_interior_point`` solves that reduced LP at a tolerance of
       ``_PREPROCESS_GAP_TOL``, or ``gap_tol`` when that is tighter. At the
       reduced optimum every globbed cell whose residual has the wrong sign
       (positive below, negative above) moves into the kept cells and the
       LP is solved again, at most ``_MAX_FIXUPS`` times. More than
       0.1 * 0.8 m wrong signs, or a fix-up too many, starts over from a
       subsample of 2 m. That retry carries traffic: at G = H = 101 and
       d = 4 it is what certifies most panels with integer responses on
       binary regressors, or with heteroskedastic errors on high-leverage
       rows (test_solver pins one of each).
    4. With every globbed sign right, the check loss of each pseudo-cell
       equals the sum of its cells', so the reduced optimum is the full
       one. The returned residuals, objective and duality gap are the full
       panel's, with the reduced dual scattered back to the cells; the
       fit is returned only when ``_converged`` passes it at ``gap_tol``,
       with the primal infeasibility as its one violation. ``iterations``
       is the sum over every inner solve.

    None is returned, before any solve, when 2 m > n; and when a
    subsample is rank deficient, an inner solve does not converge within
    ``max_iter``, the doubled subsample fails too or the certificate
    misses. The full design's ``lstsq`` rank check runs first, so
    RankDeficient is raised exactly where ``_interior_point`` raises it.
    No n-by-d array is allocated beyond ``x``.

    The inner tolerance is tighter than the default 1e-8 because the
    reduced LP's optimal face is not the full one's: at 1e-8 the beta of
    the benchmark panel at seed 29 (n = 250,000, d = 10) moved by
    1.5e-6 (1 + |beta|) from the full solve's, at 1e-11 by 1.9e-9.

    ``fit_qr`` sends d >= 2 fits here from ``_PREPROCESS_MIN_N`` cells on,
    where this path first ran faster. The ratio is the full interior
    point's median time over this path's, on the acceptance two-way design
    at G = H (tau = 0.5, 2 vCPUs, one OpenBLAS thread, five panels per
    size, three from 90,000 cells on):

    ============  =====  =====  ======  ======  ======  ======  ======  =======
    n             2,500  4,900  10,000  14,400  22,500  40,000  90,000  250,000
    ============  =====  =====  ======  ======  ======  ======  ======  =======
    d = 3 ratio    0.75   0.90    1.37    1.67    2.18    2.78    3.52     5.78
    d = 10 ratio   0.73   0.86    1.21    1.52    1.81    2.55    3.22     3.79
    ============  =====  =====  ======  ======  ======  ======  ======  =======
    """
    n, d = x.shape
    m = round(((d + 1) * n) ** (2 / 3))
    sizes = [size for size in (m, 2 * m) if 2 * size <= n]
    if not sizes:
        return None
    _lstsq_start(x, y)
    iterations = 0
    for size in sizes:
        cells = _subsample(n, size)
        x_s = x[cells]
        try:
            beta, _, _, its, _, converged = _interior_point(
                x_s, y[cells], tau, gap_tol, max_iter)
        except RankDeficient:
            return None
        factor, info = dpotrf(x_s.T @ x_s, lower=1, clean=1)
        if not converged or info != 0:
            return None
        iterations += its
        kept = _BAND_SHARE * size
        scaled = _scaled_residuals(x, y, beta, factor)
        lo, hi = np.quantile(scaled, [max(1.0 / n, tau - kept / (2 * n)),
                                      min(tau + kept / (2 * n), (n - 1) / n)])
        below, above = scaled < lo, scaled > hi
        del scaled
        for _ in range(_MAX_FIXUPS + 1):
            solved = _reduced_solve(x, y, tau, gap_tol, max_iter, below, above)
            if solved is None:
                return None
            beta, its, a = solved
            iterations += its
            u = y - x @ beta
            wrong = (below & (u > 0.0)) | (above & (u < 0.0))
            count = int(np.count_nonzero(wrong))
            if count == 0:
                obj = float(np.sum(check_loss(u, tau)))
                gap = obj - (float(y @ a) - (1.0 - tau) * float(y.sum()))
                r_p = (1.0 - tau) * x.sum(axis=0) - x.T @ a
                if _converged(gap, obj, gap_tol, lambda: np.abs(r_p).max()):
                    return beta, u, obj, iterations, gap, True
                return None
            if count > 0.1 * kept:
                break
            below &= ~wrong
            above &= ~wrong
    return None


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
        Convergence requires a finite ``gap <= gap_tol * (1 + |objective|)``,
        a test that is absolute, not relative, when ``|objective| << 1``.
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

    A design with d >= 2, at least ``_PREPROCESS_MIN_N`` cells and
    ``max_iter >= 1`` is solved by ``_preprocessed_fit`` where that
    certifies its result on the full panel; ``solver.iterations`` then
    sums its inner solves. Where it does not, the full interior point's
    result is returned as it is.

    Raises
    ------
    InvalidTau, RankDeficient
    """
    _require_tau(tau)
    if panel.d == 1 and max_iter >= 1:
        result = _one_regressor_fit(panel.x, panel.y, tau, gap_tol)
    elif panel.n >= _PREPROCESS_MIN_N and max_iter >= 1:
        result = (_preprocessed_fit(panel.x, panel.y, tau, gap_tol, max_iter)
                  or _interior_point(panel.x, panel.y, tau, gap_tol, max_iter))
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
