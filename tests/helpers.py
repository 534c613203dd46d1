"""Builders and references shared across the test modules."""

import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs

from twqr.errors import RankDeficient
from twqr.panel import RANK_TOL, PanelArray
from twqr.solver import _STEP_SHRINK


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="needs the fork start method")


def allow_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs the ones this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def grid_panel(G, H, x, y):
    """Balanced panel over the full G x H grid, row-major cell order."""
    g_idx = np.repeat(np.arange(G), H)
    h_idx = np.tile(np.arange(H), G)
    return PanelArray(G=G, H=H, g_idx=g_idx, h_idx=h_idx,
                      y=np.asarray(y, dtype=float),
                      x=np.asarray(x, dtype=float))


def reference_stream(seed, *key):
    """The counter-based stream keyed by (seed, *key), built the plain way:
    ``montecarlo``'s key schedule must reproduce its key and its draws."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def traced_peak(fn, *args):
    """``fn(*args)`` and tracemalloc's peak during the call above what was
    traced when it began, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def random_panel(rng, G, H, d, noise=1.0):
    """Full grid, intercept plus standard normal slopes, y = x.1 + noise."""
    n = G * H
    x = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))]) if d > 1 \
        else np.ones((n, 1))
    y = x.sum(axis=1) + noise * rng.standard_normal(n)
    return grid_panel(G, H, x, y)


# The interior-point loop as it was written before it ran in reused buffers,
# one fresh array per operation; test_solver checks the buffered loop
# against it bit for bit.

def reference_primal_step(a: np.ndarray, s: np.ndarray, d_a: np.ndarray) -> float:
    """Fraction-to-boundary step keeping a + alpha*d_a and s - alpha*d_a positive.

    Where d_a < 0 the ratio is a / |d_a|, where d_a > 0 it is s / |d_a|, and
    a zero direction of either sign gives inf, so one pass covers both bounds.
    """
    with np.errstate(divide="ignore"):
        ratio = np.where(d_a < 0, a, s) / np.abs(d_a)
    return min(1.0, _STEP_SHRINK * float(ratio.min()))


def reference_dual_step(z: np.ndarray, d_z: np.ndarray, w: np.ndarray, d_w: np.ndarray) -> float:
    """Fraction-to-boundary step keeping z + alpha*d_z and w + alpha*d_w positive.

    A nonnegative direction divides by +0.0 and gives inf, so it never binds.
    This needs ``np.maximum(-0.0, 0.0)`` to return the second operand, +0.0;
    test_solver's step-length property checks it.
    """
    with np.errstate(divide="ignore"):
        ratio = min((z / np.maximum(-d_z, 0.0)).min(), (w / np.maximum(-d_w, 0.0)).min())
    return min(1.0, _STEP_SHRINK * float(ratio))


def reference_interior_point(x, y, tau, gap_tol, max_iter):
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
        ap = reference_primal_step(a, s, d_a)
        ad = reference_dual_step(z, d_z, w, d_w)
        comp = float(a @ z + s @ w)
        comp_aff = float(
            (a + ap * d_a) @ (z + ad * d_z) + (s - ap * d_a) @ (w + ad * d_w)
        )
        mu = (comp_aff / comp) ** 2 * comp_aff / (2 * n)

        # corrector with second-order terms, same factorization
        rc1 = mu - a * z - d_a * d_z
        rc2 = mu - s * w + d_a * d_w
        d_lam, d_a, d_z, d_w = solve_direction(rc1, rc2)
        ap = reference_primal_step(a, s, d_a)
        ad = reference_dual_step(z, d_z, w, d_w)

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
