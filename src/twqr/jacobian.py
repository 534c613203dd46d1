"""Kernel estimation of the sandwich "bread" and bandwidth selection.

The bread is the Jacobian of the population score, estimated with a uniform
kernel applied to fit residuals. Bandwidths come either from a Gaussian
rule of thumb driven by the MAD residual scale, or, for known designs, from
the AMSE-optimal formula fed with population moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import (
    DegenerateDesign,
    DegenerateScale,
    NonpositiveBandwidth,
    ZeroBias,
)
from .panel import PanelArray
from .solver import _require_tau

__all__ = [
    "JacobianEstimate",
    "BandwidthDiagnostics",
    "alpha",
    "rule_of_thumb_bandwidth",
    "powell_jacobian",
    "amse_optimal_bandwidth",
    "vech",
]

MAD_NORMALIZER = 0.6745


@dataclass(frozen=True)
class JacobianEstimate:
    """Uniform-kernel Jacobian estimate.

    ``d_hat`` is symmetric PSD by construction (a nonnegative sum of rank-1
    outer products); ``kernel_hits`` counts cells with ``|residual| <= ell``.
    """

    d_hat: np.ndarray
    bandwidth: float
    kernel_hits: int


@dataclass(frozen=True)
class BandwidthDiagnostics:
    """Rule-of-thumb bandwidth with the quantities entering the formula."""

    sigma_hat: float
    alpha_tau: float
    q_norm_mean: float   # (1/n) sum ||Q_gh||^2
    q_mean_norm: float   # ||(1/n) sum Q_gh||^2
    ell: float


def alpha(tau: float) -> float:
    """Gaussian-reference bias constant ``(1 - z)^2 phi(z)`` at ``z = ppf(tau)``."""
    _require_tau(tau)
    z = ndtri(tau)
    # the standard normal density as scipy.stats.norm.pdf computes it; on a
    # 0-d array, since numpy's scalar exp can differ in the last bit
    phi = np.exp(-np.asarray(z) ** 2 / 2.0) / np.sqrt(2 * np.pi)
    return float((1.0 - z) ** 2 * phi)


def _exact_median(v: np.ndarray) -> float:
    """Order-statistic median; lower median for even counts."""
    m = v.shape[0]
    k = (m - 1) // 2
    return float(np.partition(v, k)[k])


def vech(m: np.ndarray) -> np.ndarray:
    """Column-major lower-triangle half-vectorization of a symmetric matrix."""
    d = m.shape[0]
    rows, cols = np.triu_indices(d)
    return m[cols, rows]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def rule_of_thumb_bandwidth(panel: PanelArray, residuals, tau: float) -> BandwidthDiagnostics:
    """Gaussian rule-of-thumb bandwidth from MAD residual scale.

    Computes ``sigma * n^{-1/5} * (4.5 * mean||Q||^2 /
    (alpha(tau) * ||mean Q||^2))^{1/5}`` with ``Q = vech(x x')`` and
    ``sigma = MAD(residuals) / 0.6745``. The realized cell count ``n``
    stands in for the full grid size when cells are missing.
    """
    a_tau = alpha(tau)  # checks tau first
    residuals = np.asarray(residuals, dtype=np.float64)
    n = panel.n
    if n < 2:
        raise DegenerateScale("need at least 2 cells for a residual scale")
    # the extreme residuals of an unconverged fit can leave an inf or nan scale
    med = _exact_median(residuals)
    mad = _exact_median(np.abs(residuals - med))
    sigma = mad / MAD_NORMALIZER
    if sigma == 0.0:
        raise DegenerateScale("MAD of residuals is zero")
    # ||Q||^2 = sum_{i<=j} x_i^2 x_j^2 = (||x||^4 + sum_i x_i^4) / 2 and
    # mean Q = vech(X'X / n), so Q itself is never formed. That scale, or an
    # extreme design, leaves an ell of 0, inf or nan (np.divide gives inf when
    # the denominator underflows), which powell_jacobian rejects.
    x2 = panel.x * panel.x
    row_norm2 = x2.sum(axis=1)
    q_norm2 = 0.5 * (row_norm2 * row_norm2 + np.einsum("ij,ij->i", x2, x2))
    q_norm_mean = float(np.mean(q_norm2))
    q_mean = vech(panel.x.T @ panel.x / n)
    q_mean_norm = float(q_mean @ q_mean)
    if q_mean_norm == 0.0:
        raise DegenerateDesign("mean vech(x x') vanishes")
    ell = sigma * n ** (-0.2) * float(np.divide(4.5 * q_norm_mean, a_tau * q_mean_norm)) ** 0.2
    return BandwidthDiagnostics(
        sigma_hat=sigma,
        alpha_tau=a_tau,
        q_norm_mean=q_norm_mean,
        q_mean_norm=q_mean_norm,
        ell=float(ell),
    )


@np.errstate(over="ignore", invalid="ignore")
def powell_jacobian(panel: PanelArray, residuals, ell: float) -> JacobianEstimate:
    """Uniform-kernel Jacobian ``(1/(n ell)) sum K(u/ell) x x'``.

    ``K(u) = 0.5 * 1{|u| <= 1}``; the boundary ``|u| = ell`` counts as a hit.
    A subnormal ``ell`` can overflow D, which the sandwich rejects.
    """
    if not (ell > 0.0) or not np.isfinite(ell):
        raise NonpositiveBandwidth(f"bandwidth must be positive, got {ell}")
    residuals = np.asarray(residuals, dtype=np.float64)
    hits = np.abs(residuals) <= ell
    xk = panel.x[hits]
    d_hat = 0.5 * (xk.T @ xk) / (panel.n * ell)
    return JacobianEstimate(
        d_hat=0.5 * (d_hat + d_hat.T), bandwidth=float(ell), kernel_hits=int(hits.sum())
    )


def amse_optimal_bandwidth(trace_term: float, bias_vec, n: int) -> float:
    """AMSE-optimal bandwidth ``n^{-1/5} (4.5 trace / ||bias||^2)^{1/5}``.

    Oracle-facing: callers supply the population variance trace term and
    second-derivative bias vector of a known design.
    """
    bias_vec = np.atleast_1d(np.asarray(bias_vec, dtype=np.float64))
    bias_sq = float(bias_vec @ bias_vec)
    if bias_sq == 0.0:
        raise ZeroBias("bias vector is zero; AMSE has no interior minimum")
    if trace_term <= 0.0:
        raise ZeroBias("trace term must be positive")
    return float(n ** (-0.2) * (4.5 * trace_term / bias_sq) ** 0.2)
