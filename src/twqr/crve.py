"""Cluster-robust variance assembly and t-tests.

The two-way "meat" sums score cross-products within rows, within columns,
and on the diagonal, eigenvalue-corrects the two off-diagonal blocks, and
adds the pieces. One-way and intersection-only comparators reuse the same
building blocks: each estimator's meat is a fixed sum of them. The sandwich
combines the meat with the kernel Jacobian through a single Cholesky
factorization. The blocks and the factor are built once per panel and
shared by the five estimators.

Normalization divides by the squared realized cell count n^2, which equals
(GH)^2 on complete grids; pair sums range over pairs of present cells only.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs
from scipy.special import ndtr

from .errors import (
    NonFinite,
    SingularJacobian,
    TooFewClusters,
    ZeroStdError,
)
from .jacobian import JacobianEstimate
from .solver import QuantileFit, ScoreMatrix

__all__ = [
    "CrveKind",
    "OmegaComponents",
    "VarianceEstimate",
    "TestResult",
    "evc",
    "omega_ctw",
    "omega_variant",
    "sandwich",
    "t_test",
]


class CrveKind(enum.Enum):
    """Variance estimator family."""

    CTW = "ctw"        # two-way with eigenvalue correction
    CG = "cg"          # one-way, row clusters only
    CH = "ch"          # one-way, column clusters only
    CI = "ci"          # intersection only (i.i.d.-style)
    CTW_II = "ctw2"    # two-way, uncorrected double-counted diagonal


@dataclass(frozen=True)
class OmegaComponents:
    """Meat components; ``omega_total`` is the piece the sandwich consumes.

    ``omega_I_raw``/``omega_II_raw`` are the row/column cross-cell sums
    before eigenvalue correction; ``omega_I``/``omega_II`` after. The clip
    counts record how many eigenvalues the correction zeroed.
    """

    kind: CrveKind
    omega_I_raw: np.ndarray
    omega_II_raw: np.ndarray
    omega_I: np.ndarray
    omega_II: np.ndarray
    omega_diag: np.ndarray
    omega_total: np.ndarray
    clip_count_I: int = 0
    clip_count_II: int = 0


@dataclass(frozen=True)
class VarianceEstimate:
    kind: CrveKind
    d_hat: np.ndarray
    omega: OmegaComponents
    sigma_hat: np.ndarray
    std_errors: np.ndarray


@dataclass(frozen=True)
class TestResult:
    coefficient_index: int
    null_value: float
    t_stat: float
    p_value: float


def _evc_counted(m: np.ndarray) -> tuple[np.ndarray, int]:
    if not np.isfinite(m).all():
        raise NonFinite("matrix passed to eigenvalue correction has non-finite entries")
    sym = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(sym)
    clipped = int(np.sum(vals < 0.0))
    if clipped == 0:
        return sym, 0
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return 0.5 * (out + out.T), clipped


def evc(m: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clipping eigenvalues.

    The input is symmetrized as ``(M + M')/2`` first; negative eigenvalues
    are set to zero and the matrix reassembled. Idempotent.
    """
    out, _ = _evc_counted(np.asarray(m, dtype=np.float64))
    return out


# Blocks each estimator's meat adds, in summation order. "row"/"col" are the
# one-way cluster sums with the diagonal included, "I"/"II" the same sums
# without it after eigenvalue correction.
_TOTALS = {
    CrveKind.CTW: ("I", "II", "diag"),
    CrveKind.CG: ("row",),
    CrveKind.CH: ("col",),
    CrveKind.CI: ("diag",),
    CrveKind.CTW_II: ("row", "col"),
}

_ROW_TOO_FEW = "row clustering requires G >= 2"
_COL_TOO_FEW = "column clustering requires H >= 2"
# Margins each estimator needs at least two clusters in, checked in order,
# with the error a shortfall raises.
_NEEDS_TWO = {
    CrveKind.CTW: {"GH": "two-way CRVE requires G >= 2 and H >= 2"},
    CrveKind.CG: {"G": _ROW_TOO_FEW},
    CrveKind.CH: {"H": _COL_TOO_FEW},
    CrveKind.CI: {},
    CrveKind.CTW_II: {"G": _ROW_TOO_FEW, "H": _COL_TOO_FEW},
}


def _cluster_sums(psi: np.ndarray, idx: np.ndarray, count: int) -> np.ndarray:
    """Per-cluster score sums, shape (count, d), one bincount per column.

    Per column, not over one flat ``idx * d + k`` index: bincount copies
    read-only weights whole, and the scores arrive read-only.
    """
    return np.column_stack([np.bincount(idx, weights=col, minlength=count) for col in psi.T])


def _memoised(obj, name: str, build):
    """``build(obj)``, computed on the first call and kept on ``obj``.

    The inputs are frozen dataclasses, so the value is stored with
    ``object.__setattr__``; it is not a field and takes no part in equality.
    A build that raises stores nothing, so every later call raises again.
    """
    try:
        return vars(obj)[name]
    except KeyError:
        value = build(obj)
        object.__setattr__(obj, name, value)
        return value


def _build_meat_blocks(scores: ScoreMatrix) -> tuple[dict[str, np.ndarray], int, int]:
    norm2 = float(scores.n) ** 2
    psi = scores.scores
    # the blocks are kept on the ScoreMatrix, so its scores must not change
    psi.flags.writeable = False
    sg = _cluster_sums(psi, scores.g_idx, scores.G)
    sh = _cluster_sums(psi, scores.h_idx, scores.H)
    diag = psi.T @ psi / norm2
    row = sg.T @ sg / norm2
    col = sh.T @ sh / norm2
    i_raw = row - diag
    ii_raw = col - diag
    i_evc, clip_i = _evc_counted(i_raw)
    ii_evc, clip_ii = _evc_counted(ii_raw)
    blocks = {"I_raw": i_raw, "II_raw": ii_raw, "I": i_evc, "II": ii_evc,
              "diag": diag, "row": row, "col": col}
    # every kind's OmegaComponents shares these arrays
    for block in blocks.values():
        block.flags.writeable = False
    return blocks, clip_i, clip_ii


def omega_variant(scores: ScoreMatrix, kind: CrveKind) -> OmegaComponents:
    """Meat for any estimator family: a fixed sum of shared blocks.

    CG/CH are the full one-way cluster sums (PSD by construction), CI the
    diagonal alone, CTW_II the sum of both one-way matrices (PSD without
    eigenvalue correction, diagonal counted twice), CTW the corrected
    two-way assembly. Raw off-diagonal blocks use the identity
    ``sum_{h != h'} psi_gh psi_gh'^T = (sum_h psi_gh)(sum_h psi_gh)^T -
    sum_h psi_gh psi_gh^T`` per row (and symmetrically per column), so
    assembly is O(n d^2).

    The blocks are built on the first call for a ``ScoreMatrix`` and kept
    on it, read-only, so later kinds only add them up; that first call
    also makes the score array read-only.
    """
    kind = CrveKind(kind)
    for margins, message in _NEEDS_TWO[kind].items():
        if min(getattr(scores, m) for m in margins) < 2:
            raise TooFewClusters(message)
    blocks, clip_i, clip_ii = _memoised(scores, "_meat_blocks", _build_meat_blocks)
    # reduce, not sum: sum's 0 + x would turn -0.0 entries into 0.0
    total = functools.reduce(np.add, (blocks[b] for b in _TOTALS[kind]))
    return OmegaComponents(
        kind=kind,
        omega_I_raw=blocks["I_raw"],
        omega_II_raw=blocks["II_raw"],
        omega_I=blocks["I"],
        omega_II=blocks["II"],
        omega_diag=blocks["diag"],
        omega_total=0.5 * (total + total.T),
        clip_count_I=clip_i,
        clip_count_II=clip_ii,
    )


def omega_ctw(scores: ScoreMatrix) -> OmegaComponents:
    """Two-way meat, ``omega_variant(scores, CrveKind.CTW)``."""
    return omega_variant(scores, CrveKind.CTW)


def _jacobian_factor(d_hat: JacobianEstimate) -> np.ndarray:
    """Lower Cholesky factor of D, after the eigenvalue-ratio check."""
    d_mat = d_hat.d_hat
    # the factor is kept on the JacobianEstimate, so D must not change
    d_mat.flags.writeable = False
    vals = np.linalg.eigvalsh(d_mat)
    if vals[0] <= 1e-10 * max(vals[-1], 0.0):
        raise SingularJacobian(
            f"Jacobian min/max eigenvalue ratio {vals[0]:.3e}/{vals[-1]:.3e}"
        )
    return cho_factor(d_mat, lower=True)[0]


def sandwich(d_hat: JacobianEstimate, omega: OmegaComponents,
             kind: CrveKind | None = None) -> VarianceEstimate:
    """Sandwich ``D^{-1} Omega D^{-1}`` via one reused Cholesky factorization.

    The eigenvalue-ratio check and the factor of D are computed on the first
    call for a ``JacobianEstimate`` and kept on it for the other kinds; that
    first call also makes D read-only.
    """
    d_mat = d_hat.d_hat
    factor = _memoised(d_hat, "_factor", _jacobian_factor)
    # dpotrs is what cho_solve calls, without its per-call overhead; the
    # finiteness checks are the ones cho_solve makes
    half = dpotrs(factor, np.asarray_chkfinite(omega.omega_total), lower=1)[0]  # D^{-1} Omega
    sigma = dpotrs(factor, np.asarray_chkfinite(half.T), lower=1)[0].T          # D^{-1} Omega D^{-1}
    sigma = 0.5 * (sigma + sigma.T)
    diag = np.diag(sigma)
    std = np.sqrt(np.maximum(diag, 0.0))
    return VarianceEstimate(
        kind=kind if kind is not None else omega.kind,
        d_hat=d_mat,
        omega=omega,
        sigma_hat=sigma,
        std_errors=std,
    )


def t_test(fit: QuantileFit, var: VarianceEstimate, j: int,
           b0: float = 0.0) -> TestResult:
    """Two-sided t-test of coefficient ``j`` against ``b0``, normal reference."""
    se = float(var.std_errors[j])
    if not se > 0.0:
        raise ZeroStdError(f"standard error of coefficient {j} is not positive")
    t = (float(fit.beta_hat[j]) - b0) / se
    p = 2.0 * float(ndtr(-abs(t)))
    return TestResult(coefficient_index=j, null_value=float(b0), t_stat=t, p_value=p)
