"""Monte Carlo engine for two-way arrays.

Implements the additive latent-factor data generating process, rejection
frequency experiments across the variance estimator families, the one
inference sequence after a fit that both a replication and ``twqr fit``
run (``_infer``: the bandwidth, the Jacobian and the scores, then per
estimator the meat, the sandwich and the t-tests), an oracle
for the variance components of the quantile score (outer Monte Carlo
draws, conditional means in closed form), and a median-regression
demonstration of the multiplicative interaction regime whose limit is a
product of normals.

Every replication is a pure function of (seed, replication index) through
counter-based RNG streams, so results do not depend on worker counts:
stream ids partition row, column, and cell latents, error latents, and
regressor dimensions. Stream (rep, stream, j) is the Philox generator of
``SeedSequence(entropy=seed, spawn_key=(rep, stream, j))``, bit for bit;
its key comes from a key schedule that starts from numpy's own pool for the
seed and mixes the spawn-key words of a block of replications in as uint32
arrays, and each call site re-keys one Philox per stream instead of
building a SeedSequence and a generator for each. Both the size experiment
and the demo run their replications through one map, ``_replicate``:
contiguous groups of replications on ``panel._forked``'s processes, with
every OpenBLAS at one thread. The size experiment asks for ``n_jobs``
workers; the demo, like the CSV reader, leaves ``_forked`` one per CPU.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy.special import ndtr, ndtri

from .crve import CrveKind, omega_variant, sandwich, t_test
from .errors import (
    DegenerateDesign,
    DegenerateScale,
    ExcessiveFailureRate,
    InvalidConfig,
    NumericError,
    RankDeficient,
    SingularJacobian,
    ZeroStdError,
)
from .jacobian import powell_jacobian, rule_of_thumb_bandwidth
from .panel import PanelArray, _forked
from .solver import _require_tau, fit_qr, score_matrix

__all__ = [
    "DgpWeights",
    "MonteCarloConfig",
    "RejectionReport",
    "VarianceOracle",
    "NonGaussianDemo",
    "NonGaussianSummary",
    "generate_dgp",
    "true_beta",
    "rejection_experiment",
    "oracle_variance_components",
    "direct_score_variance",
    "true_bread",
    "nongaussian_demo",
    "config_from_json",
    "config_to_json",
    "report_to_json",
    "report_rows",
]

NOMINAL_LEVEL = 0.05
FAILURE_TOLERANCE = 0.01   # more than this share of failed reps aborts a run

# Stream ids: 0-2 row/column/cell regressor latents (substream per slope),
# 3-5 row/column/cell error latents; 8, 9 and 13 the oracle's row, column
# and cell draws (8 also the demo's reference sample); 14 the direct score
# variance. 10-12 held the oracle's former inner draws: retired, not reused.
_UX, _VX, _WX, _UE, _VE, _WE = 0, 1, 2, 3, 4, 5
_ORACLE_BASE = 8
_DIRECT_STREAM = 14

_REF_CALIBRATION_SIZE = 200_000


# --- keyed streams ---
#
# Stream (rep, stream, j) of a seed is the Philox generator of
# SeedSequence(entropy=seed, spawn_key=(rep, stream, j)). Its key is that
# SeedSequence's generate_state(2, np.uint64), computed here with numpy's
# pool mixing (numpy/random/bit_generator.pyx) over many spawn keys at
# once. The seed's words, zero-padded to the pool of four, mix in first, so
# their share is ``SeedSequence(seed).pool`` and a closed-form hash
# constant; each spawn-key word then mixes into the pool as one uint32
# column operation over every row.

_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # pool mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # state generation
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_KEY_BLOCK = 64  # replications per cached block of keys
_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.setflags(write=False)
# seeds each _keyed Philox, whose key is then set; a Philox built with no
# seed would first read OS entropy for a SeedSequence of its own
_UNUSED_SEED = np.random.SeedSequence(0)


def _hashmix(value: np.ndarray, hash_const: int, mult: int = _MULT_A):
    """numpy's hashmix of each word of a uint32 array, and the next hash
    constant; the array arithmetic wraps modulo 2**32."""
    hash_const_next = hash_const * mult & _MASK32
    value = (value ^ hash_const) * hash_const_next
    return value ^ value >> 16, hash_const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of two uint32 arrays, word by word."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _philox_keys(seed: int, spawn_keys) -> np.ndarray:
    """Philox keys, shape (m, 2) uint64, of ``SeedSequence(entropy=seed,
    spawn_key=row)`` for each of the m rows of ``spawn_keys``.

    Every spawn-key entry must lie in [0, 2**32), where it is one word.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    spawn_keys = np.asarray(spawn_keys)
    if spawn_keys.min() < 0 or spawn_keys.max() > _MASK32:
        raise InvalidConfig("replication numbers and stream ids must lie in [0, 2**32)")
    # mixing the seed's w words, zero-padded to the pool of four, takes
    # 4 * max(4, w) hashmix calls, each multiplying the hash constant by _MULT_A
    n_words = -(-seed.bit_length() // 32)
    hash_const = _INIT_A * pow(_MULT_A, 4 * max(_POOL_SIZE, n_words), 2**32) & _MASK32
    pool = [np.full(len(spawn_keys), word, dtype=np.uint32)
            for word in np.random.SeedSequence(seed).pool]
    for word in spawn_keys.T.astype(np.uint32):
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    words, hash_const = [], _INIT_B
    for word in pool:  # generate_state(2, np.uint64): four words, little end first
        value, hash_const = _hashmix(word, hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    return np.column_stack((words[0] | words[1] << 32, words[2] | words[3] << 32))


@functools.lru_cache(maxsize=16)
def _key_block(seed: int, block: int, layout: tuple) -> np.ndarray:
    """Read-only keys, shape (_KEY_BLOCK, len(layout), 2): entry [r, i] keys
    stream ``layout[i]``, a (stream, j) pair, of replication
    ``block * _KEY_BLOCK + r``."""
    spawn = np.empty((_KEY_BLOCK, len(layout), 3), dtype=np.int64)
    spawn[:, :, 0] = np.arange(block * _KEY_BLOCK, (block + 1) * _KEY_BLOCK)[:, None]
    spawn[:, :, 1:] = layout
    keys = _philox_keys(seed, spawn.reshape(-1, 3)).reshape(_KEY_BLOCK, len(layout), 2)
    keys.setflags(write=False)
    return keys


def _keyed(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator, keyed in turn by each row of ``keys``.

    A re-key sets a zero counter, a spent buffer and no stored half word,
    so each item draws what a fresh ``Philox(key=row)`` would. It is the
    same Generator each time: draw from an item before taking the next.
    """
    bits = np.random.Philox(_UNUSED_SEED)
    gen = np.random.Generator(bits)
    for key in keys:
        bits.state = {"bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
                      "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield gen


def _rep_streams(seed: int, rep: int, layout: tuple) -> Iterator[np.random.Generator]:
    """``_keyed`` over replication ``rep``'s streams, in ``layout`` order."""
    return _keyed(_key_block(seed, rep // _KEY_BLOCK, layout)[rep % _KEY_BLOCK])


def _number(name: str, v, integer: bool) -> int | float:
    """``v`` as an int or a float, named ``name`` in the error.

    Bools and strings are not numbers; an integer takes 1000.0 but not 4.7.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidConfig(f"{name} must be a number, got {v!r}")
    if not integer:
        return float(v)
    if isinstance(v, numbers.Integral) or float(v).is_integer():
        return int(v)
    raise InvalidConfig(f"{name} must be an integer, got {v!r}")


def _coerce_numbers(obj) -> None:
    """Make each ``int`` and ``float`` field of a frozen dataclass one."""
    for f in fields(obj):
        if f.type in ("int", "float"):  # string annotations: see the __future__ import
            v = _number(f.name, getattr(obj, f.name), f.type == "int")
            object.__setattr__(obj, f.name, v)


def _check_failures(n_fail: int, reps: int, suffix: str = "") -> None:
    """Abort a run in which more than FAILURE_TOLERANCE of the reps failed."""
    if n_fail > FAILURE_TOLERANCE * reps:
        raise ExcessiveFailureRate(f"{n_fail} of {reps} replications failed{suffix}")


def _check_keys(what: str, obj: dict, cls) -> None:
    """Reject keys that are not fields of ``cls``, and missing required ones."""
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfig(f"unknown {what} keys: {sorted(map(str, unknown))}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
    if missing:
        raise InvalidConfig(f"missing {what} keys: {sorted(missing)}")


@dataclass(frozen=True)
class DgpWeights:
    """Loadings of the row (U), column (V), and cell (W) latents.

    The first three weight the slope regressors, the last three the error.
    """

    wUx: float = 0.0
    wVx: float = 0.0
    wWx: float = 1.0
    wUe: float = 0.0
    wVe: float = 0.0
    wWe: float = 1.0

    def __post_init__(self):
        _coerce_numbers(self)
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidConfig(f"weight {f.name} must be finite and >= 0, got {v}")

    @property
    def sigma_e(self) -> float:
        """Error standard deviation (the three loads add in quadrature)."""
        return math.sqrt(self.wUe**2 + self.wVe**2 + self.wWe**2)

    @property
    def sigma_x2(self) -> float:
        """Variance of each slope regressor."""
        return self.wUx**2 + self.wVx**2 + self.wWx**2


_ALL_KINDS = tuple(CrveKind)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Design of one simulation run.

    ``d`` counts regressors including the constant column, so there are
    ``d - 1`` slopes. All slope coefficients are 1 and inference targets
    the last one. The fields are the keys of a design document, and
    ``__post_init__`` applies ``docs/schemas/simulate_config.schema.json``.
    """

    G: int
    H: int
    d: int
    tau: float
    weights: DgpWeights
    reps: int
    seed: int
    methods: tuple[CrveKind, ...] = _ALL_KINDS
    null_value: float = 1.0

    def __post_init__(self):
        _coerce_numbers(self)
        if self.reps < 1:
            raise InvalidConfig(f"reps must be >= 1, got {self.reps}")
        if self.G < 2 or self.H < 2:
            raise InvalidConfig(f"G and H must be >= 2, got ({self.G}, {self.H})")
        if self.d < 2:
            raise InvalidConfig(f"d must be >= 2 (constant plus a slope), got {self.d}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.tau < 1.0:
            raise InvalidConfig(f"tau must lie in (0, 1), got {self.tau}")
        if not math.isfinite(self.null_value):
            raise InvalidConfig(f"null_value must be finite, got {self.null_value}")
        if isinstance(self.weights, dict):
            _check_keys("weights", self.weights, DgpWeights)
            object.__setattr__(self, "weights", DgpWeights(**self.weights))
        elif not isinstance(self.weights, DgpWeights):
            raise InvalidConfig("weights must be an object of weight name -> value")
        if not self.weights.wWx > 0.0:
            raise InvalidConfig("wWx must be > 0 so slope regressors are nondegenerate")
        if not isinstance(self.methods, (list, tuple)):
            raise InvalidConfig(f"methods must be a list of estimator names, got {self.methods!r}")
        try:
            methods = tuple(CrveKind(m) for m in self.methods)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
        if not methods:
            raise InvalidConfig("at least one variance estimator is required")
        if len(set(methods)) < len(methods):
            raise InvalidConfig(f"methods must be unique, got {[k.value for k in methods]}")
        object.__setattr__(self, "methods", methods)


@functools.lru_cache(maxsize=8)
def _dgp_layout(k: int) -> tuple:
    """``generate_dgp``'s streams in the order it draws from them."""
    slopes = tuple((s, j) for j in range(k) for s in (_UX, _VX, _WX))
    return slopes + ((_UE, 0), (_VE, 0), (_WE, 0))


def generate_dgp(config: MonteCarloConfig, rep: int) -> PanelArray:
    """One replication of the additive latent-factor array.

    Column 0 of x is the constant. Slope j loads the row latent U_g,
    column latent V_h, and cell latent W_gh with the configured weights;
    the error is the analogous combination of its own latents. The
    response is y = 1 + sum of slopes + error, so every coefficient is 1
    at the median. ``rep`` must lie in [0, 2**32).
    """
    w = config.weights
    G, H, k = config.G, config.H, config.d - 1
    streams = _rep_streams(config.seed, rep, _dgp_layout(k))
    x = np.empty((G * H, k + 1))
    x[:, 0] = 1.0
    slopes = x[:, 1:].reshape(G, H, k)  # a view: the slopes are drawn into x
    for j in range(k):
        u = next(streams).standard_normal(G)
        v = next(streams).standard_normal(H)
        cell = next(streams).standard_normal((G, H))
        slopes[:, :, j] = w.wUx * u[:, None] + w.wVx * v[None, :] + w.wWx * cell
    ue = next(streams).standard_normal(G)
    ve = next(streams).standard_normal(H)
    we = next(streams).standard_normal((G, H))
    err = w.wUe * ue[:, None] + w.wVe * ve[None, :] + w.wWe * we
    y = 1.0 + slopes.sum(axis=2) + err
    return PanelArray._complete_grid(G, H, y.reshape(-1), x)


def _error_quantile(config: MonteCarloConfig, tau: float) -> float:
    """The error's tau-quantile sigma_e * Phi^-1(tau), after the tau check."""
    _require_tau(tau)
    return config.weights.sigma_e * float(ndtri(tau))


def true_beta(config: MonteCarloConfig, tau: float) -> np.ndarray:
    """Population coefficients at quantile tau: unit slopes, intercept
    shifted by the error's tau-quantile."""
    beta = np.ones(config.d)
    beta[0] = 1.0 + _error_quantile(config, tau)
    return beta


# --- rejection-frequency experiment ---

@dataclass(frozen=True)
class RejectionReport:
    """Per-method rejection frequencies with Monte Carlo standard errors.

    Dictionaries are keyed by the estimator tag (CrveKind.value). Failed
    replications are excluded from the denominator and counted.
    """

    config: MonteCarloConfig
    frequencies: dict[str, float]
    mc_se: dict[str, float]
    reps_used: dict[str, int]
    failures: dict[str, int]


class FailureCode(enum.IntEnum):
    """Why a replication gave a method no test: one negative outcome code
    per failure class. ``rejection_experiment`` counts every code as a
    failure."""

    NOT_CONVERGED = -1
    RANK_DEFICIENT = -2
    DEGENERATE = -3  # DegenerateScale or DegenerateDesign
    SINGULAR_JACOBIAN = -4
    ZERO_STD_ERROR = -5
    OTHER_NUMERIC = -6  # any other NumericError


_ERROR_CODES = (
    (RankDeficient, FailureCode.RANK_DEFICIENT),
    ((DegenerateScale, DegenerateDesign), FailureCode.DEGENERATE),
    (SingularJacobian, FailureCode.SINGULAR_JACOBIAN),
    (ZeroStdError, FailureCode.ZERO_STD_ERROR),
)


def _failure_code(err: NumericError) -> FailureCode:
    for cls, code in _ERROR_CODES:
        if isinstance(err, cls):
            return code
    return FailureCode.OTHER_NUMERIC


def _infer(panel: PanelArray, fit, kinds, tests, bandwidth: float | None = None):
    """Inference after a fit, the one stage sequence of ``twqr fit`` and of
    each size-experiment replication: the bandwidth (the rule of thumb
    unless ``bandwidth`` is given), the Jacobian and the scores, then per
    kind the sandwich and the t-test of each (coefficient, null value)
    pair in ``tests``. Returns the bandwidth, the Jacobian and, per kind,
    ``(VarianceEstimate, [TestResult])`` or the ``NumericError`` that
    stopped that kind; an error before the kinds raises.
    """
    if bandwidth is None:
        bandwidth = rule_of_thumb_bandwidth(panel, fit.residuals, fit.tau).ell
    jac = powell_jacobian(panel, fit.residuals, bandwidth)
    scores = score_matrix(panel, fit.beta_hat, fit.tau)
    results = {}
    for kind in kinds:
        try:
            var = sandwich(jac, omega_variant(scores, kind))
            results[kind] = var, [t_test(fit, var, j, b0) for j, b0 in tests]
        except NumericError as err:
            results[kind] = err
    return bandwidth, jac, results


def _replication_outcome(config: MonteCarloConfig, rep: int) -> np.ndarray:
    """Outcome row for one replication: 1 reject, 0 accept, or the
    negative ``FailureCode`` of what stopped that method."""
    out = np.empty(len(config.methods), dtype=np.int8)
    try:
        panel = generate_dgp(config, rep)
        fit = fit_qr(panel, config.tau)
        if not fit.solver.converged:
            out[:] = FailureCode.NOT_CONVERGED
            return out
        results = _infer(panel, fit, config.methods, [(config.d - 1, config.null_value)])[2]
    except NumericError as err:
        out[:] = _failure_code(err)
        return out
    out[:] = [_failure_code(r) if isinstance(r, NumericError) else r[1][0].p_value < NOMINAL_LEVEL
              for r in results.values()]
    return out


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of each OpenBLAS in this process.

    numpy and scipy wheels each load their own OpenBLAS, with prefixed or
    suffixed symbol names. The libraries are found in /proc/self/maps, so
    there are none where that file does not exist. The search runs once
    per process: both libraries are mapped once ``twqr`` is imported, and
    forked workers inherit the result with the mappings.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Limit every loaded OpenBLAS to one thread inside the block.

    Worker processes already fill the CPUs; OpenBLAS threads that spin
    between the many small calls of a replication starve the other workers,
    and with OpenBLAS at its default thread count two workers ran slower
    than one. The serial path is limited too, because OpenBLAS results can
    depend on its thread count (they did at n = 14400, d = 20 with OpenBLAS
    0.3.31) and outcomes must not depend on ``n_jobs``. ``twqr fit`` runs
    inside it for the same reason: its results must not depend on the
    machine's core count. Any other BLAS is left as it is.
    """
    controls = [(set_, get()) for get, set_ in _openblas_thread_controls()]
    for set_, _ in controls:
        set_(1)
    try:
        yield
    finally:
        for set_, n in controls:
            set_(n)


def _replicate(rep_fn, args: tuple, reps: int, n_jobs: int | None = None) -> list:
    """``rep_fn(*args, rep)`` for each of ``reps`` replications, in order.

    Every OpenBLAS runs one thread. ``panel._forked`` cuts the replications
    into contiguous groups, at most ``n_jobs`` when it is given; this
    process runs the first and forked ones the others, and the rows come
    back in replication order.
    """
    with _one_blas_thread():
        groups = _forked(lambda lo, hi: [rep_fn(*args, rep) for rep in range(lo, hi)],
                         reps, n_jobs)
    return [row for group in groups for row in group]


def rejection_experiment(config: MonteCarloConfig, n_jobs: int = 1) -> RejectionReport:
    """Size of the nominal-5% t-test of the last coefficient.

    ``n_jobs`` (an integer >= 1) is the number of worker processes, at most
    one per CPU; ``_replicate`` says how the replications are shared out.
    Each replication is a pure function of (config, rep) and the rows come
    back in replication order, so the report does not depend on ``n_jobs``.
    A method with more than FAILURE_TOLERANCE failed replications aborts
    the run rather than reporting a biased frequency.
    """
    n_jobs = _number("n_jobs", n_jobs, True)
    if n_jobs < 1:
        raise InvalidConfig(f"n_jobs must be >= 1, got {n_jobs}")
    reps = config.reps
    outcomes = np.stack(_replicate(_replication_outcome, (config,), reps, n_jobs))
    freqs: dict[str, float] = {}
    ses: dict[str, float] = {}
    used: dict[str, int] = {}
    fails: dict[str, int] = {}
    for i, kind in enumerate(config.methods):
        col = outcomes[:, i]
        n_fail = int(np.sum(col < 0))
        _check_failures(n_fail, reps, f" for {kind.value}")
        n_ok = reps - n_fail
        p = float(np.sum(col == 1)) / n_ok
        freqs[kind.value] = p
        ses[kind.value] = math.sqrt(p * (1.0 - p) / n_ok)
        used[kind.value] = n_ok
        fails[kind.value] = n_fail
    return RejectionReport(
        config=config, frequencies=freqs, mc_se=ses, reps_used=used, failures=fails
    )


# --- variance-component oracle ---

@dataclass(frozen=True)
class VarianceOracle:
    """Score variance components from exact conditional means.

    sigma_I2/II2 are the variances of the score's conditional mean given
    the row / column latents; III the interaction remainder given both;
    IV the within-cell residual. omega_GH combines them into the variance
    of the sample-average score:

        omega_GH = (H·sigma_I2 + G·sigma_II2 + sigma_III2 + sigma_IV2) / (G·H)

    r_GH is the implied convergence rate min(G/sigma_I2, H/sigma_II2, GH)
    evaluated at the leading diagonal entry. Each conditional mean is
    computed in closed form, and each component is a sample covariance of
    ``mc_outer`` draws of an explicitly constructed projection, hence PSD.
    """

    sigma_I2: np.ndarray
    sigma_II2: np.ndarray
    sigma_III2: np.ndarray
    sigma_IV2: np.ndarray
    omega_GH: np.ndarray
    r_GH: float
    mc_outer: int


def _psi_mean(tau: float, q: float, slope_base: np.ndarray,
              err_base: np.ndarray, s_rest: float) -> np.ndarray:
    """Mean score given the conditioned latents, one row per outer draw.

    ``slope_base``/``err_base`` hold the contribution of the conditioned
    latents and ``s_rest`` is the standard deviation of the error loads
    integrated out. Scores are evaluated at the true coefficients, where
    the indicator threshold is the error's tau-quantile, so the weight's
    mean is tau - Phi((q - err_base) / s_rest); the slope noise integrated
    out is centred and independent of the error, so the slopes' mean is
    slope_base times that weight. With nothing left to integrate out of
    the error (s_rest = 0) the weight is the indicator itself.
    """
    if s_rest > 0.0:
        weight = tau - ndtr((q - err_base) / s_rest)
    else:
        weight = tau - (err_base <= q)
    return np.column_stack((weight, slope_base * weight[:, None]))


def oracle_variance_components(config: MonteCarloConfig, tau: float, *,
                               mc_outer: int = 2000,
                               seed: int | None = None) -> VarianceOracle:
    """Variance components of the score over outer Monte Carlo draws.

    Outer draws of the row and column latents, and of one cell; each
    component's conditional mean integrates out the rest (cell latents,
    plus the other margin's latents for the one-way projections) in
    closed form. Components are sample covariances of the constructed
    projection samples, so each is PSD by construction and their
    near-additivity to the direct score variance stays a checkable fact
    rather than an identity.
    """
    if mc_outer < 2:
        raise InvalidConfig(f"mc_outer must be >= 2, got {mc_outer}")
    if seed is None:
        seed = config.seed
    w = config.weights
    k = config.d - 1
    q = _error_quantile(config, tau)
    # Each outer draw i takes a row, a column and a cell, each from its own
    # stream (i, s, 0): k slope latents, then the error latent.
    spawn = [(i, s, 0) for s in (_ORACLE_BASE, _ORACLE_BASE + 1, _ORACLE_BASE + 5)
             for i in range(mc_outer)]
    streams = _keyed(_philox_keys(seed, spawn))
    row, col, cell = np.array([next(streams).standard_normal(k + 1)
                               for _ in spawn]).reshape(3, mc_outer, k + 1)
    row_base, row_err = w.wUx * row[:, :k], w.wUe * row[:, k]
    col_base, col_err = w.wVx * col[:, :k], w.wVe * col[:, k]
    pair_base, pair_err = row_base + col_base, row_err + col_err
    row_means = _psi_mean(tau, q, row_base, row_err, math.hypot(w.wVe, w.wWe))
    col_means = _psi_mean(tau, q, col_base, col_err, math.hypot(w.wUe, w.wWe))
    pair_means = _psi_mean(tau, q, pair_base, pair_err, w.wWe)
    # a cell's score is its own mean given all of its latents
    psi = _psi_mean(tau, q, pair_base + w.wWx * cell[:, :k],
                    pair_err + w.wWe * cell[:, k], 0.0)
    cell_resid = psi - pair_means
    sigma_i = np.atleast_2d(np.cov(row_means, rowvar=False))
    sigma_ii = np.atleast_2d(np.cov(col_means, rowvar=False))
    sigma_iii = np.atleast_2d(np.cov(pair_means - row_means - col_means, rowvar=False))
    sigma_iv = np.atleast_2d(np.cov(cell_resid, rowvar=False))
    G, H = config.G, config.H
    omega = (H * sigma_i + G * sigma_ii + sigma_iii + sigma_iv) / (G * H)

    def rate(c: float, v: float) -> float:
        return c / v if v > 0.0 else math.inf

    r = min(rate(G, sigma_i[0, 0]), rate(H, sigma_ii[0, 0]), float(G * H))
    return VarianceOracle(
        sigma_I2=sigma_i, sigma_II2=sigma_ii, sigma_III2=sigma_iii,
        sigma_IV2=sigma_iv, omega_GH=omega, r_GH=r,
        mc_outer=mc_outer,
    )


def direct_score_variance(config: MonteCarloConfig, tau: float,
                          n_draws: int = 200_000,
                          seed: int | None = None) -> np.ndarray:
    """Unconditional covariance of the score from independent cell draws."""
    if n_draws < 2:
        raise InvalidConfig(f"n_draws must be >= 2, got {n_draws}")
    if seed is None:
        seed = config.seed
    w = config.weights
    k = config.d - 1
    q = _error_quantile(config, tau)
    gen = next(_keyed(_philox_keys(seed, [(0, _DIRECT_STREAM, 0)])))
    slopes = (
        w.wUx * gen.standard_normal((n_draws, k))
        + w.wVx * gen.standard_normal((n_draws, k))
        + w.wWx * gen.standard_normal((n_draws, k))
    )
    err = (
        w.wUe * gen.standard_normal(n_draws)
        + w.wVe * gen.standard_normal(n_draws)
        + w.wWe * gen.standard_normal(n_draws)
    )
    psi = _psi_mean(tau, q, slopes, err, 0.0)
    return np.atleast_2d(np.cov(psi, rowvar=False))


def true_bread(config: MonteCarloConfig, tau: float) -> np.ndarray:
    """Population Jacobian f_e(q_tau) · E[xx'] for the additive design.

    The error density at its tau-quantile is recovered by 1-D numerical
    inversion of the characteristic function exp(-sigma_e^2 t^2 / 2),
    keeping this oracle independent of the closed-form normal density.
    E[xx'] is diagonal because latents are independent and centered.
    """
    q = _error_quantile(config, tau)
    s_e = config.weights.sigma_e
    if s_e <= 0.0:
        raise DegenerateScale("error scale is zero; the density does not exist")
    from scipy.integrate import quad

    dens, _ = quad(lambda t: math.cos(t * q) * math.exp(-0.5 * (s_e * t) ** 2),
                   0.0, np.inf)
    dens /= math.pi
    diag = np.full(config.d, config.weights.sigma_x2)
    diag[0] = 1.0
    return dens * np.diag(diag)


# --- non-Gaussian interaction regime ---

# The demo's summary statistics, computed bit for bit as scipy.stats 1.17
# computes them, so that no run of twqr has to import scipy.stats.

def _iqr(sample: np.ndarray) -> np.float64:
    """``scipy.stats.iqr``: difference of the "linear" (Hyndman-Fan type 7) quartiles."""
    y = np.sort(sample)
    n = np.float64(len(y))
    p = np.array([0.25, 0.75])
    jg = p * n + (1 - p)
    jp1 = jg // 1
    g = jg % 1
    j = np.clip(jp1 - 1, 0.0, n - 1).astype(np.int64)
    jp1 = np.clip(jp1, 0.0, n - 1).astype(np.int64)
    q = (1 - g) * y[j] + g * y[jp1]
    return q[1] - q[0]


def _pearson_kurtosis(sample: np.ndarray) -> float:
    """``scipy.stats.kurtosis(sample, fisher=False)``: m4 / m2**2, or NaN
    when the sample is constant up to rounding."""
    mean = np.mean(sample, axis=0, keepdims=True)
    d2 = (sample - mean) ** 2
    m2 = np.mean(d2, axis=0)
    if m2 <= (np.finfo(np.float64).eps * mean[0]) ** 2:
        return math.nan
    return float(np.mean(d2**2, axis=0) / m2**2.0)


def _ks_normal(sample: np.ndarray, loc: float, scale: float) -> float:
    """``scipy.stats.kstest(sample, "norm", args=(loc, scale)).statistic``."""
    if not scale > 0:
        return math.nan
    n = len(sample)
    cdf = ndtr((np.sort(sample) - loc) / scale)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(d_plus if d_plus > d_minus else d_minus)


@dataclass(frozen=True)
class NonGaussianSummary:
    kurtosis_empirical: float
    ks_vs_fitted_normal: float
    kappa: float
    failures: int


@dataclass(frozen=True)
class NonGaussianDemo:
    """Scaled estimation errors next to a calibrated product-normal sample."""

    empirical: np.ndarray
    reference: np.ndarray
    summary: NonGaussianSummary


_DEMO_LAYOUT = ((_UX, 0), (_VX, 0), (_UE, 0), (_VE, 0), (_WE, 0))


def _interaction_estimate(G: int, H: int, p_plus: float, seed: int, rep: int) -> float:
    """sqrt(GH)·(beta_hat - 1) of one demo replication, or NaN when the fit
    raises a ``NumericError`` or does not converge."""
    streams = _rep_streams(seed, rep, _DEMO_LAYOUT)
    u = next(streams).standard_normal(G)
    v = next(streams).standard_normal(H) + 1.0
    ue = 2 * next(streams).integers(0, 2, G) - 1
    ve = 2 * (next(streams).random(H) < p_plus).astype(np.intp) - 1
    we = next(streams).uniform(-1.0, 1.0, (G, H))
    x = np.outer(u, v)
    e = ue[:, None] * ve[None, :] * np.abs(we)
    panel = PanelArray._complete_grid(G, H, (x + e).reshape(-1), x.reshape(-1, 1))
    try:
        fit = fit_qr(panel, 0.5)
    except NumericError:
        return math.nan
    if not fit.solver.converged:
        return math.nan
    return math.sqrt(G * H) * (float(fit.beta_hat[0]) - 1.0)


def _demo_args(G, H, c, reps, seed) -> tuple:
    """The demo's arguments, checked, and its column sign probability."""
    G, H, reps, seed = (_number(k, v, True) for k, v in
                        (("G", G), ("H", H), ("reps", reps), ("seed", seed)))
    c = _number("c", c, False)
    if reps < 500:
        raise InvalidConfig(f"reps must be >= 500, got {reps}")
    if not (math.isfinite(c) and c >= 0.0):
        raise InvalidConfig(f"c must be finite and >= 0, got {c}")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if G < 2 or H < 2:
        raise InvalidConfig(f"G and H must be >= 2, got ({G}, {H})")
    p_plus = 0.5 + c / (2.0 * math.sqrt(H))
    if p_plus > 1.0:
        raise InvalidConfig(f"c={c} too large for H={H}: sign probability exceeds 1")
    return G, H, c, reps, seed, p_plus


def nongaussian_demo(G: int, H: int, c: float, reps: int,
                     seed: int) -> NonGaussianDemo:
    """Median regression where the interaction component dominates.

    The single regressor is the product U_g·V_h and the error a
    sign-times-magnitude product, so sqrt(GH)·(beta_hat - 1) converges to
    a product of normals kappa·Z_U·(Z_V + c) instead of a normal. The
    reference sample's scale kappa is calibrated by matching interquartile
    ranges against a large raw product-normal draw and reported alongside
    the samples.

    The replications run on every CPU the process may use (its affinity
    mask, so ``taskset -c 0`` runs them here, serially) through
    ``_replicate``; the output is byte-identical at any count.
    """
    G, H, c, reps, seed, p_plus = _demo_args(G, H, c, reps, seed)
    vals = np.array(_replicate(_interaction_estimate, (G, H, p_plus, seed), reps))
    empirical = vals[~np.isnan(vals)]
    failures = reps - len(empirical)
    _check_failures(failures, reps)
    gen_ref = next(_keyed(_philox_keys(seed, [(0, _ORACLE_BASE, 0)])))
    raw = (gen_ref.standard_normal(_REF_CALIBRATION_SIZE)
           * (gen_ref.standard_normal(_REF_CALIBRATION_SIZE) + c))
    kappa = float(_iqr(empirical) / _iqr(raw))
    reference = kappa * raw[:reps]
    kurt = _pearson_kurtosis(empirical)
    ks = _ks_normal(empirical, empirical.mean(), empirical.std(ddof=1))
    return NonGaussianDemo(
        empirical=empirical,
        reference=reference,
        summary=NonGaussianSummary(
            kurtosis_empirical=kurt, ks_vs_fitted_normal=ks,
            kappa=kappa, failures=failures,
        ),
    )


# --- JSON / CSV plumbing ---

def config_from_json(obj: dict) -> MonteCarloConfig:
    """Build a config from a parsed JSON document; unknown keys are errors."""
    if not isinstance(obj, dict):
        raise InvalidConfig("config document must be a JSON object")
    _check_keys("config", obj, MonteCarloConfig)
    return MonteCarloConfig(**obj)


def config_to_json(config: MonteCarloConfig) -> dict:
    return {**asdict(config), "methods": [kind.value for kind in config.methods]}


def report_to_json(report: RejectionReport) -> dict:
    return {**asdict(report), "config": config_to_json(report.config)}


REPORT_COLUMNS = (
    "G", "H", "d", "tau",
    "wUx", "wVx", "wWx", "wUe", "wVe", "wWe",
    "reps", "seed", "null_value",
    "method", "rejection_rate", "mc_se", "reps_used", "failures",
)


def report_rows(report: RejectionReport) -> list[dict]:
    """Flat plot-ready rows, one per method, columns REPORT_COLUMNS."""
    cfg = report.config
    design = {**asdict(cfg), **asdict(cfg.weights)}
    rows = []
    for kind in cfg.methods:
        tag = kind.value
        row = {**design, "method": tag, "rejection_rate": report.frequencies[tag],
               "mc_se": report.mc_se[tag], "reps_used": report.reps_used[tag],
               "failures": report.failures[tag]}
        rows.append({col: row[col] for col in REPORT_COLUMNS})
    return rows
