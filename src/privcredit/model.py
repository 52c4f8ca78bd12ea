"""Core data model and deterministic linearization quantities.

The engine works in logs. A private company's market values of equity and
liability are latent; what is observed are book values and payouts. The
latent object is the log multiplier (log market-to-book ratio) for the
(equity, liability) pair, which follows a unit-root process with drift.
Observed log book-value growth is linked to the multiplier through a
log-linear (dynamic Gordon growth) approximation whose per-period constants
are computed here.

Vector convention: every 2-vector is ordered (equity, liability).
Per-period arrays are indexed by absolute period, with row 0 unused (NaN)
for quantities defined only for periods 1..H.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, InfeasibleLinearizationError

_COMPONENTS = ("equity", "liability")
_VECTORS = ("req_return", "init_mean", "drift")
_COVARIANCES = ("init_cov", "meas_cov", "state_cov")


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _close(x, y):
    """numpy.isclose(x, y, atol=1e-12) on floats."""
    return (abs(x - y) <= 1e-12 + 1e-5 * abs(y) and math.isfinite(y)) or x == y


def _min_eigenvalue(a, b, c):
    """Smaller eigenvalue of the symmetric matrix [[a, b], [b, c]]."""
    return 0.5 * a + 0.5 * c - math.hypot(0.5 * a - 0.5 * c, b)


def _check_covariance(name, m):
    """The entries (a, b, c) of the symmetrized 2×2 ``m``: symmetric by
    ``numpy.allclose(m, m.T, atol=1e-12)`` and, where finite, no eigenvalue
    below −1e-10."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise DataValidationError(f"{name} must be 2x2, got shape {m.shape}")
    (a, b), (b_low, c) = m.tolist()
    if not (a == a and c == c and _close(b, b_low) and _close(b_low, b)):
        raise DataValidationError(f"{name} must be symmetric")
    # the entries of 0.5 (m + mᵀ), rounded (and overflowing) as numpy does
    a, b, c = 0.5 * (a + a), 0.5 * (b + b_low), 0.5 * (c + c)
    # an infinite entry is left to the finiteness check
    if (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
            and _min_eigenvalue(a, b, c) < -1e-10):
        raise DataValidationError(f"{name} must be positive semidefinite")
    return a, b, c


@dataclass(frozen=True)
class ModelParams:
    """All estimable parameters plus the log risk-free rate.

    Attributes
    ----------
    req_return : (2,) array
        Per-period log required rates of return (equity, liability).
    init_mean : (2,) array
        Prior mean of the initial log multiplier.
    init_cov : (2, 2) array
        Prior covariance of the initial log multiplier (PSD).
    drift : (2,) array
        Unit-root drift of the log multiplier.
    meas_cov : (2, 2) array
        Measurement-noise covariance (PD for estimation; PSD accepted for
        degenerate diagnostic limits).
    state_cov : (2, 2) array
        State-noise covariance (same convention as ``meas_cov``).
    rate_log : float
        Per-period log risk-free rate ln(1 + r).
    """

    req_return: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray
    drift: np.ndarray
    meas_cov: np.ndarray
    state_cov: np.ndarray
    rate_log: float

    def __post_init__(self):
        # the checks run on Python floats; the fields are then read-only
        # views of one array holding every entry, and ``_entries`` keeps
        # those floats (vectors, then covariances row by row) for EM's
        # float algebra
        entries = []
        for name in _VECTORS:
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (2,):
                raise DataValidationError(f"{name} must be a 2-vector")
            entries += v.tolist()
        for name in _COVARIANCES:
            a, b, c = _check_covariance(name, getattr(self, name))
            entries += (a, b, b, c)
        rate_log = float(self.rate_log)
        if not (math.isfinite(rate_log) and all(map(math.isfinite, entries))):
            raise DataValidationError("all parameter entries must be finite")
        block = _freeze(entries)
        for name, v in zip(_VECTORS, block[:6].reshape(3, 2)):
            object.__setattr__(self, name, v)
        for name, m in zip(_COVARIANCES, block[6:].reshape(3, 2, 2)):
            object.__setattr__(self, name, m)
        object.__setattr__(self, "rate_log", rate_log)
        object.__setattr__(self, "_entries", tuple(entries))

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ObservedSeries:
    """Observed data: initial book values, log growth rates, log payout ratios.

    ``growth[t]`` is the log book-value growth over period ``t + 1`` and
    ``payout_ratio[t]`` the log payout-to-previous-book ratio of the same
    period (both shape (T, 2), natural data order).
    """

    books0: np.ndarray
    growth: np.ndarray
    payout_ratio: np.ndarray

    def __post_init__(self):
        b0 = np.asarray(self.books0, dtype=float)
        if b0.shape != (2,) or not ((b0 > 0) & np.isfinite(b0)).all():
            raise DataValidationError(
                "books0 must be a strictly positive, finite 2-vector")
        g = np.asarray(self.growth, dtype=float)
        p = np.asarray(self.payout_ratio, dtype=float)
        if g.ndim != 2 or g.shape[1] != 2 or g.shape[0] < 1:
            raise DataValidationError("growth must have shape (T, 2) with T >= 1")
        if p.shape != g.shape:
            raise DataValidationError("payout_ratio must match growth in shape")
        if not np.isfinite(g).all() or not np.isfinite(p).all():
            raise DataValidationError("growth and payout_ratio must be finite")
        object.__setattr__(self, "books0", _freeze(b0))
        object.__setattr__(self, "growth", _freeze(g))
        object.__setattr__(self, "payout_ratio", _freeze(p))

    @property
    def n_periods(self):
        return self.growth.shape[0]

    def log_books(self):
        """Log book values per period, shape (T + 1, 2)."""
        out = np.vstack([np.log(self.books0), self.growth]).cumsum(axis=0)
        return out


def derive_series(raw_books, raw_payouts):
    """Build an :class:`ObservedSeries` from raw book and payout levels.

    Parameters
    ----------
    raw_books : (T + 1, 2) array
        Book values of (equity, liability) at periods 0..T, strictly positive.
    raw_payouts : (T, 2) array
        Payout levels over periods 1..T, strictly positive.

    Raises
    ------
    DataValidationError
        Naming the offending cell when any input value is nonpositive.
    """
    books = np.asarray(raw_books, dtype=float)
    payouts = np.asarray(raw_payouts, dtype=float)
    if books.ndim != 2 or books.shape[1] != 2 or books.shape[0] < 2:
        raise DataValidationError("raw_books must have shape (T + 1, 2) with T >= 1")
    if payouts.shape != (books.shape[0] - 1, 2):
        raise DataValidationError("raw_payouts must have shape (T, 2)")
    for r, c in zip(*np.where(~(books > 0) | ~np.isfinite(books))):
        raise DataValidationError(
            f"book value at row {r}, {_COMPONENTS[c]} column must be strictly "
            f"positive and finite (got {float(books[r, c])!r})"
        )
    for r, c in zip(*np.where(~(payouts > 0) | ~np.isfinite(payouts))):
        raise DataValidationError(
            f"payout at row {r + 1}, {_COMPONENTS[c]} column must be strictly "
            f"positive and finite (got {float(payouts[r, c])!r})"
        )
    log_books = np.log(books)
    growth = np.diff(log_books, axis=0)
    payout_ratio = np.log(payouts) - log_books[:-1]
    return ObservedSeries(books[0], growth, payout_ratio)


@dataclass(frozen=True)
class LinearizationSchedule:
    """Per-period linearization constants, indexed by absolute period.

    Every array has shape (H + 1, 2) with row 0 unused.
    """

    gap: np.ndarray
    gain: np.ndarray
    shift: np.ndarray
    payout_ratio: np.ndarray

    @property
    def horizon(self):
        return self.gap.shape[0] - 1


def build_linearization_schedule(params, payout_ratio, horizon=None):
    """Compute per-period linearization constants for periods 1..H.

    The payout gap at period t is ϱ̃_t − k̃ − (μ₀ + (t − 1)φ); feasibility
    requires exp of it below one componentwise (expected payout below
    expected value). Then

        g_t = 1 / (1 − exp(gap)),
        h_t = −(gap·exp(gap) / (1 − exp(gap)) + ln(1 − exp(gap))),

    which satisfy h_t = g_t(ln g_t − μ_t) + μ_t at the center
    μ_t = gap + ln(g_t).

    Raises
    ------
    InfeasibleLinearizationError
        If exp(gap) >= 1 in any component, naming period and component.
    """
    ratio = np.atleast_2d(np.asarray(payout_ratio, dtype=float))
    if horizon is None:
        horizon = ratio.shape[0]
    if ratio.shape != (horizon, 2):
        raise DataValidationError(
            f"payout_ratio must have shape ({horizon}, 2), got {ratio.shape}"
        )
    if not np.isfinite(ratio).all():
        raise DataValidationError("payout_ratio must be finite")
    # rows gap, gain, shift and payout ratio, each with a NaN period 0
    block = np.empty((4, horizon + 1, 2))
    block[:, 0] = np.nan
    gap, gain, shift, padded_ratio = block[:, 1:]
    padded_ratio[:] = ratio
    lag = np.arange(horizon, dtype=float)[:, None]
    np.subtract(ratio, params.req_return, out=gap)
    gap -= params.init_mean + lag * params.drift
    e = np.exp(gap)
    if (e >= 1.0).any():
        t, c = np.argwhere(e >= 1.0)[0]
        raise InfeasibleLinearizationError(int(t) + 1, int(c), float(e[t, c]))
    one_minus_e = 1.0 - e
    np.divide(1.0, one_minus_e, out=gain)
    np.multiply(gap, e, out=shift)
    shift /= one_minus_e
    shift += np.log1p(-e)
    np.negative(shift, out=shift)
    block.flags.writeable = False
    return LinearizationSchedule(*block)


def asset_linearization(mu_a):
    """Linearization constants of the log asset value around center ``mu_a``.

    ``mu_a`` is the mean log equity-to-liability value gap. Returns
    (g_a, w_a, h_a) with g_a = 1 + exp(mu_a), w_a = 1 / g_a and
    h_a = g_a(ln g_a − mu_a) + mu_a. For a positive center ln g_a − mu_a
    would cancel, so h_a = mu_a + g_a·log1p(e^{−mu_a}) there. Where
    exp(mu_a) overflows, g_a is inf and e^{−mu_a} is below every normal
    float, so 1 + e^{−mu_a} rounds to 1: w_a = e^{−mu_a}, h_a rounds to
    mu_a + 1, and w_a, h_a and w_a·h_a stay finite.
    """
    with np.errstate(over="ignore", under="ignore"):
        g = 1.0 + np.exp(mu_a)
        if np.isinf(g):
            return g, np.exp(-mu_a), mu_a + 1.0
        w = 1.0 / g
        if mu_a > 0:
            return g, w, mu_a + g * np.log1p(np.exp(-mu_a))
    h = g * (np.log(g) - mu_a) + mu_a
    return g, w, h


def _linearized_log_asset(log_values, w_a, h_a):
    """The asset tangent w̄′Ṽ + w_a·h_a, w̄ = (1 − w_a, w_a), applied to the
    (log equity, log liability) pairs along the last axis of an array, one
    column per leg (a sum over the length-2 axis takes about ten times as
    long). Private: the Monte Carlo estimators call it on worker threads,
    which may call no public function (a layer tracer keeps one span stack)."""
    return (1.0 - w_a) * log_values[..., 0] + w_a * log_values[..., 1] + w_a * h_a


def asset_tangent(params, period, log_books):
    """Tangent (w_a, h_a) of the log asset value at ``period``.

    The center is the mean log equity-to-liability value gap: the component
    difference of μ₀ + tφ plus that of ``log_books``, the plug-in log book
    pair at that period.
    """
    mean_mult = params.init_mean + period * params.drift
    mu_a = mean_mult[0] - mean_mult[1] + log_books[0] - log_books[1]
    _, w_a, h_a = asset_linearization(mu_a)
    return float(w_a), float(h_a)


def real_intercepts(params, schedule):
    """Real-measure measurement intercepts c_t, shape (H + 1, 2), row 0 NaN."""
    g = schedule.gain
    return g * params.req_return - (g - 1.0) * schedule.payout_ratio - schedule.shift


def risk_neutral_intercepts(params, schedule):
    """Risk-neutral intercepts c̃_t: required returns swapped for the risk-free
    rate plus a convexity correction from the measurement noise."""
    g = schedule.gain
    return (
        params.rate_log * g
        - (g - 1.0) * schedule.payout_ratio
        - schedule.shift
        - 0.5 * np.diag(params.meas_cov) / g
    )
