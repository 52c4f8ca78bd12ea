"""Risk-neutral valuation, option pricing, thresholds and default probabilities.

Conditional on period-t information, the log market value pair at maturity T
is Gaussian with an affine mean in the period-t multiplier:

    mean = alpha m̃_t + beta + ln B_t,
    alpha = Σ_{i=t+1}^T G_i − (T − t − 1) I,
    beta  = Σ_{i=t+1}^T c_i + Σ_{i=t+1}^T (i − t − 1)(G_i − I) φ,

with intercepts c̃ (risk-neutral) or c (real), and covariance

    Σ_{T|t} = (T − t) Σ_u + Σ_{i=t+1}^{T-1} C_i Σ_v C_i',
    C_i = Σ_{j=i+1}^T G_j − (T − i) I

(the maturity-date state shock cancels out of the value level). The log
asset value is the tangent combination of the pair, hence scalar Gaussian,
and option prices and default probabilities follow in Black-Scholes form.
Public and private companies take one path: the period-t multiplier is
integrated out against a Gaussian posterior, the filtered one for a private
company and the point mass at the known multiplier (covariance zero) for a
public one, which puts the mean at the posterior mean and adds the
alpha-propagated posterior variance.

One real-measure filter pass over the sample serves both measures: the
intercepts enter the filtered means only, so the risk-neutral posterior is
the real one with its mean moved by the intercept shift δ_T
(:func:`privcredit.kalman.intercept_shift`). One propagation of the filtered
origin, :func:`horizon_moments`, gives both the maturity pair's moments and
the per-period forecasts that the ``forecast`` command reports.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NoSolutionError
from .kalman import intercept_shift, run_filter
from .model import (
    asset_tangent,
    build_linearization_schedule,
    real_intercepts,
    risk_neutral_intercepts,
)

_SQRT_HALF = math.sqrt(0.5)
_FLOAT_MAX = sys.float_info.max
_EPS = sys.float_info.epsilon
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)  # the largest x whose exp is finite


def _exp(x):
    """e^x, infinite where it exceeds the largest float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _norm_cdf(x):
    """Standard normal distribution function Φ(x) through the complementary
    error function, accurate in the lower tail where 1 − Φ(−x) cancels."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


@dataclass(frozen=True)
class HorizonMoments:
    """Moments of periods t+1..T past the origin t given the sample.

    Row i − t − 1 of ``m_mean``, ``b_mean`` and ``cov_b`` holds the
    real-measure mean of m̃_i and the mean and covariance of the growth b̃_i.
    For the maturity log value pair, ``alpha`` multiplies the origin
    multiplier, ``beta_rn``/``beta_real`` are the drifts under the two
    measures and ``cov`` is the covariance given the origin multiplier.
    """

    m_mean: np.ndarray
    b_mean: np.ndarray
    cov_b: np.ndarray
    alpha: np.ndarray
    beta_rn: np.ndarray
    beta_real: np.ndarray
    cov: np.ndarray

    def beta(self, measure):
        return self.beta_rn if measure == "risk_neutral" else self.beta_real


def horizon_moments(params, schedule, filt, maturity, rn_intercepts):
    """Propagate the filtered origin t = ``filt.n_periods`` to ``maturity``.

    The real intercepts are the ones the filter ran with; ``rn_intercepts``
    ((H + 1, 2), by absolute period) give the risk-neutral drift. From the
    filtered m̃_t, the multiplier k periods on has mean m̃_{t|t} + kφ and
    covariance P_{t|t} + kΣ_v, and the growth moments follow from the
    lagged-state observation equation (Durbin & Koopman 2012, §4.10).
    """
    t, T = filt.n_periods, int(maturity)
    if t >= T:
        raise DataValidationError("maturity must exceed the origin period")
    if schedule.horizon < T:
        raise DataValidationError("schedule does not cover the maturity")
    g = schedule.gain[t + 1 : T + 1]
    load = g - 1.0
    steps = np.arange(T - t, dtype=float)[:, None]
    m_prev = filt.m_filt[t] + steps * params.drift
    cov_prev = filt.cov_m_filt[t] + steps[:, :, None] * params.state_cov
    c_real = filt.intercepts[t + 1 : T + 1]
    drift_terms = (steps * load * params.drift).sum(axis=0)
    # C_i = diag(d_i) with d_i = Σ_{j>i} G_j − (T − i) for i = t+1..T−1, so
    # Σ_i C_i Σ_v C_i' = Σ_v ∘ DᵀD with the d_i as the rows of D
    d = (schedule.gain[t + 2 : T + 1][::-1].cumsum(axis=0)[::-1]
         - (T - np.arange(t + 1, T))[:, None])
    cov = (T - t) * params.meas_cov + params.state_cov * (d.T @ d)
    return HorizonMoments(
        m_mean=m_prev + params.drift,
        b_mean=load * m_prev - params.drift + c_real,
        cov_b=(load[:, :, None] * load[:, None, :]) * cov_prev
        + (params.meas_cov + params.state_cov),
        alpha=np.diag(g.sum(axis=0) - (T - t - 1)),
        beta_rn=rn_intercepts[t + 1 : T + 1].sum(axis=0) + drift_terms,
        beta_real=c_real.sum(axis=0) + drift_terms,
        cov=0.5 * (cov + cov.T),
    )


def price_options(mu_a, var_a, strike, tau, rate_log):
    """Black-Scholes-form call and put prices on a lognormal asset value.

    ``mu_a``/``var_a`` are the conditional moments of the log asset value at
    maturity; ``tau`` the number of periods to maturity. The zero-variance
    case prices the deterministic payoff directly.

    The call is the difference of its legs e^{μ−τr̃+σ²/2}Φ(d₁) and
    e^{−τr̃}LΦ(d₂), each rounded to about ε(1 + |ln L|) relative, so its
    relative error is that times the strike elasticity e^{−τr̃}LΦ(d₂)/C.
    At variances below ~1e-11 and strikes far out of the money (calls
    below ~3e-7 of the strike-free value) it exceeds 1e-8. A discount factor,
    discounted strike or growth leg beyond the largest float raises
    :class:`DataValidationError`.
    """
    if not 0 < strike < math.inf:
        raise DataValidationError("strike must be positive and finite")
    if var_a < 0:
        raise DataValidationError("variance must be nonnegative")
    disc = _exp(-tau * rate_log)
    if var_a == 0.0:
        fwd = _exp(mu_a)
        call, put = disc * max(fwd - strike, 0.0), disc * max(strike - fwd, 0.0)
    else:
        sd = math.sqrt(var_a)
        d1 = (mu_a + var_a - math.log(strike)) / sd
        d2 = d1 - sd
        growth_leg = _exp(mu_a - tau * rate_log + 0.5 * var_a)
        call = growth_leg * _norm_cdf(d1) - disc * strike * _norm_cdf(d2)
        put = disc * strike * _norm_cdf(-d2) - growth_leg * _norm_cdf(-d1)
    # an infinite leg makes a price infinite or NaN
    if not (disc * strike < math.inf and math.isfinite(call) and math.isfinite(put)):
        raise _beyond_floats(tau, rate_log)
    return call, put


def equity_debt_values(call, put, strike, tau, rate_log):
    """Equity is the call; debt is the discounted nominal less the put. A
    discounted nominal beyond the largest float raises
    :class:`DataValidationError`, as in :func:`price_options`."""
    nominal = strike * _exp(-tau * rate_log)
    if not nominal < math.inf:
        raise _beyond_floats(tau, rate_log)
    return call, nominal - put


def default_probability(mu_a_real, var_a, threshold):
    """Probability the maturity asset value falls below the threshold.

    Real-measure asset log moments in, Φ of the standardized log distance
    out; a zero variance degenerates to the indicator, and a negative one
    raises :class:`DataValidationError`, as in :func:`price_options`.
    """
    if not 0 < threshold < math.inf:
        raise DataValidationError("threshold must be positive and finite")
    if var_a < 0:
        raise DataValidationError("variance must be nonnegative")
    log_thr = math.log(threshold)
    if var_a == 0.0:
        return 1.0 if log_thr >= mu_a_real else 0.0
    return _norm_cdf((log_thr - mu_a_real) / math.sqrt(var_a))


def solve_threshold(target_equity, mu_a, var_a, tau, rate_log):
    """Invert the call price in the strike: find L with C(L) = target.

    The call falls strictly in the strike from its strike-free value
    exp(mu + var/2 − τ r̃), so the root is unique when the target lies below
    that bound. Put-call parity and C(L) ≤ e^{−τ r̃} E[V²] / (4L) bracket it
    in x = ln L, where ln C is concave. A safeguarded Newton iteration on
    ln C (Press et al., Numerical Recipes §9.4, ``rtsafe``), with
    ∂C/∂L = −e^{−τ r̃} Φ(d₂), stops when |C − target| ≤ 1e-12 target or
    when no float is left inside the bracket. Where the call itself is
    rounded beyond 1e-8 (see :func:`price_options`) no strike reprices the
    target to 1e-8; the miss stays within 32ε(1 + |ln L|) of the larger leg
    outside the normal tail. Deep in the tail Φ amplifies the rounding of d
    by about |d|, so a miss can exceed that bound (d₂ from −14.5 to −36.6,
    targets 1e-53 to 1e-300 of the strike-free call). A bracket that closes
    on a miss beyond both bounds leaves the target below the call's
    resolution and raises :class:`NoSolutionError`.

    No strike is priced whose value or discounted value exceeds the largest
    float: an iterate x beyond that counts as a strike whose call is below
    the target, so a root beyond it leaves the bracket at the limit, and
    raises :class:`NoSolutionError`.
    """
    if not 0 < target_equity < math.inf:
        raise DataValidationError("target equity value must be positive and finite")
    log_strike_free = mu_a + 0.5 * var_a - tau * rate_log
    if log_strike_free > _LOG_FLOAT_MAX:
        raise _beyond_float_range(target_equity)
    strike_free = math.exp(log_strike_free)
    if target_equity >= strike_free:
        raise NoSolutionError(
            f"target equity {target_equity:.6g} is not attainable: the "
            f"strike-free call value is {strike_free:.6g}"
        )
    disc = _exp(-tau * rate_log)
    if disc == math.inf:
        raise _beyond_floats(tau, rate_log)
    # by parity C(L) > strike_free − disc L, so the root lies above this
    floor = (strike_free - target_equity) / disc
    if floor > _FLOAT_MAX:
        raise _beyond_float_range(target_equity)
    if var_a == 0.0:
        return math.exp(mu_a) - target_equity / disc if mu_a <= _LOG_FLOAT_MAX else floor
    lo = math.log(floor)
    hi = 2.0 * (mu_a + var_a) - tau * rate_log - math.log(2.0 * target_equity)
    # strike and discounted strike stay floats up to here, with a margin of
    # 1e-9 relative for the rounding of e^x and of the discount
    x_max = _LOG_FLOAT_MAX + min(0.0, tau * rate_log) - 1e-9
    x, last, step = lo, hi - lo, hi - lo
    while True:
        call = (price_options(mu_a, var_a, math.exp(x), tau, rate_log)[0]
                if x <= x_max else 0.0)
        if abs(call - target_equity) <= 1e-12 * target_equity:
            return math.exp(x)
        lo, hi = (x, hi) if call > target_equity else (lo, x)
        slope = (disc * math.exp(x) * _norm_cdf((mu_a - x) / math.sqrt(var_a))
                 if call > 0.0 else 0.0)
        newton = (x + (math.log(call) - math.log(target_equity)) * call / slope
                  if call > 0.0 and slope > 0.0 else math.nan)
        # bisect unless Newton stays inside and halves the step before last
        if lo < newton < hi and abs(newton - x) <= 0.5 * last:
            last, step, x = step, abs(newton - x), newton
        else:
            last, step, x = step, 0.5 * (hi - lo), 0.5 * (lo + hi)
        if not lo < x < hi:
            if hi > x_max:  # so lo is the largest x priced
                raise _beyond_float_range(target_equity)
            threshold, sd = math.exp(x), math.sqrt(var_a)
            call = price_options(mu_a, var_a, threshold, tau, rate_log)[0]
            larger_leg = max(strike_free * _norm_cdf((mu_a + var_a - x) / sd),
                             disc * threshold * _norm_cdf((mu_a - x) / sd))
            if abs(call - target_equity) > max(1e-8 * target_equity,
                                               32 * _EPS * (1 + abs(x)) * larger_leg):
                raise NoSolutionError(
                    f"target equity {target_equity:.6g} is below the call's "
                    f"resolution: threshold {threshold:.6g} reprices it as {call:.6g}")
            return threshold


def _beyond_float_range(target_equity):
    return NoSolutionError(
        f"target equity {target_equity:.6g} needs a threshold beyond the "
        f"float range"
    )


def _beyond_floats(tau, rate_log):
    return DataValidationError(
        f"maturity {tau} at rate {math.expm1(rate_log):.6g} takes the discount "
        f"factor, the discounted strike or the growth leg beyond the float range")


@dataclass(frozen=True)
class PricingContext:
    """Everything needed to price from the end of an observed sample.

    The origin is the last observed period; the schedule covers the sample
    plus the pricing horizon, and ``log_books`` the observed books within
    the sample and real-measure forecast books beyond. The filtered origin
    multiplier has mean ``origin_mean`` under the real intercepts and
    ``origin_mean + origin_shift`` under the risk-neutral ones, and
    covariance ``origin_cov`` under both. ``tangent`` is the asset tangent
    (w_a, h_a) at the maturity, centered on the forecast books.
    """

    params: object
    schedule: object
    origin: int
    maturity: int
    log_books: np.ndarray
    origin_mean: np.ndarray
    origin_shift: np.ndarray
    origin_cov: np.ndarray
    moments: HorizonMoments
    tangent: tuple

    @property
    def tau(self):
        return self.maturity - self.origin

    def posterior(self, measure):
        """Filtered mean and covariance of the origin multiplier under the
        intercepts of ``measure``."""
        if measure == "risk_neutral":
            return self.origin_mean + self.origin_shift, self.origin_cov
        return self.origin_mean, self.origin_cov

    def asset_moments(self, measure, m_t=None):
        """Mean and variance of the maturity log asset value under
        ``measure``.

        A private firm (``m_t`` None) integrates the origin multiplier out
        against its filtered posterior; a known ``m_t`` is the point-mass
        posterior (mean ``m_t``, covariance 0), whose variance term is
        exactly 0.0.
        """
        if m_t is None:
            mean, cov = self.posterior(measure)
        else:
            mean, cov = np.asarray(m_t, float), np.zeros((2, 2))
        alpha, (w_a, h_a) = self.moments.alpha, self.tangent
        weights = np.array([1.0 - w_a, w_a])
        pair = alpha @ mean + self.moments.beta(measure) + self.log_books[self.origin]
        mu = float(weights @ pair + w_a * h_a)
        var = float(weights @ self.moments.cov @ weights)
        return mu, var + float(weights @ alpha @ cov @ alpha.T @ weights)

    def price(self, strike, m_t=None):
        """Risk-neutral call and put on the maturity asset value."""
        mu, var = self.asset_moments("risk_neutral", m_t)
        return price_options(mu, var, strike, self.tau, self.params.rate_log)

    def default_prob(self, threshold, m_t=None):
        """Real-measure probability that the maturity asset value falls
        below ``threshold``."""
        mu, var = self.asset_moments("real", m_t)
        return default_probability(mu, var, threshold)

    def target_equity(self):
        """Market equity value implied by the filtered multiplier at the
        origin (filtered and smoothed coincide there); infinite beyond the
        float range, which :func:`solve_threshold` rejects."""
        return _exp(self.origin_mean[0] + self.log_books[self.origin, 0])

    def calibrate_threshold(self):
        mu, var = self.asset_moments("risk_neutral")
        return solve_threshold(
            self.target_equity(), mu, var, self.tau, self.params.rate_log
        )


def build_pricing_context(params, series, maturity, payout_future):
    """One real-measure filter pass over the sample and one propagation of
    the horizon from its end: the schedule, the origin posterior under both
    measures, the forecast books, the horizon moments and the maturity asset
    tangent.

    ``maturity`` counts periods beyond the last observation (the pricing
    origin). ``payout_future`` is the finite log payout-to-book ratio pair
    of every period past the sample: it is part of the period-0 information
    set and cannot be derived from data.
    """
    if maturity < 1:
        raise DataValidationError("maturity must be at least one period")
    future = np.asarray(payout_future, dtype=float)
    if future.shape != (2,):
        raise DataValidationError(
            f"future payout ratios must be one pair, shape (2,), got {future.shape}")
    t0 = series.n_periods
    T = t0 + maturity
    schedule = build_linearization_schedule(
        params, np.vstack([series.payout_ratio, np.tile(future, (maturity, 1))]), T)
    filt = run_filter(params, schedule, series.growth,
                      real_intercepts(params, schedule))
    c_rn = risk_neutral_intercepts(params, schedule)
    moments = horizon_moments(params, schedule, filt, T, c_rn)
    log_books_obs = series.log_books()
    log_books = np.vstack(
        [log_books_obs, log_books_obs[-1] + moments.b_mean.cumsum(axis=0)])
    return PricingContext(
        params=params, schedule=schedule, origin=t0, maturity=T,
        log_books=log_books, origin_mean=filt.m_filt[t0],
        origin_shift=intercept_shift(filt, (c_rn - filt.intercepts)[1 : t0 + 1]),
        origin_cov=filt.cov_m_filt[t0],
        moments=moments,
        tangent=asset_tangent(params, T, log_books[T]),
    )
