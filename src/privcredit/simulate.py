"""Ground-truth simulation machinery and Monte Carlo estimators.

The model is linear-Gaussian in logs, so paths are simulated exactly (no
discretization error) under either measure; the only difference between the
two is the measurement intercept. Panels carry the exact log asset value
ln(Vᵉ + Vˡ); the linearized value at any asset tangent follows from their
log value pairs, so approximation error can be quantified separately from
formula correctness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .model import linearized_log_asset, real_intercepts, risk_neutral_intercepts

MEASURES = ("real", "risk_neutral")
_BLOCK_PATHS = 1 << 16  # paths held at once by simulate_terminal


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; identical configs give bit-identical panels on
    every BLAS/LAPACK build (the noise factor is the closed-form lower
    Cholesky factor :func:`psd_cholesky`, not an eigendecomposition)."""

    n_paths: int
    horizon: int
    seed: int
    measure: str = "real"

    def __post_init__(self):
        if self.n_paths < 1:
            raise DataValidationError("n_paths must be >= 1")
        if self.horizon < 1:
            raise DataValidationError("horizon must be >= 1")
        if self.measure not in MEASURES:
            raise DataValidationError(f"measure must be one of {MEASURES}")
        if not 0 <= self.seed < 2**128:
            raise DataValidationError("seed must be in [0, 2**128)")


@dataclass(frozen=True)
class SimulatedPanel:
    """Simulated paths; time axis 1 runs over periods start..start+horizon.

    ``log_values`` is the log market value pair (multiplier plus log book
    value by construction); ``log_asset_exact`` is ln(Vᵉ + Vˡ).
    """

    multipliers: np.ndarray
    growth: np.ndarray
    log_books: np.ndarray
    log_values: np.ndarray
    log_asset_exact: np.ndarray


def psd_cholesky(m):
    """Lower Cholesky factor L of a 2×2 PSD matrix, with L Lᵀ = m.

    Closed form, so no LAPACK call decides the result: l11 = √max(a, 0),
    l21 = b / l11 (0 when l11 = 0), l22 = √max(c − l21², 0). The factor with
    a nonnegative diagonal is unique for every PSD input, including the zero
    and rank-one covariances of pinned or degenerate components.
    """
    (a, b), (_, c) = np.asarray(m, float)
    l11 = np.sqrt(max(a, 0.0))
    l21 = b / l11 if l11 > 0.0 else 0.0
    l22 = np.sqrt(max(c - l21 * l21, 0.0))
    return np.array([[l11, 0.0], [l21, l22]])


def _setup(params, schedule, config, start, init_mean, init_cov):
    """Checks, start distribution, intercepts and generator of a simulation."""
    if schedule.horizon < start + config.horizon:
        raise DataValidationError("schedule does not cover the simulation horizon")
    mean0 = params.init_mean if init_mean is None else np.asarray(init_mean, float)
    cov0 = params.init_cov if init_cov is None else np.asarray(init_cov, float)
    if config.measure == "real":
        intercepts = real_intercepts(params, schedule)
    else:
        intercepts = risk_neutral_intercepts(params, schedule)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    return mean0, cov0, intercepts, rng


def _step(params, schedule, intercepts, t, m_prev, rv, ru):
    """Period t: m′ = φ + m + r_v and book growth g = −m′ + G_t m + c_t + r_u."""
    m_new = params.drift + m_prev + rv
    return m_new, -m_new + schedule.gain[t] * m_prev + intercepts[t] + ru


def simulate_panel(params, schedule, config, log_books0, start=0,
                   init_mean=None, init_cov=None):
    """Simulate exact model paths.

    Parameters
    ----------
    log_books0 : (2,) array
        Log book values at the start period.
    start : int
        Absolute period of the initial condition; the panel covers periods
        start..start+config.horizon and the schedule must reach the end.
    init_mean, init_cov : optional
        Distribution of the log multiplier at the start period (defaults to
        the model prior; pass a zero matrix to pin a known multiplier).

    Standard normal draws are scaled by the lower Cholesky factors of the
    covariances (:func:`psd_cholesky`), so the panel depends only on the
    config and the inputs, not on the BLAS/LAPACK build.
    """
    mean0, cov0, intercepts, rng = _setup(params, schedule, config, start,
                                          init_mean, init_cov)
    n, P = config.n_paths, config.horizon
    e0 = rng.standard_normal((n, 2))
    ev = rng.standard_normal((n, P, 2))
    eu = rng.standard_normal((n, P, 2))

    mult = np.empty((n, P + 1, 2))
    growth = np.empty((n, P, 2))
    log_books = np.empty((n, P + 1, 2))
    mult[:, 0] = mean0 + e0 @ psd_cholesky(cov0).T
    log_books[:, 0] = np.asarray(log_books0, float)
    rv = ev @ psd_cholesky(params.state_cov).T
    ru = eu @ psd_cholesky(params.meas_cov).T
    for j in range(1, P + 1):
        mult[:, j], growth[:, j - 1] = _step(
            params, schedule, intercepts, start + j, mult[:, j - 1],
            rv[:, j - 1], ru[:, j - 1],
        )
        log_books[:, j] = log_books[:, j - 1] + growth[:, j - 1]

    log_values = mult + log_books
    exact = np.logaddexp(log_values[..., 0], log_values[..., 1])
    return SimulatedPanel(
        multipliers=mult, growth=growth, log_books=log_books,
        log_values=log_values, log_asset_exact=exact,
    )


def _terminal_values(params, schedule, intercepts, start, m, log_books, shocks,
                     tangent):
    """Log asset after the (r_v, r_u) of periods start+1, … in shocks,
    linearized at the asset ``tangent`` (w_a, h_a)."""
    for t, (rv, ru) in enumerate(shocks, start + 1):
        m, growth = _step(params, schedule, intercepts, t, m, rv, ru)
        log_books = log_books + growth
    return linearized_log_asset(m + log_books, *tangent)


def simulate_terminal(params, schedule, config, log_books0, tangent, start=0,
                      init_mean=None, init_cov=None):
    """Maturity log asset values Ṽᵃ_T of :func:`simulate_panel`'s model and
    arguments, linearized at the maturity asset ``tangent`` (w_a, h_a), an
    (n_paths,) array. Blocks of ``_BLOCK_PATHS`` paths carry only their
    (b, 2) multiplier and log book state, so memory does not grow with the
    paths or the horizon. Draws, per block: b start draws, then per period
    b v and b u draws (not the panel's order)."""
    mean0, cov0, intercepts, rng = _setup(params, schedule, config, start,
                                          init_mean, init_cov)
    l0, lv, lu = (psd_cholesky(c).T for c in (cov0, params.state_cov, params.meas_cov))
    out = np.empty(config.n_paths)
    for lo in range(0, config.n_paths, _BLOCK_PATHS):
        b = min(_BLOCK_PATHS, config.n_paths - lo)
        m0 = mean0 + rng.standard_normal((b, 2)) @ l0
        shocks = (rng.standard_normal((2, b, 2)) @ (lv, lu)
                  for _ in range(config.horizon))
        out[lo : lo + b] = _terminal_values(params, schedule, intercepts, start,
                                            m0, np.asarray(log_books0, float),
                                            shocks, tangent)
    return out


def _mc_mean_se(values):
    """Mean and standard error."""
    n = values.shape[0]
    se = values.std(ddof=1) / np.sqrt(n) if n > 1 else np.inf
    return float(values.mean()), float(se)


def mc_option_price(log_asset, strike, tau, rate_log):
    """Discounted Monte Carlo call/put prices off maturity values Ṽᵃ_T.

    Returns ((call, call_se), (put, put_se)); they must be simulated
    under the risk-neutral measure for prices to be meaningful.
    """
    if not 0 <= strike < np.inf:
        raise DataValidationError("strike must be nonnegative and finite")
    disc = np.exp(-tau * rate_log)
    asset = np.exp(log_asset)
    call, call_se = _mc_mean_se(disc * np.maximum(asset - strike, 0.0))
    put, put_se = _mc_mean_se(disc * np.maximum(strike - asset, 0.0))
    return (call, call_se), (put, put_se)


def mc_default_probability(log_asset, threshold):
    """Default frequency {Ṽᵃ_T <= ln threshold} with binomial standard error."""
    if not 0 < threshold < np.inf:
        raise DataValidationError("threshold must be positive and finite")
    hits = log_asset <= np.log(threshold)
    n = hits.shape[0]
    p = float(hits.mean())
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / n))
    return p, se
