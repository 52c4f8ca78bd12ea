import numpy as np
import pytest

from privcredit.kalman import run_filter
from privcredit.model import (
    ModelParams,
    ObservedSeries,
    build_linearization_schedule,
    real_intercepts,
    risk_neutral_intercepts,
)
from privcredit.pricing import horizon_moments
from privcredit.simulate import SimConfig, simulate_panel


def spd_matrix(rng, scale):
    m = rng.normal(size=(2, 2)) * scale
    return m @ m.T + scale * scale * np.eye(2)


def base_params(**overrides):
    """A realistic, comfortably feasible parameter set."""
    values = dict(
        req_return=np.array([0.04, 0.03]),
        init_mean=np.array([0.25, 0.10]),
        init_cov=0.02 * np.eye(2),
        drift=np.array([0.002, -0.001]),
        meas_cov=np.array([[0.0025, 0.0004], [0.0004, 0.0016]]),
        state_cov=np.array([[0.0009, -0.0001], [-0.0001, 0.0009]]),
        rate_log=0.01,
    )
    values.update(overrides)
    return ModelParams(**values)


def random_params(rng, meas_scale=0.05, state_scale=0.04):
    """Random positive-definite parameter draw for oracle comparisons."""
    return ModelParams(
        req_return=np.array([0.04, 0.03]) + 0.01 * rng.normal(size=2),
        init_mean=0.2 * rng.normal(size=2),
        init_cov=spd_matrix(rng, 0.1),
        drift=0.01 * rng.normal(size=2),
        meas_cov=spd_matrix(rng, meas_scale),
        state_cov=spd_matrix(rng, state_scale),
        rate_log=0.01,
    )


def feasible_payout_ratio(rng, periods, level=0.25, jitter=0.05):
    return np.log(level) + jitter * rng.normal(size=(periods, 2))


def synthetic_series(params, periods, seed, payout_level=0.25, jitter=0.03,
                     log_books0=(1.5, 1.8)):
    """One simulated company panel as an ObservedSeries, plus the truth."""
    rng = np.random.default_rng(seed)
    ratio = feasible_payout_ratio(rng, periods, payout_level, jitter)
    schedule = build_linearization_schedule(params, ratio, periods)
    lb0 = np.asarray(log_books0, dtype=float)
    panel = simulate_panel(
        params, schedule, SimConfig(1, periods, seed), lb0
    )
    series = ObservedSeries(np.exp(lb0), panel.growth[0], ratio)
    return series, schedule, panel


def maturity_moments(params, schedule, origin, maturity):
    """Horizon moments from ``origin`` to ``maturity``, propagated from a
    real-measure filter pass over ``origin`` periods of zero growth. The
    maturity pair's alpha, betas and covariance depend on where the pass
    ends, not on its data."""
    filt = run_filter(params, schedule, np.zeros((origin, 2)),
                      real_intercepts(params, schedule))
    return horizon_moments(params, schedule, filt, maturity,
                           risk_neutral_intercepts(params, schedule))


@pytest.fixture
def params():
    return base_params()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
