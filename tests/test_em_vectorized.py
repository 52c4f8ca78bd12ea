"""The vectorized E- and M-step moments against per-period loop references.

The references below are the straightforward loops over t the engine used
before its moment algebra was written over stacked (T, 2, 2) arrays and
then reduced to sums. The
two differ only by float64 reassociation of sums over at most 1600 terms,
hence the fixed relative tolerance.
"""

import numpy as np
import pytest

from privcredit import em
from privcredit.errors import DataValidationError
from privcredit.model import build_linearization_schedule

from conftest import base_params, synthetic_series
from reference import residual_pieces_reference

RTOL = 1e-12


def loop_measurement_residual_cov(cov_m, cross_m, gain_t, t):
    g = gain_t
    return (
        cov_m[t]
        + g[:, None] * cov_m[t - 1] * g[None, :]
        - cross_m[t].T * g[None, :]
        - g[:, None] * cross_m[t]
    )


def loop_state_residual_cov(cov_m, cross_m, t):
    return cov_m[t] + cov_m[t - 1] - cross_m[t] - cross_m[t].T


def loop_residual_pieces(params, schedule, m_smooth, cov_m, cross_m, growth,
                         payout_ratio):
    T = growth.shape[0]
    periods = np.arange(1, T + 1)
    g = schedule.gain[1 : T + 1]
    h = schedule.shift[1 : T + 1]
    c = (g * params.req_return - (g - 1.0) * payout_ratio - h)
    u = growth + m_smooth[1:] - g * m_smooth[:-1] - c
    v = m_smooth[1:] - params.drift - m_smooth[:-1]
    centers = params.init_mean + (periods - 1)[:, None] * params.drift
    d = g * (g - 1.0) * (m_smooth[:-1] - centers)
    z = np.empty((T, 2, 2))
    e_uu = np.empty((T, 2, 2))
    e_vv = np.empty((T, 2, 2))
    gg = g * (g - 1.0)
    for t in range(1, T + 1):
        i = t - 1
        z[i] = gg[i][:, None] * (cross_m[t] - cov_m[t - 1] * g[i][None, :])
        e_uu[i] = np.outer(u[i], u[i]) + loop_measurement_residual_cov(
            cov_m, cross_m, g[i], t
        )
        e_vv[i] = np.outer(v[i], v[i]) + loop_state_residual_cov(cov_m, cross_m, t)
    return u, v, d, z, e_uu, e_vv


def loop_m_step_sums(smoothed, g):
    """The two residual-covariance sums of the M-step."""
    T = g.shape[0]
    cov_m, cross_m = smoothed.cov_m_smooth, smoothed.cross_m
    vcov = sum(
        loop_state_residual_cov(cov_m, cross_m, t) for t in range(1, T + 1)
    )
    ucov = sum(
        loop_measurement_residual_cov(cov_m, cross_m, g[t - 1], t)
        for t in range(1, T + 1)
    )
    return vcov, ucov


def loop_gaussian_block_term(cov, second_moments, count, name):
    if not np.any(cov):
        worst = max(np.abs(m).max() for m in second_moments)
        if worst > 1e-12:
            raise DataValidationError(
                f"{name} is degenerate (zero) but residual moments are not"
            )
        return 0.0
    inv, logdet = em._chol_inv_logdet(cov, name)
    quad = sum(np.trace(inv @ m) for m in second_moments)
    return -count * em._LOG2PI - 0.5 * count * logdet - 0.5 * quad


def loop_complete_loglik_gradient(params, smoothed, series):
    T = series.n_periods
    schedule = build_linearization_schedule(params, series.payout_ratio, T)
    inv_u, _ = em._chol_inv_logdet(params.meas_cov, "meas_cov")
    inv_v, _ = em._chol_inv_logdet(params.state_cov, "state_cov")
    inv_0, _ = em._chol_inv_logdet(params.init_cov, "init_cov")
    u, v, d, z, _, _ = loop_residual_pieces(
        *smoothed_args(params, schedule, smoothed, series)
    )
    g = schedule.gain[1 : T + 1]
    grad_k = np.zeros(2)
    grad_mu0 = np.zeros(2)
    grad_phi = np.zeros(2)
    for i in range(T):
        e_du = z[i] + np.outer(d[i], u[i])
        e_dgu = z[i] + np.outer(d[i] - g[i], u[i])
        grad_k -= np.diag(e_dgu @ inv_u)
        diag_du = np.diag(e_du @ inv_u)
        grad_mu0 -= diag_du
        grad_phi -= i * diag_du
    grad_mu0 += inv_0 @ (smoothed.m_smooth[0] - params.init_mean)
    grad_phi += inv_v @ v.sum(axis=0)
    return np.concatenate([grad_k, grad_mu0, grad_phi])


def smoothed_args(params, schedule, smoothed, series):
    """The arguments of the per-period residual references."""
    return (params, schedule, smoothed.m_smooth, smoothed.cov_m_smooth,
            smoothed.cross_m, series.growth, series.payout_ratio)


def assert_close(actual, reference):
    """Equal to within RTOL of the reference's largest magnitude."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max() <= RTOL * np.abs(reference).max()


@pytest.fixture(scope="module", params=[100, 1600])
def instance(request):
    """Parameters off the truth, so that every residual is nonzero, their
    schedule on a panel of T periods, the panel and its E-step record."""
    truth = base_params(drift=np.array([5e-4, -3e-4]))
    series, _, _ = synthetic_series(truth, request.param, seed=61, payout_level=0.35)
    params = truth.replace(
        req_return=truth.req_return + 0.002,
        init_mean=truth.init_mean - 0.01,
        drift=truth.drift + np.array([1e-5, -1e-5]),
    )
    schedule = build_linearization_schedule(
        params, series.payout_ratio, series.n_periods
    )
    return params, schedule, series, em.e_step(params, series, schedule)


def test_residual_pieces_match_loop(instance):
    params, schedule, series, sums = instance
    args = smoothed_args(params, schedule, sums.smoothed, series)
    loop = loop_residual_pieces(*args)
    for vec, ref in zip(em._gradient_pieces(sums), loop[:4]):
        assert_close(vec, ref)
    for vec, ref in zip(residual_pieces_reference(*args)[4:], loop[4:]):
        assert_close(vec, ref)


def test_m_step_sums_match_loop(instance):
    params, schedule, series, sums = instance
    g = schedule.gain[1 : series.n_periods + 1]
    vcov, ucov = loop_m_step_sums(sums.smoothed, g)
    assert_close(sums.state_resid_sum, vcov)
    assert_close(sums.meas_resid_sum, ucov)


def test_gaussian_block_term_matches_loop(instance):
    # the block term from summed moments against the per-period loop
    params, schedule, series, sums = instance
    T = series.n_periods
    *_, e_uu, e_vv = loop_residual_pieces(
        *smoothed_args(params, schedule, sums.smoothed, series)
    )
    for cov, moments, name in ((params.meas_cov, e_uu, "meas_cov"),
                               (params.state_cov, e_vv, "state_cov")):
        (s00, s01), (s10, s11) = moments.sum(axis=0).tolist()
        assert_close(
            em._block_term(cov, (s00, 0.5 * (s01 + s10), s11), T, name,
                           lambda: moments),
            loop_gaussian_block_term(cov, list(moments), T, name),
        )


def test_complete_loglik_gradient_matches_loop(instance):
    params, _, series, sums = instance
    assert_close(
        em.complete_loglik_gradient(sums),
        loop_complete_loglik_gradient(params, sums.smoothed, series),
    )
