"""Test-only references for the engine.

:class:`GaussianConditioningOracle` builds the exact joint normal
distribution of all log multipliers and all observed log book growth rates
as one explicit linear map of the primitive noise, then answers filtering /
smoothing / forecasting questions by dense block conditioning. Everything
the recursive code computes must agree with this object; it is deliberately
simple and O((2(2H+1))^3), guarded to short samples.
:func:`filter_reference` and :func:`smooth_reference` are the Kalman
passes as single per-period loops, :func:`objective_reference` the EM
objective built period by period from :func:`residual_pieces_reference`,
:func:`horizon_cov_reference` is the matching reference for the pricing
layer's maturity covariance, :func:`asset_log_moments_public` and
:func:`asset_log_moments_private` the separate public and private forms
of its asset log moments, :func:`mean_log_book_path_reference` the
per-period loop of the mean log book path and :func:`mean_path_tangents`
the asset tangents centered on it, :func:`required_return_fixed_point` the
numpy.linalg form of the M-step's required-return/measurement-covariance
iteration, :func:`params_validation_error` the numpy form of
``ModelParams``' checks, :func:`binned_error_curve` measures the asset linearization
error of a simulated panel, and :func:`ingest_reference` reads a panel CSV
one cell at a time, checking each cell as it goes.

:func:`mc_option_price_reference` and
:func:`mc_default_probability_reference` are the Monte Carlo estimators as
they were written before they reduced block by block: every sum over the
whole array at once, which a one-block run (up to 2¹² values) must match
bit for bit.

:func:`schedule_reference`, :func:`filter_columns_reference`,
:func:`smooth_columns_reference`, :func:`moment_sums_reference`,
:func:`m_step_reference`, :func:`blend_reference` and
:func:`param_change_reference` are the per-iteration layers as they were
written before their column code moved to stacked blocks and Python
floats: every entry on its own fresh array, in the same order of
operations, so the current layers must match them bit for bit.

Tests import this module the way they import ``conftest``.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal

from privcredit.em import MomentSums, _chol_inv_logdet, _outer
from privcredit.errors import (
    DataValidationError,
    DegenerateDesignError,
    IllConditionedInnovationError,
    InfeasibleLinearizationError,
)
from privcredit.io import CSV_HEADER
from privcredit.kalman import _LOG2PI, _RCOND, FilterOutput, SmootherOutput
from privcredit.model import (
    LinearizationSchedule,
    asset_tangent,
    asset_weight_vector,
    build_linearization_schedule,
    derive_series,
    linearized_log_asset,
    real_intercepts,
)

_MAX_PERIODS = 8
_I2 = np.eye(2)


@dataclass(frozen=True)
class ConditionalMoments:
    mean: np.ndarray
    cov: np.ndarray


class GaussianConditioningOracle:
    """Exact joint Gaussian of multipliers and observations.

    Parameters
    ----------
    params, schedule : model objects covering periods 1..H.
    growth : (T, 2) array
        Observed log book growth (T <= 8 enforced, cost guard).
    intercepts : (H + 1, 2) array
        Measurement intercepts by absolute period.
    horizon : int, optional
        Last period included in the joint (defaults to T; set larger to
        query forecast moments).
    """

    def __init__(self, params, schedule, growth, intercepts, horizon=None):
        growth = np.asarray(growth, dtype=float)
        T = growth.shape[0]
        if T > _MAX_PERIODS:
            raise DataValidationError(
                f"oracle limited to {_MAX_PERIODS} periods, got {T}"
            )
        H = T if horizon is None else int(horizon)
        if H < T or schedule.horizon < H:
            raise DataValidationError("horizon must satisfy T <= horizon <= schedule")
        self.n_obs = T
        self.horizon = H
        self.growth = growth

        dim = 2 * (2 * H + 1)
        base_cov = np.zeros((dim, dim))
        base_cov[0:2, 0:2] = params.init_cov
        for s in range(1, H + 1):
            i = 2 * s
            base_cov[i : i + 2, i : i + 2] = params.state_cov
            j = 2 * (H + s)
            base_cov[j : j + 2, j : j + 2] = params.meas_cov

        # multiplier rows: m_t = m_0 + t*drift + sum_{s<=t} v_s
        lin = np.zeros((dim, dim))
        mean = np.zeros(dim)
        for t in range(0, H + 1):
            r = 2 * t
            lin[r : r + 2, 0:2] = np.eye(2)
            for s in range(1, t + 1):
                lin[r : r + 2, 2 * s : 2 * s + 2] = np.eye(2)
            mean[r : r + 2] = params.init_mean + t * params.drift
        # observation rows: b_t = -m_t + G_t m_{t-1} + c_t + u_t
        for t in range(1, H + 1):
            r = 2 * (H + 1) + 2 * (t - 1)
            G = np.diag(schedule.gain[t])
            lin[r : r + 2] = -lin[2 * t : 2 * t + 2] + G @ lin[2 * (t - 1) : 2 * t]
            lin[r : r + 2, 2 * (H + t) : 2 * (H + t) + 2] = np.eye(2)
            mean[r : r + 2] = (
                -mean[2 * t : 2 * t + 2]
                + G @ mean[2 * (t - 1) : 2 * t]
                + intercepts[t]
            )

        self.mean = mean
        self.cov = 0.5 * ((lin @ base_cov @ lin.T) + (lin @ base_cov @ lin.T).T)

    # index helpers ------------------------------------------------------
    def _m_idx(self, t):
        return [2 * t, 2 * t + 1]

    def _b_idx(self, t):
        base = 2 * (self.horizon + 1)
        return [base + 2 * (t - 1), base + 2 * (t - 1) + 1]

    def _obs_idx(self, upto):
        out = []
        for t in range(1, upto + 1):
            out.extend(self._b_idx(t))
        return out

    # conditioning -------------------------------------------------------
    def conditional(self, target_idx, n_obs):
        """Moments of the target coordinates given the first n_obs growth rows."""
        ti = list(target_idx)
        if n_obs == 0:
            return ConditionalMoments(self.mean[ti], self.cov[np.ix_(ti, ti)])
        oi = self._obs_idx(n_obs)
        obs = self.growth[:n_obs].ravel()
        s_oo = self.cov[np.ix_(oi, oi)]
        s_to = self.cov[np.ix_(ti, oi)]
        sol = np.linalg.solve(s_oo, np.vstack([(obs - self.mean[oi]), s_to]).T)
        mean = self.mean[ti] + s_to @ sol[:, 0]
        cov = self.cov[np.ix_(ti, ti)] - s_to @ sol[:, 1:]
        return ConditionalMoments(mean, 0.5 * (cov + cov.T))

    def filtered_m(self, t):
        return self.conditional(self._m_idx(t), min(t, self.n_obs))

    def predicted_b(self, t):
        return self.conditional(self._b_idx(t), min(t - 1, self.n_obs))

    def smoothed_m(self, t):
        return self.conditional(self._m_idx(t), self.n_obs)

    def smoothed_m_pair(self, t):
        """Joint of (m̃_{t-1}, m̃_t) given the full sample (4-dim)."""
        return self.conditional(self._m_idx(t - 1) + self._m_idx(t), self.n_obs)

    def forecast_b(self, t):
        return self.conditional(self._b_idx(t), self.n_obs)

    def loglik(self):
        """Log density of the observed growth stack under the joint law."""
        oi = self._obs_idx(self.n_obs)
        return float(
            multivariate_normal(
                mean=self.mean[oi], cov=self.cov[np.ix_(oi, oi)]
            ).logpdf(self.growth.ravel())
        )


def horizon_cov_reference(params, schedule, origin, maturity):
    """Independent covariance assembly via stacked-system propagation matrices.

    Builds the noise-to-maturity-value coefficient of every period shock from
    the 4x4 one-step propagation form and sums the quadratic forms; used as a
    cross-check of the direct formula in
    :func:`privcredit.pricing.horizon_moments`.
    """
    t, T = int(origin), int(maturity)
    q_inv = np.block([[_I2, -_I2], [np.zeros((2, 2)), _I2]])
    j_b = np.hstack([_I2, np.zeros((2, 2))])
    j_m = np.hstack([np.zeros((2, 2)), _I2])
    sig = np.zeros((4, 4))
    sig[:2, :2] = params.meas_cov
    sig[2:, 2:] = params.state_cov

    def q_hat(j):
        out = np.zeros((4, 4))
        out[:2, 2:] = np.diag(schedule.gain[j]) - _I2
        out[2:, 2:] = _I2
        return out

    total = np.zeros((2, 2))
    for i in range(t + 1, T + 1):
        m_i = q_inv + sum((q_hat(j) for j in range(i + 1, T + 1)),
                          np.zeros((4, 4)))
        n_i = q_hat(T) if i < T else q_inv
        w_i = j_b @ m_i + j_m @ n_i
        total += w_i @ sig @ w_i.T
    return 0.5 * (total + total.T)


def asset_log_moments_public(moments, m_t, log_books_t, tangent, measure):
    """Mean and variance of the maturity log asset value given a known
    period-t multiplier, linearized at the maturity ``tangent`` (w_a, h_a)."""
    w_a, h_a = tangent
    weights = asset_weight_vector(w_a)
    mean_pair = (
        moments.alpha @ np.asarray(m_t, float)
        + moments.beta(measure)
        + np.asarray(log_books_t, float)
    )
    mu = float(weights @ mean_pair + w_a * h_a)
    var = float(weights @ moments.cov @ weights)
    return mu, var


def asset_log_moments_private(moments, m_mean, m_cov, log_books_t, tangent,
                              measure):
    """Asset log moments with the period-t multiplier integrated out: the
    public affine map at the posterior mean, plus the alpha-propagated
    posterior variance."""
    mu, var = asset_log_moments_public(
        moments, m_mean, log_books_t, tangent, measure
    )
    weights = asset_weight_vector(tangent[0])
    extra = weights @ moments.alpha @ np.asarray(m_cov, float) @ moments.alpha.T @ weights
    return mu, var + float(extra)


def mean_log_book_path_reference(params, schedule, log_books0):
    """Real-measure mean log books over periods 0..H, one period at a time:
    b_t = b_{t-1} − m_t + G_t m_{t-1} + c_t at the prior mean path m."""
    intercepts = real_intercepts(params, schedule)
    out = np.empty((schedule.horizon + 1, 2))
    out[0] = np.asarray(log_books0, float)
    for t in range(1, schedule.horizon + 1):
        m_new = params.init_mean + t * params.drift
        m_prev = params.init_mean + (t - 1) * params.drift
        out[t] = out[t - 1] - m_new + schedule.gain[t] * m_prev + intercepts[t]
    return out


def mean_path_tangents(params, schedule, log_books0):
    """Asset tangents of periods 0..H centered on the mean log book path, as
    a (2, H + 1) array of rows (w_a, h_a): a simulated panel's plug-in
    centers."""
    books = mean_log_book_path_reference(params, schedule, log_books0)
    return np.array([asset_tangent(params, t, b) for t, b in enumerate(books)]).T


def _rows(flat, T, shape):
    """(T + 1, *shape) array from per-period values, zero at row 0."""
    out = np.zeros((T + 1,) + shape)
    out[1:] = np.array(flat).reshape((T,) + shape)
    return out


def filter_reference(params, schedule, growth, intercepts):
    """The forward pass as one per-period loop that also tests each F_t for
    singularity and accumulates the log-likelihood as it goes: the loop
    :func:`privcredit.kalman.run_filter` splits into a lean recursion and
    whole-array work after it."""
    growth = np.asarray(growth, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    T = growth.shape[0]
    if schedule.horizon < T:
        raise DataValidationError("schedule does not cover the sample")
    phi0, phi1 = params.drift.tolist()
    (q00, q01), (_, q11) = params.state_cov.tolist()
    (r00, r01), (_, r11) = params.meas_cov.tolist()
    w00, w01, w11 = r00 + q00, r01 + q01, r11 + q11
    a0, a1 = params.init_mean.tolist()
    (p00, p01), (_, p11) = params.init_cov.tolist()
    # diagonal of the unconditional Var(m_{t-1}) = P_0 + (t - 1) Sigma_v
    v00, v11 = p00, p11

    m_filt, cov_filt = [a0, a1], [p00, p01, p01, p11]
    b_pred, cov_b, inv_b, gain, innovation, ll = [], [], [], [], [], [0.0]
    loading = (schedule.gain[1 : T + 1] - 1.0).tolist()
    rows = zip(loading, intercepts[1 : T + 1].tolist(), growth.tolist())
    for (d0, d1), (c0, c1), (y0, y1) in rows:
        f00 = d0 * d0 * p00 + w00
        f01 = d0 * d1 * p01 + w01
        f11 = d1 * d1 * p11 + w11
        det = f00 * f11 - f01 * f01
        trace = f00 + f11
        lam_min = 0.5 * (trace - math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
        scale = d0 * d0 * v00 + d1 * d1 * v11 + w00 + w11
        if not math.isfinite(det) or det <= 0.0 or lam_min <= _RCOND * scale:
            raise IllConditionedInnovationError(
                f"innovation covariance numerically singular (det={det:.3e})"
            )
        v00 += q00
        v11 += q11
        i00, i01, i11 = f11 / det, -f01 / det, f00 / det
        bp0 = d0 * a0 - phi0 + c0
        bp1 = d1 * a1 - phi1 + c1
        e0, e1 = y0 - bp0, y1 - bp1
        ll.append(-_LOG2PI - 0.5 * math.log(det)
                  - 0.5 * (e0 * (i00 * e0 + i01 * e1) + e1 * (i01 * e0 + i11 * e1)))
        # M = Cov(m_t, b_t) = P D - Sigma_v and K = M F^-1
        m00, m01 = p00 * d0 - q00, p01 * d1 - q01
        m10, m11 = p01 * d0 - q01, p11 * d1 - q11
        k00, k01 = m00 * i00 + m01 * i01, m00 * i01 + m01 * i11
        k10, k11 = m10 * i00 + m11 * i01, m10 * i01 + m11 * i11
        b_pred += (bp0, bp1)
        cov_b += (f00, f01, f01, f11)
        inv_b += (i00, i01, i01, i11)
        gain += (k00, k01, k10, k11)
        innovation += (e0, e1)

        a0 += phi0 + k00 * e0 + k01 * e1
        a1 += phi1 + k10 * e0 + k11 * e1
        p01 += q01 - 0.5 * (k00 * m10 + k01 * m11 + k10 * m00 + k11 * m01)
        p00 += q00 - k00 * m00 - k01 * m01
        p11 += q11 - k10 * m10 - k11 * m11
        m_filt += (a0, a1)
        cov_filt += (p00, p01, p01, p11)

    return FilterOutput(
        m_filt=np.array(m_filt).reshape(T + 1, 2),
        cov_m_filt=np.array(cov_filt).reshape(T + 1, 2, 2),
        b_pred=_rows(b_pred, T, (2,)),
        cov_b_pred=_rows(cov_b, T, (2, 2)),
        gain=_rows(gain, T, (2, 2)),
        innovation=_rows(innovation, T, (2,)),
        loading=_rows(loading, T, (2,)),
        loglik=float(np.array(ll).sum()), intercepts=intercepts,
        inv_cov_b_pred=_rows(inv_b, T, (2, 2)),
    )


def smooth_reference(filter_output):
    """The backward recursion inverting each F_t again and assigning into
    preallocated lists: the loop :func:`privcredit.kalman.smooth` runs on
    the filter's F_t⁻¹."""
    T = filter_output.n_periods
    m_filt = filter_output.m_filt.tolist()
    cov_filt = filter_output.cov_m_filt.reshape(T + 1, 4).tolist()
    cov_b = filter_output.cov_b_pred.reshape(T + 1, 4).tolist()
    gain = filter_output.gain.reshape(T + 1, 4).tolist()
    innovation = filter_output.innovation.tolist()
    loading = filter_output.loading.tolist()

    m_smooth = [0.0] * (2 * T) + m_filt[T]
    cov_smooth = [0.0] * (4 * T) + cov_filt[T]
    cross = [0.0] * (4 * T + 4)
    r0 = r1 = n00 = n01 = n11 = 0.0
    for t in range(T, 0, -1):
        f00, f01, _, f11 = cov_b[t]
        det = f00 * f11 - f01 * f01
        i00, i01, i11 = f11 / det, -f01 / det, f00 / det
        e0, e1 = innovation[t]
        d0, d1 = loading[t]
        k00, k01, k10, k11 = gain[t]
        l00, l01, l10, l11 = 1.0 - k00 * d0, -k01 * d1, -k10 * d0, 1.0 - k11 * d1
        p00, p01, _, p11 = cov_filt[t - 1]

        # Cov(m_{t-1}, m_t | T) = P_{t-1|t-1} L' X with X = I - N_t P_{t|t}
        q00, q01, _, q11 = cov_filt[t]
        x00, x01 = 1.0 - n00 * q00 - n01 * q01, -n00 * q01 - n01 * q11
        x10, x11 = -n01 * q00 - n11 * q01, 1.0 - n01 * q01 - n11 * q11
        y00, y01 = l00 * x00 + l10 * x10, l00 * x01 + l10 * x11
        y10, y11 = l01 * x00 + l11 * x10, l01 * x01 + l11 * x11
        cross[4 * t : 4 * t + 4] = (p00 * y00 + p01 * y10, p00 * y01 + p01 * y11,
                                    p01 * y00 + p11 * y10, p01 * y01 + p11 * y11)

        # r <- D F^-1 e + L' r and N <- D F^-1 D + L' N L
        u0, u1 = i00 * e0 + i01 * e1, i01 * e0 + i11 * e1
        r0, r1 = d0 * u0 + l00 * r0 + l10 * r1, d1 * u1 + l01 * r0 + l11 * r1
        nl00, nl01 = n00 * l00 + n01 * l10, n00 * l01 + n01 * l11
        nl10, nl11 = n01 * l00 + n11 * l10, n01 * l01 + n11 * l11
        n00, n01, n11 = (
            d0 * i00 * d0 + l00 * nl00 + l10 * nl10,
            d0 * i01 * d1 + 0.5 * (l00 * nl01 + l10 * nl11 + l01 * nl00 + l11 * nl10),
            d1 * i11 * d1 + l01 * nl01 + l11 * nl11,
        )

        a0, a1 = m_filt[t - 1]
        m_smooth[2 * t - 2 : 2 * t] = a0 + p00 * r0 + p01 * r1, a1 + p01 * r0 + p11 * r1
        pn00, pn01 = p00 * n00 + p01 * n01, p00 * n01 + p01 * n11
        pn10, pn11 = p01 * n00 + p11 * n01, p01 * n01 + p11 * n11
        s01 = p01 - 0.5 * (pn00 * p01 + pn01 * p11 + pn10 * p00 + pn11 * p01)
        cov_smooth[4 * t - 4 : 4 * t] = (p00 - pn00 * p00 - pn01 * p01, s01,
                                         s01, p11 - pn10 * p01 - pn11 * p11)

    return SmootherOutput(
        m_smooth=np.array(m_smooth).reshape(T + 1, 2),
        cov_m_smooth=np.array(cov_smooth).reshape(T + 1, 2, 2),
        cross_m=np.array(cross).reshape(T + 1, 2, 2),
    )


def _measurement_residual_cov(cov_m, cross_m, g):
    """Var(m̃_t − G_t m̃_{t-1} | full sample), t = 1..T, by broadcasting."""
    x = cross_m[1:]
    g_col, g_row = g[:, :, None], g[:, None, :]
    return (
        cov_m[1:]
        + g_col * cov_m[:-1] * g_row
        - x.transpose(0, 2, 1) * g_row
        - g_col * x
    )


def _state_residual_cov(cov_m, cross_m):
    """Var(m̃_t − m̃_{t-1} | full sample), t = 1..T."""
    x = cross_m[1:]
    return cov_m[1:] + cov_m[:-1] - x - x.transpose(0, 2, 1)


def residual_pieces_reference(params, schedule, m_smooth, cov_m, cross_m,
                              growth, payout_ratio):
    """Residuals u, v, d, the matrices Z and the per-period expected outer
    products E[uu'], E[vv'] at ``params``, stacked over t = 1..T."""
    T = growth.shape[0]
    periods = np.arange(1, T + 1)
    g = schedule.gain[1 : T + 1]
    h = schedule.shift[1 : T + 1]
    c = (g * params.req_return - (g - 1.0) * payout_ratio - h)
    u = growth + m_smooth[1:] - g * m_smooth[:-1] - c
    v = m_smooth[1:] - params.drift - m_smooth[:-1]
    centers = params.init_mean + (periods - 1)[:, None] * params.drift
    gg = g * (g - 1.0)
    d = gg * (m_smooth[:-1] - centers)
    z = gg[:, :, None] * (cross_m[1:] - cov_m[:-1] * g[:, None, :])
    e_uu = _outer(u, u) + _measurement_residual_cov(cov_m, cross_m, g)
    e_vv = _outer(v, v) + _state_residual_cov(cov_m, cross_m)
    return u, v, d, z, e_uu, e_vv


def gaussian_block_term_reference(cov, second_moments, count, name):
    """One Gaussian block of the objective from the stacked (n, 2, 2)
    second moments; an exactly-zero ``cov`` contributes nothing when every
    period's moments are within 1e-12 of zero and is rejected otherwise."""
    if not np.any(cov):
        if np.abs(second_moments).max() > 1e-12:
            raise DataValidationError(
                f"{name} is degenerate (zero) but residual moments are not"
            )
        return 0.0
    inv, logdet = _chol_inv_logdet(cov, name)
    quad = (inv.T * second_moments.sum(axis=0)).sum()
    return -count * _LOG2PI - 0.5 * count * logdet - 0.5 * quad


def objective_reference(params, smoothed, series, schedule=None):
    """The expected complete-data log-likelihood of the smoother output
    ``smoothed`` of ``series``, built period by period from the residual
    pieces over ``schedule`` (built at ``params`` when not given): what
    :func:`privcredit.em.expected_complete_loglik` computes from moment
    sums."""
    T = series.n_periods
    if schedule is None:
        schedule = build_linearization_schedule(params, series.payout_ratio, T)
    *_, e_uu, e_vv = residual_pieces_reference(
        params, schedule, smoothed.m_smooth, smoothed.cov_m_smooth,
        smoothed.cross_m, series.growth, series.payout_ratio,
    )
    diff0 = smoothed.m_smooth[0] - params.init_mean
    term_u = gaussian_block_term_reference(params.meas_cov, e_uu, T, "meas_cov")
    term_v = gaussian_block_term_reference(params.state_cov, e_vv, T, "state_cov")
    term_0 = gaussian_block_term_reference(
        params.init_cov,
        (smoothed.cov_m_smooth[0] + np.outer(diff0, diff0))[None], 1,
        "init_cov",
    )
    return float(term_u + term_v + term_0)


def required_return_fixed_point(u_free, ucov, g, cov_u, k):
    """The M-step's required-return/Σ_u fixed point with numpy.linalg
    inversion, condition number and solve: the loop that
    :func:`privcredit.em._required_return_fixed_point` writes in closed form.
    """
    T = g.shape[0]
    cov_u = cov_u.copy()
    k_new = k.copy()
    for _ in range(200):
        try:
            inv_u = np.linalg.inv(cov_u)
        except np.linalg.LinAlgError:
            raise DegenerateDesignError(
                "measurement covariance collapsed during the update"
            ) from None
        normal = inv_u * (g[:, None, :] * g[:, :, None]).sum(axis=0)
        rhs = (g * (u_free @ inv_u)).sum(axis=0)
        if np.linalg.cond(normal) > 1e12:
            raise DegenerateDesignError(
                "required-return normal equations numerically singular"
            )
        k_cand = np.linalg.solve(normal, rhs)
        u = u_free - g * k_cand
        cov_u_cand = (u.T @ u + ucov) / T
        cov_u_cand = 0.5 * (cov_u_cand + cov_u_cand.T)
        done = (
            np.abs(k_cand - k_new).max() < 1e-13
            and np.abs(cov_u_cand - cov_u).max() < 1e-13
        )
        k_new, cov_u = k_cand, cov_u_cand
        if done:
            break
    return k_new, cov_u


def params_validation_error(fields):
    """The message ``ModelParams(**fields)`` must fail with, or None: the
    checks in numpy form (``allclose`` symmetry, ``eigvalsh`` PSD)."""
    for name in ("req_return", "init_mean", "drift"):
        if np.asarray(fields[name], dtype=float).shape != (2,):
            return f"{name} must be a 2-vector"
    covs = []
    for name in ("init_cov", "meas_cov", "state_cov"):
        m = np.asarray(fields[name], dtype=float)
        if m.shape != (2, 2):
            return f"{name} must be 2x2, got shape {m.shape}"
        if not np.allclose(m, m.T, atol=1e-12):
            return f"{name} must be symmetric"
        m = 0.5 * (m + m.T)
        with np.errstate(all="ignore"):
            if np.linalg.eigvalsh(m).min() < -1e-10:
                return f"{name} must be positive semidefinite"
        covs.append(m.ravel())
    values = np.concatenate(
        [np.asarray(fields[name], dtype=float)
         for name in ("req_return", "init_mean", "drift")]
        + covs + [[float(fields["rate_log"])]]
    )
    if not np.isfinite(values).all():
        return "all parameter entries must be finite"
    return None


def binned_error_curve(panel, period, tangent, n_bins=12):
    """Mean absolute linearization error binned by |deviation from center|.

    Returns (bin centers, mean errors) over paths at the given panel column
    linearized at ``tangent`` (w_a, h_a); used to check that the error grows
    (quadratically) in the deviation.
    """
    values = panel.log_values[:, period]
    w_a, h_a = tangent
    dev = np.abs((values[:, 0] - values[:, 1]) - np.log(1.0 / w_a - 1.0))
    lin = linearized_log_asset(values, w_a, h_a)
    err = np.abs(panel.log_asset_exact[:, period] - lin)
    edges = np.quantile(dev, np.linspace(0.0, 1.0, n_bins + 1))
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (dev >= lo) & (dev < hi if hi < edges[-1] else dev <= hi)
        if mask.sum() >= 5:
            centers.append(dev[mask].mean())
            means.append(err[mask].mean())
    return np.array(centers), np.array(means)


def ingest_reference(path):
    """``io.ingest`` as a loop over rows and cells that raises at the first
    faulty one: per row, the field count, the period cell, the period as an
    integer and in the sequence, then the four values."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataValidationError(
                f"{path}: malformed header {header!r}, expected {CSV_HEADER}")
        rows = [(reader.line_num, row) for row in reader
                if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise DataValidationError(f"{path}: need at least 2 data rows")

    def invalid(line, col, problem):
        return DataValidationError(
            f"{path}: row {line}, column {CSV_HEADER[col]}{problem}")

    def cell(line, row, col, optional=False):
        raw = row[col].strip()
        if raw == "":
            if optional:
                return None
            raise invalid(line, col, " is empty")
        try:
            value = float(raw)
        except ValueError:
            raise invalid(line, col, f": not a number ({raw!r})") from None
        if col and not (0.0 < value < math.inf or optional and value == 0.0):
            sign = "nonnegative" if optional else "strictly positive"
            raise invalid(line, col, f": must be {sign} and finite (got {raw})")
        return value

    books, payouts = [], []
    for i, (line, row) in enumerate(rows):
        if len(row) != len(CSV_HEADER):
            raise DataValidationError(
                f"{path}: row {line} has {len(row)} fields, expected {len(CSV_HEADER)}")
        period = cell(line, row, 0)
        if not period.is_integer():
            raise invalid(line, 0, f": not a finite integer ({period!r})")
        if i == 0:
            first_period = int(period)
        elif period != first_period + i:
            raise DataValidationError(
                f"{path}: row {line}: period {period:g} breaks the "
                f"consecutive sequence starting at {first_period}")
        books.append((cell(line, row, 1), cell(line, row, 2)))
        payout = cell(line, row, 3, i == 0), cell(line, row, 4, i == 0)
        if i:
            payouts.append(payout)
    return derive_series(books, payouts)


def schedule_reference(params, payout_ratio, horizon=None):
    """:func:`privcredit.model.build_linearization_schedule` as whole-array
    expressions on fresh arrays, each field padded and frozen on its own."""
    ratio = np.atleast_2d(np.asarray(payout_ratio, dtype=float))
    if horizon is None:
        horizon = ratio.shape[0]
    if ratio.shape != (horizon, 2):
        raise DataValidationError(
            f"payout_ratio must have shape ({horizon}, 2), got {ratio.shape}"
        )
    if not np.isfinite(ratio).all():
        raise DataValidationError("payout_ratio must be finite")
    periods = np.arange(1, horizon + 1)
    gap = ratio - params.req_return - (
        params.init_mean + (periods - 1)[:, None] * params.drift
    )
    e = np.exp(gap)
    bad = np.argwhere(e >= 1.0)
    if bad.size:
        t, c = bad[0]
        raise InfeasibleLinearizationError(int(t) + 1, int(c), float(e[t, c]))
    gain = 1.0 / (1.0 - e)
    shift = -(gap * e / (1.0 - e) + np.log1p(-e))
    pad = np.full((1, 2), np.nan)
    return LinearizationSchedule(*(
        _frozen(np.vstack([pad, a])) for a in (gap, gain, shift, ratio)))


def _frozen(a):
    a.flags.writeable = False
    return a


def _entries(m):
    return m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]


def filter_columns_reference(params, schedule, growth, intercepts):
    """:func:`privcredit.kalman.run_filter` with its loop reading three
    nested (T, 2) lists and every column expression on its own (T,) arrays:
    the form the stacked column code must match bit for bit."""
    growth = np.asarray(growth, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    T = growth.shape[0]
    if schedule.horizon < T:
        raise DataValidationError("schedule does not cover the sample")
    phi0, phi1 = params.drift.tolist()
    (q00, q01), (_, q11) = params.state_cov.tolist()
    (r00, r01), (_, r11) = params.meas_cov.tolist()
    w00, w01, w11 = r00 + q00, r01 + q01, r11 + q11
    a0, a1 = params.init_mean.tolist()
    (p00, p01), (_, p11) = params.init_cov.tolist()
    loading = schedule.gain[1 : T + 1] - 1.0
    c = intercepts[1 : T + 1]

    record = [a0, a1, p00, p01, p01, p11]
    for (d0, d1), (c0, c1), (y0, y1) in zip(loading.tolist(), c.tolist(),
                                            growth.tolist()):
        f00 = d0 * d0 * p00 + w00
        f01 = d0 * d1 * p01 + w01
        f11 = d1 * d1 * p11 + w11
        det = f00 * f11 - f01 * f01
        if not 0.0 < det < math.inf:
            break
        i00, i01, i11 = f11 / det, -f01 / det, f00 / det
        e0 = y0 - (d0 * a0 - phi0 + c0)
        e1 = y1 - (d1 * a1 - phi1 + c1)
        m00, m01 = p00 * d0 - q00, p01 * d1 - q01
        m10, m11 = p01 * d0 - q01, p11 * d1 - q11
        k00, k01 = m00 * i00 + m01 * i01, m00 * i01 + m01 * i11
        k10, k11 = m10 * i00 + m11 * i01, m10 * i01 + m11 * i11
        a0 += phi0 + k00 * e0 + k01 * e1
        a1 += phi1 + k10 * e0 + k11 * e1
        p01 += q01 - 0.5 * (k00 * m10 + k01 * m11 + k10 * m00 + k11 * m01)
        p00 += q00 - k00 * m00 - k01 * m01
        p11 += q11 - k10 * m10 - k11 * m11
        record += (a0, a1, p00, p01, p01, p11)

    state = np.fromiter(record, float, len(record)).reshape(-1, 6)
    n = state.shape[0] - 1
    a0, a1, p00, p01, _, p11 = state[:n].T
    d0, d1 = loading[:n].T
    f00 = d0 * d0 * p00 + w00
    f01 = d0 * d1 * p01 + w01
    f11 = d1 * d1 * p11 + w11
    var = np.empty((n, 2))
    var[:] = q00, q11
    var[:1] = record[2], record[5]
    v00, v11 = var.cumsum(axis=0).T
    with np.errstate(all="ignore"):
        dets = f00 * f11 - f01 * f01
        trace = f00 + f11
        lam_min = 0.5 * (trace - np.sqrt(np.maximum(trace * trace - 4.0 * dets, 0.0)))
        scale = d0 * d0 * v00 + d1 * d1 * v11 + w00 + w11
        singular = lam_min <= _RCOND * scale
    if singular.any():
        raise IllConditionedInnovationError(
            f"innovation covariance numerically singular (det={dets[singular.argmax()]:.3e})")
    if n < T:
        raise IllConditionedInnovationError(
            f"innovation covariance numerically singular (det={det:.3e})")
    i00, i01, i11 = f11 / dets, -f01 / dets, f00 / dets
    c0, c1 = c.T
    y0, y1 = growth.T
    b0, b1 = d0 * a0 - phi0 + c0, d1 * a1 - phi1 + c1
    e0, e1 = y0 - b0, y1 - b1
    m00, m01 = p00 * d0 - q00, p01 * d1 - q01
    m10, m11 = p01 * d0 - q01, p11 * d1 - q11
    k00, k01 = m00 * i00 + m01 * i01, m00 * i01 + m01 * i11
    k10, k11 = m10 * i00 + m11 * i01, m10 * i01 + m11 * i11
    loglik = (-_LOG2PI - 0.5 * np.log(dets)
              - 0.5 * (e0 * (i00 * e0 + i01 * e1) + e1 * (i01 * e0 + i11 * e1))).sum()
    if not (np.isfinite(state).all() and np.isfinite(loglik)):
        raise IllConditionedInnovationError(
            "filter diverged: a filtered mean or covariance or the "
            "log-likelihood is not finite")
    out = np.zeros((18, T + 1))
    out[:, 1:] = (b0, b1, f00, f01, f01, f11, i00, i01, i01, i11,
                  k00, k01, k10, k11, e0, e1, d0, d1)
    return FilterOutput(
        m_filt=state[:, :2],
        cov_m_filt=state[:, 2:].reshape(T + 1, 2, 2),
        b_pred=out[0:2].T,
        cov_b_pred=out[2:6].T.reshape(T + 1, 2, 2),
        gain=out[10:14].T.reshape(T + 1, 2, 2),
        innovation=out[14:16].T,
        loading=out[16:18].T,
        loglik=float(loglik),
        intercepts=intercepts,
        inv_cov_b_pred=out[6:10].T.reshape(T + 1, 2, 2),
    )


def smooth_columns_reference(filter_output):
    """:func:`privcredit.kalman.smooth` with every column expression on its
    own (T,) arrays and the recursion reading nine reversed columns."""
    T = filter_output.n_periods
    d0, d1 = filter_output.loading[1:].T
    k00, k01, k10, k11 = _entries(filter_output.gain[1:])
    i00, i01, _, i11 = _entries(filter_output.inv_cov_b_pred[1:])
    e0, e1 = filter_output.innovation[1:].T
    l00, l01, l10, l11 = 1.0 - k00 * d0, -k01 * d1, -k10 * d0, 1.0 - k11 * d1
    columns = (l00, l01, l10, l11,
               d0 * (i00 * e0 + i01 * e1), d1 * (i01 * e0 + i11 * e1),
               d0 * i00 * d0, d0 * i01 * d1, d1 * i11 * d1)
    record = []
    r0 = r1 = n00 = n01 = n11 = 0.0
    for x00, x01, x10, x11, u0, u1, g00, g01, g11 in zip(
            *(column[::-1].tolist() for column in columns)):
        r0, r1 = u0 + x00 * r0 + x10 * r1, u1 + x01 * r0 + x11 * r1
        nl00, nl01 = n00 * x00 + n01 * x10, n00 * x01 + n01 * x11
        nl10, nl11 = n01 * x00 + n11 * x10, n01 * x01 + n11 * x11
        n00, n01, n11 = (
            g00 + x00 * nl00 + x10 * nl10,
            g01 + 0.5 * (x00 * nl01 + x10 * nl11 + x01 * nl00 + x11 * nl10),
            g11 + x01 * nl01 + x11 * nl11,
        )
        record += (r0, r1, n00, n01, n11)
    rn = np.zeros((T + 1, 5))
    rn[:T] = np.fromiter(record, float, len(record)).reshape(T, 5)[::-1]
    r0, r1, n00, n01, n11 = rn.T

    m_filt, cov_filt = filter_output.m_filt, filter_output.cov_m_filt
    a0, a1 = m_filt[:T].T
    p00, p01, _, p11 = _entries(cov_filt[:T])
    nt00, nt01, nt11 = n00[1:], n01[1:], n11[1:]
    r0, r1, n00, n01, n11 = r0[:T], r1[:T], n00[:T], n01[:T], n11[:T]
    m0, m1 = a0 + p00 * r0 + p01 * r1, a1 + p01 * r0 + p11 * r1
    pn00, pn01 = p00 * n00 + p01 * n01, p00 * n01 + p01 * n11
    pn10, pn11 = p01 * n00 + p11 * n01, p01 * n01 + p11 * n11
    s00 = p00 - pn00 * p00 - pn01 * p01
    s01 = p01 - 0.5 * (pn00 * p01 + pn01 * p11 + pn10 * p00 + pn11 * p01)
    s11 = p11 - pn10 * p01 - pn11 * p11
    m_smooth = np.empty((T + 1, 2))
    m_smooth.T[:, :T] = m0, m1
    m_smooth[T] = m_filt[T]
    cov_smooth = np.empty((T + 1, 4))
    cov_smooth.T[:, :T] = s00, s01, s01, s11
    cov_smooth[T] = cov_filt[T].reshape(4)
    q00, q01, _, q11 = _entries(cov_filt[1:])
    x00, x01 = 1.0 - nt00 * q00 - nt01 * q01, -nt00 * q01 - nt01 * q11
    x10, x11 = -nt01 * q00 - nt11 * q01, 1.0 - nt01 * q01 - nt11 * q11
    y00, y01 = l00 * x00 + l10 * x10, l00 * x01 + l10 * x11
    y10, y11 = l01 * x00 + l11 * x10, l01 * x01 + l11 * x11
    cross = np.zeros((T + 1, 4))
    cross.T[:, 1:] = (p00 * y00 + p01 * y10, p00 * y01 + p01 * y11,
                      p01 * y00 + p11 * y10, p01 * y01 + p11 * y11)
    return SmootherOutput(
        m_smooth=m_smooth,
        cov_m_smooth=cov_smooth.reshape(T + 1, 2, 2),
        cross_m=cross.reshape(T + 1, 2, 2),
    )


def _sym(m):
    (m00, m01), (m10, m11) = m.tolist()
    return m00, 0.5 * (m01 + m10), m11


def moment_sums_reference(smoothed, series, schedule, params, filter_output=None):
    """:func:`privcredit.em.moment_sums` as whole-array expressions on
    fresh (T, 2) and (T, 2, 2) arrays."""
    T = series.n_periods
    m, cov_m = smoothed.m_smooth, smoothed.cov_m_smooth
    g = schedule.gain[1 : T + 1]
    h = schedule.shift[1 : T + 1]
    u_free = series.growth + m[1:] - g * m[:-1] + (g - 1.0) * series.payout_ratio + h
    u_ref = u_free - g * params.req_return
    steps = m[1:] - m[:-1]
    v_ref = steps - params.drift
    meas_resid = _measurement_residual_cov(cov_m, smoothed.cross_m, g)
    state_resid = _state_residual_cov(cov_m, smoothed.cross_m)
    meas_sum, state_sum = meas_resid.sum(axis=0), state_resid.sum(axis=0)
    (q00, q01), (q10, q11) = (g.T @ u_ref).tolist()
    return MomentSums(
        params=params, smoothed=smoothed, filter_output=filter_output,
        n_periods=T,
        uu=_sym(u_ref.T @ u_ref + meas_sum),
        gu=(q00, q01, q10, q11),
        gg=_sym(g.T @ g),
        vv=_sym(v_ref.T @ v_ref + state_sum),
        v_sum=tuple(v_ref.sum(axis=0).tolist()),
        u_free=u_free, gain=g, steps=steps,
        meas_resid_cov=meas_resid, state_resid_cov=state_resid,
        meas_resid_sum=meas_sum, state_resid_sum=state_sum,
    )


def param_change_reference(old, new):
    """The largest absolute change of any parameter entry, as numpy
    reductions per field."""
    return max(np.abs(getattr(old, f) - getattr(new, f)).max()
               for f in ("req_return", "init_mean", "drift",
                         "init_cov", "meas_cov", "state_cov"))


def m_step_reference(sums):
    """:func:`privcredit.em.m_step` with its 2×2 results as numpy arrays and
    the parameters built by ``ModelParams.replace``."""
    T, g, params = sums.n_periods, sums.gain, sums.params
    m, cov0 = sums.smoothed.m_smooth, sums.smoothed.cov_m_smooth[0]
    cov0_new = 0.5 * (cov0 + cov0.T)
    phi_new = (m[T] - m[0]) / T
    v = m[1:] - phi_new - m[:-1]
    cov_v_new = (v.T @ v + sums.state_resid_sum) / T
    cov_v_new = 0.5 * (cov_v_new + cov_v_new.T)
    (s00, s01), (_, s11) = (g.T @ g).tolist()
    (q00, q01), (q10, q11) = (g.T @ sums.u_free).tolist()
    (c00, c01), (_, c11) = params.meas_cov.tolist()
    k0, k1 = params.req_return.tolist()
    for _ in range(200):
        det = c00 * c11 - c01 * c01
        if det == 0.0:
            raise DegenerateDesignError(
                "measurement covariance collapsed during the update")
        i00, i01, i11 = c11 / det, -c01 / det, c00 / det
        n00, n01, n11 = i00 * s00, i01 * s01, i11 * s11
        r0, r1 = i00 * q00 + i01 * q01, i01 * q10 + i11 * q11
        n_det = n00 * n11 - n01 * n01
        lam_max = 0.5 * abs(n00 + n11) + math.hypot(0.5 * (n00 - n11), n01)
        if not lam_max * lam_max <= 1e12 * abs(n_det):
            raise DegenerateDesignError(
                "required-return normal equations numerically singular")
        k0_new = (n11 * r0 - n01 * r1) / n_det
        k1_new = (n00 * r1 - n01 * r0) / n_det
        u = sums.u_free - g * (k0_new, k1_new)
        (e00, e01), (e10, e11) = ((u.T @ u + sums.meas_resid_sum) / len(g)).tolist()
        e01 = 0.5 * (e01 + e10)
        done = max(abs(k0_new - k0), abs(k1_new - k1), abs(e00 - c00),
                   abs(e01 - c01), abs(e11 - c11)) < 1e-13
        k0, k1, c00, c01, c11 = k0_new, k1_new, e00, e01, e11
        if done:
            break
    return params.replace(
        req_return=np.array([k0, k1]), init_mean=m[0].copy(), init_cov=cov0_new,
        drift=phi_new, meas_cov=np.array([[c00, c01], [c01, c11]]),
        state_cov=cov_v_new,
    )


def blend_reference(old, new, weight):
    """:func:`privcredit.em._blend_params` field by field on arrays."""
    return old.replace(**{
        f: (1.0 - weight) * getattr(old, f) + weight * getattr(new, f)
        for f in ("req_return", "init_mean", "drift",
                  "init_cov", "meas_cov", "state_cov")
    })


def _mc_mean_se_reference(values):
    n = values.shape[0]
    se = values.std(ddof=1) / np.sqrt(n) if n > 1 else np.inf
    return float(values.mean()), float(se)


def mc_option_price_reference(log_asset, strike, tau, rate_log):
    """:func:`privcredit.simulate.mc_option_price` over the whole array."""
    if not 0 <= strike < np.inf:
        raise DataValidationError("strike must be nonnegative and finite")
    disc = np.exp(-tau * rate_log)
    asset = np.exp(log_asset)
    call = _mc_mean_se_reference(disc * np.maximum(asset - strike, 0.0))
    put = _mc_mean_se_reference(disc * np.maximum(strike - asset, 0.0))
    return call, put


def mc_default_probability_reference(log_asset, threshold):
    """:func:`privcredit.simulate.mc_default_probability` over the whole
    array."""
    if not 0 < threshold < np.inf:
        raise DataValidationError("threshold must be positive and finite")
    hits = log_asset <= np.log(threshold)
    p = float(hits.mean())
    return p, float(np.sqrt(max(p * (1.0 - p), 0.0) / hits.shape[0]))
