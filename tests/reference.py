"""Test-only references for the engine.

:class:`GaussianConditioningOracle` builds the exact joint normal
distribution of all log multipliers and all observed log book growth rates
as one explicit linear map of the primitive noise, then answers filtering /
smoothing / forecasting questions by dense block conditioning. Everything
the recursive code computes must agree with this object; it is deliberately
simple and O((2(2H+1))^3), guarded to short samples.
:func:`horizon_cov_reference` is the matching reference for the pricing
layer's maturity covariance, :func:`required_return_fixed_point` the
numpy.linalg form of the M-step's required-return/measurement-covariance
iteration, :func:`params_validation_error` the numpy form of
``ModelParams``' checks, and :func:`binned_error_curve` measures the asset linearization
error of a simulated panel.

Tests import this module the way they import ``conftest``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal

from privcredit.errors import DataValidationError, DegenerateDesignError

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


def binned_error_curve(panel, period, n_bins=12):
    """Mean absolute linearization error binned by |deviation from center|.

    Returns (bin centers, mean errors) over paths at the given panel column;
    used to check that the error grows (quadratically) in the deviation.
    """
    values = panel.log_values[:, period]
    dev = np.abs(
        (values[:, 0] - values[:, 1])
        - (np.log(1.0 / panel.asset_weight[period] - 1.0))
    )
    err = np.abs(panel.log_asset_exact[:, period] - panel.log_asset_lin[:, period])
    edges = np.quantile(dev, np.linspace(0.0, 1.0, n_bins + 1))
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (dev >= lo) & (dev < hi if hi < edges[-1] else dev <= hi)
        if mask.sum() >= 5:
            centers.append(dev[mask].mean())
            means.append(err[mask].mean())
    return np.array(centers), np.array(means)
