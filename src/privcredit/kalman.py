"""Exact filtering, smoothing and forecasting for the latent multiplier.

The model is

    m̃_t = m̃_{t-1} + φ + v_t,                 v_t ~ N(0, Σ_v),
    b̃_t = −m̃_t + G_t m̃_{t-1} + c_t + u_t,   u_t ~ N(0, Σ_u),

with G_t diagonal. Substituting the transition into the observation gives

    b̃_t = D_t m̃_{t-1} − φ + c_t + (u_t − v_t),   D_t = G_t − I,

so with the lagged multiplier as the state the system is a 2-state model
whose measurement and state disturbances are correlated,
Cov(u_t − v_t, v_t) = −Σ_v (Harvey 1989, §3.2.4; Durbin & Koopman 2012,
§6.4). Given the filtered moments (a, P) of m̃_{t-1} from data to t−1,

    b̂_t = D_t a − φ + c_t,   F_t = D_t P D_t + Σ_u + Σ_v,
    M_t = Cov(m̃_t, b̃_t | data to t−1) = P D_t − Σ_v,   K_t = M_t F_t⁻¹,

and conditioning on the innovation e_t = b̃_t − b̂_t gives the filtered m̃_t
with mean a + φ + K_t e_t and covariance P + Σ_v − K_t M_t'. F_t counts as
numerically singular when its smallest eigenvalue is below 1e-13 times the
trace of the unconditional Var(b̃_t) = D_t (P_0 + (t−1)Σ_v) D_t + Σ_u + Σ_v,
which also catches covariances that vanish in exact arithmetic but carry
rounding noise.

The smoother is the backward recursion of Durbin & Koopman (2012, §4.4) for
this system: with L_t = I − K_t D_t and r_T = 0, N_T = 0,

    r_{t-1} = D_t F_t⁻¹ e_t + L_t' r_t,   N_{t-1} = D_t F_t⁻¹ D_t + L_t' N_t L_t,
    m̃_{t-1|T} = m̃_{t-1|t-1} + P_{t-1|t-1} r_{t-1},
    P_{t-1|T} = P_{t-1|t-1} − P_{t-1|t-1} N_{t-1} P_{t-1|t-1},
    Cov(m̃_{t-1}, m̃_t | T) = P_{t-1|t-1} L_t' (I − N_t P_{t|t}).

Only the innovation covariances F_t are inverted, so exactly or nearly
singular filtered covariances (zero prior or state noise) need no special
path. Every time loop runs closed-form 2×2 algebra on Python floats; the
off-diagonal of each covariance is the average of its two computed
triangles, which keeps it exactly symmetric. Intercepts enter means only,
so gains and covariances are intercept-free.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, IllConditionedInnovationError

_RCOND = 1e-13
_LOG2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FilterOutput:
    """Forward-pass moments, indexed by absolute period 0..T.

    Row 0 of ``m_filt`` / ``cov_m_filt`` holds the prior; the per-period
    arrays are zero at row 0. ``gain[t]`` (K_t) maps the innovation
    ``innovation[t]`` into the filtered m̃_t, and ``loading[t]`` is the
    diagonal of D_t = G_t − I.
    """

    m_filt: np.ndarray
    cov_m_filt: np.ndarray
    b_pred: np.ndarray
    cov_b_pred: np.ndarray
    gain: np.ndarray
    innovation: np.ndarray
    loading: np.ndarray
    loglik: float
    intercepts: np.ndarray

    @property
    def n_periods(self):
        return self.m_filt.shape[0] - 1


@dataclass(frozen=True)
class SmootherOutput:
    """Backward-pass moments; ``cross_m[t]`` is Cov(m̃_{t-1}, m̃_t | all
    data) (defined for t = 1..T, zero at row 0)."""

    m_smooth: np.ndarray
    cov_m_smooth: np.ndarray
    cross_m: np.ndarray


@dataclass(frozen=True)
class ForecastOutput:
    """Out-of-sample moments for periods T+1..H (rows 0..T unused)."""

    m_mean: np.ndarray
    cov_m: np.ndarray
    b_mean: np.ndarray
    cov_b: np.ndarray
    start: int


def _rows(flat, T, shape):
    """(T + 1, *shape) array from per-period values, zero at row 0."""
    out = np.zeros((T + 1,) + shape)
    out[1:] = np.array(flat).reshape((T,) + shape)
    return out


def run_filter(params, schedule, growth, intercepts):
    """Full forward pass over the sample.

    Parameters
    ----------
    growth : (T, 2) array
        Observed log book growth, natural order (row 0 is period 1).
    intercepts : (H + 1, 2) array
        Measurement intercepts by absolute period (real or risk-neutral).

    Returns
    -------
    FilterOutput
        With the Gaussian prediction-error log-likelihood accumulated over
        the sample.

    Raises
    ------
    IllConditionedInnovationError
        If an innovation covariance is numerically singular.
    """
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
    b_pred, cov_b, gain, innovation, ll = [], [], [], [], [0.0]
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
    )


def smooth(filter_output, params):
    """Backward recursion: smoothed moments and lag-one cross-covariances."""
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


def forecast(filter_output, params, schedule, horizon):
    """Conditional moments for periods T+1..horizon given the sample.

    Uses the same intercept array the filter ran with. From the filtered
    m̃_T, the multiplier k periods on has mean m̃_{T|T} + kφ and covariance
    P_{T|T} + kΣ_v, and the growth moments follow from the lagged-state
    observation equation.
    """
    T = filter_output.n_periods
    if horizon <= T:
        raise DataValidationError("forecast horizon must exceed the sample length")
    if schedule.horizon < horizon:
        raise DataValidationError("schedule does not cover the forecast horizon")
    steps = np.arange(horizon - T, dtype=float)[:, None]
    m_prev = filter_output.m_filt[T] + steps * params.drift
    cov_prev = filter_output.cov_m_filt[T] + steps[:, :, None] * params.state_cov
    d = schedule.gain[T + 1 : horizon + 1] - 1.0
    b = d * m_prev - params.drift + filter_output.intercepts[T + 1 : horizon + 1]
    cov_b = (d[:, :, None] * d[:, None, :]) * cov_prev + (
        params.meas_cov + params.state_cov
    )

    def pad(a):
        return np.concatenate([np.zeros((T + 1,) + a.shape[1:]), a])

    return ForecastOutput(
        m_mean=pad(m_prev + params.drift), cov_m=pad(cov_prev + params.state_cov),
        b_mean=pad(b), cov_b=pad(cov_b), start=T + 1,
    )
