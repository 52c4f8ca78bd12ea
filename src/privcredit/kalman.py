"""Exact filtering and smoothing for the latent multiplier.

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

Only the innovation covariances F_t are inverted, once, in the filter, so
exactly or nearly singular filtered covariances (zero prior or state noise)
need no special path. Each time loop keeps only its recursion, in
closed-form 2×2 algebra on Python floats, and appends one short record per
period: the filter loop predicts, forms F_t⁻¹ and the gain, updates, and
records the filtered mean and covariance; it stops early only at a det F_t
that is not positive and finite, which it cannot invert. The smoother loop
runs the r_t, N_t recursion on L_t, D_t F_t⁻¹ e_t and D_t F_t⁻¹ D_t,
formed beforehand from the filter's F_t⁻¹, and records r_t and N_t.
Everything else is computed after the loops on whole (T,) columns, with the
loops' own expressions in the same order, so it matches them bit for bit:
the filter's F_t, F_t⁻¹, gains, predictions and innovations, its
singularity test, which raises at the first singular period, and its
log-likelihood terms; the smoother's means, covariances and
cross-covariances. The off-diagonal of each covariance is the average of
its two computed triangles, which keeps it exactly symmetric.

Intercepts enter the means only, so gains and covariances are
intercept-free, and moving the intercepts from c to c̃ = c + Δc moves the
filtered mean of m̃_t by δ_t, with δ_0 = 0 and

    δ_t = δ_{t-1} − K_t (D_t δ_{t-1} + Δc_t),

an O(T) recursion on the gains and loadings one filter pass returns.

Forecasting past the sample is :func:`privcredit.pricing.horizon_moments`.
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
    ``innovation[t]`` into the filtered m̃_t, ``loading[t]`` is the
    diagonal of D_t = G_t − I and ``inv_cov_b_pred[t]`` is F_t⁻¹, which
    the smoother reuses.
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
    inv_cov_b_pred: np.ndarray

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


def _singular(det):
    return IllConditionedInnovationError(
        f"innovation covariance numerically singular (det={det:.3e})"
    )


def _entries(m):
    """The four entries of stacked 2×2 matrices (n, 2, 2) as (n,) columns."""
    return m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]


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
        At the first period whose innovation covariance is numerically
        singular.
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
    loading = schedule.gain[1 : T + 1] - 1.0
    c = intercepts[1 : T + 1]

    # filtered mean and covariance of m_t for t = 0, 1, ..., the prior first
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
        # M = Cov(m_t, b_t) = P D - Sigma_v and K = M F^-1
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

    # the loop's other quantities, as the same expressions on whole columns
    state = np.fromiter(record, float, len(record)).reshape(-1, 6)
    n = state.shape[0] - 1
    a0, a1, p00, p01, _, p11 = state[:n].T
    d0, d1 = loading[:n].T
    f00 = d0 * d0 * p00 + w00
    f01 = d0 * d1 * p01 + w01
    f11 = d1 * d1 * p11 + w11
    # diagonal of the unconditional Var(m_{t-1}) = P_0 + (t - 1) Sigma_v,
    # summed in period order
    var = np.empty((n, 2))
    var[:] = q00, q11
    var[:1] = record[2], record[5]
    v00, v11 = var.cumsum(axis=0).T
    with np.errstate(all="ignore"):
        # periods after the first singular one may have overflowed
        dets = f00 * f11 - f01 * f01
        trace = f00 + f11
        lam_min = 0.5 * (trace - np.sqrt(np.maximum(trace * trace - 4.0 * dets, 0.0)))
        scale = d0 * d0 * v00 + d1 * d1 * v11 + w00 + w11
        singular = lam_min <= _RCOND * scale
    if singular.any():
        raise _singular(dets[singular.argmax()])
    if n < T:
        raise _singular(det)
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

    # rows: predicted growth, F, F^-1, K, innovation, D, zero at period 0;
    # the outputs are transposed views of row blocks
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


def intercept_shift(filter_output, change):
    """δ_T: the shift of the filtered mean of m̃_T when the measurement
    intercepts the filter ran with move by ``change`` ((T, 2), periods
    1..T)."""
    x0 = x1 = 0.0
    rows = zip(filter_output.gain[1:].reshape(-1, 4).tolist(),
               filter_output.loading[1:].tolist(), change.tolist())
    for (k00, k01, k10, k11), (d0, d1), (c0, c1) in rows:
        # δ <- δ - K (D δ + Δc)
        e0, e1 = d0 * x0 + c0, d1 * x1 + c1
        x0, x1 = x0 - k00 * e0 - k01 * e1, x1 - k10 * e0 - k11 * e1
    return np.array([x0, x1])


def _smoother_recursion(l00, l01, l10, l11, u0, u1, g00, g01, g11):
    """r_t and N_t for t = 0..T from per-period columns of L_t, D_t F_t⁻¹ e_t
    and the entries 00, 01, 11 of D_t F_t⁻¹ D_t (rows t = 1..T).

    Returns the (5, T + 1) rows r0, r1, n00, n01, n11; column T holds
    r_T = 0, N_T = 0.
    """
    T = l00.shape[0]
    record = []
    r0 = r1 = n00 = n01 = n11 = 0.0
    rows = zip(*(column[::-1].tolist()
                 for column in (l00, l01, l10, l11, u0, u1, g00, g01, g11)))
    for l00, l01, l10, l11, u0, u1, g00, g01, g11 in rows:
        # r <- D F^-1 e + L' r and N <- D F^-1 D + L' N L
        r0, r1 = u0 + l00 * r0 + l10 * r1, u1 + l01 * r0 + l11 * r1
        nl00, nl01 = n00 * l00 + n01 * l10, n00 * l01 + n01 * l11
        nl10, nl11 = n01 * l00 + n11 * l10, n01 * l01 + n11 * l11
        n00, n01, n11 = (
            g00 + l00 * nl00 + l10 * nl10,
            g01 + 0.5 * (l00 * nl01 + l10 * nl11 + l01 * nl00 + l11 * nl10),
            g11 + l01 * nl01 + l11 * nl11,
        )
        record += (r0, r1, n00, n01, n11)
    rn = np.zeros((T + 1, 5))
    rn[:T] = np.fromiter(record, float, len(record)).reshape(T, 5)[::-1]
    return rn.T


def smooth(filter_output):
    """Backward recursion: smoothed moments and lag-one cross-covariances."""
    T = filter_output.n_periods
    d0, d1 = filter_output.loading[1:].T
    k00, k01, k10, k11 = _entries(filter_output.gain[1:])
    i00, i01, _, i11 = _entries(filter_output.inv_cov_b_pred[1:])
    e0, e1 = filter_output.innovation[1:].T
    l00, l01, l10, l11 = 1.0 - k00 * d0, -k01 * d1, -k10 * d0, 1.0 - k11 * d1
    r0, r1, n00, n01, n11 = _smoother_recursion(
        l00, l01, l10, l11,
        d0 * (i00 * e0 + i01 * e1), d1 * (i01 * e0 + i11 * e1),
        d0 * i00 * d0, d0 * i01 * d1, d1 * i11 * d1,
    )

    m_filt, cov_filt = filter_output.m_filt, filter_output.cov_m_filt
    a0, a1 = m_filt[:T].T
    p00, p01, _, p11 = _entries(cov_filt[:T])
    # N_t for t = 1..T, and r_{t-1}, N_{t-1} for m̃_{t-1|T} = m̃_{t-1|t-1}
    # + P r_{t-1} and P_{t-1|T} = P - (P N_{t-1}) P with P = P_{t-1|t-1}
    nt00, nt01, nt11 = n00[1:], n01[1:], n11[1:]
    r0, r1, n00, n01, n11 = r0[:T], r1[:T], n00[:T], n01[:T], n11[:T]
    m0, m1 = a0 + p00 * r0 + p01 * r1, a1 + p01 * r0 + p11 * r1
    pn00, pn01 = p00 * n00 + p01 * n01, p00 * n01 + p01 * n11
    pn10, pn11 = p01 * n00 + p11 * n01, p01 * n01 + p11 * n11
    s00 = p00 - pn00 * p00 - pn01 * p01
    s01 = p01 - 0.5 * (pn00 * p01 + pn01 * p11 + pn10 * p00 + pn11 * p01)
    s11 = p11 - pn10 * p01 - pn11 * p11
    # C-ordered outputs, so that sums over periods downstream keep their order
    m_smooth = np.empty((T + 1, 2))
    m_smooth.T[:, :T] = m0, m1
    m_smooth[T] = m_filt[T]
    cov_smooth = np.empty((T + 1, 4))
    cov_smooth.T[:, :T] = s00, s01, s01, s11
    cov_smooth[T] = cov_filt[T].reshape(4)
    # Cov(m_{t-1}, m_t | T) = P_{t-1|t-1} L' X with X = I - N_t P_{t|t}
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

