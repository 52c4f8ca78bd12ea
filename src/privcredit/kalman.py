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
closed-form 2×2 algebra on Python floats. It reads flat columns, one list
per quantity from a single (k, T) block (``zip(*block.tolist())``), and
appends one short record per period, packed into an array in one call: the
filter loop predicts, forms F_t⁻¹ and the gain, updates, and records the
filtered mean and covariance; it stops early only at a det F_t that is not
positive and finite, which it cannot invert. The smoother loop runs the
r_t, N_t recursion on L_t, D_t F_t⁻¹ e_t and D_t F_t⁻¹ D_t, formed
beforehand from the filter's F_t⁻¹, and records r_t and N_t. Everything
else is computed after the loops on whole columns, with the loops' own
expressions in the same order, so it matches them bit for bit: the
filter's F_t, F_t⁻¹, gains, predictions and innovations, its singularity
test, which raises at the first singular period, and its log-likelihood
terms; the smoother's means, covariances and cross-covariances. A 2×2
quantity there is a (2, 2, n) block of entries, so a product of two is two
broadcast multiplications and one addition, the order in which the 2×2
algebra sums each entry; an iteration pays a fixed number of numpy calls
per pass, whatever T. The off-diagonal of each covariance is the average
of its two computed triangles, which keeps it exactly symmetric.

Intercepts enter the means only, so gains and covariances are
intercept-free, and moving the intercepts from c to c̃ = c + Δc moves the
filtered mean of m̃_t by δ_t, with δ_0 = 0 and

    δ_t = δ_{t-1} − K_t (D_t δ_{t-1} + Δc_t),

an O(T) recursion on the gains and loadings one filter pass returns, read
as flat columns like the other loops.

Forecasting past the sample is :func:`privcredit.pricing.horizon_moments`.
"""

import math
import struct
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


def _to_array(record):
    """The floats of the list ``record`` as a 1-D array, packed in one call
    (about twice as fast as ``numpy.fromiter`` on long records)."""
    out = np.empty(len(record))
    struct.pack_into(f"{len(record)}d", out, 0, *record)
    return out


def _singular(det):
    return IllConditionedInnovationError(
        f"innovation covariance numerically singular (det={det:.3e})"
    )


def _not_finite():
    return IllConditionedInnovationError(
        "filter diverged: a filtered mean or covariance or the log-likelihood "
        "is not finite"
    )


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
        singular; otherwise when a filtered mean or covariance or the
        log-likelihood is not finite, as when data the model cannot have
        produced drive the filtered mean (with Σ_u = Σ₀ = 0) to overflow.
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
    # the loop reads one column per period: D, the intercepts and the growth
    cols = np.empty((6, T))
    np.subtract(schedule.gain[1 : T + 1].T, 1.0, out=cols[:2])
    cols[2:4] = intercepts[1 : T + 1].T
    cols[4:] = growth.T

    # filtered mean and covariance of m_t for t = 0, 1, ..., the prior first
    record = [a0, a1, p00, p01, p01, p11]
    inf = math.inf
    for d0, d1, c0, c1, y0, y1 in zip(*cols.tolist()):
        f00 = d0 * d0 * p00 + w00
        f01 = d0 * d1 * p01 + w01
        f11 = d1 * d1 * p11 + w11
        det = f00 * f11 - f01 * f01
        if not 0.0 < det < inf:
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

    # the loop's other quantities, as the same expressions on whole columns;
    # a 2×2 quantity is four rows, entries 00, 01, 10, 11, and every entry
    # keeps the loop's order of operations
    state = _to_array(record).reshape(-1, 6)
    n = state.shape[0] - 1
    # the priors of periods 1..n as rows a0, a1, p00, p01, p10, p11
    prior = state[:n].T.copy()
    cols = cols[:, :n]
    # rows: predicted growth, F, F^-1, K, innovation, D
    work = np.empty((18, n))
    dd = (cols[:2, None] * cols[:2]).reshape(4, n)
    f = work[2:6]
    np.multiply(dd, prior[2:], out=f)
    f += (params.meas_cov + params.state_cov).reshape(4, 1)
    f00, f01, _, f11 = f
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
        scale = dd[0] * v00 + dd[3] * v11 + w00 + w11
        singular = lam_min <= _RCOND * scale
    if singular.any():
        raise _singular(dets[singular.argmax()])
    if n < T:
        raise _singular(det)
    # F^-1 = [[f11, -f01], [-f01, f00]] / det
    inv = work[6:10]
    np.divide(f[::-1], dets, out=inv)
    np.negative(work[7:9], out=work[7:9])
    b, e = work[0:2], work[14:16]
    np.multiply(cols[:2], prior[:2], out=b)
    b -= params.drift[:, None]
    b += cols[2:4]
    np.subtract(cols[4:6], b, out=e)
    work[16:] = cols[:2]
    # M = P D - Sigma_v and K = M F^-1, as (2, 2, n) blocks
    m = prior[2:].reshape(2, 2, n) * cols[:2]
    m -= params.state_cov[..., None]
    inv, k = inv.reshape(2, 2, n), work[10:14].reshape(2, 2, n)
    np.multiply(m[:, :1], inv[:1], out=k)
    k += m[:, 1:] * inv[1:]
    # e' F^-1 e, with the entries of F^-1 e summed as in 2×2 algebra
    quad = inv[:, 0] * e[0]
    quad += inv[:, 1] * e[1]
    quad *= e
    loglik = (-_LOG2PI - 0.5 * np.log(dets) - 0.5 * (quad[0] + quad[1])).sum()
    if not (math.isfinite(loglik) and np.isfinite(state).all()):
        raise _not_finite()

    # the outputs are transposed views of pairs of rows, zero at period 0
    out = np.zeros((18, T + 1))
    out[:, 1:] = work
    pairs = out.T.reshape(T + 1, 9, 2)
    return FilterOutput(
        m_filt=state[:, :2],
        cov_m_filt=state[:, 2:].reshape(T + 1, 2, 2),
        b_pred=pairs[:, 0],
        cov_b_pred=pairs[:, 1:3],
        gain=pairs[:, 5:7],
        innovation=pairs[:, 7],
        loading=pairs[:, 8],
        loglik=float(loglik),
        intercepts=intercepts,
        inv_cov_b_pred=pairs[:, 3:5],
    )


def intercept_shift(filter_output, change):
    """δ_T: the shift of the filtered mean of m̃_T when the measurement
    intercepts the filter ran with move by ``change`` ((T, 2), periods
    1..T)."""
    T = filter_output.n_periods
    # rows K, D and Δc, one column per period
    columns = np.vstack((filter_output.gain[1:].reshape(T, 4).T,
                         filter_output.loading[1:].T, change.T))
    x0 = x1 = 0.0
    for k00, k01, k10, k11, d0, d1, c0, c1 in zip(*columns.tolist()):
        # δ <- δ - K (D δ + Δc)
        e0, e1 = d0 * x0 + c0, d1 * x1 + c1
        x0, x1 = x0 - k00 * e0 - k01 * e1, x1 - k10 * e0 - k11 * e1
    return np.array([x0, x1])


def _smoother_recursion(columns):
    """r_t and N_t for t = 0..T from the (9, T) rows L_t (entries 00, 01,
    10, 11), D_t F_t⁻¹ e_t and D_t F_t⁻¹ D_t (entries 00, 01, 11), one
    column per period t = 1..T.

    Returns the (6, T + 1) rows r0, r1 and the entries 00, 01, 10, 11 of
    N_t; column T holds r_T = 0, N_T = 0.
    """
    T = columns.shape[1]
    record = []
    r0 = r1 = n00 = n01 = n11 = 0.0
    for l00, l01, l10, l11, u0, u1, g00, g01, g11 in zip(
            *columns[:, ::-1].tolist()):
        # r <- D F^-1 e + L' r and N <- D F^-1 D + L' N L
        r0, r1 = u0 + l00 * r0 + l10 * r1, u1 + l01 * r0 + l11 * r1
        nl00, nl01 = n00 * l00 + n01 * l10, n00 * l01 + n01 * l11
        nl10, nl11 = n01 * l00 + n11 * l10, n01 * l01 + n11 * l11
        n00, n01, n11 = (
            g00 + l00 * nl00 + l10 * nl10,
            g01 + 0.5 * (l00 * nl01 + l10 * nl11 + l01 * nl00 + l11 * nl10),
            g11 + l01 * nl01 + l11 * nl11,
        )
        record += (r0, r1, n00, n01, n01, n11)
    rn = np.zeros((6, T + 1))
    rn[:, :T] = _to_array(record).reshape(T, 6)[::-1].T
    return rn


def smooth(filter_output):
    """Backward recursion: smoothed moments and lag-one cross-covariances.

    A 2×2 quantity is a (2, 2, n) block of entries, one column per period,
    and every entry keeps the order of operations of the 2×2 algebra.
    """
    T = filter_output.n_periods
    # D, e, K and F^-1 with their zero period 0: whole contiguous blocks
    d, e = filter_output.loading.T, filter_output.innovation.T
    k = filter_output.gain.transpose(1, 2, 0)
    inv = filter_output.inv_cov_b_pred.transpose(1, 2, 0)
    # the recursion's rows: L = I - K D, D F^-1 e and D F^-1 D
    columns = np.empty((9, T + 1))
    ell = columns[:4].reshape(2, 2, T + 1)
    np.multiply(k, d, out=ell)
    np.negative(columns[:4], out=columns[:4])
    columns[0:4:3] += 1.0
    u = columns[4:6]
    np.multiply(inv[:, 0], e[0], out=u)
    u += inv[:, 1] * e[1]
    u *= d
    g = d[:, None] * inv
    g *= d
    columns[6:8] = g[0]
    columns[8] = g[1, 1]
    rn = _smoother_recursion(columns[:, 1:])
    # N_t, and the filtered covariances P_{t|t}, for t = 0..T
    n = rn[2:].reshape(2, 2, T + 1)
    pf = filter_output.cov_m_filt.transpose(1, 2, 0).copy()
    # P = P_{t-1|t-1}, r_{t-1} and N_{t-1}, then N_t, P_{t|t} and L_t,
    # for t = 1..T
    p, r, n_prev = pf[..., :T], rn[:2, :T], n[..., :T]
    n_next, q, ell = n[..., 1:], pf[..., 1:], ell[..., 1:]

    # C-ordered outputs, so that sums over periods downstream keep their order
    m_smooth = np.empty((T + 1, 2))
    cov_smooth = np.empty((T + 1, 4))
    cross = np.zeros((T + 1, 4))
    # m̃_{t-1|T} = m̃_{t-1|t-1} + P r_{t-1}
    mean = m_smooth[:T].T
    np.multiply(p[:, 0], r[0], out=mean)
    mean += filter_output.m_filt[:T].T
    mean += p[:, 1] * r[1]
    m_smooth[T] = filter_output.m_filt[T]
    # P_{t-1|T} = P - (P N_{t-1}) P, its off-diagonal the average of the
    # two triangles
    pn = p[:, :1] * n_prev[:1]
    pn += p[:, 1:] * n_prev[1:]
    s = p - pn[:, :1] * p[:1]
    s -= pn[:, 1:] * p[1:]
    tri = pn * p[::-1]
    cov = cov_smooth[:T].T
    cov[0], cov[3] = s[0, 0], s[1, 1]
    np.subtract(p[0, 1], 0.5 * (tri[0, 0] + tri[0, 1] + tri[1, 0] + tri[1, 1]),
                out=cov[1])
    cov[2] = cov[1]
    cov_smooth[T] = filter_output.cov_m_filt[T].reshape(4)
    # Cov(m_{t-1}, m_t | T) = P L' X with X = I - N_t P_{t|t}
    x = n_next[:, :1] * q[:1]
    np.negative(x, out=x)
    x[0, 0] += 1.0
    x[1, 1] += 1.0
    x -= n_next[:, 1:] * q[1:]
    y = ell[0][:, None] * x[0]
    y += ell[1][:, None] * x[1]
    c = cross[1:].T.reshape(2, 2, T)
    np.multiply(p[:, :1], y[:1], out=c)
    c += p[:, 1:] * y[1:]
    return SmootherOutput(
        m_smooth=m_smooth,
        cov_m_smooth=cov_smooth.reshape(T + 1, 2, 2),
        cross_m=cross.reshape(T + 1, 2, 2),
    )
