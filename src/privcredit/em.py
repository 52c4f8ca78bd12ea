"""Maximum-likelihood estimation via the EM zig-zag iteration.

Each iteration smooths the filter run at the current parameter vector
(E-step; the start pass or the accepting line search ran it), then maximizes
the expected complete-data log-likelihood exactly with the schedule held
frozen (M-step). With the schedule frozen that objective depends on the
smoothed moments only through a few 2×2 sums (Shumway & Stoffer 1982;
Durbin & Koopman 2012, §7.3). The E-step returns them as one record,
:class:`MomentSums`, together with the smoother output and the forward pass
it smoothed; the objective, the M-step and the gradient read only that
record. The objective at each line-search candidate is O(1) float algebra,
so an iteration costs one filter pass and one smoother pass, the only
Python loops over the periods, plus a fixed number of numpy calls on whole
columns (the sums, the M-step) and float algebra on 2×2 entries (the
objective, the M-step's fixed point, the parameter checks and blends),
whatever the sample length. Freezing makes this a generalized EM: the
frozen objective never decreases, which is the ascent property tested
downstream. The schedule's own parameter sensitivity shows up only in the
analytic gradient of the schedule-varying objective, kept here as a
diagnostic (`complete_loglik_gradient`) and validated against finite
differences.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, DegenerateDesignError, PrivCreditError
from .kalman import FilterOutput, SmootherOutput, run_filter, smooth
from .model import (
    ModelParams,
    _min_eigenvalue,
    build_linearization_schedule,
    real_intercepts,
)

_LOG2PI = math.log(2.0 * math.pi)
MAX_ITER, TOL = 200, 1e-8  # em_fit's iteration cap and tolerance by default


@dataclass
class EmTrace:
    """Per-iteration bookkeeping of the zig-zag iteration."""

    params: list = field(default_factory=list)
    loglik: list = field(default_factory=list)
    lambda_before: list = field(default_factory=list)
    lambda_after: list = field(default_factory=list)
    max_change: list = field(default_factory=list)
    termination: str = ""
    # schedule and forward pass at the returned parameters
    schedule: object = None
    filter_output: FilterOutput = None

    @property
    def n_iterations(self):
        return len(self.max_change)


def _chol_pivots(rows, name):
    """Entries a, b, c of the symmetric 2×2 matrix with nested float
    ``rows`` and its second Cholesky pivot c − b²/a; both pivots must be
    positive (the matrix positive definite)."""
    (a, b), (_, c) = rows
    pivot = c - b * b / a if a > 0.0 else 0.0
    if not pivot > 0.0:
        raise DataValidationError(f"{name} must be positive definite")
    return a, b, c, pivot


def _chol_inv_logdet(m, name):
    """Inverse and log-determinant of the positive definite 2×2 ``m``."""
    a, b, c, pivot = _chol_pivots(m.tolist(), name)
    return np.array([[c, -b], [-b, a]]) / (a * pivot), math.log(a) + math.log(pivot)


def _block_term(cov, moments, count, name, per_period):
    """Contribution of one Gaussian noise block to the expected joint
    log-density: normalization plus expected quadratic form, from the
    summed expected outer products ``moments`` = (s00, s01, s11).

    An exactly-zero covariance is a point mass: it contributes nothing
    provided every period's second moments, stacked (n, 2, 2) by
    ``per_period()``, are within 1e-12 of zero, and is rejected otherwise
    (the density does not exist off its support).
    """
    rows = cov.tolist()
    if not any(rows[0] + rows[1]):
        if np.abs(per_period()).max() > 1e-12:
            raise DataValidationError(
                f"{name} is degenerate (zero) but residual moments are not"
            )
        return 0.0
    a, b, c, pivot = _chol_pivots(rows, name)
    s00, s01, s11 = moments
    quad = (c * s00 - 2.0 * b * s01 + a * s11) / (a * pivot)
    return (-count * _LOG2PI - 0.5 * count * (math.log(a) + math.log(pivot))
            - 0.5 * quad)


def _measurement_residual_cov(cov_m, cross_m, g):
    """Var(m̃_t − G_t m̃_{t-1} | full sample) for t = 1..T, shape (T, 2, 2):
    P_t + G P_{t-1} G − Cᵀ G − G C with C = Cov(m̃_{t-1}, m̃_t | all data).
    The diagonals g_t are spread over whole (T, 2, 2) blocks first, so that
    no product broadcasts."""
    T, x = g.shape[0], cross_m[1:]
    g_col, g_row = np.empty((2, T, 2, 2))
    g_col[:] = g[:, :, None]
    g_row[:] = g[:, None, :]
    out = g_col * cov_m[:-1]
    out *= g_row
    out += cov_m[1:]
    out -= x.transpose(0, 2, 1) * g_row
    out -= g_col * x
    return out


def _state_residual_cov(cov_m, cross_m):
    """Var(m̃_t − m̃_{t-1} | full sample) for t = 1..T, shape (T, 2, 2)."""
    x = cross_m[1:]
    out = cov_m[1:] + cov_m[:-1]
    out -= x
    out -= x.transpose(0, 2, 1)
    return out


def _outer(a, b):
    """Row-wise outer products of two (T, 2) arrays."""
    return a[:, :, None] * b[:, None, :]


def _stacked_moments(resid, resid_cov):
    """Per-period expected outer products E[r rᵀ] = r̂ r̂ᵀ + Var(r), (T, 2, 2)."""
    return _outer(resid, resid) + resid_cov


def _sym(m):
    """(m00, m01, m11) of a 2×2 array, off-diagonal averaged."""
    (m00, m01), (m10, m11) = m.tolist()
    return m00, 0.5 * (m01 + m10), m11


@dataclass(frozen=True)
class MomentSums:
    """One E-step: the smoother output ``smoothed`` at ``params``, the
    forward pass ``filter_output`` it smoothed (None for a record built from
    given moments), and what the frozen-schedule objective, the M-step and
    the gradient read of them, as sums about the required returns k₀ and
    drift φ₀ of ``params``.

    With the smoothed means m̂, the residual with the required-return term
    removed u_free_t = b̃_t + m̂_t − G_t m̂_{t-1} + (G_t − I)ln π_t + h_t,
    u⁰_t = u_free_t − G_t k₀ and v⁰_t = m̂_t − m̂_{t-1} − φ₀, the fields
    ``uu`` = Σ u⁰u⁰ᵀ + S_u and ``vv`` = Σ v⁰v⁰ᵀ + S_v are the summed
    second moments at ``params``, S_u and S_v
    (``meas_resid_sum``, ``state_resid_sum``) the parameter-free sums of
    the smoothed residual covariances, ``gu`` = Q = Σ g_t u⁰_tᵀ and
    ``gg`` = Σ g_t g_tᵀ for the diagonals g_t of G_t and ``v_sum`` = Σ v⁰.
    The 2×2 sums are floats, symmetric ones as (s00, s01, s11). The
    per-period arrays (``u_free``, ``gain``, ``steps`` = m̂_t − m̂_{t-1})
    serve the M-step, the gradient and the point-mass test of an
    exactly-zero covariance.
    """

    params: ModelParams
    smoothed: SmootherOutput
    filter_output: FilterOutput
    n_periods: int
    uu: tuple
    gu: tuple
    gg: tuple
    vv: tuple
    v_sum: tuple
    u_free: np.ndarray
    gain: np.ndarray
    steps: np.ndarray
    meas_resid_cov: np.ndarray
    state_resid_cov: np.ndarray
    meas_resid_sum: np.ndarray
    state_resid_sum: np.ndarray


def moment_sums(smoothed, series, schedule, params, filter_output=None):
    """The :class:`MomentSums` of the smoother output ``smoothed`` of
    ``series`` with the linearization frozen at ``schedule``, about the
    required returns and drift of ``params``.

    ``params`` only sets where the sums are centred: about the parameters a
    line search starts from, the objective's cancellation is confined to the
    step. ``filter_output`` is recorded as the pass ``smoothed`` came from.
    """
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


def e_step(params, series, schedule=None, filter_output=None):
    """The :class:`MomentSums` of ``series`` at ``params``: smooth the
    real-measure forward pass ``filter_output`` (run here when not given)
    and sum its moments over ``schedule`` (built at ``params`` when not
    given)."""
    if schedule is None:
        schedule = build_linearization_schedule(
            params, series.payout_ratio, series.n_periods
        )
    if filter_output is None:
        _, filter_output = _forward_pass(params, series, schedule)
    return moment_sums(smooth(filter_output), series, schedule, params,
                       filter_output)


def expected_complete_loglik(params, sums):
    """Expected complete-data log-likelihood at ``params`` from the E-step
    record ``sums``, with the linearization constants frozen at the
    schedule the record was summed over (the M-step objective). The
    schedule-varying objective at q is this function of the record
    :func:`e_step` builds at q from the same forward pass.

    From the sums about (k₀, φ₀) = ``sums.params``, with δk = k − k₀,
    δφ = φ − φ₀ and x = m̂_0 − μ_0, the three blocks' summed second moments
    are

        Σ E[u uᵀ] = uu − diag(δk) Q − (diag(δk) Q)ᵀ + (δk δkᵀ) ∘ Σ g gᵀ,
        Σ E[v vᵀ] = vv − δφ sᵀ − s δφᵀ + T δφ δφᵀ,   E[x xᵀ] = P_{0|T} + x xᵀ,

    each evaluated as float 2×2 algebra; a block adds −n ln 2π − ½ n ln|Σ|
    − ½ tr(Σ⁻¹ · moments) over its n periods. Exactly-zero noise blocks with
    vanishing residual moments in every period contribute nothing
    (deterministic limits).
    """
    T = sums.n_periods
    k0, k1, mu0, mu1, phi0, phi1 = params._entries[:6]
    r0, r1, _, _, f0, f1 = sums.params._entries[:6]
    dk0, dk1, dp0, dp1 = k0 - r0, k1 - r1, phi0 - f0, phi1 - f1

    u00, u01, u11 = sums.uu
    q00, q01, q10, q11 = sums.gu
    g00, g01, g11 = sums.gg
    term_u = _block_term(
        params.meas_cov,
        (u00 - 2.0 * dk0 * q00 + dk0 * dk0 * g00,
         u01 - dk0 * q01 - dk1 * q10 + dk0 * dk1 * g01,
         u11 - 2.0 * dk1 * q11 + dk1 * dk1 * g11),
        T, "meas_cov",
        lambda: _stacked_moments(
            sums.u_free - sums.gain * params.req_return, sums.meas_resid_cov
        ),
    )
    v00, v01, v11 = sums.vv
    s0, s1 = sums.v_sum
    term_v = _block_term(
        params.state_cov,
        (v00 - 2.0 * dp0 * s0 + T * dp0 * dp0,
         v01 - dp0 * s1 - dp1 * s0 + T * dp0 * dp1,
         v11 - 2.0 * dp1 * s1 + T * dp1 * dp1),
        T, "state_cov",
        lambda: _stacked_moments(
            sums.steps - params.drift, sums.state_resid_cov
        ),
    )
    a0, a1 = sums.smoothed.m_smooth[0].tolist()
    (p00, p01), (_, p11) = sums.smoothed.cov_m_smooth[0].tolist()
    x0, x1 = a0 - mu0, a1 - mu1
    init_moments = (p00 + x0 * x0, p01 + x0 * x1, p11 + x1 * x1)
    term_0 = _block_term(
        params.init_cov, init_moments, 1, "init_cov",
        lambda: np.array(init_moments),
    )
    return float(term_u + term_v + term_0)


def _gradient_pieces(sums):
    """Residuals u, v, the payout-gap sensitivities d and the matrices Z of
    the objective's gradient at ``sums.params``, rows t = 1..T."""
    params, smoothed, g = sums.params, sums.smoothed, sums.gain
    m, cov_m = smoothed.m_smooth, smoothed.cov_m_smooth
    u = sums.u_free - g * params.req_return
    v = sums.steps - params.drift
    centers = params.init_mean + np.arange(sums.n_periods)[:, None] * params.drift
    gg = g * (g - 1.0)
    d = gg * (m[:-1] - centers)
    z = gg[:, :, None] * (smoothed.cross_m[1:] - cov_m[:-1] * g[:, None, :])
    return u, v, d, z


def complete_loglik_gradient(sums):
    """Analytic gradient of the schedule-varying objective at
    ``sums.params``, from the E-step record built there.

    Returns the 6-vector of derivatives in (required returns, initial mean,
    drift). The schedule terms contribute through the payout-gap sensitivity
    d_t = G_t(G_t − I)(m̃_{t-1|T} − center) and the smoothed covariance
    cross-term; validated against central finite differences.
    """
    params = sums.params
    inv_u, _ = _chol_inv_logdet(params.meas_cov, "meas_cov")
    inv_v, _ = _chol_inv_logdet(params.state_cov, "state_cov")
    inv_0, _ = _chol_inv_logdet(params.init_cov, "init_cov")
    u, v, d, z = _gradient_pieces(sums)
    # diag(E @ inv_u) row by row for the stacked (T, 2, 2) moments E
    diag_du = ((z + _outer(d, u)) * inv_u.T).sum(axis=2)
    diag_dgu = ((z + _outer(d - sums.gain, u)) * inv_u.T).sum(axis=2)
    grad_k = -diag_dgu.sum(axis=0)
    grad_mu0 = (inv_0 @ (sums.smoothed.m_smooth[0] - params.init_mean)
                - diag_du.sum(axis=0))
    grad_phi = inv_v @ v.sum(axis=0) - np.arange(sums.n_periods) @ diag_du
    return np.concatenate([grad_k, grad_mu0, grad_phi])


def m_step(sums):
    """Exact maximizer of the frozen-schedule objective of the E-step
    record ``sums``.

    The initial mean and drift updates are closed-form in the smoothed
    moments; the required-return update solves the gain-weighted normal
    equations and is iterated from ``sums.params`` to a joint fixed point
    with the measurement covariance (entries moving by under 1e-13, at most
    200 rounds) so that the full frozen-schedule gradient vanishes at the
    output. Covariance estimates are symmetrized time averages of the
    smoothed second moments and are PSD by construction: u_free feeds the
    required-return normal equations, and the residual-covariance sums S_u
    and S_v are added to the outer products of the two residuals.
    """
    T, g, params = sums.n_periods, sums.gain, sums.params
    m, cov0 = sums.smoothed.m_smooth, sums.smoothed.cov_m_smooth[0]

    if np.abs(g - 1.0).max() < 1e-6:
        warnings.warn(
            "all linearization gains are ~1 (negligible payouts); required "
            "returns are weakly identified",
            stacklevel=2,
        )

    phi_new = (m[T] - m[0]) / T
    v = m[1:] - phi_new - m[:-1]
    cov_v_new = _symmetrized((v.T @ v + sums.state_resid_sum) / T)

    k_new, cov_u = _required_return_fixed_point(
        sums.u_free, sums.meas_resid_sum, g, params.meas_cov, params.req_return
    )

    for name, ((a, b), (_, c)) in (("meas", cov_u), ("state", cov_v_new)):
        if _min_eigenvalue(a, b, c) < 1e-14:
            warnings.warn(f"{name} covariance update is singular (degenerate fit)",
                          stacklevel=2)
    return ModelParams(
        req_return=k_new, init_mean=m[0], init_cov=_symmetrized(cov0),
        drift=phi_new, meas_cov=cov_u, state_cov=cov_v_new,
        rate_log=params.rate_log,
    )


def _symmetrized(m):
    """The rows of 0.5 (m + mᵀ) for a 2×2 array ``m``, as nested floats."""
    (a, b), (b_low, c) = m.tolist()
    a, b, c = 0.5 * (a + a), 0.5 * (b + b_low), 0.5 * (c + c)
    return [[a, b], [b, c]]


def _required_return_fixed_point(u_free, ucov, g, cov_u, k):
    """Joint fixed point of the required returns k and Σ_u from ``k`` and
    ``cov_u``, in closed-form 2×2 algebra on floats: given Σ_u, k solves
    N k = r with N = Σ_u⁻¹ ∘ Σ_t g_t g_tᵀ and r = Σ_t g_t ∘ Σ_u⁻¹ u_free_t;
    given k, Σ_u = (uᵀu + ``ucov``)/T with u = u_free − g k.

    Returns k and the rows of Σ_u as nested floats.
    """
    T = len(g)
    (s00, s01), (_, s11) = (g.T @ g).tolist()
    # q[j][i] = Σ_t g_tj u_free_ti
    (q00, q01), (q10, q11) = (g.T @ u_free).tolist()
    (c00, c01), (_, c11) = cov_u.tolist()
    (v00, v01), (v10, v11) = ucov.tolist()
    k0, k1 = k.tolist()
    k_new, u = np.empty(2), np.empty((T, 2))
    for _ in range(200):
        det = c00 * c11 - c01 * c01
        if det == 0.0:
            raise DegenerateDesignError(
                "measurement covariance collapsed during the update"
            )
        i00, i01, i11 = c11 / det, -c01 / det, c00 / det
        n00, n01, n11 = i00 * s00, i01 * s01, i11 * s11
        r0, r1 = i00 * q00 + i01 * q01, i01 * q10 + i11 * q11
        # N is symmetric: its condition number is λ_max² / |det N|
        n_det = n00 * n11 - n01 * n01
        lam_max = 0.5 * abs(n00 + n11) + math.hypot(0.5 * (n00 - n11), n01)
        if not lam_max * lam_max <= 1e12 * abs(n_det):
            raise DegenerateDesignError(
                "required-return normal equations numerically singular"
            )
        k0_new = (n11 * r0 - n01 * r1) / n_det
        k1_new = (n00 * r1 - n01 * r0) / n_det
        k_new[0], k_new[1] = k0_new, k1_new
        np.multiply(g, k_new, out=u)
        np.subtract(u_free, u, out=u)
        (e00, e01), (e10, e11) = (u.T @ u).tolist()
        e00, e01, e10, e11 = ((e00 + v00) / T, (e01 + v01) / T,
                              (e10 + v10) / T, (e11 + v11) / T)
        e01 = 0.5 * (e01 + e10)
        done = max(abs(k0_new - k0), abs(k1_new - k1), abs(e00 - c00),
                   abs(e01 - c01), abs(e11 - c11)) < 1e-13
        k0, k1, c00, c01, c11 = k0_new, k1_new, e00, e01, e11
        if done:
            break
    return [k0, k1], [[c00, c01], [c01, c11]]


def _param_change(old, new):
    """The largest absolute change of any vector or covariance entry."""
    return max(abs(x - y) for x, y in zip(old._entries, new._entries))


def default_initial_params(rate_log):
    """Deterministic default starting point (overridable by the caller)."""
    return ModelParams(
        req_return=np.full(2, rate_log + 0.02),
        init_mean=np.zeros(2),
        init_cov=np.eye(2),
        drift=np.zeros(2),
        meas_cov=0.01 * np.eye(2),
        state_cov=0.01 * np.eye(2),
        rate_log=rate_log,
    )


def _blend_params(old, new, weight):
    if weight == 1.0:
        return new
    x = [(1.0 - weight) * a + weight * b
         for a, b in zip(old._entries, new._entries)]
    return ModelParams(
        req_return=x[0:2], init_mean=x[2:4], drift=x[4:6],
        init_cov=(x[6:8], x[8:10]), meas_cov=(x[10:12], x[12:14]),
        state_cov=(x[14:16], x[16:18]), rate_log=old.rate_log,
    )


def _forward_pass(params, series, schedule=None):
    """Linearization schedule (built unless given) and real-measure filter
    at ``params``."""
    if schedule is None:
        schedule = build_linearization_schedule(
            params, series.payout_ratio, series.n_periods
        )
    return schedule, run_filter(
        params, schedule, series.growth, real_intercepts(params, schedule)
    )


def em_fit(series, params_init=None, rate_log=0.0, max_iter=MAX_ITER, tol=TOL):
    """Alternate E-step, frozen-schedule M-step and line search.

    The linearization constants are very sensitive to the drift on long
    samples (the payout gap moves by (t-1) times any drift perturbation),
    so a full M-step can leave the feasible region or lower the observed
    likelihood once the schedule is refreshed. Each accepted step is
    therefore the longest step toward the M-step output that keeps the
    schedule feasible, does not decrease the frozen-schedule objective (up
    to 1e-9), and lowers the observed likelihood by at most a relative 1e-8;
    the frozen objective is exactly non-decreasing along this segment, so
    the generalized-EM ascent property is preserved. After one filter run
    at the start, the accepted candidate's schedule and filter are the next
    E-step's, and the last ones go back on the trace: one accepted step
    costs one filter run.

    Stops when the largest absolute parameter change falls below ``tol``,
    when no acceptable step remains ("stalled"), or after ``max_iter``
    iterations. An infeasible schedule or an ill-conditioned filter at the
    start parameters raises (:class:`InfeasibleLinearizationError`,
    :class:`IllConditionedInnovationError`).

    Returns
    -------
    (ModelParams, EmTrace)
    """
    params = params_init or default_initial_params(rate_log)
    trace = EmTrace()
    trace.params.append(params)
    schedule, filt = _forward_pass(params, series)
    for _ in range(max_iter):
        sums = e_step(params, series, schedule, filt)
        filt = sums.filter_output
        lambda_before = expected_complete_loglik(params, sums)
        full_step = m_step(sums)

        weight = 1.0
        accepted = None
        lambda_after = lambda_before
        ll_slack = 1e-8 * max(1.0, abs(filt.loglik))
        while weight > 1e-6:
            candidate = _blend_params(params, full_step, weight)
            try:
                lam = expected_complete_loglik(candidate, sums)
                rejected = lam < lambda_before - 1e-9
                if not rejected:
                    forward = _forward_pass(candidate, series)
                    rejected = not forward[1].loglik >= filt.loglik - ll_slack
            except PrivCreditError:
                rejected = True
            if not rejected:
                accepted, lambda_after = candidate, lam
                break
            weight *= 0.5

        trace.loglik.append(filt.loglik)
        trace.lambda_before.append(lambda_before)
        trace.lambda_after.append(lambda_after)
        if accepted is None:
            trace.max_change.append(0.0)
            trace.params.append(params)
            trace.termination = "stalled"
            break
        change = _param_change(params, accepted)
        trace.max_change.append(change)
        trace.params.append(accepted)
        params, (schedule, filt) = accepted, forward
        if change < tol:
            trace.termination = "converged"
            break
    else:
        trace.termination = "max_iter"
    trace.schedule, trace.filter_output = schedule, filt
    return params, trace


def smoothed_market_values(smoothed, series):
    """Smoothed market values: componentwise exp(m̃_{t|T}) of the smoother
    output ``smoothed`` times book values."""
    books = np.exp(series.log_books())
    return np.exp(smoothed.m_smooth) * books
