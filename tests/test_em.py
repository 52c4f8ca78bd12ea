import dataclasses

import numpy as np
import pytest

from privcredit import em
from privcredit.em import (
    complete_loglik_gradient,
    default_initial_params,
    e_step,
    em_fit,
    expected_complete_loglik,
    m_step,
    smoothed_market_values,
)
from privcredit.errors import (
    DataValidationError,
    DegenerateDesignError,
    InfeasibleLinearizationError,
)
from privcredit.kalman import SmootherOutput, run_filter
from privcredit.model import (
    ModelParams,
    ObservedSeries,
    build_linearization_schedule,
    real_intercepts,
)

from conftest import base_params, random_params, spd_matrix, synthetic_series
from reference import (
    GaussianConditioningOracle,
    objective_reference,
    required_return_fixed_point,
    residual_pieces_reference,
)


def deterministic_series(params, periods):
    """Series generated by the noise-free recursion (all residuals zero)."""
    ratio = np.log(0.25) * np.ones((periods, 2))
    schedule = build_linearization_schedule(params, ratio, periods)
    c = real_intercepts(params, schedule)
    growth = np.zeros((periods, 2))
    for t in range(1, periods + 1):
        m_cur = params.init_mean + t * params.drift
        m_prev = params.init_mean + (t - 1) * params.drift
        growth[t - 1] = -m_cur + schedule.gain[t] * m_prev + c[t]
    return ObservedSeries(np.array([2.0, 3.0]), growth, ratio), schedule


def fd_gradient(fun, x0, h=1e-6):
    out = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        out[i] = (fun(x0 + e) - fun(x0 - e)) / (2 * h)
    return out


def varying(sums, series):
    """The schedule-varying objective as a function of the parameters q: the
    frozen objective of the record built at q from the forward pass that
    ``sums`` smoothed."""
    return lambda q: expected_complete_loglik(
        q, e_step(q, series, filter_output=sums.filter_output)
    )


def pack(params):
    return np.concatenate([params.req_return, params.init_mean, params.drift])


def unpack(params, x):
    return params.replace(
        req_return=x[:2], init_mean=x[2:4], drift=x[4:6]
    )


class TestExpectedCompleteLoglik:
    def test_plug_in_constant(self):
        p = base_params(
            init_cov=np.eye(2),
            meas_cov=np.eye(2),
            state_cov=np.eye(2),
            drift=np.array([0.001, 0.0005]),
        )
        T = 4
        series, schedule = deterministic_series(p, T)
        # deterministic series + exact-mean smoothing: residuals are zero but
        # smoothed covariances are not; zero them by construction
        smoothed_zero = SmootherOutput(
            m_smooth=np.array(
                [p.init_mean + t * p.drift for t in range(T + 1)]
            ),
            cov_m_smooth=np.zeros((T + 1, 2, 2)),
            cross_m=np.zeros((T + 1, 2, 2)),
        )
        sums = em.moment_sums(smoothed_zero, series, schedule, p)
        value = expected_complete_loglik(p, sums)
        assert value == pytest.approx(-(2 * T + 1) * np.log(2 * np.pi), abs=1e-12)

    def test_single_period_reduces_to_measurement_density(self):
        p = base_params(
            init_cov=np.zeros((2, 2)), state_cov=np.zeros((2, 2))
        )
        series, schedule = deterministic_series(p, 1)
        rng = np.random.default_rng(0)
        growth = series.growth + 0.03 * rng.normal(size=(1, 2))
        series = ObservedSeries(series.books0, growth, series.payout_ratio)
        value = expected_complete_loglik(p, e_step(p, series, schedule))
        # the deterministic state and prior contribute nothing; what is left
        # is the single Gaussian measurement term
        filt = run_filter(p, schedule, growth, real_intercepts(p, schedule))
        assert value == pytest.approx(filt.loglik, abs=1e-12)

    def test_rejects_singular_covariance(self, params):
        series, _, _ = synthetic_series(params, 3, seed=1)
        objective = varying(e_step(params, series), series)
        rank_one = params.replace(init_cov=np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(Exception, match="positive definite"):
            objective(rank_one)
        zero_with_residuals = params.replace(init_cov=np.zeros((2, 2)))
        with pytest.raises(Exception, match="degenerate"):
            objective(zero_with_residuals)


def assert_rel(actual, reference, rtol=1e-12):
    assert abs(actual - reference) <= rtol * abs(reference)


def drift_stats(params, periods, jitter, schedule):
    """Smoother output whose means follow the drift up to alternating
    deviations ±``jitter`` and whose smoothed covariances vanish, so each
    period's state residual is 2 ``jitter`` in size, and its series."""
    t = np.arange(periods + 1)[:, None]
    m = params.init_mean + t * params.drift + jitter * (-1.0) ** t
    g = schedule.gain[1 : periods + 1]
    growth = (real_intercepts(params, schedule)[1 : periods + 1]
              + g * m[:-1] - m[1:] + 0.01)
    zero = np.zeros((periods + 1, 2, 2))
    series = ObservedSeries(np.array([2.0, 3.0]), growth,
                            schedule.payout_ratio[1 : periods + 1])
    return SmootherOutput(m_smooth=m, cov_m_smooth=zero, cross_m=zero), series


class TestObjectiveFromSums:
    """The sums-based objective against the period-by-period reference."""

    @pytest.mark.parametrize("periods", [1, 2, 7, 40, 100, 400, 1600])
    def test_matches_reference(self, periods):
        truth = base_params(drift=np.array([5e-4, -3e-4]))
        series, _, _ = synthetic_series(truth, periods, seed=periods,
                                        payout_level=0.35)
        p = truth.replace(req_return=truth.req_return + 0.002,
                          init_mean=truth.init_mean - 0.01)
        schedule = build_linearization_schedule(p, series.payout_ratio, periods)
        sums = e_step(p, series, schedule)
        step = m_step(sums)
        smoothed = sums.smoothed
        for weight in (0.0, 0.25, 1.0):
            q = em._blend_params(p, step, weight)
            want = objective_reference(q, smoothed, series, schedule)
            assert_rel(expected_complete_loglik(q, sums), want)
            assert_rel(expected_complete_loglik(
                q, em.moment_sums(smoothed, series, schedule, q)), want)
            assert_rel(varying(sums, series)(q),
                       objective_reference(q, smoothed, series))

    def test_zero_state_cov_keeps_the_per_period_rule(self):
        # each period's state residual second moment is (2 · 3e-7)² =
        # 3.6e-13, below 1e-12, while their sum over 40 periods, 1.4e-11, is
        # above; at a 6e-7 jitter each period's is 1.44e-12
        p = base_params(state_cov=np.zeros((2, 2)))
        T = 40
        ratio = np.log(0.3) * np.ones((T, 2))
        schedule = build_linearization_schedule(p, ratio, T)
        smoothed, series = drift_stats(p, T, 3e-7, schedule)
        steps = np.diff(smoothed.m_smooth, axis=0) - p.drift
        assert (steps ** 2).max() < 1e-12 < (steps ** 2).sum()
        want = objective_reference(p, smoothed, series, schedule)
        assert_rel(expected_complete_loglik(
            p, em.moment_sums(smoothed, series, schedule, p)), want)
        sums = em.moment_sums(smoothed, series, schedule,
                              p.replace(drift=p.drift + 1e-3))
        assert_rel(expected_complete_loglik(p, sums), want)

        wide, series = drift_stats(p, T, 6e-7, schedule)
        messages = []
        for objective in (
            lambda: expected_complete_loglik(
                p, em.moment_sums(wide, series, schedule, p)),
            lambda: objective_reference(p, wide, series, schedule),
        ):
            with pytest.raises(DataValidationError) as info:
                objective()
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            "state_cov is degenerate (zero) but residual moments are not")


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(4):
            p = random_params(rng)
            series, _, _ = synthetic_series(p, 7, seed=int(rng.integers(1e6)))
            sums = e_step(p, series)
            grad = complete_loglik_gradient(sums)
            objective = varying(sums, series)
            fd = fd_gradient(lambda x: objective(unpack(p, x)), pack(p))
            scale = max(1.0, np.abs(grad).max())
            assert np.abs(grad - fd).max() / scale < 1e-5


def residual_pieces(sums, series, schedule):
    """Residuals (u, v, d) and Z of the gradient, then the per-period second
    moments E[uu'], E[vv'] of the objective's reference, from the E-step
    record ``sums`` of ``series`` over ``schedule``; row i is period i + 1."""
    smoothed = sums.smoothed
    reference = residual_pieces_reference(
        sums.params, schedule, smoothed.m_smooth, smoothed.cov_m_smooth,
        smoothed.cross_m, series.growth, series.payout_ratio,
    )
    return em._gradient_pieces(sums) + reference[4:]


class TestEStep:
    def test_deterministic_multiplier_zeroes_residual_structure(self):
        p = base_params(init_cov=np.zeros((2, 2)), state_cov=np.zeros((2, 2)))
        series, schedule = deterministic_series(p, 5)
        sums = e_step(p, series, schedule)
        _, v, d, z, _, _ = residual_pieces(sums, series, schedule)
        np.testing.assert_allclose(v, 0.0, atol=1e-10)
        np.testing.assert_allclose(d, 0.0, atol=1e-10)
        np.testing.assert_allclose(z, 0.0, atol=1e-10)

    def test_unit_gain_limit_kills_d_and_z(self, params):
        # negligible payouts make every gain ~1 so the payout-gap factor
        # G(G - I) annihilates d and Z whatever the smoothed moments are
        series, _, _ = synthetic_series(
            params, 5, seed=3, payout_level=1e-9, jitter=0.0
        )
        schedule = build_linearization_schedule(params, series.payout_ratio, 5)
        sums = e_step(params, series)
        _, _, d, z, _, _ = residual_pieces(sums, series, schedule)
        np.testing.assert_allclose(d, 0.0, atol=1e-8)
        np.testing.assert_allclose(z, 0.0, atol=1e-8)

    def test_moments_match_oracle(self, rng):
        p = random_params(rng)
        series, _, _ = synthetic_series(p, 5, seed=11)
        schedule = build_linearization_schedule(p, series.payout_ratio, 5)
        intercepts = real_intercepts(p, schedule)
        sums = e_step(p, series, schedule)
        u_res, _, d_res, z_mat, e_uu_res, e_vv_res = residual_pieces(
            sums, series, schedule
        )
        oracle = GaussianConditioningOracle(p, schedule, series.growth, intercepts)
        for t in range(1, 6):
            pair = oracle.smoothed_m_pair(t)
            mean_prev, mean_cur = pair.mean[:2], pair.mean[2:]
            V = pair.cov
            g = schedule.gain[t]
            G = np.diag(g)
            c_t = intercepts[t]
            u_hat = series.growth[t - 1] + mean_cur - g * mean_prev - c_t
            e_uu = np.outer(u_hat, u_hat) + (
                V[2:, 2:] + G @ V[:2, :2] @ G - V[:2, 2:].T @ G - G @ V[:2, 2:]
            )
            np.testing.assert_allclose(e_uu_res[t - 1], e_uu, atol=1e-8)
            v_hat = mean_cur - p.drift - mean_prev
            e_vv = np.outer(v_hat, v_hat) + (
                V[2:, 2:] + V[:2, :2] - V[:2, 2:] - V[:2, 2:].T
            )
            np.testing.assert_allclose(e_vv_res[t - 1], e_vv, atol=1e-8)
            d_hat = g * (g - 1) * (mean_prev - (p.init_mean + (t - 1) * p.drift))
            e_du = np.outer(d_hat, u_hat) + (g * (g - 1))[:, None] * (
                V[:2, 2:] - V[:2, :2] @ G
            )
            np.testing.assert_allclose(
                z_mat[t - 1] + np.outer(d_res[t - 1], u_res[t - 1]),
                e_du,
                atol=1e-8,
            )

    def test_covariance_corrections_are_psd(self, rng):
        p = random_params(rng)
        series, _, _ = synthetic_series(p, 6, seed=13)
        schedule = build_linearization_schedule(p, series.payout_ratio, 6)
        sums = e_step(p, series)
        u_res, v_res, _, _, e_uu, e_vv = residual_pieces(sums, series, schedule)
        for i in range(6):
            for total, res in ((e_uu[i], u_res[i]), (e_vv[i], v_res[i])):
                correction = total - np.outer(res, res)
                assert np.linalg.eigvalsh(correction).min() > -1e-10


class TestMStep:
    def test_zero_residual_stats_flagged_degenerate(self):
        p = base_params(init_cov=np.zeros((2, 2)), state_cov=np.zeros((2, 2)))
        series, schedule = deterministic_series(p, 4)
        sums = e_step(p, series, schedule)
        with pytest.warns(UserWarning, match="singular"):
            new = m_step(sums)
        np.testing.assert_allclose(new.state_cov, 0.0, atol=1e-12)
        np.testing.assert_allclose(new.meas_cov, 0.0, atol=1e-12)

    def test_init_cov_equals_smoothed_by_construction(self, rng):
        p = random_params(rng)
        series, _, _ = synthetic_series(p, 6, seed=17)
        schedule = build_linearization_schedule(p, series.payout_ratio, 6)
        sums = e_step(p, series, schedule)
        new = m_step(sums)
        smoothed = sums.smoothed
        cov0 = smoothed.cov_m_smooth[0]
        np.testing.assert_array_equal(new.init_cov, 0.5 * (cov0 + cov0.T))
        np.testing.assert_array_equal(new.init_mean, smoothed.m_smooth[0])

    def test_output_zeroes_frozen_gradient(self, rng):
        for _ in range(3):
            p = random_params(rng)
            series, _, _ = synthetic_series(p, 8, seed=int(rng.integers(1e6)))
            schedule = build_linearization_schedule(p, series.payout_ratio, 8)
            sums = e_step(p, series, schedule)
            new = m_step(sums)
            fd = fd_gradient(
                lambda x: expected_complete_loglik(unpack(new, x), sums),
                pack(new),
            )
            assert np.abs(fd).max() < 1e-6

    def test_warns_when_gains_near_unity(self, params):
        series, _, _ = synthetic_series(
            params, 5, seed=3, payout_level=1e-9, jitter=0.0
        )
        schedule = build_linearization_schedule(params, series.payout_ratio, 5)
        sums = e_step(params, series, schedule)
        with pytest.warns(UserWarning, match="weakly identified"):
            m_step(sums)


class TestRequiredReturnFixedPoint:
    """The closed-form M-step iteration against its numpy.linalg form."""

    def test_matches_linalg_reference(self, rng):
        for _ in range(40):
            T = int(rng.integers(1, 400))
            g = 1.0 + rng.exponential(float(rng.uniform(0.01, 2.0)), size=(T, 2))
            k = 0.04 + 0.02 * rng.normal(size=2)
            u_free = g * k + float(rng.uniform(0.001, 0.1)) * rng.normal(size=(T, 2))
            ucov = spd_matrix(rng, float(rng.uniform(1e-4, 0.05)))
            args = (u_free, ucov, g, spd_matrix(rng, 0.05),
                    k + 0.01 * rng.normal(size=2))
            for got, want in zip(em._required_return_fixed_point(*args),
                                 required_return_fixed_point(*args)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_on_smoothed_stats(self, rng):
        for _ in range(4):
            p = random_params(rng)
            series, _, _ = synthetic_series(p, 40, seed=int(rng.integers(1e6)))
            schedule = build_linearization_schedule(p, series.payout_ratio, 40)
            smoothed = e_step(p, series, schedule).smoothed
            m, g = smoothed.m_smooth, schedule.gain[1:]
            u_free = (series.growth + m[1:] - g * m[:-1]
                      + (g - 1.0) * series.payout_ratio + schedule.shift[1:])
            ucov = em._measurement_residual_cov(
                smoothed.cov_m_smooth, smoothed.cross_m, g).sum(axis=0)
            args = (u_free, ucov, g, p.meas_cov, p.req_return)
            for got, want in zip(em._required_return_fixed_point(*args),
                                 required_return_fixed_point(*args)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("design", ["singular", "collapsed", "collapses"])
    def test_degenerate_designs_raise_alike(self, rng, design):
        T = 30
        g = 1.0 + rng.exponential(0.5, size=(T, 2))
        u_free = 0.05 * rng.normal(size=(T, 2))
        ucov, cov_u, k = 1e-3 * np.eye(2), 0.01 * np.eye(2), np.zeros(2)
        if design == "singular":
            # Σ_u⁻¹ and with it the normal matrix: condition number ~1e14
            cov_u = np.diag([1.0, 1e-14])
        elif design == "collapsed":
            cov_u = np.array([[1.0, 1.0], [1.0, 1.0]])
        else:
            # zero residuals make the first round's Σ_u exactly zero
            u_free, ucov = np.zeros((T, 2)), np.zeros((2, 2))
        messages = []
        for fixed_point in (em._required_return_fixed_point,
                            required_return_fixed_point):
            with pytest.raises(DegenerateDesignError) as info:
                fixed_point(u_free, ucov, g, cov_u, k)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        expected = ("numerically singular" if design == "singular"
                    else "collapsed during the update")
        assert expected in messages[0]


def fixed_point_stats(params, periods, schedule):
    """Fabricate an E-step record making ``params`` an exact M-step fixed
    point.

    The smoothed means follow the drift exactly, the growth data is chosen
    so the measurement residual at the current required returns vanishes,
    and the smoothed covariance blocks solve the two residual-covariance
    identities so the time-averaged second moments reproduce the current
    noise covariances.
    """
    from privcredit.model import real_intercepts

    T = periods
    g = schedule.gain[1 : T + 1]
    m_hat = np.array([params.init_mean + t * params.drift for t in range(T + 1)])
    c = real_intercepts(params, schedule)[1 : T + 1]
    # residual u(k) = growth + m_t - g m_{t-1} - c(k) vanishes at the current k
    growth = c + g * m_hat[:-1] - m_hat[1:]
    cov_m = np.zeros((T + 1, 2, 2))
    cross_m = np.zeros((T + 1, 2, 2))
    cov_m[0] = params.init_cov
    eye = np.eye(2)
    for t in range(1, T + 1):
        G = np.diag(g[t - 1])
        s = (
            params.meas_cov - params.state_cov + cov_m[t - 1]
            - G @ cov_m[t - 1] @ G
        )
        y = np.linalg.solve(eye - G, 0.5 * s)
        cross_m[t] = y
        cov_m[t] = params.state_cov - cov_m[t - 1] + y + y.T
    smoothed = SmootherOutput(m_smooth=m_hat, cov_m_smooth=cov_m, cross_m=cross_m)
    series = ObservedSeries(np.array([2.0, 3.0]), growth,
                            schedule.payout_ratio[1 : T + 1])
    return em.moment_sums(smoothed, series, schedule, params)


class TestEmFit:
    def test_m_step_fixed_point_is_exact(self, params):
        T = 7
        ratio = np.log(0.3) * np.ones((T, 2))
        schedule = build_linearization_schedule(params, ratio, T)
        new = m_step(fixed_point_stats(params, T, schedule))
        assert np.abs(new.req_return - params.req_return).max() < 1e-12
        assert np.abs(new.init_mean - params.init_mean).max() < 1e-12
        assert np.abs(new.drift - params.drift).max() < 1e-12
        assert np.abs(new.init_cov - params.init_cov).max() < 1e-12
        assert np.abs(new.meas_cov - params.meas_cov).max() < 1e-12
        assert np.abs(new.state_cov - params.state_cov).max() < 1e-12

    def test_converged_fit_is_numerically_stationary(self, params):
        series, _, _ = synthetic_series(params, 60, seed=23, payout_level=0.4)
        fitted, trace = em_fit(
            series, params_init=params, max_iter=600, tol=1e-6
        )
        refit, retrace = em_fit(series, params_init=fitted, max_iter=1, tol=0.0)
        assert retrace.max_change[0] < 1e-5

    def test_loglik_at_estimate_beats_truth_with_slack(self, params):
        series, _, _ = synthetic_series(params, 400, seed=29)
        fitted, trace = em_fit(
            series, params_init=params, max_iter=60, tol=1e-7
        )
        schedule_true = build_linearization_schedule(
            params, series.payout_ratio, series.n_periods
        )
        ll_true = run_filter(
            params, schedule_true, series.growth,
            real_intercepts(params, schedule_true),
        ).loglik
        schedule_fit = build_linearization_schedule(
            fitted, series.payout_ratio, series.n_periods
        )
        ll_fit = run_filter(
            fitted, schedule_fit, series.growth,
            real_intercepts(fitted, schedule_fit),
        ).loglik
        assert ll_fit >= ll_true - 2.0

    def test_ascent_and_psd_every_iteration(self, params):
        series, _, _ = synthetic_series(params, 60, seed=31)
        start = default_initial_params(params.rate_log)
        fitted, trace = em_fit(series, params_init=start, max_iter=25, tol=0.0)
        gaps = np.array(trace.lambda_after) - np.array(trace.lambda_before)
        assert gaps.min() > -1e-9
        for p in trace.params:
            for m in (p.meas_cov, p.state_cov, p.init_cov):
                assert np.linalg.eigvalsh(m).min() > -1e-12

    def test_one_filter_run_per_accepted_step(self, params, monkeypatch):
        # no E-step filters: the first smooths the fit's start pass, every
        # later one the pass the line search ran for the candidate it
        # accepted. Each iteration
        # builds its moment sums once and evaluates the objective from them
        # at its start and at each line-search candidate. Each filter run
        # has its own schedule build, and parameters are built once by the
        # M-step and once by each line-search candidate short of the full step.
        # from the default start every step is taken whole; from the truth
        # on a longer sample the line search halves one
        fits = [(synthetic_series(params, periods, seed=31)[0], start, iterations)
                for start, periods, iterations in (
                    (default_initial_params(params.rate_log), 60, 10),
                    (params, 800, 4))]
        real_filter, real_e_step = em.run_filter, em.e_step
        real_sums, real_objective = em.moment_sums, em.expected_complete_loglik
        real_blend, real_schedule = em._blend_params, em.build_linearization_schedule
        real_post_init = ModelParams.__post_init__

        def counted_schedule(*args, **kwargs):
            schedules.append(None)
            return real_schedule(*args, **kwargs)

        def counted_post_init(self):
            constructed.append(None)
            real_post_init(self)

        def counted_sums(*args, **kwargs):
            built.append(real_sums(*args, **kwargs))
            return built[-1]

        def counted_objective(params, sums):
            objective_sums.append(sums)
            return real_objective(params, sums)

        def counted_blend(old, new, weight):
            candidates.append(weight)
            return real_blend(old, new, weight)

        def counted_filter(*args, **kwargs):
            calls["e_step" if in_e_step else "search"] += 1
            passes.append(real_filter(*args, **kwargs))
            return passes[-1]

        def tracked_e_step(*args, **kwargs):
            in_e_step.append(None)
            try:
                return real_e_step(*args, **kwargs)
            finally:
                in_e_step.pop()

        monkeypatch.setattr(em, "run_filter", counted_filter)
        monkeypatch.setattr(em, "e_step", tracked_e_step)
        monkeypatch.setattr(em, "moment_sums", counted_sums)
        monkeypatch.setattr(em, "expected_complete_loglik", counted_objective)
        monkeypatch.setattr(em, "_blend_params", counted_blend)
        monkeypatch.setattr(em, "build_linearization_schedule", counted_schedule)
        monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
        for series, start, iterations in fits:
            calls, passes, in_e_step = {"e_step": 0, "search": 0}, [], []
            built, objective_sums, candidates = [], [], []
            schedules, constructed = [], []
            fitted, trace = em_fit(series, params_init=start,
                                   max_iter=iterations, tol=0.0)
            assert trace.termination == "max_iter"
            assert trace.n_iterations == iterations
            assert len(schedules) == len(passes)
            short_steps = sum(w < 1.0 for w in candidates)
            assert len(constructed) == trace.n_iterations + short_steps
            assert (short_steps > 0) == (start is params)
            assert calls["e_step"] == 0
            assert calls["search"] >= trace.n_iterations + 1
            assert len(built) == trace.n_iterations
            assert len(objective_sums) == trace.n_iterations + len(candidates)
            # every evaluation uses the sums its own iteration built
            runs = [s for i, s in enumerate(objective_sums)
                    if i == 0 or s is not objective_sums[i - 1]]
            assert len(runs) == len(built)
            assert all(s is b for s, b in zip(runs, built))
        assert trace.filter_output is passes[-1]
        monkeypatch.undo()
        fresh = e_step(fitted, series)
        assert trace.filter_output.loglik == fresh.filter_output.loglik
        assert np.array_equal(trace.filter_output.m_filt, fresh.filter_output.m_filt)

    def test_infeasible_start_raises(self, params):
        series, _, _ = synthetic_series(params, 5, seed=37)
        bad = params.replace(req_return=np.array([-2.0, -2.0]))
        with pytest.raises(InfeasibleLinearizationError, match="period 1"):
            em_fit(series, params_init=bad, max_iter=10)

    def test_programming_error_in_line_search_propagates(self, params, monkeypatch):
        # the first filter run is the start pass; the next is the line search's
        series, _, _ = synthetic_series(params, 20, seed=39)
        real_filter = em.run_filter
        calls = []

        def broken_after_first(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise TypeError("defect in the filter")
            return real_filter(*args, **kwargs)

        monkeypatch.setattr(em, "run_filter", broken_after_first)
        with pytest.raises(TypeError, match="defect in the filter"):
            em_fit(series, params_init=params, max_iter=3)
        assert len(calls) == 2

    def test_line_search_rejects_a_nan_likelihood(self, params, monkeypatch):
        # a candidate's filter with a NaN log-likelihood is never accepted,
        # though NaN < floor is false as NaN >= floor is
        series, _, _ = synthetic_series(params, 60, seed=31)
        real_pass = em._forward_pass
        passes = []

        def nan_candidates(*args, **kwargs):
            schedule, filt = real_pass(*args, **kwargs)
            if passes:
                filt = dataclasses.replace(filt, loglik=float("nan"))
            passes.append(filt)
            return schedule, filt

        monkeypatch.setattr(em, "_forward_pass", nan_candidates)
        start = default_initial_params(params.rate_log)
        fitted, trace = em_fit(series, params_init=start, rate_log=params.rate_log,
                               max_iter=5)
        assert len(passes) > 1
        assert trace.termination == "stalled" and fitted is start
        assert trace.filter_output is passes[0]

    def test_programming_error_in_schedule_build_propagates(self, params, monkeypatch):
        series, _, _ = synthetic_series(params, 5, seed=37)

        def broken(*args, **kwargs):
            raise TypeError("defect in the schedule")

        monkeypatch.setattr(em, "build_linearization_schedule", broken)
        with pytest.raises(TypeError, match="defect in the schedule"):
            em_fit(series, params_init=params, max_iter=3)


class TestSmoothedMarketValues:
    def test_unit_multiplier(self, params):
        series, _, _ = synthetic_series(params, 4, seed=41)
        smoothed = e_step(params, series).smoothed
        zero = dataclasses.replace(
            smoothed, m_smooth=np.zeros_like(smoothed.m_smooth)
        )
        values = smoothed_market_values(zero, series)
        np.testing.assert_allclose(values, np.exp(series.log_books()), atol=1e-12)

    def test_hand_values(self, params):
        series, _, _ = synthetic_series(params, 1, seed=43)
        smoothed = e_step(params, series).smoothed
        fixed = dataclasses.replace(
            smoothed, m_smooth=np.tile(np.log([2.0, 3.0]), (2, 1))
        )
        books = np.exp(series.log_books())
        values = smoothed_market_values(fixed, series)
        np.testing.assert_allclose(values, books * [2.0, 3.0], rtol=1e-12)

    def test_noiseless_recovery_of_market_values(self):
        # tiny measurement/prior noise: smoothing pins the true values (the
        # initial uncertainty amplifies by the gain product, so keep T short)
        p = base_params(
            init_cov=1e-12 * np.eye(2), meas_cov=1e-12 * np.eye(2)
        )
        series, schedule, panel = synthetic_series(p, 12, seed=47)
        recovered = smoothed_market_values(e_step(p, series).smoothed, series)
        true_values = np.exp(panel.log_values[0])
        np.testing.assert_allclose(recovered, true_values, rtol=1e-3)
