import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from privcredit.errors import IllConditionedInnovationError
from privcredit.kalman import run_filter, smooth
from privcredit.model import (
    ModelParams,
    build_linearization_schedule,
    real_intercepts,
    risk_neutral_intercepts,
)
from privcredit.pricing import horizon_moments

from conftest import base_params, random_params, spd_matrix, synthetic_series
from reference import GaussianConditioningOracle, filter_reference, smooth_reference


def make_instance(params, periods, seed, horizon=None):
    series, _, _ = synthetic_series(params, periods, seed)
    H = horizon or periods
    rng = np.random.default_rng(seed + 1)
    extra = np.log(0.25) + 0.03 * rng.normal(size=(H - periods, 2))
    ratio = np.vstack([series.payout_ratio, extra])
    schedule = build_linearization_schedule(params, ratio, H)
    intercepts = real_intercepts(params, schedule)
    return series, schedule, intercepts


def assert_filter_matches_oracle(out, oracle, atol):
    """Filtered m̃_t and the predicted growth, t = 1..T."""
    for t in range(1, oracle.n_obs + 1):
        fm = oracle.filtered_m(t)
        np.testing.assert_allclose(out.m_filt[t], fm.mean, rtol=0, atol=atol)
        np.testing.assert_allclose(out.cov_m_filt[t], fm.cov, rtol=0, atol=atol)
        pb = oracle.predicted_b(t)
        np.testing.assert_allclose(out.b_pred[t], pb.mean, rtol=0, atol=atol)
        np.testing.assert_allclose(out.cov_b_pred[t], pb.cov, rtol=0, atol=atol)


def assert_smoother_matches_oracle(smo, oracle, atol):
    """Smoothed m̃_t for t = 0..T and Cov(m̃_{t-1}, m̃_t | all) for t = 1..T."""
    for t in range(oracle.n_obs + 1):
        sm = oracle.smoothed_m(t)
        np.testing.assert_allclose(smo.m_smooth[t], sm.mean, rtol=0, atol=atol)
        np.testing.assert_allclose(smo.cov_m_smooth[t], sm.cov, rtol=0, atol=atol)
    for t in range(1, oracle.n_obs + 1):
        pair = oracle.smoothed_m_pair(t)
        np.testing.assert_allclose(smo.cross_m[t], pair.cov[:2, 2:], rtol=0, atol=atol)


class TestInitFilter:
    def test_standard_prior(self):
        p = base_params(init_mean=np.zeros(2), init_cov=np.eye(2))
        series, schedule, intercepts = make_instance(p, 2, seed=3)
        out = run_filter(p, schedule, series.growth, intercepts)
        np.testing.assert_array_equal(out.m_filt[0], np.zeros(2))
        np.testing.assert_array_equal(out.cov_m_filt[0], np.eye(2))

    def test_deterministic_start(self):
        p = base_params(
            init_mean=np.array([1.0, -1.0]), init_cov=np.zeros((2, 2))
        )
        series, schedule, intercepts = make_instance(p, 2, seed=3)
        out = run_filter(p, schedule, series.growth, intercepts)
        np.testing.assert_array_equal(out.m_filt[0], [1.0, -1.0])
        np.testing.assert_array_equal(out.cov_m_filt[0], np.zeros((2, 2)))

    def test_matches_oracle_marginal(self, rng):
        p = random_params(rng)
        series, schedule, intercepts = make_instance(p, 3, seed=5)
        oracle = GaussianConditioningOracle(p, schedule, series.growth, intercepts)
        marg = oracle.filtered_m(0)
        out = run_filter(p, schedule, series.growth, intercepts)
        np.testing.assert_array_equal(out.m_filt[0], marg.mean)
        np.testing.assert_array_equal(out.cov_m_filt[0], marg.cov)


class TestPredictCorrect:
    def test_noiseless_prediction_path(self):
        p = base_params(init_cov=np.zeros((2, 2)), state_cov=np.zeros((2, 2)))
        series, schedule, intercepts = make_instance(p, 5, seed=9)
        out = run_filter(p, schedule, series.growth, intercepts)
        for t in range(1, 6):
            np.testing.assert_allclose(
                out.m_filt[t], p.init_mean + t * p.drift, atol=1e-12
            )
            np.testing.assert_allclose(
                out.b_pred[t],
                (schedule.gain[t] - 1.0) * (p.init_mean + (t - 1) * p.drift)
                - p.drift + intercepts[t],
                atol=1e-12,
            )
            np.testing.assert_array_equal(out.gain[t], np.zeros((2, 2)))

    def test_one_step_prediction(self, params):
        series, schedule, intercepts = make_instance(params, 2, seed=2)
        out = run_filter(params, schedule, series.growth, intercepts)
        D = np.diag(schedule.gain[1] - 1.0)
        np.testing.assert_allclose(
            out.b_pred[1],
            D @ params.init_mean - params.drift + intercepts[1],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            out.cov_b_pred[1],
            D @ params.init_cov @ D + params.meas_cov + params.state_cov,
            atol=1e-15,
        )

    def test_observation_equal_to_prediction_keeps_state(self, params):
        series, schedule, intercepts = make_instance(params, 1, seed=4)
        b_pred = run_filter(params, schedule, series.growth, intercepts).b_pred[1]
        out = run_filter(params, schedule, b_pred[None], intercepts)
        np.testing.assert_allclose(
            out.m_filt[1], params.init_mean + params.drift, atol=1e-14
        )
        np.testing.assert_array_equal(out.innovation[1], 0.0)

    def test_uninformative_observation_limit(self, params):
        huge = params.replace(meas_cov=1e12 * np.eye(2))
        series, schedule, intercepts = make_instance(huge, 1, seed=6)
        b_pred = run_filter(huge, schedule, series.growth, intercepts).b_pred[1]
        out = run_filter(huge, schedule, (b_pred + 1.0)[None], intercepts)
        assert np.abs(out.gain[1]).max() < 1e-6
        np.testing.assert_allclose(
            out.m_filt[1], huge.init_mean + huge.drift, rtol=1e-6, atol=1e-6
        )
        np.testing.assert_allclose(
            out.cov_m_filt[1], huge.init_cov + huge.state_cov, rtol=1e-6, atol=1e-6
        )

    def test_singular_innovation_raises(self, params):
        degenerate = params.replace(
            meas_cov=np.zeros((2, 2)),
            init_cov=np.zeros((2, 2)),
            state_cov=np.zeros((2, 2)),
        )
        series, schedule, intercepts = make_instance(params, 2, seed=8)
        with pytest.raises(IllConditionedInnovationError):
            run_filter(degenerate, schedule, series.growth, intercepts)


class TestRunFilter:
    def test_no_periods_return_the_prior(self, params):
        sched = build_linearization_schedule(params, np.log(0.25) * np.ones((3, 2)), 3)
        out = run_filter(params, sched, np.empty((0, 2)), real_intercepts(params, sched))
        assert out.n_periods == 0 and out.loglik == 0.0
        np.testing.assert_array_equal(out.m_filt, [params.init_mean])
        np.testing.assert_array_equal(out.cov_m_filt, [params.init_cov])

    def test_single_period_loglik_is_direct_density(self, params):
        series, schedule, intercepts = make_instance(params, 1, seed=12)
        out = run_filter(params, schedule, series.growth[:1], intercepts)
        oracle = GaussianConditioningOracle(
            params, schedule, series.growth[:1], intercepts
        )
        pred = oracle.predicted_b(1)
        direct = multivariate_normal(pred.mean, pred.cov).logpdf(series.growth[0])
        assert out.loglik == pytest.approx(direct, abs=1e-12)

    def test_intercept_swap_leaves_second_moments_bit_identical(self, params):
        series, schedule, _ = make_instance(params, 6, seed=13)
        real = run_filter(
            params, schedule, series.growth, real_intercepts(params, schedule)
        )
        rn = run_filter(
            params, schedule, series.growth, risk_neutral_intercepts(params, schedule)
        )
        for name in ("cov_m_filt", "cov_b_pred", "gain", "loading"):
            assert np.array_equal(getattr(real, name), getattr(rn, name)), name
        assert not np.array_equal(real.m_filt, rn.m_filt)

    def test_matches_oracle(self, rng):
        for _ in range(3):
            p = random_params(rng)
            series, schedule, intercepts = make_instance(p, 4, seed=17)
            out = run_filter(p, schedule, series.growth, intercepts)
            oracle = GaussianConditioningOracle(
                p, schedule, series.growth, intercepts
            )
            assert_filter_matches_oracle(out, oracle, atol=1e-10)
            assert out.loglik == pytest.approx(oracle.loglik(), abs=1e-8)


class TestSmoother:
    def test_base_case_equals_filter(self, params):
        series, schedule, intercepts = make_instance(params, 5, seed=19)
        out = run_filter(params, schedule, series.growth, intercepts)
        smo = smooth(out)
        np.testing.assert_array_equal(smo.m_smooth[5], out.m_filt[5])
        np.testing.assert_array_equal(smo.cov_m_smooth[5], out.cov_m_filt[5])

    def test_deterministic_state_smooths_to_mean_path(self):
        p = base_params(init_cov=np.zeros((2, 2)), state_cov=np.zeros((2, 2)))
        series, schedule, intercepts = make_instance(p, 5, seed=21)
        out = run_filter(p, schedule, series.growth, intercepts)
        smo = smooth(out)
        for t in range(6):
            np.testing.assert_allclose(
                smo.m_smooth[t], p.init_mean + t * p.drift, atol=1e-10
            )
        np.testing.assert_array_equal(smo.cov_m_smooth, 0.0)
        np.testing.assert_array_equal(smo.cross_m, 0.0)

    def test_matches_oracle_with_cross_covariances(self, rng):
        p = random_params(rng)
        series, schedule, intercepts = make_instance(p, 5, seed=23)
        out = run_filter(p, schedule, series.growth, intercepts)
        smo = smooth(out)
        oracle = GaussianConditioningOracle(p, schedule, series.growth, intercepts)
        assert_smoother_matches_oracle(smo, oracle, atol=1e-8)

    def test_monotone_information_ordering(self, rng):
        p = random_params(rng)
        series, schedule, intercepts = make_instance(p, 6, seed=29)
        out = run_filter(p, schedule, series.growth, intercepts)
        smo = smooth(out)
        for t in range(1, 7):
            cov_pred = out.cov_m_filt[t - 1] + p.state_cov
            filt_le_pred = np.linalg.eigvalsh(cov_pred - out.cov_m_filt[t]).min()
            smooth_le_filt = np.linalg.eigvalsh(
                out.cov_m_filt[t] - smo.cov_m_smooth[t]
            ).min()
            assert filt_le_pred > -1e-10
            assert smooth_le_filt > -1e-10


class TestForecast:
    def test_one_step_no_state_noise(self):
        p = base_params(state_cov=np.zeros((2, 2)))
        series, schedule, intercepts = make_instance(p, 4, seed=31, horizon=6)
        out = run_filter(p, schedule, series.growth, intercepts)
        fc = horizon_moments(p, schedule, out, 6, risk_neutral_intercepts(p, schedule))
        # without state noise the multiplier keeps the covariance P_{T|T}
        # one and two periods on, so both growth covariances load on it
        for t in (5, 6):
            D = np.diag(schedule.gain[t] - 1.0)
            np.testing.assert_allclose(
                fc.cov_b[t - 5], D @ out.cov_m_filt[4] @ D + p.meas_cov, atol=1e-14
            )

    def test_drift_only_mean_path(self, params):
        series, schedule, intercepts = make_instance(params, 4, seed=33, horizon=8)
        out = run_filter(params, schedule, series.growth, intercepts)
        fc = horizon_moments(params, schedule, out, 8,
                             risk_neutral_intercepts(params, schedule))
        m_T = out.m_filt[4]
        for k in range(1, 5):
            np.testing.assert_allclose(
                fc.m_mean[k - 1], m_T + k * params.drift, atol=1e-12
            )

    def test_matches_oracle(self, rng):
        p = random_params(rng)
        series, schedule, intercepts = make_instance(p, 4, seed=37, horizon=7)
        out = run_filter(p, schedule, series.growth, intercepts)
        fc = horizon_moments(p, schedule, out, 7, risk_neutral_intercepts(p, schedule))
        oracle = GaussianConditioningOracle(
            p, schedule, series.growth, intercepts, horizon=7
        )
        for t in range(5, 8):
            fb = oracle.forecast_b(t)
            np.testing.assert_allclose(fc.b_mean[t - 5], fb.mean, atol=1e-8)
            np.testing.assert_allclose(fc.cov_b[t - 5], fb.cov, atol=1e-8)


def _psd_sqrt(cov):
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _draw_cov(rng, kind, scale):
    if kind == "zero":
        return np.zeros((2, 2))
    if kind == "spd":
        return spd_matrix(rng, scale)
    # rank one plus a relative ridge: 1e-10 (near singular) or 1e-16, which
    # the filter's singularity test catches once the data pin the rest down
    ridge = 1e-16 if kind == "rank_one" else 1e-10
    w = scale * rng.normal(size=2)
    return np.outer(w, w) + ridge * (w @ w) * np.eye(2)


class TestOracleProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        periods=st.integers(1, 8),
        init_kind=st.sampled_from(["spd", "zero", "near_singular"]),
        state_kind=st.sampled_from(["spd", "zero", "near_singular"]),
        meas_kind=st.sampled_from(["spd", "zero"]),
    )
    def test_matches_oracle_or_raises(self, seed, periods, init_kind,
                                      state_kind, meas_kind):
        # without measurement noise a near-singular prior or state noise
        # makes the observations' own covariance ill-conditioned (~1e10),
        # and no method, the dense oracle included, is accurate to 1e-8
        assume(meas_kind == "spd" or "near_singular" not in (init_kind, state_kind))
        rng = np.random.default_rng(seed)
        p = ModelParams(
            req_return=np.array([0.04, 0.03]) + 0.01 * rng.normal(size=2),
            init_mean=0.2 * rng.normal(size=2),
            init_cov=_draw_cov(rng, init_kind, 0.1),
            drift=0.01 * rng.normal(size=2),
            meas_cov=_draw_cov(rng, meas_kind, 0.05),
            state_cov=_draw_cov(rng, state_kind, 0.04),
            rate_log=0.01,
        )
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(periods, 2))
        schedule = build_linearization_schedule(p, ratio, periods)
        intercepts = real_intercepts(p, schedule)
        m = p.init_mean + _psd_sqrt(p.init_cov) @ rng.standard_normal(2)
        growth = np.zeros((periods, 2))
        for t in range(1, periods + 1):
            m_new = m + p.drift + _psd_sqrt(p.state_cov) @ rng.standard_normal(2)
            growth[t - 1] = (-m_new + schedule.gain[t] * m + intercepts[t]
                             + _psd_sqrt(p.meas_cov) @ rng.standard_normal(2))
            m = m_new
        try:
            out = run_filter(p, schedule, growth, intercepts)
        except IllConditionedInnovationError:
            return
        smo = smooth(out)
        oracle = GaussianConditioningOracle(p, schedule, growth, intercepts)
        assert_filter_matches_oracle(out, oracle, atol=1e-8)
        assert_smoother_matches_oracle(smo, oracle, atol=1e-8)
        assert out.loglik == pytest.approx(oracle.loglik(), abs=1e-8)


FILTER_FIELDS = ("m_filt", "cov_m_filt", "b_pred", "cov_b_pred", "gain",
                 "innovation", "loading", "inv_cov_b_pred")
SMOOTHER_FIELDS = ("m_smooth", "cov_m_smooth", "cross_m")


def assert_rel(actual, reference, name, rtol=1e-12):
    """Equal to within ``rtol`` of the reference's largest magnitude."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape, name
    assert np.abs(actual - reference).max(initial=0.0) <= (
        rtol * np.abs(reference).max(initial=0.0)), name


def assert_passes_match_reference(out, ref):
    for name in FILTER_FIELDS:
        assert_rel(getattr(out, name), getattr(ref, name), name)
    # relative to the sample length where the per-period terms cancel
    assert abs(out.loglik - ref.loglik) <= 1e-12 * max(abs(ref.loglik), ref.n_periods)
    smo, smo_ref = smooth(out), smooth_reference(ref)
    for name in SMOOTHER_FIELDS:
        assert_rel(getattr(smo, name), getattr(smo_ref, name), name)


def first_singular_period(run, params, schedule, growth, intercepts):
    """(period, message) of the first numerically singular F_t, found as the
    shortest prefix of the sample the pass ``run`` rejects; (None, None)
    when it accepts the whole sample."""
    for t in range(1, growth.shape[0] + 1):
        try:
            run(params, schedule, growth[:t], intercepts)
        except IllConditionedInnovationError as exc:
            return t, str(exc)
    return None, None


class TestLeanPasses:
    """The filter and smoother against their single per-period loops."""

    @pytest.mark.parametrize("periods", [1, 2, 40, 100, 1600])
    def test_match_reference_loops(self, periods):
        p = base_params(drift=np.array([5e-4, -3e-4]))
        series, schedule, intercepts = make_instance(p, periods, seed=periods)
        for c in (intercepts, risk_neutral_intercepts(p, schedule)):
            assert_passes_match_reference(
                run_filter(p, schedule, series.growth, c),
                filter_reference(p, schedule, series.growth, c),
            )

    def test_singular_period_after_the_first_raises_alike(self):
        # no measurement noise and rank-one state noise: the first periods
        # pin the multiplier down until an F_t is singular up to rounding
        rng = np.random.default_rng(1)
        w = 0.04 * rng.normal(size=2)
        p = base_params(
            meas_cov=np.zeros((2, 2)),
            state_cov=np.outer(w, w) + 1e-16 * (w @ w) * np.eye(2),
            init_cov=2.0 * np.outer(w, w) + 1e-3 * np.eye(2),
        )
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(5, 2))
        schedule = build_linearization_schedule(p, ratio, 5)
        intercepts = real_intercepts(p, schedule)
        growth = 0.01 * rng.normal(size=(5, 2))
        period, message = first_singular_period(
            run_filter, p, schedule, growth, intercepts)
        assert period == 3 and "det=-" not in message
        assert first_singular_period(
            filter_reference, p, schedule, growth, intercepts) == (period, message)

    @pytest.mark.parametrize("ratio, singular", [(0.7, True), (1.5, False)])
    def test_singularity_threshold(self, ratio, singular):
        # F_1 = Σ_u = diag(1, x) with no prior or state noise: the test
        # compares λ_min = x with 1e-13 times the trace 1 + x
        p = base_params(meas_cov=np.diag([1.0, ratio * 1e-13]),
                        init_cov=np.zeros((2, 2)), state_cov=np.zeros((2, 2)))
        series, schedule, intercepts = make_instance(p, 1, seed=5)
        outcomes = [first_singular_period(run, p, schedule, series.growth,
                                          intercepts)[0]
                    for run in (run_filter, filter_reference)]
        assert outcomes == ([1, 1] if singular else [None, None])

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        periods=st.integers(1, 10),
        init_kind=st.sampled_from(["spd", "zero", "near_singular", "rank_one"]),
        state_kind=st.sampled_from(["spd", "zero", "near_singular", "rank_one"]),
        meas_kind=st.sampled_from(["spd", "zero", "near_singular"]),
    )
    def test_match_reference_or_raise_alike(self, seed, periods, init_kind,
                                            state_kind, meas_kind):
        rng = np.random.default_rng(seed)
        p = ModelParams(
            req_return=np.array([0.04, 0.03]) + 0.01 * rng.normal(size=2),
            init_mean=0.2 * rng.normal(size=2),
            init_cov=_draw_cov(rng, init_kind, 0.1),
            drift=0.01 * rng.normal(size=2),
            meas_cov=_draw_cov(rng, meas_kind, 0.05),
            state_cov=_draw_cov(rng, state_kind, 0.04),
            rate_log=0.01,
        )
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(periods, 2))
        schedule = build_linearization_schedule(p, ratio, periods)
        intercepts = real_intercepts(p, schedule)
        growth = 0.05 * rng.normal(size=(periods, 2))
        singular = first_singular_period(
            filter_reference, p, schedule, growth, intercepts)
        assert first_singular_period(
            run_filter, p, schedule, growth, intercepts) == singular
        if singular[0] is None:
            assert_passes_match_reference(
                run_filter(p, schedule, growth, intercepts),
                filter_reference(p, schedule, growth, intercepts),
            )
