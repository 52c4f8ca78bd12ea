import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from privcredit.errors import (
    DataValidationError,
    IllConditionedInnovationError,
    NoSolutionError,
)
from privcredit.kalman import run_filter
from privcredit.model import (
    _linearized_log_asset,
    build_linearization_schedule,
    real_intercepts,
    risk_neutral_intercepts,
)
from privcredit.pricing import (
    _norm_cdf,
    build_pricing_context,
    default_probability,
    equity_debt_values,
    price_options,
    solve_threshold,
)
from privcredit.simulate import SimConfig, simulate_panel

from conftest import (
    base_params,
    maturity_moments,
    random_params,
    spd_matrix,
    synthetic_series,
)
from reference import (
    GaussianConditioningOracle,
    asset_log_moments_private,
    asset_log_moments_public,
    horizon_cov_reference,
    mc_option_price_reference,
)
from test_kalman import _draw_cov


def pricing_fixture(params, periods=10, maturity=4, seed=42):
    series, _, _ = synthetic_series(params, periods, seed=seed)
    return build_pricing_context(
        params, series, maturity, payout_future=np.log([0.25, 0.25])
    )


def with_posterior(ctx, mean, cov):
    """``ctx`` with the origin posterior under both measures set to (mean, cov)."""
    return dataclasses.replace(ctx, origin_mean=mean, origin_shift=np.zeros(2),
                               origin_cov=cov)


class TestBuildRiskNeutral:
    """The measure change carried by the risk-neutral intercepts."""

    def test_measure_change_vanishes_at_risk_free_returns(self):
        p = base_params(
            req_return=np.array([0.01, 0.01]),
            rate_log=0.01,
            meas_cov=np.zeros((2, 2)),
            state_cov=np.zeros((2, 2)),
        )
        ratio = np.log(0.3) * np.ones((3, 2))
        sched = build_linearization_schedule(p, ratio, 3)
        np.testing.assert_allclose(
            risk_neutral_intercepts(p, sched)[1:], real_intercepts(p, sched)[1:],
            atol=1e-15,
        )

    def test_isotropic_noise_correction(self, params):
        sigma2 = 0.04
        p = params.replace(meas_cov=sigma2 * np.eye(2))
        ratio = np.log(0.3) * np.ones((3, 2))
        sched = build_linearization_schedule(p, ratio, 3)
        diff = real_intercepts(p, sched) - risk_neutral_intercepts(p, sched)
        correction = diff[1:] - sched.gain[1:] * (
            p.req_return - p.rate_log
        )
        np.testing.assert_allclose(
            correction, 0.5 * sigma2 / sched.gain[1:], atol=1e-14
        )

    def test_martingale_restoration_residual(self, params):
        # the risk-neutral gross return should earn the risk-free rate up to
        # log-linearization error; record the residual and bound it loosely
        series, schedule, _ = synthetic_series(params, 1, seed=29)
        lb0 = np.log(series.books0)
        m0 = params.init_mean
        panel = simulate_panel(
            params, schedule,
            SimConfig(400_000, 1, seed=19, measure="risk_neutral"),
            lb0, init_mean=m0, init_cov=np.zeros((2, 2)),
        )
        values_now = np.exp(panel.log_values[:, 1])
        payouts = np.exp(schedule.payout_ratio[1] + lb0)
        values_prev = np.exp(m0 + lb0)
        gross = (values_now + payouts) / values_prev
        residual = gross.mean(axis=0) - (1.0 + np.expm1(params.rate_log))
        assert np.abs(residual).max() < 0.01

    def test_one_period_lognormal_identity(self, params):
        # exp of the combination pinned by the measurement equation has
        # risk-neutral mean exp(intercept + half the noise variances)
        series, schedule, _ = synthetic_series(params, 1, seed=31)
        panel = simulate_panel(
            params, schedule,
            SimConfig(1_000_000, 1, seed=17, measure="risk_neutral"),
            np.log(series.books0),
        )
        combo = np.exp(
            panel.growth[:, 0]
            + panel.multipliers[:, 1]
            - schedule.gain[1] * panel.multipliers[:, 0]
        )
        c_rn = risk_neutral_intercepts(params, schedule)[1]
        expected = np.exp(c_rn + 0.5 * np.diag(params.meas_cov))
        se = combo.std(axis=0) / np.sqrt(combo.shape[0])
        np.testing.assert_array_less(np.abs(combo.mean(axis=0) - expected), 3 * se)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        periods=st.integers(1, 400),
        maturity=st.integers(1, 12),
        init_kind=st.sampled_from(["spd", "zero", "rank_one"]),
        state_kind=st.sampled_from(["spd", "zero", "rank_one"]),
        meas_kind=st.sampled_from(["spd", "zero", "rank_one"]),
    )
    def test_shifted_posterior_equals_a_risk_neutral_filter(
        self, seed, periods, maturity, init_kind, state_kind, meas_kind
    ):
        # the context's one real-measure pass plus the intercept shift gives
        # the origin row of a filter run on the risk-neutral intercepts. Each
        # period's update a_t = a_{t-1} + φ + K_t(b̃_t − D_t a_{t-1} + φ − c_t)
        # rounds terms the size of a_t and of K_t times b̃_t, D_t a_{t-1} and
        # c_t, and the origin mean carries them all: its scale is their sum
        # over the pass. Near rank-one Σ_u and Σ_v make gains in the hundreds
        # and means in the thousands, and the routes part by up to 1e-9
        rng = np.random.default_rng(seed)
        p = random_params(rng).replace(
            init_cov=_draw_cov(rng, init_kind, 0.1),
            drift=5e-4 * rng.normal(size=2),
            meas_cov=_draw_cov(rng, meas_kind, 0.05),
            state_cov=_draw_cov(rng, state_kind, 0.04),
        )
        series, _, _ = synthetic_series(p, periods, seed=seed)
        future = np.log([0.25, 0.25])
        ratio = np.vstack([series.payout_ratio, np.tile(future, (maturity, 1))])
        schedule = build_linearization_schedule(p, ratio, periods + maturity)
        try:
            reference = run_filter(p, schedule, series.growth,
                                   risk_neutral_intercepts(p, schedule))
        except IllConditionedInnovationError:
            with pytest.raises(IllConditionedInnovationError):
                build_pricing_context(p, series, maturity, future)
            return
        mean, cov = build_pricing_context(p, series, maturity, future).posterior(
            "risk_neutral")
        a, gain = np.abs(reference.m_filt), np.abs(reference.gain[1:]).max(axis=(1, 2))
        parts = (np.abs(series.growth) + np.abs(reference.loading[1:]) * a[:-1]
                 + np.abs(reference.intercepts[1 : periods + 1]))
        scale = (a[1:].max(axis=1) + gain * parts.max(axis=1)).sum()
        assert np.abs(mean - reference.m_filt[periods]).max() <= 1e-13 * scale
        assert np.array_equal(cov, reference.cov_m_filt[periods])


class TestHorizonMoments:
    def test_one_step_cancellation(self, params, rng):
        ratio = np.log(0.3) + 0.03 * rng.normal(size=(5, 2))
        sched = build_linearization_schedule(params, ratio, 5)
        mom = maturity_moments(params, sched, 3, 4)
        np.testing.assert_array_equal(mom.alpha, np.diag(sched.gain[4]))
        np.testing.assert_allclose(mom.cov, params.meas_cov, atol=1e-15)

    def test_unit_gain_limit(self, params):
        p = params.replace(init_mean=np.zeros(2), drift=np.zeros(2))
        ratio = np.log(1e-9) * np.ones((6, 2))
        sched = build_linearization_schedule(p, ratio, 6)
        mom = maturity_moments(p, sched, 1, 5)
        np.testing.assert_allclose(mom.alpha, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(mom.cov, 4 * p.meas_cov, atol=1e-8)

    def test_rejects_bad_horizon(self, params, rng):
        ratio = np.log(0.3) * np.ones((3, 2))
        sched = build_linearization_schedule(params, ratio, 3)
        with pytest.raises(DataValidationError):
            maturity_moments(params, sched, 3, 3)

    def test_matches_monte_carlo(self, params):
        series, schedule, _ = synthetic_series(params, 4, seed=12)
        lb0 = np.log(series.books0)
        m0 = params.init_mean + 0.05
        panel = simulate_panel(
            params, schedule,
            SimConfig(1_000_000, 4, seed=3, measure="risk_neutral"),
            lb0, init_mean=m0, init_cov=np.zeros((2, 2)),
        )
        mom = maturity_moments(params, schedule, 0, 4)
        values = panel.log_values[:, 4]
        mean_cf = mom.alpha @ m0 + mom.beta_rn + lb0
        se = values.std(axis=0) / np.sqrt(values.shape[0])
        np.testing.assert_array_less(np.abs(values.mean(axis=0) - mean_cf), 3 * se)
        sample_cov = np.cov(values.T)
        n = values.shape[0]
        for i in range(2):
            for j in range(2):
                se_cov = math.sqrt(
                    (mom.cov[i, i] * mom.cov[j, j] + mom.cov[i, j] ** 2) / n
                )
                assert abs(sample_cov[i, j] - mom.cov[i, j]) < 4 * se_cov

    def test_cov_matches_period_loop(self, rng):
        # the per-period sum Σ_u (T − t) + Σ_i C_i Σ_v C_i' that the
        # closed form replaces, kept here as its reference
        def loop_cov(p, sched, t, T):
            cov = (T - t) * p.meas_cov.copy()
            for i in range(t + 1, T):
                coef = np.diag(sched.gain[i + 1 : T + 1].sum(axis=0) - (T - i))
                cov += coef @ p.state_cov @ coef.T
            return 0.5 * (cov + cov.T)

        # small drifts keep a 280-period schedule feasible
        for p in (base_params(), random_params(rng).replace(drift=np.zeros(2))):
            ratio = np.log(0.3) + 0.05 * rng.normal(size=(280, 2))
            sched = build_linearization_schedule(p, ratio, 280)
            for t in range(41):
                for h in (1, 2, 3, 4, 7, 12, 24, 60, 120, 240):
                    direct = maturity_moments(p, sched, t, t + h).cov
                    reference = loop_cov(p, sched, t, t + h)
                    scale = np.abs(reference).max()
                    assert np.abs(direct - reference).max() <= 1e-12 * scale

    def test_real_pair_matches_oracle(self, rng):
        # ln V_T = m̃_T + ln B_t + Σ_{i=t+1}^T b̃_i given the sample, by dense
        # conditioning, against the affine map at the filtered posterior
        periods, maturity = 6, 3
        horizon = periods + maturity
        for k in range(20):
            p = random_params(rng)
            series, _, _ = synthetic_series(p, periods, seed=300 + k)
            ctx = build_pricing_context(p, series, maturity, np.log([0.25, 0.25]))
            oracle = GaussianConditioningOracle(
                p, ctx.schedule, series.growth, real_intercepts(p, ctx.schedule),
                horizon=horizon,
            )
            idx = oracle._m_idx(horizon) + [
                i for t in range(periods + 1, horizon + 1) for i in oracle._b_idx(t)]
            joint = oracle.conditional(idx, periods)
            total = np.tile(np.eye(2), maturity + 1)
            alpha, mean, cov = ctx.moments.alpha, *ctx.posterior("real")
            pair_mean = alpha @ mean + ctx.moments.beta_real + ctx.log_books[periods]
            np.testing.assert_allclose(
                pair_mean, total @ joint.mean + ctx.log_books[periods], rtol=0, atol=1e-8)
            np.testing.assert_allclose(
                ctx.moments.cov + alpha @ cov @ alpha.T, total @ joint.cov @ total.T,
                rtol=0, atol=1e-8)

    def test_reference_assembly_agrees(self, rng):
        for _ in range(4):
            p = random_params(rng)
            ratio = np.log(0.3) + 0.05 * rng.normal(size=(6, 2))
            sched = build_linearization_schedule(p, ratio, 6)
            for t, T in ((2, 3), (2, 4), (2, 5), (0, 3)):
                direct = maturity_moments(p, sched, t, T).cov
                reference = horizon_cov_reference(p, sched, t, T)
                np.testing.assert_allclose(direct, reference, atol=1e-10)


class TestPricingContext:
    @pytest.mark.parametrize("shape", [(4, 2), (3,)])
    def test_future_payout_must_be_one_pair(self, params, shape):
        # one ratio pair serves every period past the sample; a per-period
        # (maturity, 2) array is rejected like any other shape
        series, _, _ = synthetic_series(params, 10, seed=42)
        with pytest.raises(DataValidationError, match=r"one pair, shape \(2,\)"):
            build_pricing_context(params, series, 4, np.full(shape, np.log(0.25)))


class TestAssetLogMoments:
    def test_zero_covariance_gives_zero_variance(self, params):
        ctx = pricing_fixture(params)
        ctx = dataclasses.replace(
            ctx, moments=dataclasses.replace(ctx.moments, cov=np.zeros((2, 2)))
        )
        _, var = ctx.asset_moments("risk_neutral", params.init_mean)
        assert var == 0.0

    def test_degenerate_weight_selects_one_leg(self, params):
        # a tangent weight of one keeps only the matching leg of the value
        # pair plus the tangent intercept
        ctx = pricing_fixture(params)
        h = ctx.tangent[1]
        m_t = params.init_mean
        mu, var = dataclasses.replace(ctx, tangent=(1.0, h)).asset_moments(
            "risk_neutral", m_t
        )
        pair_mean = (
            ctx.moments.alpha @ m_t + ctx.moments.beta_rn
            + ctx.log_books[ctx.origin]
        )
        assert mu == pytest.approx(pair_mean[1] + h, abs=1e-12)
        assert var == pytest.approx(ctx.moments.cov[1, 1], abs=1e-12)

    def test_private_variance_dominates_public(self, params):
        ctx = pricing_fixture(params)
        _, var_pub = ctx.asset_moments("risk_neutral", params.init_mean)
        _, var_priv = ctx.asset_moments("risk_neutral")
        assert var_priv >= var_pub
        weights = np.array([1.0 - ctx.tangent[0], ctx.tangent[0]])
        _, posterior = ctx.posterior("risk_neutral")
        gap = weights @ ctx.moments.alpha @ posterior @ ctx.moments.alpha.T @ weights
        assert var_priv - var_pub == pytest.approx(gap, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["real", "risk_neutral"]),
        st.integers(min_value=1, max_value=12),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        st.sampled_from(["filtered", "zero", "spd", "rank_one"]),
    )
    def test_one_path_equals_the_two_function_reference(
        self, seed, measure, maturity, m_t, posterior
    ):
        # public firms are the point-mass posterior of the private path,
        # with every float of the separate public/private forms unchanged
        rng = np.random.default_rng(seed)
        ctx = pricing_fixture(random_params(rng), maturity=maturity, seed=seed)
        m_t = np.array(m_t)
        args = (ctx.log_books[ctx.origin], ctx.tangent, measure)
        assert ctx.asset_moments(measure, m_t) == asset_log_moments_public(
            ctx.moments, m_t, *args
        )
        if posterior == "filtered":
            mean, cov = ctx.posterior(measure)
        else:
            mean = m_t
            root = rng.normal(size=2)
            cov = {"zero": np.zeros((2, 2)), "spd": spd_matrix(rng, 0.1),
                   "rank_one": 0.01 * np.outer(root, root)}[posterior]
            ctx = with_posterior(ctx, mean, cov)
        assert ctx.asset_moments(measure) == asset_log_moments_private(
            ctx.moments, mean, cov, *args
        )


class TestNormCdf:
    def test_matches_scipy_ndtr(self):
        x = np.linspace(-37.0, 9.0, 4601)
        ours = np.array([_norm_cdf(v) for v in x])
        np.testing.assert_allclose(ours, ndtr(x), rtol=1e-13, atol=0.0)

    def test_half_at_zero(self):
        assert _norm_cdf(0.0) == 0.5


class TestPriceOptions:
    def test_deterministic_limit(self):
        call, put = price_options(math.log(120.0), 0.0, 100.0, 1, 0.0)
        assert call == pytest.approx(20.0, abs=1e-12)
        assert put == 0.0

    def test_strike_free_limit(self):
        mu, var = 0.3, 0.09
        call, put = price_options(mu, var, 1e-12, 3, 0.01)
        assert call == pytest.approx(math.exp(mu - 3 * 0.01 + var / 2), rel=1e-9)
        assert put == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_strike(self):
        with pytest.raises(DataValidationError):
            price_options(0.0, 0.04, 0.0, 1, 0.0)

    @pytest.mark.parametrize("strike", [math.nan, math.inf])
    def test_rejects_nonfinite_strike(self, strike):
        with pytest.raises(DataValidationError):
            price_options(0.0, 0.04, strike, 1, 0.0)

    @pytest.mark.parametrize("mu, var, strike, tau, rate", [
        (0.5, 0.1, 2.0, 1100, math.log(0.5)),     # the discount factor
        (709.48, 1.1e-7, 1.34e308, 15, -0.0198),  # the discounted strike
        (800.0, 0.1, 1.0, 1, 0.0),                # the growth leg
        (800.0, 0.0, 1.0, 1, 0.0),                # the forward, zero variance
        (709.7, 0.0, 1.0, 10, -0.01),             # its discounted value
        (709.71, 0.0, 1.5e308, 10, -0.02),        # the strike alone
    ])
    def test_prices_beyond_the_float_range_fail_validation(self, mu, var, strike,
                                                           tau, rate):
        # these once raised OverflowError, returned a call of -inf or, in the
        # last case, a finite call beside a discounted strike (the debt's
        # nominal leg) of inf
        with pytest.raises(DataValidationError,
                           match=f"^maturity {tau} at rate .* beyond the float range$"):
            price_options(mu, var, strike, tau, rate)

    def test_matches_lognormal_monte_carlo(self):
        mu, sd, strike, rate = 0.0, 0.3, 1.0, 0.05
        rng = np.random.default_rng(8)
        draws = np.exp(mu + sd * rng.standard_normal(1_000_000))
        disc = math.exp(-rate)
        call_mc = disc * np.maximum(draws - strike, 0.0)
        put_mc = disc * np.maximum(strike - draws, 0.0)
        call, put = price_options(mu, sd * sd, strike, 1, rate)
        assert abs(call - call_mc.mean()) < 3 * call_mc.std() / 1000
        assert abs(put - put_mc.mean()) < 3 * put_mc.std() / 1000

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.integers(min_value=1, max_value=240),
    )
    def test_parity_and_monotonicity(self, mu, var, log_moneyness, tau):
        # strike drawn around the forward exp(mu + var/2), parity checked
        # relative to the discounted forward
        rate = 0.01
        strike = math.exp(mu + var / 2 + log_moneyness)
        call, put = price_options(mu, var, strike, tau, rate)
        forward = math.exp(mu + var / 2 - tau * rate)
        parity = call - put - (forward - strike * math.exp(-tau * rate))
        assert abs(parity) <= 1e-12 * forward
        call_up, _ = price_options(mu, var, strike * 1.01, tau, rate)
        if call > 1e-12:  # strictly decreasing wherever not underflowed
            assert call_up < call
        else:
            assert call_up <= call
        assert call >= 0 and put >= 0


class TestPrivatePricing:
    def test_degenerate_posterior_equals_public(self, params):
        ctx = pricing_fixture(params)
        m_t, _ = ctx.posterior("risk_neutral")
        mu_pub, var_pub = ctx.asset_moments("risk_neutral", m_t)
        mu_priv, var_priv = with_posterior(ctx, m_t, np.zeros((2, 2))).asset_moments(
            "risk_neutral"
        )
        assert mu_priv == pytest.approx(mu_pub, abs=1e-14)
        assert var_priv == pytest.approx(var_pub, abs=1e-14)
        strike = math.exp(mu_pub)
        np.testing.assert_allclose(
            price_options(mu_priv, var_priv, strike, ctx.tau, params.rate_log),
            price_options(mu_pub, var_pub, strike, ctx.tau, params.rate_log),
            atol=1e-14,
        )

    def test_call_nondecreasing_in_posterior_scale(self, params):
        ctx = pricing_fixture(params)
        m_t, cov = ctx.posterior("risk_neutral")
        mu0, _ = ctx.asset_moments("risk_neutral", m_t)
        strike = math.exp(mu0)
        prices = [with_posterior(ctx, m_t, scale * cov).price(strike)[0]
                  for scale in (0.0, 0.5, 1.0, 2.0)]
        assert all(b >= a - 1e-14 for a, b in zip(prices, prices[1:]))

    def test_nested_monte_carlo_reproduces_private_call(self, params):
        ctx = pricing_fixture(params)
        mu, var = ctx.asset_moments("risk_neutral")
        strike = math.exp(mu + 0.2 * math.sqrt(var))
        call, put = ctx.price(strike)
        m_rn, cov_rn = ctx.posterior("risk_neutral")
        panel = simulate_panel(
            params, ctx.schedule,
            SimConfig(200_000, ctx.tau, seed=77, measure="risk_neutral"),
            ctx.log_books[ctx.origin], start=ctx.origin,
            init_mean=m_rn, init_cov=cov_rn,
        )
        (call_mc, call_se), (put_mc, put_se) = mc_option_price_reference(
            _linearized_log_asset(panel.log_values[:, -1], *ctx.tangent),
            strike, ctx.tau, params.rate_log,
        )
        assert abs(call - call_mc) < 3 * call_se
        assert abs(put - put_mc) < 3 * put_se


class TestEquityDebt:
    def test_riskless_debt_limit(self):
        equity, debt = equity_debt_values(5.0, 0.0, 100.0, 4, 0.01)
        assert equity == 5.0
        assert debt == pytest.approx(100.0 * math.exp(-0.04))

    def test_zero_call_means_zero_equity(self):
        equity, _ = equity_debt_values(0.0, 2.0, 100.0, 4, 0.01)
        assert equity == 0.0

    def test_balance_sheet_identity(self, params):
        ctx = pricing_fixture(params)
        mu, var = ctx.asset_moments("risk_neutral")
        strike = math.exp(mu)
        call, put = ctx.price(strike)
        equity, debt = equity_debt_values(
            call, put, strike, ctx.tau, params.rate_log
        )
        total = math.exp(mu + var / 2 - ctx.tau * params.rate_log)
        assert equity + debt == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("strike, tau, rate", [
        (2.0, 1100, math.log(0.5)),      # the discount factor
        (1.34e308, 15, -0.0198),         # the discounted nominal
    ])
    def test_nominal_beyond_the_float_range_fails_validation(self, strike, tau, rate):
        # these once raised OverflowError and returned a debt of inf
        with pytest.raises(DataValidationError,
                           match=f"^maturity {tau} at rate .* beyond the float range$"):
            equity_debt_values(1.0, 1.0, strike, tau, rate)


class TestThresholdCalibration:
    def test_unattainable_target_raises(self):
        with pytest.raises(NoSolutionError):
            solve_threshold(10.0, 0.0, 0.04, 2, 0.01)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(DataValidationError):
            solve_threshold(0.0, 0.0, 0.04, 2, 0.01)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_rejects_nonfinite_target(self, target):
        with pytest.raises(DataValidationError):
            solve_threshold(target, 0.0, 0.04, 2, 0.01)

    def test_target_below_the_call_resolution_has_no_solution(self):
        # the moments of a calibration after an in-run fit on a long panel:
        # the bracket's upper end, ln L ≈ 1423, lies beyond the float range
        # (exp once raised OverflowError there). The bracket closes at
        # ln L ≈ 555, where the strike leg has underflowed and the call
        # reads 4.2e-96, 1e67 times the target of 5.6e-163: far beyond the
        # 32ε(1 + |ln L|) of the larger leg that rounding explains
        target, mu, var, tau, rate = (5.590730571437984e-163, 524.5651559553241,
                                      0.5904834415732209, 4, 0.01004933585300144)
        with pytest.raises(NoSolutionError, match="below the call's resolution"):
            solve_threshold(target, mu, var, tau, rate)

    def test_deep_normal_tail_target_has_no_solution(self):
        # both legs finite, but deep in the normal tail: d₂ ≈ −30, so Φ
        # amplifies the rounding of d by about |d|, and the bracket closes
        # on a miss of 1.8e-6 relative, 7.5 times 32ε(1 + |ln L|) of the
        # larger leg; the target is 1e-204 of the strike-free call
        target, mu, var, tau, rate = (5.3782666401585505e-205, -1.695574080463068,
                                      5.8896554236246724e-12, 65, -0.013341020983144762)
        with pytest.raises(NoSolutionError, match="below the call's resolution"):
            solve_threshold(target, mu, var, tau, rate)

    @pytest.mark.parametrize("target, mu, var, tau, rate", [
        (1.0, 800.0, 1.0, 1, 0.01),           # strike-free call beyond floats
        (2.8e153, 713.07, 9.3e-9, 56, 0.067),  # the parity bound beyond floats
        (1e-300, 700.0, 1.0, 4, 0.01),        # the bracket closes at the limit
        (2.5568577870266976e279, 709.4817801334463, 1.1096611408248403e-7, 15,
         -0.019847811163264836),              # the discounted strike beyond
    ])
    def test_root_beyond_the_float_range_has_no_solution(self, target, mu, var,
                                                         tau, rate):
        with pytest.raises(NoSolutionError, match="beyond the float range"):
            solve_threshold(target, mu, var, tau, rate)

    def test_reprices_within_1e8_beyond_the_leg_bound(self):
        # a draw of test_reprices_to_the_call_resolution: the bracket closes
        # on a miss above 32ε(1 + |ln L|) of the larger leg but within 1e-8
        # of the target, which is a solution and must not raise
        var = 10.0**-5.8125
        target = 1e-12 * math.exp(var / 2)
        threshold = solve_threshold(target, 0.0, var, 1, 0.0)
        residual = abs(price_options(0.0, var, threshold, 1, 0.0)[0] - target)
        x, sd = math.log(threshold), math.sqrt(var)
        larger = max(math.exp(var / 2) * ndtr((var - x) / sd), math.exp(x) * ndtr(-x / sd))
        assert 32 * math.ulp(1.0) * (1 + abs(x)) * larger < residual <= 1e-8 * target

    def test_discount_factor_beyond_the_float_range_fails_validation(self):
        # a strike-free call in range, its discount factor e^762 not
        with pytest.raises(DataValidationError, match="^maturity 1100 at rate -0.5 "):
            solve_threshold(1e-30, -60.0, 0.1, 1100, math.log(0.5))

    def test_deterministic_limit_closed_form(self):
        mu, tau, rate = math.log(50.0), 3, 0.02
        target = 12.0
        threshold = solve_threshold(target, mu, 0.0, tau, rate)
        expected = math.exp(mu) - target * math.exp(tau * rate)
        assert threshold == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-6.0, max_value=0.0),
        st.integers(min_value=1, max_value=240),
        st.floats(min_value=-6.0, max_value=-1e-3),
        st.floats(min_value=1e-3, max_value=0.999),
    )
    def test_monotone_in_target_and_reprices(self, mu, log_var, tau, log_share, step):
        # targets from 1e-6 to 1 of the strike-free call at variances down to
        # 1e-6, where the call's strike elasticity −(L/C) ∂C/∂L runs into the
        # thousands: a stop on the strike alone misses the bound there
        rate, var, share = 0.01, 10.0**log_var, 10.0**log_share
        strike_free = math.exp(mu + var / 2 - tau * rate)
        low = share * strike_free
        high = (share + step * (1.0 - share)) * strike_free
        thr_low = solve_threshold(low, mu, var, tau, rate)
        thr_high = solve_threshold(high, mu, var, tau, rate)
        assert thr_high < thr_low
        for target, threshold in ((low, thr_low), (high, thr_high)):
            repriced = price_options(mu, var, threshold, tau, rate)[0]
            assert abs(repriced - target) <= 1e-8 * target

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-14.0, max_value=1.5),
        st.integers(min_value=1, max_value=240),
        st.floats(min_value=-12.0, max_value=-1e-3),
        st.floats(min_value=-0.02, max_value=0.05),
    )
    def test_reprices_to_the_call_resolution(self, mu, log_var, tau, log_share, rate):
        # at variances below ~1e-11 and targets far below the strike-free
        # call the call is the difference of two nearly equal legs, and no
        # strike reprices the target to 1e-8. Each leg's exponential carries
        # a relative rounding error of about ε times its argument, and
        # |ln L| ≈ |μ − τr̃| there, so a residual above 1e-8 is within
        # 32ε(1 + |ln L|) of the larger leg (at most 11.4 in 200 000 draws)
        var = 10.0**log_var
        target = 10.0**log_share * math.exp(mu + var / 2 - tau * rate)
        threshold = solve_threshold(target, mu, var, tau, rate)
        residual = abs(price_options(mu, var, threshold, tau, rate)[0] - target)
        if residual <= 1e-8 * target:
            return
        x, sd = math.log(threshold), math.sqrt(var)
        growth_leg = math.exp(mu - tau * rate + var / 2) * ndtr((mu + var - x) / sd)
        strike_leg = math.exp(x - tau * rate) * ndtr((mu - x) / sd)
        larger = max(growth_leg, strike_leg)
        assert residual <= 32 * math.ulp(1.0) * (1 + abs(x)) * larger

    def test_report_bundle_consistency(self, params):
        series, _, _ = synthetic_series(params, 10, seed=42, payout_level=0.08)
        ctx = build_pricing_context(
            params, series, 4, payout_future=np.log([0.08, 0.08])
        )
        mu, _ = ctx.asset_moments("risk_neutral")
        strike = math.exp(mu)
        call, put = ctx.price(strike)
        equity, debt = equity_debt_values(
            call, put, strike, ctx.tau, params.rate_log
        )
        assert call == equity
        assert debt == strike * math.exp(-ctx.tau * params.rate_log) - put
        threshold = ctx.calibrate_threshold()
        assert threshold > 0
        assert 0.0 <= ctx.default_prob(threshold) <= 1.0
        assert ctx.maturity - ctx.origin == ctx.tau

    def test_reprice_self_consistency(self, params):
        # modest payouts: heavy interim payouts can drain the discounted
        # asset below today's equity value, a genuine no-solution case
        series, _, _ = synthetic_series(params, 10, seed=42, payout_level=0.08)
        ctx = build_pricing_context(
            params, series, 4, payout_future=np.log([0.08, 0.08])
        )
        threshold = ctx.calibrate_threshold()
        repriced = ctx.price(threshold)[0]
        target = ctx.target_equity()
        assert abs(repriced - target) / target < 1e-8

    def test_payout_heavy_sample_has_no_solution(self, params):
        ctx = pricing_fixture(params)  # 25% payouts drain the asset
        with pytest.raises(NoSolutionError):
            ctx.calibrate_threshold()


class TestDefaultProbability:
    def test_median_threshold(self, params):
        ctx = pricing_fixture(params)
        mu, var = ctx.asset_moments("real")
        assert ctx.default_prob(math.exp(mu)) == pytest.approx(0.5, abs=1e-12)

    def test_extreme_thresholds(self, params):
        ctx = pricing_fixture(params)
        assert ctx.default_prob(1e-12) == pytest.approx(0.0, abs=1e-12)
        assert ctx.default_prob(1e12) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("threshold", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite_threshold(self, threshold):
        with pytest.raises(DataValidationError):
            default_probability(0.0, 0.04, threshold)

    def test_zero_variance_indicator(self):
        assert default_probability(0.0, 0.0, 1.5) == 1.0
        assert default_probability(1.0, 0.0, 1.5) == 0.0

    def test_public_equals_private_at_degenerate_posterior(self, params):
        ctx = pricing_fixture(params)
        m_t, _ = ctx.posterior("real")
        mu_pub, var_pub = ctx.asset_moments("real", m_t)
        mu_priv, var_priv = with_posterior(ctx, m_t, np.zeros((2, 2))).asset_moments(
            "real"
        )
        thr = math.exp(mu_pub - 0.5 * math.sqrt(var_pub))
        assert default_probability(mu_priv, var_priv, thr) == pytest.approx(
            default_probability(mu_pub, var_pub, thr), abs=1e-14
        )

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_monotone_in_threshold(self, factor):
        pd_lo = default_probability(0.0, 0.09, 0.9 * factor)
        pd_hi = default_probability(0.0, 0.09, 1.1 * factor)
        assert 0.0 <= pd_lo <= pd_hi <= 1.0
