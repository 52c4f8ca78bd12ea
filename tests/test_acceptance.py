"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is fixed
here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from privcredit.em import (
    complete_loglik_gradient,
    e_step,
    em_fit,
    expected_complete_loglik,
    m_step,
)
from privcredit.kalman import run_filter, smooth
from privcredit.model import (
    ModelParams,
    ObservedSeries,
    asset_linearization,
    asset_tangent,
    build_linearization_schedule,
    linearized_log_asset,
    real_intercepts,
    risk_neutral_intercepts,
)
from privcredit.pricing import (
    build_pricing_context,
    default_probability,
    horizon_moments,
    price_options,
)
from privcredit.simulate import SimConfig, simulate_panel

from conftest import base_params, maturity_moments, random_params, synthetic_series
from reference import (
    GaussianConditioningOracle,
    binned_error_curve,
    horizon_cov_reference,
    mc_default_probability_reference,
    mc_option_price_reference,
    mean_log_book_path_reference,
)


def _simulate_growth(params, schedule, periods, rng):
    """Direct exact draw of one observation path (no panel machinery)."""
    intercepts = real_intercepts(params, schedule)
    chol = np.linalg.cholesky
    m = params.init_mean + chol(params.init_cov) @ rng.standard_normal(2)
    lu, lv = chol(params.meas_cov), chol(params.state_cov)
    growth = np.zeros((periods, 2))
    for t in range(1, periods + 1):
        m_new = params.drift + m + lv @ rng.standard_normal(2)
        growth[t - 1] = (
            -m_new + schedule.gain[t] * m + intercepts[t]
            + lu @ rng.standard_normal(2)
        )
        m = m_new
    return growth


@pytest.fixture(scope="module")
def oracle_battery():
    """Fifty random instances at T = 6 with every oracle comparison."""
    rng = np.random.default_rng(8899)
    T, extra = 6, 2
    moment_err = 0.0
    loglik_err = 0.0
    start = time.monotonic()
    for _ in range(50):
        params = random_params(rng)
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(T + extra, 2))
        schedule = build_linearization_schedule(params, ratio, T + extra)
        growth = _simulate_growth(params, schedule, T, rng)
        intercepts = real_intercepts(params, schedule)
        filt = run_filter(params, schedule, growth, intercepts)
        smo = smooth(filt)
        fc = horizon_moments(params, schedule, filt, T + extra,
                             risk_neutral_intercepts(params, schedule))
        oracle = GaussianConditioningOracle(
            params, schedule, growth, intercepts, horizon=T + extra
        )
        err = 0.0
        for t in range(1, T + 1):
            fm = oracle.filtered_m(t)
            err = max(err, np.abs(filt.m_filt[t] - fm.mean).max(),
                      np.abs(filt.cov_m_filt[t] - fm.cov).max())
            pb = oracle.predicted_b(t)
            err = max(err, np.abs(filt.b_pred[t] - pb.mean).max(),
                      np.abs(filt.cov_b_pred[t] - pb.cov).max())
            pair = oracle.smoothed_m_pair(t)
            err = max(err, np.abs(smo.cross_m[t] - pair.cov[:2, 2:]).max())
        for t in range(T + 1):
            sm = oracle.smoothed_m(t)
            err = max(err, np.abs(smo.m_smooth[t] - sm.mean).max(),
                      np.abs(smo.cov_m_smooth[t] - sm.cov).max())
        for t in range(T + 1, T + extra + 1):
            fb = oracle.forecast_b(t)
            err = max(err, np.abs(fc.b_mean[t - T - 1] - fb.mean).max(),
                      np.abs(fc.cov_b[t - T - 1] - fb.cov).max())
        moment_err = max(moment_err, err)
        loglik_err = max(loglik_err, abs(filt.loglik - oracle.loglik()))
    return {
        "moment_err": moment_err,
        "loglik_err": loglik_err,
        "runtime": time.monotonic() - start,
    }


def test_criterion_01_filter_smoother_oracle_equivalence(oracle_battery):
    assert oracle_battery["moment_err"] < 1e-8
    assert oracle_battery["runtime"] < 10.0
    print(
        f"\nPASS criterion 1: filtered, predicted, smoothed and forecast "
        f"moments + lag-one cross-covariance vs oracle, 50 draws, max |err| = "
        f"{oracle_battery['moment_err']:.2e} < 1e-8 in "
        f"{oracle_battery['runtime']:.1f}s"
    )


def test_criterion_02_likelihood_identity(oracle_battery):
    assert oracle_battery["loglik_err"] < 1e-8
    print(
        f"\nPASS criterion 2: prediction-error log-likelihood vs oracle joint "
        f"density, max |err| = {oracle_battery['loglik_err']:.2e} < 1e-8"
    )


def test_criterion_03_intercept_invariance():
    rng = np.random.default_rng(417)
    for _ in range(10):
        params = random_params(rng)
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(6, 2))
        schedule = build_linearization_schedule(params, ratio, 6)
        growth = _simulate_growth(params, schedule, 6, rng)
        real = run_filter(params, schedule, growth,
                          real_intercepts(params, schedule))
        rn = run_filter(params, schedule, growth,
                        risk_neutral_intercepts(params, schedule))
        for name in ("cov_m_filt", "cov_b_pred", "gain", "loading"):
            assert np.array_equal(getattr(real, name), getattr(rn, name))
    print(
        "\nPASS criterion 3: swapping real for risk-neutral intercepts leaves "
        "all gains and covariances bit-identical on 10 draws"
    )


def _pack(params):
    return np.concatenate([params.req_return, params.init_mean, params.drift])


def _unpack(params, x):
    return params.replace(req_return=x[:2], init_mean=x[2:4], drift=x[4:6])


def _fd_gradient(fun, x0, h=1e-6):
    out = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        out[i] = (fun(x0 + e) - fun(x0 - e)) / (2 * h)
    return out


def test_criterion_04_em_gradient_consistency():
    rng = np.random.default_rng(905)
    worst_rel = 0.0
    worst_stat = 0.0
    for k in range(20):
        params = random_params(rng)
        series, _, _ = synthetic_series(params, 6, seed=9000 + k)
        sums = e_step(params, series)
        grad = complete_loglik_gradient(sums)
        fd = _fd_gradient(
            lambda x: expected_complete_loglik(
                _unpack(params, x),
                e_step(_unpack(params, x), series,
                       filter_output=sums.filter_output),
            ),
            _pack(params),
        )
        rel = np.abs(grad - fd).max() / max(1.0, np.abs(grad).max())
        worst_rel = max(worst_rel, rel)

        new = m_step(sums)
        fd_frozen = _fd_gradient(
            lambda x: expected_complete_loglik(_unpack(new, x), sums),
            _pack(new),
        )
        worst_stat = max(worst_stat, np.abs(fd_frozen).max())
    assert worst_rel < 1e-5
    assert worst_stat < 1e-6
    print(
        f"\nPASS criterion 4: analytic gradient vs finite differences, worst "
        f"relative error {worst_rel:.2e} < 1e-5 on 20 instances; M-step "
        f"output zeroes the frozen-schedule gradient to {worst_stat:.2e} < 1e-6"
    )


def test_criterion_05_generalized_em_ascent():
    params = base_params()
    series, _, _ = synthetic_series(params, 120, seed=314, payout_level=0.3)
    from privcredit.em import default_initial_params

    start = default_initial_params(params.rate_log)
    _, trace = em_fit(series, params_init=start, max_iter=100, tol=0.0)
    assert trace.n_iterations == 100
    gaps = np.array(trace.lambda_after) - np.array(trace.lambda_before)
    assert gaps.min() > -1e-9
    print(
        f"\nPASS criterion 5: frozen-schedule objective ascent over 100 "
        f"iterations, worst gap {gaps.min():.2e} > -1e-9"
    )


def test_criterion_06_parameter_recovery():
    truth = ModelParams(
        req_return=np.array([0.05, 0.035]),
        init_mean=np.array([0.22, 0.09]),
        init_cov=np.zeros((2, 2)),
        drift=np.array([5e-4, -3e-4]),
        meas_cov=np.array([[0.0025, 0.0003], [0.0003, 0.0016]]),
        state_cov=np.array([[0.0009, -0.0001], [-0.0001, 0.0009]]),
        rate_log=0.012,
    )
    init = truth.replace(init_cov=1e-4 * np.eye(2))
    lb0 = np.array([1.5, 1.8])

    def one_fit(periods, seed, max_iter):
        rng = np.random.default_rng(seed)
        ratio = np.log(0.35) + 0.02 * rng.normal(size=(periods, 2))
        sched = build_linearization_schedule(truth, ratio, periods)
        panel = simulate_panel(truth, sched, SimConfig(1, periods, seed), lb0)
        series = ObservedSeries(np.exp(lb0), panel.growth[0], ratio)
        fitted, _ = em_fit(series, params_init=init, rate_log=truth.rate_log,
                           max_iter=max_iter, tol=1e-7)
        return np.concatenate([
            fitted.drift - truth.drift,
            fitted.init_mean - truth.init_mean,
            fitted.req_return - truth.req_return,
        ])

    start = time.monotonic()
    rmse = {}
    for periods, iters in ((100, 35), (400, 25), (1600, 12)):
        errors = np.array(
            [one_fit(periods, 1000 + seed, iters) for seed in range(20)]
        )
        rmse[periods] = float(np.sqrt((errors ** 2).mean()))
    elapsed = time.monotonic() - start
    assert rmse[100] > rmse[400] > rmse[1600]
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 6: pooled RMSE of (drift, initial mean, required "
        f"returns) strictly decreases {rmse[100]:.5f} > {rmse[400]:.5f} > "
        f"{rmse[1600]:.5f} over 20 seeds in {elapsed:.0f}s < 5 min"
    )


@pytest.fixture(scope="module")
def pricing_battery():
    """Closed-form vs Monte Carlo across a 3x3 (maturity, strike) grid."""
    params = base_params()
    series, _, _ = synthetic_series(params, 10, seed=42)
    start = time.monotonic()
    rows = []
    for i, maturity in enumerate((2, 4, 6)):
        ctx = build_pricing_context(
            params, series, maturity, payout_future=np.log([0.25, 0.25])
        )
        mu, var = ctx.asset_moments("risk_neutral")
        m_rn, cov_rn = ctx.posterior("risk_neutral")
        panel = simulate_panel(
            params, ctx.schedule,
            SimConfig(200_000, maturity, seed=555 + i, measure="risk_neutral"),
            ctx.log_books[ctx.origin], start=ctx.origin,
            init_mean=m_rn, init_cov=cov_rn,
        )
        for factor in (0.85, 1.0, 1.15):
            strike = factor * math.exp(mu)
            call, put = ctx.price(strike)
            (call_mc, call_se), (put_mc, put_se) = mc_option_price_reference(
                linearized_log_asset(panel.log_values[:, -1], *ctx.tangent),
                strike, ctx.tau, params.rate_log,
            )
            rows.append(
                dict(
                    maturity=maturity, strike=strike, mu=mu, var=var,
                    tau=ctx.tau, call=call, put=put,
                    call_z=(call - call_mc) / call_se,
                    put_z=(put - put_mc) / put_se,
                )
            )
    return {"rows": rows, "runtime": time.monotonic() - start,
            "params": params, "series": series}


def test_criterion_07_pricing_consistency(pricing_battery):
    worst = max(
        max(abs(r["call_z"]), abs(r["put_z"])) for r in pricing_battery["rows"]
    )
    assert worst <= 3.0
    assert pricing_battery["runtime"] < 60.0
    print(
        f"\nPASS criterion 7: closed-form call/put within 3 MC standard "
        f"errors on a 3x3 grid at 2e5 paths, worst |z| = {worst:.2f}, "
        f"{pricing_battery['runtime']:.0f}s < 1 min"
    )


def test_criterion_08_put_call_relation(pricing_battery):
    worst = 0.0
    for r in pricing_battery["rows"]:
        lhs = r["call"] - r["put"]
        rhs = math.exp(r["mu"] + r["var"] / 2 - r["tau"] * pricing_battery["params"].rate_log) \
            - r["strike"] * math.exp(-r["tau"] * pricing_battery["params"].rate_log)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    print(
        f"\nPASS criterion 8: put-call relation residual {worst:.2e} < 1e-10 "
        f"on all pricing instances"
    )


def test_criterion_09_default_probability_consistency(pricing_battery):
    params = pricing_battery["params"]
    series = pricing_battery["series"]
    worst = 0.0
    for i, maturity in enumerate((2, 4, 6)):
        ctx = build_pricing_context(
            params, series, maturity, payout_future=np.log([0.25, 0.25])
        )
        mu, var = ctx.asset_moments("real")
        sd = math.sqrt(var)
        m_real, cov_real = ctx.posterior("real")
        panel_priv = simulate_panel(
            params, ctx.schedule,
            SimConfig(200_000, maturity, seed=765 + i, measure="real"),
            ctx.log_books[ctx.origin], start=ctx.origin,
            init_mean=m_real, init_cov=cov_real,
        )
        m_pin = m_real + 0.05
        mu_pub, var_pub = ctx.asset_moments("real", m_pin)
        panel_pub = simulate_panel(
            params, ctx.schedule,
            SimConfig(200_000, maturity, seed=865 + i, measure="real"),
            ctx.log_books[ctx.origin], start=ctx.origin,
            init_mean=m_pin, init_cov=np.zeros((2, 2)),
        )
        for shift in (-0.4, 0.0, 0.35):
            threshold = math.exp(mu + shift * sd)
            pd_closed = ctx.default_prob(threshold)
            pd_mc, pd_se = mc_default_probability_reference(
                linearized_log_asset(panel_priv.log_values[:, -1], *ctx.tangent),
                threshold,
            )
            worst = max(worst, abs(pd_closed - pd_mc) / pd_se)
            threshold_pub = math.exp(mu_pub + shift * math.sqrt(var_pub))
            pd_pub = default_probability(mu_pub, var_pub, threshold_pub)
            pd_pub_mc, pd_pub_se = mc_default_probability_reference(
                linearized_log_asset(panel_pub.log_values[:, -1], *ctx.tangent),
                threshold_pub,
            )
            worst = max(worst, abs(pd_pub - pd_pub_mc) / pd_pub_se)
    assert worst <= 3.0
    print(
        f"\nPASS criterion 9: public and private default probabilities within "
        f"3 binomial standard errors at 2e5 paths, worst |z| = {worst:.2f}"
    )


def test_criterion_10_threshold_calibration_self_consistency():
    params = base_params()
    series, _, _ = synthetic_series(params, 10, seed=42, payout_level=0.08)
    worst = 0.0
    for maturity in (2, 4, 6):
        ctx = build_pricing_context(
            params, series, maturity, payout_future=np.log([0.08, 0.08])
        )
        threshold = ctx.calibrate_threshold()
        target = ctx.target_equity()
        repriced = ctx.price(threshold)[0]
        worst = max(worst, abs(repriced - target) / target)
    assert worst < 1e-8
    print(
        f"\nPASS criterion 10: repricing at the calibrated threshold "
        f"reproduces the target equity to {worst:.2e} < 1e-8 relative"
    )


def test_criterion_11_one_step_and_reference_covariance():
    rng = np.random.default_rng(4242)
    worst_ref = 0.0
    for _ in range(10):
        params = random_params(rng)
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(6, 2))
        schedule = build_linearization_schedule(params, ratio, 6)
        for t in range(0, 5):
            mom = maturity_moments(params, schedule, t, t + 1)
            assert np.array_equal(mom.alpha, np.diag(schedule.gain[t + 1]))
            assert np.array_equal(mom.cov, params.meas_cov)
        for t, T in ((0, 2), (0, 3), (1, 4), (2, 5), (3, 6)):
            direct = maturity_moments(params, schedule, t, T).cov
            reference = horizon_cov_reference(params, schedule, t, T)
            worst_ref = max(worst_ref, np.abs(direct - reference).max())
    assert worst_ref < 1e-10
    print(
        f"\nPASS criterion 11: one-step moments exact; propagation-matrix "
        f"covariance assembly agrees to {worst_ref:.2e} < 1e-10 for horizons "
        f"up to 3"
    )


def test_criterion_12_linearization_exactness_and_scaling():
    # exactness at the expansion point
    worst = 0.0
    for mu_a in (-3.0, -0.7, 0.0, 0.4, 2.5):
        _, w, h = asset_linearization(mu_a)
        for x in (-1.0, 0.3, 2.0):
            approx = linearized_log_asset(np.array([x, x - mu_a]), w, h)
            worst = max(worst, abs(approx - np.logaddexp(x, x - mu_a)))
    assert worst <= 1e-12

    # quadratic scaling of the error in the deviation from the center
    params = base_params()
    ratio = np.log(0.25) * np.ones((4, 2))
    schedule = build_linearization_schedule(params, ratio, 4)
    lb0 = np.array([1.0, 1.2])
    books = mean_log_book_path_reference(params, schedule, lb0)
    panel = simulate_panel(params, schedule, SimConfig(400_000, 4, seed=5), lb0)
    centers, means = binned_error_curve(
        panel, 4, asset_tangent(params, 4, books[4]), n_bins=14
    )
    mask = (centers > 0) & (means > 0)
    slope = np.polyfit(np.log(centers[mask]), np.log(means[mask]), 1)[0]
    assert 1.8 <= slope <= 2.2
    print(
        f"\nPASS criterion 12: asset linearization exact at the center "
        f"({worst:.2e} <= 1e-12) with quadratic error scaling "
        f"(log-log slope {slope:.3f} in [1.8, 2.2])"
    )
