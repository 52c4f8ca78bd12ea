import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcredit.cli import _feasibility
from privcredit.errors import DataValidationError, InfeasibleLinearizationError
from privcredit.model import (
    ModelParams,
    LinearizationSchedule,
    ObservedSeries,
    asset_linearization,
    asset_tangent,
    build_linearization_schedule,
    derive_series,
    linearized_log_asset,
    real_intercepts,
    risk_neutral_intercepts,
)
from privcredit.simulate import SimConfig, simulate_panel

from conftest import base_params, synthetic_series
from reference import mean_log_book_path_reference, params_validation_error


class TestDeriveSeries:
    def test_identity_case(self):
        series = derive_series([(1, 1), (1, 1)], [(1, 1)])
        np.testing.assert_array_equal(series.growth, [[0.0, 0.0]])
        np.testing.assert_array_equal(series.payout_ratio, [[0.0, 0.0]])

    def test_hand_arithmetic(self):
        e = np.e
        series = derive_series([(1, 2), (e, 2 * e)], [(1, 2)])
        np.testing.assert_allclose(series.growth, [[1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(series.payout_ratio, [[0.0, 0.0]], atol=1e-15)
        # payout double the opening book shows up as ln 2
        series = derive_series([(1, 1), (e, e)], [(1, 2)])
        np.testing.assert_allclose(series.growth, [[1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(
            series.payout_ratio, [[0.0, np.log(2)]], atol=1e-15
        )

    def test_rejects_nonpositive_naming_cell(self):
        with pytest.raises(DataValidationError, match="row 1, liability"):
            derive_series([(1, 1), (1, -2)], [(1, 1)])
        with pytest.raises(DataValidationError, match="row 1, equity"):
            derive_series([(1, 1), (1, 1)], [(0, 1)])

    def test_error_prints_the_plain_float(self):
        with pytest.raises(DataValidationError) as books:
            derive_series([(1, 1), (np.inf, 1)], [(1, 1)])
        assert str(books.value) == ("book value at row 1, equity column must be "
                                    "strictly positive and finite (got inf)")
        with pytest.raises(DataValidationError) as payouts:
            derive_series([(1, 1), (1, 1)], [(1, -1)])
        assert str(payouts.value) == ("payout at row 1, liability column must be "
                                      "strictly positive and finite (got -1.0)")

    @pytest.mark.parametrize("books0", [(np.inf, 1.0), (1.0, np.nan)])
    def test_observed_series_rejects_nonfinite_books0(self, books0):
        with pytest.raises(DataValidationError, match="books0 must be"):
            ObservedSeries(books0, np.zeros((1, 2)), np.zeros((1, 2)))

    def test_round_trip_on_synthetic_series(self):
        params = base_params()
        series, _, _ = synthetic_series(params, 8, seed=101)
        # independent reconstruction: exp of cumulative growth on B0
        books = np.exp(series.log_books())
        payouts = np.exp(series.payout_ratio) * books[:-1]
        rebuilt = derive_series(books, payouts)
        np.testing.assert_allclose(rebuilt.growth, series.growth, atol=1e-12)
        np.testing.assert_allclose(
            rebuilt.payout_ratio, series.payout_ratio, atol=1e-12
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataValidationError):
            derive_series([(1, 1)], [])
        with pytest.raises(DataValidationError):
            derive_series([(1, 1), (1, 1)], [(1, 1), (1, 1)])


class TestMeanLogMultiplier:
    def test_matches_monte_carlo(self, params):
        # the unconditional mean of the log multiplier is μ₀ + tφ
        _, schedule, _ = synthetic_series(params, 6, seed=7)
        panel = simulate_panel(
            params, schedule, SimConfig(100_000, 6, seed=42), np.array([1.5, 1.8])
        )
        for t in (2, 6):
            sample = panel.multipliers[:, t]
            se = sample.std(axis=0) / np.sqrt(sample.shape[0])
            np.testing.assert_array_less(
                np.abs(sample.mean(axis=0) - (params.init_mean + t * params.drift)),
                3 * se,
            )


class TestLinearizationSchedule:
    def _schedule_for_gap(self, gap):
        """Build a 1-period schedule with an exact, chosen payout gap."""
        params = base_params(
            init_mean=np.zeros(2), drift=np.zeros(2), req_return=np.zeros(2)
        )
        ratio = np.asarray(gap, dtype=float).reshape(1, 2)
        return params, build_linearization_schedule(params, ratio, 1)

    def test_symmetric_closed_form(self):
        _, sched = self._schedule_for_gap([-np.log(2), -np.log(2)])
        np.testing.assert_allclose(sched.gain[1], [2.0, 2.0], atol=1e-14)
        center = sched.gap[1] + np.log(sched.gain[1])
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(
            sched.shift[1], [2 * np.log(2), 2 * np.log(2)], atol=1e-14
        )

    def test_vanishing_payout_limit(self):
        _, sched = self._schedule_for_gap([-20.0, -20.0])
        np.testing.assert_allclose(sched.gain[1], [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(sched.shift[1], [0.0, 0.0], atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-8.0, max_value=-0.05),
        st.floats(min_value=-8.0, max_value=-0.05),
    )
    def test_shift_identity(self, gap_e, gap_l):
        _, sched = self._schedule_for_gap([gap_e, gap_l])
        g, h = sched.gain[1], sched.shift[1]
        mu = sched.gap[1] + np.log(g)
        np.testing.assert_allclose(h, g * (np.log(g) - mu) + mu, atol=1e-12)
        assert (g > 1).all()

    def test_infeasible_raises_with_location(self, params):
        ratio = np.log(0.25) * np.ones((4, 2))
        ratio[2, 1] = params.req_return[1] + params.init_mean[1] + 0.5
        with pytest.raises(InfeasibleLinearizationError) as err:
            build_linearization_schedule(params, ratio, 4)
        assert err.value.period == 3
        assert err.value.component == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_ratio_raises_validation(self, params, value):
        ratio = np.log(0.25) * np.ones((4, 2))
        ratio[2, 0] = value
        with pytest.raises(DataValidationError, match="payout_ratio must be finite"):
            build_linearization_schedule(params, ratio, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=-1e-9, max_value=1e-9),
        st.integers(min_value=0, max_value=11),
        st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=12,
                 max_size=12),
    )
    def test_feasibility_near_unit_exp_gap(self, horizon, delta, at, below):
        # the largest exp(gap) sits within 1e-9 of one; the others lie below
        params = base_params()
        periods = np.arange(1, horizon + 1)
        mean_path = params.init_mean + (periods - 1)[:, None] * params.drift
        target = np.log1p(delta) - np.array(below[: 2 * horizon]).reshape(-1, 2)
        target.flat[at % (2 * horizon)] = np.log1p(delta)
        ratio = target + params.req_return + mean_path
        exp_gap = np.exp(ratio - params.req_return - mean_path)
        assert abs(exp_gap.max() - 1.0) < 1e-9 + 1e-15
        if (exp_gap >= 1.0).any():
            with pytest.raises(InfeasibleLinearizationError):
                build_linearization_schedule(params, ratio, horizon)
            return
        sched = build_linearization_schedule(params, ratio, horizon)
        gain = sched.gain[1:]
        assert np.isfinite(gain).all() and (gain > 1.0).all()
        margin = _feasibility(sched)["max_exp_gap_per_period"]
        np.testing.assert_array_equal(margin, np.exp(sched.gap[1:]).max(axis=1))
        np.testing.assert_array_equal(margin, exp_gap.max(axis=1))

    def test_holds_only_the_per_period_arrays(self, params, rng):
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(5, 2))
        sched = build_linearization_schedule(params, ratio, 5)
        names = [f.name for f in dataclasses.fields(LinearizationSchedule)]
        assert names == ["gap", "gain", "shift", "payout_ratio"]
        for name in names:
            array = getattr(sched, name)
            assert array.shape == (6, 2) and np.isnan(array[0]).all()
            assert np.isfinite(array[1:]).all()


class TestAssetLinearization:
    def test_zero_center(self):
        g, w, h = asset_linearization(0.0)
        assert g == 2.0 and w == 0.5
        np.testing.assert_allclose(h, 2 * np.log(2), atol=1e-15)

    def test_exact_at_zero_center(self):
        _, w, h = asset_linearization(0.0)
        x = 0.7
        approx = linearized_log_asset(np.array([x, x]), w, h)
        np.testing.assert_allclose(approx, x + np.log(2), atol=1e-15)

    def test_one_sided_limit(self):
        g, w, h = asset_linearization(-30.0)
        assert abs(w - 1.0) < 1e-12
        assert abs(h) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_exact_at_expansion_point(self, mu_a, x):
        _, w, h = asset_linearization(mu_a)
        log_values = np.array([x, x - mu_a])  # equity minus liability = mu_a
        approx = linearized_log_asset(log_values, w, h)
        exact = np.logaddexp(x, x - mu_a)
        np.testing.assert_allclose(approx, exact, atol=1e-12)

    @pytest.mark.parametrize("mu_a", [709.9, 710.0, 800.0, 1e4])
    def test_finite_and_exact_where_exp_overflows(self, mu_a):
        # exp(mu_a) overflows past about 709.78; the tangent stays finite and
        # exact at its center without a floating-point warning
        xs = (-1.0, 0.3, 2.0)
        with np.errstate(all="raise"):
            _, w, h = asset_linearization(mu_a)
            assert np.isfinite([w, h, w * h]).all()
            approx = [linearized_log_asset(np.array([x, x - mu_a]), w, h) for x in xs]
        exact = [np.logaddexp(x, x - mu_a) for x in xs]  # underflows inside
        np.testing.assert_allclose(approx, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mu_a", [20.0, 40.0, 700.0])
    def test_shift_does_not_cancel_above_the_center(self, mu_a):
        # h_a − μ_a = g_a(ln g_a − μ_a), whose difference cancels for a
        # large positive center (it read 0.0 at 40 and 700, 0.99999971 at
        # 20); mpmath holds e^{−μ_a} beside μ_a at 400 digits
        _, _, h = asset_linearization(mu_a)
        with mpmath.workdps(400):
            g = 1 + mpmath.exp(mu_a)
            exact = float(g * (mpmath.log(g) - mu_a))
        assert h - mu_a == pytest.approx(exact, rel=1e-14, abs=0)


class TestAssetTangent:
    @staticmethod
    def _center(w_a):
        """The center a tangent weight w_a = 1 / (1 + exp(center)) was taken at."""
        return math.log(1.0 / w_a - 1.0)

    def test_symmetric_zero(self, params):
        p = params.replace(init_mean=np.zeros(2), drift=np.zeros(2))
        w, h = asset_tangent(p, 4, np.array([1.3, 1.3]))
        assert w == 0.5
        assert h == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_hand_arithmetic(self, params):
        p = params.replace(init_mean=np.array([0.2, 0.1]), drift=np.array([0.01, 0.03]))
        # (0.2 + 5·0.01) − (0.1 + 5·0.03) + 0.3 − 0 = 0.3
        w, h = asset_tangent(p, 5, np.array([0.3, 0.0]))
        _, w_ref, h_ref = asset_linearization(0.3)
        assert w == pytest.approx(w_ref, abs=1e-15)
        assert h == pytest.approx(h_ref, abs=1e-14)

    def test_matches_monte_carlo(self, params):
        lb0 = np.array([1.5, 1.8])
        _, schedule, _ = synthetic_series(params, 6, seed=3)
        panel = simulate_panel(
            params, schedule, SimConfig(100_000, 6, seed=11), lb0
        )
        t = 6
        gap = panel.log_values[:, t, 0] - panel.log_values[:, t, 1]
        se = gap.std() / np.sqrt(gap.shape[0])
        mean_books = mean_log_book_path_reference(params, schedule, lb0)
        w, _ = asset_tangent(params, t, mean_books[t])
        assert abs(gap.mean() - self._center(w)) < 3 * se

    def test_internal_identities(self, params, rng):
        for t in range(7):
            w, h = asset_tangent(params, t, 1.5 + rng.normal(size=2))
            g, mu = 1.0 / w, self._center(w)
            assert h == pytest.approx(g * (math.log(g) - mu) + mu, abs=1e-11)


class TestIntercepts:
    def test_real_definition(self, params, rng):
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(4, 2))
        sched = build_linearization_schedule(params, ratio, 4)
        c = real_intercepts(params, sched)
        g = sched.gain[1:]
        expected = g * params.req_return - (g - 1) * ratio - sched.shift[1:]
        np.testing.assert_allclose(c[1:], expected, atol=1e-14)

    def test_risk_neutral_gap(self, params, rng):
        ratio = np.log(0.3) + 0.05 * rng.normal(size=(4, 2))
        sched = build_linearization_schedule(params, ratio, 4)
        diff = risk_neutral_intercepts(params, sched) - real_intercepts(params, sched)
        g = sched.gain[1:]
        expected = g * (params.rate_log - params.req_return) - 0.5 * np.diag(
            params.meas_cov
        ) / g
        np.testing.assert_allclose(diff[1:], expected, atol=1e-14)


# the smaller eigenvalue of a drawn covariance: clear of the −1e-10 PSD
# bound by at least 1 % of it (rounding moves it by ~1e-15), on either side,
# at zero, or anywhere in a wide range
_SMALL_EIGENVALUE = st.one_of(
    st.floats(0.01, 0.99).map(lambda d: -1e-10 * (1.0 + d)),
    st.floats(-0.99, -0.01).map(lambda d: -1e-10 * (1.0 + d)),
    st.just(0.0),
    st.floats(-1e-14, 1e-14),
    st.floats(-1.0, 5.0),
)


@st.composite
def covariance_inputs(draw):
    """A 2×2 input: a rotated diag(λ₁, λ₂) with λ₂ near the PSD bound, its
    lower off-diagonal moved around the allclose tolerance, and possibly
    NaN or ±inf entries."""
    theta = draw(st.floats(0.0, math.pi))
    lam1, lam2 = draw(st.floats(0.0, 10.0)), draw(_SMALL_EIGENVALUE)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    m = rot @ np.diag([lam1, lam2]) @ rot.T
    m[1, 0] = m[0, 1]
    tol = 1e-12 + 1e-5 * abs(m[0, 1])
    shift = draw(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3]))
    m[1, 0] += shift * tol * draw(st.sampled_from([1.0, -1.0]))
    for i, j, value in draw(st.lists(st.tuples(
            st.integers(0, 1), st.integers(0, 1),
            st.sampled_from([math.nan, math.inf, -math.inf])), max_size=2)):
        m[i, j] = value
    return m


class TestModelParamsValidation:
    @settings(max_examples=400, deadline=None)
    @given(cov=covariance_inputs(),
           slot=st.sampled_from(["init_cov", "meas_cov", "state_cov"]))
    def test_matches_linalg_reference(self, cov, slot):
        fields = dict(
            req_return=np.array([0.04, 0.03]), init_mean=np.array([0.25, 0.1]),
            drift=np.array([0.002, -0.001]), init_cov=0.02 * np.eye(2),
            meas_cov=0.0025 * np.eye(2), state_cov=0.0009 * np.eye(2),
            rate_log=0.01,
        )
        fields[slot] = cov
        expected = params_validation_error(fields)
        try:
            params = ModelParams(**fields)
        except DataValidationError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert np.array_equal(getattr(params, slot), 0.5 * (cov + cov.T))

    def test_leaves_the_callers_arrays_writable(self):
        vectors = {name: np.array([0.04, 0.03])
                   for name in ("req_return", "init_mean", "drift")}
        params = base_params(**vectors)
        for name, x in vectors.items():
            assert x.flags.writeable, name
            assert not getattr(params, name).flags.writeable
            x[0] = 1.0
            assert getattr(params, name)[0] == 0.04
