"""The per-iteration layers bit for bit against their whole-array forms.

The schedule, the filter and smoother column code, the moment sums, the
M-step, the line search's blend and the parameter change compute with few
numpy calls on stacked blocks or on Python floats; the forms in
``reference.py`` compute every entry on its own fresh (T,) or (T, 2) array.
Each field must hold the same float64 values, signed zeros included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcredit.em import _blend_params, _param_change, m_step, moment_sums
from privcredit.errors import PrivCreditError
from privcredit.kalman import run_filter, smooth
from privcredit.model import (
    ModelParams,
    ObservedSeries,
    build_linearization_schedule,
    real_intercepts,
    risk_neutral_intercepts,
)

from reference import (
    blend_reference,
    filter_columns_reference,
    m_step_reference,
    moment_sums_reference,
    param_change_reference,
    schedule_reference,
    smooth_columns_reference,
)
from test_kalman import _draw_cov


def assert_same_bits(actual, expected, name):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype, name
    assert np.array_equal(actual, expected, equal_nan=True), name
    # signed zeros alike; a NaN's sign bit follows operand order, and
    # reports write every NaN the same
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[numbers]),
                          np.signbit(expected[numbers])), name


def assert_fields_match(actual, expected, skip=()):
    for field in dataclasses.fields(expected):
        if field.name in skip:
            continue
        # floats too, so that a NaN log-likelihood matches a NaN
        assert_same_bits(getattr(actual, field.name),
                         getattr(expected, field.name), field.name)


def outcome(fn, *args):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except PrivCreditError as exc:
        return None, (type(exc), str(exc))


# degenerate draws warn alike on both sides: singular M-step updates, and
# overflow where zero noise lets the filtered mean run away
@pytest.mark.filterwarnings("ignore:.*covariance update is singular")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    periods=st.sampled_from([1, 2, 40, 100, 1600]),
    risk_neutral=st.booleans(),
    init_kind=st.sampled_from(["spd", "zero", "near_singular", "rank_one"]),
    state_kind=st.sampled_from(["spd", "zero", "near_singular", "rank_one"]),
    meas_kind=st.sampled_from(["spd", "zero", "near_singular", "rank_one"]),
)
def test_layers_match_whole_array_forms(seed, periods, risk_neutral, init_kind,
                                        state_kind, meas_kind):
    rng = np.random.default_rng(seed)
    p = ModelParams(
        req_return=np.array([0.04, 0.03]) + 0.01 * rng.normal(size=2),
        init_mean=0.2 * rng.normal(size=2),
        init_cov=_draw_cov(rng, init_kind, 0.1),
        drift=2e-4 * rng.normal(size=2),
        meas_cov=_draw_cov(rng, meas_kind, 0.05),
        state_cov=_draw_cov(rng, state_kind, 0.04),
        rate_log=0.01,
    )
    ratio = np.log(0.3) + 0.05 * rng.normal(size=(periods, 2))
    schedule, error = outcome(build_linearization_schedule, p, ratio, periods)
    expected, expected_error = outcome(schedule_reference, p, ratio, periods)
    assert error == expected_error
    if error:
        return
    assert_fields_match(schedule, expected)

    intercepts = (risk_neutral_intercepts if risk_neutral else real_intercepts)(
        p, schedule)
    growth = 0.05 * rng.normal(size=(periods, 2))
    filt, error = outcome(run_filter, p, schedule, growth, intercepts)
    expected, expected_error = outcome(
        filter_columns_reference, p, schedule, growth, intercepts)
    # the same first singular period, with the same determinant
    assert error == expected_error
    if error:
        return
    assert_fields_match(filt, expected)

    smoothed = smooth(filt)
    assert_fields_match(smoothed, smooth_columns_reference(filt))

    series = ObservedSeries(np.array([4.0, 6.0]), growth, ratio)
    sums = moment_sums(smoothed, series, schedule, p, filt)
    expected = moment_sums_reference(smoothed, series, schedule, p, filt)
    assert_fields_match(sums, expected,
                        skip=("params", "smoothed", "filter_output"))

    step, error = outcome(m_step, sums)
    expected, expected_error = outcome(m_step_reference, sums)
    assert error == expected_error
    if error:
        return
    assert_fields_match(step, expected)
    assert _param_change(p, step) == param_change_reference(p, step)
    for weight in (0.5, 0.125):
        blended, error = outcome(_blend_params, p, step, weight)
        expected, expected_error = outcome(blend_reference, p, step, weight)
        assert error == expected_error
        if error is None:
            assert_fields_match(blended, expected)
