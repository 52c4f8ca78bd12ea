"""Tests of the benchmark's own machinery (not of privcredit)."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import check_report  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(cost):
        clock.now += cost

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)
        clock.now += 0.5

    def outer():
        traced_middle()
        clock.now += 4.0
        traced_leaf(0.25)

    traced_leaf = tracer.wrap("x.leaf", leaf)
    traced_middle = tracer.wrap("x.middle", middle)
    tracer.op_id = 7
    tracer.wrap("x.outer", outer)()

    names = [s[0] for s in tracer.spans]
    assert names == ["x.outer", "x.middle", "x.leaf", "x.leaf", "x.leaf"]
    assert [s[2] for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert {s[1] for s in tracer.spans} == {7}
    durations = [s[4] - s[3] for s in tracer.spans]
    assert durations == [10.75, 6.5, 2.0, 3.0, 0.25]
    assert self_times(tracer.spans) == [4.0, 1.5, 2.0, 3.0, 0.25]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("x.boom", boom)()
    assert tracer.spans[0][4] - tracer.spans[0][3] == 1.0
    assert tracer._stack == []


def test_install_rebinds_every_consumer_and_restore_undoes_it():
    import privcredit.cli as cli
    import privcredit.em as em
    import privcredit.kalman as kalman
    import privcredit.pricing as pricing

    original = kalman.run_filter
    tracer = Tracer()
    tracer.install()
    try:
        assert kalman.run_filter is not original
        assert em.run_filter is kalman.run_filter
        assert pricing.run_filter is kalman.run_filter
        assert cli.run_filter is kalman.run_filter
        assert pricing.price_options.__wrapped__ is not None
    finally:
        tracer.restore()
    assert kalman.run_filter is original
    assert em.run_filter is original and cli.run_filter is original


def test_layer_metrics_report_every_per_layer_name():
    names = set(layer_metrics([], 1, 1.0, set())) | {"cli.import_s", "trace.overhead"}
    assert names == set(run.PER_LAYER_UNITS)


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in list(e2e) + list(layer):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(workload):
    first = workloads.build(workload, 5, 4)
    again = workloads.build(workload, 5, 4)
    other = workloads.build(workload, 6, 4)
    assert first == again
    assert first[0] != other[0]


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0], 90) == pytest.approx(1.9)


def test_tail_is_a_median_over_blocks_with_ten_beyond():
    steady = [float(i % 100) for i in range(300)]   # p90 of each block: 89.1
    assert run.tail_latency(steady, 90) == (pytest.approx(89.1), 3)
    burst = steady[:100] + [1000.0] * 100 + steady[200:]
    assert run.tail_latency(burst, 90) == (pytest.approx(89.1), 3)
    assert run.tail_latency([1.0, 2.0, 3.0], 50) == (2.0, 1)


def test_checks_flag_a_monte_carlo_miss_and_a_low_fit():
    assert check_report("price", {
        "private": {"call": 1.0, "put": 0.5, "equity_value": 1.0, "debt_value": 2.0},
        "mc_check": {"call_z": 0.3, "put_z": float("inf")}}) != []
    fit = {"estimation": {"iterations": 2}}
    assert check_report("estimate", dict(fit, loglik=1.0), reference=2.0) != []
    assert check_report("estimate", dict(fit, loglik=2.0), reference=2.0) == []
    # em_fit accepts a relative decrease of 1e-8 per iteration
    assert check_report("estimate", dict(fit, loglik=1e4 - 1e-4), reference=1e4) == []
    assert check_report("estimate", dict(fit, loglik=1e4 - 3e-4), reference=1e4) != []
