import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import privcredit.simulate as sim
from privcredit.errors import DataValidationError
from privcredit.kalman import run_filter
from privcredit.model import (
    _linearized_log_asset,
    build_linearization_schedule,
    real_intercepts,
    risk_neutral_intercepts,
)
from privcredit.pricing import build_pricing_context
from privcredit.simulate import (
    _BLOCK_PATHS,
    _MAX_WORKERS,
    _SMALL_PATHS,
    _block_bounds,
    SimConfig,
    default_estimator,
    option_estimator,
    psd_cholesky,
    reduce_terminal,
    simulate_panel,
)

from conftest import base_params, random_params, synthetic_series
from reference import (
    GaussianConditioningOracle,
    binned_error_curve,
    mean_log_book_path_reference,
    mean_path_tangents,
)

LB0 = np.array([1.0, 1.2])


def toy_schedule(params, periods, payout=0.25):
    ratio = np.log(payout) * np.ones((periods, 2))
    return build_linearization_schedule(params, ratio, periods)


def linearized_panel(params, sched, panel):
    """Each period's log asset value of a panel started at period 0 from
    ``LB0``, linearized at the tangent centered on the mean book path."""
    tangents = mean_path_tangents(params, sched, LB0)
    return _linearized_log_asset(panel.log_values, *tangents)


def terminal_pairs(params, sched, cfg, log_books0, **kw):
    """Maturity log value pairs, an (n_paths, 2) array: the check's route
    (``reduce_terminal``, looked up on the module so that patches of it
    apply) with an estimator whose blocks copy their pairs and whose finish
    stacks them."""
    collect = (np.copy, lambda blocks: np.concatenate(blocks, axis=1).T)
    return sim.reduce_terminal(params, sched, cfg, log_books0, collect, **kw)


def over_blocks(estimator, pairs):
    """An estimator's value on (2, n) pairs cut at the ``_block_bounds`` of
    n, as a check reduces its blocks."""
    block, finish = estimator
    bounds = _block_bounds(pairs.shape[1])
    return finish([block(pairs[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def maturity_tangent(params, sched):
    """The asset tangent at the schedule's last period, mean-path centered."""
    return tuple(mean_path_tangents(params, sched, LB0)[:, -1])


def float_paths(params, sched, intercepts, start, m, books, shocks):
    """Multipliers, growth and log books of one path in Python floats, which
    round every product and sum on its own; ``shocks`` holds per period the
    scaled (r_v, r_u) float pairs, r_u None in a period without one."""
    drift = params.drift.tolist()
    mults, growth, log_books = [m], [], [books]
    for t, (rv, ru) in enumerate(shocks, start + 1):
        gain, c = sched.gain[t].tolist(), intercepts[t].tolist()
        m_new = [drift[k] + m[k] + rv[k] for k in range(2)]
        g = [-m_new[k] + gain[k] * m[k] + c[k] for k in range(2)]
        if ru is not None:
            g = [g[k] + ru[k] for k in range(2)]
        m, books = m_new, [books[k] + g[k] for k in range(2)]
        mults.append(m)
        growth.append(g)
        log_books.append(books)
    return mults, growth, log_books


def float_scaler(cov):
    """(e0, e1) ↦ L (e0, e1) in Python floats for the lower Cholesky factor
    L of cov."""
    (l11, _), (l21, l22) = psd_cholesky(cov).tolist()
    return lambda e0, e1: [l11 * e0, l21 * e0 + l22 * e1]


def float_scale(cov, e0, e1):
    """L (e0, e1) in Python floats for the lower Cholesky factor L of cov."""
    return float_scaler(cov)(e0, e1)


def check_stream(seed, j):
    """Block j's stream of a Monte Carlo check: SFC64 seeded by the j-th
    child that ``SeedSequence(seed).spawn`` gives."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed).spawn(j + 1)[j]))


def float_check_ends(params, sched, intercepts, start, m0, cov0, P, seed, bounds):
    """Maturity log value pairs of a Monte Carlo check in Python floats, the
    paths split at ``bounds``: block j draws from its check stream b start
    pairs, P state noise pairs and one measurement pair scaled by the
    factor of P Σ_u."""
    start_scale, state_scale = float_scaler(cov0), float_scaler(params.state_cov)
    summed_scale = float_scaler(P * params.meas_cov)
    ends = []
    for j, b in enumerate(np.diff(bounds).tolist()):
        rng = check_stream(seed, j)
        z0 = rng.standard_normal((2, b)).tolist()
        state = [rng.standard_normal((2, b)).tolist() for _ in range(P)]
        summed = rng.standard_normal((2, b)).tolist()
        for i in range(b):
            z = start_scale(z0[0][i], z0[1][i])
            shocks = [(state_scale(v[0][i], v[1][i]), None) for v in state]
            shocks[-1] = (shocks[-1][0], summed_scale(summed[0][i], summed[1][i]))
            mults, _, books = float_paths(params, sched, intercepts, start,
                                          [m0[0] + z[0], m0[1] + z[1]], LB0.tolist(), shocks)
            ends.append([mults[-1][k] + books[-1][k] for k in range(2)])
    return ends


def force_cores(monkeypatch, cores):
    """Make the simulators see ``cores`` CPUs."""
    monkeypatch.setattr(sim, "_cores", lambda: cores)


def trace_public_calls(monkeypatch):
    """Wrap every public function of the package as a layer tracer does and
    rebind it wherever a module holds it; returns the list that each call
    appends its (qualified name, calling thread) to."""
    modules = {name: module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "privcredit"}
    calls = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for module_name, module in modules.items():
        for key, obj in vars(module).items():
            if (inspect.isfunction(obj) and not key.startswith("_")
                    and obj.__module__ == module_name):
                wrappers[id(obj)] = (obj, traced(f"{module_name}.{key}", obj))
    for module in modules.values():
        for key, obj in list(vars(module).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                monkeypatch.setattr(module, key, wrappers[id(obj)][1])
    return calls


def run_simulator(name, params, sched, cfg):
    """``simulate_panel``, or ``reduce_terminal`` collecting the pairs,
    looked up on the module so that patches of it apply."""
    if name == "reduce_terminal":
        return terminal_pairs(params, sched, cfg, LB0)
    return getattr(sim, name)(params, sched, cfg, LB0)


class TestSimulatePanel:
    def test_deterministic_paths_are_identical(self):
        p = base_params(
            init_cov=np.zeros((2, 2)),
            meas_cov=np.zeros((2, 2)),
            state_cov=np.zeros((2, 2)),
        )
        sched = toy_schedule(p, 5)
        panel = simulate_panel(
            p, sched, SimConfig(50, 5, seed=1), np.array([1.0, 1.2])
        )
        assert np.ptp(panel.multipliers, axis=0).max() == 0.0
        for t in range(6):
            np.testing.assert_allclose(
                panel.multipliers[0, t], p.init_mean + t * p.drift, atol=1e-12
            )

    def test_panel_holds_paths_and_exact_asset_only(self, params):
        panel = simulate_panel(params, toy_schedule(params, 3), SimConfig(4, 3, seed=2), LB0)
        assert [f.name for f in dataclasses.fields(panel)] == [
            "multipliers", "growth", "log_books", "log_values", "log_asset_exact"]
        assert panel.log_asset_exact.shape == (4, 4)

    def test_seed_determinism_bit_identical(self, params):
        sched = toy_schedule(params, 4)
        cfg = SimConfig(100, 4, seed=99)
        a = simulate_panel(params, sched, cfg, np.array([1.0, 1.2]))
        b = simulate_panel(params, sched, cfg, np.array([1.0, 1.2]))
        assert np.array_equal(a.growth, b.growth)
        assert np.array_equal(a.multipliers, b.multipliers)
        c = simulate_panel(
            params, sched, SimConfig(100, 4, seed=100), np.array([1.0, 1.2])
        )
        assert not np.array_equal(a.growth, c.growth)

    def test_multiplier_mean_law_of_large_numbers(self, params):
        sched = toy_schedule(params, 6)
        panel = simulate_panel(
            params, sched, SimConfig(1_000_000, 6, seed=5), np.array([1.0, 1.2])
        )
        for t in (3, 6):
            sample = panel.multipliers[:, t]
            se = sample.std(axis=0) / np.sqrt(sample.shape[0])
            np.testing.assert_array_less(
                np.abs(sample.mean(axis=0) - (params.init_mean + t * params.drift)),
                3 * se,
            )

    def test_one_step_conditional_moments(self, params):
        # pinned start: simulated one-step moments equal the recursion's
        sched = toy_schedule(params, 1)
        m0 = np.array([0.3, 0.1])
        panel = simulate_panel(
            params, sched, SimConfig(400_000, 1, seed=9), np.array([1.0, 1.2]),
            init_mean=m0, init_cov=np.zeros((2, 2)),
        )
        c = real_intercepts(params, sched)[1]
        mean_b = -(params.drift + m0) + sched.gain[1] * m0 + c
        cov_b = params.state_cov + params.meas_cov
        growth = panel.growth[:, 0]
        se = growth.std(axis=0) / np.sqrt(growth.shape[0])
        np.testing.assert_array_less(np.abs(growth.mean(axis=0) - mean_b), 3 * se)
        sample_cov = np.cov(growth.T)
        n = growth.shape[0]
        for i in range(2):
            for j in range(2):
                se_cov = np.sqrt(
                    (cov_b[i, i] * cov_b[j, j] + cov_b[i, j] ** 2) / n
                )
                assert abs(sample_cov[i, j] - cov_b[i, j]) < 4 * se_cov


class TestSimConfig:
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range_fails_validation(self, seed):
        with pytest.raises(DataValidationError, match="seed"):
            SimConfig(10, 2, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_are_accepted(self, seed):
        assert SimConfig(10, 2, seed=seed).seed == seed

    @pytest.mark.parametrize("field", ["n_paths", "horizon", "seed"])
    @pytest.mark.parametrize("value", [4.0, 1.5, "4"])
    def test_non_integer_settings_fail_validation(self, field, value):
        kw = {"n_paths": 10, "horizon": 2, "seed": 1, field: value}
        with pytest.raises(DataValidationError, match=f"{field} must be an integer"):
            SimConfig(**kw)

    @pytest.mark.parametrize("field", ["n_paths", "horizon", "seed"])
    def test_numpy_integer_settings_become_ints(self, field):
        kw = {"n_paths": 10, "horizon": 2, "seed": 1}
        cfg = SimConfig(**{**kw, field: np.int64(kw[field])})
        assert type(getattr(cfg, field)) is int
        assert cfg == SimConfig(10, 2, seed=1)


class TestBlockLayout:
    @pytest.mark.parametrize("n", [1, 2, 3, 4096, 4097, 12_288, 12_289, 20_000,
                                   65_536, 65_537, 200_000, 3 * 2**14 + 5])
    def test_blocks_tile_the_paths_in_near_equal_shares(self, n):
        bounds = _block_bounds(n)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert (sizes >= 1).all() and sizes.max() <= 2**14
        assert sizes.max() - sizes.min() <= 1
        assert (len(sizes) == 1) == (n <= 2**12)
        if n > 3 * 2**12:
            assert len(sizes) % _MAX_WORKERS == 0

    @pytest.mark.parametrize("n, blocks", [(20_000, [5_000] * 4),
                                           (200_000, [12_500] * 16)])
    def test_mc_check_sizes_split_evenly(self, n, blocks):
        assert np.diff(_block_bounds(n)).tolist() == blocks

    def test_blocks_run_once_each_and_return_in_block_order(self, monkeypatch):
        # four workers switching often finish 64 blocks out of order; each
        # block runs exactly once and its result lands at its own index
        force_cores(monkeypatch, 64)
        interval = sys.getswitchinterval()
        calls = []

        def block(j):
            calls.append(j)
            time.sleep(0.001 * (j % 3))
            return [j]

        try:
            sys.setswitchinterval(1e-5)
            results = sim._run_blocks(block, 64)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(64))
        assert results == [[j] for j in range(64)]


class TestSimulateTerminal:
    @pytest.mark.parametrize("measure", ["real", "risk_neutral"])
    @pytest.mark.parametrize("n", [1, 3, _BLOCK_PATHS, _BLOCK_PATHS + 3,
                                   3 * _BLOCK_PATHS + 5])
    def test_terminal_values_equal_a_float_loop_on_the_check_stream(
        self, params, monkeypatch, n, measure
    ):
        # at horizon 1 each path draws a start, a state and a summed
        # measurement pair from its block's own check stream, across block
        # boundaries and thread counts; Python floats round each product and
        # sum on its own
        sched = toy_schedule(params, 6)
        start, m0, cov0, seed = 2, [0.3, 0.05], 0.5 * params.init_cov, 41
        cfg = SimConfig(n, 1, seed, measure=measure)
        intercepts = (real_intercepts if measure == "real"
                      else risk_neutral_intercepts)(params, sched)
        ends = float_check_ends(params, sched, intercepts, start, m0, cov0, 1, seed,
                                _block_bounds(n))
        for cores in (1, 64):
            force_cores(monkeypatch, cores)
            terminal = terminal_pairs(params, sched, cfg, LB0, start=start,
                                      init_mean=np.array(m0), init_cov=cov0)
            assert terminal.shape == (n, 2)
            assert terminal.tolist() == ends

    def test_noiseless_paths_equal_panel_across_blocks(self):
        zero = np.zeros((2, 2))
        p = base_params(init_cov=zero, meas_cov=zero, state_cov=zero)
        sched = toy_schedule(p, 5)
        cfg = SimConfig(_BLOCK_PATHS + 3, 5, seed=1)
        terminal = terminal_pairs(p, sched, cfg, LB0)
        panel = simulate_panel(p, sched, SimConfig(3, 5, seed=1), LB0)
        assert terminal.shape == (_BLOCK_PATHS + 3, 2)
        assert (terminal == panel.log_values[0, -1]).all()

    def test_consecutive_blocks_draw_different_normals(self, params):
        # four blocks of 4 096 paths from one seed: a block that drew its
        # neighbour's normals would repeat its neighbour's pairs
        sched = toy_schedule(params, 3)
        cfg = SimConfig(4 * _SMALL_PATHS, 3, seed=6)
        bounds = _block_bounds(cfg.n_paths)
        assert np.diff(bounds).tolist() == [_SMALL_PATHS] * 4
        pairs = terminal_pairs(params, sched, cfg, LB0)
        blocks = [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        for a, b in zip(blocks, blocks[1:]):
            assert np.intersect1d(a, b).size == 0

    def test_seed_determinism(self, params):
        sched = toy_schedule(params, 4)
        a = terminal_pairs(params, sched, SimConfig(100, 4, seed=99), LB0)
        b = terminal_pairs(params, sched, SimConfig(100, 4, seed=99), LB0)
        c = terminal_pairs(params, sched, SimConfig(100, 4, seed=100), LB0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("measure", ["real", "risk_neutral"])
    @pytest.mark.parametrize("maturity", [4, 6, 12])
    def test_moments_match_closed_form(self, params, maturity, measure):
        # from the origin posterior (m, P) the maturity log value pair is
        # Gaussian with mean alpha m + beta + ln B_t and covariance
        # cov + alpha P alphaᵀ, and its linearized value has the closed-form
        # private moments; 200 000 paths span sixteen blocks
        series, _, _ = synthetic_series(params, 10, seed=42)
        ctx = build_pricing_context(
            params, series, maturity, payout_future=np.log([0.25, 0.25])
        )
        mean, cov = ctx.posterior(measure)
        n = 200_000
        pair = terminal_pairs(
            params, ctx.schedule, SimConfig(n, ctx.tau, 2024, measure=measure),
            ctx.log_books[ctx.origin], start=ctx.origin, init_mean=mean, init_cov=cov,
        )
        alpha = ctx.moments.alpha
        pair_mean = alpha @ mean + ctx.moments.beta(measure) + ctx.log_books[ctx.origin]
        pair_cov = ctx.moments.cov + alpha @ cov @ alpha.T
        var_pair = np.diag(pair_cov)
        np.testing.assert_array_less(
            np.abs(pair.mean(axis=0) - pair_mean), 4 * np.sqrt(var_pair / n))
        se_cov = np.sqrt((np.outer(var_pair, var_pair) + pair_cov**2) / n)
        np.testing.assert_array_less(np.abs(np.cov(pair.T) - pair_cov), 4 * se_cov)
        sample = _linearized_log_asset(pair, *ctx.tangent)
        mu, var = ctx.asset_moments(measure)
        assert abs(sample.mean() - mu) < 4 * np.sqrt(var / n)
        assert abs(sample.var(ddof=1) - var) < 4 * var * np.sqrt(2 / (n - 1))

    def test_memory_is_bounded_by_one_block(self, params, monkeypatch):
        # a 200 000-path, 60-period panel would hold about 2 GB; the bound
        # holds on this machine's cores and with every worker in flight
        sched = toy_schedule(params, 60)
        cfg = SimConfig(200_000, 60, seed=3, measure="risk_neutral")
        estimator = option_estimator(maturity_tangent(params, sched), 1.0, 60,
                                     params.rate_log)
        for cores in (sim._cores(), _MAX_WORKERS):
            force_cores(monkeypatch, cores)
            tracemalloc.start()
            try:
                reduce_terminal(params, sched, cfg, LB0, estimator)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 32e6

    def test_result_does_not_depend_on_worker_count(self, params, monkeypatch):
        # four blocks, on one thread and then on four switching often; the
        # first block is small enough to be the single-block run of its
        # size and the same seed
        sched = toy_schedule(params, 3)
        cfg = SimConfig(3 * _SMALL_PATHS + 5, 3, seed=8, measure="risk_neutral")
        b = _block_bounds(cfg.n_paths)[1]
        assert b <= _SMALL_PATHS
        runs = []
        interval = sys.getswitchinterval()
        try:
            for cores, switch in ((1, interval), (64, 1e-5)):
                force_cores(monkeypatch, cores)
                sys.setswitchinterval(switch)
                runs.append(terminal_pairs(params, sched, cfg, LB0))
        finally:
            sys.setswitchinterval(interval)
        single = terminal_pairs(params, sched, dataclasses.replace(
            cfg, n_paths=b), LB0)
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0][:b], single)
        assert not np.array_equal(runs[0][b : 2 * b], single)

    @pytest.mark.parametrize("name", ["reduce_terminal", "simulate_panel"])
    def test_block_error_reaches_the_caller(self, params, monkeypatch, capfd, name):
        # the barrier holds each of the four workers to one block, so three
        # blocks fail off the calling thread
        sched = toy_schedule(params, 2)
        cfg = SimConfig(3 * _BLOCK_PATHS + 5, 2, seed=1)
        barrier = threading.Barrier(_MAX_WORKERS, timeout=30)
        periods = sim._periods

        def failing(*args):
            barrier.wait()
            if threading.current_thread() is not threading.main_thread():
                raise DataValidationError("block failed")
            return periods(*args)

        monkeypatch.setattr(sim, "_periods", failing)
        force_cores(monkeypatch, 64)
        threads = threading.active_count()
        with pytest.raises(DataValidationError, match="block failed"):
            run_simulator(name, params, sched, cfg)
        assert threading.active_count() == threads
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("name", ["reduce_terminal", "simulate_panel"])
    def test_block_workers_call_no_public_function(self, params, monkeypatch, name):
        # a layer tracer wraps each public function and keeps one span
        # stack, so only the calling thread may enter a public function
        calls = trace_public_calls(monkeypatch)
        force_cores(monkeypatch, 64)
        sched = toy_schedule(params, 3)
        cfg = SimConfig(3 * _BLOCK_PATHS + 5, 3, seed=4, measure="risk_neutral")
        run_simulator(name, params, sched, cfg)
        names = {traced_name for traced_name, _ in calls}
        assert {f"privcredit.simulate.{name}", "privcredit.simulate.psd_cholesky"} <= names
        assert all(thread is threading.main_thread() for _, thread in calls)


class TestNoiseFactor:
    def test_panel_does_not_depend_on_eigenvector_signs(self, params, monkeypatch):
        # LAPACK fixes neither eigenvector signs nor, for repeated
        # eigenvalues, the basis; a seed must give one panel regardless
        sched = toy_schedule(params, 6)
        cfg = SimConfig(40, 6, seed=5)
        lb0 = np.array([1.0, 1.2])
        ref = simulate_panel(params, sched, cfg, lb0)
        eigh = np.linalg.eigh

        def negated_eigh(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            return w, -v

        monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
        flipped = simulate_panel(params, sched, cfg, lb0)
        assert np.array_equal(flipped.multipliers, ref.multipliers)
        assert np.array_equal(flipped.growth, ref.growth)
        assert np.array_equal(flipped.log_asset_exact, ref.log_asset_exact)

    def test_panel_and_terminal_equal_a_float_loop(self, params, monkeypatch):
        # Python floats round each product and sum on its own, as no BLAS
        # kernel is bound to; five paths forced into blocks of 2, 2 and 1,
        # on threads. A panel block draws from jumped Philox per period a
        # state and a measurement pair; a terminal block draws from its
        # check stream P state pairs, then one measurement pair scaled by
        # the factor of P Σ_u
        sched = toy_schedule(params, 7)
        start, P, seed = 1, 5, 17
        m0, cov0 = [0.3, 0.05], 0.5 * params.init_cov
        intercepts = risk_neutral_intercepts(params, sched)
        bounds = [0, 2, 4, 5]
        paths = []
        for j, b in enumerate(np.diff(bounds).tolist()):
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(j))
            z0 = rng.standard_normal((2, b)).tolist()
            draws = [rng.standard_normal((2, 2, b)).tolist() for _ in range(P)]
            for i in range(b):
                z = float_scale(cov0, z0[0][i], z0[1][i])
                start_pair = [m0[0] + z[0], m0[1] + z[1]]
                shocks = [(float_scale(params.state_cov, v[0][i], v[1][i]),
                           float_scale(params.meas_cov, u[0][i], u[1][i]))
                          for v, u in draws]
                paths.append(float_paths(
                    params, sched, intercepts, start, start_pair, LB0.tolist(), shocks))
        ends = float_check_ends(params, sched, intercepts, start, m0, cov0, P, seed, bounds)

        monkeypatch.setattr(sim, "_block_bounds", lambda n: bounds)
        force_cores(monkeypatch, 64)
        cfg = SimConfig(5, P, seed, measure="risk_neutral")
        kw = dict(start=start, init_mean=m0, init_cov=cov0)
        panel = simulate_panel(params, sched, cfg, LB0, **kw)
        terminal = terminal_pairs(params, sched, cfg, LB0, **kw)
        for i, (mults, growth, books) in enumerate(paths):
            values = [[m[0] + b[0], m[1] + b[1]] for m, b in zip(mults, books)]
            assert panel.multipliers[i].tolist() == mults
            assert panel.growth[i].tolist() == growth
            assert panel.log_books[i].tolist() == books
            assert panel.log_values[i].tolist() == values
            assert terminal[i].tolist() == ends[i]

    @pytest.mark.parametrize(
        "cov",
        [
            [[0.0025, 0.0004], [0.0004, 0.0016]],
            [[0.04, -0.06], [-0.06, 0.09]],
            [[0.0, 0.0], [0.0, 0.01]],
            [[0.0, 0.0], [0.0, 0.0]],
        ],
        ids=["spd", "rank_one", "rank_one_zero_lead", "zero"],
    )
    def test_factor_reproduces_covariance(self, cov):
        cov = np.array(cov)
        factor = psd_cholesky(cov)
        assert factor[0, 1] == 0.0
        assert (np.diag(factor) >= 0.0).all()
        np.testing.assert_allclose(factor @ factor.T, cov, rtol=0, atol=1e-15)


# simulates from a schedule of literal arrays, so no vectorized exp or log1p
# builds its gains, and prints a digest of every array whose bytes the
# simulators promise; run in a fresh interpreter per environment
_DISPATCH_PROBE = """
import hashlib, json
import numpy as np
from privcredit.model import LinearizationSchedule, ModelParams
from privcredit.simulate import SimConfig, reduce_terminal, simulate_panel

nan = float("nan")
gain = [[nan, nan], [1.3312718, 1.2974406], [1.3327391, 1.2951873],
        [1.3349062, 1.2938517], [1.3371594, 1.2917348], [1.3386213, 1.2902281],
        [1.3408847, 1.2889126], [1.3425379, 1.2871593], [1.3447011, 1.2853064],
        [1.3462734, 1.2840719], [1.3484165, 1.2822457], [1.3501398, 1.2807832],
        [1.3523926, 1.2791175]]
shift = [[nan, nan], [0.4518273, 0.4102946], [0.4529714, 0.4097318],
         [0.4541386, 0.4089152], [0.4553027, 0.4081774], [0.4564918, 0.4073509],
         [0.4576241, 0.4066193], [0.4588637, 0.4057821], [0.4599152, 0.4050467],
         [0.4611873, 0.4042198], [0.4623305, 0.4034826], [0.4635094, 0.4026571],
         [0.4646712, 0.4019233]]
payout = [[nan, nan]] + [[-1.3862944 + 0.0173 * (t % 3), -1.3862944 - 0.0119 * (t % 4)]
                         for t in range(1, 13)]
schedule = LinearizationSchedule(gap=np.zeros((13, 2)), gain=np.array(gain),
                                 shift=np.array(shift), payout_ratio=np.array(payout))
params = ModelParams(
    req_return=np.array([0.04, 0.03]), init_mean=np.array([0.25, 0.10]),
    init_cov=np.array([[0.0196, 0.0021], [0.0021, 0.0169]]),
    drift=np.array([0.002, -0.001]),
    meas_cov=np.array([[0.0025, 0.0004], [0.0004, 0.0016]]),
    state_cov=np.array([[0.0009, -0.0001], [-0.0001, 0.0009]]), rate_log=0.01)
books = np.array([1.6094379, 1.7917595])
panel = simulate_panel(params, schedule, SimConfig(4097, 12, seed=3), books)
arrays = {name: getattr(panel, name)
          for name in ("multipliers", "growth", "log_books", "log_values")}
for measure in ("real", "risk_neutral"):
    arrays[measure] = reduce_terminal(
        params, schedule, SimConfig(20000, 10, seed=3, measure=measure), books,
        (np.copy, lambda blocks: np.concatenate(blocks, axis=1).T), start=2)
print(json.dumps({name: hashlib.sha256(a.tobytes()).hexdigest()
                  for name, a in arrays.items()}))
"""


def test_simulators_give_the_same_bytes_under_every_dispatch():
    # the AVX2 loops numpy runs with AVX-512 disabled, and an old OpenBLAS
    # kernel, must leave every simulated byte as it is: the per-period
    # recursion takes no dispatch-dependent function (a machine without
    # AVX-512 runs the same loops in the first and third environments)
    src = os.path.dirname(os.path.dirname(sim.__file__))
    base = {key: value for key, value in os.environ.items()
            if key not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    base["PYTHONPATH"] = src
    digests = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                  {"OPENBLAS_CORETYPE": "Prescott"}):
        done = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE],
                              env={**base, **extra}, capture_output=True, text=True,
                              check=True)
        digests.append(json.loads(done.stdout))
    assert len(digests[0]) == 6
    assert digests[1] == digests[0]
    assert digests[2] == digests[0]


class TestOracleSelfConsistency:
    def test_marginal_likelihood_matches_filter(self, params):
        series, _, _ = synthetic_series(params, 6, seed=15)
        sched = build_linearization_schedule(params, series.payout_ratio, 6)
        intercepts = real_intercepts(params, sched)
        filt = run_filter(params, sched, series.growth, intercepts)
        oracle = GaussianConditioningOracle(
            params, sched, series.growth, intercepts
        )
        assert filt.loglik == pytest.approx(oracle.loglik(), abs=1e-8)

    def test_period_guard(self, params):
        series, _, _ = synthetic_series(params, 9, seed=15)
        sched = build_linearization_schedule(params, series.payout_ratio, 9)
        with pytest.raises(DataValidationError, match="limited"):
            GaussianConditioningOracle(
                params, sched, series.growth, real_intercepts(params, sched)
            )


class TestMeanLogBookPath:
    def test_is_the_noiseless_panel_books(self, rng):
        # the centers of the panel tangents sit on the books of its mean path
        zero = np.zeros((2, 2))
        for p in (base_params(), random_params(rng)):
            p = p.replace(init_cov=zero, meas_cov=zero, state_cov=zero)
            ratio = np.log(0.25) + 0.05 * rng.normal(size=(30, 2))
            sched = build_linearization_schedule(p, ratio, 30)
            panel = simulate_panel(p, sched, SimConfig(1, 30, seed=1), LB0)
            np.testing.assert_allclose(
                panel.log_books[0], mean_log_book_path_reference(p, sched, LB0),
                rtol=0, atol=1e-13,
            )


class TestMonteCarloEstimators:
    def test_zero_strike_equals_discounted_mean_asset(self, params):
        sched = toy_schedule(params, 3)
        panel = simulate_panel(
            params, sched, SimConfig(2000, 3, seed=3, measure="risk_neutral"),
            np.array([1.0, 1.2]),
        )
        log_asset = linearized_panel(params, sched, panel)[:, -1]
        (estimate, _), _ = over_blocks(option_estimator(
            maturity_tangent(params, sched), 0.0, 3, params.rate_log),
            panel.log_values[:, -1].T)
        disc = np.exp(-3 * params.rate_log)
        assert estimate == pytest.approx(
            float(disc * np.exp(log_asset).mean()), rel=1e-12
        )

    def test_deterministic_panel_prices_exactly(self):
        p = base_params(
            init_cov=np.zeros((2, 2)),
            meas_cov=np.zeros((2, 2)),
            state_cov=np.zeros((2, 2)),
        )
        sched = toy_schedule(p, 3)
        panel = simulate_panel(
            p, sched, SimConfig(10, 3, seed=1, measure="risk_neutral"),
            np.array([1.0, 1.2]),
        )
        strike = 2.0
        log_asset = linearized_panel(p, sched, panel)[:, -1]
        (call, se), (put, _) = over_blocks(option_estimator(
            maturity_tangent(p, sched), strike, 3, p.rate_log), panel.log_values[:, -1].T)
        payoff = max(np.exp(log_asset[0]) - strike, 0.0)
        assert call == pytest.approx(np.exp(-3 * p.rate_log) * payoff, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_multi_block_moments_fold_in_block_order(self):
        # above 2¹² paths the blocks' moments merge left to right,
        # ((b0 ∘ b1) ∘ b2) ∘ … (Chan, Golub & LeVeque 1983), written out
        # here from each block's numpy sums of the tangent applied to its
        # pairs; 16 blocks, whose reversed fold rounds differently
        pairs = np.random.default_rng(5).normal(0.2, 0.4, (2, 200_000))
        tangent, strike, tau, rate = (0.4, 0.05), 1.1, 4, 0.01
        log_asset = _linearized_log_asset(pairs.T, *tangent)
        disc = np.exp(-tau * rate)
        bounds = _block_bounds(log_asset.shape[0])
        expected = []
        for sign in (1.0, -1.0):
            n = 0
            for lo, hi in zip(bounds, bounds[1:]):
                asset = np.exp(log_asset[lo:hi])
                values = disc * np.maximum(sign * (asset - strike), 0.0)
                nb, sb = hi - lo, values.sum()
                qb = float(np.square(values - sb / nb).sum())
                if n == 0:
                    n, total, squares = nb, float(sb), qb
                    continue
                delta = float(sb) / nb - total / n
                squares = squares + qb + delta * delta * (n * nb / (n + nb))
                n, total = n + nb, total + float(sb)
            expected.append((total / n, math.sqrt(squares / (n - 1)) / math.sqrt(n)))
        assert len(bounds) == 17
        estimator = option_estimator(tangent, strike, tau, rate)
        assert over_blocks(estimator, pairs) == tuple(expected)

    def test_default_frequency_limits(self, params):
        sched = toy_schedule(params, 3)
        panel = simulate_panel(
            params, sched, SimConfig(500, 3, seed=3), np.array([1.0, 1.2])
        )
        tangent, pairs = maturity_tangent(params, sched), panel.log_values[:, -1].T
        low, _ = over_blocks(default_estimator(tangent, 1e-12), pairs)
        high, _ = over_blocks(default_estimator(tangent, 1e12), pairs)
        assert low == 0.0
        assert high == 1.0


class TestLinearizationError:
    def test_zero_error_at_pinned_center(self):
        p = base_params(
            init_cov=np.zeros((2, 2)),
            meas_cov=np.zeros((2, 2)),
            state_cov=np.zeros((2, 2)),
        )
        sched = toy_schedule(p, 4)
        panel = simulate_panel(
            p, sched, SimConfig(3, 4, seed=1), np.array([1.0, 1.2])
        )
        err = np.abs(panel.log_asset_exact - linearized_panel(p, sched, panel))
        assert err.max() < 1e-12

    def test_error_grows_with_deviation(self, params):
        sched = toy_schedule(params, 4)
        panel = simulate_panel(
            params, sched, SimConfig(200_000, 4, seed=7), np.array([1.0, 1.2])
        )
        centers, means = binned_error_curve(
            panel, 4, maturity_tangent(params, sched), n_bins=10
        )
        assert len(means) >= 6
        assert (np.diff(means) > 0).mean() > 0.7
        assert means[-1] > means[0]

    def test_small_dispersion_scaling(self, params):
        scaled = params.replace(
            init_cov=1e-4 * params.init_cov,
            meas_cov=1e-4 * params.meas_cov,
            state_cov=1e-4 * params.state_cov,
        )
        sched = toy_schedule(scaled, 4)
        panel = simulate_panel(
            scaled, sched, SimConfig(50_000, 4, seed=7), np.array([1.0, 1.2])
        )
        err = np.abs(panel.log_asset_exact - linearized_panel(scaled, sched, panel))
        assert err.max() < 1e-4
