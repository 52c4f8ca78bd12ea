import dataclasses
import inspect
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
    build_linearization_schedule,
    linearized_log_asset,
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
    mc_default_probability,
    mc_option_price,
    psd_cholesky,
    simulate_panel,
    simulate_terminal,
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
    return linearized_log_asset(panel.log_values, *mean_path_tangents(params, sched, LB0))


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


def float_scale(cov, e0, e1):
    """L (e0, e1) in Python floats for the lower Cholesky factor L of cov."""
    (l11, _), (l21, l22) = psd_cholesky(cov).tolist()
    return [l11 * e0, l21 * e0 + l22 * e1]


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
    """``simulate_panel`` or ``simulate_terminal``, looked up on the module
    so that patches of it apply."""
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

    def test_blocks_merge_once_each_in_block_order(self, monkeypatch):
        # four workers switching often finish 64 blocks out of order; each
        # result is merged exactly once, as ((r0 + r1) + r2) + …
        force_cores(monkeypatch, 64)
        interval = sys.getswitchinterval()

        def block(j):
            time.sleep(0.001 * (j % 3))
            return [j]

        try:
            sys.setswitchinterval(1e-5)
            merged = sim._run_blocks(block, 64, lambda earlier, later: earlier + later)
        finally:
            sys.setswitchinterval(interval)
        assert merged == list(range(64))


class TestSimulateTerminal:
    @pytest.mark.parametrize("measure", ["real", "risk_neutral"])
    @pytest.mark.parametrize("n", [1, 3, _BLOCK_PATHS, _BLOCK_PATHS + 3,
                                   3 * _BLOCK_PATHS + 5])
    def test_terminal_values_are_the_panel_maturity_column(
        self, params, monkeypatch, n, measure
    ):
        # one draw layout: at horizon 1 the summed measurement noise is the
        # period's own, so the terminal run keeps the last value pair of the
        # panel's own paths, across block boundaries and thread counts
        sched = toy_schedule(params, 6)
        cfg = SimConfig(n, 1, seed=41, measure=measure)
        kw = dict(start=2, init_mean=np.array([0.3, 0.05]),
                  init_cov=0.5 * params.init_cov)
        for cores in (1, 64):
            force_cores(monkeypatch, cores)
            panel = simulate_panel(params, sched, cfg, LB0, **kw)
            terminal = simulate_terminal(params, sched, cfg, LB0, **kw)
            assert terminal.shape == (n, 2)
            assert np.array_equal(terminal, panel.log_values[:, -1])

    def test_noiseless_paths_equal_panel_across_blocks(self):
        zero = np.zeros((2, 2))
        p = base_params(init_cov=zero, meas_cov=zero, state_cov=zero)
        sched = toy_schedule(p, 5)
        cfg = SimConfig(_BLOCK_PATHS + 3, 5, seed=1)
        terminal = simulate_terminal(p, sched, cfg, LB0)
        panel = simulate_panel(p, sched, SimConfig(3, 5, seed=1), LB0)
        assert terminal.shape == (_BLOCK_PATHS + 3, 2)
        assert (terminal == panel.log_values[0, -1]).all()

    def test_seed_determinism(self, params):
        sched = toy_schedule(params, 4)
        a = simulate_terminal(params, sched, SimConfig(100, 4, seed=99), LB0)
        b = simulate_terminal(params, sched, SimConfig(100, 4, seed=99), LB0)
        c = simulate_terminal(params, sched, SimConfig(100, 4, seed=100), LB0)
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
        pair = simulate_terminal(
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
        sample = linearized_log_asset(pair, *ctx.tangent)
        mu, var = ctx.asset_moments(measure)
        assert abs(sample.mean() - mu) < 4 * np.sqrt(var / n)
        assert abs(sample.var(ddof=1) - var) < 4 * var * np.sqrt(2 / (n - 1))

    def test_memory_is_bounded_by_one_block(self, params, monkeypatch):
        # a 200 000-path, 60-period panel would hold about 2 GB; the bound
        # holds on this machine's cores and with every worker in flight
        sched = toy_schedule(params, 60)
        cfg = SimConfig(200_000, 60, seed=3, measure="risk_neutral")
        for cores in (sim._cores(), _MAX_WORKERS):
            force_cores(monkeypatch, cores)
            tracemalloc.start()
            try:
                simulate_terminal(params, sched, cfg, LB0)
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
                runs.append(simulate_terminal(params, sched, cfg, LB0))
        finally:
            sys.setswitchinterval(interval)
        single = simulate_terminal(params, sched, dataclasses.replace(
            cfg, n_paths=b), LB0)
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0][:b], single)
        assert not np.array_equal(runs[0][b : 2 * b], single)

    @pytest.mark.parametrize("name", ["simulate_terminal", "simulate_panel"])
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

    @pytest.mark.parametrize("name", ["simulate_terminal", "simulate_panel"])
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
        # on threads. A panel block draws per period a state and a
        # measurement pair; a terminal block draws P state pairs, then one
        # measurement pair scaled by the factor of P Σ_u
        sched = toy_schedule(params, 7)
        start, P, seed = 1, 5, 17
        m0, cov0 = [0.3, 0.05], 0.5 * params.init_cov
        intercepts = risk_neutral_intercepts(params, sched)
        bounds = [0, 2, 4, 5]
        paths, ends = [], []
        for j, b in enumerate(np.diff(bounds).tolist()):
            rng, rng_terminal = (np.random.Generator(
                np.random.Philox(key=seed).jumped(j)) for _ in range(2))
            z0 = rng.standard_normal((2, b)).tolist()
            draws = [rng.standard_normal((2, 2, b)).tolist() for _ in range(P)]
            rng_terminal.standard_normal((2, b))  # the start pairs z0 again
            state = [rng_terminal.standard_normal((2, b)).tolist() for _ in range(P)]
            summed = rng_terminal.standard_normal((2, b)).tolist()
            for i in range(b):
                z = float_scale(cov0, z0[0][i], z0[1][i])
                start_pair = [m0[0] + z[0], m0[1] + z[1]]
                shocks = [(float_scale(params.state_cov, v[0][i], v[1][i]),
                           float_scale(params.meas_cov, u[0][i], u[1][i]))
                          for v, u in draws]
                paths.append(float_paths(
                    params, sched, intercepts, start, start_pair, LB0.tolist(), shocks))
                shocks = [(float_scale(params.state_cov, v[0][i], v[1][i]), None)
                          for v in state]
                shocks[-1] = (shocks[-1][0], float_scale(
                    P * params.meas_cov, summed[0][i], summed[1][i]))
                mults, _, books = float_paths(
                    params, sched, intercepts, start, start_pair, LB0.tolist(), shocks)
                ends.append([mults[-1][k] + books[-1][k] for k in range(2)])

        monkeypatch.setattr(sim, "_block_bounds", lambda n: bounds)
        force_cores(monkeypatch, 64)
        cfg = SimConfig(5, P, seed, measure="risk_neutral")
        kw = dict(start=start, init_mean=m0, init_cov=cov0)
        panel = simulate_panel(params, sched, cfg, LB0, **kw)
        terminal = simulate_terminal(params, sched, cfg, LB0, **kw)
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
        (estimate, _), _ = mc_option_price(log_asset, 0.0, 3, params.rate_log)
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
        (call, se), (put, _) = mc_option_price(log_asset, strike, 3, p.rate_log)
        payoff = max(np.exp(log_asset[0]) - strike, 0.0)
        assert call == pytest.approx(np.exp(-3 * p.rate_log) * payoff, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_default_frequency_limits(self, params):
        sched = toy_schedule(params, 3)
        panel = simulate_panel(
            params, sched, SimConfig(500, 3, seed=3), np.array([1.0, 1.2])
        )
        log_asset = linearized_panel(params, sched, panel)[:, -1]
        low, _ = mc_default_probability(log_asset, 1e-12)
        high, _ = mc_default_probability(log_asset, 1e12)
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
