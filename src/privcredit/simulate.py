"""Ground-truth simulation machinery and Monte Carlo estimators.

The model is linear-Gaussian in logs, so paths are simulated exactly (no
discretization error) under either measure; the only difference between the
two is the measurement intercept. Panels carry the exact log asset value
ln(Vᵉ + Vˡ); the linearized value at any asset tangent follows from their
log value pairs, so approximation error can be quantified separately from
formula correctness.

One engine (:func:`_simulate` over :func:`_periods`) runs blocks of paths on
worker threads and returns their results in block order, each block drawing
from its own stream, which the caller picks: a panel's block j is Philox keyed
by the seed and jumped j times (:func:`_panel_stream`), a Monte Carlo check's
is SFC64 seeded by the j-th child of the seed's ``SeedSequence``
(:func:`_check_stream`), whose normals cost about 30 % less. A Monte Carlo
check reduces each block of maturity pairs where it was simulated
(:func:`reduce_terminal`) and folds the block statistics in order after the
join, so its memory does not grow with the path count; :func:`simulate_terminal`
is the reduction that collects the pairs, and the array estimators reduce over
the same blocks, so both routes give the same estimates bit for bit.
"""

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .model import real_intercepts, risk_neutral_intercepts

MEASURES = ("real", "risk_neutral")
_BLOCK_PATHS = 1 << 14  # most paths in a block, each block its own stream
_SMALL_PATHS = 1 << 12  # a run of at most this many paths is one block
_MAX_WORKERS = 4        # threads; a terminal run holds at most 2¹⁶ paths


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; identical configs give bit-identical paths on
    every BLAS/LAPACK build and core count, and across CPUs given the same
    schedule, whose gains, like a panel's exact log asset value, come from
    numpy's vectorized ``exp``/``log1p`` (ROADMAP item 11). The paths split
    into near-equal blocks whose layout depends on ``n_paths`` alone
    (:func:`_block_bounds`), each block with its own stream:
    :func:`simulate_panel` and :func:`simulate_terminal` share the layout but
    not the streams (:func:`_simulate`). The noise factor is the closed-form
    lower Cholesky factor :func:`psd_cholesky`, applied with elementwise
    products and sums (no LAPACK, no BLAS kernel). ``n_paths``, ``horizon``
    and ``seed`` must be integers."""

    n_paths: int
    horizon: int
    seed: int
    measure: str = "real"

    def __post_init__(self):
        for name in ("n_paths", "horizon", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise DataValidationError(f"{name} must be an integer") from None
        if self.n_paths < 1:
            raise DataValidationError("n_paths must be >= 1")
        if self.horizon < 1:
            raise DataValidationError("horizon must be >= 1")
        if self.measure not in MEASURES:
            raise DataValidationError(f"measure must be one of {MEASURES}")
        if not 0 <= self.seed < 2**128:
            raise DataValidationError("seed must be in [0, 2**128)")


@dataclass(frozen=True)
class SimulatedPanel:
    """Simulated paths; time axis 1 runs over periods start..start+horizon.

    ``log_values`` is the log market value pair (multiplier plus log book
    value by construction); ``log_asset_exact`` is ln(Vᵉ + Vˡ).
    """

    multipliers: np.ndarray
    growth: np.ndarray
    log_books: np.ndarray
    log_values: np.ndarray
    log_asset_exact: np.ndarray


def psd_cholesky(m):
    """Lower Cholesky factor L of a 2×2 PSD matrix, with L Lᵀ = m.

    Closed form, so no LAPACK call decides the result: l11 = √max(a, 0),
    l21 = b / l11 (0 when l11 = 0), l22 = √max(c − l21², 0). The factor with
    a nonnegative diagonal is unique for every PSD input, including the zero
    and rank-one covariances of pinned or degenerate components.
    """
    (a, b), (_, c) = np.asarray(m, float)
    l11 = np.sqrt(max(a, 0.0))
    l21 = b / l11 if l11 > 0.0 else 0.0
    l22 = np.sqrt(max(c - l21 * l21, 0.0))
    return np.array([[l11, 0.0], [l21, l22]])


def _correlate(factor, e, row):
    """Overwrite the standard normal pairs ``e`` (pair along axis 0) with
    L e for the lower factor L: (l11 e₀, l21 e₀ + l22 e₁), each entry
    rounded products and one sum, as plain floats give, where a BLAS ``@``
    may fuse or reorder them by CPU; ``row`` is scratch of one leg's shape."""
    (l11, _), (l21, l22) = factor.tolist()
    np.multiply(e[0], l21, out=row)
    e[1] *= l22
    e[1] += row
    e[0] *= l11
    return e


def _periods(rng, state_factor, meas_factors, drift, gains, intercepts, m, log_books):
    """The (2, b) multiplier m′ = φ + m + r_v, log books and book growth
    g = −m′ + G_t m + c_t + r_u after each row of the (periods, 2, 1)
    ``gains`` and ``intercepts``, from the multiplier ``m`` and (2, 1) log
    books. Each period draws b state noise pairs; a period whose entry of
    ``meas_factors`` is a lower factor then draws b measurement noise pairs
    r_u scaled by it, and a period whose entry is None has no r_u term.

    The update runs in place, in the operation order of the formulas, on
    buffers allocated once: ``m`` and one more multiplier buffer take turns,
    so each yielded (m′, log books, g) is overwritten by the next period."""
    m_new, growth, noise, books = (np.empty_like(m) for _ in range(4))
    books[...] = log_books
    row = np.empty_like(m[0])
    for gain, intercept, meas_factor in zip(gains, intercepts, meas_factors):
        _correlate(state_factor, rng.standard_normal(out=noise), row)
        np.add(drift, m, out=m_new)
        m_new += noise
        np.multiply(gain, m, out=growth)
        growth -= m_new
        growth += intercept
        if meas_factor is not None:
            growth += _correlate(meas_factor, rng.standard_normal(out=noise), row)
        books += growth
        m, m_new = m_new, m
        yield m, books, growth


def _cores():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(block, n_blocks):
    """Call ``block(j)`` for j < n_blocks on min(n_blocks, cores,
    ``_MAX_WORKERS``) threads, the calling one included, and return the
    results in block order, [block(0), …, block(n_blocks − 1)]; ``block``
    may not call a public function of the package, which a layer tracer
    wraps around a single span stack. After every thread has stopped, the
    error of the lowest failing block is raised; a failure stops the
    threads from taking further blocks."""
    todo = iter(range(n_blocks))
    lock = threading.Lock()  # guards the block counter only
    results, errors = [None] * n_blocks, {}

    def work():
        while not errors:
            with lock:
                j = next(todo, None)
            if j is None:
                return
            try:
                results[j] = block(j)
            except BaseException as exc:  # re-raised by the calling thread
                errors[j] = exc

    threads = [threading.Thread(target=work)
               for _ in range(min(n_blocks, _cores(), _MAX_WORKERS) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _block_bounds(n):
    """Row bounds of an n-path run's k blocks, block j covering rows
    ⌊jn/k⌋ to ⌊(j+1)n/k⌋, with k = min(⌈n/2¹²⌉, 4⌈n/2¹⁶⌉): one block up to
    2¹² paths, at most 2¹⁴ paths a block, sizes differing by at most one,
    and above 3·2¹² paths a multiple of ``_MAX_WORKERS`` blocks, so every
    worker gets the same share."""
    k = min(-(-n // _SMALL_PATHS),
            _MAX_WORKERS * -(-n // (_MAX_WORKERS * _BLOCK_PATHS)))
    return [j * n // k for j in range(k + 1)]


def _panel_stream(seed, j):
    """Block j's generator in a panel: Philox keyed by the seed and jumped j
    times (block 0 is the seed's own stream)."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(j))


def _check_stream(seed, j):
    """Block j's generator in a Monte Carlo check: SFC64 seeded by the j-th
    child of ``SeedSequence(seed)``, as ``SeedSequence(seed).spawn`` gives."""
    seeds = np.random.SeedSequence(seed, spawn_key=(j,))
    return np.random.Generator(np.random.SFC64(seeds))


def _simulate(params, schedule, config, log_books0, start, init_mean, init_cov,
              meas_factors, stream, keep):
    """Run a simulation's blocks (:func:`_block_bounds`) on up to
    ``_MAX_WORKERS`` threads and return their results in block order
    (:func:`_run_blocks`); ``keep(rows, m0, periods)`` gets each block's
    slice of paths, (2, b) start multipliers and :func:`_periods` generator,
    which scales each period's measurement noise by that period's entry of
    ``meas_factors`` (None: no measurement noise that period), and returns
    the block's result, in a worker thread.

    Block j draws from ``stream(seed, j)`` (:func:`_panel_stream` or
    :func:`_check_stream`): b start pairs, then per period b state noise
    pairs and, where the period has a measurement factor, b measurement
    noise pairs, each pair's two normals drawn b apart, so no path depends
    on the thread count or scheduling."""
    if schedule.horizon < start + config.horizon:
        raise DataValidationError("schedule does not cover the simulation horizon")
    mean0 = params.init_mean if init_mean is None else np.asarray(init_mean, float)
    cov0 = params.init_cov if init_cov is None else np.asarray(init_cov, float)
    if config.measure == "real":
        intercepts = real_intercepts(params, schedule)
    else:
        intercepts = risk_neutral_intercepts(params, schedule)
    l0, lv = psd_cholesky(cov0), psd_cholesky(params.state_cov)
    periods = slice(start + 1, start + config.horizon + 1)
    gains = schedule.gain[periods, :, None]
    intercepts = intercepts[periods, :, None]
    mean0, drift = mean0[:, None], params.drift[:, None]
    log_books0 = np.asarray(log_books0, float)[:, None]
    bounds = _block_bounds(config.n_paths)

    def block(j):
        lo, hi = bounds[j], bounds[j + 1]
        rng = stream(config.seed, j)
        m0 = mean0 + _correlate(l0, rng.standard_normal((2, hi - lo)), np.empty(hi - lo))
        return keep(slice(lo, hi), m0, _periods(rng, lv, meas_factors, drift, gains,
                                                intercepts, m0, log_books0))

    return _run_blocks(block, len(bounds) - 1)


def simulate_panel(params, schedule, config, log_books0, start=0,
                   init_mean=None, init_cov=None):
    """Simulate exact model paths, recording every period.

    Parameters
    ----------
    log_books0 : (2,) array
        Log book values at the start period.
    start : int
        Absolute period of the initial condition; the panel covers periods
        start..start+config.horizon and the schedule must reach the end.
    init_mean, init_cov : optional
        Distribution of the log multiplier at the start period (defaults to
        the model prior; pass a zero matrix to pin a known multiplier).

    The paths are drawn block by block as :func:`_simulate` describes, from
    the Philox streams of :func:`_panel_stream`, with a measurement noise
    pair scaled by the factor of Σ_u every period.
    """
    n, P = config.n_paths, config.horizon
    mult = np.empty((n, P + 1, 2))
    growth = np.empty((n, P, 2))
    log_books = np.empty((n, P + 1, 2))
    log_books[:, 0] = np.asarray(log_books0, float)

    def keep(rows, m0, periods):
        mult[rows, 0] = m0.T
        for t, (m, books, g) in enumerate(periods, 1):
            mult[rows, t] = m.T
            log_books[rows, t] = books.T
            growth[rows, t - 1] = g.T

    _simulate(params, schedule, config, log_books0, start, init_mean, init_cov,
              [psd_cholesky(params.meas_cov)] * P, _panel_stream, keep)
    log_values = mult + log_books
    exact = np.logaddexp(log_values[..., 0], log_values[..., 1])
    return SimulatedPanel(
        multipliers=mult, growth=growth, log_books=log_books,
        log_values=log_values, log_asset_exact=exact,
    )


def reduce_terminal(params, schedule, config, log_books0, reduce,
                    start=0, init_mean=None, init_cov=None):
    """Simulate maturity log value pairs block by block and reduce each
    block where it was simulated; arguments after ``reduce`` are those of
    :func:`simulate_panel`.

    ``reduce(rows, pairs)`` gets a block's slice of paths and its (2, b)
    pairs, legs along axis 0, in the worker thread that simulated the block,
    and returns the block's result, and may not call a public function of
    the package (:func:`_run_blocks`); the blocks' results come back as a
    list in block order. No array spans all n paths: besides what
    ``reduce`` keeps, at most min(cores, 4) blocks of at most 2¹⁴ paths are
    in flight (:func:`_block_bounds`).

    The measurement noise reaches the pair at horizon P only through its sum
    Σ_t r_u ~ N(0, P Σ_u), so each path draws that sum as one pair, scaled
    by the factor of P Σ_u, at period P: a block draws b start pairs, P
    state noise pairs and one summed measurement pair, 2P + 4 normals a
    path, from the SFC64 stream of :func:`_check_stream`, so even at horizon
    1 the pairs are not a panel's. Each block keeps only its (2, b)
    multiplier and log book state, so memory does not grow with the horizon
    either."""

    def keep(rows, m0, periods):
        for m, log_books, _ in periods:
            pass
        m += log_books  # the state buffers are free once the periods end
        return reduce(rows, m)

    P = config.horizon
    summed = psd_cholesky(P * params.meas_cov)
    return _simulate(params, schedule, config, log_books0, start, init_mean, init_cov,
                     [None] * (P - 1) + [summed], _check_stream, keep)


def simulate_terminal(params, schedule, config, log_books0, start=0,
                      init_mean=None, init_cov=None):
    """Maturity log value pairs, an (n_paths, 2) array stored leg by leg,
    so each column is contiguous: the reduction of :func:`reduce_terminal`
    that collects every block's pairs, drawn from the check's own streams
    (:func:`_check_stream`), not a panel's."""
    out = np.empty((2, config.n_paths))

    def collect(rows, pairs):
        out[:, rows] = pairs

    reduce_terminal(params, schedule, config, log_books0, collect,
                    start, init_mean, init_cov)
    return out.T


def _moments(values):
    """Count, sum and centred sum of squares of one block's values: the sums
    numpy's ``mean`` and ``std(ddof=1)`` take of the same array."""
    total = values.sum()
    dev = values - total / values.shape[0]
    np.square(dev, out=dev)
    return values.shape[0], float(total), float(dev.sum())


def _merge_moments(a, b):
    """Moments of two blocks' values together (Chan, Golub & LeVeque 1983)."""
    (na, sa, qa), (nb, sb, qb) = a, b
    delta = sb / nb - sa / na
    return na + nb, sa + sb, qa + qb + delta * delta * (na * nb / (na + nb))


def _mean_se(moments):
    """Mean and standard error from moments; one block's equal the mean and
    ``std(ddof=1) / sqrt(n)`` of its values."""
    n, total, squares = moments
    se = math.sqrt(squares / (n - 1)) / math.sqrt(n) if n > 1 else math.inf
    return total / n, se


def _option_estimator(strike, tau, rate_log):
    """Estimator of the discounted call and put at ``strike``: a pair
    (block, finish). ``block`` maps one block's maturity log asset values to
    the :func:`_moments` of both payoffs, calling no public function, so a
    worker thread may run it; ``finish`` merges the list of the blocks'
    moments in block order into ((call, call_se), (put, put_se))."""
    if not 0 <= strike < np.inf:
        raise DataValidationError("strike must be nonnegative and finite")
    disc = np.exp(-tau * rate_log)

    def block(log_asset):
        asset = np.exp(log_asset)
        return (_moments(disc * np.maximum(asset - strike, 0.0)),
                _moments(disc * np.maximum(strike - asset, 0.0)))

    def finish(blocks):
        return tuple(_mean_se(functools.reduce(_merge_moments, payoff))
                     for payoff in zip(*blocks))

    return block, finish


def _default_estimator(threshold):
    """Estimator of the frequency of {Ṽᵃ_T <= ln threshold}, as
    :func:`_option_estimator`: a block gives its path and default counts,
    and ``finish`` the frequency of the summed counts with its binomial
    standard error."""
    if not 0 < threshold < np.inf:
        raise DataValidationError("threshold must be positive and finite")
    log_threshold = np.log(threshold)

    def block(log_asset):
        return log_asset.shape[0], int(np.count_nonzero(log_asset <= log_threshold))

    def finish(blocks):
        n, hits = (sum(counts) for counts in zip(*blocks))
        p = hits / n
        return p, math.sqrt(max(p * (1.0 - p), 0.0) / n)

    return block, finish


def _estimate(log_asset, estimator):
    """Run an estimator over the :func:`_block_bounds` slices of an array of
    maturity log asset values and finish their list, as a streamed check
    reduces the same values block by block."""
    block, finish = estimator
    log_asset = np.asarray(log_asset)
    if log_asset.shape[0] < 1:
        raise DataValidationError("Monte Carlo estimates need at least one path")
    bounds = _block_bounds(log_asset.shape[0])
    return finish([block(log_asset[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def mc_option_price(log_asset, strike, tau, rate_log):
    """Discounted Monte Carlo call/put prices off maturity values Ṽᵃ_T.

    Returns ((call, call_se), (put, put_se)); they must be simulated
    under the risk-neutral measure for prices to be meaningful. Up to 2¹²
    values these are the mean and ``std(ddof=1) / sqrt(n)`` of the payoffs;
    above, the per-block moments merged in block order.
    """
    return _estimate(log_asset, _option_estimator(strike, tau, rate_log))


def mc_default_probability(log_asset, threshold):
    """Default frequency {Ṽᵃ_T <= ln threshold} with binomial standard error."""
    return _estimate(log_asset, _default_estimator(threshold))
