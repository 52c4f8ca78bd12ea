"""Ground-truth simulation machinery and Monte Carlo estimators.

The model is linear-Gaussian in logs, so paths are simulated exactly (no
discretization error) under either measure; the only difference between the
two is the measurement intercept. Panels carry the exact log asset value
ln(Vᵉ + Vˡ); the linearized value at any asset tangent follows from their
log value pairs, so approximation error can be quantified separately from
formula correctness.

One engine (:func:`_simulate`) runs blocks of paths on worker threads and
returns their results in block order, each block drawing from its own
stream, which the caller picks: a panel's block j is Philox keyed by the
seed and jumped j times (:func:`_panel_stream`), a Monte Carlo check's is
SFC64 seeded by the j-th child of the seed's ``SeedSequence``
(:func:`_check_stream`), whose normals cost about 30 % less. A panel runs
the per-period recursion (:func:`_periods`) on every path. A Monte Carlo
check (:func:`reduce_terminal`) reads only the maturity pair, which is the
noise-free mean path's end plus three Gaussian pairs, so each path draws
three standard normal pairs whatever the horizon (:func:`_maturity_pairs`);
the worker that drew a block applies the asset tangent and the estimator's
block statistic to its pairs (:func:`option_estimator`,
:func:`default_estimator`), and the calling thread folds the block
statistics in order after the join, so its memory does not grow with the
path count.
"""

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .model import _linearized_log_asset, real_intercepts, risk_neutral_intercepts

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
    :func:`simulate_panel` and :func:`reduce_terminal` share the layout but
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


def _periods(rng, state_factor, meas_factor, drift, gains, intercepts, m, log_books):
    """The (2, b) multiplier m′ = φ + m + r_v, log books and book growth
    g = −m′ + G_t m + c_t + r_u after each row of the (periods, 2, 1)
    ``gains`` and ``intercepts``, from the multiplier ``m`` and (2, 1) log
    books. Each period draws b state noise pairs r_v, then b measurement
    noise pairs r_u, scaled by the lower factors; with ``rng`` None the
    update runs without noise and gives the mean path.

    The update runs in place, in the operation order of the formulas, on
    buffers allocated once: ``m`` and one more multiplier buffer take turns,
    so each yielded (m′, log books, g) is overwritten by the next period."""
    m_new, growth, noise, books = (np.empty_like(m) for _ in range(4))
    books[...] = log_books
    row = np.empty_like(m[0])
    for gain, intercept in zip(gains, intercepts):
        np.add(drift, m, out=m_new)
        if rng is not None:
            m_new += _correlate(state_factor, rng.standard_normal(out=noise), row)
        np.multiply(gain, m, out=growth)
        growth -= m_new
        growth += intercept
        if rng is not None:
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


def _inputs(params, schedule, config, log_books0, start, init_mean, init_cov):
    """The recursion's inputs over periods start+1..start+P: the (2, 1)
    start mean, the start covariance, the (2, 1) drift, the (P, 2, 1) gains
    and intercepts under ``config.measure`` and the (2, 1) log books."""
    if schedule.horizon < start + config.horizon:
        raise DataValidationError("schedule does not cover the simulation horizon")
    mean0 = params.init_mean if init_mean is None else np.asarray(init_mean, float)
    cov0 = params.init_cov if init_cov is None else np.asarray(init_cov, float)
    if config.measure == "real":
        intercepts = real_intercepts(params, schedule)
    else:
        intercepts = risk_neutral_intercepts(params, schedule)
    periods = slice(start + 1, start + config.horizon + 1)
    return (mean0[:, None], cov0, params.drift[:, None], schedule.gain[periods, :, None],
            intercepts[periods, :, None], np.asarray(log_books0, float)[:, None])


def _simulate(config, stream, block):
    """Run ``block(rows, rng)`` for the blocks of ``config.n_paths`` paths
    (:func:`_block_bounds`) on up to ``_MAX_WORKERS`` threads and return its
    results in block order (:func:`_run_blocks`): ``rows`` is the block's
    slice of paths and ``rng`` is ``stream(seed, j)`` for block j
    (:func:`_panel_stream` or :func:`_check_stream`). Each pair of normals
    a block draws has its two normals b apart, so no path depends on the
    thread count or scheduling."""
    bounds = _block_bounds(config.n_paths)
    return _run_blocks(
        lambda j: block(slice(bounds[j], bounds[j + 1]), stream(config.seed, j)),
        len(bounds) - 1)


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
    the Philox streams of :func:`_panel_stream`: a block of b paths draws b
    start pairs, then per period b state noise pairs and b measurement
    noise pairs (:func:`_periods`).
    """
    mean0, cov0, drift, gains, intercepts, books0 = _inputs(
        params, schedule, config, log_books0, start, init_mean, init_cov)
    n, P = config.n_paths, config.horizon
    mult = np.empty((n, P + 1, 2))
    growth = np.empty((n, P, 2))
    log_books = np.empty((n, P + 1, 2))
    log_books[:, 0] = books0[:, 0]
    l0, lv, lu = (psd_cholesky(c) for c in (cov0, params.state_cov, params.meas_cov))

    def block(rows, rng):
        b = rows.stop - rows.start
        m0 = mean0 + _correlate(l0, rng.standard_normal((2, b)), np.empty(b))
        mult[rows, 0] = m0.T
        for t, (m, books, g) in enumerate(
                _periods(rng, lv, lu, drift, gains, intercepts, m0, books0), 1):
            mult[rows, t] = m.T
            log_books[rows, t] = books.T
            growth[rows, t - 1] = g.T

    _simulate(config, _panel_stream, block)
    log_values = mult + log_books
    exact = np.logaddexp(log_values[..., 0], log_values[..., 1])
    return SimulatedPanel(
        multipliers=mult, growth=growth, log_books=log_books,
        log_values=log_values, log_asset_exact=exact,
    )


def _maturity_factors(params, gains, cov0):
    """Lower factors of the three noise terms of the maturity pair over the
    (P, 2, 1) ``gains``. With d_t = G_t − 1 the recursion telescopes: the
    pair m_P + ln B_P is m_0 + Σ_t d_t m_{t−1} + ln B_0 + Σ_t c_t + Σ_t r_u,t
    (v_P cancels), so the start deviation L₀z₀ enters times α = 1 + Σ_t d_t,
    the state noise v_s times w_s = Σ_{t>s} d_t for s < P, and the
    measurement noise as its sum. The factors are diag(α) L₀, that of
    Σ_v ∘ Σ_{s<P} w_s w_sᵀ and that of P Σ_u, from elementwise products, a
    reverse cumulative sum and a sum over periods in period order, so no
    BLAS kernel."""
    tail = np.cumsum(gains[::-1, :, 0] - 1.0, axis=0)[::-1]  # row s: Σ_{t>s} d_t
    alpha, w = 1.0 + tail[0], tail[1:]
    weights = (w[:, :, None] * w[:, None, :]).sum(axis=0)
    return (alpha[:, None] * psd_cholesky(cov0),
            psd_cholesky(params.state_cov * weights),
            psd_cholesky(gains.shape[0] * params.meas_cov))


def _maturity_pairs(rng, b, end, factors):
    """b maturity pairs, legs along axis 0: the (2, 1) noise-free ``end``
    plus each of the three lower ``factors`` times a standard normal pair
    (:func:`_correlate`), drawn in that order into one reused buffer and
    added in that order."""
    noise, row = np.empty((2, b)), np.empty(b)
    start, state, meas = factors
    pairs = end + _correlate(start, rng.standard_normal(out=noise), row)
    pairs += _correlate(state, rng.standard_normal(out=noise), row)
    pairs += _correlate(meas, rng.standard_normal(out=noise), row)
    return pairs


def reduce_terminal(params, schedule, config, log_books0, estimator,
                    start=0, init_mean=None, init_cov=None):
    """A Monte Carlo estimate over simulated maturity log value pairs,
    reduced block by block where each block was simulated; arguments after
    ``estimator`` are those of :func:`simulate_panel`.

    ``estimator`` is a pair (block, finish), as :func:`option_estimator` and
    :func:`default_estimator` give: ``block(pairs)`` gets a block's (2, b)
    pairs, legs along axis 0, in the worker thread that simulated the block,
    returns the block's result and may not call a public function of the
    package (:func:`_run_blocks`); ``finish`` gets the list of the blocks'
    results in block order, on the calling thread, and its value is
    returned. No array spans all n paths: besides what ``block`` keeps, at
    most min(cores, 4) blocks of at most 2¹⁴ paths are in flight
    (:func:`_block_bounds`).

    The pair at horizon P is exactly the noise-free mean path's end plus
    three independent Gaussian pairs: α∘(L₀z₀), the weighted state noise
    sum N(0, Σ_v ∘ Σ_{s<P} w_s w_sᵀ) and the measurement noise sum
    N(0, P Σ_u), with α and the weights w_s from the gains
    (:func:`_maturity_factors`). On the calling thread the recursion's own
    update (:func:`_periods`) runs without noise on the (2, 1) mean; each
    block of b paths then draws b start, b state-sum and b measurement-sum
    pairs, 6 normals a path whatever P, from the SFC64 stream of
    :func:`_check_stream` (:func:`_maturity_pairs`), so even at horizon 1
    the pairs are not a panel's."""
    block, finish = estimator
    mean0, cov0, drift, gains, intercepts, books0 = _inputs(
        params, schedule, config, log_books0, start, init_mean, init_cov)
    for m, books, _ in _periods(None, None, None, drift, gains, intercepts,
                                mean0.copy(), books0):
        pass
    end, factors = m + books, _maturity_factors(params, gains, cov0)
    return finish(_simulate(config, _check_stream, lambda rows, rng: block(
        _maturity_pairs(rng, rows.stop - rows.start, end, factors))))


def _moments(values):
    """Count, sum and centred sum of squares of one block's nonnegative
    values, taken of the values over 2^e (scaled in place), e the exponent
    of their largest (``math.frexp``), so no sum or square overflows; and
    e. Scaling by a power of two is exact, so these are the sums numpy's
    ``mean`` and ``std(ddof=1)`` take of the same array, over 2^e and 2^2e,
    wherever those do not overflow or fall below the normal floats."""
    e = math.frexp(values.max())[1]
    values = np.ldexp(values, -e, out=values)
    total = values.sum()
    dev = values - total / values.shape[0]
    np.square(dev, out=dev)
    return values.shape[0], float(total), float(dev.sum()), e


def _merge_moments(a, b):
    """Moments of two blocks' values together (Chan, Golub & LeVeque 1983),
    over the larger of their two scales."""
    (na, sa, qa, ea), (nb, sb, qb, eb) = a, b
    e = max(ea, eb)
    sa, qa = math.ldexp(sa, ea - e), math.ldexp(qa, 2 * (ea - e))
    sb, qb = math.ldexp(sb, eb - e), math.ldexp(qb, 2 * (eb - e))
    delta = sb / nb - sa / na
    return na + nb, sa + sb, qa + qb + delta * delta * (na * nb / (na + nb)), e


def _mean_se(moments):
    """Mean and standard error from moments, scaled back; one block's equal
    the mean and ``std(ddof=1) / sqrt(n)`` of its values."""
    n, total, squares, e = moments
    se = math.sqrt(squares / (n - 1)) / math.sqrt(n) if n > 1 else math.inf
    return math.ldexp(total / n, e), math.ldexp(se, e)


def option_estimator(tangent, strike, tau, rate_log):
    """Estimator of the discounted call and put at ``strike`` on the asset
    ``tangent`` (w_a, h_a), for :func:`reduce_terminal`: a pair (block,
    finish). ``block`` applies the tangent to one block's maturity pairs
    (the simulated values meet a tangent nowhere else) and maps the log
    asset values to the :func:`_moments` of both payoffs, each taken over a
    power of two near the block's largest payoff, so a strike or asset
    value whose square is beyond the float range does not overflow them;
    ``finish`` merges the blocks' moments in block order into ((call,
    call_se), (put, put_se)). They must be simulated under the risk-neutral
    measure for prices to be meaningful. Up to 2¹² paths (one block) these
    are the mean and ``std(ddof=1) / sqrt(n)`` of the payoffs."""
    if not 0 <= strike < np.inf:
        raise DataValidationError("strike must be nonnegative and finite")
    w_a, h_a = tangent
    disc = np.exp(-tau * rate_log)

    def block(pairs):
        asset = np.exp(_linearized_log_asset(pairs.T, w_a, h_a))
        return (_moments(disc * np.maximum(asset - strike, 0.0)),
                _moments(disc * np.maximum(strike - asset, 0.0)))

    def finish(blocks):
        return tuple(_mean_se(functools.reduce(_merge_moments, payoff))
                     for payoff in zip(*blocks))

    return block, finish


def default_estimator(tangent, threshold):
    """Estimator of the frequency of {Ṽᵃ_T <= ln threshold} on the asset
    ``tangent``, as :func:`option_estimator`: a block gives its path and
    default counts, and ``finish`` the frequency of the summed counts with
    its binomial standard error."""
    if not 0 < threshold < np.inf:
        raise DataValidationError("threshold must be positive and finite")
    w_a, h_a = tangent
    log_threshold = np.log(threshold)

    def block(pairs):
        log_asset = _linearized_log_asset(pairs.T, w_a, h_a)
        return log_asset.shape[0], int(np.count_nonzero(log_asset <= log_threshold))

    def finish(blocks):
        n, hits = (sum(counts) for counts in zip(*blocks))
        p = hits / n
        return p, math.sqrt(max(p * (1.0 - p), 0.0) / n)

    return block, finish
