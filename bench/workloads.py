"""Seeded inputs and operation lists for the three benchmark workloads.

Everything here is plain numpy and never imports ``privcredit``: the panels
are simulated from the model equations directly, with a Cholesky noise
factor and an explicitly seeded generator, so a change to the program's own
simulator cannot change what the benchmark feeds it.

Model, per period t = 1..T and component (equity, liability):

    gap_t    = ln(payout ratio_t) - k - (mu0 + (t - 1) phi)
    g_t      = 1 / (1 - exp(gap_t)),  h_t = -(gap_t exp(gap_t) / (1 - exp(gap_t))
                                              + ln(1 - exp(gap_t)))
    m_t      = m_{t-1} + phi + v_t,                       v_t ~ N(0, Sigma_v)
    growth_t = -m_t + g_t m_{t-1} + g_t k - (g_t - 1) ln(ratio_t) - h_t + u_t,
                                                          u_t ~ N(0, Sigma_u)

with m_0 ~ N(mu0, Sigma_0). Book values are the cumulated growth from the
initial books; payouts are the ratio times the previous book value.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("estimate", "portfolio", "mc-check")

# Parameter names in the order of the program's config keys.
PARAM_KEYS = (
    "k_equity", "k_liability",
    "mu0_equity", "mu0_liability",
    "phi_equity", "phi_liability",
    "sigma_u_equity", "sigma_u_liability", "rho_u",
    "sigma_v_equity", "sigma_v_liability", "rho_v",
    "sigma0_equity", "sigma0_liability", "rho0",
)

# Centre of the data-generating parameters (the recovery study's truth) and
# the half-width of the uniform jitter drawn around it for each firm.
_BASE = dict(
    k_equity=0.05, k_liability=0.035,
    mu0_equity=0.22, mu0_liability=0.09,
    phi_equity=5e-4, phi_liability=-3e-4,
    sigma_u_equity=0.05, sigma_u_liability=0.04, rho_u=0.15,
    sigma_v_equity=0.03, sigma_v_liability=0.03, rho_v=-0.11,
    sigma0_equity=0.1, sigma0_liability=0.1, rho0=0.0,
)
_JITTER = dict(
    k_equity=0.005, k_liability=0.005,
    mu0_equity=0.05, mu0_liability=0.05,
    phi_equity=2e-4, phi_liability=2e-4,
    sigma_u_equity=0.005, sigma_u_liability=0.005, rho_u=0.1,
    sigma_v_equity=0.005, sigma_v_liability=0.005, rho_v=0.1,
    sigma0_equity=0.02, sigma0_liability=0.02, rho0=0.1,
)
RATE = 0.012          # per-period risk-free rate, plain (the CLI logs it)
MAX_EXP_GAP = 0.9     # feasibility margin every input must keep
MAX_ABS_LOG_BOOK = 300.0
MAX_CALIBRATION_MARGIN = 0.8
# Payout-to-book levels near the required returns keep books roughly level.
PAYOUT_EQUITY = (0.04, 0.06)
PAYOUT_LIABILITY = (0.025, 0.045)

# Workload shapes. A run repeats passes over its op list for --seconds; an
# estimate pass is sized from --seconds instead, one pass of distinct panels.
# Cold fits all run their 200 iterations, so their cost hardly depends on the
# panel. A warm refit costs up to five times more on a panel whose line search
# rejects its steps than on one that accepts them, and which panels do is not
# visible in the data; sixteen panels a run leave the mean refit cost varying
# by a third between seeds. Warm refits therefore use a fixed pool of panels,
# drawn from WARM_POOL_SEED, and the seed sets the cold panels and the order.
COLD_PERIODS, COLD_FITS_PER_S = 100, 6 / 30
WARM_PERIODS, WARM_FITS_PER_S, WARM_MAX_ITER = 1600, 8 / 30, 2
WARM_POOL_SEED = 20221
PORTFOLIO_PERIODS, PORTFOLIO_FIRMS = 40, 40
CALIBRATE_MATURITY, PRICE_MATURITY, PD_MATURITY = 4, 20, 60
MC_PERIODS = 40
MC_WIDE = (200_000, (4, 8, 12))
MC_NARROW = (20_000, 60)


@dataclass(frozen=True)
class Truth:
    """One firm's data-generating parameters, as config values."""

    values: dict

    def cov(self, prefix, rho):
        s1 = self.values[f"{prefix}_equity"]
        s2 = self.values[f"{prefix}_liability"]
        off = self.values[rho] * s1 * s2
        return np.array([[s1 * s1, off], [off, s2 * s2]])

    def vec(self, prefix):
        return np.array([self.values[f"{prefix}_equity"],
                         self.values[f"{prefix}_liability"]])


def draw_truth(rng):
    return Truth({k: _BASE[k] + _JITTER[k] * rng.uniform(-1.0, 1.0)
                  for k in PARAM_KEYS})


def _constants(truth, log_ratio, first):
    """Gains, shifts and payout-gap exponentials for consecutive periods
    ``first``, ``first + 1``, ... (1-based), one row per period."""
    lag = np.arange(first - 1, first - 1 + log_ratio.shape[0])[:, None]
    gap = log_ratio - truth.vec("k") - (truth.vec("mu0") + lag * truth.vec("phi"))
    e = np.exp(gap)
    g = 1.0 / (1.0 - e)
    h = -(gap * e / (1.0 - e) + np.log1p(-e))
    return g, h, e


@dataclass(frozen=True)
class Firm:
    """A generated firm: truth, observed panel, future payout level and the
    true multiplier at the end of the sample."""

    truth: Truth
    books: np.ndarray
    payouts: np.ndarray
    level: np.ndarray
    m_last: np.ndarray

    @property
    def periods(self):
        return self.payouts.shape[0]

    def log_values_at(self, tau, measure):
        """Mean and variance of the log (equity, liability) market values
        ``tau`` periods past the sample, given the true final multiplier."""
        T, t = self.truth, self.periods
        lr = np.tile(np.log(self.level), (tau, 1))
        g, h, _ = _constants(T, lr, t + 1)
        var_u = T.vec("sigma_u") ** 2
        if measure == "real":
            c = g * T.vec("k") - (g - 1.0) * lr - h
        else:
            c = math.log1p(RATE) * g - (g - 1.0) * lr - h - 0.5 * var_u / g
        lead = np.arange(tau)[:, None]
        m_mean = self.m_last + lead * T.vec("phi")
        mean = np.log(self.books[-1]) + self.m_last + ((g - 1.0) * m_mean + c).sum(axis=0)
        var = tau * var_u + ((g - 1.0) ** 2 * lead * T.vec("sigma_v") ** 2).sum(axis=0)
        return mean, var

    def asset_quantile(self, tau, measure, z):
        """Approximate quantile of the maturity asset value Ve + Vl at
        standard-normal score ``z`` (tangent of the log-sum at the mean)."""
        mean, var = self.log_values_at(tau, measure)
        centre = np.logaddexp(mean[0], mean[1])
        w = np.exp(mean - centre)
        return math.exp(centre + z * math.sqrt(w @ (var * w)))

    def calibration_margin(self, tau):
        """Market equity now over the discounted strike-free asset value at
        maturity; calibration has a solution only below one."""
        mean, var = self.log_values_at(tau, "risk_neutral")
        free = math.exp(-tau * math.log1p(RATE)) * np.exp(mean + 0.5 * var).sum()
        return math.exp(self.m_last[0] + math.log(self.books[-1, 0])) / free


def simulate_firm(rng, truth, log_ratio, books0, level):
    """One exact model path from the truth."""
    T = log_ratio.shape[0]
    g, h, e = _constants(truth, log_ratio, 1)
    if e.max() >= 1.0:
        raise ValueError("infeasible linearization in generated panel")
    c = g * truth.vec("k") - (g - 1.0) * log_ratio - h
    chol_u = np.linalg.cholesky(truth.cov("sigma_u", "rho_u"))
    chol_v = np.linalg.cholesky(truth.cov("sigma_v", "rho_v"))
    chol_0 = np.linalg.cholesky(truth.cov("sigma0", "rho0"))
    m0 = truth.vec("mu0") + chol_0 @ rng.standard_normal(2)
    v = rng.standard_normal((T, 2)) @ chol_v.T
    u = rng.standard_normal((T, 2)) @ chol_u.T
    m = m0 + np.cumsum(truth.vec("phi") + v, axis=0)
    m_prev = np.vstack([m0, m[:-1]])
    growth = -m + g * m_prev + c + u
    log_books = np.log(books0) + np.vstack([np.zeros(2), np.cumsum(growth, axis=0)])
    books = np.exp(log_books)
    return Firm(truth, books, np.exp(log_ratio) * books[:-1], level, m[-1])


def _valid(firm, horizon, calibrate_at):
    lr = np.vstack([np.log(firm.payouts / firm.books[:-1]),
                    np.tile(np.log(firm.level), (horizon, 1))])
    _, _, e = _constants(firm.truth, lr, 1)
    return (
        e.max() <= MAX_EXP_GAP
        and np.isfinite(firm.books).all() and (firm.books > 0).all()
        and np.abs(np.log(firm.books)).max() <= MAX_ABS_LOG_BOOK
        and np.isfinite(firm.payouts).all() and (firm.payouts > 0).all()
        and (calibrate_at is None
             or firm.calibration_margin(calibrate_at) <= MAX_CALIBRATION_MARGIN)
    )


def draw_firm(rng, periods, horizon=0, calibrate_at=None):
    """A validated firm whose sample plus ``horizon`` periods keep every
    linearization comfortably feasible and every book value positive and
    finite, and whose threshold calibration at ``calibrate_at`` periods has a
    solution with room to spare. A draw that fails is replaced by the next
    draw from the same generator; these are properties of the model's
    answer, not of the program under test.
    """
    for _ in range(100):
        truth = draw_truth(rng)
        level = np.array([rng.uniform(*PAYOUT_EQUITY), rng.uniform(*PAYOUT_LIABILITY)])
        log_ratio = np.log(level) + 0.02 * rng.standard_normal((periods, 2))
        books0 = np.array([rng.uniform(3.0, 8.0), rng.uniform(4.0, 10.0)])
        firm = simulate_firm(rng, truth, log_ratio, books0, level)
        if _valid(firm, horizon, calibrate_at):
            return firm
    raise RuntimeError("no valid firm in 100 draws")


def panel_csv(books, payouts):
    """The panel in the program's CSV format (books 0..T, payouts 1..T)."""
    lines = ["period,book_equity,book_liability,payout_equity,payout_liability",
             f"0,{float(books[0, 0])!r},{float(books[0, 1])!r},,"]
    for i in range(1, books.shape[0]):
        lines.append(f"{i},{float(books[i, 0])!r},{float(books[i, 1])!r},"
                     f"{float(payouts[i - 1, 0])!r},{float(payouts[i - 1, 1])!r}")
    return "\n".join(lines) + "\n"


def config_text(values):
    return "".join(f"{k} = {v!r}\n" for k, v in values.items())


def _pricing_values(firm, extra):
    values = dict(firm.truth.values)
    values["rate"] = RATE
    values["payout_future_equity"] = float(firm.level[0])
    values["payout_future_liability"] = float(firm.level[1])
    values.update(extra)
    return values


def _write_panel(files, name, firm):
    files[f"{name}.csv"] = panel_csv(firm.books, firm.payouts)


def build_estimate(rng, files, seconds):
    rate = ["--rate", repr(RATE)]
    n_cold = max(1, round(seconds * COLD_FITS_PER_S))
    n_warm = max(1, round(seconds * WARM_FITS_PER_S))
    pool = np.random.Generator(np.random.PCG64(WARM_POOL_SEED))
    fits = []
    for kind, n, periods, max_iter, config, source in (
        ("cold", n_cold, COLD_PERIODS, 200, False, rng),
        ("warm", n_warm, WARM_PERIODS, WARM_MAX_ITER, True, pool),
    ):
        for i in range(n):
            name = f"{kind}{i}"
            firm = draw_firm(source, periods)
            _write_panel(files, name, firm)
            files[f"{name}.truth.cfg"] = config_text(firm.truth.values)
            start = ["--config", f"{name}.truth.cfg"] if config else []
            fits.append(dict(
                kind=kind,
                argv=["estimate", "--input", f"{name}.csv", *start, *rate,
                      "--max-iter", str(max_iter), "--tol", "1e-8"],
                reference=["filter", "--input", f"{name}.csv",
                           "--config", f"{name}.truth.cfg", *rate],
                work=1,
            ))
    warmup = dict(fits[0], argv=fits[0]["argv"][:-4] + ["--max-iter", "1", "--tol", "1e-8"])
    order = rng.permutation(len(fits))
    return _interleave([fits[i] for i in order]), warmup


def build_portfolio(rng, files, seconds):
    ops = []
    for i in range(PORTFOLIO_FIRMS):
        name = f"firm{i}"
        firm = draw_firm(rng, PORTFOLIO_PERIODS, PD_MATURITY, CALIBRATE_MATURITY)
        _write_panel(files, name, firm)
        files[f"{name}.cfg"] = config_text(_pricing_values(firm, {}))
        threshold = firm.asset_quantile(PD_MATURITY, "real", rng.uniform(-2.0, -0.5))
        files[f"{name}.pd.cfg"] = config_text(_pricing_values(firm, {"threshold": threshold}))
        strike = float(firm.books[-1, 1]) * rng.uniform(0.9, 1.1)
        common = ["--input", f"{name}.csv", "--config", f"{name}.cfg"]
        ops.append(dict(kind="calibrate", work=0, argv=[
            "calibrate-threshold", *common, "--maturity", str(CALIBRATE_MATURITY)]))
        ops.append(dict(kind="price", work=0, argv=[
            "price", *common, "--maturity", str(PRICE_MATURITY), "--strike", repr(strike)]))
        ops.append(dict(kind="default", work=1, argv=[
            "default-prob", "--input", f"{name}.csv", "--config", f"{name}.pd.cfg",
            "--maturity", str(PD_MATURITY)]))
    return ops, ops[0]


def build_mc_check(rng, files, seconds):
    wide_paths, wide_maturities = MC_WIDE
    narrow_paths, narrow_maturity = MC_NARROW
    shapes = [("wide", wide_paths, m) for m in wide_maturities]
    shapes.append(("narrow", narrow_paths, narrow_maturity))
    ops = []
    for i, (kind, paths, maturity) in enumerate(shapes):
        name = f"mc{i}"
        firm = draw_firm(rng, MC_PERIODS, maturity)
        _write_panel(files, name, firm)
        threshold = firm.asset_quantile(maturity, "real", rng.uniform(-1.5, -0.5))
        files[f"{name}.cfg"] = config_text(_pricing_values(firm, {"threshold": threshold}))
        strike = firm.asset_quantile(maturity, "risk_neutral", rng.uniform(-1.0, 1.0))
        mc_seed = int(rng.integers(1, 2**31))
        common = ["--input", f"{name}.csv", "--config", f"{name}.cfg",
                  "--maturity", str(maturity), "--check", "mc", "--paths", str(paths)]
        work = paths * maturity
        ops.append(dict(kind=kind, work=work, argv=[
            "price", *common, "--strike", repr(strike), "--seed", str(mc_seed)]))
        ops.append(dict(kind=kind, work=work, argv=[
            "default-prob", *common, "--seed", str(mc_seed + 1)]))
    return _interleave(ops), ops[0]


def _interleave(ops):
    """Order ops so that the kinds stay evenly mixed through a pass, which
    keeps the mix of a partial pass the same as that of a whole one."""
    kinds = sorted({op["kind"] for op in ops})
    share = {k: sum(op["kind"] == k for op in ops) for k in kinds}
    taken = dict.fromkeys(kinds, 0)
    out = []
    while len(out) < len(ops):
        k = min(kinds, key=lambda k: ((taken[k] + 0.5) / share[k], k))
        out.append([op for op in ops if op["kind"] == k][taken[k]])
        taken[k] += 1
    return out


_BUILDERS = {
    "estimate": build_estimate,
    "portfolio": build_portfolio,
    "mc-check": build_mc_check,
}

# The op kinds behind each workload's short_op_ms and long_op_ms, and the
# unit of work its work_per_s counts.
SHORT_LONG = {
    "estimate": ("cold", "warm"),
    "portfolio": ("calibrate", "default"),
    "mc-check": ("wide", "narrow"),
}
WORK_UNIT = {"estimate": "fits", "portfolio": "firms", "mc-check": "path-periods"}


def build(workload, seed, seconds):
    """Files (name -> text), the ops of one pass, and the warm-up op.

    ``seconds`` sizes the pass only where a pass must hold many distinct
    panels (``estimate``); the other workloads repeat a fixed pass.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    stream = WORKLOADS.index(workload)
    rng = np.random.Generator(np.random.PCG64([int(seed), stream]))
    files = {}
    ops, warmup = _BUILDERS[workload](rng, files, seconds)
    for i, op in enumerate(ops):
        op["id"] = i
    return files, ops, warmup


def write_files(directory, files):
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
