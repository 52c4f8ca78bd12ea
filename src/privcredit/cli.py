"""Batch command-line interface.

Subcommands cover the full pipeline: ``simulate`` emits an ingestible panel
plus a truth sidecar; ``estimate`` fits the model; ``filter`` / ``smooth`` /
``forecast`` expose the state-space inferences; ``price``,
``default-prob`` and ``calibrate-threshold`` run the valuation layer;
``--check mc`` embeds a Monte Carlo cross-check in a ``price`` or
``default-prob`` report. ``_COMMANDS`` declares each command's handler,
config keys and the flags it reads, the only ones it accepts, spelled in
full. Every config value is typed as the file is read (``_INT_KEYS``), and
a flag given on the command line overrides the config's value of its key.

Exit codes: 0 success or ``--help``; an engine error exits with the status
its type declares (1 input/config validation, 2 numerical failure, 3 no
solution), and a usage error, a file that cannot be opened or an allocation
that fails exit 1. All runs are deterministic for a fixed config and seed.
"""

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import io as pio
from .em import MAX_ITER, TOL, _forward_pass, em_fit, smoothed_market_values
from .errors import DataValidationError, PrivCreditError
from .kalman import run_filter, smooth  # noqa: F401  (tracers rebind run_filter here)
from .model import ModelParams, build_linearization_schedule
from .pricing import build_pricing_context, equity_debt_values
from .simulate import (
    SimConfig,
    default_estimator,
    option_estimator,
    reduce_terminal,
    simulate_panel,
)

_PARAM_KEYS = (
    "k_equity", "k_liability",
    "mu0_equity", "mu0_liability",
    "phi_equity", "phi_liability",
    "sigma_u_equity", "sigma_u_liability", "rho_u",
    "sigma_v_equity", "sigma_v_liability", "rho_v",
    "sigma0_equity", "sigma0_liability", "rho0",
)
_SIM_KEYS = _PARAM_KEYS + (
    "rate", "periods", "seed",
    "book0_equity", "book0_liability",
    "payout_ratio_equity", "payout_ratio_liability",
)
_ESTIMATE_KEYS = _PARAM_KEYS + ("rate", "max_iter", "tol")
_PRICING_KEYS = _ESTIMATE_KEYS + (
    "maturity", "strike", "threshold",
    "payout_future_equity", "payout_future_liability",
    "m_t_equity", "m_t_liability",
    "paths", "seed",
)
# config values parse as floats, but those of these keys as integers
_INT_KEYS = ("periods", "seed", "max_iter", "maturity", "paths")


def _cov(s1, s2, rho):
    off = rho * s1 * s2
    return np.array([[s1 * s1, off], [off, s2 * s2]])


def _params_from_config(cfg, rate):
    """Full parameter vector from config keys, or None when absent."""
    present = [k for k in _PARAM_KEYS if k in cfg]
    if not present:
        return None
    missing = [k for k in _PARAM_KEYS if k not in cfg and not k.startswith("rho")]
    if missing:
        raise DataValidationError(
            f"config supplies some parameters but misses {missing}"
        )

    def f(key, default=None):
        value = cfg.get(key, default)
        if not math.isfinite(value):
            raise DataValidationError(f"{key} must be finite (got {value!r})")
        return value

    for key in _PARAM_KEYS:
        if key.startswith("sigma") and f(key) < 0:
            raise DataValidationError(f"{key} must be nonnegative (got {f(key)!r})")
    return ModelParams(
        req_return=np.array([f("k_equity"), f("k_liability")]),
        init_mean=np.array([f("mu0_equity"), f("mu0_liability")]),
        init_cov=_cov(f("sigma0_equity"), f("sigma0_liability"), f("rho0", 0.0)),
        drift=np.array([f("phi_equity"), f("phi_liability")]),
        meas_cov=_cov(f("sigma_u_equity"), f("sigma_u_liability"), f("rho_u", 0.0)),
        state_cov=_cov(f("sigma_v_equity"), f("sigma_v_liability"), f("rho_v", 0.0)),
        rate_log=rate,
    )


def _feasibility(schedule):
    """Outcome of the per-period feasibility check exp(payout gap) < 1."""
    margin = np.exp(schedule.gap[1:]).max(axis=1)
    return {
        "feasible": bool((margin < 1.0).all()),
        "max_exp_gap_per_period": margin,
        "max_exp_gap": float(margin.max()),
    }


def _rate(cfg):
    """ln(1 + r) of the per-period risk-free rate r, which must be finite
    and above −1."""
    rate = cfg.get("rate", 0.0)
    if not -1.0 < rate < math.inf:
        raise DataValidationError(f"rate must be finite and above -1 (got {rate!r})")
    return float(np.log1p(rate))


def _em_settings(cfg):
    """EM iteration cap and tolerance."""
    max_iter, tol = cfg.get("max_iter", MAX_ITER), cfg.get("tol", TOL)
    if max_iter < 0 or not 0 <= tol < math.inf:
        raise DataValidationError("max_iter must be >= 0 and tol finite and >= 0")
    return max_iter, tol


def _fit_summary(trace):
    """The iteration count, termination and log-likelihood trace of a fit."""
    return {"iterations": trace.n_iterations, "termination": trace.termination,
            "loglik_trace": trace.loglik}


def _load(cfg):
    """ln(1 + r) and the configured parameters, None when absent."""
    rate_log = _rate(cfg)
    return rate_log, _params_from_config(cfg, rate_log)


def _fit(cfg, series, rate_log, params):
    """Configured ``params``, or when None an in-run fit's, with the fit's
    summary and trace (None for configured parameters)."""
    if params is not None:
        return params, None, None
    max_iter, tol = _em_settings(cfg)
    params, trace = em_fit(series, rate_log=rate_log, max_iter=max_iter, tol=tol)
    return params, _fit_summary(trace), trace


def cmd_simulate(args, cfg):
    rate_log = _rate(cfg)
    params = _params_from_config(cfg, rate_log)
    if params is None:
        raise DataValidationError("simulate requires model parameters in --config")
    for key in ("periods", "book0_equity", "book0_liability",
                "payout_ratio_equity", "payout_ratio_liability"):
        if key not in cfg:
            raise DataValidationError(f"config key {key!r} is required")
    periods, seed = cfg["periods"], cfg.get("seed", 0)
    config = SimConfig(n_paths=1, horizon=periods, seed=seed, measure="real")
    book0 = np.array([cfg["book0_equity"], cfg["book0_liability"]])
    if not (np.isfinite(book0).all() and (book0 > 0).all()):
        raise DataValidationError("book0 values must be strictly positive and finite")
    payout = np.array([cfg["payout_ratio_equity"], cfg["payout_ratio_liability"]])
    if not (payout > 0).all():
        raise DataValidationError("payout ratios must be strictly positive")
    ratio = np.tile(np.log(payout), (periods, 1))
    if not args.output:
        raise DataValidationError("simulate requires --output for the CSV panel")
    schedule = build_linearization_schedule(params, ratio, periods)
    panel = simulate_panel(params, schedule, config, np.log(book0))
    books = np.exp(panel.log_books[0])
    books[0] = book0
    payouts = payout * books[:-1]
    pio.write_panel_csv(args.output, books, payouts)
    truth = {
        "command": "simulate",
        "seed": seed,
        "params": dataclasses.asdict(params),
        "true_multipliers": panel.multipliers[0],
        "feasibility": _feasibility(schedule),
        "output": args.output,
    }
    pio.write_report(truth, path=args.output + ".truth.json")
    return 0


def _read_panel(args):
    """The panel CSV named by ``--input`` (all commands but ``simulate``)."""
    if not args.input:
        raise DataValidationError(f"{args.command} requires --input (panel CSV)")
    return pio.ingest(args.input)


def _write(args, report, params, estimation):
    """Write ``report`` with the command, the input and the parameters, and
    the in-run fit's summary when there was one (keys print sorted)."""
    report.update(command=args.command, input=args.input,
                  params=dataclasses.asdict(params))
    if estimation is not None:
        report["estimation"] = estimation
    pio.write_report(report, path=args.output, stream=sys.stdout)
    return 0


def _series_report_core(series, params, trace=None):
    """Filter and smoother fields at ``params``, smoothing the forward pass
    an EM ``trace`` ended with, or one run here for configured parameters;
    the report, that pass and its smoother output."""
    schedule, filt = ((trace.schedule, trace.filter_output) if trace
                      else _forward_pass(params, series))
    smoothed = smooth(filt)
    report = {
        "feasibility": _feasibility(schedule),
        "loglik": filt.loglik,
        "filtered_multipliers": filt.m_filt,
        "smoothed_multipliers": smoothed.m_smooth,
        "smoothed_market_values": smoothed_market_values(smoothed, series),
    }
    return report, filt, smoothed


def cmd_estimate(args, cfg):
    series = _read_panel(args)
    rate_log = _rate(cfg)
    max_iter, tol = _em_settings(cfg)
    params, trace = em_fit(
        series, params_init=_params_from_config(cfg, rate_log),
        rate_log=rate_log, max_iter=max_iter, tol=tol,
    )
    estimation = {
        **_fit_summary(trace),
        "lambda_before": trace.lambda_before,
        "lambda_after": trace.lambda_after,
        "max_change": trace.max_change,
    }
    report, _, _ = _series_report_core(series, params, trace)
    return _write(args, report, params, estimation)


def cmd_filter(args, cfg):
    series = _read_panel(args)
    params, estimation, trace = _fit(cfg, series, *_load(cfg))
    report, filt, _ = _series_report_core(series, params, trace)
    report["filtered_multiplier_cov"] = filt.cov_m_filt
    report["predicted_growth"] = filt.b_pred[1:]
    return _write(args, report, params, estimation)


def cmd_smooth(args, cfg):
    series = _read_panel(args)
    params, estimation, trace = _fit(cfg, series, *_load(cfg))
    report, _, smoothed = _series_report_core(series, params, trace)
    report["smoothed_multiplier_cov"] = smoothed.cov_m_smooth
    return _write(args, report, params, estimation)


def cmd_forecast(args, cfg):
    params, estimation, ctx = _horizon_setup(_read_panel(args), cfg)
    report = {
        "feasibility": _feasibility(ctx.schedule),
        "forecast_growth": ctx.moments.b_mean,
        "forecast_growth_cov": ctx.moments.cov_b,
        "forecast_multipliers": ctx.moments.m_mean,
        "forecast_log_books": ctx.log_books[ctx.origin + 1 :],
    }
    return _write(args, report, params, estimation)


def _future_payout(cfg):
    """The configured log payout-to-book ratios for periods past the sample."""
    eq, li = cfg.get("payout_future_equity"), cfg.get("payout_future_liability")
    if eq is None or li is None:
        raise DataValidationError(
            "pricing horizons past the sample need payout_future_equity and "
            "payout_future_liability in the config (payout-to-book ratios)"
        )
    if not (0 < eq < math.inf and 0 < li < math.inf):
        raise DataValidationError(
            "future payout ratios must be strictly positive and finite"
        )
    return np.log([eq, li])


def _horizon_setup(series, cfg):
    """Parameters, the in-run fit's summary (None for configured ones) and
    the pricing context over the ``series`` plus the maturity horizon. The
    configured parameters, the maturity and the future payouts are checked
    before an in-run fit starts."""
    rate_log, params = _load(cfg)
    maturity = cfg.get("maturity")
    if maturity is None or maturity < 1:
        raise DataValidationError("a positive --maturity is required")
    payout = _future_payout(cfg)
    params, estimation, _ = _fit(cfg, series, rate_log, params)
    return params, estimation, build_pricing_context(params, series, maturity, payout)


def _public_multiplier(cfg):
    """The configured public multiplier m_t, None when neither half is given."""
    eq, li = cfg.get("m_t_equity"), cfg.get("m_t_liability")
    if eq is None and li is None:
        return None
    if eq is None or li is None:
        missing = "m_t_equity" if eq is None else "m_t_liability"
        raise DataValidationError(f"a public multiplier needs {missing} in the config too")
    if not (math.isfinite(eq) and math.isfinite(li)):
        raise DataValidationError("m_t_equity and m_t_liability must be finite")
    return np.array([eq, li])


def _mc_terminal(cfg, ctx, measure, estimator):
    """Paths and seed of a Monte Carlo check, and the ``estimator`` of
    :mod:`simulate` over the maturity pairs simulated from the origin
    posterior under ``measure`` (:func:`simulate.reduce_terminal`)."""
    paths, seed = cfg.get("paths", 200_000), cfg.get("seed", 0)
    mean, cov = ctx.posterior(measure)
    return {"paths": paths, "seed": seed}, reduce_terminal(
        ctx.params, ctx.schedule, SimConfig(paths, ctx.tau, seed, measure=measure),
        ctx.log_books[ctx.origin], estimator, start=ctx.origin, init_mean=mean,
        init_cov=cov)


def _mc_fields(name, value, mc, se, resolution):
    """MC estimate and standard error of the closed-form ``value``, with the
    standardized miss z. The standard error is estimated from the same
    paths, so at a handful of paths z is not on the normal scale: at 3
    paths correct checks read |z| from 12 to 85. A zero standard error (all
    paths agree) admits a miss below 1 % of ``resolution``, one path's
    weight at the payoff's scale, so under 0.01 paths are expected to
    differ; an infinite one (one path) admits only a zero miss."""
    diff = value - mc
    if 0 < se < math.inf:
        z = diff / se
    else:
        bound = 0.01 * resolution if se == 0 else 1e-12
        z = 0.0 if abs(diff) < bound else math.inf
    return {f"{name}_mc": mc, f"{name}_se": se, f"{name}_z": z}


def _valuation(ctx, strike, m_t=None):
    """Call, put, equity and debt at ``strike``; ``m_t`` prices a public firm."""
    call, put = ctx.price(strike, m_t)
    equity, debt = equity_debt_values(call, put, strike, ctx.tau, ctx.params.rate_log)
    return {"call": call, "put": put, "equity_value": equity, "debt_value": debt}


def cmd_price(args, cfg):
    series = _read_panel(args)
    strike = cfg.get("strike")
    if strike is None:
        raise DataValidationError("price requires --strike (debt nominal)")
    m_t = _public_multiplier(cfg)
    params, estimation, ctx = _horizon_setup(series, cfg)
    report = {
        "origin": ctx.origin,
        "maturity": ctx.maturity,
        "strike": strike,
        "feasibility": _feasibility(ctx.schedule),
        "private": _valuation(ctx, strike),
    }
    if m_t is not None:
        report["public"] = {"multiplier": m_t, **_valuation(ctx, strike, m_t)}
    if args.check == "mc":
        check, prices = _mc_terminal(cfg, ctx, "risk_neutral", option_estimator(
            ctx.tangent, strike, ctx.tau, params.rate_log))
        resolution = strike * math.exp(-ctx.tau * params.rate_log) / check["paths"]
        for name, (mc, se) in zip(("call", "put"), prices):
            check.update(_mc_fields(name, report["private"][name], mc, se, resolution))
        report["mc_check"] = check
    return _write(args, report, params, estimation)


def cmd_default_prob(args, cfg):
    series = _read_panel(args)
    threshold, m_t = cfg.get("threshold"), _public_multiplier(cfg)
    params, estimation, ctx = _horizon_setup(series, cfg)
    calibrated = threshold is None
    if calibrated:
        threshold = ctx.calibrate_threshold()
    pd_private = ctx.default_prob(threshold)
    report = {
        "origin": ctx.origin,
        "maturity": ctx.maturity,
        "threshold": threshold,
        "threshold_calibrated": calibrated,
        "feasibility": _feasibility(ctx.schedule),
        "prob_default_private": pd_private,
    }
    if m_t is not None:
        report["prob_default_public"] = ctx.default_prob(threshold, m_t)
        report["public_multiplier"] = m_t
    if args.check == "mc":
        check, (pd_mc, pd_se) = _mc_terminal(cfg, ctx, "real",
                                             default_estimator(ctx.tangent, threshold))
        check.update(_mc_fields("pd", pd_private, pd_mc, pd_se, 1.0 / check["paths"]))
        report["mc_check"] = check
    return _write(args, report, params, estimation)


def cmd_calibrate_threshold(args, cfg):
    params, estimation, ctx = _horizon_setup(_read_panel(args), cfg)
    threshold = ctx.calibrate_threshold()
    target = ctx.target_equity()
    repriced = ctx.price(threshold)[0]
    report = {
        "origin": ctx.origin,
        "maturity": ctx.maturity,
        "threshold": threshold,
        "target_equity": target,
        "repriced_call": repriced,
        "reprice_rel_residual": abs(repriced - target) / target,
        "prob_default_private": ctx.default_prob(threshold),
        "feasibility": _feasibility(ctx.schedule),
    }
    return _write(args, report, params, estimation)


_FLAGS = {
    "input": dict(help="panel CSV path"),
    "config": dict(help="flat key = value config file"),
    "output": dict(help="report path (stdout when omitted)"),
    "rate": dict(type=float, help="per-period risk-free rate (not logged)"),
    "max-iter": dict(type=int),
    "tol": dict(type=float),
    "maturity": dict(type=int, help="periods beyond the last observation"),
    "strike": dict(type=float),
    "check": dict(choices=["mc"]),
    "paths": dict(type=int),
    "seed": dict(type=int),
}
_FIT_FLAGS = ("input", "config", "output", "rate", "max-iter", "tol")
_HORIZON_FLAGS = _FIT_FLAGS + ("maturity",)
_MC_FLAGS = ("check", "paths", "seed")

# command: (handler, config keys, flags it reads)
_COMMANDS = {
    "simulate": (cmd_simulate, _SIM_KEYS, ("config", "output", "rate", "seed")),
    "estimate": (cmd_estimate, _ESTIMATE_KEYS, _FIT_FLAGS),
    "filter": (cmd_filter, _ESTIMATE_KEYS, _FIT_FLAGS),
    "smooth": (cmd_smooth, _ESTIMATE_KEYS, _FIT_FLAGS),
    "forecast": (cmd_forecast, _PRICING_KEYS, _HORIZON_FLAGS),
    "price": (cmd_price, _PRICING_KEYS, _HORIZON_FLAGS + ("strike",) + _MC_FLAGS),
    "default-prob": (cmd_default_prob, _PRICING_KEYS, _HORIZON_FLAGS + _MC_FLAGS),
    "calibrate-threshold": (cmd_calibrate_threshold, _PRICING_KEYS, _HORIZON_FLAGS),
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="privcredit",
        description="Structural credit risk for private companies from book data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or the usage and the error
        return DataValidationError.exit_code if exc.code else 0
    handler, keys, _ = _COMMANDS[args.command]
    types = {key: int if key in _INT_KEYS else float for key in keys}
    try:
        cfg = pio.parse_config(args.config, types) if args.config else {}
        # a flag given on the command line overrides the config
        cfg.update((key, value) for key, value in vars(args).items()
                   if key in types and value is not None)
        return handler(args, cfg)
    except PrivCreditError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # an unreadable or unwritable file: the OSError message names it
        print(f"error: {exc}", file=sys.stderr)
        return DataValidationError.exit_code
    except MemoryError as exc:
        # numpy names the array it could not allocate, e.g. for a --paths too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return DataValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
