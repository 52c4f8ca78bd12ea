"""The package exposes only what a program path uses, the CLI binds no
private function of ``simulate`` or ``model``, no module of the package
loads scipy, the CLI loads no ``concurrent.futures`` (its import costs every
command's start-up), estimation does its 2×2 algebra without numpy.linalg,
and ``simulate`` writes the configured books and payout ratios unrounded."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import privcredit
from privcredit.cli import main
from privcredit.errors import (
    DataValidationError,
    DegenerateDesignError,
    IllConditionedInnovationError,
    InfeasibleLinearizationError,
    NoSolutionError,
    PrivCreditError,
)

# names the engine no longer defines, by the module that once held them
REMOVED = {
    "privcredit": [
        "RiskNeutralSystem", "build_risk_neutral", "PricingReport",
        "horizon_cov_reference", "mean_log_multiplier", "asset_center",
        "LinearizationErrorReport", "linearization_error_report",
        "GaussianConditioningOracle", "oracle", "binned_error_curve",
        "asset_log_moments_public", "asset_log_moments_private",
        "attach_asset_constants", "mean_log_book_path", "SmoothedStats",
        "ForecastOutput", "forecast", "filter_and_forecast",
        "simulate_terminal", "mc_option_price", "mc_default_probability",
        "linearized_log_asset", "asset_weight_vector",
    ],
    "privcredit.pricing": [
        "RiskNeutralSystem", "build_risk_neutral", "PricingReport",
        "horizon_cov_reference", "_I2",
        "asset_log_moments_public", "asset_log_moments_private",
        "extend_payout_ratio", "filter_and_forecast",
    ],
    "privcredit.model": [
        "mean_log_multiplier", "asset_center", "attach_asset_constants",
        "linearized_log_asset", "asset_weight_vector",
    ],
    "privcredit.simulate": [
        "LinearizationErrorReport", "linearization_error_report", "_normals",
        "binned_error_curve", "mean_log_book_path", "_terminal_values",
        "_discard", "simulate_terminal", "_estimate", "mc_option_price",
        "mc_default_probability",
    ],
    "privcredit.pricing.PricingContext": [
        "report_private", "asset_moments_private", "asset_moments_public",
        "price_private", "price_public", "default_prob_private",
        "default_prob_public", "filter_real", "filter_rn",
    ],
    "privcredit.cli": [
        "_params_dict", "_pricing_setup",
        "_EXIT_VALIDATION", "_EXIT_NUMERICAL", "_EXIT_NO_SOLUTION", "_option",
        "_fit_or_load",
    ],
    "privcredit.io": ["_to_jsonable", "coerce"],
    "privcredit.model.LinearizationSchedule": [
        "asset_gain", "gain_matrix", "has_asset_constants",
        "center", "asset_center", "asset_weight", "asset_shift",
    ],
    "privcredit.simulate.SimulatedPanel": [
        "log_asset_lin", "asset_weight", "asset_shift", "start", "config",
        "n_periods",
    ],
    "privcredit.kalman.FilterOutput": ["multiplier_mean", "multiplier_cov"],
    "privcredit.kalman": ["ForecastOutput", "forecast"],
    "privcredit.em": ["_gaussian_block_term", "_residual_pieces", "SmoothedStats"],
    "privcredit.em.MomentSums": ["reference", "init"],
}

_PROBE = """
import dataclasses, importlib, json, pkgutil, sys
import privcredit.cli

def resolve(path):
    package, *parts = path.split(".")
    obj = importlib.import_module(package)
    for part in parts:
        obj = getattr(obj, part)
    return obj

def defines(owner, name):
    # a dataclass field without a default is no class attribute
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in {f.name for f in fields}

before = "privcredit.oracle" in sys.modules
futures = "concurrent.futures" in sys.modules
modules = sorted(info.name for info in pkgutil.iter_modules(privcredit.__path__))
for name in modules:
    importlib.import_module("privcredit." + name)
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
removed = json.loads(sys.argv[1])
present = [f"{owner}.{name}" for owner, names in removed.items()
           for name in names if defines(resolve(owner), name)]
print(json.dumps({"oracle_loaded": before, "futures_loaded": futures,
                  "modules": modules, "scipy": scipy, "present": present}))
"""


def test_cli_import_skips_oracle_and_removed_names_are_gone():
    package_dir = os.path.dirname(privcredit.__file__)
    src = os.path.dirname(package_dir)
    modules = sorted(name[:-3] for name in os.listdir(package_dir)
                     if name.endswith(".py") and name != "__init__.py")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(REMOVED)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout)
    assert "simulate" in modules and "oracle" not in modules
    assert result == {"oracle_loaded": False, "futures_loaded": False,
                      "modules": modules, "scipy": [], "present": []}


def test_cli_binds_no_private_function_of_simulate_or_model():
    # the Monte Carlo check's worker-side steps (the tangent, the block
    # statistics) live behind simulate's public estimators, so the CLI
    # reaches no private helper of the layers below it. em._forward_pass
    # stays a private import on purpose: a layer tracer wraps every public
    # function, so a public forward pass would become the parent of the
    # line search's run_filter spans and zero the per-iteration count of
    # line-search filter calls that the benchmark reads under em_fit
    from privcredit import cli

    bound = sorted(f"{obj.__module__}.{obj.__name__}" for obj in vars(cli).values()
                   if inspect.isfunction(obj) and obj.__name__.startswith("_")
                   and obj.__module__ in ("privcredit.simulate", "privcredit.model"))
    assert bound == []


class _AdHocError(PrivCreditError):
    """An error type the CLI has never heard of: its own declaration rules."""

    exit_code, label = 3, "no solution"


_RAISED = [
    (PrivCreditError("base"), 2, "error: base\n"),
    (DataValidationError("bad cell"), 1, "error: bad cell\n"),
    (InfeasibleLinearizationError(3, 1, 1.5), 2,
     "numerical error: infeasible linearization at period 3, liability "
     "component: exp(payout gap) = 1.5 >= 1\n"),
    (IllConditionedInnovationError("singular F"), 2, "numerical error: singular F\n"),
    (DegenerateDesignError("singular design"), 2,
     "numerical error: singular design\n"),
    (NoSolutionError("unattainable"), 3, "no solution: unattainable\n"),
    (_AdHocError("declared"), 3, "no solution: declared\n"),
]


def test_every_error_type_is_raised_below():
    engine = {error for error in PrivCreditError.__subclasses__()
              if error.__module__ == "privcredit.errors"}
    assert {type(error) for error, _, _ in _RAISED} >= {PrivCreditError, *engine}


@pytest.mark.parametrize("error, code, err", _RAISED,
                         ids=[type(error).__name__ for error, _, _ in _RAISED])
def test_each_error_type_exits_with_the_status_it_declares(
    monkeypatch, capsys, error, code, err
):
    # the handler raises; main reports the type's label and exit status
    from privcredit import cli

    def fail(args, cfg):
        raise error

    _, keys, flags = cli._COMMANDS["estimate"]
    monkeypatch.setitem(cli._COMMANDS, "estimate", (fail, keys, flags))
    assert (main(["estimate"]), *capsys.readouterr()) == (code, "", err)


_PANEL_CONFIG = """
k_equity = 0.04
k_liability = 0.03
mu0_equity = 0.25
mu0_liability = 0.10
phi_equity = 0.002
phi_liability = -0.001
sigma_u_equity = 0.05
sigma_u_liability = 0.04
rho_u = 0.2
sigma_v_equity = 0.03
sigma_v_liability = 0.03
rho_v = -0.1
sigma0_equity = 0.14
sigma0_liability = 0.14
periods = 30
seed = 5
book0_equity = 5.0
book0_liability = 6.0
payout_ratio_equity = 0.25
payout_ratio_liability = 0.25
"""


def test_estimate_calls_no_small_matrix_lapack(tmp_path, monkeypatch):
    cfg, panel = tmp_path / "sim.cfg", tmp_path / "panel.csv"
    cfg.write_text(_PANEL_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--output", str(panel)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the estimation path")

    for name in ("inv", "solve", "cholesky", "cond", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "report.json"
    assert main(["estimate", "--input", str(panel), "--rate", "0.0101",
                 "--max-iter", "40", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["estimation"]["iterations"] > 1


def test_simulate_writes_the_configured_first_books(tmp_path):
    # row 0 holds book0 itself, not exp(log book0), and the first payouts
    # are taken from it; later rows come from the simulated log books
    cfg, panel = tmp_path / "sim.cfg", tmp_path / "panel.csv"
    cfg.write_text(_PANEL_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--output", str(panel)]) == 0
    rows = [line.split(",") for line in panel.read_text().splitlines()]
    assert rows[1] == ["0", "5.0", "6.0", "", ""]
    assert rows[2][3:] == ["1.25", "1.5"]
    truth = json.loads((tmp_path / "panel.csv.truth.json").read_text())
    assert len(rows) == 2 + len(truth["true_multipliers"]) - 1


def test_simulate_pays_the_configured_ratio_of_the_book(tmp_path):
    # 0.08 × 5.0 is 0.4, where exp(ln 0.08) × 5.0 is 0.3999999999999999
    cfg, panel = tmp_path / "sim.cfg", tmp_path / "panel.csv"
    cfg.write_text(_PANEL_CONFIG.replace("payout_ratio_equity = 0.25",
                                         "payout_ratio_equity = 0.08"))
    assert main(["simulate", "--config", str(cfg), "--output", str(panel)]) == 0
    rows = [line.split(",") for line in panel.read_text().splitlines()[1:]]
    assert rows[1][3:] == ["0.4", "1.5"]
    for prev, row in zip(rows, rows[1:]):
        assert float(row[3]) == 0.08 * float(prev[1])
        assert float(row[4]) == 0.25 * float(prev[2])
