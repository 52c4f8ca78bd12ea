"""The package exposes only what a program path uses, and no module of it
loads scipy."""

import json
import os
import subprocess
import sys

import privcredit

# names the engine no longer defines, by the module that once held them
REMOVED = {
    "privcredit": [
        "RiskNeutralSystem", "build_risk_neutral", "PricingReport",
        "horizon_cov_reference", "mean_log_multiplier", "asset_center",
        "LinearizationErrorReport", "linearization_error_report",
        "GaussianConditioningOracle", "oracle", "binned_error_curve",
    ],
    "privcredit.pricing": [
        "RiskNeutralSystem", "build_risk_neutral", "PricingReport",
        "horizon_cov_reference", "_I2",
    ],
    "privcredit.model": ["mean_log_multiplier", "asset_center"],
    "privcredit.simulate": [
        "LinearizationErrorReport", "linearization_error_report", "_normals",
        "binned_error_curve",
    ],
    "privcredit.pricing.PricingContext": ["report_private"],
    "privcredit.model.LinearizationSchedule": ["asset_gain", "gain_matrix"],
    "privcredit.kalman.FilterOutput": ["multiplier_mean", "multiplier_cov"],
}

_PROBE = """
import importlib, json, pkgutil, sys
import privcredit.cli

def resolve(path):
    package, *parts = path.split(".")
    obj = importlib.import_module(package)
    for part in parts:
        obj = getattr(obj, part)
    return obj

before = "privcredit.oracle" in sys.modules
modules = sorted(info.name for info in pkgutil.iter_modules(privcredit.__path__))
for name in modules:
    importlib.import_module("privcredit." + name)
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
removed = json.loads(sys.argv[1])
present = [f"{owner}.{name}" for owner, names in removed.items()
           for name in names if hasattr(resolve(owner), name)]
print(json.dumps({"oracle_loaded": before, "modules": modules,
                  "scipy": scipy, "present": present}))
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
    assert result == {"oracle_loaded": False, "modules": modules,
                      "scipy": [], "present": []}
