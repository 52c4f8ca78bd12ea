"""The package exposes only what a program path uses, and the command line
loads no scipy module."""

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
        "GaussianConditioningOracle",
    ],
    "privcredit.pricing": [
        "RiskNeutralSystem", "build_risk_neutral", "PricingReport",
        "horizon_cov_reference", "_I2",
    ],
    "privcredit.model": ["mean_log_multiplier", "asset_center"],
    "privcredit.simulate": [
        "LinearizationErrorReport", "linearization_error_report", "_normals",
    ],
    "privcredit.pricing.PricingContext": ["report_private"],
    "privcredit.model.LinearizationSchedule": ["asset_gain", "gain_matrix"],
    "privcredit.kalman.FilterOutput": ["multiplier_mean", "multiplier_cov"],
}

_PROBE = """
import importlib, json, sys
import privcredit.cli

def resolve(path):
    package, *parts = path.split(".")
    obj = importlib.import_module(package)
    for part in parts:
        obj = getattr(obj, part)
    return obj

before = "privcredit.oracle" in sys.modules
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
removed = json.loads(sys.argv[1])
present = [f"{owner}.{name}" for owner, names in removed.items()
           for name in names if hasattr(resolve(owner), name)]
print(json.dumps({"oracle_loaded": before, "scipy": scipy, "present": present}))
"""


def test_cli_import_skips_oracle_and_removed_names_are_gone():
    src = os.path.dirname(os.path.dirname(privcredit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(REMOVED)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout)
    assert result == {"oracle_loaded": False, "scipy": [], "present": []}
