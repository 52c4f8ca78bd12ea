"""Correctness checks on one operation's report.

Standard library only, so a worker can load it before it times its own
import of the program.
"""

import math

MAX_ABS_Z = 4.0                 # Monte Carlo against closed form
MAX_REPRICE_RESIDUAL = 1e-8     # calibrated threshold reprices the target
# The relative decrease of the observed log-likelihood that em_fit's line
# search accepts in one iteration (its ``ll_slack``). A fit started at the
# truth can end that far below it, so the fit check allows it per iteration;
# shortfall() reports every such fit, so the decrease stays visible.
EM_LOGLIK_SLACK = 1e-8


def _unit_interval(name, value):
    if not 0.0 <= value <= 1.0:
        return [f"{name} = {value!r} outside [0, 1]"]
    return []


def check_report(command, report, reference=None):
    """Failure messages for one report (empty when it is correct).

    ``reference`` is the log-likelihood of the data-generating parameters on
    the same panel, required for ``estimate``: a fit must reach at least it,
    less the slack em_fit accepts per iteration.
    """
    problems = []
    if command == "estimate":
        if reference is None:
            problems.append("truth loglik unavailable: the reference run failed")
        else:
            allowed = (EM_LOGLIK_SLACK * max(1.0, abs(reference))
                       * report["estimation"]["iterations"])
            if not report["loglik"] >= reference - allowed:
                problems.append(f"fit loglik {report['loglik']!r} below truth "
                                f"loglik {reference!r} by more than {allowed:.3g}")
    elif command == "calibrate-threshold":
        if not report["reprice_rel_residual"] <= MAX_REPRICE_RESIDUAL:
            problems.append(
                f"reprice_rel_residual {report['reprice_rel_residual']!r} "
                f"> {MAX_REPRICE_RESIDUAL}")
        problems += _unit_interval("prob_default_private",
                                   report["prob_default_private"])
    elif command == "price":
        for key in ("call", "put", "equity_value", "debt_value"):
            value = report["private"][key]
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"private {key} = {value!r}")
    elif command == "default-prob":
        problems += _unit_interval("prob_default_private",
                                   report["prob_default_private"])
    for key, value in report.get("mc_check", {}).items():
        if key.endswith("_z") and not abs(value) <= MAX_ABS_Z:
            problems.append(f"mc_check {key} = {value!r}, |z| > {MAX_ABS_Z}")
    return problems


def shortfall(command, report, reference):
    """Relative amount by which a fit's log-likelihood falls short of the
    truth's (0.0 when it does not, or the report is not a fit)."""
    if command != "estimate" or reference is None:
        return 0.0
    return max(0.0, (reference - report["loglik"]) / max(1.0, abs(reference)))
