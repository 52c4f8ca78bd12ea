"""Span tracing of privcredit's layers from outside the program.

:class:`Tracer` wraps the public functions of each layer module and rebinds
every name that refers to them in every ``privcredit`` module, because
``em``, ``cli`` and ``pricing`` bind their collaborators with
``from ... import``. Each call records a span (name, operation id, parent
span, start, end and a size where the layer has one), kept in memory;
:meth:`Tracer.restore` puts the original functions back.

:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

import functools
import inspect
import json
import sys
import time

PACKAGE = "privcredit"
LAYERS = ("cli", "io", "model", "kalman", "em", "pricing", "simulate")

_FLOAT = 8  # bytes


def _filter_periods(args, kwargs, result):
    return len(kwargs["growth"] if "growth" in kwargs else args[2])


def _smooth_periods(args, kwargs, result):
    return result.m_smooth.shape[0] - 1


def _forecast_periods(args, kwargs, result):
    return result.b_mean.shape[0] - result.start


def _panel_size(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[2]
    n, p = config.n_paths, config.horizon
    out = sum(getattr(result, name).nbytes for name in (
        "multipliers", "growth", "log_books", "log_values",
        "log_asset_exact", "log_asset_lin"))
    draws = (2 * n + 4 * n * p * 2) * _FLOAT   # e0, ev, eu and their factors
    return {"path_periods": n * p, "bytes": out + draws}


def _em_outcome(args, kwargs, result):
    trace = result[1]
    return {"iterations": trace.n_iterations,
            "accepted": trace.n_iterations - (trace.termination == "stalled")}


SIZERS = {
    "kalman.run_filter": _filter_periods,
    "kalman.smooth": _smooth_periods,
    "kalman.forecast": _forecast_periods,
    "simulate.simulate_panel": _panel_size,
    "em.em_fit": _em_outcome,
}


class Tracer:
    """In-memory span recorder for the wrapped layer functions.

    A span is ``[name, op_id, parent, start, end, size]``; ``parent`` is the
    index of the enclosing span, or -1 for a root.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op_id = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.op_id, self._stack[-1] if self._stack else -1,
                    self.clock(), None, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self.clock()
                self._stack.pop()
            if sizer is not None:
                span[5] = sizer(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer and rebind it wherever
        a ``privcredit`` module holds a reference to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for key, obj in vars(module).items():
                if (inspect.isfunction(obj) and not key.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{key}", obj))
        for module in modules:
            for key, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((module, key, obj))
                    setattr(module, key, wrappers[id(obj)][1])

    def restore(self):
        for module, key, obj in reversed(self._saved):
            setattr(module, key, obj)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, _, start, end, _) in enumerate(spans)]


def layer_metrics(spans, n_ops, op_seconds, line_search_ops):
    """Per-layer metrics from the spans of ``n_ops`` traced operations whose
    harness-measured latencies sum to ``op_seconds``.

    Totals are per operation, per call, per fit or per unit of size as each
    name says; a layer the workload never reaches reports 0. The two EM
    line-search figures count only the fits of the operations whose ids are
    in ``line_search_ops`` (warm refits: cold fits accept nearly every step).
    """
    selfs = self_times(spans)
    calls, total, own, size = {}, {}, {}, {}
    for (name, _, _, start, end, sz), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
        if isinstance(sz, (int, float)):
            size[name] = size.get(name, 0) + sz

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name, scale):
        return ratio(total.get(name, 0.0), calls.get(name, 0)) * scale

    def per_size(name, scale):
        return ratio(total.get(name, 0.0), size.get(name, 0)) * scale

    def under(child, parent, ops=None):
        return sum(1 for name, op, p, *_ in spans
                   if name == child and p >= 0 and spans[p][0] == parent
                   and (ops is None or op in ops))

    fits = [sz for name, _, _, _, _, sz in spans if name == "em.em_fit"]
    n_fits = len(fits)
    iterations = sum(f["iterations"] for f in fits)
    searched = [sz for name, op, _, _, _, sz in spans
                if name == "em.em_fit" and op in line_search_ops]
    search_iterations = sum(f["iterations"] for f in searched)
    accepted = sum(f["accepted"] for f in searched)
    candidates = (under("em.expected_complete_loglik", "em.em_fit", line_search_ops)
                  - search_iterations)
    panels = [sz for name, _, _, _, _, sz in spans if name == "simulate.simulate_panel"]
    panel_s = total.get("simulate.simulate_panel", 0.0)
    cli_self = sum(v for k, v in own.items() if k.startswith("cli."))
    root_s = sum(end - start for _, _, parent, start, end, _ in spans if parent < 0)
    estimators = ("simulate.mc_option_price", "simulate.mc_default_probability")

    return {
        "cli.self_ms_per_op": ratio(cli_self, n_ops) * 1e3,
        "io.ingest_ms_per_op": ratio(total.get("io.ingest", 0.0), n_ops) * 1e3,
        "io.parse_config_ms_per_op": ratio(total.get("io.parse_config", 0.0), n_ops) * 1e3,
        "io.write_report_ms_per_op": ratio(total.get("io.write_report", 0.0), n_ops) * 1e3,
        "model.schedule_calls": ratio(calls.get("model.build_linearization_schedule", 0), n_ops),
        "model.schedule_ms": ratio(total.get("model.build_linearization_schedule", 0.0), n_ops) * 1e3,
        "kalman.filter_calls": ratio(calls.get("kalman.run_filter", 0), n_ops),
        "kalman.filter_s": ratio(total.get("kalman.run_filter", 0.0), n_ops),
        "kalman.filter_us_per_period": per_size("kalman.run_filter", 1e6),
        "kalman.smooth_us_per_period": per_size("kalman.smooth", 1e6),
        "kalman.forecast_us_per_period": per_size("kalman.forecast", 1e6),
        "em.iterations": ratio(iterations, n_fits),
        "em.objective_calls": ratio(calls.get("em.expected_complete_loglik", 0), n_fits),
        "em.objective_s": ratio(total.get("em.expected_complete_loglik", 0.0), n_fits),
        "em.e_step_self_s": ratio(own.get("em.e_step", 0.0), n_fits),
        "em.m_step_s": ratio(total.get("em.m_step", 0.0), n_fits),
        "em.linesearch_filter_calls_per_iter": ratio(
            under("kalman.run_filter", "em.em_fit", line_search_ops), search_iterations),
        "em.step_accept_ratio": ratio(accepted, candidates),
        "pricing.horizon_moments_ms": per_call("pricing.horizon_moments", 1e3),
        "pricing.solve_threshold_ms": per_call("pricing.solve_threshold", 1e3),
        "pricing.price_options_per_solve": ratio(
            under("pricing.price_options", "pricing.solve_threshold"),
            calls.get("pricing.solve_threshold", 0)),
        "pricing.price_options_us": per_call("pricing.price_options", 1e6),
        "pricing.context_self_ms": ratio(
            own.get("pricing.build_pricing_context", 0.0),
            calls.get("pricing.build_pricing_context", 0)) * 1e3,
        "simulate.panel_s": ratio(panel_s, len(panels)),
        "simulate.ns_per_path_period": ratio(
            panel_s, sum(p["path_periods"] for p in panels)) * 1e9,
        "simulate.estimator_ms": ratio(
            sum(total.get(k, 0.0) for k in estimators),
            sum(calls.get(k, 0) for k in estimators)) * 1e3,
        "simulate.panel_bytes_computed": ratio(sum(p["bytes"] for p in panels), len(panels)),
        "trace.coverage": ratio(root_s - cli_self, op_seconds),
    }
