"""privcredit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {estimate,portfolio,mc-check} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and all scratch files live under ``.bench_work/`` there. The run
generates the workload's inputs from the seed (``workloads.py``), times the
set-up in several fresh interpreters, then runs the workload single-client
and closed-loop in one more fresh interpreter (``worker.py``) and checks
every report (``checks.py``). Every metric is printed by name with its
unit; the last line of stdout is the JSON result.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
each operation runs twice in a row, untraced and then with every layer
traced (``tracer.py``); the metrics are the per-layer ones from the spans,
with the tracing overhead measured against the untraced runs. ``baseline.json`` records which end-to-end metric each per-layer
metric should move, and the figures at the commit that defined the
benchmark.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 5          # set-up samples per run; setup_s is their median
HARD_STOP_FACTOR = 4    # an interpreter starts no op after this x its budget
CHILD_TIMEOUT_S = 170

# The tail percentile of op latency per workload, fixed so runs stay
# comparable: the highest of 50, 90, 95 and 99 that leaves at least ten
# samples beyond it in a run on the commit that defined the benchmark (an
# estimate run has fewer than twenty fits, so its tail is its median), except
# that portfolio takes p95: its p99, about fifty 3-8 ms ops of five thousand,
# moved by 0.15 (quartile spread over median) between runs on a shared
# 2-core machine, too much for a gated metric.
TAIL_PERCENTILE = {"estimate": 50.0, "portfolio": 95.0, "mc-check": 90.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "short_op_ms": "ms",
    "long_op_ms": "ms",
    "work_per_s": "1/s",
}
ALIASES = {
    "estimate": {"fit_cold_ms": "short_op_ms", "refit_warm_ms": "long_op_ms"},
    "portfolio": {"firms_per_s": "work_per_s"},
    "mc-check": {"mc_path_periods_per_s": "work_per_s"},
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_ms_per_op": "ms/op",
    "io.ingest_ms_per_op": "ms/op",
    "io.parse_config_ms_per_op": "ms/op",
    "io.write_report_ms_per_op": "ms/op",
    "model.schedule_calls": "count/op",
    "model.schedule_ms": "ms/op",
    "kalman.filter_calls": "count/op",
    "kalman.filter_s": "s/op",
    "kalman.filter_us_per_period": "us",
    "kalman.smooth_us_per_period": "us",
    "kalman.forecast_us_per_period": "us",
    "em.iterations": "count/fit",
    "em.objective_calls": "count/fit",
    "em.objective_s": "s/fit",
    "em.e_step_self_s": "s/fit",
    "em.m_step_s": "s/fit",
    "em.linesearch_filter_calls_per_iter": "count",
    "em.step_accept_ratio": "ratio",
    "pricing.horizon_moments_ms": "ms",
    "pricing.solve_threshold_ms": "ms",
    "pricing.price_options_per_solve": "count",
    "pricing.price_options_us": "us",
    "pricing.context_self_ms": "ms",
    "simulate.panel_s": "s",
    "simulate.ns_per_path_period": "ns",
    "simulate.estimator_ms": "ms",
    "simulate.panel_bytes_computed": "B",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def percentile(values, p):
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_latency(values, p):
    """The p-th percentile of ``values``, as the median over consecutive
    blocks just long enough to hold ten samples beyond it (or over all
    values, when they are fewer): a burst of interference from outside then
    moves one block, not the figure. Returns (tail, number of blocks)."""
    size = math.ceil(10 / (1 - p / 100) - 1e-9)
    k = max(1, len(values) // size)
    edges = [i * len(values) // k for i in range(k + 1)]
    return statistics.median(
        percentile(values[a:b], p) for a, b in zip(edges, edges[1:])), k


def environment():
    """Versions, CPU and BLAS threads of this machine, for the record."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": _blas_threads(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_child(plan_path, out_path, mode, cwd):
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    plan_path, out_path, mode],
                   cwd=cwd, check=True, timeout=CHILD_TIMEOUT_S)
    with open(out_path) as fh:
        return json.load(fh)


def end_to_end(workload, ops, batch, setups):
    """The end-to-end metrics of one untraced batch."""
    lat = batch["latencies"]
    per_pass = len(ops)
    ms = [x[2] * 1e3 for x in lat]
    short, long_ = workloads.SHORT_LONG[workload]
    work = {op["id"]: op["work"] for op in ops}
    whole = len(lat) // per_pass
    if whole:
        wall = statistics.median(
            sum(x[2] for x in lat[i * per_pass:(i + 1) * per_pass]) for i in range(whole))
    else:  # stopped inside the first pass: scale the part done to a pass
        wall = sum(x[2] for x in lat) * per_pass / len(lat)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_latency(ms, TAIL_PERCENTILE[workload])[0],
        "peak_rss_mb": batch["peak_rss_mb"],
        "short_op_ms": statistics.mean(x[2] * 1e3 for x in lat if x[1] == short),
        "long_op_ms": statistics.mean(x[2] * 1e3 for x in lat if x[1] == long_),
        "work_per_s": sum(work[x[0]] for x in lat) / sum(x[2] for x in lat),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "privcredit", "cli.py")):
        print(f"error: no privcredit sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, env, work):
    t = time.perf_counter()
    # a traced run times each operation twice, so it sizes its pass for half
    files, ops, warmup = workloads.build(
        args.workload, args.seed, args.seconds / 2 if args.trace else args.seconds)
    workloads.write_files(work, files)
    generate_s = time.perf_counter() - t
    plan = {"src": SRC, "ops": ops, "warmup": warmup["argv"], "seconds": args.seconds,
            "hard_stop_s": HARD_STOP_FACTOR * args.seconds,
            "long_kind": workloads.SHORT_LONG[args.workload][1],
            "spans_path": os.path.join(WORK, f"spans-{args.workload}.jsonl")}
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    setups = [run_child(plan_path, os.path.join(work, f"setup{i}.json"), "setup", work)
              for i in range(SETUP_RUNS - 1)]
    mode = "trace" if args.trace else "time"
    batch = run_child(plan_path, os.path.join(work, "batch.json"), mode, work)
    setups.append(batch)
    failures = batch["failures"]
    attempted = len(batch["latencies"]) * (2 if args.trace else 1)
    if args.trace:
        metrics = dict(batch["layers"])
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(args.workload, ops, batch, setups)
        units = END_TO_END
    warmup_failed = sum(s["warmup_exit"] != 0 for s in setups)
    attempted += len(setups)
    failed = len(failures) + warmup_failed

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops/pass {len(ops)}  "
          f"passes {len(batch['passes'])}  generate_s {generate_s:.3f}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        lat = batch["latencies"]
        p = TAIL_PERCENTILE[args.workload]
        blocks = tail_latency([x[2] for x in lat], p)[1]
        short, long_ = workloads.SHORT_LONG[args.workload]
        print(f"op_tail_ms is p{p:g} of n={len(lat)} ops, median of {blocks} "
              f"block(s) of {len(lat) // blocks} ops; "
              f"short_op_ms = {short} ops, long_op_ms = {long_} ops, "
              f"work_per_s = {workloads.WORK_UNIT[args.workload]} per second")
    for name in sorted(units):
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        for alias, name in ALIASES[args.workload].items():
            print(f"{alias:40s} {metrics[name]:.6g} {units[name]}  (= {name})")
    fits = sum(x[1] in ("cold", "warm") for x in batch["latencies"])
    if batch["shortfalls"]:
        print(f"fits ending below the truth loglik, within em_fit's per-iteration "
              f"slack: {len(batch['shortfalls'])} of {fits}, largest relative "
              f"shortfall {max(batch['shortfalls']):.3g}")
    print(f"{'failed_share':40s} {failed / attempted:.6g} share  ({failed} of {attempted})")
    for op_id, kind, problems in failures[:10]:
        print(f"FAILED op {op_id} ({kind}): {'; '.join(problems)}")
    if warmup_failed:
        print(f"FAILED warm-up in {warmup_failed} interpreters: "
              f"{next(s['warmup_error'] for s in setups if s['warmup_exit'] != 0)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
