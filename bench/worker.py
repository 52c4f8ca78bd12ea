"""One fresh interpreter of a benchmark run: set up, then time operations.

    python3 worker.py PLAN OUT MODE

MODE is ``setup`` (time the set-up only), ``time`` (set up, then repeat
passes over the plan's operations until its time budget is spent) or
``trace`` (the same, with each operation also run once more, back to back,
with every layer traced).
Set-up is the import of ``privcredit.cli`` plus one untimed warm-up
operation. Each operation calls ``privcredit.cli.main(argv)`` in-process,
the path the installed ``privcredit`` command takes, with stdout and stderr
captured; its report is checked after its clock has stopped. Nothing but
the standard library and ``checks`` (which needs nothing else) is loaded
before set-up is timed.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from checks import check_report, shortfall


def _call(main, argv):
    """Run one operation; (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed operation, and the run goes on
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def _outcome(command, code, stdout, stderr, reference):
    """(problems, relative shortfall of a fit below the truth)."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"], 0.0
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"], 0.0
    return (check_report(command, report, reference),
            shortfall(command, report, reference))


def main():
    plan_path, out_path, mode = sys.argv[1:4]
    t0 = time.perf_counter()
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import privcredit.cli as cli
    import_s = time.perf_counter() - t0
    code, _, _, stderr = _call(cli.main, plan["warmup"])
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "import_s": import_s, "warmup_exit": code}
    if code != 0:
        result["warmup_error"] = stderr.strip()[-300:]
    if mode == "setup":
        _write(out_path, result)
        return

    ops = plan["ops"]
    references = {}
    for op in ops:
        if "reference" in op:
            rc, _, stdout, _ = _call(cli.main, op["reference"])
            references[op["id"]] = json.loads(stdout)["loglik"] if rc == 0 else None

    tracer = None
    if mode == "trace":
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    latencies, traced, failures, passes, digests, shortfalls = [], [], [], [], {}, []

    def run_op(op, record):
        code, seconds, stdout, stderr = _call(cli.main, op["argv"])
        record.append([op["id"], op["kind"], seconds])
        problems, short = _outcome(op["argv"][0], code, stdout, stderr,
                                   references.get(op["id"]))
        if short > 0.0 and record is latencies:
            shortfalls.append(short)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digests.setdefault(op["id"], digest) != digest:
            problems.append("report differs from the same operation's first run")
        if problems:
            failures.append([op["id"], op["kind"], problems])

    start = time.perf_counter()
    stopped = False
    while not stopped:
        pass_start = time.perf_counter()
        for op in ops:
            if time.perf_counter() - start > plan["hard_stop_s"]:
                stopped = True
                break
            if tracer is None:
                run_op(op, latencies)
                continue
            # the op untraced and traced back to back, in alternating order:
            # each pair shares the machine's state, so the pairs' difference
            # is the tracing cost
            first_plain = len(traced) % 2 == 0
            if first_plain:
                run_op(op, latencies)
            tracer.op_id = len(traced)
            tracer.install()
            try:
                run_op(op, traced)
            finally:
                tracer.restore()
            if not first_plain:
                run_op(op, latencies)
        else:
            passes.append(time.perf_counter() - pass_start)
        typical = sorted(passes)[len(passes) // 2] if passes else 0.0
        stopped = stopped or time.perf_counter() - start + typical > plan["seconds"]

    result.update(
        latencies=latencies,
        failures=failures,
        shortfalls=shortfalls,
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        long_kind = plan["long_kind"]
        result["layers"] = layer_metrics(
            tracer.spans, len(traced), sum(x[2] for x in traced),
            {i for i, x in enumerate(traced) if x[1] == long_kind})
        result["layers"]["trace.overhead"] = (
            sum(x[2] for x in traced) / sum(x[2] for x in latencies) - 1.0)
        tracer.write(plan["spans_path"])
    _write(out_path, result)


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
