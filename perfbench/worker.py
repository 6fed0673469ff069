"""One benchmark child process: set up, run passes, report one JSON line.

Run by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed S
--budget SECONDS --workdir DIR [--spans FILE]``.  Set-up time covers the
imports, writing the seeded inputs and one warm-up call of the first
operations.  Passes then repeat until the budget is spent (at least
one).  Operation time is measured around the library call only; the
correctness checks run outside it, with tracing paused.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def run_op(tf, op, ctx, tracer, op_id):
    """Run one operation; returns (seconds, output or exception)."""
    if op.argv is not None:
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = tf.cli.main(list(op.argv))
            return code, out.getvalue()
    else:
        def call():
            return op.call(tf, ctx)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = call()
        else:
            tracer.active = True
            result = tracer.run_op(op_id, op.name, call)
    except Exception as err:  # a raising operation is a failed operation
        result = err
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    return elapsed, result


def check_op(tf, op, ctx, result):
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return op.check(result, tf, ctx)
    except Exception as err:  # malformed output is a failed check
        return f"check raised {type(err).__name__}: {err}"


def run_pass(tf, ops, tracer=None, first_id=0):
    """Run every operation once, in order; time and check each."""
    ctx = {}
    times, failures = [], []
    for i, op in enumerate(ops):
        elapsed, result = run_op(tf, op, ctx, tracer, first_id + i)
        times.append(elapsed)
        reason = check_op(tf, op, ctx, result)
        if reason is not None:
            failures.append({"op": i, "name": op.name, "reason": reason,
                             "expected": op.known_defect and
                             reason == workloads.NONFINITE})
    return times, failures


def environment(tf):
    import numpy
    import scipy
    from blasinfo import blas_libraries
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "tenfold": tf.__version__, "blas": blas_libraries()}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    import tenfold as tf
    import tenfold.cli  # noqa: F401  (binds tf.cli)
    work = workloads.build(args.workload, args.seed, args.workdir)
    run_pass(tf, work.warmup)
    setup_s = time.perf_counter() - START

    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install("tenfold")
    passes = []
    deadline = time.perf_counter() + args.budget
    while True:
        times, failures = run_pass(tf, work.ops, tracer,
                                   len(passes) * len(work.ops))
        passes.append({"times": times, "failures": failures})
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)

    report = {
        "setup_s": setup_s,
        "phases": [op.phase for op in work.ops],
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tenfold_path": str(Path(tf.__file__).resolve()),
        "env": environment(tf),
    }
    if tracer is not None:
        report["counters"] = tracer.counters
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
