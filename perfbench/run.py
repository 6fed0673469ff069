"""The tenfold benchmark: one command for every workload and metric.

    python3 perfbench/run.py [--blas-threads N] --workload W --seed S \
        --seconds T --trace 0|1

Run from the root of a checkout.  Each run starts fresh child processes
(``worker.py``) one at a time, each importing ``tenfold`` from this
checkout's ``src``, writing the seeded inputs, warming up and running
passes of the workload.  With ``--trace 0`` five untraced children
share the time and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced children alternate, two of each, and
the per-layer metrics are printed together with the tracing overhead.

A pass is summarised by the sum over its operations of each operation's
fastest time in the run.  Other tenants of a shared machine only ever
slow an operation down.  On the reference machine (2 vCPUs), a plain
Python loop ran at two speeds 45 % apart, switching within a second.
Over eight runs of one workload, the median pass of a run spread by
9 % and the fastest pass by 6 %, while this sum spread by 2.5 %.

The last line of standard output is the result object; the lines
before it record the environment, the pass counts and median pass
times, the failures and the sizes used by the exponent fits.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("classify-wide", "classify-big-group", "ensembles-io",
             "fock-oracle", "geometry")
UNTRACED_CHILDREN = 5
# Untraced and traced children alternate, so drift in machine speed
# during the run does not show up as tracing overhead.
TRACE_CHILDREN = 4
# A run must end within 180 s; children are stopped at this deadline.
DEADLINE_S = 170.0
PHASES = {"sample_s": "sample", "stats_s": "stats", "verify_s": "verify",
          "symspace_s": "symspace"}
EXPONENT_FALLBACK = 0.0


class BenchError(Exception):
    pass


def source_record():
    """Commit when the checkout is a git repository, and a digest of the
    library source either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tenfold").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() \
                else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_child(args, index, budget, deadline, spans=None):
    workdir = OUT / f"work-{args.workload}-{args.seed}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    threads = str(args.blas_threads)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {index} passed the {DEADLINE_S:.0f} s "
                         "deadline and was stopped")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"child {index} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    expected_src = (ROOT / "src" / "tenfold").resolve()
    if Path(report["tenfold_path"]).parent != expected_src:
        raise BenchError(f"child imported tenfold from "
                         f"{report['tenfold_path']}, not {expected_src}")
    return report


def pass_times(report):
    return [sum(p["times"]) for p in report["passes"]]


def best_pass(reports, phase=None):
    """Time of one pass with every operation at its fastest in the run."""
    phases = reports[0]["phases"]
    return sum((min(p["times"][i] for r in reports for p in r["passes"])
                for i, ph in enumerate(phases) if phase in (None, ph)), 0.0)


def failure_summary(reports):
    attempted = failed = 0
    unexpected = []
    kinds = {}
    for report in reports:
        for p in report["passes"]:
            attempted += len(p["times"])
            failed += len(p["failures"])
            for f in p["failures"]:
                key = f"{f['name']}: {f['reason']}"
                kinds[key] = kinds.get(key, 0) + 1
                if not f["expected"]:
                    unexpected.append(f)
    return attempted, failed, unexpected, kinds


def end_to_end(reports):
    return {
        "wall_s": (best_pass(reports), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in reports) / 1024, "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
    }


def per_layer(untraced, traced, spans):
    """Per-pass layer totals, counters and fits of the traced children;
    phase times of the untraced ones; overhead between the two."""
    n_passes = sum(len(r["passes"]) for r in traced)
    metrics = {}
    for name, (calls, busy, own) in tracer.layer_totals(spans).items():
        metrics[f"{name}.calls"] = (calls / n_passes, "count")
        metrics[f"{name}.busy_s"] = (busy / n_passes, "s")
        metrics[f"{name}.self_s"] = (own / n_passes, "s")
    for name in tracer.COUNTER_NAMES:
        total = sum(r["counters"][name] for r in traced)
        unit = "B" if name.startswith("specfile.bytes") else "count"
        metrics[name] = (total / n_passes, unit)
    fits = {}
    for name, span_name in tracer.FITS.items():
        slope, sizes = tracer.fit_exponent(spans, span_name)
        fits[name] = sizes
        metrics[name] = (EXPONENT_FALLBACK if slope is None else slope, "1")
    for name, phase in PHASES.items():
        metrics[name] = (best_pass(untraced, phase), "s")
    metrics["trace.overhead_s"] = (
        best_pass(traced) - best_pass(untraced), "s")
    return metrics, fits


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tenfold" / "__init__.py").is_file():
        print(f"error: no tenfold sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    args.blas_threads = max(1, min(args.blas_threads, nproc))
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            untraced, traced, spans = [], [], []
            for i in range(TRACE_CHILDREN):
                budget = args.seconds / TRACE_CHILDREN
                if i % 2 == 0:
                    untraced.append(run_child(args, i, budget, deadline))
                    continue
                path = OUT / f"spans-{args.workload}-seed{args.seed}-{i}.jsonl"
                traced.append(run_child(args, i, budget, deadline, path))
                spans += tracer.read_spans(path, offset=len(spans))
            reports = untraced + traced
            metrics, fits = per_layer(untraced, traced, spans)
        else:
            reports = [run_child(args, i, args.seconds / UNTRACED_CHILDREN,
                                 deadline)
                       for i in range(UNTRACED_CHILDREN)]
            metrics, fits = end_to_end(reports), None
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed, unexpected, kinds = failure_summary(reports)
    env = dict(reports[0]["env"], nproc=nproc,
               python=platform.python_version(),
               blas_threads=args.blas_threads, **source_record())
    print("env " + json.dumps(env, sort_keys=True))
    print("passes " + json.dumps(
        [{"passes": len(r["passes"]), "setup_s": r["setup_s"],
          "median_s": statistics.median(pass_times(r))} for r in reports]))
    print("failures " + json.dumps({"failed_ops": failed / attempted,
                                    "attempted": attempted, "kinds": kinds},
                                   sort_keys=True))
    if fits is not None:
        print("fit-sizes " + json.dumps(fits, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
