"""Tests of the benchmark itself: seeded inputs, correctness gate, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tenfold  # noqa: E402
import tenfold.cli  # noqa: E402,F401
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def fingerprint(work, workdir):
    """Digest of every input: spec files, argv lists and library arrays."""
    digest = hashlib.sha256()
    for path in sorted(Path(workdir).glob("*.json")):
        digest.update(path.name.encode() + path.read_bytes())
    for op in work.ops:
        argv = [a.replace(str(workdir), "<dir>") for a in op.argv or ()]
        digest.update(json.dumps([op.name, argv]).encode())
        for arr in op.inputs:
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    prints = [fingerprint(workloads.build(name, seed, tmp_path / d),
                          tmp_path / d)
              for seed, d in ((7, "a"), (7, "b"), (8, "c"))]
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def run_one(op, ctx=None):
    ctx = {} if ctx is None else ctx
    _, out = worker.run_op(tenfold, op, ctx, None, 0)
    return out, worker.check_op(tenfold, op, ctx, out)


def test_gate_flags_a_corrupted_label(tmp_path):
    work = workloads.build("classify-wide", 3, tmp_path)
    op = work.ops[0]
    (code, text), reason = run_one(op)
    assert reason is None
    payload = json.loads(text)
    block = payload["blocks"][0]
    block["class"] = "AII" if block["class"] != "AII" else "AI"
    assert op.check((code, json.dumps(payload)), tenfold, {}) is not None
    assert op.check((4, text), tenfold, {}) is not None


@pytest.mark.parametrize("kind", ["gaussian", "circular"])
def test_gate_flags_a_corrupted_sample(kind, tmp_path):
    work = workloads.build("ensembles-io", 3, tmp_path)
    op = next(o for o in work.ops if o.name == "sample" and
              kind in o.argv and "AI" in o.argv)
    out, reason = run_one(op)
    assert reason is None
    path = Path(op.argv[op.argv.index("--out") + 1])
    header, first, *rest = path.read_text().splitlines()
    matrix = json.loads(first)
    matrix[0][1][1] += 1e-3        # imaginary part of one off-diagonal entry
    path.write_text("\n".join([header, json.dumps(matrix), *rest]) + "\n")
    assert op.check(out, tenfold, {}) is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_known_defect_is_the_only_failure_of_stats(tmp_path):
    work = workloads.build("ensembles-io", 3, tmp_path)
    for op in work.ops:
        _, reason = run_one(op)
        if op.known_defect:
            assert reason in (None, workloads.NONFINITE)
        else:
            assert reason is None, (op.argv, reason)
    assert any(op.known_defect for op in work.ops)


def test_geometry_negative_control_is_checked(tmp_path):
    work = workloads.build("geometry", 3, tmp_path)
    control = work.ops[-1]
    out, reason = run_one(control)
    assert reason is None and not out.passed
    closure = next(o for o in work.ops if o.name == "closure_check")
    assert closure.check(out, tenfold, {}) is not None


def test_self_times_fit_inside_the_traced_wall_time(tmp_path):
    work = workloads.build("classify-big-group", 3, tmp_path)
    original = tenfold.cli.classify_threefold
    rec = tracer.Tracer()
    rec.install("tenfold")
    try:
        assert tenfold.cli.classify_threefold is not original
        times, failures = worker.run_pass(tenfold, work.ops, rec)
    finally:
        rec.uninstall()
    assert tenfold.cli.classify_threefold is original
    assert not failures
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    spans = tracer.read_spans(path)
    own = tracer.self_times(spans)
    assert min(own) >= 0.0
    layer_self = sum(t for _, _, t in tracer.layer_totals(spans).values())
    assert layer_self <= sum(times)
    assert tracer.layer_totals(spans)["grouprep.close_group"][0] == \
        len(work.ops)


def test_fit_recovers_a_known_exponent():
    spans = [{"name": "f", "start": 0.0, "end": 1e-4 * n ** 3,
              "parent": None, "op": 0, "size": n} for n in (2, 4, 8, 1)]
    slope, sizes = tracer.fit_exponent(spans, "f")
    assert slope == pytest.approx(3.0)
    assert sizes == [2, 4, 8]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_printed_metric():
    import run
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"passes": [{"times": [1.0], "failures": []}],
              "phases": ["verify"], "setup_s": 1.0, "peak_rss_kb": 1024,
              "counters": dict.fromkeys(tracer.COUNTER_NAMES, 0)}
    printed = run.end_to_end([report])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in printed.items()}
    printed, _ = run.per_layer([report], [report], [])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (_, unit) in printed.items()}
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS) == list(run.WORKLOADS)
