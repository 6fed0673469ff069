"""Spans around the public functions of every tenfold layer.

``Tracer.install`` replaces each traced function in every ``tenfold.*``
module namespace that binds it (``cli`` imports ``classify_threefold``
by name, for example), so internal calls are traced as well as calls
from the benchmark.  A span is (name, start, end, parent span, operation
id, size); spans stay in memory until ``write`` is called at the end of
the run.  Self time is a span's duration minus the time its direct
child spans cover; on one thread the children never overlap, so that is
the sum of their durations.
"""

import functools
import importlib
import json
import math
import os
import statistics
import sys
from time import perf_counter

TRACED = {
    "specfile": ("parse_spec", "write_samples", "read_samples"),
    "grouprep": ("close_group", "commutant_basis", "isotypic_decompose",
                 "self_duality_type"),
    "classifier": ("validate_setting", "classify_threefold",
                   "classify_tenfold"),
    "antiunitary": ("parity", "sector_action", "transfer_T"),
    "linalg": ("haar_unitary", "haar_orthogonal", "haar_symplectic_unitary"),
    "ensembles": ("sample_gaussian", "sample_circular",
                  "pooled_spacing_ratios", "spectral_density"),
    "symspace": ("involution", "tangent_split", "ambient_algebra",
                 "closure_check", "cartan_embed", "geodesic_inversion"),
    "focklab": ("build_fock", "particle_hole", "lift_one_body",
                "lift_unitary", "covering_check",
                "twisted_ph_transfer_check", "wedge"),
    "verify": ("run_checks", "car_residual"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _position(fh):
    """Bytes written so far to a freshly opened file (0 for a stream)."""
    try:
        return fh.tell()
    except (OSError, ValueError):
        return 0


def _draws(a, r):
    return 1 if r.ndim == 2 else r.shape[0]


# Size of the work of one call, for the scaling fits: f(args, result).
SIZES = {
    "grouprep.commutant_basis": lambda a, r: a[0].dim,
    "grouprep.close_group": lambda a, r: len(r.elements),
    "symspace.closure_check": lambda a, r: len(a[0]),
    "focklab.covering_check": lambda a, r: a[0].dim,
    "focklab.lift_unitary": lambda a, r: a[0].dim,
}
# Work counters: (counter name, span name, f(args, result)).
COUNTERS = (
    ("grouprep.close_group.elements", "grouprep.close_group",
     lambda a, r: len(r.elements)),
    ("specfile.bytes_written", "specfile.write_samples",
     lambda a, r: _position(a[0])),
    ("specfile.bytes_read", "specfile.parse_spec",
     lambda a, r: _file_size(a[0])),
    ("specfile.bytes_read", "specfile.read_samples",
     lambda a, r: _file_size(a[0])),
    ("ensembles.draws", "ensembles.sample_gaussian", _draws),
    ("ensembles.draws", "ensembles.sample_circular", _draws),
    ("symspace.closure_check.brackets", "symspace.closure_check",
     lambda a, r: len(a[0]) ** 3),
)
COUNTER_NAMES = tuple(dict.fromkeys(c for c, _, _ in COUNTERS))
# Exponent name -> span name whose per-call busy time is fitted.
FITS = {
    "grouprep.commutant_basis.exp_dim": "grouprep.commutant_basis",
    "grouprep.close_group.exp_order": "grouprep.close_group",
    "symspace.closure_check.exp_dim_p": "symspace.closure_check",
    "focklab.covering_check.exp_fock_dim": "focklab.covering_check",
    "focklab.lift_unitary.exp_fock_dim": "focklab.lift_unitary",
}
# Calls shorter than this are dominated by timer and call overhead.
MIN_TIMEABLE_S = 5e-4


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.active = False
        self.op = None
        self._stack = []
        self._restore = []

    def _record(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = [name, start, end, parent, self.op, None]
        return index, result

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        counters = [(c, f) for c, span, f in COUNTERS if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index, result = self._record(name, fn, args, kwargs)
            if size_of is not None:
                self.spans[index][5] = size_of(args, result)
            for counter, count in counters:
                self.counters[counter] += count(args, result)
            return result

        return traced

    def install(self, package="tenfold"):
        """Replace every traced function in every ``package.*`` namespace."""
        wrappers = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"{package}.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []

    def run_op(self, op_id, name, fn):
        """Run ``fn()`` as operation ``op_id`` under a root span."""
        self.op = op_id
        return self._record(f"op.{name}", fn, (), {})[1]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op, "size": size}) + "\n")


def read_spans(path, offset=0):
    """Spans written by ``Tracer.write``; parent indices are shifted by
    ``offset`` so that spans of several files can be concatenated."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_totals(spans):
    """{function: (calls, busy_s, self_s)} over all traced functions."""
    totals = {name: [0, 0.0, 0.0] for name in FUNCTIONS}
    for s, own in zip(spans, self_times(spans)):
        if s["name"] in totals:
            t = totals[s["name"]]
            t[0] += 1
            t[1] += s["end"] - s["start"]
            t[2] += own
    return totals


def fit_exponent(spans, name):
    """Log-log slope of per-call busy time against the call's size.

    Uses the median busy time at each size and only sizes whose median
    is at least ``MIN_TIMEABLE_S``.  Returns (slope, sizes used), with
    slope ``None`` when fewer than two sizes qualify.
    """
    by_size = {}
    for s in spans:
        if s["name"] == name and s["size"]:
            by_size.setdefault(s["size"], []).append(s["end"] - s["start"])
    points = sorted((size, statistics.median(ts))
                    for size, ts in by_size.items())
    points = [(x, y) for x, y in points if y >= MIN_TIMEABLE_S]
    if len(points) < 2:
        return None, [x for x, _ in points]
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    return slope, [x for x, _ in points]
