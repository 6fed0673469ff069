"""Parsing and serialization of symmetry-specification and sample files.

Spec files are JSON with schema version "1"; complex numbers are always
[re, im] pairs so fixtures stay bit-exact across languages.  Schema
violations raise ``SpecFileError`` naming the offending field; mutual
inconsistencies between declared operators surface as consistency
errors from the setting validation.
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import grouprep, linalg
from .antiunitary import AntiUnitaryOp
from .classifier import SymmetrySetting, hilbert_setting
from .errors import InputShapeError, SpecFileError

SCHEMA_VERSION = "1"
_MODES = (grouprep.MODE_NONE, grouprep.MODE_FINITE, grouprep.MODE_LIE,
          grouprep.MODE_SPIN_HALF)


@dataclass(frozen=True, eq=False)
class ParsedSpec:
    """A validated spec file: the setting plus file-level options."""

    setting: SymmetrySetting
    declared_kind: str
    seed: int
    tolerance: float


def _require(condition, field, message):
    if not condition:
        raise SpecFileError(field, message)


_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max


def _entry_problem(entry):
    """None for an [re, im] pair of finite numbers, else what is wrong."""
    if not (isinstance(entry, list) and len(entry) == 2):
        return "must be an [re, im] pair"
    re, im = entry
    if not (isinstance(re, _NUMBER) and isinstance(im, _NUMBER)):
        return "must hold two numbers"
    # Exact for ints of any size: they compare with the float limit
    # without conversion, and NaN fails the comparison.
    if not (abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX):
        return "must be finite"
    return None


def _parse_matrix(raw, dim, field):
    _require(isinstance(raw, list) and len(raw) == dim, field,
             f"expected a {dim} x {dim} matrix as nested [re, im] pairs")
    flat = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == dim, field,
                 f"row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            problem = _entry_problem(entry)
            if problem:
                raise SpecFileError(field, f"entry ({i}, {j}) {problem}")
            flat += entry
    return np.array(flat, dtype=float).view(complex).reshape(dim, dim)


def matrix_to_pairs(m):
    """Encode a complex matrix as nested [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(m[i, j].real), float(m[i, j].imag)]
             for j in range(m.shape[1])] for i in range(m.shape[0])]


def parse_spec_data(data):
    """Validate an in-memory spec dictionary into a ``ParsedSpec``."""
    _require(isinstance(data, dict), "$", "spec must be a JSON object")
    version = data.get("schema_version")
    _require(version == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION!r}, got {version!r}")
    dim = data.get("dimension")
    _require(isinstance(dim, int) and dim >= 1, "dimension",
             "must be a positive integer")
    kind = data.get("setting")
    _require(kind in ("hilbert", "nambu"), "setting",
             "must be 'hilbert' or 'nambu'")
    tolerance = data.get("tolerance", linalg.TOL_INPUT)
    _require(isinstance(tolerance, (int, float)) and 0 < tolerance < 1,
             "tolerance", "must be a number in (0, 1)")
    seed = data.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed",
             "must be a non-negative integer")

    g0_raw = data.get("g0")
    _require(isinstance(g0_raw, dict), "g0", "must be an object")
    mode = g0_raw.get("mode")
    _require(mode in _MODES, "g0.mode", f"must be one of {_MODES}")
    raw_gens = g0_raw.get("generators", [])
    _require(isinstance(raw_gens, list), "g0.generators", "must be a list")
    generators = [_parse_matrix(g, dim, f"g0.generators[{i}]")
                  for i, g in enumerate(raw_gens)]

    if mode == grouprep.MODE_NONE:
        _require(not generators, "g0.generators",
                 "mode 'none' takes no generators")
        action = grouprep.trivial_action(dim)
    elif mode == grouprep.MODE_SPIN_HALF:
        _require(not generators, "g0.generators",
                 "spin-half mode takes no generators (built-in factor)")
        try:
            action = grouprep.spin_half_action(dim)
        except InputShapeError as err:
            raise SpecFileError("dimension", str(err))
    elif mode == grouprep.MODE_FINITE:
        for i, g in enumerate(generators):
            _require(linalg.is_unitary(g, max(tolerance,
                                              linalg.tol_unitary(dim))),
                     f"g0.generators[{i}]", "must be unitary")
        action = grouprep.close_group(generators, dim=dim)
    else:
        _require(bool(generators), "g0.generators",
                 "lie-algebra mode needs at least one generator")
        try:
            action = grouprep.lie_algebra_action(generators, tolerance)
        except InputShapeError as err:
            raise SpecFileError("g0.generators", str(err))

    time_reversal = None
    if "time_reversal" in data and data["time_reversal"] is not None:
        raw = data["time_reversal"]
        _require(isinstance(raw, dict) and "matrix" in raw, "time_reversal",
                 "must be an object with a 'matrix' field")
        u = _parse_matrix(raw["matrix"], dim, "time_reversal.matrix")
        _require(linalg.is_unitary(u, max(tolerance, linalg.tol_unitary(dim))),
                 "time_reversal.matrix", "must be unitary")
        time_reversal = AntiUnitaryOp(u)

    particle_hole = None
    if "particle_hole" in data and data["particle_hole"] is not None:
        raw = data["particle_hole"]
        _require(isinstance(raw, dict) and "s_matrix" in raw, "particle_hole",
                 "must be an object with an 's_matrix' field")
        s = _parse_matrix(raw["s_matrix"], dim, "particle_hole.s_matrix")
        _require(linalg.is_unitary(s, max(tolerance, linalg.tol_unitary(dim))),
                 "particle_hole.s_matrix", "must be unitary")
        particle_hole = s

    setting = hilbert_setting(action, time_reversal, particle_hole,
                              tol=float(tolerance))
    return ParsedSpec(setting=setting, declared_kind=kind, seed=seed,
                      tolerance=float(tolerance))


def parse_spec(path):
    """Parse and validate a spec file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SpecFileError("$", f"file not found: {path}")
    except json.JSONDecodeError as err:
        raise SpecFileError("$", f"invalid JSON: {err}")
    return parse_spec_data(data)


# ---------------------------------------------------------------------------
# Sample files


def sample_header(family, dims, kind, seed):
    dims_text = ",".join(str(d) for d in dims)
    return (f"# tenfold sample class={family} dims={dims_text} "
            f"kind={kind} seed={seed}")


def write_samples(fh, family, dims, kind, seed, matrices):
    """One header line, then one matrix per line as nested [re, im] JSON."""
    fh.write(sample_header(family, dims, kind, seed) + "\n")
    for m in matrices:
        fh.write(json.dumps(matrix_to_pairs(m), separators=(",", ":")))
        fh.write("\n")


def read_samples(path):
    """Read a sample file; returns (metadata dict, list of matrices)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise SpecFileError("$", f"file not found: {path}")
    if not lines or not lines[0].startswith("# tenfold sample "):
        raise SpecFileError("$", "missing sample header line")
    meta = {}
    for token in lines[0][len("# tenfold sample "):].split():
        key, _, value = token.partition("=")
        meta[key] = value
    matrices = []
    for i, line in enumerate(lines[1:]):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as err:
            raise SpecFileError(f"record[{i}]", f"invalid JSON: {err}")
        arr = np.asarray(raw, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise SpecFileError(f"record[{i}]",
                                "expected a square matrix of [re, im] pairs")
        matrices.append(arr[..., 0] + 1j * arr[..., 1])
    return meta, matrices
