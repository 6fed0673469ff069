"""Parsing and serialization of symmetry-specification and sample files.

Spec files are JSON with schema version "1"; complex numbers are always
[re, im] pairs so fixtures stay bit-exact across languages.  Schema
violations raise ``SpecFileError`` naming the offending field; mutual
inconsistencies between declared operators surface as consistency
errors from the setting validation.
"""

import contextlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import grouprep, linalg
from .antiunitary import AntiUnitaryOp
from .classifier import SymmetrySetting, hilbert_setting
from .errors import InputShapeError, SpecFileError

SCHEMA_VERSION = "1"
# "none" is the trivial group, built as the finite group of order one.
_MODES = ("none", "finite-group", "lie-algebra", "spin-half")
# Parsing a spec file peaks at about 7 times its size (346 MB for a
# 51 MB file, 1232 MB for 207 MB: one 1024 or 2048 matrix), so a larger
# file than this is refused before it is read: its parse would pass
# three times linalg.MAX_ARRAY_BYTES, the stage peak that cap accepts.
MAX_SPEC_BYTES = 3 * linalg.MAX_ARRAY_BYTES // 7
# Reading a sample file peaks at about twice its size (its text, its
# lines and its matrices) plus about 4 times the record being decoded
# (its nested lists).  Over the interpreter's 41 MB, `stats --in` peaks
# at 84 MB for 46 MB of 0.7 MB records and at 240 MB for one record of
# 44 MB, 2 x 44 + 3.5 x 44.  A file larger than this is refused before it
# is read, and a record longer than half of what the file leaves of it
# before it is decoded, so the read stays within three times
# linalg.MAX_ARRAY_BYTES, the stage peak that cap accepts.
MAX_SAMPLE_BYTES = 3 * linalg.MAX_ARRAY_BYTES // 2
# Records shorter than this are decoded by orjson, longer ones by json:
# orjson's own document of a record adds about 0.9 times its length to
# the peak (+39 MB for a record of 44 MB).
_ORJSON_RECORD_CHARS = 1 << 21


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


# numpy's real scalars too, which the np.array fast path already takes
_NUMBER = (int, float, np.integer, np.floating, np.bool_)
_FLOAT_MAX = sys.float_info.max


def _entry_problem(entry):
    """None for an [re, im] pair of finite numbers, else what is wrong."""
    if not (isinstance(entry, list) and len(entry) == 2):
        return "must be an [re, im] pair"
    re, im = entry
    if not (isinstance(re, _NUMBER) and isinstance(im, _NUMBER)):
        return "must hold two numbers"
    # A numpy scalar compares as its Python number: a float32 would take
    # the float limit as inf.  Exact for ints of any size: they compare
    # with the float limit without conversion, and NaN fails the comparison.
    re, im = (x.item() if isinstance(x, np.generic) else x for x in entry)
    if not (abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX):
        return "must be finite"
    return None


def _parse_matrix(raw, dim, field):
    _require(isinstance(raw, list) and len(raw) == dim, field,
             f"expected a {dim} x {dim} matrix as nested [re, im] pairs")
    # one np.array for lists of finite numbers; the loop diagnoses the rest
    if all(type(row) is list and len(row) == dim and
           all(type(e) is list and len(e) == 2 for e in row) for row in raw):
        pairs = _record_array(raw)
        if pairs is not None:
            return pairs.view(complex).reshape(dim, dim)
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


def parse_spec_data(data):
    """Validate an in-memory spec dictionary into a ``ParsedSpec``."""
    _require(isinstance(data, dict), "$", "spec must be a JSON object")
    version = data.get("schema_version")
    _require(version == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION!r}, got {version!r}")
    dim = data.get("dimension")
    # a JSON boolean is a Python int, but not a number of a spec
    _require(type(dim) is int and dim >= 1, "dimension",
             "must be a positive integer")
    _require(16 * dim * dim <= linalg.MAX_ARRAY_BYTES, "dimension",
             f"one {dim} x {dim} complex matrix needs {16 * dim * dim} "
             f"bytes, above the limit of {linalg.MAX_ARRAY_BYTES} bytes")
    kind = data.get("setting")
    _require(kind in ("hilbert", "nambu"), "setting",
             "must be 'hilbert' or 'nambu'")
    tolerance = data.get("tolerance", linalg.TOL_INPUT)
    _require(isinstance(tolerance, (int, float)) and 0 < tolerance < 1,
             "tolerance", "must be a number in (0, 1)")
    seed = data.get("seed", 0)
    _require(type(seed) is int and 0 <= seed < 1 << 64, "seed",
             "must be an integer in [0, 2^64)")

    g0_raw = data.get("g0")
    _require(isinstance(g0_raw, dict), "g0", "must be an object")
    mode = g0_raw.get("mode")
    _require(mode in _MODES, "g0.mode", f"must be one of {_MODES}")
    raw_gens = g0_raw.get("generators", [])
    _require(isinstance(raw_gens, list), "g0.generators", "must be a list")
    generators = [_parse_matrix(g, dim, f"g0.generators[{i}]")
                  for i, g in enumerate(raw_gens)]

    if mode == "none":
        _require(not generators, "g0.generators",
                 "mode 'none' takes no generators")
        action = grouprep.trivial_action(dim)
    elif mode == "spin-half":
        _require(not generators, "g0.generators",
                 "spin-half mode takes no generators (built-in factor)")
        try:
            action = grouprep.spin_half_action(dim)
        except InputShapeError as err:
            raise SpecFileError("dimension", str(err))
    elif mode == "finite-group":
        for i, g in enumerate(generators):
            _require(linalg.is_unitary(g, max(tolerance,
                                              linalg.tol_unitary(dim))),
                     f"g0.generators[{i}]", "must be unitary")
        action = grouprep.close_group(generators, tol_dedup=tolerance,
                                      dim=dim)
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
        time_reversal = AntiUnitaryOp(u, tolerance)

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


def _read_text(path):
    """The text of a UTF-8 file; ``SpecFileError`` when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SpecFileError("$", f"file not found: {path}")
    except OSError as err:
        raise SpecFileError("$", f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise SpecFileError("$", f"{path} is not UTF-8 text ({err.reason} "
                                 f"at byte {err.start})")


def _load_json(text, field):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # deep nesting recurses
        raise SpecFileError(field, f"invalid JSON: {err}")


def _file_size(path):
    try:
        return os.stat(path).st_size
    except OSError:
        return 0  # _read_text names the problem


def parse_spec(path):
    """Parse and validate a spec file from disk; a file larger than
    ``MAX_SPEC_BYTES`` is refused before it is read."""
    size = _file_size(path)
    _require(size <= MAX_SPEC_BYTES, "$",
             f"{path} has {size} bytes; a parse takes about 7 times the "
             f"file size, so the limit is {MAX_SPEC_BYTES} bytes")
    return parse_spec_data(_load_json(_read_text(path), "$"))


# ---------------------------------------------------------------------------
# Sample files


_HEADER = "# tenfold sample "
# Floats per written row block: whatever the record size, the writer
# holds about 6 MB at once (the block with its placeholders, orjson's
# bytes of it, those bytes with "%r" for each placeholder, the filled-in
# bytes and their text).
_BLOCK_FLOATS = 1 << 16


def _write_rows(fh, block):
    """Write the rows of a (rows, cols, 2) float ``block`` joined by
    commas, the bytes ``json.dumps`` with separators (",", ":") gives.

    orjson writes the shortest round-trip digits of each float, as
    ``repr`` does, but ``repr`` writes an exponent exactly for
    0 < |x| < 1e-4 and |x| >= 1e16.  Those floats go to orjson as NaN,
    which it writes as ``null``; records are finite, so each ``null``
    is a placeholder, and one ``%r`` template fills in their ``repr``.
    A block where orjson still writes an exponent is written with
    ``repr`` alone.
    """
    import orjson  # here, not at import: only sample files need it

    mags = np.abs(block)
    odd = ((mags < 1e-4) & (mags > 0)) | (mags >= 1e16)
    raw = orjson.dumps(np.where(odd, np.nan, block),
                       option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in raw:
        row = "[" + ",".join(["[%r,%r]"] * block.shape[1]) + "]"
        fh.write(",".join([row] * len(block)) % tuple(block.ravel().tolist()))
        return
    # within the outer brackets; %r of bytes is ascii(), a float's repr
    fh.write((raw[1:-1].replace(b"null", b"%r")
              % tuple(block[odd].tolist())).decode())


def write_samples(fh, family, dims, kind, seed, matrices):
    """One header line, then one matrix per line as nested [re, im] JSON,
    the bytes of ``json.dumps`` with separators (",", ":"), written in
    row blocks of at most ``_BLOCK_FLOATS`` floats.  A record that is not
    finite raises ``SpecFileError`` before anything is written."""
    for i, m in enumerate(matrices):
        _require(np.isfinite(m).all(), f"record[{i}]",
                 "must hold finite numbers")
    dims_text = ",".join(str(d) for d in dims)
    fh.write(f"{_HEADER}class={family} dims={dims_text} kind={kind} "
             f"seed={seed}\n")
    for m in matrices:
        m = np.ascontiguousarray(m, dtype=complex)  # one record's copy
        pairs = m.view(float).reshape(*m.shape, 2)
        rows = max(1, _BLOCK_FLOATS // (2 * m.shape[1]))
        for start in range(0, len(pairs), rows):
            fh.write("," if start else "[")
            _write_rows(fh, pairs[start:start + rows])
        fh.write("]\n")


def _record_array(raw):
    """``raw`` as a float array when it is a square array of [re, im]
    pairs of numbers, finite as floats, else None."""
    arr = np.array(None)  # stays for a ragged record
    with contextlib.suppress(ValueError):
        arr = np.array(raw)
    if not (arr.dtype.kind in "biuf" and arr.ndim == 3 and arr.shape[2] == 2
            and arr.shape[0] == arr.shape[1]):
        return None
    # finite after the cast: a longdouble can overflow a float
    with np.errstate(over="ignore"):
        arr = arr.astype(float, copy=False)
    return arr if np.isfinite(arr).all() else None


def _has_long_integer(line):
    """Whether ``line`` holds a run of 19 digits that does not follow a
    ".": every integer of magnitude 2^63 or more does, and no float that
    json writes (below 1e16 it has at most 16 digits before the ".", and
    an exponent has at most 3)."""
    chars = np.frombuffer(line.encode(), np.uint8)
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts = edges[::2][edges[1::2] - edges[::2] >= 19]
    return bool((chars[starts - 1] != ord(".")).any())


def read_samples(path):
    """Read a sample file; returns (metadata dict, list of matrices).
    Records are square arrays of finite [re, im] pairs of numbers.  A
    file larger than ``MAX_SAMPLE_BYTES`` is refused before it is read,
    a record longer than half of what the file leaves of that limit
    before it is decoded.

    A record shorter than ``_ORJSON_RECORD_CHARS`` is decoded by orjson.
    Where orjson refuses it (NaN, Infinity, 1e309, a lone surrogate), or
    its value fails the check or holds an |x| >= 2^63 written as an
    integer (orjson reads an integer beyond 64 bits as a float, json as
    an int that the check refuses), and for every longer record, ``json``
    decodes it, so every record is read or refused as ``json`` reads it."""
    import orjson  # here, not at import: only sample files need it

    size = _file_size(path)
    _require(size <= MAX_SAMPLE_BYTES, "$",
             f"{path} has {size} bytes; reading a sample file takes about "
             f"twice its size, so the limit is {MAX_SAMPLE_BYTES} bytes")
    record_limit = (MAX_SAMPLE_BYTES - size) // 2
    lines = _read_text(path).splitlines()
    _require(lines and lines[0].startswith(_HEADER), "$",
             "missing sample header line")
    meta = dict(token.partition("=")[::2]
                for token in lines[0][len(_HEADER):].split())
    _require(meta.get("kind") in ("gaussian", "circular"), "kind",
             "must be gaussian or circular")
    matrices = []
    for line in filter(str.strip, lines[1:]):
        field = f"record[{len(matrices)}]"
        _require(len(line) <= record_limit, field,
                 f"has {len(line)} bytes; decoding a record takes about 4 "
                 f"times its size besides twice the file's {size} bytes, "
                 f"so the limit is {record_limit} bytes")
        arr = None
        if len(line) < _ORJSON_RECORD_CHARS:
            with contextlib.suppress(orjson.JSONDecodeError):
                arr = _record_array(orjson.loads(line))
        if arr is None or (np.abs(arr).max() >= 2.0 ** 63
                           and _has_long_integer(line)):
            arr = _record_array(_load_json(line, field))
            _require(arr is not None, field, "expected a square array of "
                     "finite [re, im] number pairs")
        n = len(matrices[0]) if matrices else len(arr)
        _require(len(arr) == n, field,
                 f"expected a {n} x {n} matrix like the first record")
        # through the float view, which keeps the sign of a zero
        matrices.append(arr.view(complex)[..., 0])
    _require(matrices, "$", "sample file holds no records")
    return meta, matrices
