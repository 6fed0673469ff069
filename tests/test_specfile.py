"""Tests for spec-file parsing, validation and sample-file round trips."""

import io
import json
import os
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import matrix_to_pairs
from tenfold import linalg, specfile
from tenfold.antiunitary import parity
from tenfold.classifier import FAMILIES, label
from tenfold.ensembles import EnsembleSpec, sample_circular, sample_gaussian
from tenfold.errors import (NotInvolutiveError, SpecFileError,
                            SymmetryConsistencyError)
from tenfold.linalg import RngStream
from tenfold.specfile import (_parse_matrix, parse_spec, parse_spec_data,
                              read_samples, write_samples)


def pairs(mat):
    return matrix_to_pairs(np.asarray(mat, dtype=complex))


def minimal(dim=2, **extra):
    data = {
        "schema_version": "1",
        "dimension": dim,
        "setting": "hilbert",
        "g0": {"mode": "none"},
    }
    data.update(extra)
    return data


class TestParse:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(minimal()))
        parsed = parse_spec(path)
        assert parsed.setting.dim == 2
        assert len(parsed.setting.g0.elements) == 1
        assert parsed.seed == 0

    def test_time_reversal_spin_half(self):
        sy = [[0.0, 1.0], [-1.0, 0.0]]
        data = minimal(time_reversal={"matrix": pairs(sy)})
        parsed = parse_spec_data(data)
        assert parity(parsed.setting.time_reversal) == -1

    def test_non_unitary_generator_names_field(self):
        bad = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        data = minimal()
        data["g0"] = {"mode": "finite-group", "generators": [bad]}
        with pytest.raises(SpecFileError) as err:
            parse_spec_data(data)
        assert err.value.field == "g0.generators[0]"

    def test_non_involutive_t_is_consistency_error(self):
        u = np.array([[0.0, 1.0], [1j, 0.0]])  # T^2 = diag(-i, i)
        data = minimal(time_reversal={"matrix": pairs(u)})
        with pytest.raises(NotInvolutiveError):
            parse_spec_data(data)

    def test_non_involutive_s_is_consistency_error(self):
        data = minimal()
        data["setting"] = "nambu"
        data["g0"] = {"mode": "lie-algebra",
                      "generators": [pairs(1j * np.eye(2))]}
        data["particle_hole"] = {"s_matrix": pairs(np.array([[0.0, 1.0], [1j, 0.0]]))}
        with pytest.raises(SymmetryConsistencyError):
            parse_spec_data(data)

    def test_schema_version_checked(self):
        data = minimal()
        data["schema_version"] = "2"
        with pytest.raises(SpecFileError) as err:
            parse_spec_data(data)
        assert err.value.field == "schema_version"

    def test_dimension_mismatch_in_matrix(self):
        data = minimal(dim=3, time_reversal={"matrix": pairs(np.eye(2))})
        with pytest.raises(SpecFileError) as err:
            parse_spec_data(data)
        assert err.value.field == "time_reversal.matrix"

    def test_nonfinite_entry_rejected(self):
        data = minimal()
        bad = [[[float("nan"), 0.0], [0.0, 0.0]],
               [[0.0, 0.0], [1.0, 0.0]]]
        data["time_reversal"] = {"matrix": bad}
        with pytest.raises(SpecFileError):
            parse_spec_data(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFileError):
            parse_spec(tmp_path / "absent.json")

    def test_oversized_file_refused_before_reading(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(minimal()))
        size = path.stat().st_size
        monkeypatch.setattr(specfile, "MAX_SPEC_BYTES", size)
        assert parse_spec(path).setting.dim == 2

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(specfile, "_read_text", unread)
        monkeypatch.setattr(specfile, "MAX_SPEC_BYTES", size - 1)
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert str(err.value) == (
            f"$: {path} has {size} bytes; a parse takes about 7 times the "
            f"file size, so the limit is {size - 1} bytes")

    def test_file_limit_keeps_the_parse_within_three_array_caps(self):
        assert specfile.MAX_SPEC_BYTES == 3 * linalg.MAX_ARRAY_BYTES // 7

    def test_tolerance_and_seed_carried(self):
        data = minimal(tolerance=1e-6, seed=42)
        parsed = parse_spec_data(data)
        assert parsed.tolerance == 1e-6
        assert parsed.seed == 42
        assert parsed.setting.tolerance == 1e-6


def _grid(entry, at=(1, 0), dim=2):
    """A dim x dim matrix of [0.5, -1] pairs with ``entry`` at ``at``."""
    raw = [[[0.5, -1] for _ in range(dim)] for _ in range(dim)]
    raw[at[0]][at[1]] = entry
    return raw


class TestMatrixEntries:
    """The accept/reject set of matrix entries, pinned."""

    @pytest.mark.parametrize("entry, value", [
        ([1, -2], 1 - 2j),
        ([0.25, 1e308], 0.25 + 1e308j),
        ([True, False], 1 + 0j),
        ([-0.0, 3], complex(-0.0, 3)),
        ([10 ** 20, 0], 1e20 + 0j),
    ])
    def test_accepted(self, entry, value):
        out = _parse_matrix(_grid(entry), 2, "m")
        assert out.dtype == complex and out.shape == (2, 2)
        assert out[1, 0] == value
        assert np.array_equal(out[[0, 0, 1], [0, 1, 1]], [0.5 - 1j] * 3)

    @pytest.mark.parametrize("entry, value", [
        ([np.int64(1), np.float32(1.5)], 1 + 1.5j),
        ([np.bool_(True), np.float64(-2.0)], 1 - 2j),
    ])
    @pytest.mark.parametrize("big", [False, True])
    def test_numpy_scalars_on_both_paths(self, entry, value, big):
        # an int beyond int64 sends the whole grid through the entry loop
        raw = _grid(entry)
        if big:
            raw[0][1] = [2 ** 70, 0]
        out = _parse_matrix(raw, 2, "m")
        assert out[1, 0] == value
        assert out[0, 1] == (2.0 ** 70 if big else 0.5 - 1j)

    @pytest.mark.parametrize("entry, message", [
        ([float("nan"), 0], "entry (1, 0) must be finite"),
        ([0, float("inf")], "entry (1, 0) must be finite"),
        ([-float("inf"), 0], "entry (1, 0) must be finite"),
        ([10 ** 400, 0], "entry (1, 0) must be finite"),
        (["1.0", 0], "entry (1, 0) must hold two numbers"),
        ([0, None], "entry (1, 0) must hold two numbers"),
        ([[1], 0], "entry (1, 0) must hold two numbers"),
        ([1], "entry (1, 0) must be an [re, im] pair"),
        ([1, 2, 3], "entry (1, 0) must be an [re, im] pair"),
        ((1.0, 2.0), "entry (1, 0) must be an [re, im] pair"),
        (1.0, "entry (1, 0) must be an [re, im] pair"),
        ("1+2j", "entry (1, 0) must be an [re, im] pair"),
        ([np.float32("inf"), 0], "entry (1, 0) must be finite"),
        ([np.longdouble("1e400"), 0], "entry (1, 0) must be finite"),
    ])
    def test_rejected(self, entry, message):
        with pytest.raises(SpecFileError) as err:
            _parse_matrix(_grid(entry), 2, "m")
        assert err.value.field == "m"
        assert message in str(err.value)

    def test_first_bad_entry_in_row_major_order(self):
        raw = _grid(["x", 0], at=(2, 0), dim=3)
        raw[1][2] = [float("nan"), 0]
        with pytest.raises(SpecFileError, match=r"entry \(1, 2\) must be "
                                                r"finite"):
            _parse_matrix(raw, 3, "m")

    def test_bad_row_after_bad_entry(self):
        raw = _grid([None, 0], at=(0, 1), dim=3)
        raw[2] = raw[2][:2]
        with pytest.raises(SpecFileError, match=r"entry \(0, 1\) must hold"):
            _parse_matrix(raw, 3, "m")

    def test_bad_entry_after_bad_row(self):
        raw = _grid([None, 0], at=(2, 1), dim=3)
        raw[1] = raw[1] + [[0, 0]]
        with pytest.raises(SpecFileError, match="row 1 must have 3 entries"):
            _parse_matrix(raw, 3, "m")

    @pytest.mark.parametrize("raw", [None, "m", [[[0, 0]]], (((0, 0),),)])
    def test_wrong_outer_shape(self, raw):
        with pytest.raises(SpecFileError, match="expected a 2 x 2 matrix"):
            _parse_matrix(raw, 2, "m")


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(4)]
        buf = io.StringIO()
        write_samples(buf, "A", (3,), "gaussian", 7, mats)
        path = tmp_path / "samples.txt"
        path.write_text(buf.getvalue())
        meta, loaded = read_samples(path)
        assert meta == {"class": "A", "dims": "3", "kind": "gaussian",
                        "seed": "7"}
        for a, b in zip(mats, loaded):
            assert np.array_equal(a, b)  # [re, im] pairs are bit-exact

    def test_round_trip_keeps_the_sign_of_zeros(self, tmp_path):
        # the diagonal of a class-D draw has imaginary parts -0.0
        draws = sample_gaussian(EnsembleSpec(label("D", 3)), RngStream(1),
                                size=2)
        assert np.signbit(draws.imag[draws.imag == 0]).sum() == 12
        path = tmp_path / "d.txt"
        with open(path, "w", encoding="utf-8") as fh:
            write_samples(fh, "D", (3,), "gaussian", 1, draws)
        _, loaded = read_samples(path)
        assert np.asarray(loaded).tobytes() == draws.tobytes()

    def test_record_bytes_are_pinned(self):
        m = np.empty((2, 2), dtype=complex)
        m.real = [[-0.0, 3.0], [2.2250738585072014e-308, 1e-310]]
        m.imag = [[5e-324, -0.0], [-7.0, 0.0]]
        buf = io.StringIO()
        write_samples(buf, "A", (2,), "gaussian", 1, [m, m.T])
        assert buf.getvalue().splitlines()[1:] == [
            "[[[-0.0,5e-324],[3.0,-0.0]],"
            "[[2.2250738585072014e-308,-7.0],[1e-310,0.0]]]",
            "[[[-0.0,5e-324],[2.2250738585072014e-308,-7.0]],"
            "[[3.0,-0.0],[1e-310,0.0]]]"]

    def test_nonfinite_record_refused_before_the_header(self):
        m = np.eye(2, dtype=complex)
        m[1, 0] = complex(0.0, np.inf)
        buf = io.StringIO()
        with pytest.raises(SpecFileError, match=r"record\[1\]"):
            write_samples(buf, "A", (2,), "gaussian", 1, [np.eye(2), m])
        assert buf.getvalue() == ""

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[[1, 2]]\n")
        with pytest.raises(SpecFileError):
            read_samples(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# tenfold sample class=A dims=2 kind=gaussian "
                        "seed=0\nnot-json\n")
        with pytest.raises(SpecFileError):
            read_samples(path)


def _draw(family, dims, kind, size, sigma=1.0):
    spec = EnsembleSpec(label(family, *dims), sigma=sigma, kind=kind)
    sampler = sample_gaussian if kind == "gaussian" else sample_circular
    return sampler(spec, RngStream(5), size=size)


def _records(matrices):
    """The record lines the reference formatter writes."""
    return "".join(json.dumps(matrix_to_pairs(m), separators=(",", ":")) +
                   "\n" for m in matrices)


def _mismatch(matrices):
    """None when ``write_samples`` writes the reference records, else
    the first differing offset with the text around it on both sides
    (short, where an assert of the whole text would diff megabytes)."""
    buf = io.StringIO()
    write_samples(buf, "A", (1,), "gaussian", 5, matrices)
    got, want = buf.getvalue().partition("\n")[2], _records(matrices)
    if got == want:
        return None
    at = len(os.path.commonprefix([got, want]))
    lo = max(0, at - 30)
    return at, got[lo:at + 30], want[lo:at + 30]


class TestWriterBytes:
    """``write_samples`` writes the bytes of ``json.dumps`` record by
    record, whether a record's floats repeat in magnitude or not."""

    # matrix dimension 5, 6 or 8
    SMALL = {"A": (5,), "AI": (5,), "AII": (6,), "C": (3,), "CI": (3,),
             "D": (3,), "DIII": (4,), "AIII": (2, 3), "BDI": (3, 3),
             "CII": (2, 4)}

    @pytest.mark.parametrize("kind", ["gaussian", "circular"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("block", [1, 40, 1 << 16])
    def test_every_class_and_block_size(self, family, kind, block,
                                        monkeypatch):
        # a block of 1 float holds one row; 40 floats hold 4 rows of a
        # 5 x 5 record (one row left over) and split a 6 x 6 or 8 x 8
        # record exactly; the default holds the whole record
        monkeypatch.setattr(specfile, "_BLOCK_FLOATS", block)
        draws = _draw(family, self.SMALL[family], kind, 3)
        assert _mismatch(draws) is None

    @pytest.mark.parametrize("kind", ["gaussian", "circular"])
    @pytest.mark.parametrize("family, dims", [("D", (200,)), ("A", (256,))])
    def test_records_of_several_blocks(self, family, dims, kind):
        # D(200): 400 rows of 800 floats, four blocks of 81 rows and one
        # of 76; A(256): rows of 512 floats split exactly at row 128
        draws = _draw(family, dims, kind, 1)
        assert _mismatch(draws) is None

    def test_repeated_and_signed_magnitudes(self):
        # every magnitude repeats, with both signs and signed zeros
        m = np.array([[1.5, -1.5, 0.0, -0.0], [-0.0, 0.1, -0.1, 1.5]])
        m = m + 1j * m[::-1]
        assert _mismatch([m, -m, m.T]) is None

    @pytest.mark.parametrize("kind", ["gaussian", "circular"])
    def test_peak_memory_is_bounded_per_block(self, kind, tmp_path):
        # bounded by one row block, where nested lists of the whole
        # record and its one string peak at 55-57 MB
        draws = _draw("A", (512,), kind, 1)
        with open(tmp_path / "a.txt", "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                write_samples(fh, "A", (512,), kind, 5, draws)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 16e6

    def test_peak_memory_does_not_grow_with_the_record_count(self,
                                                             tmp_path):
        # Gaussian draws are not C-contiguous, so each record is copied,
        # one at a time
        peaks = []
        for count in (1, 8):
            draws = _draw("A", (512,), "gaussian", count)
            with open(tmp_path / "a.txt", "w", encoding="utf-8") as fh:
                tracemalloc.start()
                try:
                    write_samples(fh, "A", (512,), "gaussian", 5, draws)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1e6


def _random_bit_record(rng, n, exponents=None):
    """An n x n record of finite doubles from random bits, led by the
    edge cases of the orjson/repr notations and their neighbours; with
    ``exponents`` (lo, hi), each float's binary exponent is drawn from
    [lo, hi) instead."""
    edges = [0.0, 5e-324, 2.2250738585072014e-308, np.finfo(float).max]
    for x in (1e-4, 1e-5, 1e16):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    edges += [-x for x in edges]
    bits = rng.integers(0, 1 << 64, size=2 * n * n, dtype=np.uint64)
    if exponents is not None:
        biased = rng.integers(*exponents, size=bits.size) + 1023
        bits = bits & ~np.uint64(0x7FF << 52) | biased.astype(np.uint64) << 52
    floats = bits.view(float)
    floats[~np.isfinite(floats)] = 1.5
    floats[:len(edges)] = edges
    return floats.view(complex).reshape(n, n)


class TestWriterNotation:
    """orjson's notation differs from ``repr`` for 0 < |x| < 1e-4 and
    |x| >= 1e16, where ``repr`` writes an exponent; the writer sends
    those floats to orjson as NaN placeholders and writes their ``repr``
    in place of each ``null``."""

    def test_random_bit_doubles_match_json(self):
        # 708^2 complex entries: 1 002 528 floats, about 96 % of them in
        # one of the rewritten ranges, so about 96 % of the tokens of
        # every block of 46 rows are placeholders
        m = _random_bit_record(np.random.default_rng(31), 708)
        assert _mismatch([m]) is None

    def test_mixed_notations_match_json(self):
        # binary exponents -40 to 69: about 39 % of the 1 002 528 floats
        # in the rewritten ranges, a share each block holds, so each is
        # written by orjson with those floats as placeholders
        m = _random_bit_record(np.random.default_rng(32), 708, (-40, 70))
        floats = np.abs(m.view(float))
        share = np.mean(((floats < 1e-4) & (floats > 0)) | (floats >= 1e16))
        assert 0.35 < share < 0.45
        assert _mismatch([m]) is None

    def test_exponents_orjson_writes_are_rewritten(self, monkeypatch):
        # whatever the magnitude, a block where orjson writes an exponent
        # is written by repr alone
        import orjson

        monkeypatch.setattr(orjson, "dumps",
                            lambda obj, option, dumps=orjson.dumps:
                            dumps(obj, option=option).replace(b"1000.0",
                                                              b"1e3"))
        m = np.array([[1000.0 - 1000j, 2.5], [1e-5, 1000.0]])
        assert _mismatch([m]) is None

    @pytest.mark.parametrize("x, text", [
        (9.99e-05, "9.99e-05"), (1e-06, "1e-06"), (1e16, "1e+16"),
        (-1.7976931348623157e308, "-1.7976931348623157e+308"),
        (1e-4, "0.0001"), (123456789012345.6, "123456789012345.6"),
        (-5e-324, "-5e-324"), (-0.0, "-0.0")])
    def test_each_notation_as_repr(self, x, text):
        buf = io.StringIO()
        write_samples(buf, "A", (1,), "gaussian", 1, [np.full((1, 1), x)])
        assert buf.getvalue().splitlines()[1] == f"[[[{text},0.0]]]"

    # of the 760 nonzero floats, sigma 1e-6 and 1e20 rewrite all, 2e-4
    # 510, 1e16 24 and 1 none; circular draws are unitary whatever sigma
    # is
    @pytest.mark.parametrize("kind, sigma", [
        pytest.param("gaussian", 1.0, id="gaussian"),
        pytest.param("circular", 1.0, id="circular"),
        *(pytest.param("gaussian", s, id=f"gaussian-{s!r}")
          for s in (1e-6, 2e-4, 1e16, 1e20))])
    def test_same_file_as_the_repr_writer(self, kind, sigma):
        draws = _draw("C", (5,), kind, 4, sigma)
        ours, theirs = io.StringIO(), io.StringIO()
        write_samples(ours, "C", (5,), kind, 5, draws)
        oracles.write_samples_repr(theirs, "C", (5,), kind, 5, draws)
        assert ours.getvalue() == theirs.getvalue()

    def test_orjson_writes_nan_as_null(self):
        # the placeholder the writer fills in
        import orjson

        assert orjson.dumps(np.array([[[np.nan, -np.nan]]]),
                            option=orjson.OPT_SERIALIZE_NUMPY) == \
            b"[[[null,null]]]"

    def test_orjson_writes_repr_between_the_cutoffs(self):
        # the floats the writer leaves to orjson: 1e-4 <= |x| < 1e16,
        # log-uniform, both signs, with 1e-4 and the doubles next to both
        # ends inside the range
        import orjson

        rng = np.random.default_rng(33)
        ends = [1e-4, np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0)]
        mags = np.concatenate((ends, 10.0 ** rng.uniform(-4, 16, 200_000)))
        x = np.clip(mags, ends[0], ends[-1]) * rng.choice([-1.0, 1.0],
                                                          mags.size)
        assert orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY) == \
            ("[" + ",".join(map(repr, x.tolist())) + "]").encode()


def _entry_record(entry, at=(1, 0)):
    """A 3 x 3 record of [0.5, -1.0] pairs with the JSON text ``entry``
    at ``at``."""
    raw = [[[0.5, -1.0] for _ in range(3)] for _ in range(3)]
    raw[at[0]][at[1]] = "@"
    return json.dumps(raw).replace('"@"', entry)


def _int_record(value):
    """A 1 x 1 record of the integer pair [value, 0]: an array of ints."""
    return f"[[[{value},0]]]"


_PARITY_RECORDS = {
    "nan": [_entry_record("[NaN, 0]")],
    "infinity": [_entry_record("[0, Infinity]")],
    "minus-infinity": [_entry_record("[-Infinity, 0]")],
    "1e999": [_entry_record("[1e999, 0]")],
    "minus-1e-400": [_entry_record("[-1e-400, 0]")],
    "int-2^63-1": [_entry_record(f"[{2 ** 63 - 1}, 0]"),
                   _entry_record(f"[{2 ** 63 - 1}, 0]")],
    "int-2^64-1": [_entry_record(f"[{2 ** 64 - 1}, 0]")],
    "int-2^64": [_entry_record(f"[{2 ** 64}, 0]")],
    "int-minus-2^63-1": [_entry_record(f"[{-2 ** 63 - 1}, 0]")],
    "ints-2^63-1": [_int_record(2 ** 63 - 1)],
    "ints-2^64-1": [_int_record(2 ** 64 - 1)],
    "ints-2^64": [_int_record(2 ** 64)],
    "ints-minus-2^63": [_int_record(-2 ** 63)],
    "ints-minus-2^63-1": [_int_record(-2 ** 63 - 1)],
    "floats-from-2^63": [_entry_record("[1e+19, -9.3e+18]"),
                         _entry_record("[18446744073709551616.0, "
                                       "0.00012345678901234567]")],
    "true-false": [_entry_record("[true, false]")],
    "booleans-only": ["[[[true,false]]]"],
    "nested-1000": ["[" * 1000 + "]" * 1000],
    "nested-1020": ["[" * 1020 + "]" * 1020],
    "nested-100000": ["[" * 100_000 + "]" * 100_000],
    "lone-surrogate": [_entry_record('["\\ud800", 0]')],
    "whitespace": [" [ [\t[ 1 ,\t0 ] , [0,0]],[[ 0 , 0],[2e0, -0 ]]]\t",
                   "[[[1,0],[0,0]],[[0,0],[2,0]]]"],
    "ragged": [_entry_record("[1]")],
    "second-record-smaller": [_entry_record("[1, 0]"), _int_record(1)],
    "trailing-comma": ["[[[1,0],]]"],
    "leading-zero": [_entry_record("[01, 0]")],
}


def _read_both(tmp_path, records):
    """``read_samples`` and the json-only reader on one file: each side
    is (metadata, matrices) or the raised (field, message)."""
    path = tmp_path / "s.txt"
    path.write_text("\n".join(["# tenfold sample class=A dims=3 "
                               "kind=gaussian seed=0", *records]) + "\n",
                    encoding="utf-8")
    results = []
    for reader in (read_samples, oracles.read_samples_json):
        try:
            results.append(reader(path))
        except SpecFileError as err:
            results.append((err.field, str(err)))
    return results


def _same_reading(ours, theirs):
    if isinstance(ours[1], str):
        return ours == theirs
    return (not isinstance(theirs[1], str) and ours[0] == theirs[0] and
            len(ours[1]) == len(theirs[1]) and
            all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                for a, b in zip(ours[1], theirs[1])))


class TestReaderParity:
    """The orjson reader returns the json reader's matrices bit for bit,
    or its field and message, on every record."""

    @pytest.mark.parametrize("case", list(_PARITY_RECORDS))
    def test_record(self, case, tmp_path):
        ours, theirs = _read_both(tmp_path, _PARITY_RECORDS[case])
        assert _same_reading(ours, theirs), (ours, theirs)

    def test_outcomes_are_pinned(self, tmp_path):
        # both refusals and readings occur in the table
        read = {case for case, records in _PARITY_RECORDS.items()
                if not isinstance(_read_both(tmp_path, records)[0][1], str)}
        assert read == {"minus-1e-400", "int-2^63-1", "int-2^64-1",
                        "ints-2^63-1", "ints-2^64-1", "ints-minus-2^63",
                        "floats-from-2^63",
                        "true-false", "booleans-only", "whitespace"}

    @pytest.mark.parametrize("line, long", [
        ("[[[1e+19,0.00012345678901234567]]]", False),
        ("[[[922337203685477580,1e+300]]]", False),
        ("[[[9223372036854775808,0]]]", True),
        ("[[[0,-18446744073709551616]]]", True),
        ("[[[1e+19, 12345678901234567890.5]]]", True),
        ("1234567890123456789", True),
        ("[0.12345678901234567890,1234567890123456789]", True),
        ("[0.12345678901234567890e+12,123456789012345678]", False),
        ("-0.0001234567890123456789", False)])
    def test_long_integers_are_found_in_the_text(self, line, long):
        # orjson reads an integer beyond 64 bits as a float; a record
        # with a 19-digit integer and an |x| >= 2^63 goes to json
        assert specfile._has_long_integer(line) is long

    def test_long_and_halfway_decimals(self, tmp_path):
        # 17 to 30 significant digits, and the exact midpoints between
        # neighbouring doubles, which round to the even one
        rng = np.random.default_rng(7)
        texts = []
        for size in rng.integers(17, 31, 3600):
            digits = "".join(map(str, rng.integers(0, 10, size)))
            texts.append(f"{digits[0]}.{digits[1:]}e{rng.integers(-330, 300)}")
        for x in rng.standard_normal(3600) * 10.0 ** rng.integers(-20, 20,
                                                                  3600):
            # mid = p / 2^k, exactly p 5^k / 10^k
            mid = (Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2
            k = mid.denominator.bit_length() - 1
            texts.append(f"{mid.numerator * 5 ** k}e-{k}")
        rng.shuffle(texts)
        pairs = [f"[{a},{b}]" for a, b in zip(texts[::2], texts[1::2])]
        record = "[" + ",".join("[" + ",".join(pairs[i:i + 60]) + "]"
                                for i in range(0, 3600, 60)) + "]"
        ours, theirs = _read_both(tmp_path, [record])
        assert not isinstance(ours[1], str)
        assert _same_reading(ours, theirs)


def _spec_text(version='"1"', dimension="2", seed="0", entry="[1, 0]",
               extra="", space=" "):
    """A spec of the swap group <sigma_x> with T = diag(1, entry) K, its
    fields the JSON texts given and ``space`` between its tokens."""
    text = ('{"schema_version": %s, "dimension": %s, "setting": "hilbert", '
            '"seed": %s, "g0": {"mode": "finite-group", "generators": '
            '[[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}, "time_reversal": '
            '{"matrix": [[[1, 0], [0, 0]], [[0, 0], %s]]}%s}'
            % (version, dimension, seed, entry, extra))
    return text.replace(" ", space)


def _lie_text(entry):
    """A spec of the Lie algebra of diag(i entry, 0)."""
    return ('{"schema_version": "1", "dimension": 2, "setting": "hilbert", '
            '"g0": {"mode": "lie-algebra", "generators": '
            '[[[[0, %s], [0, 0]], [[0, 0], [0, 0]]]]}}' % entry)


_NON_FINITE = {"nan": "NaN", "infinity": "Infinity",
               "minus-infinity": "-Infinity", "1e400": "1e400"}
_LONG_INTEGERS = {"2^63-1": 2 ** 63 - 1, "2^63": 2 ** 63, "2^64": 2 ** 64,
                  "minus-2^63-1": -2 ** 63 - 1, "10^20": 10 ** 20}
_PARITY_SPECS = {
    **{f"entry-{name}": _spec_text(entry=f"[{text}, 0]")
       for name, text in _NON_FINITE.items()},
    **{f"unknown-{name}": _spec_text(extra=f', "x": [{text}]')
       for name, text in _NON_FINITE.items()},
    "entry-minus-1e-400": _spec_text(entry="[1, -1e-400]"),
    **{f"{field}-{name}": _spec_text(**{field: str(value)})
       for field in ("version", "dimension", "seed")
       for name, value in _LONG_INTEGERS.items()},
    **{f"entry-{name}": _spec_text(entry=f"[{value}, 0]")
       for name, value in {**_LONG_INTEGERS, "10^400": 10 ** 400}.items()},
    **{f"lie-{name}": _lie_text(value)
       for name, value in {**_LONG_INTEGERS, "10^400": 10 ** 400}.items()},
    "bom": "\ufeff" + _spec_text(),
    "duplicate-keys": _spec_text(dimension='3, "dimension": 2'),
    "lone-surrogate-key": _spec_text(extra=', "\\ud800": 1'),
    "whitespace": _spec_text(space="\t\n \r"),
    "trailing-comma": _spec_text(extra=","),
    "leading-zero": _spec_text(dimension="02"),
    "version-nested-995": _spec_text(version="[" * 995 + "]" * 995),
    "unknown-nested-1000": _spec_text(
        extra=', "x": ' + "[" * 1000 + "]" * 1000),
}


def _spec_reading(parse, path):
    """A parse as its plain fields and matrices, or the raised
    (field, message)."""
    try:
        spec = parse(path)
    except SpecFileError as err:
        return err.field, str(err)
    setting = spec.setting
    matrices = [*setting.g0.generators, setting.particle_hole,
                *(op.u for op in (setting.time_reversal,
                                  setting.charge_conjugation) if op)]
    if setting.g0.elements is not None:
        matrices.append(setting.g0.elements)
    return ((spec.declared_kind, spec.seed, spec.tolerance, setting.kind,
             setting.dim, setting.tol),
            [(m.dtype, m.shape, m.tobytes()) for m in matrices
             if m is not None])


def _benchmark_specs(tmp_path):
    """The spec files of the two classify benchmark workloads, seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] /
                           "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in ("classify-wide", "classify-big-group"):
        workloads.build(name, 1, tmp_path / name)
    return sorted(tmp_path.glob("*/spec*.json"))


class TestSpecDecoderParity:
    """``parse_spec`` reads every spec as the json-only parser does: the
    same fields and matrices bit for bit, or the same field and
    message."""

    @pytest.mark.parametrize("case", list(_PARITY_SPECS))
    def test_document(self, case, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_PARITY_SPECS[case], encoding="utf-8")
        assert (_spec_reading(parse_spec, path) ==
                _spec_reading(oracles.parse_spec_json, path))

    def test_outcomes_are_pinned(self, tmp_path):
        # both refusals and readings occur in the table
        path = tmp_path / "spec.json"
        read = set()
        for case, text in _PARITY_SPECS.items():
            path.write_text(text, encoding="utf-8")
            if isinstance(_spec_reading(parse_spec, path)[1], list):
                read.add(case)
        assert read == {"unknown-nan", "unknown-infinity",
                        "unknown-minus-infinity", "unknown-1e400",
                        "entry-minus-1e-400", "seed-2^63-1", "seed-2^63",
                        "lie-2^63-1", "lie-2^63", "lie-2^64",
                        "lie-minus-2^63-1", "lie-10^20", "duplicate-keys",
                        "lone-surrogate-key", "whitespace"}

    def test_benchmark_specs(self, tmp_path):
        paths = _benchmark_specs(tmp_path)
        assert len(paths) == 19
        for path in paths:
            ours = _spec_reading(parse_spec, path)
            assert isinstance(ours[1], list), (path, ours)
            assert ours == _spec_reading(oracles.parse_spec_json, path)


@pytest.mark.parametrize("text, depth", [
    ("1", 0), ("[]", 1), ('{"a": [[1, 2], {"b": [3]}]}', 4),
    ('{"a": "]]]]", "b": [[[[1]]]]}', None),
    ('{"a": "[[", "b": 1}', None), ('{"a\\u00e9": [1]}', None),
    ("[" * 1000 + "]" * 1000, 1000)])
def test_nesting_guard(text, depth):
    # a bracket or an escape in a string leaves the text to json
    for bound in (0, 1, 3, 4, 999, 1000):
        assert specfile._nests_at_most(text, bound) is (
            depth is not None and depth <= bound)


class TestSampleFileLimit:
    def _file(self, tmp_path):
        path = tmp_path / "s.txt"
        with open(path, "w", encoding="utf-8") as fh:
            write_samples(fh, "A", (2,), "gaussian", 0, [np.eye(2)] * 2)
        return path, path.stat().st_size, len("[[[1.0,0.0],[0.0,0.0]],"
                                              "[[0.0,0.0],[1.0,0.0]]]")

    def test_oversized_file_refused_before_reading(self, tmp_path,
                                                   monkeypatch):
        path, size, record = self._file(tmp_path)
        monkeypatch.setattr(specfile, "MAX_SAMPLE_BYTES", size + 2 * record)
        assert np.array_equal(read_samples(path)[1][1], np.eye(2))

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(specfile, "_read_text", unread)
        monkeypatch.setattr(specfile, "MAX_SAMPLE_BYTES", size - 1)
        with pytest.raises(SpecFileError) as err:
            read_samples(path)
        assert err.value.field == "$"
        assert str(err.value) == (
            f"$: {path} has {size} bytes; reading a sample file takes about "
            f"twice its size, so the limit is {size - 1} bytes")

    def test_long_record_refused_before_decoding(self, tmp_path,
                                                 monkeypatch):
        # the file fits, and each record is one byte over half of what
        # the file leaves of the limit
        path, size, record = self._file(tmp_path)
        monkeypatch.setattr(specfile, "MAX_SAMPLE_BYTES",
                            size + 2 * record - 2)
        monkeypatch.setattr(specfile, "_record_array", None)
        with pytest.raises(SpecFileError) as err:
            read_samples(path)
        assert err.value.field == "record[0]"
        assert str(err.value) == (
            f"record[0]: has {record} bytes; decoding a record takes about "
            f"4 times its size besides twice the file's {size} bytes, so "
            f"the limit is {record - 1} bytes")

    def test_limits_keep_the_read_within_three_array_caps(self):
        # twice the file plus four times its longest record
        assert specfile.MAX_SAMPLE_BYTES == 3 * linalg.MAX_ARRAY_BYTES // 2

    def test_records_from_the_orjson_limit_on_are_decoded_by_json(
            self, tmp_path, monkeypatch):
        import orjson

        path, _, record = self._file(tmp_path)
        decoded = []
        monkeypatch.setattr(orjson, "loads",
                            lambda line, loads=orjson.loads:
                            decoded.append(line) or loads(line))
        monkeypatch.setattr(specfile, "_ORJSON_RECORD_CHARS", record + 1)
        assert len(read_samples(path)[1]) == 2 and len(decoded) == 2
        monkeypatch.setattr(specfile, "_ORJSON_RECORD_CHARS", record)
        meta, matrices = read_samples(path)
        assert len(decoded) == 2
        assert (meta, [m.tobytes() for m in matrices]) == (
            oracles.read_samples_json(path)[0],
            [m.tobytes() for m in oracles.read_samples_json(path)[1]])
