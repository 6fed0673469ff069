"""Tests for spec-file parsing, validation and sample-file round trips."""

import io
import json
import os
import tracemalloc

import numpy as np
import pytest

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


def _draw(family, dims, kind, size):
    spec = EnsembleSpec(label(family, *dims), kind=kind)
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
