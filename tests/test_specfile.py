"""Tests for spec-file parsing, validation and sample-file round trips."""

import io
import json

import numpy as np
import pytest

from tenfold.antiunitary import parity
from tenfold.errors import (NotInvolutiveError, SpecFileError,
                            SymmetryConsistencyError)
from tenfold.specfile import (_parse_matrix, matrix_to_pairs, parse_spec,
                              parse_spec_data, read_samples, write_samples)


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
        assert parsed.setting.g0.is_trivial()
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
