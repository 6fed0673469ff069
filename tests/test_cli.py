"""Tests for the command-line surface and its exit-code contract."""

import json

import numpy as np
import pytest
from tenfold.cli import main
from tenfold.specfile import matrix_to_pairs


def pairs(mat):
    return matrix_to_pairs(np.asarray(mat, dtype=complex))


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def trivial_spec(dim=2, **extra):
    data = {
        "schema_version": "1",
        "dimension": dim,
        "setting": "hilbert",
        "g0": {"mode": "none"},
    }
    data.update(extra)
    return data


class TestClassifyCommand:
    def test_trivial_hilbert(self, tmp_path, capsys):
        path = write_spec(tmp_path, trivial_spec())
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "class=A" in out and "space=U_2" in out

    def test_empty_nambu_dim_three(self, tmp_path, capsys):
        spec = trivial_spec(dim=3)
        spec["setting"] = "nambu"
        path = write_spec(tmp_path, spec)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "class=D" in out and "space=SO_6" in out

    def test_u1_charge_conjugation_aiii(self, tmp_path, capsys):
        spec = trivial_spec(dim=3)
        spec["g0"] = {"mode": "lie-algebra",
                      "generators": [pairs(1j * np.eye(3))]}
        spec["particle_hole"] = {"s_matrix": pairs(np.diag([1.0, -1.0,
                                                            -1.0]))}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "class=AIII" in out
        assert "space=U_3/(U_1 x U_2)" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, trivial_spec())
        assert main(["classify", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"][0]["class"] == "A"
        assert payload["seed"] == 0

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-2])
    def test_multiplicity_three_at_loose_tolerance(self, tmp_path, capsys,
                                                   tolerance):
        # Z3 on C^3 (x) C^3 in a non-diagonal basis: three lines in each
        # of three sectors
        shift = np.roll(np.eye(3), 1, axis=0)
        w = np.linalg.qr(np.arange(81).reshape(9, 9) % 7 + np.eye(9))[0]
        spec = trivial_spec(dim=9, tolerance=tolerance)
        spec["g0"] = {"mode": "finite-group", "generators": [
            pairs(w @ np.kron(shift, np.eye(3)) @ w.T)]}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path, "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert sorted((b["d"], b["m"]) for b in blocks) == [(1, 3)] * 3

    def test_exit_two_on_schema_error(self, tmp_path, capsys):
        spec = trivial_spec()
        bad = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        spec["g0"] = {"mode": "finite-group", "generators": [bad]}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path]) == 2
        assert "g0.generators[0]" in capsys.readouterr().err

    def test_exit_three_on_corrupt_t(self, tmp_path, capsys):
        spec = trivial_spec()
        spec["time_reversal"] = {"matrix": pairs(np.array([[0.0, 1.0], [1j, 0.0]]))}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path]) == 3

    def test_exit_four_on_unsupported(self, tmp_path, capsys):
        spec = trivial_spec(dim=3)
        spec["time_reversal"] = {"matrix": pairs(np.eye(3))}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path, "--tenfold"]) == 4


class TestSampleCommand:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        args = ["sample", "--class", "A", "--dims", "2", "--count", "3",
                "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_format(self, tmp_path):
        out = tmp_path / "s.txt"
        main(["sample", "--class", "D", "--dims", "3", "--count", "1",
              "--seed", "5", "--out", str(out)])
        first = out.read_text().splitlines()[0]
        assert first == "# tenfold sample class=D dims=3 kind=gaussian seed=5"

    def test_class_d_paired_eigenvalues(self, tmp_path):
        from tenfold.specfile import read_samples
        out = tmp_path / "d.txt"
        main(["sample", "--class", "D", "--dims", "3", "--count", "2",
              "--out", str(out)])
        _, mats = read_samples(out)
        for m in mats:
            ev = np.linalg.eigvalsh(m)
            assert np.allclose(ev, -ev[::-1], atol=1e-12)

    def test_circular_ai_symmetric(self, tmp_path):
        from tenfold.specfile import read_samples
        out = tmp_path / "coe.txt"
        main(["sample", "--class", "AI", "--dims", "4", "--kind", "circular",
              "--count", "2", "--out", str(out)])
        _, mats = read_samples(out)
        for m in mats:
            assert np.linalg.norm(m - m.T) < 1e-12

    def test_invalid_dims_exit_two(self, capsys):
        assert main(["sample", "--class", "AII", "--dims", "3",
                     "--count", "1"]) == 2


class TestStatsCommand:
    def test_poisson_control(self, capsys):
        assert main(["stats", "--poisson", "3", "--count", "20000",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# tenfold stats seed=3"
        assert out[1] == "statistic,value,stderr"
        name, value, stderr = out[2].split(",")
        assert name == "mean_r"
        target = 2 * np.log(2.0) - 1.0
        assert abs(float(value) - target) <= 4 * float(stderr)

    def test_sampling_mode_header_and_histogram(self, capsys):
        assert main(["stats", "--class", "AI", "--dims", "3", "--count",
                     "2000", "--seed", "1", "--bins", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "bin_center,density" in lines
        rows = lines[lines.index("bin_center,density") + 1:]
        assert len(rows) == 3

    def test_single_bin_density(self, capsys):
        assert main(["stats", "--class", "A", "--dims", "4", "--count",
                     "50", "--seed", "1", "--bins", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        center, density = lines[-1].split(",")
        assert float(center) == 0.0
        assert float(density) > 0

    def test_from_file(self, tmp_path, capsys):
        out = tmp_path / "samples.txt"
        main(["sample", "--class", "AI", "--dims", "4", "--count", "200",
              "--seed", "2", "--out", str(out)])
        assert main(["stats", "--in", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# tenfold stats seed=")
        assert lines[2].startswith("mean_r,")

    def test_byte_identical_reruns(self, capsys):
        args = ["stats", "--class", "AI", "--dims", "3", "--count", "500",
                "--seed", "9", "--bins", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unreadable_file_exit_two(self, tmp_path):
        assert main(["stats", "--in", str(tmp_path / "nope.txt")]) == 2


class TestVerifyCommand:
    def test_all_classes_fast(self, capsys):
        assert main(["verify", "--all-classes", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_full_level_reports_named_checks(self, capsys):
        assert main(["verify", "--all-classes", "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "fock.C2-sign-law" in out
        assert "fock.covering-two-to-one" in out

    def test_spec_verify(self, tmp_path, capsys):
        path = write_spec(tmp_path, trivial_spec())
        assert main(["verify", path]) == 0
        assert "setting.classify" in capsys.readouterr().out

    def test_corrupt_spec_exits_three(self, tmp_path):
        spec = trivial_spec()
        spec["time_reversal"] = {"matrix": pairs(np.array([[0.0, 1.0], [1j, 0.0]]))}
        path = write_spec(tmp_path, spec)
        assert main(["verify", path]) == 3


class TestFockVerifyCommand:
    def test_small_run(self, capsys):
        assert main(["fock-verify", "--modes", "3", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "fock.car" in out
        assert "fock.C2-sign-law" in out
        assert "FAIL" not in out


class TestToleranceEnv:
    def test_env_override(self, tmp_path):
        import os
        import subprocess
        import sys
        spec = trivial_spec()
        # generator off from anti-Hermitian by 1e-6: rejected at the
        # default tolerance, accepted when TENFOLD_TOLERANCE is loosened
        almost = 1j * np.eye(2) + 1e-6 * np.eye(2)
        spec["g0"] = {"mode": "lie-algebra", "generators": [pairs(almost)]}
        path = write_spec(tmp_path, spec)
        strict = subprocess.run(
            [sys.executable, "-m", "tenfold.cli", "classify", path],
            capture_output=True)
        assert strict.returncode == 2
        env = dict(os.environ, TENFOLD_TOLERANCE="1e-4")
        loose = subprocess.run(
            [sys.executable, "-m", "tenfold.cli", "classify", path],
            capture_output=True, env=env)
        assert loose.returncode == 0, loose.stderr

    @pytest.mark.parametrize("value", ["abc", "nan", "0", "2"])
    def test_malformed_value_exits_two(self, tmp_path, value):
        import os
        import subprocess
        import sys
        path = write_spec(tmp_path, trivial_spec())
        env = dict(os.environ, TENFOLD_TOLERANCE=value)
        run = subprocess.run(
            [sys.executable, "-m", "tenfold.cli", "classify", path],
            capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert "TENFOLD_TOLERANCE" in run.stderr
        assert "Traceback" not in run.stderr

    def test_malformed_value_raises_on_library_use(self):
        # the package imports, but reading the tolerance must not fall
        # back to the default without a word
        import os
        import subprocess
        import sys
        code = ("import numpy as np\n"
                "from tenfold import linalg\n"
                "from tenfold.errors import InputShapeError\n"
                "for read in (lambda: linalg.TOL_INPUT,\n"
                "             lambda: linalg.is_hermitian(np.eye(2))):\n"
                "    try:\n"
                "        read()\n"
                "    except InputShapeError as err:\n"
                "        assert 'TENFOLD_TOLERANCE' in str(err)\n"
                "    else:\n"
                "        raise SystemExit('no error')\n")
        env = dict(os.environ, TENFOLD_TOLERANCE="abc")
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr + run.stdout
