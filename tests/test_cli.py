"""Tests for the command-line surface and its exit-code contract."""

import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from tenfold import linalg
from tenfold.cli import build_parser, main
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


class TestRejectedEnsembleInputs:
    def test_circular_count_zero_exits_two(self, capsys):
        assert main(["sample", "--class", "A", "--dims", "2", "--kind",
                     "circular", "--count", "0"]) == 2

    def test_negative_count_exits_two(self, capsys):
        assert main(["sample", "--class", "A", "--dims", "2", "--count",
                     "-1"]) == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_nonfinite_sigma_exits_two(self, sigma, capsys):
        assert main(["sample", "--class", "AI", "--dims", "2", "--sigma",
                     sigma]) == 2
        assert capsys.readouterr().out == ""

    def test_stats_count_zero_exits_two(self, capsys):
        assert main(["stats", "--class", "A", "--dims", "4", "--count",
                     "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_fock_verify_negative_trials_exits_two(self, capsys):
        assert main(["fock-verify", "--modes", "2", "--trials", "-1"]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_fock_verify_above_the_dense_cap_exits_two(self, capsys):
        assert main(["fock-verify", "--modes", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limited to" in captured.err

    @pytest.mark.parametrize("modes", ["12", "15"])
    def test_fock_verify_advertises_the_dense_range(self, modes, capsys):
        assert main(["fock-verify", "--modes", modes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mode count must be in 1..11" in captured.err

    @pytest.mark.parametrize("command", ["sample", "stats"])
    def test_oversized_draw_exits_two_before_allocating(self, command,
                                                        capsys):
        tracemalloc.start()
        try:
            code = main([command, "--class", "A", "--dims", "100000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above the limit" in captured.err
        assert peak < 1 << 20

    @pytest.mark.parametrize("levels", ["-5", "1000000000"])
    def test_bad_poisson_level_count_exits_two(self, levels, capsys):
        assert main(["stats", "--poisson", levels]) == 2
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize("family,dims", [("AII", "8"), ("DIII", "4"),
                                             ("CII", "4,2")])
    def test_kramers_classes_give_a_finite_ratio(self, family, dims, capsys):
        assert main(["stats", "--class", family, "--dims", dims, "--count",
                     "200", "--seed", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[2]
        name, value, stderr = row.split(",")
        assert name == "mean_r"
        assert 0.0 < float(value) < 1.0 and np.isfinite(float(stderr))

    def test_unreadable_file_exit_two(self, tmp_path):
        assert main(["stats", "--in", str(tmp_path / "nope.txt")]) == 2

    def test_mixed_record_sizes_exit_two(self, tmp_path, capsys):
        small, big = tmp_path / "a3.txt", tmp_path / "a4.txt"
        for path, dims in ((small, "3"), (big, "4")):
            assert main(["sample", "--class", "A", "--dims", dims, "--count",
                         "3", "--seed", "1", "--out", str(path)]) == 0
        mixed = tmp_path / "mixed.txt"
        mixed.write_text(small.read_text() +
                         "".join(big.read_text().splitlines(True)[1:]))
        capsys.readouterr()
        assert main(["stats", "--in", str(mixed)]) == 2
        assert "record[3]" in capsys.readouterr().err

    def test_single_ratio_has_zero_stderr(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stats", "--class", "A", "--dims", "3", "--count",
                         "1", "--seed", "0"]) == 0
        name, value, stderr = capsys.readouterr().out.splitlines()[2].split(",")
        assert name == "mean_r" and 0.0 < float(value) <= 1.0
        assert float(stderr) == 0.0


class TestVerifyCommand:
    def test_all_classes_fast(self, capsys):
        assert main(["verify", "--all-classes", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_full_level_reports_named_checks(self, capsys):
        assert main(["verify", "--all-classes", "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "fock.C2-sign-law" in out
        assert "PASS fock.covering-two-to-one: worst covering residual " \
            in out
        assert "max|M(U) - M(-U)| 0.00e+00" in out

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
        assert "PASS fock.covering-two-to-one: max|M(U) - M(-U)| " \
            "0.00e+00" in out
        assert "FAIL" not in out


def test_cli_import_leaves_scipy_out():
    code = ("import sys\n"
            "import tenfold.cli\n"
            "assert 'scipy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))[:5]\n")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestParserReuse:
    def test_one_process_matches_fresh_processes(self, tmp_path, capsys):
        path = write_spec(tmp_path, trivial_spec())
        calls = (["classify", path, "--json"],
                 ["sample", "--class", "D", "--dims", "3", "--count", "2",
                  "--seed", "5"],
                 ["stats", "--class", "AI", "--dims", "6", "--count", "20",
                  "--bins", "3"],
                 ["sample", "--class", "ZZ", "--dims", "2"],
                 ["classify", path, "--json"])
        codes = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = stop.code
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "tenfold.cli", *argv],
                capture_output=True, text=True)
            assert (code, got.out, got.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [0, 0, 0, 2, 0]
        assert build_parser() is build_parser()


class TestToleranceEnv:
    def test_env_override(self, tmp_path):
        import os
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


def _symplectic(m):
    return np.block([[np.zeros((m, m)), np.eye(m)],
                     [-np.eye(m), np.zeros((m, m))]])


class TestTrivialGroupSpecs:
    """Mode "none" is the finite group of order one; the answers are
    pinned to the text they had when it was a mode of its own."""

    @pytest.mark.parametrize("t, flags, line", [
        (None, [], "class=A space=U_4"),
        (None, ["--tenfold"], "class=D space=SO_8"),
        ("1", [], "class=AI space=U_4/O_4"),
        ("J", [], "class=AII space=U_4/USp_4"),
        ("J", ["--tenfold"], "class=DIII space=SO_8/U_4"),
        ("1", ["--tenfold"], None),
    ])
    def test_classify_and_verify(self, tmp_path, capsys, t, flags, line):
        u = {None: None, "1": np.eye(4), "J": _symplectic(2)}[t]
        spec = trivial_spec(dim=4)
        if u is not None:
            spec["time_reversal"] = {"matrix": pairs(u)}
        path = write_spec(tmp_path, spec)
        if line is None:  # T^2 = +1 on Nambu space: outside the table
            assert main(["classify", path] + flags) == 4
            assert capsys.readouterr().err.startswith(
                "unsupported configuration: trivial G0 with positive-parity "
                "T is outside the decision table; G0 trivial: True;")
            assert main(["verify", path] + flags) == 5
            assert capsys.readouterr().out.startswith(
                "FAIL setting.classify: UnsupportedConfigurationError: "
                "trivial G0 with positive-parity T")
            return
        line = f"lambda=0 d=1 m=4 {line}"
        assert main(["classify", path] + flags) == 0
        assert capsys.readouterr().out == line + "\n"
        family = line.split("class=")[1].split()[0]
        assert main(["verify", path] + flags) == 0
        assert capsys.readouterr().out == (
            f"PASS setting.classify: {line}\n"
            "PASS setting.block-dimensions: sum 4, space 4\n"
            f"PASS setting.sample-structure[{family}(4)]: residual 0.00e+00\n")

    def test_json_pinned(self, tmp_path, capsys):
        spec = trivial_spec(dim=4)
        spec["time_reversal"] = {"matrix": pairs(_symplectic(2))}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path, "--tenfold", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"blocks": [{"class": "DIII", "d": 1, "dims": [4], '
            '"eps_alpha": null, "eps_beta": null, "eps_t": -1, '
            '"lambda": [0], "m": 4, "space": "SO_8/U_4"}], "dim": 8, '
            '"mode": "tenfold", "seed": 0}\n')


class TestSpecTolerance:
    """A spec's ``tolerance`` reaches T, the group closure and transfer_T."""

    @staticmethod
    def _noisy_trivial(tolerance):
        noise = np.random.default_rng(5).standard_normal((4, 4))
        spec = trivial_spec(dim=4, time_reversal={
            "matrix": pairs(np.eye(4) + 1e-5 * noise)})
        if tolerance is not None:
            spec["tolerance"] = tolerance
        return spec

    @staticmethod
    def _noisy_q8(tolerance):
        rng = np.random.default_rng(6)
        sx = np.array([[0, 1], [1, 0]])
        sz = np.diag([1, -1])
        sy = np.array([[0, -1j], [1j, 0]])
        gens = [np.kron(np.eye(2), 1j * s) + 1e-6 * rng.standard_normal((4, 4))
                for s in (sx, sz)]
        spec = trivial_spec(dim=4, time_reversal={
            "matrix": pairs(np.kron(np.eye(2), 1j * sy))})
        spec["g0"] = {"mode": "finite-group",
                      "generators": [pairs(g) for g in gens]}
        if tolerance is not None:
            spec["tolerance"] = tolerance
        return spec

    @pytest.mark.parametrize("build, flags, line", [
        ("_noisy_trivial", [], "lambda=0 d=1 m=4 class=AI space=U_4/O_4"),
        ("_noisy_q8", [], "lambda=0 d=2 m=2 class=AI space=U_2/O_2"),
        ("_noisy_q8", ["--tenfold"],
         "lambda=0 d=2 m=2 class=CI space=USp_4/U_2"),
    ])
    def test_loose_tolerance_classifies(self, tmp_path, capsys, build, flags,
                                        line):
        path = write_spec(tmp_path, getattr(self, build)(1e-4))
        assert main(["classify", path] + flags) == 0
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("build, field", [
        ("_noisy_trivial", "time_reversal.matrix"),
        ("_noisy_q8", "g0.generators[0]"),
    ])
    def test_default_tolerance_rejects(self, tmp_path, capsys, build, field):
        path = write_spec(tmp_path, getattr(self, build)(None))
        assert main(["classify", path]) == 2
        assert capsys.readouterr().err == \
            f"error: {field}: must be unitary\n"

    @pytest.mark.parametrize("tolerance, code", [(None, 3), (1e-2, 0)])
    def test_lie_image_off_the_span(self, tmp_path, capsys, tolerance,
                                    code):
        # X = iA - eps B with A real symmetric, B real skew: T = complex
        # conjugation maps X to -iA - eps B, at distance 2 eps |B| (to
        # first order) from the real span of X, here 1e-3
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        x = 1j * a - 5e-4 / np.sqrt(2.0) * b
        spec = trivial_spec(dim=3, time_reversal={"matrix": pairs(np.eye(3))})
        spec["g0"] = {"mode": "lie-algebra", "generators": [pairs(x)]}
        if tolerance is not None:
            spec["tolerance"] = tolerance
        path = write_spec(tmp_path, spec)
        assert main(["classify", path]) == code
        if code == 3:
            assert capsys.readouterr().err == (
                "symmetry-consistency error: time reversal does not "
                "normalize the symmetry algebra\n")


class TestCommutantCap:
    def test_oversized_commutant_exits_two(self, tmp_path, capsys):
        # one reflection on C^100 leaves 99^2 + 1 commutant unknowns
        spec = trivial_spec(dim=100)
        spec["g0"] = {"mode": "finite-group",
                      "generators": [pairs(np.diag([1.0] * 99 + [-1.0]))]}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path]) == 2
        assert "above the limit of 1073741824 bytes" in \
            capsys.readouterr().err


class TestClosureCap:
    def test_oversized_closure_exits_two(self, tmp_path, capsys,
                                         monkeypatch):
        spec = trivial_spec(dim=64)
        spec["g0"] = {"mode": "finite-group", "generators": [pairs(
            np.diag(np.exp(2j * np.pi * np.arange(64) / 1000)))]}
        path = write_spec(tmp_path, spec)
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 1 << 20)
        assert main(["classify", path]) == 2
        assert capsys.readouterr().err == (
            "input error: closure exceeded 16 elements of size 64 x 64, the "
            "most that fit in 1048576 bytes\n")


_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _unsupported(head, trivial, quaternionic, t, c):
    return (f"unsupported configuration: {head}; G0 trivial: {trivial}; "
            "G0 U(1) charge: False; G0 single quaternionic sector: "
            f"{quaternionic}; T present: {t}; charge conjugation present: "
            f"{c}\n")


_OUTSIDE = "is outside the decision table"
_UNRECOGNIZED = "unrecognized symmetry configuration"


class TestUnsupportedTenfoldBranches:
    """Every way out of the tenfold decision table, its stderr pinned."""

    @pytest.mark.parametrize("g0, t, s, err", [
        ({"mode": "spin-half"}, np.kron(_J2, _J2), None, _unsupported(
            f"quaternionic sector with positive-parity T {_OUTSIDE}",
            False, True, "True (eps_T = +1)", False)),
        ({"mode": "none"}, None, np.diag([1.0, -1.0, -1.0, -1.0]),
         _unsupported(_UNRECOGNIZED, True, False, False, True)),
        ({"mode": "finite-group", "generators": [
            pairs(np.kron([[0, -1], [1, 0]], np.eye(2))),
            pairs(np.kron(np.diag([1, -1]), np.eye(2)))]}, None, None,
         _unsupported(_UNRECOGNIZED, False, False, False, False)),
        ({"mode": "none"}, np.eye(4), None, _unsupported(
            f"trivial G0 with positive-parity T {_OUTSIDE}",
            True, False, "True (eps_T = +1)", False)),
    ], ids=["spin-half-T-plus", "trivial-S", "real-D4-irrep-x2",
            "trivial-T-identity"])
    def test_exit_four(self, tmp_path, capsys, g0, t, s, err):
        spec = trivial_spec(dim=4, g0=g0)
        if t is not None:
            spec["time_reversal"] = {"matrix": pairs(t)}
        if s is not None:
            spec["particle_hole"] = {"s_matrix": pairs(s)}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path, "--tenfold"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
