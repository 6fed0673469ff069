"""Tests for the command-line surface and its exit-code contract."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import in_random_basis, matrix_to_pairs, spin, su3
from tenfold import (antiunitary, ensembles, errors, focklab, grouprep,
                     linalg, specfile, symspace, verify)
from tenfold.cli import build_parser, main
from tenfold.grouprep import PAULI_X, PAULI_Y


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


def reflection_spec(n):
    """G0 = {1, diag(1, ..., 1, -1)} on C^n in a Haar-random basis."""
    spec = trivial_spec(dim=n)
    spec["g0"] = {"mode": "finite-group", "generators": [pairs(
        in_random_basis([np.diag([1.0] * (n - 1) + [-1.0])], n)[0])]}
    return spec


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

    def test_overflowing_sigma_sample_exits_two(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--class", "A", "--dims", "3", "--sigma",
                         "1e308", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma 1e+308" in captured.err
        assert not out.exists()

    def test_overflowing_sigma_stats_exits_two(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stats", "--class", "A", "--dims", "3", "--count",
                         "2", "--sigma", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma 1e+308" in captured.err

    def test_stats_count_zero_exits_two(self, capsys):
        assert main(["stats", "--class", "A", "--dims", "4", "--count",
                     "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_fock_verify_negative_trials_exits_two(self, capsys):
        assert main(["fock-verify", "--modes", "2", "--trials", "-1"]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_fock_verify_above_the_dense_cap_exits_two(self, capsys):
        assert main(["fock-verify", "--modes", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limited to" in captured.err

    @pytest.mark.parametrize("modes", ["13", "15"])
    def test_fock_verify_advertises_the_dense_range(self, modes, capsys):
        assert main(["fock-verify", "--modes", modes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mode count must be in 1..12" in captured.err

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

    def test_oversized_bins_exit_two_before_drawing(self, monkeypatch,
                                                    capsys):
        # 100 bins fit the cap at 160 bytes a bin, 101 do not; the
        # refusal comes before a spectrum is drawn
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 16000)
        argv = ["stats", "--class", "A", "--dims", "4", "--count", "20"]
        assert main(argv + ["--bins", "100"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 105

        def no_draw(*args, **kwargs):
            raise AssertionError("a spectrum was drawn")

        monkeypatch.setattr(ensembles, "sample_gaussian", no_draw)
        assert main(argv + ["--bins", "101"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: --bins 101 needs about 16160 "
                                "bytes, above the limit of 16000 bytes\n")

    def test_negative_bins_exit_two_before_drawing(self, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("a spectrum was drawn")

        monkeypatch.setattr(ensembles, "sample_gaussian", no_draw)
        assert main(["stats", "--class", "A", "--dims", "4", "--count", "10",
                     "--bins", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --bins must not be negative\n"


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
        assert ", 2 pi lift residual " in out

    def test_spec_verify(self, tmp_path, capsys):
        path = write_spec(tmp_path, trivial_spec())
        assert main(["verify", path]) == 0
        assert "setting.classify" in capsys.readouterr().out

    def test_corrupt_spec_exits_three(self, tmp_path):
        spec = trivial_spec()
        spec["time_reversal"] = {"matrix": pairs(np.array([[0.0, 1.0], [1j, 0.0]]))}
        path = write_spec(tmp_path, spec)
        assert main(["verify", path]) == 3

    @pytest.mark.parametrize("flags,stray", [
        (["SPEC", "--all-classes"], "--all-classes"),
        (["SPEC", "--level", "full"], "--level"),
        (["--all-classes", "--tenfold"], "--tenfold")])
    def test_flag_that_does_not_apply_exits_two(self, flags, stray, tmp_path,
                                                capsys):
        path = write_spec(tmp_path, trivial_spec())
        assert main(["verify"] + [path if f == "SPEC" else f
                                  for f in flags]) == 2
        captured = capsys.readouterr()
        assert f"{stray} does not apply" in captured.err
        assert captured.out == ""


class TestFockVerifyCommand:
    def test_small_run(self, capsys):
        assert main(["fock-verify", "--modes", "3", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "fock.car" in out
        assert "fock.C2-sign-law" in out
        assert "PASS fock.covering-two-to-one: 2 pi lift residual " in out
        assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--all-classes", "--level", "full"],
    ["fock-verify", "--modes", "4"]])
def test_two_to_one_check_fails_on_a_lift_off_by_pi(argv, monkeypatch,
                                                   capsys):
    # H + pi turns the lift of a 2 pi rotation from -1 into +1 but
    # leaves every rotation U c U^dag as it was
    lift = focklab.lift_one_body
    monkeypatch.setattr(focklab, "lift_one_body", lambda fock, w, z: lift(
        fock, w, z) + np.pi * np.eye(fock.dim))
    assert main(argv) == 5
    *results, summary = capsys.readouterr().out.splitlines()
    assert summary == "failed invariants: fock.covering-two-to-one"
    assert [line.split(":")[0] for line in results if not
            line.startswith("PASS")] == ["FAIL fock.covering-two-to-one"]


def test_car_check_fails_on_a_creator_without_its_string(monkeypatch,
                                                        capsys):
    # a_3^dag without its Jordan-Wigner sign breaks the CAR; the
    # Majorana images then leave the span, and the transfer identity
    # fails, while C, its defining property and the 2 pi lift (a
    # number-conserving H) are as they were
    build = focklab.build_fock

    def broken(n_modes):
        fock = build(n_modes)
        create = fock.create[:-1] + (focklab.SignedPerm(
            fock.create[-1].mask, np.abs(fock.create[-1].sign)),)
        return focklab.FockSpace(
            n_modes=n_modes, dim=fock.dim, create=create,
            annihilate=tuple(a.adjoint() for a in create),
            occupation=fock.occupation)
    monkeypatch.setattr(focklab, "build_fock", broken)
    assert main(["fock-verify", "--modes", "4"]) == 5
    *results, summary = capsys.readouterr().out.splitlines()
    failed = ["fock.car", "fock.covering-generator", "fock.twisted-transfer"]
    assert summary == "failed invariants: " + ", ".join(failed)
    assert [line.split(":")[0] for line in results if not
            line.startswith("PASS")] == ["FAIL " + name for name in failed]
    assert "FAIL fock.covering-generator: raised NotQuadraticError" in \
        results[3]


def test_pure_tensor_check_fails_on_a_negated_alpha(monkeypatch, capsys):
    # -alpha (x) beta misses the sector block by twice its norm, with
    # every parity as it was
    transfer = verify.transfer_T

    def negated(block, op, tol=None):
        tt = transfer(block, op, tol)
        return antiunitary.TransferredT(
            antiunitary.AntiUnitaryOp(-tt.alpha.u), tt.beta,
            tt.eps_alpha, tt.eps_beta)
    monkeypatch.setattr(verify, "transfer_T", negated)
    assert main(["verify", "--all-classes"]) == 5
    *results, summary = capsys.readouterr().out.splitlines()
    assert summary == "failed invariants: transfer.pure-tensor"
    assert [line.split(":")[0] for line in results if not
            line.startswith("PASS")] == ["FAIL transfer.pure-tensor"]


def test_projector_resolution_check_fails_on_a_doubled_projector(
        monkeypatch, capsys):
    # only that check reads a sector's projector; 2 fb fb^H leaves the
    # sum of the projectors at twice the identity
    monkeypatch.setattr(grouprep.IsotypicBlock, "projector", property(
        lambda b: 2 * b.factor_basis @ b.factor_basis.conj().T))
    assert main(["verify", "--all-classes"]) == 5
    *results, summary = capsys.readouterr().out.splitlines()
    assert summary == "failed invariants: group.projector-resolution"
    assert [line.split(":")[0] for line in results if not
            line.startswith("PASS")] == ["FAIL group.projector-resolution"]


def test_commutant_dimension_check_fails_on_a_dropped_element(
        monkeypatch, capsys):
    # the cyclic action on C^3 loses one commutant element; the
    # commutants of R + R* that self_duality_type reads are even-sized
    basis = grouprep.commutant_basis
    monkeypatch.setattr(grouprep, "commutant_basis", lambda action, tol=None:
                        basis(action, tol)[:2 if action.dim == 3 else None])
    assert main(["verify", "--all-classes"]) == 5
    *results, summary = capsys.readouterr().out.splitlines()
    assert summary == "failed invariants: group.commutant-dimension"
    assert [line.split(":")[0] for line in results if not
            line.startswith("PASS")] == ["FAIL group.commutant-dimension"]


@pytest.mark.parametrize("passed,check", [
    (False, "symspace.wegner-closure"),
    (True, "symspace.closure-negative-control")])
def test_closure_checks_fail_on_a_constant_closure_verdict(
        passed, check, monkeypatch, capsys):
    # a closure test that fails every span fails the tangent spaces, one
    # that passes every span passes the generic negative control
    monkeypatch.setattr(symspace, "closure_check", lambda p_basis:
                        symspace.ClosureResult(passed, 0.0 if passed else 1.0))
    assert main(["verify", "--all-classes", "--level", "full"]) == 5
    *results, summary = capsys.readouterr().out.splitlines()
    assert summary == f"failed invariants: {check}"
    assert [line.split(":")[0] for line in results if not
            line.startswith("PASS")] == [f"FAIL {check}"]


def test_usp_draw_fails_exactly_the_symplectic_membership_checks(
        monkeypatch, capsys):
    # a plain Haar unitary in place of the USp draw leaves the symplectic
    # form unpreserved; the checks that see it fail, and only they
    monkeypatch.setattr(linalg, "_haar_usp_standard",
                        lambda n, rng: linalg.haar_unitary(2 * n, rng))
    assert main(["verify", "--all-classes", "--level", "full"]) == 5
    *results, _ = capsys.readouterr().out.splitlines()
    assert sorted(line.split(":")[0] for line in results
                  if not line.startswith("PASS")) == [
        "FAIL ensembles.circular-membership",
        "FAIL symspace.cartan-membership",
        "FAIL symspace.geodesic-involution"]


def test_closed_stdout_ends_with_exit_zero():
    # the reader stops after 10 bytes of a sample stream of some 7 MB
    run = subprocess.Popen(
        [sys.executable, "-m", "tenfold.cli", "sample", "--class", "A",
         "--dims", "60", "--count", "50"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = run.stdout.read(10)
    run.stdout.close()
    _, err = run.communicate(timeout=120)
    assert head == b"# tenfold "
    assert (run.returncode, err) == (0, b"")


def test_cli_import_leaves_scipy_out():
    code = ("import sys\n"
            "import tenfold.cli\n"
            "assert 'scipy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))[:5]\n")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_orjson_is_imported_only_for_sample_files(tmp_path):
    # commands that read and write no file run without it; sample, stats
    # --in and the spec readers (classify, verify SPEC) load it
    code = ("import sys\n"
            "from tenfold.cli import main\n"
            "assert main(['verify', '--all-classes']) == 0\n"
            "assert main(['fock-verify', '--modes', '1', '--trials', "
            "'1']) == 0\n"
            "assert 'orjson' not in sys.modules\n"
            f"assert main(['sample', '--class', 'A', '--dims', '2', '--out', "
            f"{str(tmp_path / 's.txt')!r}]) == 0\n"
            "assert 'orjson' in sys.modules\n")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# Builds the classify benchmark specs of seeds 1-3 into argv[3] and prints
# every classify output, with argv[1:3] the perfbench and src directories,
# then the --json output of each spec in argv[4:].
_CLASSIFY_SPECS = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
from tenfold.cli import main
for name in ("classify-wide", "classify-big-group"):
    for seed in (1, 2, 3):
        workdir = Path(sys.argv[3]) / f"{name}-{seed}"
        workloads.build(name, seed, workdir)
        for path in sorted(workdir.glob("spec*.json")):
            for flags in ([], ["--json"], ["--tenfold"],
                          ["--json", "--tenfold"]):
                print("$", name, seed, path.name, *flags, flush=True)
                print("exit", main(["classify", str(path), *flags]),
                      flush=True)
for path in sys.argv[4:]:
    print("exit", main(["classify", path, "--json"]), flush=True)
"""


def lie_spec(gens, seed):
    """G0 the Lie algebra of ``gens``, in a Haar-random basis."""
    gens = in_random_basis(gens, seed)
    spec = trivial_spec(dim=gens[0].shape[0])
    spec["g0"] = {"mode": "lie-algebra",
                  "generators": [pairs(g) for g in gens]}
    return spec


def test_classify_does_not_depend_on_blas_threads(tmp_path):
    root = Path(__file__).resolve().parents[1]
    # 47 trivial lines and one sign line in a random basis: the sector
    # order comes from x's eigenvalues; spin 1/2 49 times: its two
    # clusters of 49 are carried onto each other by a polar factor
    reflection = write_spec(tmp_path, reflection_spec(48))
    spin_half = write_spec(tmp_path, lie_spec(
        [np.kron(np.eye(49), g) for g in spin(1)], 49), "spin-half.json")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", _CLASSIFY_SPECS, str(root / "perfbench"),
             str(root / "src"), str(tmp_path / threads), reflection,
             spin_half],
            capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    *_, blocks, code, spin_blocks, spin_code = outputs[0].splitlines()
    assert code == spin_code == "exit 0"
    assert sorted((b["d"], b["m"]) for b in json.loads(blocks)["blocks"]) \
        == [(1, 1), (1, 47)]
    assert [(b["d"], b["m"]) for b in json.loads(spin_blocks)["blocks"]] \
        == [(2, 49)]


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
    def test_spin_one_forty_times_classifies(self, tmp_path, capsys):
        # three linked clusters of 40: no commutant system is formed
        path = write_spec(tmp_path, lie_spec(
            [np.kron(np.eye(40), g) for g in spin(2)], 3))
        assert main(["classify", path, "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert [(b["d"], b["m"]) for b in blocks] == [(3, 40)]

    def test_three_charges_classify_under_a_small_cap(self, tmp_path, capsys,
                                                      monkeypatch):
        # spin 1/2 twice at three charges: three sectors, each two linked
        # clusters of 2; nothing the decomposition holds is capped
        sx, sy = (np.kron(np.eye(3), np.kron(p / 2, np.eye(2)))
                  for p in (PAULI_X, PAULI_Y))
        charge = np.diag(np.repeat(np.arange(3.0), 4))
        gens = [1j * (sx + charge), 1j * sy]
        spec = trivial_spec(dim=12)
        spec["g0"] = {"mode": "lie-algebra",
                      "generators": [pairs(g) for g in gens]}
        path = write_spec(tmp_path, spec)
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 3000)
        assert main(["classify", path, "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert [(b["d"], b["m"]) for b in blocks] == [(2, 2)] * 3

    def test_su3_fundamental_and_dual_is_unsupported_tenfold(self, tmp_path):
        # 3 + 3bar: two complex irreducibles of dimension 3, no entry in
        # the tenfold table
        gens = [np.kron(np.diag([1.0, 0.0]), g) +
                np.kron(np.diag([0.0, 1.0]), g.conj()) for g in su3()]
        path = write_spec(tmp_path, lie_spec(gens, 4))
        assert main(["classify", path]) == 0
        assert main(["classify", path, "--tenfold"]) == 4

    def test_reflection_on_c96_classifies(self, tmp_path, capsys):
        # two clusters that nothing links: 95 copies of the trivial
        # character and one of the sign, with no commutant basis stored
        path = write_spec(tmp_path, reflection_spec(96))
        assert main(["classify", path, "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert sorted((b["d"], b["m"]) for b in blocks) == [(1, 1), (1, 95)]

    def test_copies_of_a_reducible_factor_classify(self, tmp_path, capsys):
        # 1_2 (x) diag(1, ..., 1, -1) on C^200 first fits as two copies of
        # a factor on C^100, which is reducible: its commutant, 99^2 + 1
        # dimensions, is counted from the solve and never stacked (1.6 GB)
        spec = trivial_spec(dim=200)
        spec["g0"] = {"mode": "finite-group", "generators": [
            pairs(np.kron(np.eye(2), np.diag([1.0] * 99 + [-1.0])))]}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path, "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert [(b["d"], b["m"]) for b in blocks] == [(1, 198), (1, 2)]

    @pytest.mark.parametrize("t, line", [
        (None, "class=A space=U_96"), ("1", "class=AI space=U_96/O_96")])
    def test_scalar_charge_is_one_sector(self, tmp_path, capsys, t, line):
        # a commutant basis on C^96 would need 1.36 GB: a G0 of multiples
        # of the identity is one sector of 96 copies, with no basis
        spec = trivial_spec(dim=96)
        spec["g0"] = {"mode": "lie-algebra",
                      "generators": [pairs(1j * np.eye(96))]}
        if t is not None:
            spec["time_reversal"] = {"matrix": pairs(np.eye(96))}
        path = write_spec(tmp_path, spec)
        tracemalloc.start()
        try:
            code = main(["classify", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == f"lambda=0 d=1 m=96 {line}\n"
        assert peak < 10e6


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


_OMEGA = np.exp(2j * np.pi / 3)


class TestScalarGroupSpecs:
    """A finite G0 of scalar phases is one sector of a character: -1 is
    real and lifts to (-1)^F, which allows pairing, like the trivial
    group; omega and i are complex and forbid it, like a charge."""

    @pytest.mark.parametrize("n, phase, t, s, line", [
        (4, -1.0, None, None, "lambda=0 d=1 m=4 class=D space=SO_8"),
        (4, -1.0, np.kron(_J2, np.eye(2)), None,
         "lambda=0 d=1 m=4 class=DIII space=SO_8/U_4"),
        (3, _OMEGA, None, np.diag([1.0, -1.0, -1.0]),
         "lambda=0 d=1 m=3 class=AIII space=U_3/(U_1 x U_2)"),
        (3, _OMEGA, None, None, "lambda=0 d=1 m=3 class=A space=U_3"),
        (4, 1j, np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0]),
         "lambda=0 d=1 m=4 class=BDI space=O_4/(O_2 x O_2)"),
    ], ids=["minus-one", "minus-one-T-J", "omega-S", "omega",
            "i-T-one-S"])
    def test_classify_tenfold(self, tmp_path, capsys, n, phase, t, s, line):
        spec = trivial_spec(dim=n, g0={
            "mode": "finite-group", "generators": [pairs(phase * np.eye(n))]})
        if t is not None:
            spec["time_reversal"] = {"matrix": pairs(t)}
        if s is not None:
            spec["particle_hole"] = {"s_matrix": pairs(s)}
        path = write_spec(tmp_path, spec)
        assert main(["classify", path, "--tenfold"]) == 0
        assert capsys.readouterr() == (line + "\n", "")


class TestDimensionCap:
    @pytest.mark.parametrize("mode", ["none", "spin-half"])
    def test_oversized_dimension_exits_two(self, tmp_path, capsys, mode):
        # one 8193 x 8193 complex matrix is above 1 GiB: refused before
        # the identity of the trivial group or a spin generator is built
        path = write_spec(tmp_path, trivial_spec(dim=8193,
                                                 g0={"mode": mode}))
        tracemalloc.start()
        try:
            code = main(["classify", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: dimension: one 8193 x 8193 complex matrix needs "
            "1074003984 bytes, above the limit of 1073741824 bytes\n")
        assert peak < 1 << 20


    @pytest.mark.parametrize("command", [["classify"], ["verify"]])
    def test_oversized_file_exits_two_before_reading(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # the limit patched to one byte under the file: refused by size,
        # before the file is read
        path = write_spec(tmp_path, trivial_spec())
        size = os.path.getsize(path)
        monkeypatch.setattr(specfile, "MAX_SPEC_BYTES", size - 1)
        monkeypatch.setattr(specfile, "_read_text", None)
        assert main(command + [path]) == 2
        assert capsys.readouterr() == ("", (
            f"error: $: {path} has {size} bytes; a parse takes about 7 "
            f"times the file size, so the limit is {size - 1} bytes\n"))

    def test_oversized_sample_file_exits_two_before_reading(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.txt"
        assert main(["sample", "--class", "A", "--dims", "3", "--out",
                     str(path)]) == 0
        size = os.path.getsize(path)
        monkeypatch.setattr(specfile, "MAX_SAMPLE_BYTES", size - 1)
        monkeypatch.setattr(specfile, "_read_text", None)
        assert main(["stats", "--in", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: $: {path} has {size} bytes; reading a sample file "
            f"takes about twice its size, so the limit is {size - 1} "
            f"bytes\n"))

    def test_oversized_sample_record_exits_two_before_decoding(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.txt"
        assert main(["sample", "--class", "A", "--dims", "3", "--out",
                     str(path)]) == 0
        size = os.path.getsize(path)
        record = len(path.read_text().splitlines()[1])
        # the file fits; its record is one byte over half of what is left
        monkeypatch.setattr(specfile, "MAX_SAMPLE_BYTES", size + 2 * record
                            - 2)
        monkeypatch.setattr(specfile, "_record_array", None)
        assert main(["stats", "--in", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: record[0]: has {record} bytes; decoding a record "
            f"takes about 4 times its size besides twice the file's {size} "
            f"bytes, so the limit is {record - 1} bytes\n"))


_SAMPLE_HEADER = "# tenfold sample class=A dims={n} kind={kind} seed=0"
_DEEP = "[" * 100_000 + "]" * 100_000


def _record(entry="[1, 0]", at=(0, 0)):
    """A 3 x 3 record of diag(1, 2, 3) with the JSON text ``entry`` at
    ``at``."""
    raw = [[[float(i + 1) if i == j else 0.0, 0.0] for j in range(3)]
           for i in range(3)]
    raw[at[0]][at[1]] = "@"
    return json.dumps(raw).replace('"@"', entry)


def _stats_in(tmp_path, *records, kind="gaussian", header=None):
    path = tmp_path / "samples.txt"
    head = _SAMPLE_HEADER.format(n=3, kind=kind) if header is None else header
    path.write_text("\n".join([head, *records]) + "\n")
    return ["stats", "--in", str(path)]


def _non_utf8(tmp_path, command):
    path = tmp_path / "latin1.txt"
    head = _SAMPLE_HEADER.format(n=3, kind="gaussian")
    path.write_bytes(f"{head}\n{_record()}\n".encode() + b"\xe9\n"
                     if command == "stats" else
                     b'{"schema_version": "1", "setting": "\xe9"}')
    return [command] + (["--in"] if command == "stats" else []) + [str(path)]


def _spec_argv(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return ["classify", str(path)]


def _sample_out(path):
    return ["sample", "--class", "A", "--dims", "2", "--out", str(path)]


# Malformed inputs: each is exit 2 naming the field, never a traceback.
_PROBES = {
    "ragged-record": (lambda t: _stats_in(t, _record("[[1, 0]]")),
                      "record[0]"),
    "string-entry": (lambda t: _stats_in(t, _record('["1.5", 0]')),
                     "record[0]"),
    "object-record": (lambda t: _stats_in(t, '{"re": 1, "im": 0}'),
                      "record[0]"),
    "deep-record": (lambda t: _stats_in(t, _DEEP), "record[0]"),
    "circular-nan": (lambda t: _stats_in(t, _record("[NaN, 0]"),
                                         kind="circular"), "record[0]"),
    "gaussian-nan": (lambda t: _stats_in(t, _record(), _record("[NaN, 0]")),
                     "record[1]"),
    "gaussian-1e999": (lambda t: _stats_in(t, _record("[1e999, 0]")),
                       "record[0]"),
    "header-without-kind": (lambda t: _stats_in(
        t, _record(), header="# tenfold sample class=A dims=3 seed=0"),
        "kind"),
    "header-weird-kind": (lambda t: _stats_in(t, _record(), kind="weird"),
                          "kind"),
    "non-hermitian-gaussian": (lambda t: _stats_in(
        t, _record(), _record("[1, 0]", at=(0, 1))), "record[1]"),
    "non-utf8-spec": (lambda t: _non_utf8(t, "classify"), "$"),
    "non-utf8-sample": (lambda t: _non_utf8(t, "stats"), "$"),
    "directory-classify": (lambda t: ["classify", str(t)], "$"),
    "directory-verify": (lambda t: ["verify", str(t)], "$"),
    "directory-stats": (lambda t: ["stats", "--in", str(t)], "$"),
    "deep-spec": (lambda t: _spec_argv(t, _DEEP), "$"),
    "dimension-true": (lambda t: _spec_argv(t, trivial_spec(dim=True)),
                       "dimension"),
    "seed-true": (lambda t: _spec_argv(t, trivial_spec(seed=True)), "seed"),
    "out-in-missing-directory": (lambda t: _sample_out(t / "no" / "s.txt"),
                                 "--out"),
    "out-onto-directory": (lambda t: _sample_out(t), "--out"),
}


@pytest.mark.parametrize("probe", list(_PROBES))
def test_malformed_input_exits_two_naming_the_field(probe, tmp_path, capsys):
    build, field = _PROBES[probe]
    code = main(build(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command, depth, field", [
    ("stats", 150_000, "record[0]"), ("stats", 1_000_000, "record[0]"),
    ("classify", 150_000, "$")])
def test_deep_nesting_exits_two_in_a_child(command, depth, field, tmp_path):
    # orjson 3.8.3 has no depth limit, and 150 000 levels overflow its
    # stack: the process dies of SIGSEGV, which would kill pytest too
    deep = "[" * depth + "]" * depth
    argv = (_stats_in(tmp_path, deep) if command == "stats" else
            _spec_argv(tmp_path, deep))
    run = subprocess.run([sys.executable, "-m", "tenfold.cli", *argv],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith(f"error: {field}: invalid JSON: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


_SEED_ARGV = {
    "classify": lambda t: ["classify", write_spec(t, trivial_spec()),
                           "--json"],
    "sample": lambda t: ["sample", "--class", "A", "--dims", "2"],
    "stats": lambda t: ["stats", "--class", "A", "--dims", "3", "--count",
                        "2"],
    "fock-verify": lambda t: ["fock-verify", "--modes", "1", "--trials",
                              "1"],
}


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
@pytest.mark.parametrize("command", list(_SEED_ARGV))
def test_seed_outside_64_bits_exits_two(command, seed, tmp_path, capsys):
    # a seed was masked to 64 bits: 2^64 + 1 drew the samples of seed 1
    assert main(_SEED_ARGV[command](tmp_path) + ["--seed", str(seed)]) == 2
    assert capsys.readouterr() == (
        "", "error: --seed: must be an integer in [0, 2^64)\n")


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
def test_spec_seed_outside_64_bits_exits_two(seed, tmp_path, capsys):
    assert main(_spec_argv(tmp_path, trivial_spec(seed=seed))) == 2
    assert capsys.readouterr() == (
        "", "error: seed: must be an integer in [0, 2^64)\n")


@pytest.mark.parametrize("command", list(_SEED_ARGV))
def test_largest_seed_runs_and_is_echoed(command, tmp_path, capsys):
    top = str(2 ** 64 - 1)
    assert main(_SEED_ARGV[command](tmp_path) + ["--seed", top]) == 0
    out = capsys.readouterr().out
    if command == "classify":
        assert json.loads(out)["seed"] == 2 ** 64 - 1
    elif command != "fock-verify":  # whose output names no seed
        assert out.splitlines()[0].endswith(f" seed={top}")


def test_largest_spec_seed_runs_and_is_echoed(tmp_path, capsys):
    assert main(_spec_argv(tmp_path, trivial_spec(seed=2 ** 64 - 1)) +
                ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2 ** 64 - 1


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that is always full")
def test_sample_write_error_exits_two(capsys):
    assert main(_sample_out("/dev/full")) == 2
    assert capsys.readouterr() == (
        "", "error: --out: cannot write /dev/full: No space left on device\n")


@pytest.mark.parametrize("family,dims", [("AIII", "4,4"), ("BDI", "8,8")])
def test_stats_of_spectra_overflowing_under_sigma_exits_two(family, dims,
                                                           capsys):
    # the draw is finite but its eigenvalues overflow to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stats", "--class", family, "--dims", dims, "--count",
                     "3", "--sigma", "1e308", "--bins", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: sigma 1e+308 ")


def test_stats_of_a_record_with_an_overflowing_spectrum_exits_two(tmp_path,
                                                                 capsys):
    # finite and Hermitian, but its largest eigenvalue is about 2.6e308
    h = 1e308 * (np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1))
    argv = _stats_in(tmp_path, json.dumps(pairs(np.diag([1.0, 2, 3, 4]))),
                     json.dumps(pairs(h)),
                     header=_SAMPLE_HEADER.format(n=4, kind="gaussian"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: record[1]: ")
    assert captured.err.count("\n") == 1


def test_valid_records_pass_the_kind_check(tmp_path, capsys):
    # a Hermitian record with a large norm and a unitary one at the
    # roundoff of a Haar draw stay accepted
    u = linalg.haar_unitary(6, linalg.RngStream(3))
    h = 1e6 * (u + u.conj().T)
    for kind, m in (("gaussian", h), ("circular", u)):
        argv = _stats_in(tmp_path, json.dumps(pairs(m)), json.dumps(pairs(m)),
                         header=_SAMPLE_HEADER.format(n=6, kind=kind))
        assert main(argv) == 0, capsys.readouterr().err


# Every error class with the exit code and stderr label main reports.
_EXIT_TABLE = {
    "TenfoldError": (5, "invariant failure"),
    "DegenerateDecompositionError": (5, "invariant failure"),
    "NotQuadraticError": (5, "invariant failure"),
    "InputShapeError": (2, "input error"),
    "GroupTooLargeError": (2, "input error"),
    "UnsupportedModeError": (2, "input error"),
    "NotInManifoldError": (2, "input error"),
    "SpecFileError": (2, "error"),
    "SymmetryConsistencyError": (3, "symmetry-consistency error"),
    "NotInvolutiveError": (3, "symmetry-consistency error"),
    "NotPureTensorError": (3, "symmetry-consistency error"),
    "UnsupportedConfigurationError": (4, "unsupported configuration"),
}


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


def test_exit_table_names_every_error_class():
    assert sorted(c.__name__ for c in _subclasses(errors.TenfoldError)) == \
        sorted(_EXIT_TABLE)


@pytest.mark.parametrize("name", list(_EXIT_TABLE))
def test_main_reports_each_error_class(name, monkeypatch, capsys):
    cls = getattr(errors, name)
    err = cls("f", "boom") if cls is errors.SpecFileError else cls("boom")

    def fail(*args):
        raise err

    monkeypatch.setattr(verify, "run_fock_checks", fail)
    code = main(["fock-verify", "--modes", "1"])
    assert (code, capsys.readouterr()) == \
        (_EXIT_TABLE[name][0], ("", f"{_EXIT_TABLE[name][1]}: {err}\n"))
