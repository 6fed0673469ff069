"""Tests for the threefold/tenfold decision procedure and Nambu promotion."""

import numpy as np
import pytest
from scipy.linalg import block_diag

import oracles
from tenfold import linalg
from tenfold.antiunitary import AntiUnitaryOp, parity
from tenfold.classifier import (build_nambu, canonical_setting,
                                classify_tenfold, classify_threefold,
                                compatible_space, hilbert_setting, label,
                                nambu_form, trivial_action)
from tenfold.errors import (InputShapeError, SymmetryConsistencyError,
                            UnsupportedConfigurationError)
from tenfold.grouprep import (PAULI_X, PAULI_Y, PAULI_Z, close_group,
                              lie_algebra_action, spin_half_action,
                              u1_charge_action)
from tenfold.linalg import RngStream, haar_unitary, symplectic_form

TEN_CANONICAL = (
    label("A", 4), label("AI", 4), label("AII", 4),
    label("C", 3), label("CI", 3), label("D", 3), label("DIII", 4),
    label("AIII", 1, 2), label("BDI", 2, 2), label("CII", 2, 2),
)

Z3_SHIFT = np.roll(np.eye(3), 1, axis=0).astype(complex)


class TestClassLabel:
    def test_space_names(self):
        assert label("A", 2).space_name == "U_2"
        assert label("D", 3).space_name == "SO_6"
        assert label("AIII", 1, 2).space_name == "U_3/(U_1 x U_2)"
        assert label("CII", 2, 4).space_name == "USp_6/(USp_2 x USp_4)"

    def test_evenness_constraints(self):
        with pytest.raises(InputShapeError):
            label("AII", 3)
        with pytest.raises(InputShapeError):
            label("CII", 1, 2)

    def test_matrix_dim(self):
        assert label("A", 5).matrix_dim == 5
        assert label("C", 3).matrix_dim == 6
        assert label("BDI", 2, 3).matrix_dim == 5


class TestCompatibleSpace:
    def test_table_rows(self):
        a = compatible_space(label("A", 4))
        assert (a.group, a.subgroup, a.form) == ("U_4", "",
                                                 "H complex Hermitian")
        ci = compatible_space(label("CI", 4))
        assert ci.group == "USp_8" and ci.subgroup == "U_4"
        assert ci.form == "Z complex symmetric, W = 0"
        bdi = compatible_space(label("BDI", 2, 3))
        assert bdi.group == "O_5" and bdi.subgroup == "O_2 x O_3"
        assert bdi.form == "Z real 2 x 3, W = 0"

    def test_tangent_dims(self):
        assert compatible_space(label("A", 3)).tangent_dim == 9
        assert compatible_space(label("AI", 3)).tangent_dim == 6
        assert compatible_space(label("AII", 4)).tangent_dim == 6
        assert compatible_space(label("C", 2)).tangent_dim == 10
        assert compatible_space(label("CI", 2)).tangent_dim == 6
        assert compatible_space(label("D", 2)).tangent_dim == 6
        assert compatible_space(label("DIII", 4)).tangent_dim == 12
        assert compatible_space(label("AIII", 1, 2)).tangent_dim == 4
        assert compatible_space(label("BDI", 2, 3)).tangent_dim == 6
        assert compatible_space(label("CII", 2, 2)).tangent_dim == 4


class TestBuildNambu:
    def test_dim_one_trivial(self):
        setting = hilbert_setting(trivial_action(1))
        nambu = build_nambu(setting)
        assert nambu.kind == "nambu"
        assert nambu.dim == 2
        assert len(nambu.g0.elements) == 1

    def test_induced_action_preserves_canonical_pairing(self, rng):
        w = haar_unitary(3, rng)
        g = w @ Z3_SHIFT @ w.conj().T  # generic-looking, finite order
        setting = hilbert_setting(close_group([g]))
        nambu = build_nambu(setting)
        q = nambu_form(3)
        for gw in nambu.g0.generators:
            assert linalg.frob(gw.T @ q @ gw - q) < 1e-10

    def test_charge_conjugation_squares_plus_one(self):
        s = np.diag([1.0, -1.0]).astype(complex)
        setting = hilbert_setting(u1_charge_action(2), particle_hole=s)
        nambu = build_nambu(setting)
        c = nambu.charge_conjugation
        assert parity(c) == 1
        square = c.u @ np.conj(c.u)
        assert np.allclose(square, np.eye(4), atol=1e-12)

    def test_time_reversal_parity_preserved(self):
        t = AntiUnitaryOp(symplectic_form(2))
        setting = hilbert_setting(trivial_action(4), t)
        nambu = build_nambu(setting)
        assert parity(nambu.time_reversal) == parity(t) == -1

    def test_rejects_nambu_input(self):
        setting = build_nambu(hilbert_setting(trivial_action(2)))
        with pytest.raises(InputShapeError):
            build_nambu(setting)


class TestClassifyThreefold:
    def test_trivial_no_t_is_class_a(self, rng):
        report = classify_threefold(hilbert_setting(trivial_action(5)), rng)
        assert report.families() == ("A",)
        assert report.entries[0].class_label == label("A", 5)

    def test_spin_type_t_gives_aii(self, rng):
        t = AntiUnitaryOp(np.kron(symplectic_form(1), np.eye(2)))
        report = classify_threefold(hilbert_setting(trivial_action(4), t),
                                    rng)
        assert report.entries[0].class_label == label("AII", 4)
        assert report.entries[0].eps_alpha == -1

    def test_plain_conjugation_gives_ai(self, rng):
        t = AntiUnitaryOp(np.eye(3))
        report = classify_threefold(hilbert_setting(trivial_action(3), t),
                                    rng)
        assert report.entries[0].class_label == label("AI", 3)

    def test_quaternion_sector_flips_parity(self, rng):
        # negative overall T on a quaternionic irrep acts positively on E
        group = close_group([np.kron(np.eye(3), 1j * PAULI_X),
                             np.kron(np.eye(3), 1j * PAULI_Z)])
        t = AntiUnitaryOp(np.kron(np.eye(3), 1j * PAULI_Y))
        report = classify_threefold(hilbert_setting(group, t), rng)
        assert parity(t) == -1
        entry = report.entries[0]
        assert entry.class_label == label("AI", 3)
        assert entry.eps_beta == -1

    def test_swapped_sectors_reported_once_as_a(self, rng):
        group = close_group([Z3_SHIFT])
        t = AntiUnitaryOp(np.eye(3))
        report = classify_threefold(hilbert_setting(group, t), rng)
        families = sorted(report.families())
        assert families == ["A", "AI"]
        pair_entry = [e for e in report.entries
                      if len(e.sector_labels) == 2][0]
        assert pair_entry.class_label == label("A", 1)

    def test_basis_change_invariance(self, rng):
        gens, tmat, expected = oracles.build_threefold_case("S3", rng, 1)
        n = gens[0].shape[0]
        w = haar_unitary(n, rng)
        group = close_group([w @ g @ w.conj().T for g in gens])
        t = AntiUnitaryOp(w @ tmat @ w.T)
        report = classify_threefold(hilbert_setting(group, t), rng)
        got = sorted((e.class_label.family, e.irrep_dim, e.multiplicity)
                     for e in report.entries)
        assert got == expected

    @pytest.mark.parametrize("group_name", ["trivial", "Z3", "S3", "D4",
                                            "Q8"])
    @pytest.mark.parametrize("t_parity", [None, 1, -1])
    def test_randomized_against_character_oracle(self, group_name, t_parity,
                                                 rng):
        sub = rng.child(hash((group_name, t_parity)) % 1000)
        gens, tmat, expected = oracles.build_threefold_case(group_name, sub,
                                                            t_parity)
        n = gens[0].shape[0]
        w = haar_unitary(n, sub)
        group = close_group([w @ g @ w.conj().T for g in gens])
        t = AntiUnitaryOp(w @ tmat @ w.T) if tmat is not None else None
        report = classify_threefold(hilbert_setting(group, t), sub)
        got = sorted((e.class_label.family, e.irrep_dim, e.multiplicity)
                     for e in report.entries)
        assert got == expected

    def test_tangent_dimension_matches_brute_force(self, rng):
        gens, tmat, _ = oracles.build_threefold_case("S3", rng, 1)
        n = gens[0].shape[0]
        if n > 8:
            gens = [g[:8, :8] for g in gens]  # keep the oracle small
        group = close_group(gens)
        t = AntiUnitaryOp(tmat) if tmat is not None else None
        setting = hilbert_setting(group, t)
        report = classify_threefold(setting, rng)
        predicted = sum(compatible_space(e.class_label).tangent_dim
                        for e in report.entries)
        brute = oracles.compatible_dimension(
            setting.dim, oracles.setting_constraints_hilbert(setting))
        assert predicted == brute


class TestClassifyTenfold:
    @pytest.mark.parametrize("lab", TEN_CANONICAL, ids=str)
    def test_decision_table(self, lab, rng):
        report = classify_tenfold(canonical_setting(lab), rng)
        assert len(report.entries) == 1
        assert report.entries[0].class_label == lab

    def test_ten_distinct_labels(self, rng):
        families = {classify_tenfold(canonical_setting(lab),
                                     rng).entries[0].class_label.family
                    for lab in TEN_CANONICAL}
        assert len(families) == 10

    @pytest.mark.parametrize("lab", TEN_CANONICAL, ids=str)
    def test_space_dimension_matches_brute_force(self, lab, rng):
        setting = canonical_setting(lab)
        nambu = build_nambu(setting)
        brute = oracles.compatible_dimension(
            nambu.dim, oracles.setting_constraints_nambu(nambu, setting.dim))
        assert brute == compatible_space(lab).tangent_dim

    def test_accepts_promoted_setting(self, rng):
        setting = canonical_setting(label("D", 3))
        promoted = build_nambu(setting)
        report = classify_tenfold(promoted, rng)
        assert report.entries[0].class_label == label("D", 3)

    def test_u1_without_charge_conjugation_falls_back(self, rng):
        setting = hilbert_setting(u1_charge_action(3))
        ten = classify_tenfold(setting, rng)
        three = classify_threefold(setting, rng)
        assert ten.families() == three.families() == ("A",)
        assert ten.entries[0].class_label == three.entries[0].class_label

    def test_d_example_dim_three(self, rng):
        report = classify_tenfold(hilbert_setting(trivial_action(3)), rng)
        entry = report.entries[0]
        assert entry.class_label == label("D", 3)
        assert entry.class_label.space_name == "SO_6"

    def test_diii_example(self, rng):
        t = AntiUnitaryOp(symplectic_form(2))
        report = classify_tenfold(hilbert_setting(trivial_action(4), t), rng)
        assert report.entries[0].class_label == label("DIII", 4)

    def test_aiii_example(self, rng):
        s = np.diag([1.0, -1.0, -1.0]).astype(complex)
        setting = hilbert_setting(u1_charge_action(3), particle_hole=s)
        report = classify_tenfold(setting, rng)
        assert report.entries[0].class_label == label("AIII", 1, 2)
        assert report.entries[0].class_label.space_name == "U_3/(U_1 x U_2)"

    def test_quaternionic_finite_group_gives_c(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        report = classify_tenfold(hilbert_setting(group), rng)
        assert report.entries[0].class_label == label("C", 2)

    def test_unsupported_positive_t_without_charge(self, rng):
        t = AntiUnitaryOp(np.eye(3))
        with pytest.raises(UnsupportedConfigurationError) as err:
            classify_tenfold(hilbert_setting(trivial_action(3), t), rng)
        assert "T present" in str(err.value)

    def test_unsupported_generic_group(self, rng):
        group = close_group([np.kron(PAULI_X, np.eye(2)),
                             np.kron(PAULI_Z, np.eye(2))])
        with pytest.raises(UnsupportedConfigurationError):
            classify_tenfold(hilbert_setting(group), rng)

    def test_basis_invariance_of_tenfold(self, rng):
        setting = canonical_setting(label("C", 2))
        w = haar_unitary(4, rng)
        gens = [w @ g @ w.conj().T for g in setting.g0.generators]
        from tenfold.grouprep import lie_algebra_action
        rotated = hilbert_setting(lie_algebra_action(gens))
        report = classify_tenfold(rotated, rng)
        assert report.entries[0].class_label == label("C", 2)


class TestSettingValidation:
    def test_t_must_commute_with_group(self):
        group = close_group([Z3_SHIFT])
        bad_t = AntiUnitaryOp(np.diag([1.0, 1.0, -1.0]) @ haar_unitary(
            3, RngStream(1)) @ np.eye(3))
        with pytest.raises((SymmetryConsistencyError, Exception)):
            hilbert_setting(group, bad_t)

    def test_s_must_be_involution(self):
        s = np.diag([1.0, 1j]).astype(complex)
        with pytest.raises(SymmetryConsistencyError):
            hilbert_setting(u1_charge_action(2), particle_hole=s)

    def test_s_must_commute_with_t(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex)
        t = AntiUnitaryOp(symplectic_form(1))
        with pytest.raises(SymmetryConsistencyError):
            hilbert_setting(u1_charge_action(2), t, particle_hole=s)


_OMEGA = np.exp(2j * np.pi / 3)


class TestScalarFiniteG0:
    """A finite G0 of scalar phases: the label read from its character
    matches the brute-force dimension of the compatible Hamiltonians."""

    @pytest.mark.parametrize("n, phase, t, s, want", [
        (4, -1.0, None, None, label("D", 4)),
        (4, -1.0, np.kron(symplectic_form(1), np.eye(2)), None,
         label("DIII", 4)),
        (3, _OMEGA, None, np.diag([1.0, -1.0, -1.0]), label("AIII", 1, 2)),
        (3, _OMEGA, None, None, label("A", 3)),
        (4, 1j, np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0]),
         label("BDI", 2, 2)),
    ])
    def test_label_matches_brute_force(self, n, phase, t, s, want, rng):
        setting = hilbert_setting(
            close_group([phase * np.eye(n)]),
            None if t is None else AntiUnitaryOp(t), particle_hole=s)
        (entry,) = classify_tenfold(setting, rng).entries
        assert entry.class_label == want
        nambu = build_nambu(setting)
        brute = oracles.compatible_dimension(
            nambu.dim, oracles.setting_constraints_nambu(nambu, n))
        assert brute == compatible_space(want).tangent_dim


@pytest.mark.parametrize("t", [None, "1", "J"])
def test_charge_without_c_reads_its_dyson_class(t, rng):
    # the tenfold reading of one charge sector matches the threefold one,
    # parities included
    u = {None: None, "1": np.eye(4), "J": symplectic_form(2)}[t]
    setting = hilbert_setting(u1_charge_action(4),
                              None if u is None else AntiUnitaryOp(u))
    (ten,) = classify_tenfold(setting, rng).entries
    (three,) = classify_threefold(setting, rng).entries
    assert ten.line() == three.line()
    assert (ten.eps_t, ten.eps_alpha, ten.eps_beta) == \
        (three.eps_t, three.eps_alpha, three.eps_beta)


_J1 = symplectic_form(1)
_CHARGES_1122 = lie_algebra_action([1j * np.diag([1.0, 1.0, 2.0, 2.0])])
_CHARGES_11MM = lie_algebra_action([1j * np.diag([1.0, 1.0, -1.0, -1.0])])
_Z2 = close_group([np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)])
# spin 1/2 (x) C^2 on the first four coordinates, C^2 trivial on the rest
_SPIN_PLUS_TRIVIAL = lie_algebra_action(
    [np.kron(np.diag([1.0, 1.0, 0.0]), 1j * p) for p in
     (PAULI_X, PAULI_Y, PAULI_Z)])


class TestMultiSectorTenfold:
    """A G0 of several sectors gets one SIGNATURE row per sector of W =
    V + V*: a real character is D or DIII, a charge and its dual charge
    one Dyson or chiral entry of multiplicity m + m*, a quaternionic
    sector C or CI.  The summed tangent dimension is the brute-force
    dimension of the compatible Nambu Hamiltonians, in the model basis
    and in a Haar-random one."""

    @pytest.mark.parametrize("g0, t, s, want", [
        (_Z2, None, None, ["D(2)", "D(2)"]),
        (_Z2, np.kron(np.eye(2), _J1), None, ["DIII(2)", "DIII(2)"]),
        (close_group([Z3_SHIFT]), None, None, ["A(2)", "D(1)"]),
        (_CHARGES_1122, None, None, ["A(2)", "A(2)"]),
        (_CHARGES_1122, np.eye(4), None, ["AI(2)", "AI(2)"]),
        (_CHARGES_1122, np.kron(np.eye(2), _J1), None, ["AII(2)", "AII(2)"]),
        (_CHARGES_11MM, None, None, ["A(4)"]),
        (_CHARGES_11MM, np.eye(4), None, ["AI(4)"]),
        (_CHARGES_1122, None, np.diag([1.0, -1.0, 1.0, -1.0]),
         ["AIII(1,1)", "AIII(1,1)"]),
        (_CHARGES_1122, None, np.diag([1.0, 1.0, 1.0, -1.0]),
         ["AIII(1,1)", "AIII(2,0)"]),
        (_CHARGES_1122, np.eye(4), np.diag([1.0, -1.0, 1.0, -1.0]),
         ["BDI(1,1)", "BDI(1,1)"]),
        (_CHARGES_11MM, None, np.diag([1.0, -1.0, 1.0, -1.0]),
         ["AIII(2,2)"]),
        (_SPIN_PLUS_TRIVIAL, None, None, ["C(2)", "D(2)"]),
        (_SPIN_PLUS_TRIVIAL,
         block_diag(np.kron(np.eye(2), 1j * PAULI_Y), _J1), None,
         ["CI(2)", "DIII(2)"]),
    ], ids=["Z2", "Z2-T-J", "Z3-regular", "charges-1122", "charges-1122-T-K",
            "charges-1122-T-J", "charges-11mm", "charges-11mm-T-K",
            "charges-1122-S-alternating", "charges-1122-S-one-minus",
            "charges-1122-S-T-K", "charges-11mm-S", "spin-half-plus-trivial",
            "spin-half-plus-trivial-T"])
    @pytest.mark.parametrize("basis", ["model", "haar"])
    def test_labels_and_brute_force_dimension(self, g0, t, s, want, basis,
                                              rng):
        n = g0.dim
        w = np.eye(n) if basis == "model" else haar_unitary(n, rng)
        gens = [w @ g @ w.conj().T for g in g0.generators]
        rotated = close_group(gens) if g0.elements is not None else \
            lie_algebra_action(gens)
        setting = hilbert_setting(
            rotated, None if t is None else AntiUnitaryOp(w @ t @ w.T),
            particle_hole=None if s is None else w @ s @ w.conj().T)
        report = classify_tenfold(setting, rng)
        assert sorted(str(e.class_label) for e in report.entries) == want
        nambu = build_nambu(setting)
        brute = oracles.compatible_dimension(
            nambu.dim, oracles.setting_constraints_nambu(nambu, n))
        assert sum(compatible_space(e.class_label).tangent_dim
                   for e in report.entries) == brute


_SPIN_HALF_X2 = spin_half_action(4)


def _brute_nambu_dimension(setting):
    nambu = build_nambu(setting)
    return oracles.compatible_dimension(
        nambu.dim, oracles.setting_constraints_nambu(nambu, setting.dim))


@pytest.mark.parametrize("t", [np.eye(4), np.kron(np.eye(2), 1j * PAULI_X),
                               np.kron(np.eye(2), PAULI_Z)],
                         ids=["K", "1-i-sigma-x", "1-sigma-z"])
def test_spin_half_t_reads_its_canonical_parity(t, rng):
    # each T is a G0 element times the canonical CI twist 1 (x) i sigma_y:
    # eps_alpha = +1, so T's parity in the canonical setting is -1
    setting = hilbert_setting(_SPIN_HALF_X2, AntiUnitaryOp(t))
    (entry,) = classify_tenfold(setting, rng).entries
    assert entry.class_label == label("CI", 2)
    assert _brute_nambu_dimension(setting) == 6


def test_spin_half_t_with_negative_alpha_stays_unsupported(rng):
    # J (x) i sigma_x: eps_T = eps_alpha = -1, outside the decision table
    # (the brute-force Nambu dimension is 4)
    setting = hilbert_setting(_SPIN_HALF_X2,
                              AntiUnitaryOp(np.kron(_J1, 1j * PAULI_X)))
    assert _brute_nambu_dimension(setting) == 4
    with pytest.raises(UnsupportedConfigurationError,
                       match="^unrecognized symmetry configuration;"):
        classify_tenfold(setting, rng)


def test_t_swapping_a_charge_with_its_dual_stays_unsupported(rng):
    # Z3 on C^2 = omega + omega-bar with T = swap K: T exchanges the two
    # sectors of V.  On W, T C fixes the omega sector and the brute-force
    # Nambu dimension is 2, that of AIII(1,1); not classified yet.
    setting = hilbert_setting(
        close_group([np.diag([_OMEGA, np.conj(_OMEGA)])]),
        AntiUnitaryOp(PAULI_X))
    assert _brute_nambu_dimension(setting) == 2
    with pytest.raises(UnsupportedConfigurationError,
                       match="^unrecognized symmetry configuration;"):
        classify_tenfold(setting, rng)


def test_s_that_moves_a_sector_stays_unsupported(rng):
    # S = sigma_x exchanges the charges 1 and -1 of V; the brute-force
    # Nambu dimension is 3, which no signature count of S gives
    setting = hilbert_setting(
        lie_algebra_action([1j * np.diag([1.0, -1.0])]),
        particle_hole=PAULI_X)
    assert _brute_nambu_dimension(setting) == 3
    with pytest.raises(UnsupportedConfigurationError,
                       match="^unrecognized symmetry configuration;"):
        classify_tenfold(setting, rng)
