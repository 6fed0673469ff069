"""Tests for group closure, commutants and isotypic decomposition."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import in_random_basis, spin
from tenfold import grouprep, linalg
from tenfold.antiunitary import AntiUnitaryOp, TransferredT
from tenfold.classifier import hilbert_setting
from tenfold.errors import (DegenerateDecompositionError,
                            GroupTooLargeError, InputShapeError,
                            SymmetryConsistencyError, UnsupportedModeError)
from tenfold.grouprep import (PAULI_X, PAULI_Y, PAULI_Z, GroupAction,
                              IsotypicBlock, close_group,
                              commutant_basis, fs_indicator,
                              isotypic_decompose,
                              lie_algebra_action, self_duality_type,
                              dual_sum, spin_half_action, trivial_action,
                              u1_charge_action)
from tenfold.specfile import parse_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

Z3_SHIFT = np.roll(np.eye(3), 1, axis=0).astype(complex)
S3_CYCLE = Z3_SHIFT
S3_SWAP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


class TestCloseGroup:
    def test_dihedral_order_eight(self):
        group = close_group([PAULI_X, PAULI_Z])
        assert len(group.elements) == 8
        _assert_group_axioms(group)

    def test_quaternion_order_eight(self):
        group = close_group([1j * PAULI_X, 1j * PAULI_Z])
        assert len(group.elements) == 8
        _assert_group_axioms(group)
        # -1 is an element of Q8 but not of the dihedral realization
        assert any(np.allclose(e, -np.eye(2)) for e in group.elements)

    def test_empty_generators_identity_group(self):
        group = close_group([], dim=3)
        assert len(group.elements) == 1
        assert group.dim == 3

    def test_trivial_action_is_the_group_of_order_one(self):
        action = trivial_action(4)
        assert action.generators == ()
        assert len(action.elements) == 1
        assert np.array_equal(action.elements[0], np.eye(4))

    def test_budget_enforced(self, monkeypatch):
        theta = np.sqrt(2.0)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]], dtype=complex)
        monkeypatch.setattr(grouprep, "MAX_ORDER", 64)
        with pytest.raises(GroupTooLargeError,
                           match="^closure exceeded 64 elements$"):
            close_group([rot])

    def test_non_unitary_rejected(self):
        with pytest.raises(InputShapeError):
            close_group([np.diag([1.0, 2.0]).astype(complex)])

    def test_closure_refused_at_the_array_cap(self, monkeypatch):
        # Z_1000 on C^64 would hold 1000 x 64 KB; the cap admits 16
        cyclic = np.diag(np.exp(2j * np.pi * np.arange(64) / 1000))
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLargeError) as err:
                close_group([cyclic])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("closure exceeded 16 elements of size "
                                  "64 x 64, the most that fit in 1048576 "
                                  "bytes")
        assert peak < 3 << 20
        z16 = np.diag(np.exp(2j * np.pi * np.arange(64) / 16))
        assert len(close_group([z16]).elements) == 16


# (k, images of 0..k-1 under a long cycle and under a short one)
PERMUTATION_GROUPS = {
    "S4": (4, (1, 2, 3, 0), (1, 0, 2, 3)),
    "A5": (5, (1, 2, 3, 4, 0), (1, 2, 0, 3, 4)),
    "S5": (5, (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),
    "S6": (6, (1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)),
}


def _permutation_module(name, mult, extra, w=None):
    """Generators on C^mult (x) C^k plus ``extra`` trivial lines, written
    in the basis ``w``."""
    k, *cycles = PERMUTATION_GROUPS[name]
    n = mult * k + extra
    w = np.eye(n) if w is None else w
    gens = []
    for images in cycles:
        g = np.eye(n, dtype=complex)
        g[:mult * k, :mult * k] = np.kron(np.eye(mult), np.eye(k)[:, images])
        gens.append(w @ g @ w.conj().T)
    return gens


class TestLevelClosure:
    """close_group against the linear-scan oracle and at its limits."""

    @pytest.mark.parametrize("name, mult, extra", [
        ("S4", 3, 0), ("A5", 2, 2), ("S5", 1, 1), ("S6", 1, 0)])
    def test_permutation_modules_match_the_oracle(self, name, mult, extra):
        n = mult * PERMUTATION_GROUPS[name][0] + extra
        w = linalg.haar_unitary(n, linalg.RngStream(60 + n))
        gens = _permutation_module(name, mult, extra, w)
        expected = oracles.close_group_oracle(gens)
        got = close_group(gens).elements
        assert got.shape == (len(expected), n, n)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_near_duplicates_are_not_transitive(self):
        # the first level holds g1, g2, g3 with g2 within tol of g1 and
        # of g3, and g3 farther than tol from g1: g2 goes, g3 stays
        tol = 0.1
        phases = 2 * np.pi / 5 + np.array([0.0, 0.07, 0.14])
        gens = [np.diag([np.exp(1j * p), 1.0]) for p in phases]
        assert linalg.frob(gens[1] - gens[0]) <= tol
        assert linalg.frob(gens[2] - gens[1]) <= tol
        assert linalg.frob(gens[2] - gens[0]) > tol
        expected = oracles.close_group_oracle(gens, tol_dedup=tol)
        got = close_group(gens, tol_dedup=tol).elements
        assert np.array_equal(got[1], gens[0])
        assert np.array_equal(got[2], gens[2])
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_wide_level_refused_at_the_array_cap(self, monkeypatch):
        # two generic unitaries of C^32 generate a free group, level j
        # holds 2^j words, and the 1 MiB cap admits 64 elements of 16 KB:
        # the sixth level, 64 candidates from 32, overflows.  Formed at
        # once, its candidates would take the peak to 3 MiB.
        rng = linalg.RngStream(8)
        gens = [linalg.haar_unitary(32, rng) for _ in range(2)]
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLargeError) as err:
                close_group(gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("closure exceeded 64 elements of size "
                                  "32 x 32, the most that fit in 1048576 "
                                  "bytes")
        assert peak < 5 << 19

    def test_time_reversal_must_normalize_s5(self):
        w = linalg.haar_unitary(5, linalg.RngStream(9))
        group = close_group(_permutation_module("S5", 1, 0, w))
        assert len(group.elements) == 120
        hilbert_setting(group, time_reversal=AntiUnitaryOp(w @ w.T))
        # T = D K with D = diag(1, -1, 1, 1, 1) conjugates the 5-cycle to
        # a signed permutation outside S5
        flip = w @ np.diag([1.0, -1.0, 1.0, 1.0, 1.0]) @ w.T
        with pytest.raises(SymmetryConsistencyError,
                           match="does not normalize the symmetry group"):
            hilbert_setting(group, time_reversal=AntiUnitaryOp(flip))


@pytest.mark.parametrize("make", [
    lambda: close_group([PAULI_X]),
    lambda: isotypic_decompose(close_group([PAULI_X]),
                               linalg.RngStream(1))[0],
    lambda: AntiUnitaryOp(np.eye(2)),
    lambda: TransferredT(AntiUnitaryOp(np.eye(1)), AntiUnitaryOp(np.eye(2)),
                         1, 1),
    lambda: linalg.HermitianEigenSystem(np.zeros(2), np.eye(2)),
], ids=["GroupAction", "IsotypicBlock", "AntiUnitaryOp", "TransferredT",
        "HermitianEigenSystem"])
def test_array_holding_records_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert {a: 1, b: 2}[a] == 1


def _assert_group_axioms(group):
    els = group.elements
    for a in els:
        for b in els:
            prod = a @ b
            assert any(linalg.frob(prod - c) < 1e-8 for c in els)
        inv = a.conj().T
        assert any(linalg.frob(inv - c) < 1e-8 for c in els)


class TestCommutant:
    def test_trivial_group_full_matrix_algebra(self):
        basis = commutant_basis(trivial_action(3))
        assert len(basis) == 9

    def test_q8_irrep_scalars_only(self):
        group = close_group([1j * PAULI_X, 1j * PAULI_Z])
        basis = commutant_basis(group)
        assert len(basis) == 1
        b = basis[0]
        assert linalg.frob(b - b[0, 0] * np.eye(2)) < 1e-8

    def test_z3_regular_representation(self):
        group = close_group([Z3_SHIFT])
        assert len(commutant_basis(group)) == 3

    def test_frobenius_orthonormal(self):
        group = close_group([S3_CYCLE, S3_SWAP])
        basis = commutant_basis(group)
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)

    def test_dimension_is_sum_of_squared_multiplicities(self, rng):
        group = close_group([S3_CYCLE, S3_SWAP])
        blocks = isotypic_decompose(group, rng)
        predicted = sum(b.multiplicity ** 2 for b in blocks)
        assert len(commutant_basis(group)) == predicted

    def test_oversized_system_refused_before_allocating(self):
        # the solves of diag(1, ..., 1, -1) on C^100 and of the trivial
        # group store nothing; their dense stacks of 99^2 + 1 and 100^2
        # matrices are refused at their exact size
        n = 100
        flip = close_group([np.diag([1.0] * (n - 1) + [-1.0])])
        trivial = trivial_action(n)
        tracemalloc.start()
        try:
            for action, dim in ((flip, 99 ** 2 + 1), (trivial, n ** 2)):
                with pytest.raises(InputShapeError, match=(
                        f"^the commutant on C\\^{n} has {dim} dimensions; "
                        f"its basis needs {16 * dim * n * n} bytes, above "
                        "the limit of 1073741824 bytes$")):
                    commutant_basis(action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _stack(pieces):
    """Generators of a direct sum of (generators, multiplicity) pieces."""
    import scipy.linalg as sla
    return [sla.block_diag(*(np.kron(np.eye(mult), gens[k])
                             for gens, mult in pieces))
            for k in range(len(pieces[0][0]))]


def _random_setting(name, rng):
    """(generators, is_finite) of a random setting in a Haar basis."""
    if name in oracles.GROUPS:
        gens, _, _ = oracles.build_threefold_case(name, rng, None)
        finite = True
    elif name == "su2":
        mults = rng.generator.integers(0, 3, size=3) + (0, 1, 0)
        gens = _stack([(spin(t), int(m)) for t, m in zip((0, 1, 2), mults)
                       if m])
        finite = False
    elif name == "u1":
        charges = rng.generator.integers(-2, 3, size=7).astype(float)
        gens = [1j * np.diag(charges)]
        finite = False
    else:  # S4 on C^4 plus a trivial line
        cycle = np.roll(np.eye(4), 1, axis=0)
        swap = np.eye(4)[[1, 0, 2, 3]]
        gens = [np.block([[g, np.zeros((4, 1))],
                          [np.zeros((1, 4)), np.eye(1)]])
                for g in (cycle, swap)]
        finite = True
    w = linalg.haar_unitary(gens[0].shape[0], rng)
    return [w @ g @ w.conj().T for g in gens], finite


def _span_projector(basis):
    b = np.array([x.ravel() for x in basis])
    return b.T @ b.conj(), b


SETTINGS = ("Z3", "S3", "D4", "Q8", "su2", "u1", "S4")


class TestAgainstOracles:
    @pytest.mark.parametrize("name", SETTINGS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_commutant_spans_oracle(self, name, seed):
        gens, finite = _random_setting(name, linalg.RngStream(seed))
        action = close_group(gens) if finite else lie_algebra_action(gens)
        basis = commutant_basis(action)
        p_new, b = _span_projector(basis)
        p_oracle, _ = _span_projector(oracles.commutant_oracle(gens))
        assert linalg.frob(p_new - p_oracle) <= 1e-10
        assert linalg.frob(b @ b.conj().T - np.eye(len(basis))) <= 1e-12
        for x in basis:
            for g in gens:
                assert linalg.frob(x @ g - g @ x) <= 1e-10

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4", "Q8", "S4"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_close_group_matches_linear_scan(self, name, seed):
        gens, _ = _random_setting(name, linalg.RngStream(seed))
        expected = oracles.close_group_oracle(gens)
        got = close_group(gens).elements
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("name", ["Q8", "S4"])
    def test_budget_raised_at_exactly_max_order(self, name, monkeypatch):
        gens, _ = _random_setting(name, linalg.RngStream(7))
        order = len(oracles.close_group_oracle(gens))
        monkeypatch.setattr(grouprep, "MAX_ORDER", order)
        assert len(close_group(gens).elements) == order
        monkeypatch.setattr(grouprep, "MAX_ORDER", order - 1)
        with pytest.raises(GroupTooLargeError,
                           match=f"^closure exceeded {order - 1} elements$"):
            close_group(gens)

    @pytest.mark.parametrize("name", ["su2", "u1"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-4])
    def test_noisy_lie_commutant_dimension(self, name, tol):
        # anti-Hermitian noise of norm 0.1 tol must not split the
        # eigenspaces the commutant is solved on
        rng = linalg.RngStream(11)
        gens, _ = _random_setting(name, rng)
        noisy = []
        for g in gens:
            z = rng.complex_normal(g.shape)
            z = z - z.conj().T
            noisy.append(g + 0.1 * tol * z / linalg.frob(z))
        action = lie_algebra_action(noisy, tol)
        assert len(commutant_basis(action, tol)) == \
            len(oracles.commutant_oracle(noisy, tol)) == \
            len(oracles.commutant_oracle(gens, tol))


def _reflection(n):
    """diag(1, ..., 1, -1) on C^n in a Haar-random basis."""
    return in_random_basis([np.diag([1.0] * (n - 1) + [-1.0])], n)


class TestComponentSolve:
    """The component-wise commutant against the single-system oracle."""

    @staticmethod
    def _assert_oracle_span(gens, tol=linalg.TOL_INPUT, finite=True):
        action = (GroupAction(dim=gens[0].shape[0],
                              generators=tuple(gens)) if finite
                  else lie_algebra_action(gens, tol))
        basis = commutant_basis(action, tol)
        p_new, b = _span_projector(basis)
        p_oracle, _ = _span_projector(
            oracles.commutant_span_oracle(gens, tol))
        assert linalg.frob(p_new - p_oracle) <= 1e-10
        assert linalg.frob(b @ b.conj().T - np.eye(len(basis))) <= 1e-10

    @pytest.mark.parametrize("workload", ["classify-wide",
                                          "classify-big-group"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_specs(self, workload, seed, tmp_path):
        workloads.build(workload, seed, tmp_path)
        paths = sorted(tmp_path.glob("spec*.json"))
        assert paths
        for path in paths:
            parsed = parse_spec(path)
            self._assert_oracle_span(list(parsed.setting.g0.generators),
                                     parsed.tolerance)

    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    def test_reflection(self, n):
        # the commutant of a reflection R is exactly the X with
        # P+ X P+ + P- X P- = X, P+- = (1 +- R) / 2, of dimension
        # (n - 1)^2 + 1; for as many orthonormal X, the distance of their
        # span projector from that one is sqrt(2) times their part off it
        gens = _reflection(n)
        basis = commutant_basis(GroupAction(dim=n, generators=tuple(gens)))
        plus = (np.eye(n) + gens[0]) / 2
        minus = np.eye(n) - plus
        off = basis - plus @ basis @ plus - minus @ basis @ minus
        assert len(basis) == (n - 1) ** 2 + 1
        assert np.sqrt(2) * linalg.frob(off) <= 1e-10
        b = basis.reshape(len(basis), -1)
        assert linalg.frob(b @ b.conj().T - np.eye(len(basis))) <= 1e-10
        if n <= 32:  # the single-system solve takes 17 s at n = 48
            self._assert_oracle_span(gens)

    def test_u1_charge_on_nambu_space(self):
        self._assert_oracle_span(
            in_random_basis([dual_sum(1j * np.eye(16))], 17), finite=False)

    def test_spin_7_twice(self):
        gens = [np.kron(np.eye(2), g) for g in spin(14)]
        self._assert_oracle_span(in_random_basis(gens, 7), finite=False)

    def test_spin_4_twice(self):
        gens = [np.kron(np.eye(2), g) for g in spin(8)]
        self._assert_oracle_span(in_random_basis(gens, 4), finite=False)

    @pytest.mark.parametrize("name", ["S3", "Q8", "su2", "u1", "S4"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-4, 1e-2])
    def test_noisy_dimension(self, name, tol):
        rng = linalg.RngStream(23)
        gens, finite = _random_setting(name, rng)
        noisy = []
        for g in gens:
            z = rng.complex_normal(g.shape)
            z = z - z.conj().T if not finite else z
            noisy.append(g + 0.1 * tol * z / linalg.frob(z))
        action = GroupAction(dim=gens[0].shape[0], generators=tuple(noisy))
        basis = commutant_basis(action, tol)
        assert len(basis) == len(oracles.commutant_span_oracle(noisy, tol))
        b = basis.reshape(len(basis), -1)
        assert linalg.frob(b @ b.conj().T - np.eye(len(basis))) <= 1e-10

    def test_reflection_forms_no_system(self, monkeypatch):
        # every block of a reflection is scalar in the eigenbasis of a
        # multiple of it: the basis is written without a solve, and the
        # peak stays near the basis itself
        flip = close_group(_reflection(32))

        def no_system(*args, **kwargs):
            raise AssertionError("a constraint system was factorized")

        monkeypatch.setattr(np.linalg, "qr", no_system)
        tracemalloc.start()
        try:
            basis = commutant_basis(flip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(basis) == 31 ** 2 + 1
        assert peak <= 2.5 * basis.nbytes


class TestIsotypicDecompose:
    def test_trivial_group(self, rng):
        blocks = isotypic_decompose(trivial_action(5), rng)
        assert len(blocks) == 1
        assert (blocks[0].irrep_dim, blocks[0].multiplicity) == (1, 5)

    def test_s3_permutation_representation(self, rng):
        group = close_group([S3_CYCLE, S3_SWAP])
        blocks = isotypic_decompose(group, rng)
        shapes = sorted((b.irrep_dim, b.multiplicity) for b in blocks)
        assert shapes == [(1, 1), (2, 1)]

    def test_z3_regular_representation(self, rng):
        group = close_group([Z3_SHIFT])
        blocks = isotypic_decompose(group, rng)
        assert sorted((b.irrep_dim, b.multiplicity) for b in blocks) == \
            [(1, 1)] * 3

    def test_u1_charge_single_block(self, rng):
        blocks = isotypic_decompose(u1_charge_action(4), rng)
        assert [(b.irrep_dim, b.multiplicity) for b in blocks] == [(1, 4)]

    def test_spin_half_analytic(self, rng):
        blocks = isotypic_decompose(spin_half_action(6), rng)
        assert [(b.irrep_dim, b.multiplicity) for b in blocks] == [(2, 3)]

    def test_projector_resolution_and_orthogonality(self, rng):
        group = close_group([np.kron(S3_CYCLE, np.eye(2)),
                             np.kron(S3_SWAP, np.eye(2))])
        blocks = isotypic_decompose(group, rng)
        total = sum(b.projector for b in blocks)
        assert linalg.frob(total - np.eye(6)) < 1e-8
        for a in blocks:
            assert linalg.frob(a.projector @ a.projector - a.projector) < 1e-8
            assert linalg.is_hermitian(a.projector)
            for b in blocks:
                if a.label != b.label:
                    assert linalg.frob(a.projector @ b.projector) < 1e-8

    def test_projectors_commute_with_generators(self, rng):
        group = close_group([S3_CYCLE, S3_SWAP])
        blocks = isotypic_decompose(group, rng)
        for b in blocks:
            for g in group.generators:
                assert linalg.frob(g @ b.projector - b.projector @ g) < 1e-8

    @pytest.mark.parametrize("name", ["Z3", "S3"])
    @pytest.mark.parametrize("tol", [1e-3, 1e-2])
    def test_many_lines_at_loose_tolerance(self, name, tol):
        # every irrep three times: merging two lines is fatal here, so
        # the cluster gap must not grow with tol
        irreps = oracles.GROUPS[name].irreps.values()
        gens = _stack([(list(rep), 3) for rep in irreps])
        w = linalg.haar_unitary(gens[0].shape[0], linalg.RngStream(5))
        group = close_group([w @ g @ w.conj().T for g in gens])
        blocks = isotypic_decompose(group, linalg.RngStream(6), tol)
        assert sorted((b.irrep_dim, b.multiplicity) for b in blocks) == \
            sorted((rep[0].shape[0], 3) for rep in irreps)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_su2_at_tolerance_1e4(self, seed):
        tol = 1e-4
        rng = linalg.RngStream(seed)
        gens = _stack([(spin(0), 2), (spin(1), 3), (spin(2), 2)])
        w = linalg.haar_unitary(gens[0].shape[0], rng)
        noisy = []
        for g in gens:
            z = rng.complex_normal(g.shape)
            z = z - z.conj().T
            noisy.append(w @ g @ w.conj().T + 0.1 * tol * z / linalg.frob(z))
        action = lie_algebra_action(noisy, tol)
        blocks = isotypic_decompose(action, rng.child(1), tol)
        assert sorted((b.irrep_dim, b.multiplicity) for b in blocks) == \
            [(1, 2), (2, 3), (3, 2)]
        # half-integer spins are quaternionic, integer spins real
        for b in blocks:
            assert self_duality_type(action, b, tol) == \
                (-1 if b.irrep_dim % 2 == 0 else 1)

    def test_block_kronecker_structure(self, rng):
        # generators act as identity (x) irrep in the factor basis
        group = close_group([np.kron(np.eye(3), 1j * PAULI_X),
                             np.kron(np.eye(3), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        assert len(blocks) == 1
        b = blocks[0]
        assert (b.irrep_dim, b.multiplicity) == (2, 3)
        for g in group.generators:
            gb = b.factor_basis.conj().T @ g @ b.factor_basis
            rho = gb[:2, :2]
            assert linalg.is_unitary(rho, 1e-8)
            assert linalg.frob(gb - np.kron(np.eye(3), rho)) < 1e-8

    def test_multiplicities_match_character_oracle(self, rng):
        # random stacked D4 representation, conjugated by a Haar unitary
        data = oracles.GROUPS["D4"]
        rep_gens = [np.zeros((0, 0), dtype=complex)] * 2
        pieces = {"triv": 2, "2d": 1, "rs-": 1}
        import scipy.linalg as sla
        gen_blocks = [[], []]
        for name, mult in pieces.items():
            for i, g in enumerate(data.irreps[name]):
                gen_blocks[i].append(np.kron(np.eye(mult), g))
        gens = [sla.block_diag(*blocks) for blocks in gen_blocks]
        w = linalg.haar_unitary(gens[0].shape[0], rng)
        group = close_group([w @ g @ w.conj().T for g in gens])
        blocks = isotypic_decompose(group, rng)
        got = sorted((b.irrep_dim, b.multiplicity) for b in blocks)
        _, rep_els = oracles.group_elements_in_rep(data, tuple(gens))
        mults = oracles.multiplicities_from_character(data, rep_els)
        expected = sorted(
            (data.irreps[n][0].shape[0], m) for n, m in mults.items() if m)
        assert got == expected


class TestFsIndicator:
    def test_trivial_irrep(self, rng):
        group = close_group([S3_CYCLE, S3_SWAP])
        blocks = isotypic_decompose(group, rng)
        one_dim = [b for b in blocks if b.irrep_dim == 1][0]
        assert fs_indicator(group, one_dim) == 1

    def test_quaternion_two_dim(self, rng):
        group = close_group([1j * PAULI_X, 1j * PAULI_Z])
        blocks = isotypic_decompose(group, rng)
        assert fs_indicator(group, blocks[0]) == -1

    def test_z3_complex_characters(self, rng):
        group = close_group([Z3_SHIFT])
        blocks = isotypic_decompose(group, rng)
        indicators = sorted(fs_indicator(group, b) for b in blocks)
        assert indicators == [0, 0, 1]

    def test_trivial_group(self, rng):
        action = trivial_action(3)
        blocks = isotypic_decompose(action, rng)
        assert fs_indicator(action, blocks[0]) == 1

    def test_unsupported_mode(self, rng):
        action = spin_half_action(4)
        blocks = isotypic_decompose(action, rng)
        with pytest.raises(UnsupportedModeError):
            fs_indicator(action, blocks[0])

    @pytest.mark.parametrize("group_name", ["Z3", "S3", "D4", "Q8"])
    def test_matches_character_oracle_per_irrep(self, group_name, rng):
        data = oracles.GROUPS[group_name]
        for name, gens in data.irreps.items():
            dim = gens[0].shape[0]
            # build irrep (x) C^2 so multiplicity space is nontrivial
            lifted = [np.kron(np.eye(2), g) for g in gens]
            group = close_group(lifted)
            blocks = isotypic_decompose(group, rng)
            assert len(blocks) == 1
            assert blocks[0].irrep_dim == dim
            assert fs_indicator(group, blocks[0]) == \
                oracles.fs_indicator_oracle(data, name)

    @pytest.mark.parametrize("group_name", ["Z3", "S3", "D4", "Q8"])
    def test_agrees_with_self_duality_type(self, group_name, rng):
        data = oracles.GROUPS[group_name]
        for name, gens in data.irreps.items():
            group = close_group([np.kron(np.eye(2), g) for g in gens])
            blocks = isotypic_decompose(group, rng)
            assert self_duality_type(group, blocks[0]) == \
                fs_indicator(group, blocks[0])


def _oracle_self_duality(action, block, tol):
    """Self-duality type from the Kronecker solve of Hom_G(R, R*)."""
    rep = [block.irrep_matrix(g) for g in action.generators]
    hom = oracles.hom_space_oracle(rep, [g.conj() for g in rep], tol)
    if not hom:
        return 0
    psi = hom[0]
    return 1 if linalg.frob(psi - psi.T) <= tol * linalg.frob(psi) else -1


class TestSelfDualityType:
    """Self-duality read from the commutant of R + R*."""

    @pytest.mark.parametrize("group_name", ["Z3", "S3", "D4", "Q8"])
    def test_matches_hom_space_oracle_per_irrep(self, group_name, rng):
        data = oracles.GROUPS[group_name]
        for name, gens in data.irreps.items():
            w = linalg.haar_unitary(2 * gens[0].shape[0], rng)
            group = close_group([w @ np.kron(np.eye(2), g) @ w.conj().T
                                 for g in gens])
            (block,) = isotypic_decompose(group, rng)
            assert self_duality_type(group, block) == \
                _oracle_self_duality(group, block, linalg.TOL_INPUT) == \
                oracles.fs_indicator_oracle(data, name)

    @pytest.mark.parametrize("two_j", range(1, 31))
    def test_su2_spin_ladder_alternates(self, two_j):
        # spin j (x) C^2 in a random basis: quaternionic for half-integer
        # j, real for integer j
        d = two_j + 1
        w = linalg.haar_unitary(2 * d, linalg.RngStream(two_j))
        action = lie_algebra_action([w @ np.kron(np.eye(2), g) @ w.conj().T
                                     for g in spin(two_j)])
        block = IsotypicBlock(label=0, irrep_dim=d, multiplicity=2,
                              factor_basis=w)
        want = -1 if two_j % 2 else 1
        assert self_duality_type(action, block) == want
        if two_j <= 8:
            assert _oracle_self_duality(action, block,
                                        linalg.TOL_INPUT) == want

    @pytest.mark.parametrize("charges", [(1.0, 2.0), (1.0, 1.0, 2.0)])
    def test_reducible_sector_rejected(self, charges):
        # U(1) characters passed off as one irreducible: the commutant of
        # R + R* is 4-dimensional without a pairing block, or larger
        d = len(charges)
        action = lie_algebra_action([1j * np.diag(charges)])
        block = IsotypicBlock(label=0, irrep_dim=d, multiplicity=1,
                              factor_basis=np.eye(d, dtype=complex))
        with pytest.raises(DegenerateDecompositionError,
                           match="not irreducible"):
            self_duality_type(action, block)


class TestLieAlgebraMode:
    def test_generators_must_be_antihermitian(self):
        with pytest.raises(InputShapeError):
            lie_algebra_action([PAULI_X])

    def test_su2_algebra_decomposition(self, rng):
        gens = [np.kron(np.eye(2), 1j * s)
                for s in (PAULI_X, PAULI_Y, PAULI_Z)]
        action = lie_algebra_action(gens)
        blocks = isotypic_decompose(action, rng)
        assert [(b.irrep_dim, b.multiplicity) for b in blocks] == [(2, 2)]
        assert self_duality_type(action, blocks[0]) == -1

    def test_u1_with_distinct_charges_splits(self, rng):
        action = lie_algebra_action([1j * np.diag([1.0, 1.0, -1.0])])
        blocks = isotypic_decompose(action, rng)
        assert sorted((b.irrep_dim, b.multiplicity) for b in blocks) == \
            [(1, 1), (1, 2)]


class TestSliceIntertwiners:
    """Hom spaces between the sectors' copies against the Kronecker solve."""

    @staticmethod
    def _action(name, seed, tol):
        rng = linalg.RngStream(seed)
        gens, finite = _random_setting(name, rng)
        if tol is not None:
            # anti-Hermitian noise for a group too: only the generators
            # enter the split
            gens = _noisy(gens, False, tol, rng)
        if finite:
            return GroupAction(dim=gens[0].shape[0], generators=tuple(gens))
        return lie_algebra_action(gens, tol)

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4", "Q8", "su2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tol", [None, 1e-4])
    def test_dim_hom_matches_kronecker_oracle(self, name, seed, tol):
        # every copy of a sector carries the same irreducible, and the
        # irreducibles of two sectors are not isomorphic
        action = self._action(name, seed, tol)
        tol = linalg.TOL_INPUT if tol is None else tol
        blocks = isotypic_decompose(action, linalg.RngStream(seed), tol)
        copies = [[[fb.conj().T @ g @ fb for g in action.generators]
                   for fb in np.split(b.factor_basis, b.multiplicity, axis=1)]
                  for b in blocks]
        for a, first in enumerate(copies):
            for b, others in enumerate(copies):
                for rep in others:
                    assert len(oracles.hom_space_oracle(first[0], rep, tol)) \
                        == (a == b)
        assert sum(b.dim for b in blocks) == action.dim

    def test_spin_15_twice_in_a_random_basis(self):
        gens = [np.kron(np.eye(2), g) for g in spin(30)]
        w = linalg.haar_unitary(62, linalg.RngStream(15))
        action = lie_algebra_action([w @ g @ w.conj().T for g in gens])
        blocks = isotypic_decompose(action, linalg.RngStream(16))
        assert [(b.irrep_dim, b.multiplicity) for b in blocks] == [(31, 2)]


def _noisy(gens, finite, tol, rng):
    """Each generator plus noise of norm 0.1 tol (anti-Hermitian for an
    algebra, so it stays one)."""
    out = []
    for g in gens:
        z = rng.complex_normal(g.shape)
        z = z - z.conj().T if not finite else z
        out.append(g + 0.1 * tol * z / linalg.frob(z))
    return out


class TestBatchedDecompose:
    """One batched pass against the per-slice decomposition oracle."""

    @staticmethod
    def _assert_oracle_sectors(action, tol, seed, clean=None):
        """The library's sectors against the oracle's.

        On exact inputs (``clean`` None) the oracle draws the library's
        x for the same seed, so the labels agree and each projector is
        within 1e-10 of the oracle's.  On noisy ones each projector lies
        within tol of a distinct sector of the same shape in the
        oracle's split of the noise-free ``clean`` action: the
        generators are known to tol, and sectors whose keys lie within
        the noise may swap labels.
        """
        got = isotypic_decompose(action, linalg.RngStream(seed), tol)
        ref, ref_tol = (action, tol) if clean is None else \
            (clean, linalg.TOL_INPUT)
        want = oracles.decompose_oracle(ref, commutant_basis(ref, ref_tol),
                                        linalg.RngStream(seed).child(0),
                                        ref_tol)
        if clean is None:
            assert [(b.irrep_dim, b.multiplicity) for b in got] == \
                [(b.irrep_dim, b.multiplicity) for b in want]
            for b, w in zip(got, want):
                assert linalg.frob(b.projector - w.projector) <= 1e-10
            return got
        matches = [[i for i, w in enumerate(want)
                    if (b.irrep_dim, b.multiplicity) ==
                    (w.irrep_dim, w.multiplicity) and
                    linalg.frob(b.projector - w.projector) <= tol]
                   for b in got]
        assert sorted(matches) == [[i] for i in range(len(want))]
        return got

    @pytest.mark.parametrize("workload", ["classify-wide",
                                          "classify-big-group"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_specs(self, workload, seed, tmp_path):
        workloads.build(workload, seed, tmp_path)
        paths = sorted(tmp_path.glob("spec*.json"))
        assert paths
        split = 0
        for path in paths:
            parsed = parse_spec(path)
            g0 = parsed.setting.g0
            if grouprep._tensor_factor(g0, parsed.tolerance) is not None:
                continue  # decomposed without a split
            split += 1
            self._assert_oracle_sectors(g0, parsed.tolerance, seed)
        assert split

    @pytest.mark.parametrize("name", ["S3", "Q8", "su2", "u1", "S4"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-4, 3e-3, 1e-2])
    def test_noisy_generators(self, name, tol):
        rng = linalg.RngStream(31)
        gens, finite = _random_setting(name, rng)
        noisy = _noisy(gens, finite, tol, rng)
        action, clean = ((GroupAction(dim=gens[0].shape[0],
                                      generators=tuple(g)) if finite
                          else lie_algebra_action(g, tol))
                         for g in (noisy, gens))
        self._assert_oracle_sectors(action, tol, 37, clean)

    @pytest.mark.parametrize("n", [32, 48])
    def test_reflection(self, n):
        # two clusters that nothing links: no slice is read
        gens = _reflection(n)
        got = self._assert_oracle_sectors(
            GroupAction(dim=n, generators=tuple(gens)), linalg.TOL_INPUT, n)
        assert sorted((b.irrep_dim, b.multiplicity) for b in got) == \
            [(1, 1), (1, n - 1)]

    @pytest.mark.parametrize("j", [4, 7])
    def test_spin_twice(self, j):
        gens = [np.kron(np.eye(2), g) for g in spin(2 * j)]
        action = lie_algebra_action(in_random_basis(gens, j))
        got = self._assert_oracle_sectors(action, linalg.TOL_INPUT, j)
        assert [(b.irrep_dim, b.multiplicity) for b in got] == [(2 * j + 1, 2)]


class TestTransport:
    """Sectors read off h's eigenclusters by transport: merged clusters
    are split, and no linear system is solved."""

    @pytest.mark.parametrize("pieces", [
        [(spin(2), 2), (spin(4), 3)],  # spins 1 and 2: unequal clusters
        [(spin(2), 2), (spin(4), 2)],  # spins 1 and 2, two copies each
    ], ids=["spins-1x2-2x3", "spins-1x2-2x2"])
    def test_shared_weights_match_oracle(self, pieces):
        action = lie_algebra_action(in_random_basis(_stack(pieces), 5))
        got = TestBatchedDecompose._assert_oracle_sectors(
            action, linalg.TOL_INPUT, 6)
        assert sorted((b.irrep_dim, b.multiplicity) for b in got) == \
            sorted((gens[0].shape[0], mult) for gens, mult in pieces)

    def test_su3_adjoint_twice_is_real(self):
        # the zero weight of the adjoint is 2-dimensional: its cluster of
        # 4 is split in two
        gens = [np.kron(np.eye(2), g) for g in oracles.adjoint(oracles.su3())]
        action = lie_algebra_action(in_random_basis(gens, 7))
        (block,) = TestBatchedDecompose._assert_oracle_sectors(
            action, linalg.TOL_INPUT, 8)
        assert (block.irrep_dim, block.multiplicity) == (8, 2)
        assert self_duality_type(action, block) == \
            _oracle_self_duality(action, block, linalg.TOL_INPUT) == 1

    def test_su3_fundamental_and_its_dual_are_complex(self):
        gens = [_stack([([g], 1), ([g.conj()], 1)])[0] for g in oracles.su3()]
        action = lie_algebra_action(in_random_basis(gens, 9))
        blocks = TestBatchedDecompose._assert_oracle_sectors(
            action, linalg.TOL_INPUT, 10)
        assert [(b.irrep_dim, b.multiplicity) for b in blocks] == [(3, 1)] * 2
        for b in blocks:
            assert self_duality_type(action, b) == \
                _oracle_self_duality(action, b, linalg.TOL_INPUT) == 0

    def test_spin_half_49_times_solves_no_system(self, monkeypatch):
        gens = in_random_basis([np.kron(np.eye(49), g) for g in spin(1)], 11)
        action = lie_algebra_action(gens)

        def no_system(*args, **kwargs):
            raise AssertionError("a linear system was factorized")

        for name in ("qr", "solve", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, no_system)
        tracemalloc.start()
        try:
            (block,) = isotypic_decompose(action, linalg.RngStream(12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (block.irrep_dim, block.multiplicity) == (2, 49)
        assert peak < 8 << 20

    def test_spin_two_30_times(self):
        gens = in_random_basis([np.kron(np.eye(30), g) for g in spin(4)], 13)
        (block,) = isotypic_decompose(lie_algebra_action(gens),
                                      linalg.RngStream(14))
        assert (block.irrep_dim, block.multiplicity) == (5, 30)


class TestManySectors:
    """Long chains of linked clusters and many components, against the
    construction they were built from."""

    @pytest.mark.parametrize("two_j,m,k", [
        (40, 2, 1), (40, 1, 200), (21, 3, 60), (8, 4, 150), (1, 6, 200)])
    def test_spin_chain_beside_many_charges(self, two_j, m, k):
        # spin j (x) C^m, whose 2j + 1 clusters are linked in a chain,
        # plus the charges 1..k, in a Haar-random basis w
        d, n = two_j + 1, m * (two_j + 1) + k
        gens = [np.zeros((n, n), dtype=complex) for _ in range(4)]
        for g, s in zip(gens, spin(two_j)):
            g[:m * d, :m * d] = np.kron(np.eye(m), s)
        gens[3][m * d:, m * d:] = 1j * np.diag(np.arange(1.0, k + 1))
        w = linalg.haar_unitary(n, linalg.RngStream(two_j + k))
        blocks = isotypic_decompose(lie_algebra_action(
            [w @ g @ w.conj().T for g in gens]), linalg.RngStream(k))
        # each sector against the one of the construction it lies in:
        # the spin sector w[:, :m d], or the line of one charge
        owner = [0] * (m * d) + list(range(1, k + 1))
        want = [w[:, :m * d]] + [w[:, [m * d + c]] for c in range(k)]
        found = []
        for b in blocks:
            weight = np.zeros(k + 1)
            np.add.at(weight, owner, (np.abs(w.conj().T @ b.factor_basis)
                                      ** 2).sum(axis=1))
            found.append(int(weight.argmax()))
            assert (b.irrep_dim, b.multiplicity) == \
                ((d, m) if found[-1] == 0 else (1, 1))
            basis = want[found[-1]]
            assert linalg.frob(b.projector - basis @ basis.conj().T) <= 1e-8
        assert sorted(found) == list(range(k + 1))

    @pytest.mark.parametrize("k,links,seed", [
        (1, 0, 0), (2, 1, 1), (50, 0, 2), (50, 30, 3), (200, 150, 4),
        (300, 299, 5), (300, 600, 6)])
    def test_components_match_the_transitive_closure(self, k, links, seed):
        # random links, plus a chain through a shuffled order: the order
        # that min-label propagation alone crosses slowest
        gen = np.random.default_rng(seed)
        link = np.zeros((k, k), dtype=bool)
        a, b = gen.integers(0, k, size=(2, links))
        link[a, b] = link[b, a] = True
        chain = gen.permutation(k)[:gen.integers(0, k + 1)]
        link[chain[1:], chain[:-1]] = link[chain[:-1], chain[1:]] = True
        got = grouprep._components(link)
        want = oracles.components_closure_oracle(link)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestTensorFactor:
    """G0 = 1_m (x) r in the given basis: one sector when r is irreducible,
    the generic split otherwise."""

    @pytest.mark.parametrize("m", [2, 5])
    def test_spin_one_is_one_sector(self, m):
        action = lie_algebra_action([np.kron(np.eye(m), g) for g in spin(2)])
        block = grouprep._tensor_factor(action, linalg.TOL_INPUT)
        assert (block.irrep_dim, block.multiplicity) == (3, m)
        assert np.array_equal(block.factor_basis, np.eye(3 * m))
        (got,) = isotypic_decompose(action, linalg.RngStream(1))
        assert (got.irrep_dim, got.multiplicity) == (3, m)

    @pytest.mark.parametrize("phase", [1.0, -1.0, 1j, np.exp(2j * np.pi / 3)])
    def test_scalars_are_one_sector_of_a_character(self, phase):
        action = close_group([phase * np.eye(6)])
        block = grouprep._tensor_factor(action, linalg.TOL_INPUT)
        assert (block.irrep_dim, block.multiplicity) == (1, 6)

    @pytest.mark.parametrize("r", [
        [1j * np.diag([1.0, -1.0])],  # two characters
        _stack([(spin(1), 1), (spin(2), 1)]),  # spin 1/2 + spin 1
    ], ids=["u1-charges", "two-spins"])
    def test_reducible_factor_takes_the_generic_split(self, r):
        action = lie_algebra_action([np.kron(np.eye(3), g) for g in r])
        assert grouprep._tensor_factor(action, linalg.TOL_INPUT) is None
        got = TestBatchedDecompose._assert_oracle_sectors(
            action, linalg.TOL_INPUT, 3)
        want = isotypic_decompose(action, linalg.RngStream(3))
        assert [(b.irrep_dim, b.multiplicity) for b in got] == \
            [(b.irrep_dim, b.multiplicity) for b in want]

    @pytest.mark.parametrize("name", ["Q8", "su2"])
    def test_haar_basis_is_not_a_tensor_factor(self, name):
        gens = spin(1) if name == "su2" else [1j * PAULI_X, 1j * PAULI_Z]
        w = linalg.haar_unitary(8, linalg.RngStream(4))
        gens = [w @ np.kron(np.eye(4), g) @ w.conj().T for g in gens]
        action = lie_algebra_action(gens) if name == "su2" else \
            close_group(gens)
        assert grouprep._tensor_factor(action, linalg.TOL_INPUT) is None

    def test_spin_half_peak_is_the_factor_basis(self):
        # the blocks are read through views: the peak is the returned
        # identity, 4 MiB at n = 512, not a temporary of each generator
        action = spin_half_action(512)
        tracemalloc.start()
        try:
            (block,) = isotypic_decompose(action, linalg.RngStream(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (block.irrep_dim, block.multiplicity) == (2, 256)
        assert peak < 1.5 * block.factor_basis.nbytes


class TestCharacterSelfDuality:
    """The d = 1 path of self_duality_type against the commutant of
    R + R*: a character is self-dual exactly when it is real."""

    @pytest.mark.parametrize("value", [
        1.0, -1.0, 1j, np.exp(2j * np.pi / 3), -1.0 + 1e-10j,
        np.exp(2j * np.pi / 3) + 1e-10, 1e-10j, 2.5j + 1e-10])
    def test_matches_commutant_of_the_doubled_character(self, value):
        unit = abs(abs(value) - 1) < 1e-6
        gen = value * np.eye(3)
        action = GroupAction(dim=3, generators=(gen,)) if unit else \
            lie_algebra_action([gen])
        (block,) = isotypic_decompose(action, linalg.RngStream(6))
        doubled = dual_sum(block.irrep_matrix(gen))
        comm = commutant_basis(GroupAction(dim=2, generators=(doubled,)))
        assert self_duality_type(action, block) == \
            {2: 0, 4: 1}[len(comm)]


def test_close_group_refuses_an_identity_above_the_cap(monkeypatch):
    # one 300 x 300 element takes 1.44 MB, above a 1 MiB cap
    monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLargeError) as err:
            close_group([], dim=300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("one group element of size 300 x 300 needs "
                              "1440000 bytes, above the limit of 1048576 "
                              "bytes")
    assert peak < 100_000
