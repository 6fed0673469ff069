"""Tests for group closure, commutants and isotypic decomposition."""

import tracemalloc

import numpy as np
import pytest

import oracles
from tenfold import linalg
from tenfold.antiunitary import AntiUnitaryOp, TransferredT
from tenfold.classifier import hilbert_setting
from tenfold.errors import (DegenerateDecompositionError,
                            GroupTooLargeError, InputShapeError,
                            SymmetryConsistencyError, UnsupportedModeError)
from tenfold.grouprep import (MODE_FINITE, PAULI_X, PAULI_Y, PAULI_Z,
                              GroupAction, IsotypicBlock, _eigen_split,
                              _slice_hom, close_group, commutant_basis,
                              fs_indicator, isotypic_decompose,
                              lie_algebra_action, self_duality_type,
                              spin_half_action, trivial_action,
                              u1_charge_action)

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
        assert action.mode == MODE_FINITE and action.generators == ()
        assert len(action.elements) == 1
        assert np.array_equal(action.elements[0], np.eye(4))
        assert action.is_trivial()

    def test_budget_enforced(self):
        theta = np.sqrt(2.0)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]], dtype=complex)
        with pytest.raises(GroupTooLargeError):
            close_group([rot], max_order=64)

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
        # diag(1, ..., 1, -1) on C^100 leaves 99^2 + 1 unknowns: 1.6e9
        # bytes of constraints; the trivial group needs 100^4 entries
        n = 100
        flip = close_group([np.diag([1.0] * (n - 1) + [-1.0])])
        trivial = trivial_action(n)
        tracemalloc.start()
        try:
            for action in (flip, trivial):
                with pytest.raises(InputShapeError, match="above the limit"):
                    commutant_basis(action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _spin(two_j):
    """Anti-Hermitian su(2) generators i J_x, i J_y, i J_z of spin j."""
    j = two_j / 2
    m = j - np.arange(two_j + 1)
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    jx = (up + up.T) / 2
    jy = (up - up.T) / 2j
    return [1j * jx, 1j * jy, 1j * np.diag(m)]


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
        gens = _stack([(_spin(t), int(m)) for t, m in zip((0, 1, 2), mults)
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
    def test_budget_raised_at_exactly_max_order(self, name):
        gens, _ = _random_setting(name, linalg.RngStream(7))
        order = len(oracles.close_group_oracle(gens))
        assert len(close_group(gens, max_order=order).elements) == order
        with pytest.raises(GroupTooLargeError):
            close_group(gens, max_order=order - 1)

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
        gens = _stack([(_spin(0), 2), (_spin(1), 3), (_spin(2), 2)])
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
                                     for g in _spin(two_j)])
        block = IsotypicBlock(label=0, irrep_dim=d, multiplicity=2,
                              projector=np.eye(2 * d), factor_basis=w)
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
                              projector=np.eye(d),
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
    """Hom spaces read from the commutant against the Kronecker solve."""

    @staticmethod
    def _action(name, seed, tol):
        rng = linalg.RngStream(seed)
        gens, finite = _random_setting(name, rng)
        if tol is not None:
            noisy = []
            for g in gens:
                z = rng.complex_normal(g.shape)
                z = z - z.conj().T
                noisy.append(g + 0.1 * tol * z / linalg.frob(z))
            gens = noisy
        if finite:
            # only the generators enter the commutant and the split
            return GroupAction(dim=gens[0].shape[0], mode=MODE_FINITE,
                               generators=tuple(gens))
        return lie_algebra_action(gens, tol)

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4", "Q8", "su2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tol", [None, 1e-4])
    def test_dim_hom_matches_kronecker_oracle(self, name, seed, tol):
        action = self._action(name, seed, tol)
        tol = linalg.TOL_INPUT if tol is None else tol
        comm = commutant_basis(action, tol)
        evecs, bounds, cut = _eigen_split(action, comm,
                                          linalg.RngStream(seed).child(9))
        reps = [[evecs[:, lo:hi].conj().T @ g @ evecs[:, lo:hi]
                 for g in action.generators] for lo, hi in bounds]
        nonzero = 0
        for b, (lo, hi) in enumerate(bounds):
            row = (evecs[:, lo:hi].conj().T @ comm) @ evecs
            for a, cols in enumerate(bounds):
                got = len(_slice_hom(row, slice(*cols), cut))
                assert got == len(oracles.hom_space_oracle(reps[a], reps[b],
                                                           tol))
                nonzero += got > 0
        assert nonzero > len(bounds)  # some pair of copies is isomorphic

    def test_spin_15_twice_in_a_random_basis(self):
        gens = [np.kron(np.eye(2), g) for g in _spin(30)]
        w = linalg.haar_unitary(62, linalg.RngStream(15))
        action = lie_algebra_action([w @ g @ w.conj().T for g in gens])
        blocks = isotypic_decompose(action, linalg.RngStream(16))
        assert [(b.irrep_dim, b.multiplicity) for b in blocks] == [(31, 2)]
