"""Tests for the Fock-space oracle against dense references."""

import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from tenfold import focklab, linalg
from tenfold.classifier import label
from tenfold.ensembles import EnsembleSpec, sample_gaussian
from tenfold.errors import InputShapeError, NotQuadraticError
from tenfold.focklab import (MAX_DENSE_MODES, FockSpace, SignedPerm,
                             build_fock, covering_check, lift_one_body,
                             lift_unitary, majorana_basis, nambu_generator,
                             particle_hole, twisted_ph_transfer_check, wedge)


def random_skew(n, rng):
    b = rng.complex_normal((n, n))
    return 0.5 * (b - b.T)


class TestBuildFock:
    def test_single_mode_creation_matrix(self):
        fock = build_fock(1)
        assert np.allclose(fock.create[0].dense(), [[0, 0], [1, 0]])

    def test_number_operator_spectrum_two_modes(self):
        fock = build_fock(2)
        num = sum(a.dense() @ a.adjoint().dense() for a in fock.create)
        assert np.array_equal(num, np.diag(fock.occupation))
        assert sorted(np.linalg.eigvalsh(num).round(12)) == [0, 1, 1, 2]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_car_relations(self, n):
        fock = build_fock(n)
        worst = 0.0
        dim = fock.dim
        for k in range(n):
            for l in range(n):
                ak = fock.annihilate[k].dense()
                al = fock.annihilate[l].dense()
                adk = fock.create[k].dense()
                worst = max(worst, linalg.frob(ak @ al + al @ ak))
                anti = adk @ al + al @ adk
                target = np.eye(dim) if k == l else 0.0
                worst = max(worst, linalg.frob(anti - target))
        assert worst <= 1e-12

    def test_creation_raises_degree(self):
        fock = build_fock(3)
        for adk in fock.create:
            for state in range(fock.dim):
                col = adk.dense()[:, state]
                hit = np.nonzero(col)[0]
                for target in hit:
                    assert fock.occupation[target] == \
                        fock.occupation[state] + 1

    def test_mode_count_bounds(self):
        with pytest.raises(InputShapeError):
            build_fock(0)
        with pytest.raises(InputShapeError):
            build_fock(15)


class TestWedge:
    def test_matches_independent_oracle(self, rng):
        fock = build_fock(4)
        for _ in range(20):
            psi = rng.complex_normal(fock.dim)
            phi = rng.complex_normal(fock.dim)
            ours = wedge(fock, psi, phi)
            theirs = oracles.wedge_vectors(4, psi, phi)
            assert np.allclose(ours, theirs, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bit_identical_to_the_oracle(self, n, rng):
        # one addition per term, in the oracle's order: equal bit for bit
        fock = build_fock(n)
        pairs = [(rng.complex_normal(fock.dim), rng.complex_normal(fock.dim))]
        for deg in range(n + 1):
            psi, phi = (np.where(fock.occupation == d,
                                 rng.complex_normal(fock.dim), 0.0)
                        for d in (deg, int(rng.generator.integers(0, n + 1))))
            pairs.append((psi, phi))
        for psi, phi in pairs:
            assert np.array_equal(wedge(fock, psi, phi),
                                  oracles.wedge_vectors(n, psi, phi))

    def test_blocks_of_pairs_change_nothing(self, rng, monkeypatch):
        fock = build_fock(5)
        psi = rng.complex_normal(fock.dim)
        phi = rng.complex_normal(fock.dim)
        whole = wedge(fock, psi, phi)
        monkeypatch.setattr(focklab, "_WEDGE_PAIRS", 7)
        assert np.array_equal(wedge(fock, psi, phi), whole)

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_sparse_vectors_reaching_the_high_modes(self, n, rng):
        fock = build_fock(n)
        for _ in range(3):
            psi, phi = np.zeros((2, fock.dim), dtype=complex)
            for vec in (psi, phi):
                idx = rng.generator.choice(fock.dim, 6, replace=False)
                vec[idx] = rng.complex_normal(6)
            psi[fock.top_index >> 2] = 1.0  # every mode but the lowest two
            phi[2] = 1.0
            assert np.array_equal(wedge(fock, psi, phi),
                                  oracles.wedge_vectors(n, psi, phi))

    def test_wedge_ordering_sign(self):
        fock = build_fock(2)
        e1 = np.zeros(4); e1[1] = 1.0   # mode 0 occupied
        e2 = np.zeros(4); e2[2] = 1.0   # mode 1 occupied
        forward = wedge(fock, e1, e2)
        backward = wedge(fock, e2, e1)
        assert np.allclose(forward, -backward)
        assert forward[3] in (1.0, -1.0)

    def test_induced_scalar_product_is_gram_determinant(self, rng):
        # <u1^...^un, v1^...^vn> equals det of the one-particle overlaps
        for n_modes, n in [(3, 2), (5, 3), (5, 4)]:
            fock = build_fock(n_modes)
            us = [rng.complex_normal(n_modes) for _ in range(n)]
            vs = [rng.complex_normal(n_modes) for _ in range(n)]

            def slater(vectors):
                vec = np.zeros(fock.dim, dtype=complex)
                vec[0] = 1.0
                for v in reversed(vectors):
                    op = sum(v[k] * fock.create[k].dense()
                             for k in range(n_modes))
                    vec = op @ vec
                return vec

            lhs = np.vdot(slater(us), slater(vs))
            rhs = oracles.slater_overlap(us, vs)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestParticleHole:
    def test_single_mode(self):
        fock = build_fock(1)
        c = particle_hole(fock)
        vac = np.array([1.0, 0.0], dtype=complex)
        assert np.allclose(c.apply(vac), [0.0, 1.0])
        square = c.u @ np.conj(c.u)
        assert np.allclose(square, np.eye(2))

    def test_two_modes_single_particle_negative_square(self):
        fock = build_fock(2)
        c = particle_hole(fock)
        square = c.u @ np.conj(c.u)
        for state in range(4):
            occ = fock.occupation[state]
            assert np.isclose(square[state, state],
                              (-1.0) ** (occ * (2 - occ)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_square_sign_law(self, n):
        fock = build_fock(n)
        c = particle_hole(fock)
        square = c.u @ np.conj(c.u)
        expected = np.diag([(-1.0) ** (int(occ) * (n - int(occ)))
                            for occ in fock.occupation])
        assert np.allclose(square, expected, atol=1e-14)

    def test_defining_wedge_property(self, rng):
        fock = build_fock(4)
        c = particle_hole(fock)
        omega = np.zeros(fock.dim, dtype=complex)
        omega[fock.top_index] = 1.0
        for _ in range(100):
            deg = int(rng.generator.integers(0, 5))
            idx = np.nonzero(fock.occupation == deg)[0]
            psi = np.zeros(fock.dim, dtype=complex)
            phi = np.zeros(fock.dim, dtype=complex)
            psi[idx] = rng.complex_normal(len(idx))
            phi[idx] = rng.complex_normal(len(idx))
            lhs = wedge(fock, c.apply(psi), phi)
            rhs = np.vdot(psi, phi) * omega
            assert np.linalg.norm(lhs - rhs) < 1e-10 * \
                max(1.0, np.linalg.norm(psi) * np.linalg.norm(phi))

    def test_commutes_with_conjugation_type_t(self, rng):
        # T = plain conjugation leaves the reference state fixed
        for n in (1, 2, 3, 4, 5):
            fock = build_fock(n)
            c = particle_hole(fock)
            assert linalg.frob(c.u - np.conj(c.u)) == 0.0  # CT = TC exactly
            # T = Lift(O) K for O in SO(N): Lift(O) is real, so CT = TC
            # reads C.u Lift(O) = Lift(O) conj(C.u)
            lift = lift_unitary(fock, linalg.haar_orthogonal(n, rng, True))
            assert np.all(lift.imag == 0.0)
            assert linalg.frob(c.u @ lift - lift @ np.conj(c.u)) <= 1e-12
            # a C with non-real row phases must fail the same check
            theta = rng.generator.uniform(np.pi / 4, 3 * np.pi / 4, fock.dim)
            mutant = np.exp(1j * theta)[:, None] * c.u
            assert linalg.frob(mutant @ lift - lift @ np.conj(mutant)) >= 1.0

    def test_commutes_with_determinant_one_lifts(self, rng):
        fock = build_fock(3)
        c = particle_hole(fock)
        h = sample_gaussian(EnsembleSpec(label("A", 3)), rng)
        h -= (np.trace(h) / 3) * np.eye(3)  # traceless: det(exp) = 1
        g = lift_unitary(fock, expm(1j * h))
        assert linalg.frob(c.u @ np.conj(g) - g @ c.u) < 1e-10


class TestLiftUnitary:
    def test_functorial(self, rng):
        fock = build_fock(3)
        u1 = linalg.haar_unitary(3, rng)
        u2 = linalg.haar_unitary(3, rng)
        lhs = lift_unitary(fock, u1 @ u2)
        rhs = lift_unitary(fock, u1) @ lift_unitary(fock, u2)
        assert linalg.frob(lhs - rhs) < 1e-10

    def test_preserves_grading_and_unitarity(self, rng):
        fock = build_fock(4)
        g = lift_unitary(fock, linalg.haar_unitary(4, rng))
        assert linalg.is_unitary(g, 1e-10)
        for n in range(5):
            proj = np.diag((fock.occupation == n).astype(float))
            assert linalg.frob(g @ proj - proj @ g) < 1e-10


class TestLiftOneBody:
    def test_single_mode_spectrum(self):
        fock = build_fock(1)
        h = lift_one_body(fock, np.array([[0.7]]), np.zeros((1, 1)))
        assert np.allclose(sorted(np.linalg.eigvalsh(h)), [0.0, 0.7])

    def test_zero_pairing_subset_sums(self, rng):
        for n in (2, 4, 6):
            fock = build_fock(n)
            w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
            h = lift_one_body(fock, w, np.zeros((n, n)))
            got = np.sort(np.linalg.eigvalsh(h))
            expected = oracles.subset_sums(np.linalg.eigvalsh(w))
            assert np.allclose(got, expected, atol=1e-10)

    def test_pure_pairing_two_modes(self):
        fock = build_fock(2)
        z = 0.8 - 0.6j
        zmat = np.array([[0, z], [-z, 0]])
        h = lift_one_body(fock, np.zeros((2, 2)), zmat)
        got = np.sort(np.linalg.eigvalsh(h))
        # Fock spectrum: +-|z| on the even sector, zero twice on the
        # single-particle sector
        assert np.allclose(got, [-abs(z), 0.0, 0.0, abs(z)], atol=1e-12)
        # the corresponding Nambu matrix carries +-|z| twice
        bdg = np.block([[np.zeros((2, 2)), zmat],
                        [zmat.conj().T, np.zeros((2, 2))]])
        assert np.allclose(np.sort(np.linalg.eigvalsh(bdg)),
                           [-abs(z)] * 2 + [abs(z)] * 2, atol=1e-12)

    def test_hermitian_output(self, rng):
        fock = build_fock(3)
        w = sample_gaussian(EnsembleSpec(label("A", 3)), rng)
        z = random_skew(3, rng)
        h = lift_one_body(fock, w, z)
        assert linalg.frob(h - h.conj().T) <= 1e-12 * max(1.0,
                                                          linalg.frob(h))

    def test_input_validation(self, rng):
        fock = build_fock(2)
        with pytest.raises(InputShapeError):
            lift_one_body(fock, np.array([[0, 1], [0, 0]]), np.zeros((2, 2)))
        with pytest.raises(InputShapeError):
            lift_one_body(fock, np.eye(2), np.eye(2))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_loop_over_mode_pairs(self, n):
        rng = linalg.RngStream(300 + n)
        fock = build_fock(n)
        w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
        z = random_skew(n, rng)
        assert np.array_equal(lift_one_body(fock, w, z),
                              oracles.lift_one_body_loop(fock, w, z))

    def test_spectrum_half_filled_signed_sums(self, rng):
        # Fock spectrum = Tr(W)/2 + half the signed sums of the positive
        # Nambu eigenvalues
        for n in (2, 3, 4):
            fock = build_fock(n)
            w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
            z = random_skew(n, rng)
            h = lift_one_body(fock, w, z)
            bdg = np.block([[w, z], [z.conj().T, -w.T]])
            eps = np.sort(np.linalg.eigvalsh(bdg))[n:]  # positive half
            expected = np.sort([0.5 * np.trace(w).real +
                                0.5 * sum(s * e for s, e in zip(signs, eps))
                                for signs in
                                itertools.product((-1, 1), repeat=n)])
            got = np.sort(np.linalg.eigvalsh(h))
            assert np.allclose(got, expected, atol=1e-9)


class TestMajorana:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_clifford_relations(self, n):
        fock = build_fock(n)
        cs = [c.dense() for c in majorana_basis(fock)]
        assert len(cs) == 2 * n
        for i, ci in enumerate(cs):
            assert linalg.frob(ci - ci.conj().T) < 1e-13
            for j, cj in enumerate(cs):
                anti = ci @ cj + cj @ ci
                target = 2 * np.eye(fock.dim) if i == j else 0.0
                assert linalg.frob(anti - target) < 1e-12


class TestCoveringCheck:
    def test_zero_hamiltonian_yields_identity(self):
        fock = build_fock(2)
        h = np.zeros((fock.dim, fock.dim))
        record = covering_check(fock, h, np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.allclose(record.rotation, np.eye(4), atol=1e-12)

    def test_single_mode_pi_rotation(self):
        fock = build_fock(1)
        w = np.array([[np.pi]])
        z = np.zeros((1, 1))
        h = lift_one_body(fock, w, z)
        record = covering_check(fock, h, w, z)
        # rotation by angle pi in the single Majorana plane
        assert np.allclose(record.rotation, -np.eye(2), atol=1e-12)
        assert record.sign_invariant
        u = expm(-1j * h)
        assert not np.allclose(u, np.eye(2)) and \
            not np.allclose(u, -np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generator_match_random(self, n, rng):
        fock = build_fock(n)
        for _ in range(3):
            w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
            z = random_skew(n, rng)
            h = lift_one_body(fock, w, z)
            record = covering_check(fock, h, w, z)
            assert record.generator_residual <= 1e-9
            assert record.orthogonality_residual <= 1e-9
            assert abs(record.determinant - 1.0) <= 1e-9
            assert record.sign_invariant

    def test_nambu_generator_is_real_skew(self, rng):
        w = sample_gaussian(EnsembleSpec(label("A", 3)), rng)
        z = random_skew(3, rng)
        a = nambu_generator(w, z)
        assert np.allclose(a, -a.T, atol=1e-12)
        assert a.dtype == float

    def test_non_quadratic_rejected(self, rng):
        fock = build_fock(2)
        num = np.diag(fock.occupation).astype(complex)
        quartic = num @ num  # two-body piece leaves the Majorana span
        with pytest.raises(NotQuadraticError):
            covering_check(fock, quartic, np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_parity_mixing_rejected(self, n, rng):
        fock = build_fock(n)
        w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
        z = random_skew(n, rng)
        h = lift_one_body(fock, w, z) + 0.3 * majorana_basis(fock)[0].dense()
        with pytest.raises(NotQuadraticError, match="parity"):
            covering_check(fock, h, w, z)

    def test_non_hermitian_rejected(self, rng):
        fock = build_fock(3)
        w = sample_gaussian(EnsembleSpec(label("A", 3)), rng)
        z = random_skew(3, rng)
        h = lift_one_body(fock, w, z)
        h[1, 2] += 0.5  # parity-even, but no longer Hermitian
        with pytest.raises(InputShapeError, match="Hermitian"):
            covering_check(fock, h, w, z)

    def test_scaled_blocks_fail_the_residuals(self, monkeypatch, rng):
        # s U for s != 1 is not unitary, but U c U^dag stays in the span:
        # M = s^2 R is real by construction and shows only in its residuals
        fock = build_fock(3)
        w = sample_gaussian(EnsembleSpec(label("A", 3)), rng)
        z = random_skew(3, rng)
        h = lift_one_body(fock, w, z)
        exact = focklab._exp_i
        monkeypatch.setattr(focklab, "_exp_i", lambda x: 1.001 * exact(x))
        record = covering_check(fock, h, w, z)
        assert record.span_residual <= 1e-12
        assert record.orthogonality_residual > 1e-3
        assert record.generator_residual > 1e-3

    def test_parity_dependent_phase_leaves_the_span(self, rng):
        # a phase on the even states alone makes the even-to-odd block
        # e^(i phi) X: its real part is cos(phi) M, the rest is off the span
        fock = build_fock(3)
        w = sample_gaussian(EnsembleSpec(label("A", 3)), rng)
        z = random_skew(3, rng)
        h = lift_one_body(fock, w, z) + \
            0.3 * np.diag(fock.occupation % 2 == 0)
        with pytest.raises(NotQuadraticError, match="Majorana span"):
            covering_check(fock, h, w, z)


def _majorana_plane_rotation(n, angle, rng):
    """(W, Z) whose Majorana generator is ``angle`` times a rotation in
    a Haar-random plane, solved by real least squares."""
    o = linalg.haar_orthogonal(2 * n, rng)
    target = angle * (np.outer(o[:, 1], o[:, 0]) - np.outer(o[:, 0], o[:, 1]))
    basis = []
    for k, l in itertools.product(range(n), repeat=2):
        for c in (1.0, 1j):
            unit = np.zeros((n, n), dtype=complex)
            unit[k, l] = c
            if k <= l and (k < l or c == 1.0):
                basis.append((unit + unit.conj().T - np.diag(unit.diagonal()),
                              np.zeros((n, n))))
            if k < l:
                basis.append((np.zeros((n, n)), unit - unit.T))
    columns = np.array([nambu_generator(w, z).ravel() for w, z in basis]).T
    x = np.linalg.lstsq(columns, target.ravel(), rcond=None)[0]
    w = sum(c * b[0] for c, b in zip(x, basis))
    z = sum(c * b[1] for c, b in zip(x, basis))
    assert linalg.frob(nambu_generator(w, z) - target) <= 1e-12
    return w, z


class TestTwoToOneCovering:
    """A 2 pi rotation of the Majorana span lifts to -1 on Fock space.

    With the constant -tr W / 2 the quadratic Hamiltonian is the spin
    generator (i/4) sum A_jk c_j c_k, so exp(-i(H - tr W / 2)) = -1
    while its rotation is the identity.  Two mutants must fail: leaving
    out the shift, and conjugating the pairing (Z for conj(Z), which
    from N = 3 no phase change of the modes undoes; Z -> -Z is the
    phase change a_k -> i a_k and passes).
    """

    @staticmethod
    def lift_residual(fock, w, z, shift):
        u = expm(-1j * (lift_one_body(fock, w, z) - shift * np.eye(fock.dim)))
        return linalg.frob(u + np.eye(fock.dim))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_two_pi_rotation_lifts_to_minus_one(self, n, rng):
        w, z = _majorana_plane_rotation(n, 2 * np.pi, rng)
        assert n == 1 or linalg.frob(z) > 0.1
        fock = build_fock(n)
        shift = np.trace(w).real / 2
        assert self.lift_residual(fock, w, z, shift) <= 1e-10
        record = covering_check(fock, lift_one_body(fock, w, z), w, z)
        assert linalg.frob(record.rotation - np.eye(2 * n)) <= 1e-10
        # mutants
        assert self.lift_residual(fock, w, z, 0.0) > 0.1
        if n >= 3:
            assert self.lift_residual(fock, w, z.conj(), shift) > 0.1
            mutant = covering_check(fock, lift_one_body(fock, w, z.conj()),
                                    w, z.conj())
            assert linalg.frob(mutant.rotation - np.eye(2 * n)) > 0.1


class TestTwistedTransfer:
    def test_identity_twist_single_mode(self):
        fock = build_fock(1)
        record = twisted_ph_transfer_check(fock, np.eye(1))
        assert record.passed

    def test_diagonal_twist_two_modes(self):
        fock = build_fock(2)
        record = twisted_ph_transfer_check(fock, np.diag([1.0, -1.0]))
        assert record.passed
        assert record.max_residual <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_various_twists(self, n, rng):
        fock = build_fock(n)
        s = np.diag([1.0] * (n // 2) + [-1.0] * (n - n // 2))
        record = twisted_ph_transfer_check(fock, s)
        assert record.passed, record.failures


def _dense_view(fock):
    """The dense-oracle form of a FockSpace built from signed permutations."""
    return SimpleNamespace(
        n_modes=fock.n_modes, dim=fock.dim, occupation=fock.occupation,
        create=tuple(a.dense() for a in fock.create),
        annihilate=tuple(a.dense() for a in fock.annihilate))


class TestSignedPermutations:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_materialise_to_the_dense_oracle(self, n):
        fock = build_fock(n)
        dense = oracles.dense_fock_oracle(n)
        for ours, theirs in zip(fock.create, dense.create):
            assert np.array_equal(ours.dense(), theirs)
        for ours, theirs in zip(fock.annihilate, dense.annihilate):
            assert np.array_equal(ours.dense(), theirs)
        for ours, (k, plus) in zip(majorana_basis(fock),
                                   itertools.product(range(n), (1, 0))):
            a, a_dag = dense.annihilate[k], dense.create[k]
            assert np.array_equal(ours.dense(), a + a_dag if plus else
                                  1j * a - 1j * a_dag)
        assert np.array_equal(fock.occupation, dense.occupation)
        assert np.array_equal(particle_hole(fock).u,
                              oracles.particle_hole_oracle(n))

    def test_composition_and_action_match_dense_products(self, rng):
        fock = build_fock(4)
        ops = fock.create + fock.annihilate + tuple(majorana_basis(fock))
        x = rng.complex_normal((fock.dim, fock.dim))
        for a, b in itertools.product(ops[::3], ops[1::3]):
            assert np.array_equal((a @ b).dense(), a.dense() @ b.dense())
            assert np.allclose(a @ x, a.dense() @ x, rtol=0, atol=1e-15)
            assert np.array_equal(a.adjoint().dense(), a.dense().conj().T)


class TestDenseReferences:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_lift_one_body_matches_dense_oracle(self, n, rng):
        w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
        z = random_skew(n, rng)
        h = lift_one_body(build_fock(n), w, z)
        expected = oracles.one_body_oracle(oracles.dense_fock_oracle(n), w, z)
        assert linalg.frob(h - expected) <= 1e-13

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lift_unitary_matches_minors(self, n, rng):
        s = linalg.haar_unitary(n, rng)
        got = lift_unitary(build_fock(n), s)
        assert linalg.frob(got - oracles.lift_minors_oracle(s)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_covering_matches_dense_oracle(self, n, rng):
        fock = build_fock(n)
        for _ in range(2):
            w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
            z = random_skew(n, rng)
            h = lift_one_body(fock, w, z)
            record = covering_check(fock, h, w, z)
            m, span_residual, m_neg = oracles.covering_oracle(
                oracles.dense_fock_oracle(n), h)
            assert linalg.frob(record.rotation - m) <= 1e-12
            assert linalg.frob(record.rotation - m_neg) <= 1e-12
            assert max(record.span_residual, span_residual) <= 1e-12
            assert record.sign_invariant == np.array_equal(m, m_neg)
            assert record.sign_invariant and record.sign_residual == 0.0

    def test_eight_modes_match_the_dense_oracles(self, rng):
        n = 8
        fock, dense = build_fock(n), oracles.dense_fock_oracle(n)
        w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
        z = random_skew(n, rng)
        h = lift_one_body(fock, w, z)
        record = covering_check(fock, h, w, z)
        m, span_residual, m_neg = oracles.covering_oracle(dense, h)
        assert linalg.frob(record.rotation - m) <= 1e-12
        assert linalg.frob(record.rotation - m_neg) <= 1e-12
        assert max(record.span_residual, span_residual) <= 1e-11
        assert record.generator_residual <= 1e-12
        assert record.sign_invariant and record.sign_residual == 0.0
        v = linalg.haar_unitary(n, rng)
        s = v @ np.diag([(-1.0) ** k for k in range(n)]) @ v.conj().T
        got = twisted_ph_transfer_check(fock, s)
        expected = oracles.twisted_transfer_oracle(dense, s)
        assert abs(got.max_residual - expected.max()) <= 1e-12
        assert got.passed and expected.max() <= 1e-10

    def test_non_quadratic_leaves_the_span_in_both(self):
        fock = build_fock(3)
        num = np.diag(fock.occupation).astype(complex)
        _, span_residual, _ = oracles.covering_oracle(
            oracles.dense_fock_oracle(3), num @ num)
        assert span_residual > 1e-9
        # the same residual, read from the two parity blocks
        with pytest.raises(NotQuadraticError,
                           match=re.escape(f"residual {span_residual:.3e}")):
            covering_check(fock, num @ num, np.zeros((3, 3)),
                           np.zeros((3, 3)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_twisted_transfer_matches_dense_oracle(self, n, rng):
        fock = build_fock(n)
        v = linalg.haar_unitary(n, rng)
        for s in (np.diag([1.0] * (n // 2) + [-1.0] * (n - n // 2)),
                  v @ np.diag([(-1.0) ** k for k in range(n)]) @ v.conj().T):
            record = twisted_ph_transfer_check(fock, s)
            expected = oracles.twisted_transfer_oracle(
                oracles.dense_fock_oracle(n), s)
            assert abs(record.max_residual - expected.max()) <= 1e-12
            assert record.passed and expected.max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_wrong_sign_operators_fail_the_transfer(self, n):
        # hard-core bosons: a_k^dag without the Jordan-Wigner string
        fock = build_fock(n)
        bosons = tuple(SignedPerm(a.mask, np.abs(a.sign))
                       for a in fock.create)
        wrong = FockSpace(n_modes=n, dim=fock.dim, create=bosons,
                          annihilate=tuple(a.adjoint() for a in bosons),
                          occupation=fock.occupation)
        s = np.diag([1.0] * (n // 2) + [-1.0] * (n - n // 2))
        record = twisted_ph_transfer_check(wrong, s)
        expected = oracles.twisted_transfer_oracle(_dense_view(wrong), s)
        assert not record.passed
        assert [(n_, k) for n_, k, _ in record.failures] == \
            [tuple(ix) for ix in np.argwhere(expected > 1e-10)]
        for n_, k, residual in record.failures:
            assert abs(residual - expected[n_, k]) <= 1e-12 * expected.max()


class TestDenseModeCap:
    def test_operators_reach_max_modes(self):
        fock = build_fock(14)
        assert fock.dim == 1 << 14
        assert fock.create[13].sign.shape == (fock.dim,)

    def test_dense_entry_points_refuse_before_allocating(self):
        n = MAX_DENSE_MODES + 1
        fock = build_fock(n)
        zeros = np.zeros((n, n))
        calls = (lambda: particle_hole(fock),
                 lambda: lift_unitary(fock, np.eye(n)),
                 lambda: lift_one_body(fock, zeros, zeros),
                 lambda: covering_check(fock, None, zeros, zeros),
                 lambda: twisted_ph_transfer_check(fock, np.eye(n)))
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(InputShapeError, match="limited to"):
                    call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
