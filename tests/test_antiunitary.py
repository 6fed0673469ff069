"""Tests for anti-unitary operators, parities and sector transfer."""

import numpy as np
import pytest

from tenfold import linalg
from tenfold.antiunitary import (AntiUnitaryOp, bilinear_form_type, parity,
                                 sector_action, transfer_T)
from tenfold.errors import (NotDefiniteTypeError, NotInvolutiveError,
                            NotPureTensorError)
from tenfold.grouprep import (PAULI_X, PAULI_Y, PAULI_Z, close_group,
                              fs_indicator, isotypic_decompose)
from tenfold.linalg import haar_unitary, symplectic_form

Z3_SHIFT = np.roll(np.eye(3), 1, axis=0).astype(complex)


class TestParity:
    def test_plain_conjugation(self):
        assert parity(AntiUnitaryOp(np.eye(3))) == 1

    def test_spin_half_time_reversal(self):
        assert parity(AntiUnitaryOp(1j * PAULI_Y)) == -1

    def test_generic_unitary_not_involutive(self, rng):
        u = haar_unitary(4, rng)
        with pytest.raises(NotInvolutiveError):
            parity(AntiUnitaryOp(u))

    def test_basis_independence(self, rng):
        for u_part in (np.eye(4), np.kron(np.eye(2), 1j * PAULI_Y)):
            op = AntiUnitaryOp(u_part)
            w = haar_unitary(4, rng)
            assert parity(op.conjugated_by(w)) == parity(op)

    def test_apply_is_antilinear(self, rng):
        op = AntiUnitaryOp(1j * PAULI_Y)
        v = rng.complex_normal(2)
        z = 0.3 - 1.7j
        assert np.allclose(op.apply(z * v), np.conj(z) * op.apply(v))

    def test_inverse(self, rng):
        op = AntiUnitaryOp(haar_unitary(3, rng))
        v = rng.complex_normal(3)
        assert np.allclose(op.inverse().apply(op.apply(v)), v)


class TestSectorAction:
    def test_trivial_group_single_fixed_block(self, rng):
        from tenfold.grouprep import trivial_action
        blocks = isotypic_decompose(trivial_action(3), rng)
        pairing = sector_action(AntiUnitaryOp(np.eye(3)), blocks)
        assert pairing.fixed == (0,)
        assert pairing.swapped == ()

    def test_z3_conjugation_swaps_characters(self, rng):
        group = close_group([Z3_SHIFT])
        blocks = isotypic_decompose(group, rng)
        pairing = sector_action(AntiUnitaryOp(np.eye(3)), blocks)
        assert len(pairing.fixed) == 1
        assert len(pairing.swapped) == 1
        # the fixed sector is the trivial character: projector = J/3
        fixed_block = [b for b in blocks if b.label in pairing.fixed][0]
        assert np.allclose(fixed_block.projector, np.full((3, 3), 1 / 3),
                           atol=1e-8)

    def test_pairing_is_involution(self, rng):
        group = close_group([Z3_SHIFT])
        blocks = isotypic_decompose(group, rng)
        pairing = sector_action(AntiUnitaryOp(np.eye(3)), blocks)
        for a, b in pairing.swapped:
            assert pairing.partner(a) == b
            assert pairing.partner(b) == a
        for f in pairing.fixed:
            assert pairing.partner(f) == f

    def test_q8_two_dim_sector_fixed(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(2), 1j * PAULI_Y))
        pairing = sector_action(t, blocks)
        assert pairing.fixed == (0,)


class TestTransferT:
    def test_one_dimensional_irrep_alpha_is_restriction(self, rng):
        from tenfold.grouprep import trivial_action
        blocks = isotypic_decompose(trivial_action(4), rng)
        t = AntiUnitaryOp(np.eye(4))
        tt = transfer_T(blocks[0], t)
        assert tt.eps_beta == 1
        assert tt.eps_alpha == 1
        assert np.allclose(np.kron(tt.alpha.u, tt.beta.u), np.eye(4),
                           atol=1e-10)

    def test_q8_block_forces_positive_alpha(self, rng):
        # quaternionic irrep: beta^2 = -1, so eps_T = -1 gives eps_alpha = +1
        group = close_group([np.kron(np.eye(3), 1j * PAULI_X),
                             np.kron(np.eye(3), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(3), 1j * PAULI_Y))
        tt = transfer_T(blocks[0], t)
        assert parity(t) == -1
        assert tt.eps_beta == -1
        assert tt.eps_alpha == 1
        assert tt.eps_beta == fs_indicator(group, blocks[0])

    def test_even_self_dual_factor_keeps_parity(self, rng):
        # symmetric self-dual irrep: beta^2 = +1, alpha parity equals eps_T
        group = close_group([np.kron(np.eye(2), PAULI_X),
                             np.kron(np.eye(2), PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        two_dim = [b for b in blocks if b.irrep_dim == 2][0]
        t = AntiUnitaryOp(np.eye(4))
        tt = transfer_T(two_dim, t)
        assert tt.eps_beta == 1
        assert tt.eps_alpha == 1

    def test_reconstruction_residual(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        b = blocks[0]
        t = AntiUnitaryOp(np.kron(symplectic_form(1), 1j * PAULI_Y))
        tt = transfer_T(b, t)
        fb = b.factor_basis
        restricted = fb.conj().T @ t.u @ np.conj(fb)
        recon = np.kron(tt.alpha.u, tt.beta.u)
        assert linalg.frob(restricted - recon) <= 1e-8
        assert tt.eps_alpha * tt.eps_beta == parity(t)
        assert tt.eps_alpha == -1  # J (x) K on E flips the sign back

    def test_parity_relation_under_basis_change(self, rng):
        group_gens = [np.kron(np.eye(2), 1j * PAULI_X),
                      np.kron(np.eye(2), 1j * PAULI_Z)]
        w = haar_unitary(4, rng)
        group = close_group([w @ g @ w.conj().T for g in group_gens])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(2), 1j * PAULI_Y)).conjugated_by(w)
        tt = transfer_T(blocks[0], t)
        assert tt.eps_alpha * tt.eps_beta == parity(t) == -1

    def test_beta_deterministic_normalization(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(2), 1j * PAULI_Y))
        tt1 = transfer_T(blocks[0], t)
        tt2 = transfer_T(blocks[0], t)
        assert np.array_equal(tt1.beta.u, tt2.beta.u)
        beta = tt1.beta.u
        assert linalg.frob(beta @ beta.conj().T - np.eye(2)) <= 1e-10
        # beta = [[0, a], [-a, 0]]: its two entries tie in modulus, and
        # the first nonzero one in row-major order must be real positive
        assert linalg.frob(beta + beta.T) <= 1e-10
        first = beta.flat[int(np.argmax(np.abs(beta) > 1e-6))]
        assert abs(first.imag) < 1e-12 and first.real > 0

    def test_non_pure_tensor_rejected(self, rng):
        # an operator that does not intertwine the sector structure
        from tenfold.grouprep import trivial_action, IsotypicBlock
        fake = IsotypicBlock(label=0, irrep_dim=2, multiplicity=2,
                             projector=np.eye(4),
                             factor_basis=np.eye(4, dtype=complex),
                             gram=np.eye(2, dtype=complex))
        # generic symmetric unitary: T^2 = +1 but not a pure tensor
        u = haar_unitary(4, rng)
        t = AntiUnitaryOp(u @ u.T)
        with pytest.raises(NotPureTensorError):
            transfer_T(fake, t)


class TestBilinearFormType:
    def test_identity_symmetric(self):
        assert bilinear_form_type(np.eye(3)) == "symmetric"

    def test_symplectic_skew(self):
        assert bilinear_form_type(symplectic_form(2)) == "skew"

    def test_form_of_negative_alpha_is_skew(self, rng):
        # C_E alpha for eps_alpha = -1 has u-part conj(u_alpha), skew
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(symplectic_form(1), 1j * PAULI_Y))
        tt = transfer_T(blocks[0], t)
        assert tt.eps_alpha == -1
        assert bilinear_form_type(np.conj(tt.alpha.u)) == "skew"

    def test_form_of_positive_alpha_is_symmetric(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(2), 1j * PAULI_Y))
        tt = transfer_T(blocks[0], t)
        assert tt.eps_alpha == 1
        assert bilinear_form_type(np.conj(tt.alpha.u)) == "symmetric"

    def test_indefinite_type_rejected(self, rng):
        phi = np.eye(3)
        phi[0, 1] = 0.5
        with pytest.raises(NotDefiniteTypeError):
            bilinear_form_type(phi)
