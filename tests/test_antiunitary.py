"""Tests for anti-unitary operators, parities and sector transfer."""

import numpy as np
import pytest

import oracles
from tenfold import linalg
from tenfold.antiunitary import (AntiUnitaryOp, parity, sector_action,
                                 transfer_T)
from tenfold.errors import (NotInvolutiveError, NotPureTensorError,
                            SymmetryConsistencyError)
from tenfold.grouprep import (PAULI_X, PAULI_Y, PAULI_Z, IsotypicBlock,
                              close_group, fs_indicator, isotypic_decompose,
                              lie_algebra_action)
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
        t = AntiUnitaryOp(np.eye(3))
        pairing = sector_action(t, blocks)
        # every label is fixed or in exactly one swapped pair, and T maps
        # each member of a pair onto the other
        paired = [lam for pair in pairing.swapped for lam in pair]
        assert sorted(pairing.fixed + tuple(paired)) == \
            sorted(b.label for b in blocks)
        proj = {b.label: b.projector for b in blocks}
        for a, b in pairing.swapped:
            assert linalg.frob(t.conjugate_linear(proj[a]) - proj[b]) < 1e-8
            assert linalg.frob(t.conjugate_linear(proj[b]) - proj[a]) < 1e-8

    def test_q8_two_dim_sector_fixed(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(2), 1j * PAULI_Y))
        pairing = sector_action(t, blocks)
        assert pairing.fixed == (0,)

    @pytest.mark.parametrize("group_name", sorted(oracles.GROUPS))
    @pytest.mark.parametrize("t_parity", [1, -1])
    def test_matches_projector_oracle(self, group_name, t_parity, rng):
        sub = rng.child(2 * sorted(oracles.GROUPS).index(group_name) +
                        (t_parity > 0))
        gens, tmat, _ = oracles.build_threefold_case(group_name, sub,
                                                     t_parity)
        w = haar_unitary(gens[0].shape[0], sub)
        blocks = isotypic_decompose(
            close_group([w @ g @ w.conj().T for g in gens]), sub)
        t = AntiUnitaryOp(w @ tmat @ w.T)
        assert sector_action(t, blocks) == \
            oracles.sector_action_oracle(t, blocks)

    def test_u1_dual_pair_matches_projector_oracle(self, rng):
        # charges +-1 and +-2 are swapped by T, charge 0 is fixed
        charges = np.array([1.0, 1.0, -1.0, -1.0, 2.0, -2.0, 0.0])
        swap = np.eye(7)[[2, 3, 0, 1, 5, 4, 6]]
        w = haar_unitary(7, rng)
        blocks = isotypic_decompose(lie_algebra_action(
            [w @ (1j * np.diag(charges)) @ w.conj().T]), rng)
        t = AntiUnitaryOp(w @ swap @ w.T)
        pairing = sector_action(t, blocks)
        assert pairing == oracles.sector_action_oracle(t, blocks)
        assert len(pairing.fixed) == 1 and len(pairing.swapped) == 2

    def test_operator_off_the_decomposition_rejected(self, rng):
        blocks = isotypic_decompose(close_group([Z3_SHIFT]), rng)
        t = AntiUnitaryOp(haar_unitary(3, rng))
        with pytest.raises(SymmetryConsistencyError,
                           match="matches no sector"):
            sector_action(t, blocks)

    def test_swap_of_sectors_with_unequal_shapes_rejected(self):
        # equal dimension 2, but (irrep_dim, multiplicity) (1, 2) and
        # (2, 1): their projectors are swapped, their structures are not
        eye = np.eye(4, dtype=complex)
        blocks = [IsotypicBlock(label=0, irrep_dim=1, multiplicity=2,
                                factor_basis=eye[:, :2]),
                  IsotypicBlock(label=1, irrep_dim=2, multiplicity=1,
                                factor_basis=eye[:, 2:])]
        t = AntiUnitaryOp(eye[[2, 3, 0, 1]])
        with pytest.raises(SymmetryConsistencyError):
            sector_action(t, blocks)


class TestManySectorAction:
    """Charges +-1 .. +-40 and 0 in a Haar-random basis w, one sector
    each, against the projector oracle."""

    CHARGES = np.arange(-40.0, 41.0)

    @staticmethod
    def _blocks(w, rng):
        g = w @ (1j * np.diag(TestManySectorAction.CHARGES)) @ w.conj().T
        return isotypic_decompose(lie_algebra_action([g]), rng)

    @pytest.mark.parametrize("swap", [True, False], ids=["swap", "K"])
    def test_matches_projector_oracle(self, swap, rng):
        # the reversal swaps q with -q and fixes 0; K fixes every sector
        n = len(self.CHARGES)
        w = haar_unitary(n, rng)
        blocks = self._blocks(w, rng)
        t = AntiUnitaryOp(w @ np.eye(n)[::-1 if swap else 1] @ w.T)
        pairing = sector_action(t, blocks)
        assert pairing == oracles.sector_action_oracle(t, blocks)
        assert (len(pairing.fixed), len(pairing.swapped)) == \
            ((1, 40) if swap else (81, 0))

    def test_first_of_two_bad_sectors_is_named(self, rng):
        # K mixes the lines of charges -3 and 5 half and half: two
        # sectors whose images match none
        n = len(self.CHARGES)
        w = haar_unitary(n, rng)
        blocks = self._blocks(w, rng)
        mix = np.eye(n)
        i, j = np.flatnonzero(np.isin(self.CHARGES, (-3, 5)))
        mix[np.ix_([i, j], [i, j])] = [[1, 1], [-1, 1]] / np.sqrt(2)
        t = AntiUnitaryOp(w @ mix @ w.T)
        fb = np.hstack([b.factor_basis for b in blocks])
        charge = np.rint(np.diag(fb.conj().T @ w @ np.diag(self.CHARGES) @
                                 w.conj().T @ fb).real)
        first = min(b.label for b, q in zip(blocks, charge)
                    if q in (-3, 5))
        for action in (sector_action, oracles.sector_action_oracle):
            with pytest.raises(SymmetryConsistencyError,
                               match=f"^image of sector {first} matches "
                                     "no sector"):
                action(t, blocks)


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
                             factor_basis=np.eye(4, dtype=complex))
        # generic symmetric unitary: T^2 = +1 but not a pure tensor
        u = haar_unitary(4, rng)
        t = AntiUnitaryOp(u @ u.T)
        with pytest.raises(NotPureTensorError):
            transfer_T(fake, t)

    @pytest.mark.parametrize("m, d", [(2, 1), (1, 2)])
    def test_sector_not_squaring_to_a_sign_rejected(self, m, d):
        # u conj(u) = diag(-i, i) on a fixed sector of C^3, on its
        # multiplicity factor (m = 2) or on its irreducible one (d = 2)
        u = np.array([[0, 1, 0], [1j, 0, 0], [0, 0, 1]])
        block = IsotypicBlock(label=0, irrep_dim=d, multiplicity=m,
                              factor_basis=np.eye(3, dtype=complex)[:, :2])
        with pytest.raises(NotInvolutiveError):
            transfer_T(block, AntiUnitaryOp(u))

    def test_moved_sector_rejected(self, rng):
        # complex conjugation swaps the two complex characters of Z3
        blocks = isotypic_decompose(close_group([Z3_SHIFT]), rng)
        t = AntiUnitaryOp(np.eye(3))
        moved = [b for b in blocks
                 if b.label not in sector_action(t, blocks).fixed][0]
        with pytest.raises(SymmetryConsistencyError,
                           match="sector is not fixed by the operator"):
            transfer_T(moved, t)


class TestBilinearFormType:
    """The bilinear form C_E alpha has u-part conj(u_alpha)."""

    def test_form_of_negative_alpha_is_skew(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(symplectic_form(1), 1j * PAULI_Y))
        tt = transfer_T(blocks[0], t)
        assert tt.eps_alpha == -1
        phi = np.conj(tt.alpha.u)
        assert linalg.frob(phi + phi.T) <= 1e-8 < linalg.frob(phi - phi.T)

    def test_form_of_positive_alpha_is_symmetric(self, rng):
        group = close_group([np.kron(np.eye(2), 1j * PAULI_X),
                             np.kron(np.eye(2), 1j * PAULI_Z)])
        blocks = isotypic_decompose(group, rng)
        t = AntiUnitaryOp(np.kron(np.eye(2), 1j * PAULI_Y))
        tt = transfer_T(blocks[0], t)
        assert tt.eps_alpha == 1
        phi = np.conj(tt.alpha.u)
        assert linalg.frob(phi - phi.T) <= 1e-8 < linalg.frob(phi + phi.T)
