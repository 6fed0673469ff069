"""Tests for Cartan involutions, embeddings and tangent geometry."""

import numpy as np
import pytest

import oracles
from tenfold import linalg
from tenfold.classifier import compatible_space, label
from tenfold.ensembles import EnsembleSpec, sample_gaussian
from tenfold.errors import InputShapeError, NotInManifoldError
from tenfold.linalg import haar_unitary, symplectic_form
from tenfold.symspace import (CartanPair, ambient_algebra, cartan_embed,
                              closure_check, geodesic_inversion, in_space,
                              involution, tangent_split)

ALL_LABELS = (
    label("A", 3), label("AI", 3), label("AII", 4),
    label("C", 2), label("CI", 2), label("D", 2), label("DIII", 3),
    label("AIII", 1, 2), label("BDI", 2, 2), label("CII", 2, 2),
)


def _count_calls(monkeypatch):
    """Count CartanPair.tau calls and SVDs, also those that numpy makes
    inside its own linalg functions, such as a 2-norm."""
    counts = {"tau": 0, "svd": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(CartanPair, "tau", counted("tau", CartanPair.tau))
    svd = counted("svd", np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", svd)
    return counts


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestInvolution:
    def test_ai_fixes_real_orthogonal(self):
        pair = involution(label("AI", 3))
        u = np.diag([1.0, -1.0, 1.0]).astype(complex)
        assert np.allclose(pair.tau(u), u)

    def test_aii_fixes_its_own_twist(self):
        pair = involution(label("AII", 4))
        j = symplectic_form(2)
        assert np.allclose(pair.tau(j), j)

    def test_aiii_reflects_off_diagonal(self):
        pair = involution(label("AIII", 1, 1))
        assert np.allclose(pair.tau(SX), -SX)
        assert np.allclose(pair.tau(SZ), SZ)

    def test_involutive_and_multiplicative(self, rng):
        for lab in ALL_LABELS:
            pair = involution(lab)
            if pair.group_type:
                continue
            u = involution(lab).haar(rng)
            v = involution(lab).haar(rng)
            assert linalg.frob(pair.tau(pair.tau(u)) - u) < 1e-12
            assert linalg.frob(pair.tau(u @ v) -
                               pair.tau(u) @ pair.tau(v)) < 1e-12

    def test_ambient_membership(self, rng):
        for lab in ALL_LABELS:
            pair = involution(lab)
            u = involution(lab).haar(rng)
            assert pair.in_group(u)
        pair = involution(label("D", 2))
        refl = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
        assert not pair.in_group(refl)  # determinant -1


class TestCartanEmbed:
    def test_identity_maps_to_identity(self):
        for lab in ALL_LABELS:
            pair = involution(lab)
            x = cartan_embed(np.eye(pair.matrix_dim, dtype=complex), pair)
            assert np.allclose(x, np.eye(pair.matrix_dim))

    def test_ai_gives_symmetric_unitary(self, rng):
        pair = involution(label("AI", 4))
        u = haar_unitary(4, rng)
        x = cartan_embed(u, pair)
        assert np.allclose(x, u @ u.T)
        assert linalg.frob(x - x.T) < 1e-12

    def test_right_k_invariance(self, rng):
        pair = involution(label("AI", 3))
        u = haar_unitary(3, rng)
        k = linalg.haar_orthogonal(3, rng).astype(complex)  # tau-fixed
        assert linalg.frob(cartan_embed(u @ k, pair) -
                           cartan_embed(u, pair)) < 1e-12

    def test_membership_of_embedded_points(self, rng):
        for lab in ALL_LABELS:
            pair = involution(lab)
            x = cartan_embed(involution(lab).haar(rng), pair)
            assert in_space(x, pair, 1e-10)

    def test_rejects_outside_group(self, rng):
        pair = involution(label("BDI", 1, 2))
        with pytest.raises(InputShapeError):
            cartan_embed(haar_unitary(3, rng), pair)  # complex, not in O(3)

    def test_differential_rank_equals_tangent_dim(self):
        # rank of u -> u tau(u^{-1}) at the identity equals dim p
        step = 1e-6
        for lab in ALL_LABELS:
            pair = involution(lab)
            if pair.group_type:
                continue
            split = tangent_split(lab)
            n = pair.matrix_dim
            from scipy.linalg import expm
            cols = []
            for x in split.k_basis + split.p_basis:
                forward = cartan_embed(expm(step * x), pair)
                deriv = (forward - np.eye(n)) / step
                cols.append(np.concatenate([deriv.real.ravel(),
                                            deriv.imag.ravel()]))
            rank = np.linalg.matrix_rank(np.stack(cols, axis=1), tol=1e-3)
            assert rank == split.dim_p


class TestGeodesicInversion:
    def test_fixed_point(self, rng):
        pair = involution(label("AI", 3))
        x = cartan_embed(haar_unitary(3, rng), pair)
        assert linalg.frob(geodesic_inversion(x, x, pair) - x) < 1e-10

    def test_identity_center_inverts(self, rng):
        pair = involution(label("AII", 4))
        x = cartan_embed(haar_unitary(4, rng), pair)
        y = np.eye(4, dtype=complex)
        assert linalg.frob(geodesic_inversion(y, x, pair) -
                           x.conj().T) < 1e-10

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_involutive_on_every_family(self, lab, rng):
        pair = involution(lab)
        x = cartan_embed(involution(lab).haar(rng), pair)
        y = cartan_embed(involution(lab).haar(rng), pair)
        z = geodesic_inversion(y, x, pair)
        assert in_space(z, pair, 1e-8)
        back = geodesic_inversion(y, z, pair)
        assert linalg.frob(back - x) <= 1e-9 * max(1.0, linalg.frob(x))
        assert linalg.frob(geodesic_inversion(y, y, pair) - y) < 1e-9

    def test_membership_enforced(self, rng):
        pair = involution(label("AI", 3))
        bad = haar_unitary(3, rng)  # generic unitary is not symmetric
        good = cartan_embed(haar_unitary(3, rng), pair)
        with pytest.raises(NotInManifoldError):
            geodesic_inversion(good, bad, pair)

    def test_twisted_conjugation_preserves_space(self, rng):
        for lab in (label("AI", 3), label("CI", 2), label("AIII", 1, 2)):
            pair = involution(lab)
            x = cartan_embed(involution(lab).haar(rng), pair)
            u = involution(lab).haar(rng)
            moved = u @ x @ pair.tau(u.conj().T)
            assert in_space(moved, pair, 1e-8)


class TestTangentSplit:
    def test_ai_two_by_two(self):
        split = tangent_split(label("AI", 2))
        assert split.dim_k == 1   # real skew
        assert split.dim_p == 3   # i * real symmetric
        assert split.dim_k + split.dim_p == 4  # dim u_2

    def test_group_type_class_a(self):
        split = tangent_split(label("A", 2))
        assert split.dim_p == 4   # i * Hermitian
        assert split.dim_k == 4   # diagonal copy of the same algebra

    def test_ci_minimal(self):
        split = tangent_split(label("CI", 1))
        assert split.dim_k == 1   # u_1
        assert split.dim_p == 2

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_eigenspaces_and_orthonormality(self, lab):
        pair = involution(lab)
        split = tangent_split(lab)
        for x in split.k_basis:
            if not pair.group_type:
                assert linalg.frob(pair.tau(x) - x) < 1e-10
        for x in split.p_basis:
            if not pair.group_type:
                assert linalg.frob(pair.tau(x) + x) < 1e-10
        basis = list(split.k_basis) + list(split.p_basis)
        if pair.group_type:
            basis = list(split.p_basis)
        gram = np.array([[np.real(np.vdot(a, b)) for b in basis]
                         for a in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_dimension_table(self, lab):
        split = tangent_split(lab)
        assert split.dim_p == compatible_space(lab).tangent_dim

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_triple_bracket_relations(self, lab):
        split = tangent_split(lab)
        k, p = split.k_basis, split.p_basis

        def assert_in_span(basis, w):
            a = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()])
                          for m in basis], axis=1)
            q, _ = np.linalg.qr(a)
            v = np.concatenate([w.real.ravel(), w.imag.ravel()])
            assert np.linalg.norm(v - q @ (q.T @ v)) <= 1e-10

        for x in k[:3]:
            for y in k[:3]:
                assert_in_span(k, x @ y - y @ x)
            for y in p[:3]:
                assert_in_span(p, x @ y - y @ x)
        for x in p[:3]:
            for y in p[:3]:
                assert_in_span(k, x @ y - y @ x)

    def test_metric_negative_definite_on_tangents(self, rng):
        # g = Tr dx dx^{-1} is real and negative on p-directions
        from scipy.linalg import expm
        pair = involution(label("AI", 4))
        split = tangent_split(label("AI", 4))
        u = haar_unitary(4, rng)
        step = 1e-5
        for x in split.p_basis[:4]:
            plus = cartan_embed(u @ expm(step * x), pair)
            minus = cartan_embed(u @ expm(-step * x), pair)
            xi = (plus - minus) / (2 * step)
            x0 = cartan_embed(u, pair)
            val = np.trace(np.linalg.solve(x0, xi) @
                           np.linalg.solve(x0, xi))
            assert abs(val.imag) < 1e-6
            assert val.real < -1e-6  # nonzero tangent has negative square


    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_spans_match_the_svd_split(self, lab):
        def projector(basis):
            q = linalg._vec_real(np.array(basis)).T
            return q @ q.T

        split = tangent_split(lab)
        k_ref, p_ref = oracles.tangent_split_oracle(lab)
        for new, ref in ((split.k_basis, k_ref), (split.p_basis, p_ref)):
            assert len(new) == len(ref)
            if ref:
                assert np.abs(projector(new) -
                              projector(ref)).max() <= 1e-12

    def test_inconsistent_involution_rejected(self, monkeypatch):
        tau = CartanPair.tau
        monkeypatch.setattr(CartanPair, "tau",
                            lambda self, u: 0.5 * tau(self, u))
        with pytest.raises(InputShapeError,
                           match="involution is inconsistent"):
            tangent_split(label("AI", 3))

    def test_one_tau_call_and_no_svd(self, monkeypatch):
        counts = _count_calls(monkeypatch)
        split = tangent_split(label("DIII", 4))
        assert (split.dim_k, split.dim_p) == (16, 12)
        assert counts == {"tau": 1, "svd": 0}


class TestClosureCheck:
    def test_hermitian_tangent_closes(self, rng):
        split = tangent_split(label("A", 3))
        result = closure_check(split.p_basis)
        assert result.passed

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_all_ten_close(self, lab):
        result = closure_check(tangent_split(lab).p_basis)
        assert result.passed, (lab, result.max_residual)

    def test_generic_span_fails(self, rng):
        mats = [sample_gaussian(EnsembleSpec(label("A", 3)), rng)
                for _ in range(2)]
        result = closure_check(mats)
        assert not result.passed
        assert result.max_residual > 1e-3

    def test_empty_rejected(self):
        with pytest.raises(InputShapeError):
            closure_check([])

    def test_two_svds(self, monkeypatch):
        p_basis = tangent_split(label("C", 3)).p_basis
        assert len(p_basis) == 21
        counts = _count_calls(monkeypatch)
        assert closure_check(p_basis).passed
        assert counts["svd"] == 2


class TestAmbientAlgebra:
    def test_unitary_dimension(self):
        assert len(ambient_algebra(involution(label("A", 3)))) == 9

    def test_symplectic_dimension(self):
        assert len(ambient_algebra(involution(label("C", 2)))) == 10

    def test_orthogonal_dimension(self):
        assert len(ambient_algebra(involution(label("D", 2)))) == 6
        assert len(ambient_algebra(involution(label("BDI", 2, 2)))) == 6
