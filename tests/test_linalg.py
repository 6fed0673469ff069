"""Tests for the dense linear algebra foundation."""

import numpy as np
import oracles
import pytest

from tenfold import linalg, symspace
from tenfold.classifier import label
from tenfold.errors import InputShapeError
from tenfold.linalg import (RngStream, eig_hermitian, haar_orthogonal,
                            haar_symplectic_unitary, haar_unitary,
                            symplectic_form)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestRngStream:
    def test_identical_seed_bit_exact(self):
        a = RngStream(123).normal(100)
        b = RngStream(123).normal(100)
        assert np.array_equal(a, b)

    def test_children_deterministic_and_distinct(self):
        parent = RngStream(5)
        kids = [parent.child(i).seed for i in range(10)]
        assert len(set(kids)) == 10
        assert kids == [RngStream(5).child(i).seed for i in range(10)]
        assert all(k != parent.seed for k in kids)

    def test_child_streams_differ_from_parent_stream(self):
        parent = RngStream(5)
        child = parent.child(0)
        assert not np.allclose(RngStream(5).normal(8), child.normal(8))


class TestEigHermitian:
    def test_identity(self):
        es = eig_hermitian(np.eye(2))
        assert np.allclose(es.values, [1.0, 1.0])

    def test_pauli_x(self):
        es = eig_hermitian(SX)
        assert np.allclose(es.values, [-1.0, 1.0])
        # eigenvectors (1, -/+1)/sqrt(2) up to phase
        for col, expected in zip(es.vectors.T, ([1, -1], [1, 1])):
            v = col / col[np.argmax(np.abs(col))]
            w = np.array(expected) / expected[np.argmax(np.abs(expected))]
            assert np.allclose(v / np.linalg.norm(v) * np.sqrt(2), w)

    def test_reconstruction_random(self, rng):
        m = rng.complex_normal((8, 8))
        h = m + m.conj().T
        es = eig_hermitian(h)
        recon = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
        assert linalg.frob(h - recon) <= 1e-10 * linalg.frob(h)
        assert np.all(np.diff(es.values) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(InputShapeError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self, rng):
        m = rng.complex_normal((4, 4))
        with pytest.raises(InputShapeError):
            eig_hermitian(m + m.conj().T + 1e-3 * rng.complex_normal((4, 4)))


class TestHaarUnitary:
    def test_scalar_case(self, rng):
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_determinism(self):
        a = haar_unitary(4, RngStream(9))
        b = haar_unitary(4, RngStream(9))
        assert np.array_equal(a, b)

    def test_rejects_zero_dim(self, rng):
        with pytest.raises(InputShapeError):
            haar_unitary(0, rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
    def test_unitary_to_tolerance(self, n):
        u = haar_unitary(n, RngStream(n))
        resid = linalg.frob(u.conj().T @ u - np.eye(n))
        assert resid <= 1e-12 * np.sqrt(n)

    def test_trace_moment(self):
        # Haar second moment: E |tr U|^2 = 1, checked by Monte Carlo.
        rng = RngStream(42)
        count = 20_000
        total = 0.0
        for _ in range(count):
            u = haar_unitary(6, rng)
            total += abs(np.trace(u)) ** 2
        assert abs(total / count - 1.0) < 0.05

    def test_eigenphase_uniformity(self):
        # the phase correction matters: column phases must not cluster
        rng = RngStream(17)
        phases = np.concatenate([np.angle(np.linalg.eigvals(
            haar_unitary(8, rng))) for _ in range(200)])
        hist, _ = np.histogram(phases, bins=8, range=(-np.pi, np.pi))
        assert hist.min() > 0.7 * hist.mean()


class TestHaarOrthogonalSymplectic:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_orthogonal(self, n):
        q = haar_orthogonal(n, RngStream(n))
        assert linalg.frob(q.T @ q - np.eye(n)) < 1e-12 * np.sqrt(n)

    def test_special_orthogonal_determinant(self):
        rng = RngStream(5)
        for _ in range(10):
            q = haar_orthogonal(5, rng, special=True)
            assert abs(np.linalg.det(q) - 1.0) < 1e-10

    @pytest.mark.parametrize("n2", [2, 4, 6])
    def test_symplectic_unitary(self, n2):
        j = symplectic_form(n2 // 2)
        u = haar_symplectic_unitary(n2, RngStream(n2), j)
        assert linalg.frob(u.conj().T @ u - np.eye(n2)) < 1e-12 * np.sqrt(n2)
        assert linalg.frob(u.T @ j @ u - j) < 1e-10

    def test_symplectic_form_of_another_size_is_refused(self):
        with pytest.raises(InputShapeError):
            haar_symplectic_unitary(4, RngStream(0), symplectic_form(1))

    @pytest.mark.parametrize("lab", [label("C", 3), label("CI", 4),
                                     label("CII", 2, 4), label("CII", 4, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symplectic_draw_is_the_permuted_standard_draw(self, lab, seed):
        # the draw used to be P u P^T with the dense permutation P that
        # sends the standard form's pairs to j's; indexing gives its bits
        pair = symspace.involution(lab)
        j, n2 = pair.ambient_form, pair.matrix_dim
        n = n2 // 2
        a, b = np.nonzero(j == 1)
        p = np.zeros((n2, n2))
        p[a, np.arange(n)] = 1.0
        p[b, n + np.arange(n)] = 1.0
        want = p @ linalg._haar_usp_standard(n, RngStream(seed)) @ p.T
        got = haar_symplectic_unitary(n2, RngStream(seed), j)
        assert got.tobytes() == want.tobytes()


def _paired_form(p, q):
    """Symplectic form J on C^p (+) J on C^q: CII's Jpq, or J for q = 0."""
    j = np.zeros((p + q, p + q))
    j[:p, :p] = symplectic_form(p // 2)
    j[p:, p:] = symplectic_form(q // 2)
    return j


class TestHaarQR:
    """Every Haar draw is one phase-corrected QR."""

    @pytest.mark.parametrize("n", range(1, 65))
    def test_unitary_and_orthogonal_keep_the_inline_draws(self, n):
        assert np.array_equal(haar_unitary(n, RngStream(n)),
                              oracles.haar_unitary_inline(n, RngStream(n)))
        for special in (False, True):
            got = haar_orthogonal(n, RngStream(n), special)
            want = oracles.haar_orthogonal_inline(n, RngStream(n), special)
            assert got.dtype == want.dtype == float
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n2", range(2, 25, 2))
    def test_symplectic_matches_gram_schmidt(self, n2):
        for p in range(2, n2 + 1, 2):
            j = _paired_form(p, n2 - p)
            src = linalg._symplectic_permutation(j)
            for seed in range(3):
                want = oracles.haar_usp_gram_schmidt(n2 // 2, RngStream(seed))
                got = haar_symplectic_unitary(n2, RngStream(seed), j)
                assert np.abs(got - want[np.ix_(src, src)]).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_partner_columns_are_exact(self, n):
        u = linalg._haar_usp_standard(n, RngStream(n))
        assert np.array_equal(u[:, n:], -symplectic_form(n) @ u[:, :n].conj())


class TestFrobEach:
    def test_norm_of_each_matrix(self):
        stack = np.arange(18, dtype=complex).reshape(2, 3, 3) * (1 + 1j)
        assert np.allclose(linalg.frob_each(stack),
                           [np.linalg.norm(m) for m in stack])

    def test_empty_stack(self):
        out = linalg.frob_each(np.zeros((0, 3, 3)))
        assert out.shape == (0,)


class TestPredicates:
    def test_hermitian_and_symmetric(self):
        assert linalg.is_hermitian(SX)
        assert not linalg.is_skew(SX)
        assert linalg.is_unitary(SX)

    def test_tolerance_is_explicit(self):
        almost = SX + 1e-6 * np.eye(2) * 1j
        assert not linalg.is_hermitian(almost, tol=1e-8)
        assert linalg.is_hermitian(almost, tol=1e-3)
