"""Tests for the invariant checks behind verify and fock-verify."""

from types import SimpleNamespace

import numpy as np
import pytest

from tenfold import focklab, linalg, symspace, verify


def test_cartan_membership_reports_a_computed_residual():
    ok, detail = verify._check_cartan_membership()
    worst = float(detail.rsplit(" ", 1)[1])
    # lower bound from the same draws: ||tau(x) x - 1|| on the symmetric
    # spaces and the unitarity defect on the group-type families
    rng = linalg.RngStream(22)
    bound = 0.0
    for lab in verify.TEN_LABELS:
        pair = symspace.involution(lab)
        x = symspace.cartan_embed(pair.haar(rng), pair)
        eye = np.eye(pair.matrix_dim)
        bound = max(bound, linalg.frob(x.conj().T @ x - eye) if
                    pair.group_type else linalg.frob(pair.tau(x) @ x - eye))
    assert ok
    assert 0.0 < worst <= 1e-10
    assert worst >= 0.99 * bound


def test_c2_sign_residual_sees_off_diagonal_entries():
    fock = focklab.build_fock(3)
    c = focklab.particle_hole(fock)
    assert verify.c2_sign_residual(fock, c) == 0.0
    # C is a signed permutation u e_k = +-e_pi(k); adding eps at (a, b)
    # with b not in {a, pi(a)} changes C^2 only off the diagonal
    pi = np.argmax(np.abs(c.u), axis=0)
    a = 0
    b = next(k for k in range(fock.dim) if k not in (a, pi[a]))
    u = c.u.copy()
    u[a, b] += 1e-3
    square = u @ np.conj(u)
    assert np.array_equal(np.diag(square), np.diag(c.u @ np.conj(c.u)))
    assert verify.c2_sign_residual(fock, SimpleNamespace(u=u)) >= 1e-3


@pytest.mark.parametrize("n", range(1, 8))
def test_c2_sign_residual_equals_the_dense_square(n):
    fock = focklab.build_fock(n)
    c = focklab.particle_hole(fock)
    occ = fock.occupation
    diag = np.diag((-1.0) ** (occ * (n - occ)))
    assert verify.c2_sign_residual(fock, c) == \
        linalg.frob(c.u @ np.conj(c.u) - diag)
    # a sign flip breaks the law on two diagonal entries; a dense
    # perturbation touches every entry
    for u in (c.u * np.where(np.arange(fock.dim) == 0, -1.0, 1.0),
              c.u + 1e-3 * linalg.haar_unitary(fock.dim,
                                                linalg.RngStream(n))):
        dense = linalg.frob(u @ np.conj(u) - diag)
        assert dense > 1e-4
        got = verify.c2_sign_residual(fock, SimpleNamespace(u=u))
        assert abs(got - dense) <= 1e-12 * dense


def test_fock_suite_at_one_mode_number():
    results = verify.run_fock_checks(3, 2, 0)
    assert [name for name, _, _ in results] == [
        "fock.car", "fock.C2-sign-law", "fock.defining-property",
        "fock.covering-generator", "fock.covering-two-to-one",
        "fock.twisted-transfer"]
    assert all(ok for _, ok, _ in results)
    c2_detail = dict((name, detail) for name, _, detail in results)
    assert c2_detail["fock.C2-sign-law"] == "residual 0.00e+00"


def test_ct_commutation_carries_the_determinant():
    fock = focklab.build_fock(3)
    c = focklab.particle_hole(fock)
    o = linalg.haar_orthogonal(3, linalg.RngStream(5))
    if np.linalg.det(o) > 0:
        o[:, 0] *= -1.0
    lift = focklab.lift_unitary(fock, o)
    # C Lift(O) = det(O) Lift(O) C: a reflection anticommutes with C
    assert verify.ct_residual(c, lift, -1.0) <= 1e-12
    assert verify.ct_residual(c, lift, 1.0) >= 1.0
    ok, detail = verify._check_ct_commutation()
    assert ok, detail
