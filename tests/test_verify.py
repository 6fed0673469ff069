"""Tests for the invariant checks behind verify and fock-verify."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from tenfold import ensembles, focklab, linalg, symspace, verify
from tenfold.classifier import classify_tenfold, hilbert_setting
from tenfold.grouprep import close_group


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


def _reported(detail):
    """The residual at the end of a detail string."""
    return float(detail.rsplit(" ", 1)[1])


def test_geodesic_involution_reports_a_computed_residual():
    ok, detail = verify._check_geodesic_involution()
    rng = linalg.RngStream(23)  # the check's draws, in its order
    worst = 0.0
    for lab in verify.TEN_LABELS:
        pair = symspace.involution(lab)
        x = symspace.cartan_embed(pair.haar(rng), pair)
        y = symspace.cartan_embed(pair.haar(rng), pair)
        z = symspace.geodesic_inversion(y, x, pair)
        back = symspace.geodesic_inversion(y, z, pair)
        worst = max(worst, np.linalg.norm(back - x) /
                    np.sqrt(pair.matrix_dim))
    assert ok
    assert 0.0 < worst <= 1e-9
    assert _reported(detail) == pytest.approx(worst, rel=1e-2)


def test_wegner_closure_reports_a_computed_residual():
    ok, detail = verify._check_wegner_closure()
    worst = max(symspace.closure_check(
        symspace.tangent_split(lab).p_basis).max_residual
        for lab in verify.TEN_LABELS)
    assert ok
    assert 0.0 < worst <= 1e-9
    assert _reported(detail) == pytest.approx(worst, rel=1e-2)


def test_c2_sign_law_reports_a_computed_residual(monkeypatch):
    ok, detail = verify._check_c2_sign_law()
    assert ok and _reported(detail) == 0.0  # the law is exact
    # a residual below the bound is reported, not a fixed text
    monkeypatch.setattr(verify, "c2_sign_residual",
                        lambda fock, c: 1e-13 * fock.n_modes)
    ok, detail = verify._check_c2_sign_law()
    assert ok and _reported(detail) == 6e-13


@pytest.mark.parametrize("n", range(1, 8))
def test_c2_sign_residual_equals_the_dense_square(n):
    fock = focklab.build_fock(n)
    c = focklab.conjugation(fock)
    dense = focklab.particle_hole(fock).u
    occ = fock.occupation
    diag = np.diag((-1.0) ** (occ * (n - occ)))
    assert verify.c2_sign_residual(fock, c) == \
        linalg.frob(dense @ np.conj(dense) - diag)
    # a sign flip breaks the law on the two diagonal entries it touches
    flip = np.where(np.arange(fock.dim) == 0, -1.0, 1.0)
    mutant = focklab.SignedPerm(c.mask, flip * c.sign)
    u = mutant.dense()
    resid = verify.c2_sign_residual(fock, mutant)
    assert resid > 1.0
    assert resid == linalg.frob(u @ np.conj(u) - diag)


def with_creator(fock, k, sign):
    """``fock`` with the signs of a_k^dag replaced, and a_k its adjoint."""
    create = list(fock.create)
    create[k] = focklab.SignedPerm(create[k].mask, sign)
    return focklab.FockSpace(
        n_modes=fock.n_modes, dim=fock.dim, create=tuple(create),
        annihilate=tuple(a.adjoint() for a in create),
        occupation=fock.occupation)


@pytest.mark.parametrize("n", range(1, 9))
def test_car_residual_equals_the_pair_loop(n):
    fock = focklab.build_fock(n)
    top = fock.create[-1].sign
    zeroed = top.copy()
    zeroed[np.flatnonzero(zeroed)[0]] = 0.0
    # the top creator without its Jordan-Wigner sign (the same operator
    # at N = 1), and with the sign of its first row zeroed
    for case, broken in ((fock, False),
                         (with_creator(fock, n - 1, np.abs(top)), n > 1),
                         (with_creator(fock, n - 1, zeroed), True)):
        got = verify.car_residual(case)
        assert got == oracles.car_residual_loop(case)
        assert (got > 1.0) if broken else got == 0.0


def test_fock_suite_at_one_mode_number():
    results = verify.run_fock_checks(3, 2, 0)
    assert [name for name, _, _ in results] == [
        "fock.car", "fock.C2-sign-law", "fock.defining-property",
        "fock.covering-generator", "fock.covering-two-to-one",
        "fock.twisted-transfer"]
    assert all(ok for _, ok, _ in results)
    c2_detail = dict((name, detail) for name, _, detail in results)
    assert c2_detail["fock.C2-sign-law"] == "residual 0.00e+00"


@pytest.mark.parametrize("offset", [0.0, np.pi])
@pytest.mark.parametrize("n", range(1, 7))
def test_two_pi_lift_residual_equals_the_dense_exponential(n, offset,
                                                          monkeypatch):
    # the residual read off the sector spectra against expm of the
    # whole H; a lift off by pi takes the 2 pi rotation to +1, which is
    # 2 away from -1 on each of the 2^N states
    fock = focklab.build_fock(n)
    lift, lifts = focklab.lift_one_body, []

    def shifted(fock, w, z):
        lifts.append((lift(fock, w, z) + offset * np.eye(fock.dim),
                      np.trace(w).real / 2))
        return lifts[-1][0]

    monkeypatch.setattr(focklab, "lift_one_body", shifted)
    resid = verify.two_pi_lift_residual(fock, linalg.RngStream(n))
    [(h, half_trace)] = lifts
    eye = np.eye(fock.dim)
    assert resid == pytest.approx(
        linalg.frob(expm(-1j * (h - half_trace * eye)) + eye), abs=1e-12)
    if offset:
        assert resid == pytest.approx(2 * np.sqrt(fock.dim))
    else:
        assert resid <= 1e-12


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


def test_zero_modes_over_several_gradings(monkeypatch):
    ok, detail = verify._check_zero_modes()
    assert ok, detail
    # a shift by 1e-8 I lifts every zero mode off zero
    draw, seen = ensembles.sample_gaussian, []

    def shifted(spec, rng, size=None):
        seen.append((spec.label, size))
        return draw(spec, rng, size) + 1e-8 * np.eye(spec.label.matrix_dim)

    monkeypatch.setattr(ensembles, "sample_gaussian", shifted)
    ok, detail = verify._check_zero_modes()
    assert not ok
    assert detail.startswith("worst zero mode 1.00e-08, ")
    # two unbalanced gradings of each chiral family, two draws each
    assert sorted(lab.family for lab, _ in seen) == \
        ["AIII", "AIII", "BDI", "BDI", "CII", "CII"]
    assert len({lab for lab, _ in seen}) == 6
    assert all(lab.dims[0] != lab.dims[1] and size == 2
               for lab, size in seen)


def test_block_dimensions_count_a_joined_charge_once(monkeypatch):
    # Z3 regular on C^3 under --tenfold: D(1) and one A(2) entry that joins
    # omega with omega-bar (m = 1 + 1) cover V once
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    parsed = SimpleNamespace(seed=0,
                             setting=hilbert_setting(close_group([shift])))

    def block_dimensions():
        results = verify.run_setting_checks(parsed, tenfold=True)
        return {name: (ok, detail) for name, ok, detail in results}[
            "setting.block-dimensions"]

    assert block_dimensions() == (True, "sum 3, space 3")
    full = classify_tenfold(parsed.setting)
    assert sorted(len(e.sector_labels) for e in full.entries) == [1, 2]
    for dropped in range(2):
        kept = tuple(e for i, e in enumerate(full.entries) if i != dropped)
        monkeypatch.setattr(verify, "classify_tenfold",
                            lambda setting, rng, kept=kept: SimpleNamespace(
                                entries=kept, lines=lambda: []))
        ok, detail = block_dimensions()
        assert not ok and detail != "sum 3, space 3"
