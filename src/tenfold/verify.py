"""Named invariant suites behind the ``verify`` and ``fock-verify`` commands.

Each check is a function returning (passed, detail); the runner collects
them into a report.  The ``fast`` level finishes in well under a minute;
``full`` adds the Fock-space sign laws, the covering (a 2 pi rotation
lifts to -1) and the closure negative control.
"""

import numpy as np

from . import ensembles, focklab, grouprep, linalg, symspace
from .antiunitary import AntiUnitaryOp, parity, transfer_T
from .classifier import (canonical_setting, classify_tenfold,
                         classify_threefold, hilbert_setting, label)
from .errors import InputShapeError

TEN_LABELS = (
    label("A", 4), label("AI", 4), label("AII", 4),
    label("C", 3), label("CI", 3), label("D", 3), label("DIII", 4),
    label("AIII", 2, 2), label("BDI", 2, 2), label("CII", 2, 2),
)


def _check_haar_unitarity():
    rng = linalg.RngStream(11)
    worst = 0.0
    for n in (1, 2, 5, 16, 64):
        u = linalg.haar_unitary(n, rng)
        worst = max(worst, linalg.frob(u.conj().T @ u - np.eye(n)) /
                    np.sqrt(n))
    return worst <= 1e-12, f"worst unitarity residual {worst:.2e}"


def _check_eig_reconstruction():
    rng = linalg.RngStream(12)
    worst = 0.0
    for n in (2, 8, 24):
        h = ensembles.sample_gaussian(
            ensembles.EnsembleSpec(label("A", n)), rng)
        es = linalg.eig_hermitian(h)
        recon = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
        worst = max(worst, linalg.frob(h - recon) / linalg.frob(h))
    return worst <= linalg.TOL_EIG, f"worst reconstruction {worst:.2e}"


def _check_closure_orders():
    sx, sz = grouprep.PAULI_X, grouprep.PAULI_Z
    dihedral = grouprep.close_group([sx, sz])
    quaternion = grouprep.close_group([1j * sx, 1j * sz])
    ok = len(dihedral.elements) == 8 and len(quaternion.elements) == 8
    return ok, (f"orders {len(dihedral.elements)}, "
                f"{len(quaternion.elements)} (expected 8, 8)")


def _check_projector_resolution():
    rng = linalg.RngStream(13)
    sx, sz = grouprep.PAULI_X, grouprep.PAULI_Z
    action = grouprep.close_group([np.kron(1j * sx, np.eye(2)),
                                   np.kron(1j * sz, np.eye(2))])
    blocks = grouprep.isotypic_decompose(action, rng)
    total = sum(b.projector for b in blocks)
    resid = linalg.frob(total - np.eye(action.dim))
    return resid <= 1e-8, f"sum-of-projectors residual {resid:.2e}"


def _check_commutant_dimension():
    shift = np.roll(np.eye(3), 1, axis=0)
    action = grouprep.close_group([shift.astype(complex)])
    dim = len(grouprep.commutant_basis(action))
    return dim == 3, f"cyclic-group commutant dimension {dim} (expected 3)"


def _check_parity_invariance():
    rng = linalg.RngStream(14)
    t = AntiUnitaryOp(np.kron(np.eye(2), 1j * grouprep.PAULI_Y))
    w = linalg.haar_unitary(4, rng)
    before = parity(t)
    after = parity(t.conjugated_by(w))
    return before == after == -1, f"parities {before}, {after}"


def _check_pure_tensor():
    rng = linalg.RngStream(15)
    action = grouprep.close_group([np.kron(np.eye(3), 1j * grouprep.PAULI_X),
                                   np.kron(np.eye(3), 1j * grouprep.PAULI_Z)])
    blocks = grouprep.isotypic_decompose(action, rng)
    t = AntiUnitaryOp(np.kron(np.eye(3), 1j * grouprep.PAULI_Y))
    tt = transfer_T(blocks[0], t)
    recon = np.kron(tt.alpha.u, tt.beta.u)
    fb = blocks[0].factor_basis
    resid = linalg.frob(fb.conj().T @ t.u @ np.conj(fb) - recon)
    ok = resid <= 1e-8 and tt.eps_alpha * tt.eps_beta == parity(t)
    return ok, f"reconstruction residual {resid:.2e}"


def _check_tenfold_table():
    rng = linalg.RngStream(16)
    seen = []
    for lab in TEN_LABELS:
        report = classify_tenfold(canonical_setting(lab), rng)
        if len(report.entries) != 1:
            return False, f"{lab} produced {len(report.entries)} entries"
        got = report.entries[0].class_label
        if got != lab:
            return False, f"{lab} classified as {got}"
        seen.append(got.family)
    return len(set(seen)) == 10, f"families {sorted(set(seen))}"


def _check_threefold_invariance():
    rng = linalg.RngStream(17)
    action = grouprep.close_group([np.kron(1j * grouprep.PAULI_X, np.eye(2)),
                                   np.kron(1j * grouprep.PAULI_Z, np.eye(2))])
    t = AntiUnitaryOp(np.kron(1j * grouprep.PAULI_Y, np.eye(2)))
    setting = hilbert_setting(action, t)
    base = classify_threefold(setting, rng)
    w = linalg.haar_unitary(4, rng)
    rotated = hilbert_setting(
        grouprep.close_group([w @ g @ w.conj().T for g in action.generators]),
        t.conjugated_by(w))
    other = classify_threefold(rotated, rng)
    ok = sorted(str(e.class_label) for e in base.entries) == \
        sorted(str(e.class_label) for e in other.entries)
    return ok, f"{base.families()} vs {other.families()}"


def _check_gaussian_structure():
    rng = linalg.RngStream(18)
    worst = 0.0
    for lab in TEN_LABELS:
        h = ensembles.sample_gaussian(ensembles.EnsembleSpec(lab), rng)
        worst = max(worst, ensembles.max_constraint_residual(lab, h),
                    linalg.frob(h - h.conj().T))
    return worst <= 1e-12, f"worst defining-relation residual {worst:.2e}"


def _check_spectral_pairing():
    rng = linalg.RngStream(19)
    worst = 0.0
    for lab in TEN_LABELS:
        # only a P or S relation (sign -1) pairs E with -E
        if all(c.sign > 0 for c in ensembles.class_constraints(lab)):
            continue
        h = ensembles.sample_gaussian(ensembles.EnsembleSpec(lab), rng)
        ev = np.linalg.eigvalsh(h)
        worst = max(worst, float(np.max(np.abs(ev + ev[::-1]))))
    return worst <= 1e-10, f"worst pairing residual {worst:.2e}"


def _check_zero_modes():
    rng = linalg.RngStream(20)
    worst_zero, least_nonzero = 0.0, np.inf
    for family, p, q in (("AIII", 2, 5), ("AIII", 4, 1), ("BDI", 1, 3),
                         ("BDI", 5, 2), ("CII", 2, 6), ("CII", 4, 2)):
        hs = ensembles.sample_gaussian(
            ensembles.EnsembleSpec(label(family, p, q)), rng, size=2)
        ev = np.sort(np.abs(np.linalg.eigvalsh(hs)), axis=-1)
        worst_zero = max(worst_zero, float(ev[:, :abs(p - q)].max()))
        least_nonzero = min(least_nonzero, float(ev[:, abs(p - q)].min()))
    return worst_zero <= 1e-10 < least_nonzero, (
        f"worst zero mode {worst_zero:.2e}, smallest nonzero |E| "
        f"{least_nonzero:.2e}")


def _check_circular_membership():
    rng = linalg.RngStream(21)
    worst = 0.0
    for lab in TEN_LABELS:
        pair = symspace.involution(lab)
        x = ensembles.sample_circular(
            ensembles.EnsembleSpec(lab, kind="circular"), rng)
        if not symspace.in_space(x, pair, 1e-10):
            return False, f"{lab} sample failed membership"
        if not pair.group_type:
            worst = max(worst, linalg.frob(
                pair.tau(x) @ x - np.eye(pair.matrix_dim)))
    return True, f"worst tau(x) x residual {worst:.2e}"


def _check_cartan_membership():
    rng = linalg.RngStream(22)
    worst = 0.0
    for lab in TEN_LABELS:
        pair = symspace.involution(lab)
        x = symspace.cartan_embed(pair.haar(rng), pair)
        if not symspace.in_space(x, pair, 1e-10):
            return False, f"{lab} embedding left the space"
        if pair.group_type:
            worst = max([worst] + [r for r, _ in pair.ambient_defects(x)])
        else:
            worst = max(worst, linalg.frob(
                pair.tau(x) @ x - np.eye(pair.matrix_dim)))
    return True, f"worst residual {worst:.2e}"


def _check_geodesic_involution():
    rng = linalg.RngStream(23)
    worst = 0.0
    for lab in TEN_LABELS:
        pair = symspace.involution(lab)
        x = symspace.cartan_embed(pair.haar(rng), pair)
        y = symspace.cartan_embed(pair.haar(rng), pair)
        z = symspace.geodesic_inversion(y, x, pair)
        back = symspace.geodesic_inversion(y, z, pair)
        resid = linalg.frob(back - x) / np.sqrt(pair.matrix_dim)
        if resid > 1e-9:
            return False, f"{lab} inversion failed to involute: {resid:.2e}"
        worst = max(worst, resid)
    return True, f"worst ||s_y(s_y(x)) - x|| / sqrt(n) {worst:.2e}"


def _check_triple_brackets():
    worst = 0.0
    for lab in TEN_LABELS:
        split = symspace.tangent_split(lab)
        worst = max(worst, _bracket_residual(split))
    return worst <= 1e-10, f"worst bracket residual {worst:.2e}"


def _bracket_residual(split):
    """Worst residual of [k, k], [p, p] off k and [k, p] off p, over the
    first four elements of each basis."""
    def brackets(xs, ys):
        xs, ys = np.asarray(xs)[:, None], np.asarray(ys)[None]
        return (xs @ ys - ys @ xs).reshape(-1, *xs.shape[-2:])

    k, p = split.k_basis, split.p_basis
    in_k = np.concatenate([brackets(k[:4], k[:4]), brackets(p[:4], p[:4])])
    return max(np.linalg.norm(linalg.off_span(k, in_k), axis=-1).max(),
               np.linalg.norm(linalg.off_span(p, brackets(k[:4], p[:4])),
                              axis=-1).max())


def _check_wegner_closure():
    worst = 0.0
    for lab in TEN_LABELS:
        result = symspace.closure_check(symspace.tangent_split(lab).p_basis)
        if not result.passed:
            return False, (f"{lab} closure residual "
                           f"{result.max_residual:.2e}")
        worst = max(worst, result.max_residual)
    return True, f"worst [p, [p, p]] closure residual {worst:.2e}"


def _check_closure_negative_control():
    rng = linalg.RngStream(24)
    mats = [ensembles.sample_gaussian(
        ensembles.EnsembleSpec(label("A", 3)), rng) for _ in range(2)]
    result = symspace.closure_check(mats)
    return (not result.passed), (f"generic span residual "
                                 f"{result.max_residual:.2e} (should fail)")


def _check_fock_car():
    worst = 0.0
    for n in range(1, 5):
        fock = focklab.build_fock(n)
        worst = max(worst, car_residual(fock))
    return worst <= 1e-12, f"worst CAR residual {worst:.2e}"


def car_residual(fock):
    """Worst Frobenius norm of {a_k, a_l} and {a_k^dag, a_l} - d_kl.

    AB and BA carry the same mask, so each anticommutator is one signed
    permutation and its Frobenius norm that of its sign vector.  The
    sign vectors of a_k a_l and a_k^dag a_l are gathered for all (k, l)
    at once; they hold integers, so every norm is exact.
    """
    rows = np.arange(fock.dim)
    create = np.stack([op.sign for op in fock.create])
    annihilate = np.stack([op.sign for op in fock.annihilate])
    up = rows ^ np.array([op.mask for op in fock.create])[:, None]
    down = rows ^ np.array([op.mask for op in fock.annihilate])[:, None]
    # [k, l, b]: row b of A_k B_l is A_k's sign at b times B_l's at b ^
    # mask(A_k), and signs[:, up][l, k, b] is B_l's at up[k, b]
    pairs = annihilate[:, None] * annihilate[:, down].transpose(1, 0, 2)
    hops = create[:, None] * annihilate[:, up].transpose(1, 0, 2) + \
        annihilate * create[:, down]
    hops -= np.eye(len(create))[..., None]
    return float(max(
        np.linalg.norm(pairs + pairs.transpose(1, 0, 2), axis=2).max(),
        np.linalg.norm(hops, axis=2).max()))


def c2_sign_residual(fock, c):
    """||C C-bar - diag((-1)^(n(N-n)))||_F for C a ``SignedPerm``.

    C C-bar has mask c.mask ^ c.mask = 0, so it is diagonal by
    construction and the residual is that of its sign vector.
    """
    occ = fock.occupation
    square = c @ focklab.SignedPerm(c.mask, np.conj(c.sign))
    return linalg.frob(square.sign - (-1.0) ** (occ * (fock.n_modes - occ)))


def covering_residual(fock, rng, trials):
    """Worst covering residual over random quadratic Hamiltonians."""
    n = fock.n_modes
    worst = 0.0
    for _ in range(trials):
        w = ensembles.sample_gaussian(
            ensembles.EnsembleSpec(label("A", n)), rng)
        b = rng.complex_normal((n, n))
        z = 0.5 * (b - b.T)
        h = focklab.lift_one_body(fock, w, z)
        record = focklab.covering_check(fock, h, w, z)
        worst = max(worst, record.generator_residual,
                    record.orthogonality_residual,
                    abs(record.determinant - 1.0))
    return worst


def two_pi_lift_residual(fock, rng):
    """||exp(-i(H - tr W / 2)) + 1||_F for H = 2 pi b^dag b, with b a
    Haar-random mode from ``rng``: a 2 pi rotation lifts to -1.  H keeps
    the particle number; the norm is read off its sector blocks' spectra."""
    n = fock.n_modes
    u = rng.complex_normal(n)
    w = 2 * np.pi * np.outer(u, u.conj()) / np.vdot(u, u).real
    h = focklab.lift_one_body(fock, w, np.zeros((n, n)))
    evals = np.concatenate([np.linalg.eigvalsh(h[np.ix_(s, s)]) for s in
                            fock.occupation == np.arange(n + 1)[:, None]])
    return linalg.frob(np.exp(-1j * (evals - np.trace(w).real / 2)) + 1.0)


def twisted_transfer(fock):
    """Twisted particle-hole transfer check with S = diag(+1..., -1...)."""
    n = fock.n_modes
    p = n // 2 or 1
    s = np.diag([1.0] * p + [-1.0] * (n - p)).astype(complex)
    return focklab.twisted_ph_transfer_check(fock, s)


def _defining_property_residual(fock, c, rng, trials):
    """Worst ||C(psi) ^ phi - <psi, phi> Omega|| over random pairs."""
    n = fock.n_modes
    omega = np.zeros(fock.dim, dtype=complex)
    omega[fock.top_index] = 1.0
    worst = 0.0
    for _ in range(trials):
        deg = int(rng.generator.integers(0, n + 1))
        idx = np.nonzero(fock.occupation == deg)[0]
        psi = np.zeros(fock.dim, dtype=complex)
        phi = np.zeros(fock.dim, dtype=complex)
        psi[idx] = rng.complex_normal(len(idx))
        phi[idx] = rng.complex_normal(len(idx))
        lhs = focklab.wedge(fock, c @ np.conj(psi), phi)
        rhs = np.vdot(psi, phi) * omega
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _check_c2_sign_law():
    worst = 0.0
    for n in range(1, 7):
        fock = focklab.build_fock(n)
        resid = c2_sign_residual(fock, focklab.conjugation(fock))
        if resid > 1e-12:
            return False, f"sign law broken at N={n}, residual {resid:.2e}"
        worst = max(worst, resid)
    return True, f"N = 1..6, worst residual {worst:.2e}"


def _check_covering():
    rng = linalg.RngStream(25)
    worst, lift = 0.0, 0.0
    for n in range(1, 7):
        fock = focklab.build_fock(n)
        worst = max(worst, covering_residual(fock, rng, trials=2))
        lift = max(lift, two_pi_lift_residual(fock, rng.child(n)))
    return max(worst, lift) <= 1e-9, (f"worst covering residual {worst:.2e}, "
                                      f"2 pi lift residual {lift:.2e}")


def ct_residual(c, t_u, factor):
    """||C T - factor T C||_F for anti-unitaries C and T = t_u K."""
    return linalg.frob(c.u @ np.conj(t_u) - factor * t_u @ np.conj(c.u))


def _check_ct_commutation():
    """C T = det(O) T C for T = Lift(O) K, O Haar-random real orthogonal:
    C anticommutes with the lift of a reflection."""
    rng = linalg.RngStream(26)
    worst = 0.0
    for n in range(1, 5):
        fock = focklab.build_fock(n)
        o = linalg.haar_orthogonal(n, rng)
        worst = max(worst, ct_residual(focklab.particle_hole(fock),
                                       focklab.lift_unitary(fock, o),
                                       np.linalg.det(o)))
    return worst <= 1e-12, f"worst CT - det(O) TC residual {worst:.2e}"


def _check_twisted_transfer():
    worst = 0.0
    for n in range(2, 5):
        record = twisted_transfer(focklab.build_fock(n))
        if not record.passed:
            return False, f"transfer identity failed at N={n}"
        worst = max(worst, record.max_residual)
    return worst <= 1e-10, f"worst transfer residual {worst:.2e}"


FAST_CHECKS = (
    ("linalg.haar-unitarity", _check_haar_unitarity),
    ("linalg.eig-reconstruction", _check_eig_reconstruction),
    ("group.closure-orders", _check_closure_orders),
    ("group.projector-resolution", _check_projector_resolution),
    ("group.commutant-dimension", _check_commutant_dimension),
    ("antiunitary.parity-basis-independence", _check_parity_invariance),
    ("transfer.pure-tensor", _check_pure_tensor),
    ("classifier.tenfold-table", _check_tenfold_table),
    ("classifier.threefold-basis-invariance", _check_threefold_invariance),
    ("ensembles.gaussian-structure", _check_gaussian_structure),
    ("ensembles.spectral-pairing", _check_spectral_pairing),
    ("ensembles.zero-modes", _check_zero_modes),
    ("ensembles.circular-membership", _check_circular_membership),
    ("symspace.cartan-membership", _check_cartan_membership),
    ("symspace.geodesic-involution", _check_geodesic_involution),
    ("symspace.triple-brackets", _check_triple_brackets),
    ("symspace.wegner-closure", _check_wegner_closure),
    ("fock.car", _check_fock_car),
)

FULL_CHECKS = FAST_CHECKS + (
    ("fock.C2-sign-law", _check_c2_sign_law),
    ("fock.covering-two-to-one", _check_covering),
    ("fock.ct-commutation", _check_ct_commutation),
    ("fock.twisted-transfer", _check_twisted_transfer),
    ("symspace.closure-negative-control", _check_closure_negative_control),
)


def run_checks(level="fast"):
    """Run the named invariant suite; returns [(name, ok, detail), ...]."""
    return _run(FULL_CHECKS if level == "full" else FAST_CHECKS)


def _run(checks):
    """[(name, ok, detail), ...] for (name, check) pairs; a check that
    raises has failed, and the checks after it still run."""
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failed invariant
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        results.append((name, ok, detail))
    return results


def _within(residual, tol, what="residual"):
    return residual <= tol, f"{what} {residual:.2e}"


def run_fock_checks(n_modes, trials, seed):
    """The ``fock-verify`` suite at one mode number.

    Every check needs dense operators, so the mode count must lie in
    1..``MAX_DENSE_MODES``.
    """
    cap = focklab.MAX_DENSE_MODES
    if not 1 <= n_modes <= cap:
        raise InputShapeError(f"fock-verify needs dense operators, which "
                              f"are limited to {cap} modes: the mode count "
                              f"must be in 1..{cap} ({n_modes} requested)")
    rng = linalg.RngStream(seed)
    fock = focklab.build_fock(n_modes)
    c = focklab.conjugation(fock)

    def transfer():
        record = twisted_transfer(fock)
        return record.passed, f"max residual {record.max_residual:.2e}"

    return _run((
        ("fock.car", lambda: _within(car_residual(fock), 1e-12)),
        ("fock.C2-sign-law",
         lambda: _within(c2_sign_residual(fock, c), 1e-12)),
        ("fock.defining-property", lambda: _within(
            _defining_property_residual(fock, c, rng, trials), 1e-10)),
        ("fock.covering-generator",
         lambda: _within(covering_residual(fock, rng, trials), 1e-9)),
        ("fock.covering-two-to-one", lambda: _within(
            two_pi_lift_residual(fock, rng.child(n_modes)), 1e-9,
            "2 pi lift residual")),
        ("fock.twisted-transfer", transfer),
    ))


def run_setting_checks(parsed, tenfold):
    """Invariant checks tied to one parsed spec file."""
    results = []
    rng = linalg.RngStream(parsed.seed)
    try:
        report = (classify_tenfold if tenfold else
                  classify_threefold)(parsed.setting, rng)
        results.append(("setting.classify", True,
                        "; ".join(report.lines())))
    except Exception as err:
        results.append(("setting.classify", False,
                        f"{type(err).__name__}: {err}"))
        return results
    # a threefold pair that T swaps has the multiplicity of one sector
    dims_total = sum(e.multiplicity * e.irrep_dim *
                     (1 if tenfold else len(e.sector_labels))
                     for e in report.entries)
    results.append(("setting.block-dimensions",
                    dims_total == parsed.setting.dim,
                    f"sum {dims_total}, space {parsed.setting.dim}"))
    for entry in report.entries:
        lab = entry.class_label
        h = ensembles.sample_gaussian(ensembles.EnsembleSpec(lab), rng)
        resid = ensembles.max_constraint_residual(lab, h)
        results.append((f"setting.sample-structure[{lab}]", resid <= 1e-12,
                        f"residual {resid:.2e}"))
    return results
