"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in failure reports) and enforces its runtime budget.  Monte-Carlo
oracles use fixed seeds; the targets (Haar moments, the Poisson ratio
mean 2 ln 2 - 1, the 3x3 Gaussian orthogonal mean 4 - 2 sqrt(3)) are
exact values of the sampled distributions.
"""

import time

import numpy as np
import pytest

import oracles
from tenfold import linalg, symspace, verify
from tenfold.antiunitary import AntiUnitaryOp, parity, sector_action, \
    transfer_T
from tenfold.classifier import (build_nambu, canonical_setting,
                                classify_tenfold, classify_threefold,
                                compatible_space, hilbert_setting, label)
from tenfold.cli import main
from tenfold.ensembles import (EnsembleSpec, class_constraints,
                               pooled_spacing_ratios, sample_gaussian)
from tenfold.focklab import (build_fock, covering_check, lift_one_body,
                             lift_unitary, particle_hole)
from tenfold.grouprep import close_group, fs_indicator, isotypic_decompose
from tenfold.linalg import RngStream, haar_orthogonal, haar_unitary

GROUP_NAMES = ("trivial", "Z3", "S3", "D4", "Q8")
T_CHOICES = (None, 1, -1)

TEN_CANONICAL = (
    label("A", 4), label("AI", 4), label("AII", 4),
    label("C", 2), label("CI", 2), label("D", 4), label("DIII", 4),
    label("AIII", 2, 2), label("BDI", 2, 2), label("CII", 2, 2),
)

ENSEMBLE_LABELS = (
    label("A", 8), label("AI", 8), label("AII", 8),
    label("C", 8), label("CI", 8), label("D", 8), label("DIII", 8),
    label("AIII", 4, 4), label("BDI", 4, 4), label("CII", 4, 4),
)

CHIRAL_UNBALANCED = (label("AIII", 3, 5), label("BDI", 3, 5),
                     label("CII", 2, 6))


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"{criterion}: {detail}"


def _threefold_suite_cases():
    """The 50 randomized settings shared by criteria 1 and 3."""
    cases = []
    idx = 0
    while len(cases) < 50:
        group_name = GROUP_NAMES[idx % len(GROUP_NAMES)]
        t_parity = T_CHOICES[(idx // len(GROUP_NAMES)) % len(T_CHOICES)]
        sub = RngStream(1000 + idx)
        gens, tmat, expected = oracles.build_threefold_case(group_name, sub,
                                                            t_parity)
        n = gens[0].shape[0]
        w = haar_unitary(n, sub)
        group = close_group([w @ g @ w.conj().T for g in gens])
        t = AntiUnitaryOp(w @ tmat @ w.T) if tmat is not None else None
        cases.append((group_name, t_parity, group, t, expected, sub))
        idx += 1
    return cases


_SUITE_CACHE = None


def threefold_suite():
    global _SUITE_CACHE
    if _SUITE_CACHE is None:
        _SUITE_CACHE = _threefold_suite_cases()
    return _SUITE_CACHE


def test_criterion_1_threefold_suite():
    start = time.time()
    hits = 0
    total = 0
    for group_name, t_parity, group, t, expected, sub in threefold_suite():
        setting = hilbert_setting(group, t, tol=1e-8)
        report = classify_threefold(setting, sub)
        got = sorted((e.class_label.family, e.irrep_dim, e.multiplicity)
                     for e in report.entries)
        total += 1
        if got == expected:
            hits += 1
    elapsed = time.time() - start
    _report("1-threefold-suite",
            hits == total == 50 and elapsed < 30.0,
            f"{hits}/{total} match the character-theory oracle in "
            f"{elapsed:.1f} s")


def test_criterion_2_tenfold_table():
    start = time.time()
    families = set()
    mismatches = []
    for lab in TEN_CANONICAL:
        setting = canonical_setting(lab)
        rng = RngStream(7)
        report = classify_tenfold(setting, rng)
        got = report.entries[0].class_label
        if got != lab:
            mismatches.append(f"{lab} -> {got}")
        families.add(got.family)
        nambu = build_nambu(setting)
        brute = oracles.compatible_dimension(
            nambu.dim, oracles.setting_constraints_nambu(nambu, setting.dim))
        if brute != compatible_space(lab).tangent_dim:
            mismatches.append(
                f"{lab}: brute dim {brute} != "
                f"{compatible_space(lab).tangent_dim}")
    elapsed = time.time() - start
    _report("2-tenfold-table",
            not mismatches and len(families) == 10 and elapsed < 60.0,
            f"10 distinct labels, dimensions exact, {elapsed:.1f} s"
            + ("; " + "; ".join(mismatches) if mismatches else ""))


def test_criterion_3_transfer():
    start = time.time()
    worst_recon = 0.0
    parity_ok = True
    fs_matches = 0
    fs_total = 0
    for group_name, t_parity, group, t, expected, sub in threefold_suite():
        if t is None:
            continue
        blocks = isotypic_decompose(group, sub, tol=1e-8)
        pairing = sector_action(t, blocks, 1e-8)
        eps_t = parity(t)
        for lam in pairing.fixed:
            block = [b for b in blocks if b.label == lam][0]
            tt = transfer_T(block, t, 1e-8)
            fb = block.factor_basis
            restricted = fb.conj().T @ t.u @ np.conj(fb)
            recon = np.kron(tt.alpha.u, tt.beta.u)
            worst_recon = max(worst_recon,
                              linalg.frob(restricted - recon))
            if tt.eps_alpha * tt.eps_beta != eps_t:
                parity_ok = False
            fs_total += 1
            if tt.eps_beta == fs_indicator(group, block):
                fs_matches += 1
    elapsed = time.time() - start
    _report("3-transfer",
            worst_recon <= 1e-8 and parity_ok and fs_matches == fs_total,
            f"reconstruction residual {worst_recon:.2e}, parity relation "
            f"holds, eps_beta = FS indicator in {fs_matches}/{fs_total} "
            f"blocks, {elapsed:.1f} s")


def test_criterion_4_fock_oracle():
    start = time.time()
    worst_car = 0.0
    worst_ct = 0.0
    worst_cg = 0.0
    worst_cover = 0.0
    least_mutant = np.inf
    sign_law_exact = True
    two_to_one = True
    rng = RngStream(4)
    for n in range(1, 7):
        fock = build_fock(n)
        worst_car = max(worst_car, verify.car_residual(fock))

        c = particle_hole(fock)
        square = c.u @ np.conj(c.u)
        expected = np.diag([(-1.0) ** (int(o) * (n - int(o)))
                            for o in fock.occupation])
        if not np.array_equal(square, expected):
            sign_law_exact = False

        # CT = TC for conjugation-type T with T-invariant reference state:
        # T = K, and T = Lift(O) K for O in SO(n), where Lift(O) is real
        lift_rng = rng.child(n)
        lift = lift_unitary(fock, haar_orthogonal(n, lift_rng, True))
        worst_ct = max(worst_ct, linalg.frob(c.u - np.conj(c.u)),
                       linalg.frob(c.u @ lift - lift @ np.conj(c.u)))
        # a C with non-real row phases must fail that check
        theta = lift_rng.generator.uniform(np.pi / 4, 3 * np.pi / 4, fock.dim)
        mutant = np.exp(1j * theta)[:, None] * c.u
        least_mutant = min(least_mutant, linalg.frob(
            mutant @ lift - lift @ np.conj(mutant)))
        # Cg = gC for determinant-one unitaries
        from scipy.linalg import expm
        h = sample_gaussian(EnsembleSpec(label("A", n)), rng)
        h -= (np.trace(h) / n) * np.eye(n)
        g = lift_unitary(fock, expm(1j * h))
        worst_cg = max(worst_cg, linalg.frob(c.u @ np.conj(g) - g @ c.u))

        for _ in range(20):
            w = sample_gaussian(EnsembleSpec(label("A", n)), rng)
            b = rng.complex_normal((n, n))
            z = 0.5 * (b - b.T)
            h_fock = lift_one_body(fock, w, z)
            record = covering_check(fock, h_fock, w, z)
            worst_cover = max(worst_cover, record.generator_residual)
            two_to_one = two_to_one and record.sign_invariant
    elapsed = time.time() - start
    _report("4-fock-oracle",
            worst_car <= 1e-12 and sign_law_exact and worst_ct <= 1e-12
            and least_mutant >= 1.0
            and worst_cg <= 1e-12 and worst_cover <= 1e-9 and two_to_one
            and elapsed < 120.0,
            f"CAR {worst_car:.1e}, sign law exact, CT/Cg residuals "
            f"{worst_ct:.1e}/{worst_cg:.1e}, phase-mutated C CT residual "
            f"{least_mutant:.1e}, covering {worst_cover:.1e}, "
            f"two-to-one exact, {elapsed:.1f} s")


def _batched_constraint_residual(lab, hs):
    worst = 0.0
    for c in class_constraints(lab):
        if c.antiunitary:
            image = c.u @ np.conj(hs) @ c.u.conj().T
        else:
            image = c.u @ hs @ c.u.conj().T
        worst = max(worst, float(np.max(np.abs(image - c.sign * hs))))
    return worst


def test_criterion_5_ensemble_structure():
    start = time.time()
    worst_structural = 0.0
    worst_pairing = 0.0
    round_trip_ok = True
    zero_modes_ok = True
    rng = RngStream(5)
    for lab in ENSEMBLE_LABELS:
        hs = sample_gaussian(EnsembleSpec(lab), rng, size=1000)
        hermitian = float(np.max(np.abs(hs - np.conj(hs.swapaxes(-1, -2)))))
        worst_structural = max(worst_structural, hermitian,
                               _batched_constraint_residual(lab, hs))
        if lab.family not in ("A", "AI", "AII"):
            ev = np.linalg.eigvalsh(hs)
            worst_pairing = max(worst_pairing,
                                float(np.max(np.abs(ev + ev[..., ::-1]))))
        report = classify_tenfold(canonical_setting(lab), rng)
        if report.entries[0].class_label != lab:
            round_trip_ok = False
    for lab in CHIRAL_UNBALANCED:
        hs = sample_gaussian(EnsembleSpec(lab), rng, size=200)
        ev = np.sort(np.abs(np.linalg.eigvalsh(hs)), axis=1)
        k = abs(lab.dims[0] - lab.dims[1])
        if np.max(ev[:, :k]) > 1e-10 or np.min(ev[:, k]) <= 1e-10:
            zero_modes_ok = False
    elapsed = time.time() - start
    _report("5-ensemble-structure",
            worst_structural <= 1e-12 and worst_pairing <= 1e-10
            and round_trip_ok and zero_modes_ok,
            f"defining relations {worst_structural:.1e}, spectral pairing "
            f"{worst_pairing:.1e}, round trip and zero modes exact, "
            f"{elapsed:.1f} s")


def test_criterion_6_spectral_statistics():
    start = time.time()
    rng = RngStream(6)
    chunks = []
    for _ in range(10):
        draws = sample_gaussian(EnsembleSpec(label("AI", 3)), rng,
                                size=100_000)
        chunks.append(np.linalg.eigvalsh(draws))
    goe = pooled_spacing_ratios(np.concatenate(chunks))
    goe_target = 4.0 - 2.0 * np.sqrt(3.0)
    goe_dev = abs(goe.mean - goe_target) / goe.stderr

    poisson_levels = np.sort(rng.generator.uniform(size=(1_000_000, 3)),
                             axis=1)
    poisson = pooled_spacing_ratios(poisson_levels)
    poisson_target = 2.0 * np.log(2.0) - 1.0
    poisson_dev = abs(poisson.mean - poisson_target) / poisson.stderr
    elapsed = time.time() - start
    _report("6-spectral-statistics",
            goe_dev <= 3.0 and poisson_dev <= 3.0 and elapsed < 300.0,
            f"mean r {goe.mean:.5f} vs {goe_target:.5f} "
            f"({goe_dev:.2f} sigma), Poisson {poisson.mean:.5f} vs "
            f"{poisson_target:.5f} ({poisson_dev:.2f} sigma), "
            f"{elapsed:.1f} s")


def test_criterion_7_zero_energy_density():
    start = time.time()
    rng = RngStream(77)
    n_modes, samples, bins = 40, 2000, 41
    spectra = {}
    for fam in ("D", "C"):
        hs = sample_gaussian(EnsembleSpec(label(fam, n_modes)), rng,
                             size=samples)
        spectra[fam] = np.linalg.eigvalsh(hs)
    vmax = max(float(np.max(np.abs(s))) for s in spectra.values())
    edges = np.linspace(-vmax, vmax, bins + 1)
    width = edges[1] - edges[0]
    mid = bins // 2
    stats = {}
    for fam, ev in spectra.items():
        counts = np.array([np.sum((row >= edges[mid]) &
                                  (row < edges[mid + 1])) for row in ev])
        density = counts / (ev.shape[1] * width)
        stats[fam] = (float(np.mean(density)),
                      float(np.std(density, ddof=1) / np.sqrt(samples)))
    gap = stats["D"][0] - stats["C"][0]
    combined = np.hypot(stats["D"][1], stats["C"][1])
    elapsed = time.time() - start
    _report("7-zero-energy-density",
            gap > 5.0 * combined and elapsed < 180.0,
            f"zero-bin density D {stats['D'][0]:.4f} vs C "
            f"{stats['C'][0]:.4f}, gap {gap / combined:.1f} combined "
            f"standard errors, {elapsed:.1f} s")


def test_criterion_8_symmetric_space_geometry():
    start = time.time()
    rng = RngStream(8)
    worst_membership = 0.0
    worst_inversion = 0.0
    worst_bracket = 0.0
    closure_ok = True
    for lab in verify.TEN_LABELS:
        pair = symspace.involution(lab)
        x = symspace.cartan_embed(symspace.involution(lab).haar(rng), pair)
        y = symspace.cartan_embed(symspace.involution(lab).haar(rng), pair)
        if not pair.group_type:
            worst_membership = max(worst_membership, linalg.frob(
                pair.tau(x) @ x - np.eye(pair.matrix_dim)))
        z = symspace.geodesic_inversion(y, x, pair)
        back = symspace.geodesic_inversion(y, z, pair)
        worst_inversion = max(worst_inversion, linalg.frob(back - x))
        split = symspace.tangent_split(lab)
        worst_bracket = max(worst_bracket, verify._bracket_residual(split))
        if not symspace.closure_check(split.p_basis).passed:
            closure_ok = False
    negative = symspace.closure_check(
        [sample_gaussian(EnsembleSpec(label("A", 3)), rng)
         for _ in range(2)])
    elapsed = time.time() - start
    _report("8-symmetric-space-geometry",
            worst_membership <= 1e-10 and worst_inversion <= 1e-9
            and worst_bracket <= 1e-10 and closure_ok
            and not negative.passed and elapsed < 60.0,
            f"membership {worst_membership:.1e}, inversion "
            f"{worst_inversion:.1e}, brackets {worst_bracket:.1e}, closure "
            f"passes and negative control fails, {elapsed:.1f} s")


def test_criterion_9_determinism_and_exit_codes(tmp_path, monkeypatch,
                                                capsys):
    import json
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["sample", "--class", "DIII", "--dims", "4", "--count", "5",
            "--seed", "123"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    spec_ok = tmp_path / "ok.json"
    spec_ok.write_text(json.dumps({
        "schema_version": "1", "dimension": 2, "setting": "hilbert",
        "g0": {"mode": "none"}}))
    code_ok = main(["classify", str(spec_ok)])

    spec_bad_schema = tmp_path / "bad_schema.json"
    spec_bad_schema.write_text(json.dumps({
        "schema_version": "1", "dimension": 2, "setting": "hilbert",
        "g0": {"mode": "finite-group",
               "generators": [[[[2.0, 0.0], [0.0, 0.0]],
                               [[0.0, 0.0], [1.0, 0.0]]]]}}))
    code_schema = main(["classify", str(spec_bad_schema)])

    spec_bad_t = tmp_path / "bad_t.json"
    spec_bad_t.write_text(json.dumps({
        "schema_version": "1", "dimension": 2, "setting": "hilbert",
        "g0": {"mode": "none"},
        "time_reversal": {"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                     [[0.0, 1.0], [0.0, 0.0]]]}}))
    code_consistency = main(["classify", str(spec_bad_t)])

    spec_unsupported = tmp_path / "unsupported.json"
    spec_unsupported.write_text(json.dumps({
        "schema_version": "1", "dimension": 3, "setting": "hilbert",
        "g0": {"mode": "none"},
        "time_reversal": {"matrix": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0],
                                      [1.0, 0.0]]]}}))
    code_unsupported = main(["classify", str(spec_unsupported), "--tenfold"])

    # exit 5: a failing invariant surfaces through the verify command
    monkeypatch.setattr(verify, "FAST_CHECKS", (
        ("demo.failing", lambda: (False, "injected failure")),))
    code_invariant = main(["verify", "--all-classes", "--level", "fast"])
    capsys.readouterr()

    codes = (code_ok, code_schema, code_consistency, code_unsupported,
             code_invariant)
    _report("9-determinism",
            identical and codes == (0, 2, 3, 4, 5),
            f"byte-identical reruns: {identical}, exit codes {codes} "
            "(expected (0, 2, 3, 4, 5))")
