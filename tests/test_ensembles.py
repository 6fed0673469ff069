"""Tests for the Gaussian/circular samplers and spectral statistics."""

import numpy as np
import pytest

import oracles
from tenfold import linalg, symspace
from tenfold.classifier import canonical_setting, compatible_space, label
from tenfold.ensembles import (EnsembleSpec, class_constraints,
                               max_constraint_residual,
                               pooled_spacing_ratios, sample_circular,
                               sample_gaussian, spacing_ratios,
                               spectral_density)
from tenfold.errors import InputShapeError
from tenfold.linalg import RngStream, symplectic_form

ALL_LABELS = (
    label("A", 4), label("AI", 4), label("AII", 4),
    label("C", 3), label("CI", 3), label("D", 3), label("DIII", 3),
    label("AIII", 2, 2), label("BDI", 2, 2), label("CII", 2, 2),
)


class TestGaussianStructure:
    def test_class_a_hermitian_exact(self, rng):
        h = sample_gaussian(EnsembleSpec(label("A", 2)), rng)
        assert np.array_equal(h, h.conj().T)

    def test_class_d_paired_spectrum(self, rng):
        h = sample_gaussian(EnsembleSpec(label("D", 3)), rng)
        ev = np.linalg.eigvalsh(h)
        assert ev.shape == (6,)
        assert np.allclose(ev, -ev[::-1], atol=1e-12)

    def test_aiii_minimal_block(self, rng):
        h = sample_gaussian(EnsembleSpec(label("AIII", 1, 1)), rng)
        assert h[0, 0] == 0 and h[1, 1] == 0
        ev = np.linalg.eigvalsh(h)
        assert np.allclose(ev, [-abs(h[0, 1]), abs(h[0, 1])])

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_defining_relations_exact(self, lab, rng):
        h = sample_gaussian(EnsembleSpec(lab), rng)
        assert linalg.frob(h - h.conj().T) <= 1e-13 * max(1.0,
                                                          linalg.frob(h))
        assert max_constraint_residual(lab, h) <= 1e-12

    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_batched_matches_structure(self, lab, rng):
        hs = sample_gaussian(EnsembleSpec(lab), rng, size=5)
        assert hs.shape[0] == 5
        for h in hs:
            assert max_constraint_residual(lab, h) <= 1e-12

    @pytest.mark.parametrize("family,dims", [
        ("C", (3,)), ("CI", (3,)), ("D", (3,)), ("DIII", (3,)),
        ("AIII", (2, 2)), ("BDI", (2, 2)), ("CII", (2, 2)),
    ])
    def test_spectral_pairing(self, family, dims, rng):
        lab = label(family, *dims)
        h = sample_gaussian(EnsembleSpec(lab), rng)
        ev = np.linalg.eigvalsh(h)
        assert np.max(np.abs(ev + ev[::-1])) <= 1e-10

    @pytest.mark.parametrize("family", ["AIII", "BDI", "CII"])
    def test_chiral_zero_modes(self, family, rng):
        p, q = (2, 6) if family == "CII" else (1, 4)
        lab = label(family, p, q)
        h = sample_gaussian(EnsembleSpec(lab), rng)
        ev = np.sort(np.abs(np.linalg.eigvalsh(h)))
        k = q - p
        assert np.all(ev[:k] <= 1e-12)
        assert ev[k] > 1e-6  # generic samples have no extra zero modes

    def test_variance_normalization_class_a(self):
        # density ~ exp(-tr H^2 / (2 sigma^2)): diag var sigma^2,
        # off-diagonal re/im var sigma^2 / 2
        rng = RngStream(7)
        sigma = 1.7
        hs = sample_gaussian(EnsembleSpec(label("A", 2), sigma=sigma), rng,
                             size=40_000)
        var_diag = np.var(hs[:, 0, 0].real)
        var_off = np.var(hs[:, 0, 1].real)
        assert abs(var_diag / sigma ** 2 - 1.0) < 0.05
        assert abs(var_off / (sigma ** 2 / 2) - 1.0) < 0.05

    def test_variance_normalization_nambu(self):
        # trace form: exp(-tr H^2 / (2 sigma^2)) with H the 2N x 2N matrix
        rng = RngStream(8)
        hs = sample_gaussian(EnsembleSpec(label("D", 2)), rng, size=40_000)
        # W_01 appears twice in H (as W and -W^t): re/im variance 1/4
        assert abs(np.var(hs[:, 0, 1].real) / 0.25 - 1.0) < 0.05
        # diagonal W_00 appears twice: variance 1/2
        assert abs(np.var(hs[:, 0, 0].real) / 0.5 - 1.0) < 0.05

    def test_k_invariance_of_mean(self, rng):
        # empirical means of H and k H k^{-1} agree within 4 stderr
        lab = label("AI", 4)
        k = linalg.haar_orthogonal(4, RngStream(99)).astype(complex)
        a = sample_gaussian(EnsembleSpec(lab), rng, size=10_000)
        b = sample_gaussian(EnsembleSpec(lab), rng, size=10_000)
        mean_a = a.mean(axis=0)
        mean_b = k @ b.mean(axis=0) @ k.conj().T
        stderr = 1.0 / np.sqrt(10_000)
        assert np.all(np.abs(mean_a - mean_b) <= 8 * stderr)

    def test_classifier_round_trip(self, rng):
        # the canonical setting of each label classifies back to it
        from tenfold.classifier import classify_tenfold
        for lab in (label("A", 4), label("D", 3), label("AIII", 2, 2)):
            report = classify_tenfold(canonical_setting(lab), rng)
            assert report.entries[0].class_label == lab


class TestCircular:
    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_membership(self, lab, rng):
        pair = symspace.involution(lab)
        x = sample_circular(EnsembleSpec(lab, kind="circular"), rng)
        assert symspace.in_space(x, pair, 1e-10)

    def test_coe_symmetric(self, rng):
        x = sample_circular(EnsembleSpec(label("AI", 4), kind="circular"),
                            rng)
        assert linalg.frob(x - x.T) < 1e-12
        assert linalg.is_unitary(x, 1e-10)

    def test_cse_self_dual(self, rng):
        x = sample_circular(EnsembleSpec(label("AII", 4), kind="circular"),
                            rng)
        j = symplectic_form(2)
        assert linalg.frob(j @ x.T @ j.T - x) < 1e-11

    def test_fixed_point_embedding_is_identity(self, rng):
        pair = symspace.involution(label("AI", 3))
        k = linalg.haar_orthogonal(3, rng).astype(complex)
        assert np.allclose(symspace.cartan_embed(k, pair), np.eye(3),
                           atol=1e-12)

    def test_cue_trace_moment(self):
        rng = RngStream(11)
        count = 20_000
        total = 0.0
        for _ in range(count):
            x = sample_circular(EnsembleSpec(label("A", 6), kind="circular"),
                                rng)
            total += abs(np.trace(x)) ** 2
        assert abs(total / count - 1.0) < 0.05

    def test_kind_mismatch_rejected(self, rng):
        with pytest.raises(InputShapeError):
            sample_circular(EnsembleSpec(label("A", 2)), rng)
        with pytest.raises(InputShapeError):
            sample_gaussian(EnsembleSpec(label("A", 2), kind="circular"),
                            rng)


class TestInputValidation:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(InputShapeError):
            EnsembleSpec(label("A", 2), sigma=sigma)

    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_size_must_be_positive(self, size, rng):
        with pytest.raises(InputShapeError):
            sample_gaussian(EnsembleSpec(label("A", 2)), rng, size=size)
        with pytest.raises(InputShapeError):
            sample_circular(EnsembleSpec(label("A", 2), kind="circular"),
                            rng, size=size)


class TestSpacingRatios:
    def test_three_equally_spaced_levels(self):
        stats = spacing_ratios([0.0, 1.0, 2.0])
        assert stats.ratios.shape == (1,)
        assert stats.mean == 1.0
        assert stats.dropped == 0

    def test_degenerate_levels_dropped(self):
        stats = spacing_ratios([0.0, 0.0, 1.0, 2.0])
        assert stats.dropped == 1
        assert stats.mean == 1.0

    def test_needs_three_levels(self):
        with pytest.raises(InputShapeError):
            spacing_ratios([0.0, 1.0])

    def test_ratios_bounded(self, rng):
        values = np.sort(rng.normal(50))
        stats = spacing_ratios(values)
        assert np.all(stats.ratios >= 0) and np.all(stats.ratios <= 1)

    def test_pooled_matches_single(self, rng):
        spectra = np.sort(rng.normal((20, 6)), axis=1)
        pooled = pooled_spacing_ratios(spectra)
        singles = np.concatenate([spacing_ratios(s).ratios for s in spectra])
        assert np.allclose(np.sort(pooled.ratios), np.sort(singles))

    def test_pooled_equals_per_spectrum_rule_with_degeneracies(self, rng):
        spectra = np.sort(rng.normal((40, 7)), axis=1)
        spectra[::3, 2] = spectra[::3, 1]           # one degenerate gap
        spectra[1::5, 4:6] = spectra[1::5, 3:4]     # two in a row
        spectra[2::7, -1] = spectra[2::7, -2]       # the last gap
        spectra[4::9, 1] = spectra[4::9, 0]         # the first gap
        spectra[6] = spectra[6, 0]                  # no gap at all
        pooled = pooled_spacing_ratios(spectra)
        singles = [spacing_ratios(s) for s in spectra]
        assert np.array_equal(pooled.ratios,
                              np.concatenate([s.ratios for s in singles]))
        assert pooled.dropped == sum(s.dropped for s in singles)
        loop = [r for s in spectra for r in oracles.spacing_ratios_oracle(s)]
        assert np.array_equal(pooled.ratios, loop)

    def test_pooled_is_unchanged_without_degeneracies(self, rng):
        spectra = np.sort(rng.normal((25, 6)), axis=1)
        spacings = np.diff(spectra, axis=1)
        r = np.minimum(spacings[:, :-1], spacings[:, 1:]) / \
            np.maximum(spacings[:, :-1], spacings[:, 1:])
        assert np.array_equal(pooled_spacing_ratios(spectra).ratios,
                              r.ravel())

    def test_kramers_spectra_give_the_gse_ratio(self):
        # AII levels come in exact Kramers pairs; without the zero gaps
        # the ratio follows the GSE, <r> = 0.6744 (Atas et al., PRL 110,
        # 084101 (2013))
        draws = sample_gaussian(EnsembleSpec(label("AII", 40)), RngStream(7),
                                size=200)
        stats = pooled_spacing_ratios(np.linalg.eigvalsh(draws))
        assert stats.dropped == 200 * 20
        assert np.isfinite(stats.stderr)
        assert abs(stats.mean - 0.6744) <= 0.02

    def test_no_surviving_ratio_is_rejected(self):
        with pytest.raises(InputShapeError):
            pooled_spacing_ratios(np.zeros((4, 5)))
        with pytest.raises(InputShapeError):
            pooled_spacing_ratios(np.empty((0, 5)))

    def test_poisson_mean_small_sample(self):
        rng = RngStream(5)
        spectra = np.sort(rng.generator.uniform(size=(20_000, 3)), axis=1)
        stats = pooled_spacing_ratios(spectra)
        target = 2 * np.log(2.0) - 1.0
        assert abs(stats.mean - target) <= 4 * stats.stderr

    def test_goe_surmise_small_sample(self):
        rng = RngStream(6)
        draws = sample_gaussian(EnsembleSpec(label("AI", 3)), rng,
                                size=50_000)
        spectra = np.linalg.eigvalsh(draws)
        stats = pooled_spacing_ratios(spectra)
        target = 4.0 - 2.0 * np.sqrt(3.0)
        assert abs(stats.mean - target) <= 4 * stats.stderr


class TestSpectralDensity:
    def test_two_levels_two_bins(self):
        hist = spectral_density([[-1.0, 1.0]], 2)
        assert np.allclose(hist.density, [0.5, 0.5])
        assert np.isclose(np.sum(hist.density) * hist.width, 1.0)

    def test_single_bin_density_is_inverse_range(self):
        hist = spectral_density([[-1.0, 0.3, 1.0]], 1)
        assert np.isclose(hist.density[0], 1.0 / 2.0)

    def test_area_normalized(self, rng):
        spectra = np.linalg.eigvalsh(sample_gaussian(
            EnsembleSpec(label("A", 6)), rng, size=100))
        hist = spectral_density(spectra, 11)
        assert np.isclose(np.sum(hist.density) * hist.width, 1.0)

    def test_class_a_symmetric_density(self):
        rng = RngStream(12)
        spectra = np.linalg.eigvalsh(sample_gaussian(
            EnsembleSpec(label("A", 8)), rng, size=2000))
        hist = spectral_density(spectra, 9)
        asym = np.abs(hist.density - hist.density[::-1])
        assert np.max(asym) < 0.1 * np.max(hist.density)

    def test_d_exceeds_c_at_zero(self):
        # class D piles up density at zero energy, class C is depleted
        rng = RngStream(13)
        bins = 21
        d_spec = np.linalg.eigvalsh(sample_gaussian(
            EnsembleSpec(label("D", 12)), rng, size=300))
        c_spec = np.linalg.eigvalsh(sample_gaussian(
            EnsembleSpec(label("C", 12)), rng, size=300))
        d_hist = spectral_density(d_spec, bins)
        c_hist = spectral_density(c_spec, bins)
        mid = bins // 2
        assert d_hist.density[mid] > c_hist.density[mid]

    def test_empty_rejected(self):
        with pytest.raises(InputShapeError):
            spectral_density([], 3)


class TestConstraintDimensions:
    @pytest.mark.parametrize("lab", ALL_LABELS, ids=str)
    def test_sampler_space_dimension_matches_table(self, lab):
        # brute-force dimension of the subspace carved by the class
        # constraints equals the symmetric-space tangent dimension
        n = lab.matrix_dim
        cons = []
        for c in class_constraints(lab):
            if c.antiunitary:
                cons.append(oracles.constraint_antiunitary(c.u, c.sign))
            else:
                cons.append(lambda h, u=c.u, s=c.sign: u @ h @ u.conj().T -
                            s * h)
        if lab.family in ("D", "DIII"):
            # the canonical symmetric reality; for C / CI the symplectic
            # reality in class_constraints already carves the space
            cons.append(oracles.constraint_nambu(lab.dims[0]))
        dim = oracles.compatible_dimension(n, cons)
        assert dim == compatible_space(lab).tangent_dim
