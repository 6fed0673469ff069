"""Gaussian and circular random-matrix ensembles for the ten classes.

Gaussian samples are drawn from the K-invariant measure with density
proportional to exp(-tr H^2 / (2 sigma^2)) on the class's Hamiltonian
space.  Construction is by orthogonal projection of an isotropic
Hermitian Gaussian onto the constrained subspace, so every structural
relation (reality, skewness, self-duality, block form) holds exactly by
assembly.  Nambu-type classes are assembled as

    H = [[W, Z], [Z^dag, -W^t]]

with W Hermitian and Z symmetric (C), skew (D), and W = 0 for the
time-reversal classes CI / DIII; the chiral classes are block
off-diagonal in the (p, q) grading.

Circular samples are Haar draws in the class's compact group pushed
through the Cartan embedding; for the group-type families the Haar draw
itself is the sample (CUE for class A).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, symspace
from .classifier import FAMILY, ClassLabel, twist
from .errors import InputShapeError

DROP_TOL = 1e-12  # spacings below this fraction of the range: degenerate


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Class label, variance and ensemble kind driving the samplers."""

    label: ClassLabel
    sigma: float = 1.0
    kind: str = "gaussian"

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise InputShapeError("variance parameter must be finite and "
                                  "positive")
        if self.kind not in ("gaussian", "circular"):
            raise InputShapeError(f"unknown ensemble kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class Constraint:
    """One defining relation: u conj(H) u^dag = sign H (anti-unitary
    conjugation) or u H u^dag = sign H (unitary conjugation)."""

    name: str
    u: np.ndarray
    antiunitary: bool
    sign: int

    def residual(self, h):
        acted = np.conj(h) if self.antiunitary else h
        image = self.u @ acted @ self.u.conj().T
        return linalg.frob(image - self.sign * h)


def class_constraints(lab):
    """Defining symmetry operators of the class in the sampler basis.

    These are the operators whose (anti-)commutation carves the class's
    Hamiltonian space out of the Hermitian matrices; every Gaussian
    sample satisfies them to machine precision.
    """
    return tuple(Constraint(name, twist(lab, tw), anti, sign)
                 for name, tw, anti, sign in FAMILY[lab.family].constraints)


def max_constraint_residual(lab, h):
    residuals = [c.residual(h) for c in class_constraints(lab)]
    return max(residuals) if residuals else 0.0


def _hermitian_gaussian(rng, n, sigma, size):
    shape = (n, n) if size is None else (size, n, n)
    m = sigma * (rng.normal(shape) + 1j * rng.normal(shape))
    return 0.5 * (m + np.conj(m.swapaxes(-1, -2)))


def _real_symmetric_gaussian(rng, n, sigma, size):
    shape = (n, n) if size is None else (size, n, n)
    m = sigma * rng.normal(shape)
    return (0.5 * (m + m.swapaxes(-1, -2))).astype(complex)


def _complex_block(rng, p, q, sigma, size):
    shape = (p, q) if size is None else (size, p, q)
    return sigma / np.sqrt(2.0) * (rng.normal(shape) + 1j * rng.normal(shape))


def _assemble_nambu(w, z):
    *lead, n, _ = w.shape
    h = np.zeros((*lead, 2 * n, 2 * n), dtype=complex)
    h[..., :n, :n] = w
    h[..., :n, n:] = z
    h[..., n:, :n] = np.conj(z.swapaxes(-1, -2))
    h[..., n:, n:] = -w.swapaxes(-1, -2)
    return h


def _assemble_chiral(b, p, q):
    *lead, _, _ = b.shape
    h = np.zeros((*lead, p + q, p + q), dtype=complex)
    h[..., :p, p:] = b
    h[..., p:, :p] = np.conj(b.swapaxes(-1, -2))
    return h


def _check_draw(spec, kind, size):
    if spec.kind != kind:
        raise InputShapeError(f"spec.kind must be {kind!r}")
    if size is not None and size < 1:
        raise InputShapeError("sample size must be at least 1")
    count = 1 if size is None else size
    n = spec.label.matrix_dim
    need = count * n * n * 16
    if need > linalg.MAX_ARRAY_BYTES:
        raise InputShapeError(
            f"{count} samples of {n} x {n} matrices need {need} bytes, "
            f"above the limit of {linalg.MAX_ARRAY_BYTES} bytes")


def sample_gaussian(spec, rng, size=None):
    """Draw from the Gaussian ensemble of ``spec.label``.

    Returns an (n, n) matrix, or a stacked (size, n, n) array when
    ``size`` is given.  Structural constraints hold exactly.  A draw
    that overflows (sigma near the float limit) raises
    ``InputShapeError``.
    """
    _check_draw(spec, "gaussian", size)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _gaussian_draw(spec, rng, size)
    if not np.isfinite(h).all():
        raise InputShapeError(f"sigma {spec.sigma!r} overflows the Gaussian "
                              f"draw to non-finite entries")
    return h


def _gaussian_draw(spec, rng, size):
    """The draw of ``sample_gaussian``: the block form and the twists of
    T and P in the family's row choose the construction."""
    lab, sigma = spec.label, spec.sigma
    fam = FAMILY[lab.family]
    twists = {name: tw for name, tw, _, _ in fam.constraints}
    t = twists.get("T")
    if fam.block == "plain":
        n = lab.dims[0]
        if t == "1":
            return _real_symmetric_gaussian(rng, n, sigma, size)
        h = _hermitian_gaussian(rng, n, sigma, size)
        if t is None:
            return h
        j = twist(lab, t)
        dual = j @ np.conj(h) @ j.T
        return 0.5 * (h + dual)
    if fam.block == "nambu":
        n = lab.dims[0]
        full = _hermitian_gaussian(rng, 2 * n, sigma, size)
        a = full[..., :n, :n]
        b = full[..., :n, n:]
        d = full[..., n:, n:]
        w = 0.5 * (a - d.swapaxes(-1, -2))
        if t is not None:
            w = np.zeros_like(w)
        # P = J conj makes Z symmetric (C, CI), P = swap conj skew (D, DIII)
        if twists["P"] == "J":
            z = 0.5 * (b + b.swapaxes(-1, -2))
        else:
            z = 0.5 * (b - b.swapaxes(-1, -2))
        return _assemble_nambu(w, z)
    p, q = lab.dims
    b = _complex_block(rng, p, q, sigma, size)
    if t == "1":
        b = b.real.astype(complex)
    elif t is not None:
        j = twist(lab, t)
        b = 0.5 * (b + j[:p, :p] @ np.conj(b) @ j[p:, p:].T)
    return _assemble_chiral(b, p, q)


def sample_circular(spec, rng, size=None):
    """Draw from the circular ensemble of ``spec.label``.

    A Haar element u of the class's compact group is pushed through the
    Cartan embedding x = u tau(u^{-1}); the result satisfies
    tau(x) = x^{-1}.  For the group-type families A, C, D the Haar draw
    itself is returned (class A gives the CUE).
    """
    _check_draw(spec, "circular", size)
    pair = symspace.involution(spec.label)
    if size is not None:
        return np.stack([symspace.cartan_embed(pair.haar(rng), pair)
                         for _ in range(size)])
    return symspace.cartan_embed(pair.haar(rng), pair)


# ---------------------------------------------------------------------------
# Spectral statistics


@dataclass(frozen=True, eq=False)
class SpectralStats:
    """Consecutive-spacing ratio statistics of one or more spectra."""

    ratios: np.ndarray
    mean: float
    stderr: float
    dropped: int


def _kept_ratios(spectra):
    """Ratios min/max of consecutive kept spacings within each row of a
    stack of sorted spectra, and the number of dropped spacings.

    Spacings below ``DROP_TOL`` times their spectrum's range are dropped
    so exact degeneracies (such as Kramers pairs) do not poison the
    statistic; a ratio never straddles two spectra.
    """
    spacings = np.diff(spectra, axis=1)
    span = spectra[:, -1] - spectra[:, 0]
    good = spacings >= DROP_TOL * np.maximum(span, np.finfo(float).tiny)[:, None]
    row = np.nonzero(good)[0]
    s = spacings[good]
    r = np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])
    return r[row[:-1] == row[1:]], int(np.sum(~good))


def _summary(r, dropped):
    """Mean and standard error of one or more ratios (stderr 0 for one)."""
    stderr = float(np.std(r, ddof=1) / np.sqrt(r.size)) if r.size > 1 else 0.0
    return SpectralStats(ratios=r, mean=float(np.mean(r)), stderr=stderr,
                         dropped=dropped)


def spacing_ratios(values):
    """Ratios min(s_i, s_{i+1}) / max(s_i, s_{i+1}) of level spacings.

    ``values`` must be at least three ascending levels.  Spacings below
    ``DROP_TOL`` times the spectral range are dropped (and counted).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise InputShapeError("need at least three levels")
    if np.any(np.diff(values) < 0):
        raise InputShapeError("levels must be ascending")
    r, dropped = _kept_ratios(values[None])
    if r.size == 0:
        return SpectralStats(ratios=r, mean=np.nan, stderr=np.nan,
                             dropped=dropped)
    return _summary(r, dropped)


def pooled_spacing_ratios(spectra):
    """Spacing-ratio statistics pooled over a stack of sorted spectra.

    Each spectrum follows the rule of ``spacing_ratios``.  Vectorized
    over the leading axis; the standard error treats the pooled ratios
    as independent, which is exact when each spectrum contributes a
    single ratio.  Raises ``InputShapeError`` when no ratio survives.
    """
    spectra = np.atleast_2d(np.asarray(spectra, dtype=float))
    if spectra.shape[1] < 3:
        raise InputShapeError("need at least three levels per spectrum")
    r, dropped = _kept_ratios(spectra)
    if r.size == 0:
        raise InputShapeError("no spacing ratio survives: every spectrum "
                              "has fewer than two non-degenerate spacings")
    return _summary(r, dropped)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Area-normalized eigenvalue density over a symmetric range."""

    centers: np.ndarray
    density: np.ndarray
    edges: np.ndarray
    width: float


def spectral_density(spectra, bins):
    """Normalized eigenvalue histogram over [-max|E|, +max|E|].

    ``spectra`` is a list of real spectra (or a stacked array); the
    histogram integrates to one.
    """
    if bins < 1:
        raise InputShapeError("need at least one bin")
    if isinstance(spectra, np.ndarray):
        pooled = spectra.ravel()
    else:
        if not spectra:
            raise InputShapeError("need at least one spectrum")
        pooled = np.concatenate([np.asarray(s, dtype=float).ravel()
                                 for s in spectra])
    if pooled.size == 0:
        raise InputShapeError("need at least one eigenvalue")
    vmax = float(np.max(np.abs(pooled)))
    if vmax == 0.0:
        vmax = 1.0
    edges = np.linspace(-vmax, vmax, bins + 1)
    counts, _ = np.histogram(pooled, bins=edges)
    width = edges[1] - edges[0]
    density = counts / (pooled.size * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Histogram(centers=centers, density=density, edges=edges,
                     width=float(width))
