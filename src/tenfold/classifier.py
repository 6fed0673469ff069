"""Symmetry-class decision procedure.

``classify_threefold`` reduces a Hilbert-space setting (unitary group
G0, optional time reversal T) to per-sector Dyson classes A / AI / AII.
``classify_tenfold`` promotes a setting to Nambu space W = V + V* and
recognizes the canonical post-Dyson configurations, yielding one of the
ten Cartan families together with the compact symmetric space of
compatible time evolutions.

Pattern recognition is structural, not name-based: the trivial group,
the U(1) charge action, and "single quaternionic sector" are detected
from commutant data and self-duality types, so any unitary change of
basis of the input leaves the labels unchanged.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import grouprep, linalg
from .antiunitary import AntiUnitaryOp, parity, sector_action, transfer_T
from .errors import (InputShapeError, SymmetryConsistencyError,
                     UnsupportedConfigurationError)
from .grouprep import (GroupAction, MODE_FINITE, MODE_LIE, dual_sum,
                       isotypic_decompose, self_duality_type,
                       spin_half_action, trivial_action, u1_charge_action)


@dataclass(frozen=True)
class Family:
    """One row of the Altland-Zirnbauer table (Phys. Rev. B 55, 1142).

    ``block``: Hamiltonian block form, ``plain`` (H on C^N), ``nambu``
    ([[W, Z], [Z^dag, -W^t]] on C^(2N)) or ``chiral`` (off-diagonal in
    a (p, q) grading).  ``constraints``: defining relations (name,
    twist, anti-unitary, sign) in the sampler basis.  ``tau``: Cartan
    involution (kind, twist) on the compact group ``ambient``, whose
    symplectic form is the twist ``ambient_form``.  ``space``: U, K and
    block form, with n = N or p + q and n2 = 2N; ``tangent_dim(n, p,
    q)`` is dim U/K.  ``setting``: G0 and the T twist of the canonical
    Hilbert-space setting (chiral rows add the grading S).  ``even``
    asks for even dims.  Twists name the matrices built by ``twist``.
    """

    block: str
    constraints: tuple
    tau: tuple
    ambient: str
    space: tuple
    tangent_dim: object
    setting: tuple
    even: bool = False
    ambient_form: str = None


_P_J, _P_SWAP = ("P", "J", True, -1), ("P", "swap", True, -1)
_S = ("S", "S", False, -1)

FAMILY = {
    "A": Family("plain", (), ("flip", None), "unitary",
                ("U_{n}", "", "H complex Hermitian"),
                lambda n, p, q: n * n, ("u1", None)),
    "AI": Family("plain", (("T", "1", True, 1),), ("conj", None), "unitary",
                 ("U_{n}", "O_{n}", "H real symmetric"),
                 lambda n, p, q: n * (n + 1) // 2, ("u1", "1")),
    "AII": Family("plain", (("T", "J", True, 1),), ("conj_J", "J"),
                  "unitary", ("U_{n}", "USp_{n}", "H quaternion self-dual"),
                  lambda n, p, q: n * (n - 1) // 2, ("u1", "J"), even=True),
    "C": Family("nambu", (_P_J,), ("flip", None), "symplectic-unitary",
                ("USp_{n2}", "", "W Hermitian, Z complex symmetric"),
                lambda n, p, q: n * (2 * n + 1), ("spin-half", None),
                ambient_form="J"),
    "CI": Family("nambu", (_P_J, ("T", "swap", True, 1)), ("conj", None),
                 "symplectic-unitary",
                 ("USp_{n2}", "U_{n}", "Z complex symmetric, W = 0"),
                 lambda n, p, q: n * (n + 1), ("spin-half", "Jspin"),
                 ambient_form="J"),
    "D": Family("nambu", (_P_SWAP,), ("flip", None), "special-orthogonal",
                ("SO_{n2}", "", "W Hermitian, Z complex skew"),
                lambda n, p, q: n * (2 * n - 1), ("trivial", None)),
    "DIII": Family("nambu", (_P_SWAP, ("T", "J", True, 1)),
                   ("conj_J", "J"), "special-orthogonal",
                   ("SO_{n2}", "U_{n}", "Z complex skew, W = 0"),
                   lambda n, p, q: n * (n - 1), ("trivial", "J")),
    "AIII": Family("chiral", (_S,), ("adj_S", "S"), "unitary",
                   ("U_{n}", "U_{p} x U_{q}", "Z complex {p} x {q}, W = 0"),
                   lambda n, p, q: 2 * p * q, ("u1", None)),
    "BDI": Family("chiral", (_S, ("T", "1", True, 1)), ("adj_S", "S"),
                  "orthogonal",
                  ("O_{n}", "O_{p} x O_{q}", "Z real {p} x {q}, W = 0"),
                  lambda n, p, q: p * q, ("u1", "1")),
    "CII": Family("chiral", (_S, ("T", "Jpq", True, 1)), ("adj_S", "S"),
                  "symplectic-unitary",
                  ("USp_{n}", "USp_{p} x USp_{q}",
                   "Z quaternion {p} x {q}, W = 0"),
                  lambda n, p, q: p * q, ("u1", "Jpq"), even=True,
                  ambient_form="Jpq"),
}
FAMILIES = tuple(FAMILY)


@dataclass(frozen=True)
class ClassLabel:
    """A Cartan family with its block dimensions (N, or (p, q))."""

    family: str
    dims: tuple

    def __post_init__(self):
        if self.family not in FAMILY:
            raise InputShapeError(f"unknown family {self.family!r}")
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        row = FAMILY[self.family]
        rank = 2 if row.block == "chiral" else 1
        if len(dims) != rank or min(dims) < 0 or sum(dims) < 1:
            shape = "dims (p, q)" if rank == 2 else \
                "a single positive dimension"
            raise InputShapeError(f"{self.family} needs {shape}")
        if row.even and any(d % 2 for d in dims):
            raise InputShapeError(f"{self.family} needs even dimensions")

    @property
    def matrix_dim(self):
        """Size of the Hamiltonian matrices of this class."""
        n = sum(self.dims)
        return 2 * n if FAMILY[self.family].block == "nambu" else n

    @property
    def space_name(self):
        return compatible_space(self).space_name

    def __str__(self):
        dims = ",".join(str(d) for d in self.dims)
        return f"{self.family}({dims})"


def label(family, *dims):
    """Shorthand constructor, e.g. ``label("AIII", 1, 2)``."""
    return ClassLabel(family=family, dims=tuple(dims))


_TWISTS = {
    "1": lambda n, p, q: np.eye(n),
    "J": lambda n, p, q: linalg.symplectic_form(n // 2),
    "swap": lambda n, p, q: nambu_form(n // 2),
    "Jspin": lambda n, p, q: np.kron(np.eye(n // 2), 1j * grouprep.PAULI_Y),
    "S": lambda n, p, q: np.diag(np.concatenate([np.ones(p), -np.ones(q)])),
    "Jpq": lambda n, p, q: np.block(
        [[linalg.symplectic_form(p // 2), np.zeros((p, q))],
         [np.zeros((q, p)), linalg.symplectic_form(q // 2)]]),
}


def twist(lab, name, size=None):
    """The named fixed matrix of a family's row at ``size`` (default:
    the Hamiltonian size), or None for no name.

    ``1`` identity, ``J`` standard symplectic form, ``swap`` pairing of
    V with V* in W = V + V*, ``S`` chiral grading diag(+1 x p, -1 x q),
    ``Jpq`` symplectic form on each grading block, ``Jspin`` I (x) i
    sigma_y (spin fast).
    """
    n = lab.matrix_dim if size is None else size
    if name == "J" and n % 2:
        raise InputShapeError(f"{lab}: J needs an even dimension, got {n}")
    chiral = FAMILY[lab.family].block == "chiral"
    p, q = lab.dims if chiral else (0, 0)
    return None if name is None else _TWISTS[name](n, p, q)


# The decision table of both classifiers: (G0 of the canonical setting,
# eps_T of its exact T twist or None, twisted C present) -> family, where
# ``spin-half`` stands for any G0 with a single quaternionic sector.
SIGNATURE = {(g0, None if t is None else
              parity(AntiUnitaryOp(_TWISTS[t](4, 2, 2), 0), 0),
              fam.block == "chiral"): name
             for name, fam in FAMILY.items() for g0, t in [fam.setting]}


@dataclass(frozen=True)
class CompatibleSpace:
    """Symmetric-space data of the compatible time evolutions."""

    space_name: str
    group: str
    subgroup: str
    form: str
    tangent_dim: int


def compatible_space(lab):
    """Group U, subgroup K and Hamiltonian block form for a class label.

    ``tangent_dim`` is the real dimension of the space of compatible
    Hamiltonians (the tangent space of U/K).
    """
    fam = FAMILY[lab.family]
    p, q = lab.dims if fam.block == "chiral" else (0, 0)
    n = sum(lab.dims)
    group, subgroup, form = (text.format(n=n, n2=2 * n, p=p, q=q)
                             for text in fam.space)
    if not subgroup:
        name = group
    elif " x " in subgroup:
        name = f"{group}/({subgroup})"
    else:
        name = f"{group}/{subgroup}"
    return CompatibleSpace(name, group, subgroup, form,
                           fam.tangent_dim(n, p, q))


# ---------------------------------------------------------------------------
# Symmetry settings


@dataclass(frozen=True, eq=False)
class SymmetrySetting:
    """A full problem instance: space kind, G0 action, optional T and S.

    ``particle_hole`` stores the unitary involution S on V that twists
    particle-hole conjugation; the induced anti-unitary on W = V + V*
    exists only on settings of kind ``nambu`` (see ``build_nambu``).
    """

    kind: str
    dim: int
    g0: GroupAction
    time_reversal: AntiUnitaryOp = None
    particle_hole: np.ndarray = None
    charge_conjugation: AntiUnitaryOp = None
    base: "SymmetrySetting" = None
    tol: float = None

    @property
    def tolerance(self):
        return linalg.TOL_INPUT if self.tol is None else self.tol


def hilbert_setting(g0, time_reversal=None, particle_hole=None, tol=None):
    """Validated Hilbert-space setting."""
    setting = SymmetrySetting(kind="hilbert", dim=g0.dim, g0=g0,
                              time_reversal=time_reversal,
                              particle_hole=particle_hole, tol=tol)
    validate_setting(setting)
    return setting


def _check_conjugation_symmetry(action, conjugate, what, tol):
    """Conjugation must map the G0 action into itself."""
    if action.mode == MODE_FINITE:
        for g in action.generators:
            off = linalg.frob_each(action.elements - conjugate(g))
            if off.min() > tol * action.dim:
                raise SymmetryConsistencyError(
                    f"{what} does not normalize the symmetry group")
    else:
        gens = list(action.generators)
        scale = max(linalg.frob(g) for g in gens)
        off = linalg.off_span(gens, [conjugate(g) for g in gens])
        if np.linalg.norm(off, axis=-1).max() > tol * max(1.0, scale):
            raise SymmetryConsistencyError(
                f"{what} does not normalize the symmetry algebra")


def validate_setting(setting):
    """Run the consistency checks a setting must satisfy."""
    tol = setting.tolerance
    n = setting.dim
    if setting.g0.dim != n:
        raise InputShapeError("G0 dimension does not match the setting")
    t = setting.time_reversal
    if t is not None:
        if t.dim != n:
            raise InputShapeError("time-reversal dimension mismatch")
        parity(t, tol)  # raises NotInvolutiveError when not an inversion
        _check_conjugation_symmetry(setting.g0, t.conjugate_linear,
                                    "time reversal", tol)
    s = setting.particle_hole
    if s is not None:
        s = np.asarray(s, dtype=complex)
        if s.shape != (n, n):
            raise InputShapeError("particle-hole involution shape mismatch")
        if not linalg.is_unitary(s, max(tol, linalg.tol_unitary(n))):
            raise InputShapeError("particle-hole twist S must be unitary")
        if linalg.frob(s @ s - np.eye(n)) > tol * n:
            raise SymmetryConsistencyError("S must be an involution")
        _check_conjugation_symmetry(setting.g0, lambda g: s @ g @ s.conj().T,
                                    "particle-hole twist", tol)
        if t is not None:
            if linalg.frob(s @ t.u - t.u @ np.conj(s)) > tol * n:
                raise SymmetryConsistencyError(
                    "S must commute with time reversal")


# ---------------------------------------------------------------------------
# Nambu space


def nambu_form(n):
    """Canonical symmetric bilinear form on W = V + V*."""
    q = np.zeros((2 * n, 2 * n))
    q[:n, n:] = np.eye(n)
    q[n:, :n] = np.eye(n)
    return q


def _induced_algebra(x):
    n = x.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = x
    out[n:, n:] = -x.T
    return out


def build_nambu(setting):
    """Promote a Hilbert-space setting to Nambu space W = V + V*.

    Unitary symmetries act as g (x) (g^{-1})^t, time reversal is induced
    the same way on the dual, and the particle-hole twist S becomes the
    anti-unitary charge conjugation swapping V with V* (its overall
    alternating sign on Fock space cancels in every conjugation action
    and is dropped here).
    """
    if setting.kind != "hilbert":
        raise InputShapeError("build_nambu expects a hilbert-kind setting")
    n = setting.dim
    act = setting.g0
    if act.mode == MODE_FINITE:
        g0 = GroupAction(dim=2 * n, mode=MODE_FINITE,
                         generators=tuple(dual_sum(g)
                                          for g in act.generators),
                         elements=dual_sum(act.elements))
    else:
        g0 = GroupAction(dim=2 * n, mode=MODE_LIE,
                         generators=tuple(_induced_algebra(x)
                                          for x in act.generators))
    tol = setting.tolerance
    t_w = None
    if setting.time_reversal is not None:
        t_w = AntiUnitaryOp(dual_sum(setting.time_reversal.u), tol)
    c_w = None
    if setting.particle_hole is not None:
        s = np.asarray(setting.particle_hole, dtype=complex)
        if linalg.frob(s @ s - np.eye(n)) > tol * n:
            raise InputShapeError("S must be an involution")
        u = np.zeros((2 * n, 2 * n), dtype=complex)
        u[:n, n:] = s
        u[n:, :n] = np.conj(s)
        c_w = AntiUnitaryOp(u, tol)
    return SymmetrySetting(kind="nambu", dim=2 * n, g0=g0,
                           time_reversal=t_w,
                           particle_hole=setting.particle_hole,
                           charge_conjugation=c_w, base=setting,
                           tol=setting.tol)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, eq=False)
class BlockEntry:
    """One classified sector: dimensions, class label, parities."""

    sector_labels: tuple
    irrep_dim: int
    multiplicity: int
    class_label: ClassLabel
    eps_t: int = None
    eps_alpha: int = None
    eps_beta: int = None

    def line(self):
        lam = ",".join(str(i) for i in self.sector_labels)
        return (f"lambda={lam} d={self.irrep_dim} m={self.multiplicity} "
                f"class={self.class_label.family} "
                f"space={self.class_label.space_name}")


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Per-sector class labels plus an echo of the classified setting."""

    mode: str
    dim: int
    entries: tuple

    def lines(self):
        return [e.line() for e in self.entries]

    def as_dict(self):
        return {
            "mode": self.mode,
            "dim": self.dim,
            "blocks": [
                {
                    "lambda": list(e.sector_labels),
                    "d": e.irrep_dim,
                    "m": e.multiplicity,
                    "class": e.class_label.family,
                    "dims": list(e.class_label.dims),
                    "space": e.class_label.space_name,
                    "eps_t": e.eps_t,
                    "eps_alpha": e.eps_alpha,
                    "eps_beta": e.eps_beta,
                }
                for e in self.entries
            ],
        }

    def families(self):
        return tuple(e.class_label.family for e in self.entries)


# ---------------------------------------------------------------------------
# Threefold classification


def classify_threefold(setting, rng=None):
    """Dyson classification of a Hilbert-space setting, sector by sector.

    Sectors without time reversal, and conjugate pairs of sectors that T
    exchanges, are class A; fixed sectors are AI or AII according to the
    parity of the transferred factor acting on the multiplicity space.
    Swapped pairs are reported once, with both sector labels listed.
    """
    if setting.kind != "hilbert":
        raise InputShapeError("threefold classification runs on the "
                              "Hilbert-space setting")
    rng = linalg.RngStream(0) if rng is None else rng
    blocks = isotypic_decompose(setting.g0, rng, tol=setting.tolerance)
    by_label = {b.label: b for b in blocks}
    t = setting.time_reversal
    unitary = SIGNATURE["u1", None, False]
    entries = []
    if t is None:
        for b in blocks:
            entries.append(BlockEntry((b.label,), b.irrep_dim,
                                      b.multiplicity,
                                      label(unitary, b.multiplicity)))
        return ClassificationReport("threefold", setting.dim, tuple(entries))

    eps_t = parity(t, setting.tolerance)
    pairing = sector_action(t, blocks, setting.tolerance)
    for lam in pairing.fixed:
        b = by_label[lam]
        tt = transfer_T(b, t, setting.tolerance)
        family = SIGNATURE["u1", tt.eps_alpha, False]
        entries.append(BlockEntry((lam,), b.irrep_dim, b.multiplicity,
                                  label(family, b.multiplicity),
                                  eps_t=eps_t, eps_alpha=tt.eps_alpha,
                                  eps_beta=tt.eps_beta))
    for lam, mu in pairing.swapped:
        b, c = by_label[lam], by_label[mu]
        if b.multiplicity != c.multiplicity:
            raise SymmetryConsistencyError("swapped sectors with unequal "
                                           "multiplicity")
        entries.append(BlockEntry((lam, mu), b.irrep_dim, b.multiplicity,
                                  label(unitary, b.multiplicity),
                                  eps_t=eps_t))
    entries.sort(key=lambda e: e.sector_labels)
    return ClassificationReport("threefold", setting.dim, tuple(entries))


# ---------------------------------------------------------------------------
# Tenfold classification


def _is_u1_charge(action, tol):
    """True when the action is generated by i times the identity."""
    if action.mode != MODE_LIE:
        return False
    eye = np.eye(action.dim)
    z = [np.trace(x) / action.dim for x in action.generators]
    return all(linalg.frob(x - c * eye) <= tol * max(1.0, linalg.frob(x))
               and abs(c.real) <= tol
               for x, c in zip(action.generators, z)) and \
        any(abs(c) > tol for c in z)


def _unsupported(head, trivial, u1, quaternionic, eps_t, has_c):
    """The exit-4 error: ``head`` and the patterns that were found."""
    t = "False" if eps_t is None else f"True (eps_T = {eps_t:+d})"
    return UnsupportedConfigurationError(
        f"{head}; G0 trivial: {trivial}; G0 U(1) charge: {u1}; G0 single "
        f"quaternionic sector: {quaternionic}; T present: {t}; charge "
        f"conjugation present: {has_c}")


def classify_tenfold(setting, rng=None):
    """Tenfold classification of a (promoted) Nambu-space setting.

    G0 is recognized as trivial, a U(1) charge or a single quaternionic
    sector; with the parity of T and the presence of twisted
    particle-hole conjugation that names a canonical setting, and
    ``SIGNATURE`` its family: D, DIII, C, CI, AIII, BDI or CII.  A
    conserved charge without particle-hole conjugation falls back to the
    Dyson classification.  Anything else raises
    ``UnsupportedConfigurationError`` with a pattern diagnostic.
    """
    rng = linalg.RngStream(0) if rng is None else rng
    base = setting if setting.kind == "hilbert" else setting.base
    if base is None:
        raise InputShapeError("nambu setting lacks its originating "
                              "hilbert setting")
    tol, n, g0, t = base.tolerance, base.dim, base.g0, base.time_reversal
    has_c = base.particle_hole is not None

    trivial = g0.is_trivial(tol)
    u1 = _is_u1_charge(g0, tol)
    eps_t = parity(t, tol) if t is not None else None

    quaternionic = False
    if not trivial and not u1:
        blocks = isotypic_decompose(g0, rng, tol=tol)
        block = blocks[0]
        quaternionic = (len(blocks) == 1 and
                        self_duality_type(g0, block, tol) == -1)

    if u1 and not has_c:
        fallback = classify_threefold(replace(base, particle_hole=None), rng)
        return ClassificationReport("tenfold", 2 * n, fallback.entries)

    g0_name = ("trivial" if trivial else "u1" if u1 else
               "spin-half" if quaternionic else None)
    found = (trivial, u1, quaternionic, eps_t, has_c)
    family = SIGNATURE.get((g0_name, eps_t, has_c))
    if family is None:
        what = {"trivial": "trivial G0",
                "spin-half": "quaternionic sector"}.get(g0_name)
        raise _unsupported(
            f"{what} with positive-parity T is outside the decision table"
            if what and eps_t == 1 and not has_c else
            "unrecognized symmetry configuration", *found)

    d, m = (block.irrep_dim, block.multiplicity) if quaternionic else (1, n)
    if has_c:
        s = np.asarray(base.particle_hole, dtype=complex)
        p = int(np.sum(np.linalg.eigvalsh(0.5 * (s + s.conj().T)) > 0))
    dims = (p, n - p) if has_c else (m,)
    eps = {}
    if quaternionic and t is not None:
        tt = transfer_T(block, t, tol)
        if tt.eps_alpha != 1:
            raise _unsupported("quaternionic sector with eps_alpha = -1 is "
                               "outside the decision table", *found)
        eps = {"eps_alpha": tt.eps_alpha, "eps_beta": tt.eps_beta}
    entry = BlockEntry((0,), d, m, label(family, *dims), eps_t=eps_t, **eps)
    return ClassificationReport("tenfold", 2 * n, (entry,))


# ---------------------------------------------------------------------------
# Canonical settings for the ten families


_G0 = {"u1": u1_charge_action, "trivial": trivial_action,
       "spin-half": lambda n: spin_half_action(2 * n)}


def canonical_setting(lab):
    """The reference Hilbert-space setting whose classification is ``lab``.

    Used by the ensemble round-trip checks: a sample drawn for ``lab``
    satisfies every symmetry constraint of ``canonical_setting(lab)``.
    """
    fam = FAMILY[lab.family]
    g0_name, t_name = fam.setting
    g0 = _G0[g0_name](sum(lab.dims))
    t = twist(lab, t_name, g0.dim)
    s = twist(lab, "S") if fam.block == "chiral" else None
    return hilbert_setting(g0, None if t is None else AntiUnitaryOp(t),
                           particle_hole=s)
