"""Symmetry-class decision procedure.

``classify_threefold`` reduces a Hilbert-space setting (unitary group
G0, optional time reversal T) to per-sector Dyson classes A / AI / AII.
``classify_tenfold`` promotes a setting to Nambu space W = V + V* and
recognizes the canonical post-Dyson configurations, yielding per sector
one of the ten Cartan families together with the compact symmetric
space of compatible time evolutions.

Pattern recognition is structural, not name-based: both decompose G0
once and look up one SIGNATURE row per isotypic sector, keyed on its
real, complex or quaternionic type read from the matrices alone, so any
unitary change of basis of the input leaves the labels unchanged.
"""

from dataclasses import dataclass

import numpy as np

from . import grouprep, linalg
from .antiunitary import AntiUnitaryOp, parity, sector_action, transfer_T
from .errors import (InputShapeError, SymmetryConsistencyError,
                     UnsupportedConfigurationError)
from .grouprep import (GroupAction, dual_sum, isotypic_decompose,
                       self_duality_type, spin_half_action, trivial_action,
                       u1_charge_action)


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


# The decision table of both classifiers, read once per sector: (G0 of the
# canonical setting, eps_T of its exact T twist or None, twisted C present)
# -> family.  G0 is one sector: ``trivial`` a real character, ``u1`` a
# complex one, and ``spin-half`` a quaternionic irreducible.
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
    if action.elements is not None:
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
    # an anti-Hermitian generator x acts on V* as conj(x) = -x^t
    g0 = GroupAction(dim=2 * n,
                     generators=tuple(dual_sum(g) for g in act.generators),
                     elements=None if act.elements is None else
                     dual_sum(act.elements))
    tol = setting.tolerance
    t_w = None
    if setting.time_reversal is not None:
        t_w = AntiUnitaryOp(dual_sum(setting.time_reversal.u), tol)
    c_w = None
    if setting.particle_hole is not None:
        s = np.asarray(setting.particle_hole, dtype=complex)
        if linalg.frob(s @ s - np.eye(n)) > tol * n:
            raise InputShapeError("S must be an involution")
        c_w = AntiUnitaryOp(dual_sum(s) @ nambu_form(n), tol)
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
# Classification


def classify_threefold(setting, rng=None):
    """Dyson classes A / AI / AII of a Hilbert-space setting, one per
    sector of G0 or pair of sectors that T swaps (see ``_classify``)."""
    if setting.kind != "hilbert":
        raise InputShapeError("threefold classification runs on the "
                              "Hilbert-space setting")
    return _classify(setting, rng, tenfold=False)


def classify_tenfold(setting, rng=None):
    """Cartan families of a (promoted) Nambu-space setting, one per
    sector of G0 on W = V + V* (see ``_classify``)."""
    base = setting if setting.kind == "hilbert" else setting.base
    if base is None:
        raise InputShapeError("nambu setting lacks its originating "
                              "hilbert setting")
    return _classify(base, rng, tenfold=True)


def _unsupported(g0_name, eps_t, has_c):
    """The exit-4 error, with the patterns of a one-sector G0."""
    what = {"trivial": "trivial G0",
            "spin-half": "quaternionic sector"}.get(g0_name)
    head = (f"{what} with positive-parity T is outside the decision table"
            if what and eps_t == 1 and not has_c else
            "unrecognized symmetry configuration")
    t = "False" if eps_t is None else f"True (eps_T = {eps_t:+d})"
    return UnsupportedConfigurationError(
        f"{head}; G0 trivial: {g0_name == 'trivial'}; G0 U(1) charge: "
        f"{g0_name == 'u1'}; G0 single quaternionic sector: "
        f"{g0_name == 'spin-half'}; T present: {t}; charge conjugation "
        f"present: {has_c}")


def _classify(base, rng, tenfold):
    """Decompose G0 on V once, pair its sectors and look up one
    ``SIGNATURE`` row per entry.

    Threefold reads each sector in Dyson's column (``u1``, no C), keyed
    on the parity eps_alpha of T's factor on its multiplicity space; a
    pair T swaps is one A entry.  Tenfold reads ``self_duality_type``: a
    real character is ``trivial``, a quaternionic irreducible
    ``spin-half``, a complex character ``u1`` that joins its dual (one
    sector of W, multiplicity m + m*).  The key is T's parity in the
    sector's canonical setting, eps_alpha times -1 when quaternionic
    (that T has eps_beta = -1): eps_T when d = 1.  A chiral entry reads
    (p, q) from the signs of S on its factor bases.  A key outside the
    table, a T that swaps sectors or an S that moves one exits 4.
    """
    rng = linalg.RngStream(0) if rng is None else rng
    tol, n, g0, t = base.tolerance, base.dim, base.g0, base.time_reversal
    has_c = tenfold and base.particle_hole is not None
    if has_c:
        s = np.asarray(base.particle_hole, dtype=complex)
        s = 0.5 * (s + s.conj().T)  # an involution: unitary and Hermitian
    eps_t = parity(t, tol) if t is not None else None
    blocks = isotypic_decompose(g0, rng, tol=tol)
    fs = [(self_duality_type(g0, b, tol), b.irrep_dim) if tenfold else
          (0, 1) for b in blocks]  # threefold: every sector a charge
    types = [{(1, 1): "trivial", (0, 1): "u1"}.get(
        k, "spin-half" if k[0] == -1 else None) for k in fs]
    found = (types[0] if len(blocks) == 1 else None, eps_t, has_c)
    pairs = {}  # T cannot swap a single sector
    if t is not None and len(blocks) > 1:
        pairs = {lam: mu for pair in sector_action(t, blocks, tol).swapped
                 for lam, mu in (pair, pair[::-1])}
    moved = False
    if has_c:  # S moves sector b: 2 sum_{a != b} ||Y_ab||^2 > (tol dim_b)^2
        at = np.cumsum([0] + [b.dim for b in blocks])  # columns of F
        f = np.hstack([b.factor_basis for b in blocks])
        y = f.conj().T @ s @ f
        off = linalg.block_weights(y, at[:-1])
        np.fill_diagonal(off, 0)
        moved = (2 * off.sum(axis=0) > (tol * np.diff(at)) ** 2).any()
    if tenfold and (None in types or pairs or moved):
        raise _unsupported(*found)
    if tenfold and len(blocks) > 1:  # a charge joins its dual charge
        u1 = [b for b, kind in zip(blocks, types) if kind == "u1"]
        chi = np.array([[b.irrep_matrix(g)[0, 0] for g in g0.generators]
                        for b in u1])  # one row per u1 sector
        pairs = {u1[lam].label: u1[mu].label for lam, mu in np.argwhere(
            (np.abs(chi[:, None] - np.conj(chi)) <= tol).all(axis=-1))}
    entries = []
    for b, kind in zip(blocks, types):
        mu = pairs.get(b.label, b.label)
        if mu < b.label:
            continue
        group = [b] if mu == b.label else [b, blocks[mu]]
        m, eps = sum(c.multiplicity for c in group), {"eps_t": eps_t}
        if not tenfold and len(group) == 2:  # a pair of sectors T swaps
            m, family = b.multiplicity, SIGNATURE["u1", None, False]
        else:
            tt = transfer_T(b, t, tol) if t is not None and (
                not tenfold or kind == "spin-half") else None
            sign = -1 if kind == "spin-half" else 1
            family = SIGNATURE.get(
                (kind, eps_t if tt is None else sign * tt.eps_alpha, has_c))
            if family is None:
                raise _unsupported(*found)
            if t is not None and not tt and FAMILY[family].block == "plain":
                tt = transfer_T(b, t, tol)
            if tt is not None:
                eps.update(eps_alpha=tt.eps_alpha, eps_beta=tt.eps_beta)
        dims = (m,)
        if has_c:  # (p, q): the signs of S on the entry's factor bases
            rows = np.concatenate([np.arange(at[c.label], at[c.label + 1])
                                   for c in group])
            p = int(np.sum(np.linalg.eigvalsh(y[rows[:, None], rows]) > 0))
            dims = (p, m - p)
        entries.append(BlockEntry(tuple(c.label for c in group), b.irrep_dim,
                                  m, label(family, *dims), **eps))
    return ClassificationReport("tenfold" if tenfold else "threefold",
                                2 * n if tenfold else n, tuple(entries))


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
