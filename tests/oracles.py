"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own algorithms:
multiplicities come from explicit irreducible matrices and characters,
self-duality types from character sums over squared elements,
commutants and hom spaces from the full Kronecker constraint system
(and from one block-diagonal system, which shares the library's
generic element and clusters), isotypic sectors from one SVD per
commutant slice (with the random commutant element that keys the
library's sector labels), sector pairings by matching each transported
projector against every sector projector, dual charges by one
``np.allclose`` per pair of characters,
group closures from a linear duplicate scan, tangent dimensions from
brute-force real-linear constraint solving, the double-commutator
closure test from every triple of basis elements, tangent splits from
one SVD span per tau eigenspace, wedge products from
permutation sorting on index tuples, the Majorana generator from
the 2N x 2N change of coefficient basis, Fock operators and the Fock-space
checks from dense 2^N x 2^N matrices with Fock lifts from minors
(and the CAR residual, Fock lifts and covering images from the former
per-mode loops of the library),
spacing ratios from a plain loop, and sample-file records as nested
[re, im] lists for ``json.dumps`` (and the former sample-file writer,
which formats every float with ``repr``, and reader, which decodes
every record with ``json``).
"""

import contextlib
import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm
from tenfold import focklab, grouprep, linalg, specfile, symspace
from tenfold.antiunitary import SectorPairing
from tenfold.errors import (DegenerateDecompositionError, InputShapeError,
                            SymmetryConsistencyError)


# ---------------------------------------------------------------------------
# Finite groups with explicit irreducible representations


@dataclass(frozen=True)
class GroupData:
    """A finite group given by explicit generator images per irrep."""

    name: str
    generators: tuple          # generator matrices of a faithful rep
    irreps: dict               # name -> tuple of generator images


def group_elements_in_rep(group, rep_gens):
    """Element list of a rep, words matched across representations.

    Walks the Cayley graph with the faithful representation and applies
    the identical words to ``rep_gens``.
    """
    faithful = group.generators
    dim_f = faithful[0].shape[0]
    dim_r = rep_gens[0].shape[0]
    elements_f = [np.eye(dim_f, dtype=complex)]
    elements_r = [np.eye(dim_r, dtype=complex)]
    frontier = [0]
    while frontier:
        new = []
        for idx in frontier:
            for gf, gr in zip(faithful, rep_gens):
                cand_f = gf @ elements_f[idx]
                if not any(np.allclose(cand_f, e, atol=1e-10)
                           for e in elements_f):
                    elements_f.append(cand_f)
                    elements_r.append(gr @ elements_r[idx])
                    new.append(len(elements_f) - 1)
        frontier = new
    return elements_f, elements_r


_OMEGA = np.exp(2j * np.pi / 3)

_Z3 = GroupData(
    name="Z3",
    generators=(np.roll(np.eye(3), 1, axis=0).astype(complex),),
    irreps={
        "triv": (np.array([[1.0 + 0j]]),),
        "omega": (np.array([[_OMEGA]]),),
        "omega_bar": (np.array([[np.conj(_OMEGA)]]),),
    },
)

_ROT3 = np.array([[np.cos(2 * np.pi / 3), -np.sin(2 * np.pi / 3)],
                  [np.sin(2 * np.pi / 3), np.cos(2 * np.pi / 3)]],
                 dtype=complex)
_REFL = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_S3 = GroupData(
    name="S3",
    generators=(_ROT3, _REFL),
    irreps={
        "triv": (np.eye(1, dtype=complex), np.eye(1, dtype=complex)),
        "sign": (np.eye(1, dtype=complex), -np.eye(1, dtype=complex)),
        "std": (_ROT3, _REFL),
    },
)

_ROT4 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

_D4 = GroupData(
    name="D4",
    generators=(_ROT4, _REFL),
    irreps={
        "triv": (np.eye(1, dtype=complex), np.eye(1, dtype=complex)),
        "r-": (np.eye(1, dtype=complex), -np.eye(1, dtype=complex)),
        "s-": (-np.eye(1, dtype=complex), np.eye(1, dtype=complex)),
        "rs-": (-np.eye(1, dtype=complex), -np.eye(1, dtype=complex)),
        "2d": (_ROT4, _REFL),
    },
)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_Q8 = GroupData(
    name="Q8",
    generators=(1j * _SX, 1j * _SZ),
    irreps={
        "triv": (np.eye(1, dtype=complex), np.eye(1, dtype=complex)),
        "x-": (np.eye(1, dtype=complex), -np.eye(1, dtype=complex)),
        "z-": (-np.eye(1, dtype=complex), np.eye(1, dtype=complex)),
        "xz-": (-np.eye(1, dtype=complex), -np.eye(1, dtype=complex)),
        "2d": (1j * _SX, 1j * _SZ),
    },
)

_TRIVIAL = GroupData(
    name="trivial",
    generators=(np.eye(1, dtype=complex),),
    irreps={"triv": (np.eye(1, dtype=complex),)},
)

GROUPS = {g.name: g for g in (_TRIVIAL, _Z3, _S3, _D4, _Q8)}


def irrep_elements(group, name):
    """Element matrices of one irrep, aligned with the faithful walk."""
    _, rep = group_elements_in_rep(group, group.irreps[name])
    return rep


def character(elements):
    return np.array([np.trace(e) for e in elements])


def fs_indicator_oracle(group, name):
    """(1/|G|) sum over g of chi(g^2), via explicit matrices."""
    rep = irrep_elements(group, name)
    total = sum(np.trace(e @ e) for e in rep)
    value = total / len(rep)
    return int(np.rint(value.real))


def conjugate_partner(group, name):
    """Which irrep carries the conjugated matrices (itself if self-dual)."""
    rep = irrep_elements(group, name)
    chi = character(rep)
    for other in group.irreps:
        chi_other = character(irrep_elements(group, other))
        if np.allclose(np.conj(chi), chi_other, atol=1e-8):
            return other
    raise AssertionError("conjugate character not found")


def multiplicities_from_character(group, rep_elements):
    """<chi_V, chi_lambda> for every irrep, as exact integers."""
    chi_v = character(rep_elements)
    out = {}
    for name in group.irreps:
        chi_l = character(irrep_elements(group, name))
        inner = np.sum(np.conj(chi_l) * chi_v) / len(chi_v)
        out[name] = int(np.rint(inner.real))
        assert abs(inner - out[name]) < 1e-8
    return out


# ---------------------------------------------------------------------------
# Brute-force commutant and group closure


def commutant_oracle(generators, tol=1e-8):
    """Commutant basis from the full Kronecker system, O(n^6).

    vec([g, X]) = (g (x) I - I (x) g^T) vec(X) is stacked over every
    generator, and the right singular vectors with singular value at most
    ``tol * max(1, max ||g||_F)`` give a Frobenius-orthonormal basis.
    """
    n = generators[0].shape[0]
    eye = np.eye(n)
    a = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in generators])
    scale = max(1.0, max(np.linalg.norm(g) for g in generators))
    _, s, vh = np.linalg.svd(a)
    keep = np.ones(n * n, dtype=bool)
    keep[: len(s)] = s <= tol * scale
    return [row.conj().reshape(n, n) for row in vh[keep]]


def commutant_span_oracle(generators, tol=1e-8):
    """Commutant basis from one block-diagonal system, O(k n^2 M^2).

    The commutant as one system: every block-diagonal entry in the
    eigenbasis of the library's generic element h, with h's eigenvalue
    clusters, goes into one k n^2 x M system (M = sum m_i^2), with no
    block dropped, and the right singular vectors of its QR R
    factor with singular value at most ``tol * max(1, max ||g||_F)``
    give a Frobenius-orthonormal (|comm|, n, n) stack.  Sharing h and
    its clusters with the library makes the span, not the cluster
    choice, the thing compared.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    coeff = linalg.RngStream(grouprep._PROBE_SEED).complex_normal(len(gens))
    h = sum(c * g for c, g in zip(coeff, gens))
    evals, q = np.linalg.eigh(h + h.conj().T)
    entries = [np.mgrid[lo:hi, lo:hi].reshape(2, -1)
               for lo, hi in eigen_clusters(evals, tol)]
    rows, cols = np.hstack(entries)
    m = len(rows)
    unknown = np.arange(m)
    # a[k, :, :, t] = [g_k, E_t] for the unit matrix E_t at (rows[t], cols[t])
    a = np.zeros((len(gens), n, n, m), dtype=complex)
    for k, g in enumerate(gens):
        gq = q.conj().T @ g @ q
        a[k, :, cols, unknown] = gq[:, rows].T
        a[k, rows, :, unknown] -= gq[cols, :]
    scale = max(1.0, max(np.linalg.norm(g) for g in gens))
    r = np.linalg.qr(a.reshape(-1, m), mode="r")
    _, s, vh = np.linalg.svd(r, full_matrices=False)
    null = vh[s <= tol * scale].conj()
    blocks = np.zeros((len(null), n, n), dtype=complex)
    blocks[:, rows, cols] = null
    return q @ blocks @ q.conj().T


def hom_space_oracle(rep_a, rep_b, tol):
    """Orthonormal basis of {M : rep_b(g) M = M rep_a(g) for all g}.

    A full SVD of the (k d_a d_b x d_a d_b) Kronecker system.  The
    singular-value cutoff is scaled by the generator norms, not by the
    stacked difference operator, which can be numerically zero when the
    two representations coincide exactly.
    """
    da = rep_a[0].shape[0]
    db = rep_b[0].shape[0]
    rows = [np.kron(gb, np.eye(da)) - np.kron(np.eye(db), ga.T)
            for ga, gb in zip(rep_a, rep_b)]
    a = np.vstack(rows)
    scale = max(1.0, max(np.linalg.norm(g) for g in rep_a + rep_b))
    _, s, vh = np.linalg.svd(a)
    keep = np.ones(da * db, dtype=bool)
    keep[: len(s)] = s <= tol * scale
    ns = vh[keep].conj().T
    return [ns[:, j].reshape(db, da) for j in range(ns.shape[1])]


def eigen_clusters(evals, noise):
    """Index ranges [lo, hi) of the clusters of an ascending spectrum.

    ``noise`` is how far, relative to the spectral scale max|lambda|
    (at least 1), perturbations may have moved degenerate eigenvalues
    apart; neighbours split where their gap exceeds 1e2 * noise * scale,
    the rule of ``grouprep._sectors``.
    """
    gap = 1e2 * noise * max(1.0, float(np.max(np.abs(evals))))
    cuts = (np.flatnonzero(np.diff(evals) > gap) + 1).tolist()
    bounds = [0] + cuts + [len(evals)]
    return list(zip(bounds[:-1], bounds[1:]))


def eigen_split_oracle(action, comm, rng):
    """Eigenspaces of a random Hermitian element x of the commutant.

    Returns x's eigenvectors, the index ranges [lo, hi) of its eigenvalue
    clusters, and the singular-value cut that separates intertwiners
    from rounding in the commutant slices read by ``slice_hom_oracle``.
    For the same ``rng``, x projects the same complex Gaussian r onto
    the commutant as the one ``grouprep.isotypic_decompose`` keys its
    sectors with.
    """
    r = rng.complex_normal((action.dim,) * 2)
    coeff = np.tensordot(comm, r.conj(), axes=2).conj()
    x = np.tensordot(coeff, comm, axes=1)
    x = 0.5 * (x + x.conj().T)
    evals, evecs = np.linalg.eigh(x)
    scale = max(1.0, float(np.max(np.abs(evals))))
    gens = np.reshape(action.generators, (-1, action.dim, action.dim))
    residual = linalg.frob_each(x @ gens - gens @ x).max(initial=0.0) / scale
    bounds = eigen_clusters(evals, max(residual, 1e-12))
    return evecs, bounds, max(1e2 * residual, 1e-10)


def slice_hom_oracle(row, cols, cut):
    """Orthonormal rows (flattened d_b x d_a maps) spanning Hom_G(a, b).

    ``row`` is Q_b^H C evecs for the stacked commutant basis C, ``cols``
    selects cluster a's columns, and the right singular vectors of the
    (|comm| x d_b d_a) slice above ``cut`` span the hom space.
    """
    _, s, vh = np.linalg.svd(row[..., cols].reshape(len(row), -1),
                             full_matrices=False)
    return vh[s > cut]


def decompose_oracle(action, comm, rng, tol):
    """Isotypic sectors from one SVD per slice, cluster by cluster.

    The eigenspaces of a random Hermitian commutant element x, grouped
    by isomorphism, with hom spaces counted by singular values above a
    cut: each cluster's own slice, then its slice towards each earlier
    class's first cluster of the same size, in class order, is
    factorized on its own, and the invariance and block-Kronecker tests
    run one generator at a time with ``np.kron``.  The sectors are
    labelled by x's eigenvalue on their first copy, the key that
    ``grouprep.isotypic_decompose`` sorts by for the same ``rng``, so
    the labels compare.
    """
    n = action.dim
    gens = list(action.generators)
    evecs, bounds, cut = eigen_split_oracle(action, comm, rng)
    clusters = [evecs[:, lo:hi] for lo, hi in bounds]
    reps = [[q.conj().T @ g @ q for g in gens] for q in clusters]
    for q, rep in zip(clusters, reps):
        for g, r in zip(gens, rep):
            if linalg.frob(g @ q - q @ r) > \
                    1e3 * tol * max(1.0, linalg.frob(g)):
                raise DegenerateDecompositionError(
                    "eigenspace of commutant element is not invariant")

    classes = []  # list of lists of cluster indices
    links = {}  # cluster index -> intertwiner from its class's first one
    for idx, q in enumerate(clusters):
        row = (q.conj().T @ comm) @ evecs
        if len(slice_hom_oracle(row, slice(*bounds[idx]), cut)) != 1:
            raise DegenerateDecompositionError(
                "cluster is not irreducible (merged eigenvalues)")
        d = q.shape[1]
        for cls in classes:
            if clusters[cls[0]].shape[1] != d:
                continue
            found = slice_hom_oracle(row, slice(*bounds[cls[0]]), cut)
            if len(found):
                cls.append(idx)
                links[idx] = found[0].reshape(d, d)
                break
        else:
            classes.append([idx])

    blocks = []
    for label, cls in enumerate(classes):
        q0 = clusters[cls[0]]
        d = q0.shape[1]
        maps = [q0]
        for idx in cls[1:]:
            m = links[idx]
            m = m / np.sqrt(np.trace(m.conj().T @ m).real / d)
            if linalg.frob(m.conj().T @ m - np.eye(d)) > 1e3 * tol:
                raise DegenerateDecompositionError(
                    "intertwiner failed to normalize to an isometry")
            maps.append(clusters[idx] @ m)
        fb = np.hstack(maps)
        mult = len(cls)
        for g in gens:
            gb = fb.conj().T @ g @ fb
            if linalg.frob(gb - np.kron(np.eye(mult), gb[:d, :d])) > \
                    1e3 * tol * max(1.0, linalg.frob(g)):
                raise DegenerateDecompositionError(
                    "factor basis failed the block-Kronecker test")
        blocks.append(grouprep.IsotypicBlock(
            label=label, irrep_dim=d, multiplicity=mult, factor_basis=fb))
    if sum(b.dim for b in blocks) != n:
        raise DegenerateDecompositionError("sector dimensions do not sum to "
                                           "the space dimension")
    return blocks


def components_closure_oracle(link):
    """Connected components of a symmetric boolean matrix by transitive
    closure, repeated squaring of link + 1: one row per component, at
    its least member, components by least member and members
    ascending; O(k^3 log k)."""
    reach = link | np.eye(len(link), dtype=bool)
    for _ in range(len(link).bit_length()):
        reach = reach @ reach
    return [np.flatnonzero(row) for row in
            reach[reach.argmax(axis=1) == np.arange(len(link))]]


def sector_action_oracle(op, blocks, tol=None):
    """Sector pairing from dense projectors: each one transported by the
    anti-unitary and matched against the others, O(k n^3 + k^2 n^2)."""
    tol = linalg.TOL_INPUT if tol is None else tol
    fixed = []
    swapped = []
    images = {}
    for block in blocks:
        p = op.conjugate_linear(block.projector)
        target = None
        for other in blocks:
            if linalg.frob(p - other.projector) <= tol * block.dim:
                target = other.label
                break
        if target is None:
            raise SymmetryConsistencyError(
                f"image of sector {block.label} matches no sector projector")
        images[block.label] = target
    for label, target in images.items():
        if images.get(target) != label:
            raise SymmetryConsistencyError("sector pairing is not an "
                                           "involution")
        if target == label:
            fixed.append(label)
        elif label < target:
            swapped.append((label, target))
    return SectorPairing(fixed=tuple(fixed), swapped=tuple(swapped))


def dual_pairs_oracle(chi, tol):
    """Each complex charge's dual: ``chi`` maps a u1 sector's label to
    its characters, one per generator; one ``np.allclose`` per ordered
    pair, the last matching mu winning for each lambda."""
    return {lam: mu for lam in chi for mu in chi if np.allclose(
        chi[mu], np.conj(chi[lam]), rtol=0, atol=tol)}


def close_group_oracle(generators, tol_dedup=1e-8):
    """Breadth-first closure with a linear scan over all elements."""
    dim = generators[0].shape[0]
    elements = [np.eye(dim, dtype=complex)]
    frontier = [0]
    while frontier:
        new = []
        for idx in frontier:
            for g in generators:
                candidate = g @ elements[idx]
                if all(np.linalg.norm(candidate - e) > tol_dedup
                       for e in elements):
                    elements.append(candidate)
                    new.append(len(elements) - 1)
        frontier = new
    return elements


def _vec_real(m):
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def closure_oracle(p_basis):
    """Worst relative residual ||P_off [x, [y, z]]|| / (|x| |y| |z|) over
    every triple of basis elements, O(d^3) brackets, and its triple."""
    mats = [np.asarray(m, dtype=complex) for m in p_basis]
    span = np.stack([_vec_real(m) for m in mats], axis=1)
    q = np.linalg.svd(span, full_matrices=False)[0]
    q = q[:, :np.linalg.matrix_rank(span)]
    worst = 0.0
    worst_triple = (0, 0, 0)
    for iy, y in enumerate(mats):
        for iz, z in enumerate(mats):
            inner = y @ z - z @ y
            for ix, x in enumerate(mats):
                w = x @ inner - inner @ x
                v = _vec_real(w)
                residual = np.linalg.norm(v - q @ (q.T @ v))
                scale = max(np.linalg.norm(_vec_real(x)) *
                            np.linalg.norm(_vec_real(y)) *
                            np.linalg.norm(_vec_real(z)), 1e-300)
                rel = residual / scale
                if rel > worst:
                    worst = rel
                    worst_triple = (ix, iy, iz)
    return worst, worst_triple


def closure_rss_oracle(p_basis):
    """Largest root-sum-square over x of the relative triple residuals
    ||P_off [x, [y, z]]|| / (|x| |y| |z|), y < z, from the triple loop."""
    mats = [np.asarray(m, dtype=complex) for m in p_basis]
    span = np.stack([_vec_real(m) for m in mats], axis=1)
    q = np.linalg.svd(span, full_matrices=False)[0]
    q = q[:, :np.linalg.matrix_rank(span)]
    worst = 0.0
    for x in mats:
        total = 0.0
        for iy, y in enumerate(mats):
            for z in mats[iy + 1:]:
                v = _vec_real(x @ (y @ z - z @ y) - (y @ z - z @ y) @ x)
                scale = max(np.linalg.norm(x) * np.linalg.norm(y) *
                            np.linalg.norm(z), 1e-300)
                total += (np.linalg.norm(v - q @ (q.T @ v)) / scale) ** 2
        worst = max(worst, np.sqrt(total))
    return worst


def _svd_span(mats, n):
    a = np.stack([_vec_real(m) for m in mats], axis=1)
    u = np.linalg.svd(a, full_matrices=False)[0][:, :np.linalg.matrix_rank(a)]
    return [(c[:n * n] + 1j * c[n * n:]).reshape(n, n) for c in u.T]


def tangent_split_oracle(lab):
    """k and p as the spans of (X + tau X) / 2 and (X - tau X) / 2 over
    the ambient basis, tau applied one element at a time, each span
    orthonormalized by a thin SVD cut at its rank.  Group-type families
    give the ambient algebra twice."""
    pair = symspace.involution(lab)
    ambient = symspace.ambient_algebra(pair)
    if pair.group_type:
        return ambient, ambient
    images = [pair.tau(x) for x in ambient]
    n = pair.matrix_dim
    return (_svd_span([(x + t) / 2 for x, t in zip(ambient, images)], n),
            _svd_span([(x - t) / 2 for x, t in zip(ambient, images)], n))


# ---------------------------------------------------------------------------
# Brute-force compatible-Hamiltonian dimension


def hermitian_basis(n):
    basis = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = e[l, k] = 1.0
            basis.append(e / np.sqrt(2))
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = 1j
            e[l, k] = -1j
            basis.append(e / np.sqrt(2))
    return basis


def constraint_commute(g):
    return lambda h: g @ h - h @ g


def constraint_anticommute(g):
    return lambda h: g @ h + h @ g


def constraint_antiunitary(u, sign):
    return lambda h: u @ np.conj(h) @ u.conj().T - sign * h


def constraint_nambu(n_modes):
    """Membership of H in the Nambu generator space on C^(2 n_modes)."""
    swap = np.zeros((2 * n_modes, 2 * n_modes))
    swap[:n_modes, n_modes:] = np.eye(n_modes)
    swap[n_modes:, :n_modes] = np.eye(n_modes)
    return constraint_antiunitary(swap, -1)


def compatible_dimension(n, constraints):
    """Real dimension of {H Hermitian : every constraint vanishes}."""
    basis = hermitian_basis(n)
    rows = []
    for h in basis:
        res = np.concatenate([np.concatenate([c(h).real.ravel(),
                                              c(h).imag.ravel()])
                              for c in constraints]) if constraints else \
            np.zeros(1)
        rows.append(res)
    mat = np.stack(rows, axis=1)
    rank = np.linalg.matrix_rank(mat, tol=1e-8)
    return len(basis) - rank


def setting_constraints_nambu(setting_w, n_modes):
    """Constraint list of a promoted (Nambu-kind) setting."""
    cons = [constraint_nambu(n_modes)]
    for g in setting_w.g0.generators:
        cons.append(constraint_commute(g))
    if setting_w.time_reversal is not None:
        cons.append(constraint_antiunitary(setting_w.time_reversal.u, 1))
    if setting_w.charge_conjugation is not None:
        cons.append(constraint_antiunitary(setting_w.charge_conjugation.u, 1))
    return cons


def setting_constraints_hilbert(setting):
    cons = []
    for g in setting.g0.generators:
        cons.append(constraint_commute(g))
    if setting.time_reversal is not None:
        cons.append(constraint_antiunitary(setting.time_reversal.u, 1))
    return cons


# ---------------------------------------------------------------------------
# Independent exterior-algebra arithmetic


def wedge_tuples(s, t):
    """Wedge e_s ^ e_t on ascending index tuples: (sign, merged) or None."""
    if set(s) & set(t):
        return None
    merged = list(s) + list(t)
    sign = 1
    # bubble sort counting transpositions
    arr = merged[:]
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


def tuple_to_index(t):
    idx = 0
    for mode in t:
        idx |= 1 << mode
    return idx


def index_to_tuple(idx):
    return tuple(k for k in range(idx.bit_length()) if idx & (1 << k))


def wedge_vectors(n_modes, psi, phi):
    """Independent wedge product of Fock coordinate vectors."""
    dim = 1 << n_modes
    out = np.zeros(dim, dtype=complex)
    for a in range(dim):
        if psi[a] == 0:
            continue
        for b in range(dim):
            if phi[b] == 0:
                continue
            res = wedge_tuples(index_to_tuple(a), index_to_tuple(b))
            if res is None:
                continue
            sign, merged = res
            out[tuple_to_index(merged)] += sign * psi[a] * phi[b]
    return out


def subset_sums(values):
    """All 2^n subset sums, sorted ascending."""
    sums = []
    for mask in range(1 << len(values)):
        total = 0.0
        for k, v in enumerate(values):
            if mask & (1 << k):
                total += v
        sums.append(total)
    return np.sort(np.array(sums))


def spacing_ratios_oracle(levels, drop_tol=1e-12):
    """Ratios of consecutive kept spacings of one sorted spectrum, by a
    plain loop; spacings below ``drop_tol`` times the range are skipped."""
    span = max(levels[-1] - levels[0], np.finfo(float).tiny)
    kept = [b - a for a, b in zip(levels[:-1], levels[1:])
            if b - a >= drop_tol * span]
    return [min(s, t) / max(s, t) for s, t in zip(kept[:-1], kept[1:])]


def matrix_to_pairs(m):
    """Encode a complex matrix as nested [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


@functools.lru_cache(maxsize=64)
def _block_template(cols, rows):
    """The ``%s`` template of ``rows`` rows of ``cols`` [re, im] pairs,
    in the layout of ``json.dumps`` with separators (",", ":")."""
    row = "[" + ",".join(["[%s,%s]"] * cols) + "]"
    return ",".join([row] * rows)


def _block_text(values, template):
    """``template`` filled with the shortest repr of each float.

    Hermiticity, T, C and S make entries repeat in magnitude; when at
    least a quarter of the floats repeat one, each distinct |x| is
    formatted once and a sign prefixed where it is set (repr(-x) is
    "-" + repr(x), -0.0 included), else every float is formatted.
    """
    mags, where = np.unique(np.abs(values), return_inverse=True)
    if 4 * (values.size - mags.size) < values.size:
        return template % tuple(values.tolist())  # %s of a float is repr
    texts = list(map(float.__repr__, mags.tolist()))
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    return template % tuple(
        table[where + mags.size * np.signbit(values)].tolist())


def write_samples_repr(fh, family, dims, kind, seed, matrices):
    """The former ``specfile.write_samples``: every float through
    ``repr`` into a cached ``%s`` template per row-block shape."""
    records = [np.ascontiguousarray(m, dtype=complex) for m in matrices]
    for i, m in enumerate(records):
        specfile._require(np.isfinite(m).all(), f"record[{i}]",
                          "must hold finite numbers")
    dims_text = ",".join(str(d) for d in dims)
    fh.write(f"{specfile._HEADER}class={family} dims={dims_text} "
             f"kind={kind} seed={seed}\n")
    for m in records:
        floats = m.view(float)
        rows = max(1, specfile._BLOCK_FLOATS // floats.shape[1])
        for start in range(0, len(floats), rows):
            block = floats[start:start + rows]
            fh.write("," if start else "[")
            fh.write(_block_text(block.ravel(),
                                 _block_template(m.shape[1], len(block))))
        fh.write("]\n")


def parse_spec_json(path):
    """The former ``specfile.parse_spec``: the whole file through
    ``json.loads``."""
    size = specfile._file_size(path)
    specfile._require(size <= specfile.MAX_SPEC_BYTES, "$",
                      f"{path} has {size} bytes; a parse takes about 7 "
                      f"times the file size, so the limit is "
                      f"{specfile.MAX_SPEC_BYTES} bytes")
    return specfile.parse_spec_data(
        specfile._load_json(specfile._read_text(path), "$"))


def read_samples_json(path):
    """The former ``specfile.read_samples``: every record through
    ``json.loads``, and no limit on the file size."""
    lines = specfile._read_text(path).splitlines()
    specfile._require(lines and lines[0].startswith(specfile._HEADER), "$",
                      "missing sample header line")
    meta = dict(token.partition("=")[::2]
                for token in lines[0][len(specfile._HEADER):].split())
    specfile._require(meta.get("kind") in ("gaussian", "circular"), "kind",
                      "must be gaussian or circular")
    matrices = []
    for line in filter(str.strip, lines[1:]):
        field = f"record[{len(matrices)}]"
        raw = specfile._load_json(line, field)
        arr = np.array(None)  # stays for a ragged record
        with contextlib.suppress(ValueError):
            arr = np.array(raw)
        specfile._require(
            arr.dtype.kind in "biuf" and arr.ndim == 3 and
            arr.shape[2] == 2 and arr.shape[0] == arr.shape[1] and
            np.isfinite(arr).all(), field,
            "expected a square array of finite [re, im] number pairs")
        n = len(matrices[0]) if matrices else len(arr)
        specfile._require(len(arr) == n, field,
                          f"expected a {n} x {n} matrix like the first record")
        matrices.append(arr.astype(float).view(complex)[..., 0])
    specfile._require(matrices, "$", "sample file holds no records")
    return meta, matrices


def slater_overlap(us, vs):
    """Gram determinant <u_1 ^ ... ^ u_n, v_1 ^ ... ^ v_n>."""
    gram = np.array([[np.vdot(u, v) for v in vs] for u in us])
    return np.linalg.det(gram)


# ---------------------------------------------------------------------------
# Dense Fock-space references: every operator a 2^N x 2^N matrix


def dense_fock_oracle(n_modes):
    """Creation/annihilation matrices for ``n_modes`` modes, built densely.

    a_k^dag acting on a bitstring with bit k clear picks up the sign
    (-1)^(number of occupied modes below k).
    """
    dim = 1 << n_modes
    occupation = np.array([int(b).bit_count() for b in range(dim)])
    create = []
    for k in range(n_modes):
        mask = 1 << k
        a_dag = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            if b & mask:
                continue
            sign = -1.0 if int(b & (mask - 1)).bit_count() % 2 else 1.0
            a_dag[b | mask, b] = sign
        create.append(a_dag)
    annihilate = [m.conj().T for m in create]
    return SimpleNamespace(n_modes=n_modes, dim=dim, create=tuple(create),
                           annihilate=tuple(annihilate),
                           occupation=occupation)


def particle_hole_oracle(n_modes):
    """Unitary part of C: e_S -> sign e_(S^c), sign from e_(S^c) ^ e_S."""
    dim = 1 << n_modes
    u = np.zeros((dim, dim))
    for s in range(dim):
        sc = (dim - 1) ^ s
        u[sc, s] = wedge_tuples(index_to_tuple(sc), index_to_tuple(s))[0]
    return u


def lift_minors_oracle(s):
    """Fock lift of a one-particle matrix by Cauchy-Binet:
    <e_T| Lift(s) |e_S> = det s[T, S] for |T| = |S|."""
    n_modes = s.shape[0]
    dim = 1 << n_modes
    out = np.zeros((dim, dim), dtype=complex)
    out[0, 0] = 1.0
    for a in range(1, dim):
        for b in range(1, dim):
            ta, tb = index_to_tuple(a), index_to_tuple(b)
            if len(ta) == len(tb):
                out[a, b] = np.linalg.det(s[np.ix_(ta, tb)])
    return out


def one_body_oracle(fock, w, z):
    """Sum W a^dag a + (Z a^dag a^dag + h.c.)/2 from dense matrices."""
    h = np.zeros((fock.dim, fock.dim), dtype=complex)
    for k in range(fock.n_modes):
        for l in range(fock.n_modes):
            h += w[k, l] * (fock.create[k] @ fock.annihilate[l])
            h += 0.5 * z[k, l] * (fock.create[k] @ fock.create[l])
            h += 0.5 * np.conj(z[k, l]) * \
                (fock.annihilate[l] @ fock.annihilate[k])
    return h


def nambu_generator_oracle(w, z):
    """Majorana generator A of the quadratic Hamiltonian of (w, z), by
    the 2N x 2N change of coefficient basis t and the product t g t^-1."""
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n = w.shape[0]
    # Action on the coefficient space of (a_1..a_N, a^dag_1..a^dag_N):
    # -i[H, a_m] = i sum_l W_ml a_l - i sum_k Z_km a^dag_k
    # -i[H, a^dag_m] = -i sum_l conj(Z)_ml a_l - i sum_k W_km a^dag_k
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, :n] = 1j * w.T
    g[n:, :n] = -1j * z
    g[:n, n:] = -1j * z.conj().T
    g[n:, n:] = -1j * w
    # Change of coefficient basis to interleaved Majoranas.
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    for m in range(n):
        t[2 * m, m] = 0.5
        t[2 * m + 1, m] = -0.5j
        t[2 * m, n + m] = 0.5
        t[2 * m + 1, n + m] = 0.5j
    a = t @ g @ np.linalg.inv(t)
    if linalg.frob(a.imag) > 1e-12 * max(1.0, linalg.frob(a)):
        raise InputShapeError("Majorana generator failed to come out real")
    return a.real


def haar_unitary_inline(n, rng):
    """Haar unitary by the phase-corrected QR written out in full."""
    z = rng.complex_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def haar_orthogonal_inline(n, rng, special=False):
    """Haar element of O(n), or SO(n), by the sign-corrected QR written
    out in full."""
    z = rng.normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    q = q * np.sign(d)
    if special and np.linalg.det(q) < 0:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q


def haar_usp_gram_schmidt(n, rng):
    """Haar draw [v | -J conj(v)] in USp(2n) of the standard form J by
    quaternionic Gram-Schmidt, one column and its partner at a time."""
    j = linalg.symplectic_form(n)
    m = rng.complex_normal((2 * n, 2 * n))
    m = 0.5 * (m + j @ m.conj() @ j.T)  # project onto quaternion matrices
    basis = []
    for k in range(n):
        v = m[:, k]
        for w in basis:
            v = v - w * (w.conj() @ v)
        v = v / np.linalg.norm(v)
        basis.append(v)
        basis.append(-j @ v.conj())
    cols = np.empty((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        cols[:, k] = basis[2 * k]
        cols[:, n + k] = basis[2 * k + 1]
    return cols


def _scatter_add(dense, op, coeff):
    """Add ``coeff`` times the SignedPerm ``op`` into ``dense``."""
    rows = np.arange(len(op.sign))
    dense[rows, rows ^ op.mask] += coeff * op.sign


def lift_one_body_loop(fock, w, z):
    """Sum W a^dag a + (Z a^dag a^dag + h.c.)/2 by a loop over the mode
    pairs, one scatter-add per signed-permutation term."""
    h = np.zeros((fock.dim, fock.dim), dtype=complex)
    for k in range(fock.n_modes):
        for l in range(fock.n_modes):
            _scatter_add(h, fock.create[k] @ fock.annihilate[l], w[k, l])
            pair = fock.create[k] @ fock.create[l]
            _scatter_add(h, pair, 0.5 * z[k, l])
            _scatter_add(h, pair.adjoint(), 0.5 * np.conj(z[k, l]))
    return h


def car_residual_loop(fock):
    """Worst Frobenius norm of {a_k, a_l} and {a_k^dag, a_l} - d_kl, by
    a loop over the mode pairs, two signed-permutation products each."""
    worst = 0.0
    for k, (adk, ak) in enumerate(zip(fock.create, fock.annihilate)):
        for l, al in enumerate(fock.annihilate):
            delta = 1.0 if k == l else 0.0
            worst = max(worst,
                        np.linalg.norm((ak @ al).sign + (al @ ak).sign),
                        np.linalg.norm((adk @ al).sign + (al @ adk).sign
                                       - delta))
    return float(worst)


def lift_unitary_loop(fock, s):
    """Fock lift of ``s`` column by column: column S is sum_k s_kj
    a_k^dag applied to column S - {j}, j the lowest mode of S, one
    signed gather per (j, k)."""
    s = np.asarray(s, dtype=complex)
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    out[0, 0] = 1.0
    states = np.arange(fock.dim)
    lowest = states & -states
    for j in reversed(range(fock.n_modes)):
        cols = np.nonzero(lowest == 1 << j)[0]
        prev = out[:, cols ^ (1 << j)]
        out[:, cols] = sum(s[k, j] * (fock.create[k] @ prev)
                           for k in range(fock.n_modes))
    return out


def covering_oracle(fock, h_fock):
    """Rotation M with U c_i U^dag = sum_j M_ji c_j for U = exp(-i H),
    the worst residual of U c_i U^dag off the Majorana span, and M for
    -U; dense Majoranas and one trace per coefficient."""
    c_ops = []
    for a_dag, a in zip(fock.create, fock.annihilate):
        c_ops += [a + a_dag, 1j * a - 1j * a_dag]
    u = expm(-1j * np.asarray(h_fock, dtype=complex))

    def rotation_of(ev):
        m = np.zeros((len(c_ops), len(c_ops)), dtype=complex)
        residual = 0.0
        for i, c in enumerate(c_ops):
            image = ev @ c @ ev.conj().T
            # tr(c_j image) as an entrywise sum, no product needed
            m[:, i] = [np.sum(cj.T * image) / fock.dim for cj in c_ops]
            recon = sum(cf * cj for cf, cj in zip(m[:, i], c_ops))
            residual = max(residual, np.linalg.norm(image - recon))
        return m, residual

    m, residual = rotation_of(u)
    return m, residual, rotation_of(-u)[0]


def covering_image_loop(fock, h_fock):
    """Rotation M and span residual of ``focklab.covering_check``, by one
    2^(N-1)-sized product U_e c_i U_o^dag per Majorana c_i on the
    fermion-parity blocks, with M and the residual read per Majorana."""
    h_fock = np.asarray(h_fock, dtype=complex)
    even = np.nonzero(fock.occupation % 2 == 0)[0]
    odd = np.nonzero(fock.occupation % 2 == 1)[0]
    pos = np.empty(fock.dim, dtype=np.int64)
    pos[even], pos[odd] = np.arange(len(even)), np.arange(len(odd))
    u_even = focklab._exp_i(h_fock[np.ix_(even, even)])
    u_odd_adj = focklab._exp_i(h_fock[np.ix_(odd, odd)]).conj().T
    c_ops = focklab.majorana_basis(fock)
    rows = np.arange(len(even))
    m = np.zeros((len(c_ops), len(c_ops)))
    span_residual = 0.0
    for i, c in enumerate(c_ops):
        # c U_o^dag gathers signed rows of U_o^dag
        image = u_even @ (c.sign[even][:, None] *
                          u_odd_adj[pos[even ^ c.mask]])
        for j, cj in enumerate(c_ops):
            m[j, i] = 2 * np.sum(image[rows, pos[even ^ cj.mask]] *
                                 np.conj(cj.sign[even])).real / fock.dim
        for j, cj in enumerate(c_ops):
            image[rows, pos[even ^ cj.mask]] -= m[j, i] * cj.sign[even]
        # the odd-to-even block is the adjoint
        span_residual = max(span_residual,
                            np.sqrt(2) * np.linalg.norm(image))
    return m, span_residual


def twisted_transfer_oracle(fock, s):
    """Residuals ||C~ a_k^dag P_n - (-1)^(N-n+1) S a_k S^-1 C~ P_n|| per
    (n, k), C~ = C Lift(S), with dense projectors P_n."""
    n_modes = fock.n_modes
    s_fock = lift_minors_oracle(s)
    u_ct = particle_hole_oracle(n_modes) @ np.conj(s_fock)
    out = np.zeros((n_modes + 1, n_modes))
    for n in range(n_modes + 1):
        proj = np.diag((fock.occupation == n).astype(float))
        sign = -1.0 if (n_modes - n + 1) % 2 else 1.0
        for k in range(n_modes):
            lhs = u_ct @ np.conj(fock.create[k] @ proj)
            rhs = sign * (s_fock @ fock.annihilate[k] @ s_fock.conj().T
                          @ u_ct @ proj)
            out[n, k] = np.linalg.norm(lhs - rhs)
    return out


# ---------------------------------------------------------------------------
# Randomized threefold settings with predicted labels


def spin(two_j):
    """Anti-Hermitian su(2) generators i J_x, i J_y, i J_z of spin j."""
    j = two_j / 2
    m = j - np.arange(two_j + 1)
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    jx = (up + up.T) / 2
    jy = (up - up.T) / 2j
    return [1j * jx, 1j * jy, 1j * np.diag(m)]


def su3():
    """Anti-Hermitian su(3) generators i lambda_a / 2 on C^3, from the
    Gell-Mann matrices lambda_a."""
    lam = np.zeros((8, 3, 3), dtype=complex)
    for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        lam[2 * a, i, j] = lam[2 * a, j, i] = 1
        lam[2 * a + 1, i, j], lam[2 * a + 1, j, i] = -1j, 1j
    lam[6] = np.diag([1.0, -1.0, 0.0])
    lam[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)
    return list(0.5j * lam)


def adjoint(gens):
    """The adjoint representation of a Lie algebra with orthogonal
    generators of equal norm: ad(t_a) t_c = [t_a, t_c] in the coordinates
    of the t_b."""
    basis = np.array(gens)
    unit = np.vdot(basis[0], basis[0]).real
    return [np.array([[np.vdot(tb, a @ tc - tc @ a) / unit for tc in basis]
                      for tb in basis]) for a in basis]


def in_random_basis(gens, seed):
    """The generators conjugated by one Haar-random unitary."""
    w = linalg.haar_unitary(gens[0].shape[0], linalg.RngStream(seed))
    return [w @ g @ w.conj().T for g in gens]


def equivariant_self_pairing(rep_gens):
    """Unitary psi with psi rho(g) = conj(rho(g)) psi, via least squares."""
    d = rep_gens[0].shape[0]
    rows = []
    for g in rep_gens:
        rows.append(np.kron(np.conj(g), np.eye(d)) -
                    np.kron(np.eye(d), g.T))
    a = np.vstack(rows)
    _, s, vh = np.linalg.svd(a)
    keep = np.ones(d * d, dtype=bool)
    keep[: len(s)] = s <= 1e-8 * max(1.0, np.linalg.norm(a))
    ns = vh[keep].conj().T
    assert ns.shape[1] == 1, "irrep is not self-dual"
    psi = ns[:, 0].reshape(d, d)
    scale = np.trace(psi.conj().T @ psi).real / d
    return psi / np.sqrt(scale)


def build_threefold_case(group_name, rng, t_parity):
    """Random direct sum of irreps with a compatible time reversal.

    ``t_parity`` is None (no T), +1 or -1.  Returns (generators, t_matrix,
    expected) where expected is a sorted list of (family, d, m) triples
    predicted by character theory and Frobenius-Schur indicators.
    """
    import scipy.linalg as sla

    data = GROUPS[group_name]
    names = list(data.irreps)
    partner = {n: conjugate_partner(data, n) for n in names}
    fs = {n: fs_indicator_oracle(data, n) for n in names}
    gen_count = len(data.generators)
    gen_blocks = [[] for _ in range(gen_count)]
    t_blocks = []
    expected = []

    if t_parity is None:
        mults = {n: int(rng.generator.integers(0, 3)) for n in names}
        if all(m == 0 for m in mults.values()):
            mults[names[0]] = 1
        for name in names:
            m = mults[name]
            if m == 0:
                continue
            d = data.irreps[name][0].shape[0]
            for i in range(gen_count):
                gen_blocks[i].append(np.kron(np.eye(m),
                                             data.irreps[name][i]))
            expected.append(("A", d, m))
        gens = [sla.block_diag(*blocks) for blocks in gen_blocks]
        return gens, None, sorted(expected)

    mults = {}
    for name in names:
        if name in mults:
            continue
        m = int(rng.generator.integers(0, 3))
        if partner[name] == name:
            if m and t_parity * fs[name] == -1 and m % 2:
                m += 1
            mults[name] = m
        else:
            mults[name] = m
            mults[partner[name]] = m
    if all(m == 0 for m in mults.values()):
        name = names[0]
        m = 2 if t_parity * fs[name] == -1 else 1
        mults[name] = m
        if partner[name] != name:
            mults[partner[name]] = m

    handled = set()
    for name in names:
        if name in handled or mults[name] == 0:
            continue
        d = data.irreps[name][0].shape[0]
        m = mults[name]
        if partner[name] == name:
            handled.add(name)
            for i in range(gen_count):
                gen_blocks[i].append(np.kron(np.eye(m),
                                             data.irreps[name][i]))
            eps_alpha = t_parity * fs[name]
            if eps_alpha == 1:
                alpha = np.eye(m)
                family = "AI"
            else:
                alpha = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                np.eye(m // 2))
                family = "AII"
            beta = equivariant_self_pairing(list(data.irreps[name]))
            t_blocks.append(np.kron(alpha, beta))
            expected.append((family, d, m))
        else:
            handled.add(name)
            handled.add(partner[name])
            for i in range(gen_count):
                gen_blocks[i].append(sla.block_diag(
                    np.kron(np.eye(m), data.irreps[name][i]),
                    np.kron(np.eye(m), np.conj(data.irreps[name][i]))))
            eye = np.eye(m * d)
            zero = np.zeros((m * d, m * d))
            t_blocks.append(np.block([[zero, t_parity * eye],
                                      [eye, zero]]))
            expected.append(("A", d, m))
    gens = [sla.block_diag(*blocks) for blocks in gen_blocks]
    t_matrix = sla.block_diag(*t_blocks)
    return gens, t_matrix, sorted(expected)
