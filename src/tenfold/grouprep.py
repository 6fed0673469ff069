"""Unitary symmetry groups on V: closure, commutants, isotypic decomposition.

A ``GroupAction`` represents the unitary symmetry group in one of three
modes: an explicit finite group (the trivial group is the one of order
one), a Lie algebra of anti-Hermitian generators, or the built-in
spin-1/2 tensor factor.
``isotypic_decompose`` splits V into sectors V_lambda ~ E_lambda (x)
R_lambda, one per isomorphism class of irreducible subrepresentation,
with the multiplicity factor E slow and the irreducible factor R fast
in the column ordering of the returned bases.

The decomposition is purely numerical: eigenspaces of a random Hermitian
commutant element x resolve the multiplicity lines.  The lines are
G-invariant, so Hom_G(a, b) = Q_b^H End_G(V) Q_a for orthonormal bases
Q_a, Q_b of two lines, and the commutant basis, rotated into x's
eigenbasis, already holds every intertwiner: a slice of it decides
which lines are isomorphic (the space of equivariant maps between two
irreducibles has dimension zero or one) and supplies the map that
aligns them.  Self-duality is read from the same solver: R is
self-dual exactly when the commutant of R + R* is a full 2 x 2 matrix
algebra, and its off-diagonal block is the pairing R -> R*.

Cost.  ``commutant_basis`` solves the commutation constraints only on
the eigenspaces (dimensions m_i) of one fixed generic Hermitian element
of the algebra the k generators span, where every commutant element is
block-diagonal: O(k n^2 M^2 + k n^3) with M = sum m_i^2 <= n^2, instead
of O(k n^6) for the full Kronecker system on C^(n x n).
``isotypic_decompose`` then rotates that basis into x's eigenbasis one
line at a time, O(|comm| n^3) in all, and reads each hom space from a
thin SVD of a |comm| x d_a d_b slice, instead of a full SVD of a
(k d^2 x d^2) Kronecker system, O(k d^6), per pair of lines.
``close_group`` closes a group of order N breadth-first, a level at a
time: O(k N) products of dim x dim matrices, one batched matmul per
level, and duplicates found through a sorted scalar key, O(k N log N)
lookups and one batched distance per pair of near keys rather than
O(k N^2) Frobenius distances.  Its Python work is the per-candidate
key bookkeeping; the elements are one (N, dim, dim) array that the
readers (``is_trivial``, ``fs_indicator``, the classifier's normalizer
check and its Nambu lift) take in one vectorized operation each.
"""

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DegenerateDecompositionError, GroupTooLargeError,
                     InputShapeError, UnsupportedModeError)

MODE_FINITE = "finite-group"
MODE_LIE = "lie-algebra"
MODE_SPIN_HALF = "spin-half"

MAX_ORDER = 10_000

# Seed of the fixed generic vectors and coefficients behind the
# close_group keys and the commutant's algebra element.
_PROBE_SEED = 0x7E4F01D

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A unitary symmetry group (or Lie algebra) acting on C^dim.

    A finite group holds its elements as one (order, dim, dim) array.
    """

    dim: int
    mode: str
    generators: tuple
    elements: np.ndarray = None

    def is_trivial(self, tol=None):
        """True when the action fixes every Hamiltonian (trivial group)."""
        tol = linalg.TOL_INPUT if tol is None else tol
        if self.mode == MODE_SPIN_HALF:
            return False
        if self.mode == MODE_FINITE:
            off = linalg.frob_each(self.elements - np.eye(self.dim))
            return bool(off.max() <= tol * self.dim)
        return all(linalg.frob(g) <= tol for g in self.generators)


@dataclass(frozen=True, eq=False)
class IsotypicBlock:
    """One sector of the isotypic decomposition.

    ``factor_basis`` columns identify the sector with E (x) R; column
    j*d + k is the image of (e_j tensor r_k), so the multiplicity index
    is slow and the irreducible index fast; the columns are
    orthonormal, so the scalar product transferred to E is the identity.
    """

    label: int
    irrep_dim: int
    multiplicity: int
    projector: np.ndarray
    factor_basis: np.ndarray

    @property
    def dim(self):
        return self.irrep_dim * self.multiplicity

    def rep_basis(self):
        """Orthonormal basis of the model copy of R inside V."""
        return self.factor_basis[:, : self.irrep_dim]

    def irrep_matrix(self, g):
        """Restriction of a symmetry operator to the model copy of R."""
        r = self.rep_basis()
        return r.conj().T @ g @ r


def trivial_action(dim):
    """The trivial group on C^dim, as the finite group of order one."""
    if dim < 1:
        raise InputShapeError("dimension must be at least 1")
    return close_group([], dim=dim)


def lie_algebra_action(generators, tol=None):
    """Action generated by anti-Hermitian matrices."""
    tol = linalg.TOL_INPUT if tol is None else tol
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise InputShapeError("lie-algebra mode needs at least one generator")
    dim = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (dim, dim):
            raise InputShapeError(f"generator {i} has shape {g.shape}, "
                                  f"expected ({dim}, {dim})")
        if linalg.frob(g + g.conj().T) > tol * max(1.0, linalg.frob(g)):
            raise InputShapeError(f"generator {i} is not anti-Hermitian")
    return GroupAction(dim=dim, mode=MODE_LIE, generators=tuple(gens))


def u1_charge_action(dim):
    """The U(1) particle-number action, generated by i * identity."""
    return lie_algebra_action([1j * np.eye(dim)])


def spin_half_action(dim):
    """Built-in spin-1/2 action on V = E (x) C^2 (E slow, spin fast)."""
    if dim < 2 or dim % 2:
        raise InputShapeError("spin-half mode needs an even dimension >= 2")
    m = dim // 2
    eye = np.eye(m)
    gens = tuple(np.kron(eye, 1j * s) for s in (PAULI_X, PAULI_Y, PAULI_Z))
    return GroupAction(dim=dim, mode=MODE_SPIN_HALF, generators=gens)


def close_group(generators, max_order=MAX_ORDER, tol_dedup=linalg.TOL_DEDUP,
                dim=None):
    """Multiplicative closure of unitary generators.

    Breadth-first over words in the generators, one level at a time.
    The candidates of a level are the products g e, for e in the
    previous level and, inner, g in the generators; a candidate is
    dropped when it lies within Frobenius distance ``tol_dedup`` of an
    element already held or of an earlier kept candidate of its level.
    The identity is always included (an empty generator list with
    explicit ``dim`` gives the order-1 group).  Raises
    ``GroupTooLargeError`` when the closure exceeds ``max_order``
    elements, or as many as fit in ``linalg.MAX_ARRAY_BYTES``, before it
    holds one more.

    The elements are one (order, dim, dim) array.  The candidates of a
    level are formed by one batched matmul into the free tail of that
    array, in steps of at most an eighth of the byte cap, and are
    products bit for bit equal to g @ e.  Duplicate lookup goes through
    a sorted list of keys Re(u^H g v) for fixed unit vectors u, v: since
    |u^H (a - b) v| <= ||a - b||_F, only the pairs whose keys lie within
    ``tol_dedup`` need the Frobenius test, and a step takes the
    distances of all its pairs in one batched norm.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if gens:
        dim = gens[0].shape[0]
    elif dim is None:
        raise InputShapeError("close_group needs generators or an explicit "
                              "dimension")
    for i, g in enumerate(gens):
        if g.ndim != 2 or g.shape != (dim, dim):
            raise InputShapeError(f"generator {i} has shape {g.shape}, "
                                  f"expected ({dim}, {dim})")
        if not linalg.is_unitary(g, max(tol_dedup, linalg.TOL_INPUT)):
            raise InputShapeError(f"generator {i} is not unitary")

    u, v = _probe_pair(dim)
    # Re(u^H g v) is the real part of g's entries summed against u* v^t
    weight = np.outer(u.conj(), v).ravel()
    # The window is widened by 1e-12 to cover rounding in the keys.
    window = tol_dedup + 1e-12
    item = 16 * dim * dim
    held = min(max_order, linalg.MAX_ARRAY_BYTES // item)
    # matrices per step, as candidates or as distance pairs
    batch = max(1, linalg.MAX_ARRAY_BYTES // (8 * item))
    k = len(gens)
    span = max(1, batch // max(k, 1))  # frontier elements per step
    limit = held + span * k  # elements and the candidates of one step
    stacked = np.array(gens, dtype=complex).reshape(k, dim, dim)

    buf = np.empty((min(32, limit), dim, dim), dtype=complex)
    buf[0] = np.eye(dim)
    keys = [float((buf[0].ravel() @ weight).real)]  # ascending
    by_key = [0]  # element indices in key order
    count = 1
    start = 0
    while start < count:  # the level buf[start:end]
        end = count
        for a in range(start, end, span):
            b = min(a + span, end)
            n = (b - a) * k
            if count + n > len(buf):
                grown = np.empty((min(max(2 * len(buf), count + n), limit),
                                  dim, dim), dtype=complex)
                grown[:count] = buf[:count]
                buf = grown
            np.matmul(stacked, buf[a:b, None],
                      out=buf[count:count + n].reshape(b - a, k, dim, dim))
            kept, kept_keys = _dedup_step(buf, count, n, weight, keys,
                                          by_key, window, tol_dedup, batch)
            if count + len(kept) > held:
                raise GroupTooLargeError(
                    f"closure exceeded {held} elements" + (
                        "" if held == max_order else
                        f" of size {dim} x {dim}, the most that fit in "
                        f"{linalg.MAX_ARRAY_BYTES} bytes"))
            # in place already unless a candidate before the last kept
            # one was dropped
            if kept and kept[-1] != count + len(kept) - 1:
                buf[count:count + len(kept)] = buf[kept]
            for key in kept_keys:
                pos = bisect.bisect_left(keys, key)
                keys.insert(pos, key)
                by_key.insert(pos, count)
                count += 1
        start = end
    return GroupAction(dim=dim, mode=MODE_FINITE, generators=tuple(gens),
                       elements=buf[:count].copy())


@functools.lru_cache(maxsize=64)
def _probe_pair(dim):
    """The fixed unit vectors u, v of the ``close_group`` keys on C^dim,
    as one read-only (2, dim) array.  Cached: drawing them took a
    quarter of the time that closing a group of order eight takes."""
    probe = linalg.RngStream(_PROBE_SEED).complex_normal((2, dim))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    probe.setflags(write=False)
    return probe


def _dedup_step(buf, count, n, weight, keys, by_key, window, tol, batch):
    """Indices and keys of the candidates buf[count:count + n] to keep.

    A candidate is kept unless it lies within ``tol`` of a held element
    (indices below ``count``, listed by ascending key in ``keys`` and
    ``by_key``) or of an earlier kept candidate.  The pairs within
    ``window`` in key are listed in Python, their distances taken
    ``batch`` pairs at a time.
    """
    cand_keys = (buf[count:count + n].reshape(n, len(weight)) @
                 weight).real.tolist()
    near_keys, near_at = keys[:], by_key[:]  # then the candidates too
    left, right, bounds = [], [], [0]
    first, last = bisect.bisect_left, bisect.bisect_right
    for i, key in enumerate(cand_keys, count):
        lo = first(near_keys, key - window)
        hi = last(near_keys, key + window, lo)
        right += near_at[lo:hi]
        left += [i] * (hi - lo)
        bounds.append(len(right))
        pos = first(near_keys, key, lo, hi)
        near_keys.insert(pos, key)
        near_at.insert(pos, i)
    flat = buf.reshape(len(buf), -1)
    close = []
    for s in range(0, len(right), batch):
        diff = flat[left[s:s + batch]]
        diff -= flat[right[s:s + batch]]
        close += (linalg.frob_each(diff) <= tol).tolist()
    fresh = [False] * n  # the candidates kept so far
    kept, kept_keys = [], []
    for i in range(n):
        for t in range(bounds[i], bounds[i + 1]):
            j = right[t] - count  # negative for a held element
            if close[t] and (j < 0 or fresh[j]):
                break
        else:
            fresh[i] = True
            kept.append(count + i)
            kept_keys.append(cand_keys[i])
    return kept, kept_keys


def commutant_basis(action, tol=None):
    """Frobenius-orthonormal basis of {X : [X, g] = 0 for all generators}.

    The basis is returned stacked, as a (dim, n, n) array.  For a finite
    group the dimension equals the sum of squared multiplicities of the
    irreducible sectors.

    Every commutant element commutes with the Hermitian algebra element
    h = sum_k c_k g_k + h.c. (fixed generic c_k), so it is block-diagonal
    in h's eigenbasis.  The generators are rotated into that basis and
    the commutation constraints are solved, by a QR factorization and
    the SVD of its R factor, for the block-diagonal entries only: with
    eigenspace dimensions m_i the unknowns drop from n^2 to sum m_i^2,
    and the cost from O(k n^6) to O(k n^2 (sum m_i^2)^2 + k n^3).  A
    non-generic h only merges eigenspaces, which is slower but still
    exact.

    A k n^2 x (sum m_i^2) constraint system (n^4 entries without
    generators) above ``linalg.MAX_ARRAY_BYTES`` raises
    ``InputShapeError`` before it is allocated.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    n = action.dim
    gens = list(action.generators)
    if not gens:
        _check_system_size(1, n, n * n)
        return np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    coeff = linalg.RngStream(_PROBE_SEED).complex_normal(len(gens))
    h = sum(c * g for c, g in zip(coeff, gens))
    evals, q = np.linalg.eigh(h + h.conj().T)
    # (row, col) of every block-diagonal entry in h's eigenbasis; the
    # generators are only known to tol, and merging is merely slower
    entries = [np.mgrid[lo:hi, lo:hi].reshape(2, -1)
               for lo, hi in _eigen_clusters(evals, tol)]
    rows, cols = np.hstack(entries)
    m = len(rows)
    _check_system_size(len(gens), n, m)
    unknown = np.arange(m)
    # a[k, :, :, t] = [g_k, E_t] for the unit matrix E_t at (rows[t], cols[t])
    a = np.zeros((len(gens), n, n, m), dtype=complex)
    for k, g in enumerate(gens):
        gq = q.conj().T @ g @ q
        a[k, :, cols, unknown] = gq[:, rows].T
        a[k, rows, :, unknown] -= gq[cols, :]
    scale = max(1.0, max(linalg.frob(g) for g in gens))
    # the null space of its R factor; the thin SVD of the tall system
    # would also build its left factor, which nothing reads
    r = np.linalg.qr(a.reshape(-1, m), mode="r")
    del a
    _, s, vh = np.linalg.svd(r, full_matrices=False)
    null = vh[s <= tol * scale].conj()
    blocks = np.zeros((len(null), n, n), dtype=complex)
    blocks[:, rows, cols] = null
    return q @ blocks @ q.conj().T


def _check_system_size(k, n, m):
    need = k * n * n * m * 16
    if need > linalg.MAX_ARRAY_BYTES:
        raise InputShapeError(
            f"the commutant of {k} generators on C^{n} has {m} unknowns; "
            f"its constraint system needs {need} bytes, above the limit "
            f"of {linalg.MAX_ARRAY_BYTES} bytes")


def _eigen_clusters(evals, noise):
    """Index ranges [lo, hi) of the clusters of an ascending spectrum.

    ``noise`` is how far, relative to the spectral scale max|lambda|
    (at least 1), perturbations may have moved degenerate eigenvalues
    apart; neighbours split where their gap exceeds 1e2 * noise * scale.
    """
    gap = 1e2 * noise * max(1.0, float(np.max(np.abs(evals))))
    cuts = (np.flatnonzero(np.diff(evals) > gap) + 1).tolist()
    bounds = [0] + cuts + [len(evals)]
    return list(zip(bounds[:-1], bounds[1:]))


def _single_block(dim, d, m):
    eye = np.eye(dim, dtype=complex)
    return [IsotypicBlock(label=0, irrep_dim=d, multiplicity=m,
                          projector=eye, factor_basis=eye)]


def isotypic_decompose(action, rng, tol=None, retries=5):
    """Decompose V into isotypic sectors E_lambda (x) R_lambda.

    The eigenspaces of a random Hermitian element x of the commutant
    are generically single copies of an irreducible.  Slices of the
    commutant basis rotated into x's eigenbasis span the intertwiners
    between them (``_slice_hom``): a nonzero slice puts two copies in
    one isomorphism class, and its normalized top singular vector
    assembles the factor basis.  Retries with fresh randomness when the
    spectrum fails the health checks, and raises
    ``DegenerateDecompositionError`` when the retry budget is exhausted.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    n = action.dim
    if action.is_trivial(tol):
        return _single_block(n, 1, n)
    if action.mode == MODE_SPIN_HALF:
        return _single_block(n, 2, n // 2)

    comm = commutant_basis(action, tol)
    last_error = None
    for attempt in range(retries):
        try:
            return _decompose_once(action, comm, rng.child(attempt), tol)
        except DegenerateDecompositionError as err:
            last_error = err
    raise DegenerateDecompositionError(
        f"no clean sector split after {retries} attempts: {last_error}")


def _eigen_split(action, comm, rng):
    """Eigenspaces of a random Hermitian element x of the commutant.

    Returns x's eigenvectors, the index ranges [lo, hi) of its eigenvalue
    clusters, and the singular-value cut that separates intertwiners
    from rounding in the commutant slices read by ``_slice_hom``.
    """
    # Complex coefficients: the Hermitian part of a real span of the
    # commutant basis can be degenerate (conjugate characters collide).
    coeff = rng.complex_normal(len(comm))
    x = sum(c * b for c, b in zip(coeff, comm))
    x = 0.5 * (x + x.conj().T)
    evals, evecs = np.linalg.eigh(x)
    # Inside one irreducible line the eigenvalue is degenerate up to how
    # far x fails to commute with the generators.  That residual, not
    # tol, sets the cluster gap: merging two lines is fatal here, and a
    # gap of 1e2 * tol would merge them at loose tolerances.  The floor
    # covers rounding in eigh.
    scale = max(1.0, float(np.max(np.abs(evals))))
    residual = max(linalg.frob(x @ g - g @ x)
                   for g in action.generators) / scale
    bounds = _eigen_clusters(evals, max(residual, 1e-12))
    return evecs, bounds, max(1e2 * residual, 1e-10)


def _slice_hom(row, cols, cut):
    """Orthonormal rows (flattened d_b x d_a maps) spanning Hom_G(a, b).

    The clusters are G-invariant, so Hom_G(a, b) = Q_b^H End_G(V) Q_a.
    ``row`` is Q_b^H C evecs for the stacked commutant basis C, ``cols``
    selects cluster a's columns, and the right singular vectors of the
    (|comm| x d_b d_a) slice above ``cut`` span the hom space.
    """
    _, s, vh = np.linalg.svd(row[:, :, cols].reshape(len(row), -1),
                             full_matrices=False)
    return vh[s > cut]


def _decompose_once(action, comm, rng, tol):
    n = action.dim
    gens = list(action.generators)
    evecs, bounds, cut = _eigen_split(action, comm, rng)
    clusters = [evecs[:, lo:hi] for lo, hi in bounds]
    reps = [[q.conj().T @ g @ q for g in gens] for q in clusters]

    # Invariance check: generators must not leak out of any cluster.
    for q, rep in zip(clusters, reps):
        for g, r in zip(gens, rep):
            if linalg.frob(g @ q - q @ r) > 1e3 * tol * max(1.0, linalg.frob(g)):
                raise DegenerateDecompositionError(
                    "eigenspace of commutant element is not invariant")

    classes = []  # list of lists of cluster indices
    links = {}  # cluster index -> intertwiner from its class's first one
    for idx, q in enumerate(clusters):
        # One rotated row of the commutant at a time, never a second
        # full |comm| x n x n stack.
        row = (q.conj().T @ comm) @ evecs
        # Each cluster must be a single irreducible copy.
        if len(_slice_hom(row, slice(*bounds[idx]), cut)) != 1:
            raise DegenerateDecompositionError(
                "cluster is not irreducible (merged eigenvalues)")
        d = q.shape[1]
        for cls in classes:
            if clusters[cls[0]].shape[1] != d:
                continue
            found = _slice_hom(row, slice(*bounds[cls[0]]), cut)
            if len(found):
                cls.append(idx)
                links[idx] = found[0].reshape(d, d)
                break
        else:
            classes.append([idx])

    blocks = []
    for label, cls in enumerate(classes):
        first = cls[0]
        q0 = clusters[first]
        d = q0.shape[1]
        maps = [q0]
        for idx in cls[1:]:
            m = links[idx]
            scale = np.trace(m.conj().T @ m).real / d
            m = m / np.sqrt(scale)
            if linalg.frob(m.conj().T @ m - np.eye(d)) > 1e3 * tol:
                raise DegenerateDecompositionError(
                    "intertwiner failed to normalize to an isometry")
            maps.append(clusters[idx] @ m)
        fb = np.hstack(maps)
        mult = len(cls)
        proj = fb @ fb.conj().T
        for g in gens:
            gb = fb.conj().T @ g @ fb
            rho = gb[:d, :d]
            if linalg.frob(gb - np.kron(np.eye(mult), rho)) > \
                    1e3 * tol * max(1.0, linalg.frob(g)):
                raise DegenerateDecompositionError(
                    "factor basis failed the block-Kronecker test")
        blocks.append(IsotypicBlock(label=label, irrep_dim=d,
                                    multiplicity=mult, projector=proj,
                                    factor_basis=fb))

    if sum(b.dim for b in blocks) != n:
        raise DegenerateDecompositionError("sector dimensions do not sum to "
                                           "the space dimension")
    return blocks


def dual_sum(g):
    """g + conj(g) on V + V*: a unitary, or an anti-Hermitian generator,
    acting on V and on its dual; a stack of them maps matrix by matrix."""
    n = g.shape[-1]
    out = np.zeros(g.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = g
    np.conjugate(g, out=out[..., n:, n:])
    return out


def fs_indicator(action, block, tol=None):
    """Frobenius-Schur indicator of the sector's irreducible.

    Averages the character at squared group elements; +1 for real type
    (a symmetric self-pairing exists), -1 for quaternionic type (skew
    self-pairing), 0 for complex type (no self-pairing).
    """
    if action.mode != MODE_FINITE:
        raise UnsupportedModeError("Frobenius-Schur indicator needs an "
                                   "explicit finite group")
    r = block.rep_basis()
    squares = (action.elements @ action.elements).sum(axis=0)
    value = np.trace(r.conj().T @ squares @ r) / len(action.elements)
    rounded = int(np.rint(value.real))
    if abs(value - rounded) > 1e-6 * len(action.elements) or \
            rounded not in (-1, 0, 1):
        raise DegenerateDecompositionError(
            f"indicator {value} did not round to -1, 0 or +1")
    return rounded


def self_duality_type(action, block, tol=None):
    """Symmetry type of the equivariant self-pairing R -> R*, if any.

    Returns +1 when a symmetric equivariant isomorphism onto the dual
    exists, -1 when it is skew, and 0 when R is not self-dual.  Works in
    every mode (the dual of a unitary or anti-Hermitian generator is its
    entrywise conjugate).

    The commutant of R + R* (dimension 2d) is C + C when R is not
    self-dual and the 2 x 2 matrices over C when it is; then the
    lower-left d x d blocks of the commutant basis span Hom_G(R, R*),
    and the largest of them is the pairing psi.  Any other commutant,
    or one without a pairing block, means R is not irreducible and
    raises ``DegenerateDecompositionError``.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    d = block.irrep_dim
    doubled = tuple(dual_sum(block.irrep_matrix(g))
                    for g in action.generators)
    comm = commutant_basis(GroupAction(dim=2 * d, mode=action.mode,
                                       generators=doubled), tol)
    if len(comm) == 2:
        return 0
    lower = comm[:, d:, :d]
    psi = lower[np.argmax(np.linalg.norm(lower, axis=(1, 2)))]
    # The unit pairing direction has squared weight >= 1/4 on one of the
    # four orthonormal elements, so |psi| >= 1/2; the cut at 1/4 allows noise.
    if len(comm) != 4 or linalg.frob(psi) < 0.25:
        raise DegenerateDecompositionError(
            f"commutant of R + R* has dimension {len(comm)} and pairs R "
            f"with R* at weight {linalg.frob(psi):.2e}: the sector is not "
            "irreducible")
    for sign in (1, -1):
        if linalg.frob(psi - sign * psi.T) <= tol * linalg.frob(psi):
            return sign
    raise DegenerateDecompositionError("self-pairing is neither symmetric "
                                       "nor skew")
