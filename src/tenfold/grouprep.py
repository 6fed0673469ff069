"""Unitary symmetry groups on V: closure, commutants, isotypic decomposition.

A ``GroupAction`` is G0 given by its matrices alone: generators, and for
a finite group (the trivial group is the one of order one) its closed
elements; a Lie algebra of anti-Hermitian generators has none.
``isotypic_decompose`` splits V into sectors V_lambda ~ E_lambda (x)
R_lambda, one per isomorphism class of irreducible subrepresentation,
with the multiplicity factor E slow and the irreducible factor R fast
in the column ordering of the returned bases.

The decomposition is purely numerical.  A generic Hermitian element h
of the algebra the generators span acts on each sector as
rho(h) (x) 1_m, so its eigenspaces are lines of R times E.  Carried
onto each other along the generator blocks, by polar factors, they
show every block as a scalar: each connected component of the blocks
is one sector.  Self-duality is read from the same routine: R is
self-dual exactly when the commutant of R + R* is a full 2 x 2 matrix
algebra (a character: when it is real), and its off-diagonal block is
the pairing R -> R*.

Cost.  No linear system is formed: one eigendecomposition of h, then
per round of refinement (one, unless h is degenerate) the blocks of
one generic element, O(n^3), and of the k generators in the frames of
each component of n_c dimensions, O(k n_c^3); the components are found
in one pass over the links between clusters.  1_m (x) r is O(k n^2).
``close_group`` closes a group of order N breadth-first, a level at a
time: O(k N) products of dim x dim matrices, one batched matmul per
level, and duplicates found through a sorted scalar key, O(k N log N)
lookups and one batched distance per pair of near keys rather than
O(k N^2) Frobenius distances.  Its Python work is the per-candidate
key bookkeeping; the elements are one (N, dim, dim) array that the
readers (``fs_indicator``, the classifier's normalizer check and its
Nambu lift) take in one vectorized operation each.
"""

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DegenerateDecompositionError, GroupTooLargeError,
                     InputShapeError, UnsupportedModeError)

MAX_ORDER = 10_000

# Seed of the fixed generic vectors and coefficients behind the
# close_group keys and the algebra elements that _sectors reads.
_PROBE_SEED = 0x7E4F01D

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A unitary symmetry group (or Lie algebra) acting on C^dim.

    A finite group holds its elements as one (order, dim, dim) array; a
    Lie algebra has none.
    """

    dim: int
    generators: tuple
    elements: np.ndarray = None


@dataclass(frozen=True, eq=False)
class IsotypicBlock:
    """One sector of the isotypic decomposition, as its factor basis.

    ``factor_basis`` columns identify the sector with E (x) R; column
    j*d + k is the image of (e_j tensor r_k), so the multiplicity index
    is slow and the irreducible index fast; the columns are
    orthonormal, so the scalar product transferred to E is the identity.
    """

    label: int
    irrep_dim: int
    multiplicity: int
    factor_basis: np.ndarray

    @property
    def dim(self):
        return self.irrep_dim * self.multiplicity

    @property
    def projector(self):
        """Projector fb fb^H onto the sector, n x n, formed on each read."""
        return self.factor_basis @ self.factor_basis.conj().T

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
    return GroupAction(dim=dim, generators=tuple(gens))


def u1_charge_action(dim):
    """The U(1) particle-number action, generated by i * identity."""
    return lie_algebra_action([1j * np.eye(dim)])


def spin_half_action(dim):
    """su(2) on V = E (x) C^2 (E slow, spin fast), unvalidated: no copies."""
    if dim < 2 or dim % 2:
        raise InputShapeError("spin-half mode needs an even dimension >= 2")
    eye = np.eye(dim // 2)
    return GroupAction(dim=dim, generators=tuple(
        np.kron(eye, 1j * s) for s in (PAULI_X, PAULI_Y, PAULI_Z)))


def close_group(generators, tol_dedup=linalg.TOL_DEDUP, dim=None):
    """Multiplicative closure of unitary generators.

    Breadth-first over words in the generators, one level at a time.
    The candidates of a level are the products g e, for e in the
    previous level and, inner, g in the generators; a candidate is
    dropped when it lies within Frobenius distance ``tol_dedup`` of an
    element already held or of an earlier kept candidate of its level.
    The identity is always included (an empty generator list with
    explicit ``dim`` gives the order-1 group).  Raises
    ``GroupTooLargeError`` when the closure exceeds ``MAX_ORDER``
    elements, or as many as fit in ``linalg.MAX_ARRAY_BYTES``, before it
    holds one more (before the identity, when not even that fits).

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

    item = 16 * dim * dim
    held = min(MAX_ORDER, linalg.MAX_ARRAY_BYTES // item)
    if held < 1:
        raise GroupTooLargeError(
            f"one group element of size {dim} x {dim} needs {item} bytes, "
            f"above the limit of {linalg.MAX_ARRAY_BYTES} bytes")
    u, v = _probe_pair(dim)
    # Re(u^H g v) is the real part of g's entries summed against u* v^t
    weight = np.outer(u.conj(), v).ravel()
    # The window is widened by 1e-12 to cover rounding in the keys.
    window = tol_dedup + 1e-12
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
                        "" if held == MAX_ORDER else
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
    return GroupAction(dim=dim, generators=tuple(gens),
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
    """Frobenius-orthonormal basis of {X : [X, g] = 0 for all generators},
    stacked as a (dim, n, n) array: fb (E_ab (x) 1_d) fb^H / sqrt(d) for
    each sector of ``_sectors`` in turn, a and b in row-major order.

    G0's generators are unitary or anti-Hermitian, so the algebra they
    generate is closed under adjoints, and its commutant is the sum of
    M_m (x) 1_d over the sectors: its dimension is the sum of squared
    multiplicities.  A stack above ``linalg.MAX_ARRAY_BYTES`` raises
    ``InputShapeError`` unallocated.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    n = action.dim
    sectors = _sectors(action, tol)
    dims = [(fb.shape[1] // d) ** 2 for d, fb in sectors]
    size = 16 * sum(dims) * n * n
    if size > linalg.MAX_ARRAY_BYTES:
        raise InputShapeError(
            f"the commutant on C^{n} has {sum(dims)} dimensions; its basis "
            f"needs {size} bytes, above the limit of "
            f"{linalg.MAX_ARRAY_BYTES} bytes")
    out = np.empty((sum(dims), n, n), dtype=complex)
    at = 0
    for (d, fb), dim in zip(sectors, dims):
        m = fb.shape[1] // d
        # f[a]: the n x d columns of copy a
        f = fb.reshape(n, m, d).transpose(1, 0, 2) / d ** 0.25
        np.matmul(f[:, None], f.conj().transpose(0, 2, 1)[None],
                  out=out[at:at + dim].reshape(m, m, n, n))
        at += dim
    return out


def _sectors(action, tol):
    """(d, factor basis) of each isotypic sector.

    A generic Hermitian h = sum_k c_k g_k + h.c. lies in the algebra A
    that the generators span, closed under adjoints; on each sector it
    is rho(h) (x) 1_m, so each cluster of its spectrum is a line of R
    times E.  In frames of E every block of every element of A is a
    scalar.  The frames of a connected component of the blocks of the
    generic G = sum_k w_k g_k are carried along a maximum spanning tree
    of its blocks by their polar factors; then the component is one
    sector, d clusters of one size m.

    A degenerate h (a Lie weight shared by two irreducibles, a weight
    space of dimension above one) merges clusters.  A merged cluster
    holds a block that is not scalar to tol, in units of the largest
    generator: the Hermitian part of G's diagonal block plus B B^H and
    B^H B over G's blocks B from and into it, weighted per cluster, or a
    generator's block in the frames.  These lie in A cut down to the
    cluster, so a Hermitian generic combination of them splits it at
    the gaps of its spectrum above 10 tol of its spread, into clusters
    of the same kind.  A cluster that does not split raises
    ``DegenerateDecompositionError``.
    """
    n = action.dim
    gens = np.array(action.generators, dtype=complex).reshape(-1, n, n)
    k = len(gens)
    probe = linalg.RngStream(_PROBE_SEED)
    h = (probe.complex_normal(k) @ gens.reshape(k, n * n)).reshape(n, n)
    evals, q = np.linalg.eigh(h + h.conj().T)
    del h
    # the generators are only known to tol, so neighbours split where
    # their gap exceeds 1e2 tol max(1, max|lambda|); a merged cluster is
    # split below, a split one is never merged
    gap = 1e2 * tol * max(1.0, float(np.max(np.abs(evals))))
    starts = [0] + (np.flatnonzero(np.diff(evals) > gap) + 1).tolist()
    gens /= np.linalg.norm(gens, axis=(1, 2)).max(initial=1.0)
    w = probe.complex_normal(k)
    w /= np.abs(w).sum() or 1.0
    omega = 1.0 + probe.generator.random(n)  # a weight per cluster
    while True:
        sizes = np.diff(starts + [n])
        g = q.conj().T @ (np.tensordot(w, gens, axes=1) @ q)
        strength = linalg.block_weights(g, starts)
        link = np.maximum(strength, strength.T) > (tol / 2) ** 2
        sectors, splits = [], {}
        for comp in _components(link):
            d, m = len(comp), sizes[comp[0]]
            rows = np.concatenate([np.arange(starts[a], starts[a] + sizes[a])
                                   for a in comp])
            # a view when the component is one cluster
            gc = g[rows[0]:rows[-1] + 1, rows[0]:rows[-1] + 1] if d == 1 \
                else g[rows[:, None], rows]
            y = np.conjugate(gc.T, order="C")  # so += below needs no buffer
            y += gc
            y *= 0.5
            if d > 1:  # G Omega G^H + G^H Omega G
                weight = np.repeat(omega[comp], sizes[comp])
                y += (gc * weight) @ gc.conj().T + \
                    gc.conj().T @ (gc * weight[:, None])
            for a, lo in zip(comp, np.cumsum(sizes[comp]) - sizes[comp]):
                block = y[lo:lo + sizes[a], lo:lo + sizes[a]]
                np.einsum("ii->i", block)[...] -= np.trace(block) / len(block)
                if np.vecdot(block, block).real.sum() > tol ** 2:
                    splits[a] = block
            if any(a in splits for a in comp):
                continue
            if (sizes[comp] != m).any():
                raise DegenerateDecompositionError(
                    f"linked clusters of h have sizes {sizes[comp].tolist()}")
            if d == 1:
                sectors.append((1, q[:, rows]))
                continue
            frames = _frames(g, rows.reshape(d, m), np.where(
                link[comp[:, None], comp], strength[comp[:, None], comp], 0))
            f = (q[:, rows].reshape(n, d, m).transpose(1, 0, 2) @ frames
                 ).transpose(1, 0, 2).reshape(n, d * m)
            # every block of the component in the frames, in one product
            nt = (f.conj().T @ gens @ f).reshape(k, d, m, d, m)
            diag = np.einsum("kaibi->kabi", nt)
            diag -= diag.mean(axis=3, keepdims=True)  # the scalar parts
            off = np.sqrt((np.abs(nt) ** 2).sum(axis=(0, 2, 3, 4)))
            for a in np.flatnonzero(off > tol):
                x = np.einsum("k,b,kibj->ij", w, omega[comp], nt[:, a])
                splits[comp[a]] = frames[a] @ (x + x.conj().T) @ \
                    frames[a].conj().T
            sectors.append((d, f.reshape(n, d, m).transpose(0, 2, 1).reshape(
                n, m * d)))
        if not splits:
            return sectors
        for a in sorted(splits, reverse=True):
            lo, m = starts[a], sizes[a]
            vecs, cuts = _split(splits[a], tol)
            q[:, lo:lo + m] = q[:, lo:lo + m] @ vecs
            starts[a + 1:a + 1] = [lo + c for c in cuts]


def _components(link):
    """Connected components of the symmetric boolean ``link`` by least
    member, members ascending, in O(k + links) memory: each root hooks
    onto the least root linked to it, then pointer jumping (Shiloach and
    Vishkin, J. Algorithms 3 (1982) 57); a root is its least member."""
    i, j = np.nonzero(link)
    root = np.arange(len(link))
    while (root[i] != root[j]).any():
        np.minimum.at(root, np.maximum(root[i], root[j]),
                      np.minimum(root[i], root[j]))
        while (root[root] != root).any():
            root = root[root]
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _frames(g, idx, weight):
    """Unitary frames (d, m, m) of the clusters with rows ``idx`` (d, m)
    in which G's blocks are scalars: the first is the identity, and each
    other comes from the one it joins a maximum spanning tree of
    ``weight`` from, by the polar factor of G's block between them."""
    d, m = idx.shape
    frames = np.empty((d, m, m), dtype=complex)
    frames[0] = np.eye(m)
    best, parent = weight[0].astype(float), np.zeros(d, dtype=int)
    best[0] = -np.inf
    joined = [0]
    for _ in range(d - 1):
        b = int(np.argmax(best))
        u, _, vh = np.linalg.svd(g[idx[parent[b], :, None], idx[b]])
        frames[b] = (u @ vh).conj().T @ frames[parent[b]]
        joined.append(b)
        best[b] = -np.inf
        closer = weight[b] > best
        closer[joined] = False
        parent[closer], best[closer] = b, weight[b][closer]
    return frames


def _split(y, tol):
    """Eigenvectors of Hermitian y and the cuts of its ascending spectrum
    at gaps above 10 tol of its spread."""
    evals, vecs = np.linalg.eigh(y)
    cuts = (np.flatnonzero(np.diff(evals) > 10 * tol * (evals[-1] - evals[0]))
            + 1).tolist()
    if not cuts:
        raise DegenerateDecompositionError(
            f"a cluster of {len(y)} eigenvectors of h holds blocks that are "
            "not scalar, and their spectrum has no gap to split it at")
    return vecs, cuts


def _tensor_factor(action, tol):
    """The one sector of a G0 whose generators are 1_m (x) r_k, each to
    tol * max(1, ||g||), with r irreducible; else None.  Tries d | n from
    d = 1 (scalars), m = n / d >= 2, each screened by g[d:, :d] in O(n d);
    r_k is the mean diagonal block.  The first d that fits decides: a
    1 x 1 r is irreducible, a larger one when it is one sector of
    multiplicity 1.
    """
    n, gens = action.dim, action.generators
    limits = [tol * max(1.0, *linalg.frob_each(g[None])) for g in gens]
    for d in [d for d in range(1, n // 2 + 1) if n % d == 0] or [1]:
        if any(linalg.frob(g[d:, :d]) > lim for g, lim in zip(gens, limits)):
            continue
        m, factors = n // d, []
        for g, lim in zip(gens, limits):
            g4 = np.ascontiguousarray(g, dtype=complex).reshape(m, d, m, d)
            diag = np.einsum("aiaj->aij", g4)
            factors.append(diag.mean(axis=0))
            x = g4.view(float)
            power = np.einsum("aibj,aibj->ab", x, x)  # squared block norms
            np.einsum("aa->a", power)[...] = 0
            if power.sum() + linalg.frob(diag - factors[-1]) ** 2 > lim ** 2:
                break
        else:
            if d > 1 and [s[0] for s in _sectors(GroupAction(
                    dim=d, generators=tuple(factors)), tol)] != [d]:
                return None
            return IsotypicBlock(label=0, irrep_dim=d, multiplicity=m,
                                 factor_basis=np.eye(n, dtype=complex))
    return None


def isotypic_decompose(action, rng, tol=None):
    """Decompose V into isotypic sectors E_lambda (x) R_lambda.

    The sectors are those of ``_sectors``, labelled in ascending order
    of a key drawn from ``rng``: the least eigenvalue of the Hermitian
    part of A = tr_R(fb^H r fb) / d for one complex Gaussian r on V,
    which is x's eigenvalue on the sector's first copy for the random
    commutant element x that r projects to.  A G0 that is 1_m (x) r in
    the given basis with r irreducible (``_tensor_factor``) is one
    sector, with no split.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    block = _tensor_factor(action, tol)
    if block is not None:
        return [block]
    r = rng.child(0).complex_normal((action.dim,) * 2)
    keyed = []
    for d, fb in _sectors(action, tol):
        m = fb.shape[1] // d
        a = np.einsum("aibi->ab", (fb.conj().T @ r @ fb).reshape(m, d, m, d))
        keyed.append((np.linalg.eigvalsh(a + a.conj().T)[0] / d, d, fb))
    keyed.sort(key=lambda sector: sector[0])
    return [IsotypicBlock(label=label, irrep_dim=d,
                          multiplicity=fb.shape[1] // d, factor_basis=fb)
            for label, (_, d, fb) in enumerate(keyed)]


def dual_sum(g):
    """g + conj(g) on V + V*: a unitary, or an anti-Hermitian generator,
    acting on V and on its dual; a stack of them maps matrix by matrix."""
    n = g.shape[-1]
    out = np.zeros(g.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = g
    np.conjugate(g, out=out[..., n:, n:])
    return out


def fs_indicator(action, block):
    """Frobenius-Schur indicator of the sector's irreducible.

    Averages the character at squared group elements; +1 for real type
    (a symmetric self-pairing exists), -1 for quaternionic type (skew
    self-pairing), 0 for complex type (no self-pairing).
    """
    if action.elements is None:
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
    exists, -1 when it is skew, and 0 when R is not self-dual (the dual
    of a unitary or anti-Hermitian generator is its entrywise conjugate).

    A character is self-dual (and symmetric) when real: |Im r_k| <= tol.
    Else the commutant of R + R* (dimension 2d) is C + C when R is not
    self-dual and the 2 x 2 matrices over C when it is; then the
    lower-left d x d blocks of the commutant basis span Hom_G(R, R*),
    and the largest of them is the pairing psi.  Any other commutant,
    or one without a pairing block, means R is not irreducible and
    raises ``DegenerateDecompositionError``.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    d = block.irrep_dim
    rep = [block.irrep_matrix(g) for g in action.generators]
    if d == 1:
        return int(all(abs(r[0, 0].imag) <= tol for r in rep))
    comm = commutant_basis(GroupAction(dim=2 * d, generators=tuple(
        dual_sum(r) for r in rep)), tol)
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
