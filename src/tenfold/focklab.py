"""Small-N fermionic Fock space, as a brute-force oracle.

The exterior algebra over C^N is realized on occupation bitstrings in
lexicographic order (bit k = occupation of mode k), with Jordan-Wigner
signs fixing the wedge ordering e_1 ^ e_2 ^ ... ascending.  This module
provides the canonical anti-commutation operators, wedge products,
particle-hole conjugation, quadratic Hamiltonians and the two-to-one
covering onto the orthogonal group of the Majorana span.

a_k^dag, a_k, the Majoranas and C are signed permutations b -> b ^ mask
(``SignedPerm``, C from ``conjugation``): a Fock space costs O(N 2^N)
memory up to N = 14 modes, and a product of two operators O(2^N)
gathers.  What is dense by nature (a quadratic Hamiltonian, the lift
of a general unitary) and the matrix of C (``particle_hole``) are
2^N x 2^N arrays, built only up to ``MAX_DENSE_MODES``; above it those
entry points raise InputShapeError before allocating.  Scaling is a
non-goal, exactness is the point.

The two checks never multiply 2^N x 2^N matrices; they work on the
blocks that fermion parity and particle number leave.  A quadratic H is
parity-even and every Majorana parity-odd, so exp(-iH) splits into two
2^(N-1) blocks, one on each half-spinor module of Spin(2N) (Lawson and
Michelsohn, Spin Geometry, ch. I), and U c_i U^dag into the two blocks
between them, each the adjoint of the other.  ``covering_check``
exponentiates each parity block through its eigendecomposition and
forms only the even-to-odd one, one 2^(N-1)-sized product per Majorana
pair c_2k, c_2k+1 (row by row they differ by a factor +-i): a sixteenth
of the flops of the dense conjugation, a quarter of its memory.  Lift(S)
keeps the particle number and C maps n particles to N - n, so
``twisted_ph_transfer_check`` works on the C(N, n)-sized
sector blocks of both, O(N sum_n C(N, n)^3) flops in place of N + 1
dense products, and reads C conj(Lift(S)) as signed rows of Lift(S).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .antiunitary import AntiUnitaryOp
from .errors import InputShapeError, NotQuadraticError

MAX_MODES = 14
# A 2^N x 2^N complex array takes 64 MB at N = 11 and 256 MB at N = 12.
# fock-verify holds H, its exponentiated parity blocks and Lift(S)
# dense.  With one BLAS thread on a shared 2-vCPU host, --modes 10
# --trials 1 takes 0.83-0.88 s and peaks at 113 MB resident, --modes 11
# 5.3 s and 328 MB, --modes 12 40 s and 1028 MB; N = 13 would need 4 GB.
MAX_DENSE_MODES = 12
# covering_check forms the images of the Majoranas of as many modes at
# once as fit in this many entries (1 MB), and of at least one mode;
# lift_unitary gathers at most this many entries (2 MB), and at least
# one column; wedge takes this many pairs of basis states at a time
# (about 30 MB)
_BATCH_ENTRIES = 1 << 16
_LIFT_ENTRIES = 2 * _BATCH_ENTRIES
_WEDGE_PAIRS = 1 << 18


@dataclass(frozen=True, eq=False)
class SignedPerm:
    """Operator (A v)[b] = sign[b] v[b ^ mask] on the occupation basis.

    A zero sign marks an empty row, so partial permutations such as
    a_k^dag fit as well as full ones.  ``A @ B`` composes, and ``A @ x``
    acts on a dense array by gathering its rows.
    """

    mask: int
    sign: np.ndarray

    def _sources(self):
        return np.arange(len(self.sign)) ^ self.mask

    def __matmul__(self, other):
        src = self._sources()
        if isinstance(other, SignedPerm):
            return SignedPerm(self.mask ^ other.mask,
                              self.sign * other.sign[src])
        other = np.asarray(other)
        return self.sign.reshape((-1,) + (1,) * (other.ndim - 1)) * \
            other[src]

    def adjoint(self):
        return SignedPerm(self.mask, np.conj(self.sign[self._sources()]))

    def dense(self):
        out = np.zeros((len(self.sign),) * 2, dtype=self.sign.dtype)
        out[np.arange(len(self.sign)), self._sources()] += self.sign
        return out


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Exterior algebra over C^N with its CAR operators."""

    n_modes: int
    dim: int
    create: tuple  # a_k^dag as SignedPerm
    annihilate: tuple  # a_k as SignedPerm
    occupation: np.ndarray  # particle number of each basis state

    @property
    def vacuum_index(self):
        return 0

    @property
    def top_index(self):
        """Index of the fully occupied state Omega = e_1 ^ ... ^ e_N."""
        return self.dim - 1


def _require_dense(fock):
    if fock.n_modes > MAX_DENSE_MODES:
        raise InputShapeError(
            f"dense Fock-space operators are limited to {MAX_DENSE_MODES} "
            f"modes ({fock.n_modes} requested)")


def build_fock(n_modes):
    """Construct creation/annihilation operators for ``n_modes`` modes.

    a_k^dag acting on a bitstring with bit k clear picks up the sign
    (-1)^(number of occupied modes below k).
    """
    if not 1 <= n_modes <= MAX_MODES:
        raise InputShapeError(f"mode count must be in 1..{MAX_MODES}")
    dim = 1 << n_modes
    states = np.arange(dim)
    create = []
    for k in range(n_modes):
        below = np.bitwise_count(states & ((1 << k) - 1)) % 2
        sign = np.where(states & (1 << k), 1.0 - 2.0 * below, 0.0)
        create.append(SignedPerm(1 << k, sign))
    return FockSpace(n_modes=n_modes, dim=dim, create=tuple(create),
                     annihilate=tuple(a.adjoint() for a in create),
                     occupation=np.bitwise_count(states).astype(np.int64))


def majorana_basis(fock):
    """Hermitian Majorana operators c_1, ..., c_2N with {c_i, c_j} = 2 d_ij.

    Ordering: c_{2k} = a_k + a_k^dag and c_{2k+1} = i a_k - i a_k^dag for
    mode k (0-based).  Each is a full signed permutation with mask 2^k.
    """
    out = []
    for a_dag, a in zip(fock.create, fock.annihilate):
        out.append(SignedPerm(a.mask, a.sign + a_dag.sign))
        out.append(SignedPerm(a.mask, 1j * a.sign - 1j * a_dag.sign))
    return out


def wedge(fock, psi, phi):
    """Wedge product of two Fock vectors in the occupation basis.

    Sums the terms e_S ^ e_T over the disjoint pairs of the supports,
    S-major, a block of pairs at a time, in the order of a loop over the
    pairs.  Reordering e_S ^ e_T costs the parity of the pairs
    (m in T, m' in S) with m' > m, that is of T & odd(S), where bit m of
    odd(S) is the parity of the modes of S above m.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    out = np.zeros(fock.dim, dtype=complex)
    support, phi_nz = np.nonzero(psi)[0], np.nonzero(phi)[0]
    odd = support >> 1  # suffix parities by doubling
    shift = 1
    while shift < fock.n_modes:
        odd ^= odd >> shift
        shift *= 2
    step = max(1, _WEDGE_PAIRS // max(1, len(phi_nz)))
    for i in range(0, len(support), step):
        rows, cols = np.nonzero((support[i:i + step, None] & phi_nz) == 0)
        s, t = support[i + rows], phi_nz[cols]
        terms = _unfused_product(psi[s], phi[t])
        flip = np.bitwise_count(t & odd[i + rows]) % 2 == 1
        # add.at adds repeated targets one by one, in the pairs' order
        np.add.at(out, s | t, np.where(flip, -terms, terms))
    return out


def _unfused_product(x, y):
    """Entrywise complex x * y with each real product rounded on its own.

    numpy's loops over complex arrays may fuse a multiply and an add
    where its scalar product does not; this way every entry equals the
    scalar product x[i] * y[i] bit for bit.
    """
    out = np.empty(len(x), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def conjugation(fock):
    """The unitary part of C as a signed permutation with mask Omega.

    Row S holds the sign of e_S ^ e_(S^c), as ``wedge`` computes it:
    the parity of the pairs (m not in S, m' in S) with m' > m.
    """
    states = np.arange(fock.dim)
    pairs = sum(np.where(states & (1 << m), 0,
                         np.bitwise_count(states >> (m + 1)))
                for m in range(fock.n_modes))
    return SignedPerm(fock.top_index, 1.0 - 2.0 * (pairs % 2))


def particle_hole(fock):
    """Particle-hole conjugation C with (C psi) ^ psi' = <psi, psi'> Omega.

    C maps n particles to N - n holes; its square on the n-particle
    subspace is (-1)^(n (N - n)).  The phase of Omega is fixed to +1 on
    the all-ones bitstring.
    """
    _require_dense(fock)
    return AntiUnitaryOp(conjugation(fock).dense())


def lift_unitary(fock, s):
    """Functorial lift of a one-particle operator to the exterior algebra.

    The basis state e_S maps to (s e_{k_1}) ^ (s e_{k_2}) ^ ... with the
    modes of S ascending, i.e. column S is sum_k s_kj a_k^dag applied to
    column S - {j}, j the lowest mode of S.  Per j that is one
    contraction of s[:, j] with the N signed gathers a_k^dag of the
    predecessor columns, a chunk of columns at a time.
    """
    _require_dense(fock)
    s = np.asarray(s, dtype=complex)
    n = fock.n_modes
    if s.shape != (n, n):
        raise InputShapeError(f"expected a {n} x {n} one-particle operator")
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    out[fock.vacuum_index, fock.vacuum_index] = 1.0
    states = np.arange(fock.dim)
    lowest = states & -states
    signs = np.stack([a.sign for a in fock.create])[..., None]
    sources = states ^ np.array([a.mask for a in fock.create])[:, None]
    # the chunks reuse two buffers: fresh ones took longer to fault in
    # than the gathers took
    step = min(fock.dim, max(1, _LIFT_ENTRIES // (n * fock.dim)))
    gathered = np.empty(n * fock.dim * step, dtype=complex)
    columns = np.empty(fock.dim * step, dtype=complex)
    for j in reversed(range(n)):
        cols = np.nonzero(lowest == 1 << j)[0]
        for i in range(0, len(cols), step):
            chunk = cols[i:i + step]
            # [k, b, c]: row b of a_k^dag applied to column c - {j}; the
            # indices are in range, and "clip" spares take a buffered copy
            terms = gathered[:n * fock.dim * len(chunk)].reshape(
                n, fock.dim, -1)
            np.take(out[:, chunk ^ (1 << j)], sources, axis=0, out=terms,
                    mode="clip")
            terms *= signs
            image = columns[:fock.dim * len(chunk)]
            np.matmul(s[:, j], terms.reshape(n, -1), out=image)
            out[:, chunk] = image.reshape(fock.dim, -1)
    return out


def lift_one_body(fock, w, z):
    """Quadratic Hamiltonian sum W a^dag a + (Z a^dag a^dag + h.c.)/2.

    ``w`` must be Hermitian and ``z`` skew-symmetric (the pairing term is
    only well defined up to its antisymmetric part).

    The three terms of every mode pair (k, l) are signed permutations
    with mask m_k ^ m_l, formed for all pairs at once by broadcasting.
    Only (k, l) and (l, k) share a mask, so each entry of H is a sum
    over one or two pairs, or over the k = l pairs on the diagonal;
    these sums are taken from zero in the order of a loop over k, then
    l, then the three terms, and equal that loop's bit for bit.
    """
    _require_dense(fock)
    n = fock.n_modes
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if w.shape != (n, n) or z.shape != (n, n):
        raise InputShapeError("W and Z must match the mode count")
    if not linalg.is_hermitian(w):
        raise InputShapeError("W must be Hermitian")
    if not linalg.is_skew(z):
        raise InputShapeError("Z must be skew-symmetric")
    rows = np.arange(fock.dim)
    masks = np.array([op.mask for op in fock.create])
    create = np.stack([op.sign for op in fock.create])
    annihilate = np.stack([op.sign for op in fock.annihilate])
    # [k, l, b]: row b of a_k^dag a_l and of a_k^dag a_l^dag sits in
    # column b ^ m_k ^ m_l; the second factor's sign is read at b ^ m_k
    src = (rows ^ masks[:, None])[:, None]
    cols = src ^ masks[:, None]
    modes = np.arange(n)[:, None]
    hop = create[:, None] * annihilate[modes, src]
    pair = create[:, None] * create[modes, src]
    terms = (w[..., None] * hop, (0.5 * z)[..., None] * pair,
             (0.5 * np.conj(z))[..., None] *
             np.conj(np.take_along_axis(pair, cols, axis=2)))
    h = np.zeros((fock.dim, fock.dim), dtype=complex)
    k, l = np.triu_indices(n, 1)
    off = np.zeros((len(k), fock.dim), dtype=complex)
    for a, b in ((k, l), (l, k)):
        for term in terms:
            off += term[a, b]
    h[rows, cols[k, l]] = off
    diagonal = np.zeros(fock.dim, dtype=complex)
    for a in range(n):
        for term in terms:
            diagonal += term[a, a]
    h[rows, rows] = diagonal
    return h


def nambu_generator(w, z):
    """Generator of the induced rotation of the Majorana span.

    Returns the real skew matrix A with U_t c_i U_t^{-1} =
    sum_j exp(tA)_{ji} c_j for U_t = exp(-i t H) and H the quadratic
    Hamiltonian built from (w, z).
    """
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n = w.shape[0]
    # Action on the coefficient space of (a_1..a_N, a^dag_1..a^dag_N):
    # -i[H, a_m] = i sum_l W_ml a_l - i sum_k Z_km a^dag_k
    # -i[H, a^dag_m] = -i sum_l conj(Z)_ml a_l - i sum_k W_km a^dag_k
    # so with G11 = i W^t, G12 = -i Z^dag, G21 = -i Z and G22 = -i W, the
    # Majoranas c_2m = a_m + a^dag_m, c_2m+1 = i(a_m - a^dag_m) give A's
    # 2 x 2 block of modes (m, l) as b[:, :, m, l].
    g11, g12, g21, g22 = 1j * w.T, -1j * z.conj().T, -1j * z, -1j * w
    b = 0.5 * np.array([[g11 + g12 + g21 + g22, 1j * (g11 - g12 + g21 - g22)],
                        [1j * (g21 + g22 - g11 - g12), g11 - g12 - g21 + g22]])
    a = b.transpose(2, 0, 3, 1).reshape(2 * n, 2 * n)
    if linalg.frob(a.imag) > 1e-12 * max(1.0, linalg.frob(a)):
        raise InputShapeError("Majorana generator failed to come out real")
    return a.real


def _exp_i(h):
    """exp(-i h) for Hermitian ``h`` from its eigendecomposition; the
    result is unitary by construction."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def _sectors(labels):
    """Index arrays of the basis states with each label value, ascending,
    and every state's position within its own sector."""
    sectors = [np.nonzero(labels == v)[0] for v in range(labels.max() + 1)]
    pos = np.empty(len(labels), dtype=np.int64)
    for idx in sectors:
        pos[idx] = np.arange(len(idx))
    return sectors, pos


@dataclass(frozen=True, eq=False)
class CoveringRecord:
    """Result of projecting a Fock evolution onto the Majorana rotation."""

    rotation: np.ndarray
    span_residual: float
    orthogonality_residual: float
    determinant: float
    generator_residual: float

    @property
    def sign_invariant(self):
        """True by construction: M is read off U c U^dag, even in U.  The
        falsifiable two-to-one law is verify's 2 pi lift to -1."""
        return True


def covering_check(fock, h_fock, w, z):
    """Project U = exp(-i H) onto SO(2N) and compare with the generator.

    Computes the rotation M with U c_i U^{-1} = sum_j M_{ji} c_j, checks
    that M is special orthogonal and that it equals the exponential of
    the Majorana generator built from (w, z).

    H must be Hermitian (else InputShapeError) and parity-even (else
    NotQuadraticError).  Then U = U_e + U_o on the even and odd states,
    each block exp(-i H) of size 2^(N-1), and every Majorana maps one
    parity to the other, so U c_i U^{-1} has only the two blocks
    X = U_e c_i U_o^{-1} and U_o c_i U_e^{-1} = X^dag.  Only X is
    formed, one 2^(N-1)-sized product per Majorana pair, for several
    modes in one batched product: on the even rows with bit k clear
    c_2k+1 is i c_2k and on the rest -i c_2k, so with A and B the parts
    of U_e c_2k U_o^{-1} summed over those two sets of even states, X
    is A + B for c_2k and i(A - B) for c_2k+1.
    M_ji = 2 Re tr(c_j X) / 2^N is real, and the span residual
    ||U c_i U^{-1} - sum_j M_ji c_j|| is sqrt(2) times X's.
    """
    _require_dense(fock)
    h_fock = np.asarray(h_fock, dtype=complex)
    if not linalg.is_hermitian(h_fock):
        raise InputShapeError("H must be Hermitian")
    states, pos = _sectors(fock.occupation % 2)
    even, odd = states
    mixing = linalg.frob(h_fock[even[:, None], odd])
    if mixing > 1e-9 * max(1.0, linalg.frob(h_fock)):
        raise NotQuadraticError("H mixes even and odd fermion parity "
                                f"(residual {mixing:.3e})")
    u_even = _exp_i(h_fock[even[:, None], even])
    u_odd_adj = np.ascontiguousarray(
        _exp_i(h_fock[odd[:, None], odd]).conj().T)
    n = fock.n_modes
    c_ops = majorana_basis(fock)
    masks = np.array([c.mask for c in c_ops[::2]])
    # c_2k and c_2k+1 share the mask 2^k: on even row r they hold
    # signs[k, :, r] in column partners[k, r] of the odd states
    signs = np.array([c.sign for c in c_ops]).reshape(n, 2, -1)[..., even]
    conj_signs = signs.conj().transpose(0, 2, 1)
    partners = pos[even ^ masks[:, None]]
    half = len(even)
    rows = np.arange(half)
    # with the even rows sorted by bit k (clear on the rows of a_k, set
    # on those of a_k^dag), A and B are the products of the first
    # ``cut`` columns of U_e with the matching rows of c_2k U_o^dag, and
    # of the rest.  The cut is the same for every mode, half / 2 from
    # N = 2 on; at N = 1 the rest is empty.
    order = np.argsort(even & masks[:, None] != 0, axis=1, kind="stable")
    cut = np.count_nonzero(even & masks[0] == 0)
    modes = np.arange(n)[:, None]
    sorted_partners = partners[modes, order]
    sorted_signs = signs[modes, 0, order][..., None]
    # the images of the Majoranas of ``per`` modes at a time, in buffers
    # reused by every batch: at N = 7, fresh arrays per batch took
    # longer to fault in than the products took
    per = min(n, max(1, _BATCH_ENTRIES // (2 * half * half)))
    images = np.empty((per, 2, half, half), dtype=complex)
    lefts = np.empty(per * half * half, dtype=complex)
    factors = np.empty((per, half, half), dtype=complex)
    m = np.zeros((2 * n, 2 * n))
    span_residual = 0.0
    for k in range(0, n, per):
        ks, count = slice(k, k + per), min(per, n - k)
        image, factor = images[:count], factors[:count]
        # in mode k's sorted order, the columns of U_e and the rows of
        # c_2k U_o^dag (signed rows of U_o^dag); the indices are in
        # range, and "clip" spares take a buffered copy
        left = lefts[:count * half * half].reshape(half, count, half)
        np.take(u_even, order[ks], axis=1, out=left, mode="clip")
        left = left.transpose(1, 0, 2)
        np.take(u_odd_adj, sorted_partners[ks], axis=0, out=factor,
                mode="clip")
        factor *= sorted_signs[ks]
        np.matmul(left[..., :cut], factor[:, :cut], out=image[:, 0])
        np.matmul(left[..., cut:], factor[:, cut:], out=image[:, 1])
        # A + B and i(A - B), with the spent factors as scratch
        np.subtract(image[:, 0], image[:, 1], out=factor)
        image[:, 0] += image[:, 1]
        np.multiply(factor, 1j, out=image[:, 1])
        # M_ji = 2 Re tr(c_j^oe image) / 2^N, gathered for all j
        on_span = image[:, :, rows, partners]
        coeff = 2 * (on_span[..., None, :] @ conj_signs).real / fock.dim
        m[:, 2 * k:2 * (k + count)] = coeff.reshape(-1, 2 * n).T
        image[:, :, rows, partners] = on_span - (coeff @ signs)[..., 0, :]
        # the odd-to-even block is the adjoint: twice the squared norm
        parts = image.view(float)
        span_residual = max(span_residual, np.sqrt(2 * np.einsum(
            "kaij,kaij->ka", parts, parts)).max())
    if span_residual > 1e-9 * max(1.0, linalg.frob(m)):
        raise NotQuadraticError("conjugated Majorana operators leave the "
                                f"Majorana span (residual {span_residual:.3e})")
    orth = linalg.frob(m.T @ m - np.eye(2 * n))
    det = float(np.linalg.det(m))
    gen = nambu_generator(w, z)
    gen_residual = linalg.frob(m - _exp_i(1j * gen).real)
    return CoveringRecord(rotation=m, span_residual=span_residual,
                          orthogonality_residual=orth, determinant=det,
                          generator_residual=gen_residual)


@dataclass(frozen=True, eq=False)
class TwistedTransferRecord:
    """Residuals of the particle-number-resolved transfer identity."""

    max_residual: float
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def twisted_ph_transfer_check(fock, s):
    """Verify how twisted particle-hole conjugation transports a^dag.

    For C-tilde = C Lift(S) and every particle number n, checks the
    operator identity C-tilde a_k^dag = (-1)^(N - n + 1)
    (S a_k S^{-1}) C-tilde on the n-particle subspace, where S on the
    right acts through its Fock-space lift.

    Lift(S) keeps the particle number and C maps n particles to N - n
    holes, so on the n-particle columns both sides live in the rows of
    sector N - n - 1 (and vanish for n = N).  Per n and for all k at
    once, the left side is a gather of C-tilde's block on sector n + 1;
    the right side is a gather of Lift(S)^{-1} C-tilde on sector n (one
    product of sector blocks) and one product with Lift(S)'s block on
    sector N - n - 1.
    """
    _require_dense(fock)
    s = np.asarray(s, dtype=complex)
    n_modes = fock.n_modes
    if not linalg.is_unitary(s):
        raise InputShapeError("twist S must be unitary")
    if linalg.frob(s @ s - np.eye(n_modes)) > linalg.TOL_INPUT * n_modes:
        raise InputShapeError("twist S must be an involution")
    s_fock = lift_unitary(fock, s)
    c_sign = conjugation(fock).sign

    def c_tilde(rows, cols):
        # entries of C-tilde = C conj(Lift(S)), never formed whole
        return c_sign[rows] * np.conj(s_fock[rows ^ fock.top_index, cols])

    sectors, pos = _sectors(fock.occupation)
    # a_k^dag and a_k couple b and b ^ 2^k: conj(a_k^dag) has column b
    # at row b ^ 2^k, and a_k row b at column b ^ 2^k, which lies in the
    # next sector up where bit k of b is clear (elsewhere the sign is 0)
    states = np.arange(fock.dim)
    masks = np.array([a.mask for a in fock.create])[:, None]
    raise_signs = np.take_along_axis(
        np.array([a.sign for a in fock.create]), states ^ masks, 1).conj()
    lower_signs = np.array([a.sign for a in fock.annihilate])
    upper = np.where((states & masks) == 0, pos[states ^ masks], 0)
    residuals = np.zeros((n_modes + 1, n_modes))
    for n in range(n_modes):
        cols, rows = sectors[n], sectors[n_modes - n - 1]
        holes = sectors[n_modes - n]
        sign = -1.0 if (n_modes - n + 1) % 2 else 1.0
        # C-tilde a_k^dag, indexed (row, k, column)
        lhs = c_tilde(rows[:, None, None], cols ^ masks) * raise_signs[:, cols]
        # S a_k S^-1 C-tilde: a_k gathers rows of S^-1 C-tilde
        s_inv_u_ct = s_fock[holes[:, None], holes].conj().T @ \
            c_tilde(holes[:, None], cols)
        gathered = s_inv_u_ct[upper[:, rows].T] * \
            lower_signs[:, rows].T[..., None]
        rhs = (s_fock[rows[:, None], rows] @
               gathered.reshape(len(rows), -1)).reshape(gathered.shape)
        residuals[n] = np.linalg.norm(lhs - sign * rhs, axis=(0, 2))
    failures = tuple((n, k, float(r)) for (n, k), r in
                     np.ndenumerate(residuals) if r > 1e-10)
    return TwistedTransferRecord(max_residual=float(residuals.max()),
                                 failures=failures)
