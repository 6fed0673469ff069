"""Small-N fermionic Fock space, as a brute-force oracle.

The exterior algebra over C^N is realized on occupation bitstrings in
lexicographic order (bit k = occupation of mode k), with Jordan-Wigner
signs fixing the wedge ordering e_1 ^ e_2 ^ ... ascending.  This module
provides the canonical anti-commutation operators, wedge products,
particle-hole conjugation, quadratic Hamiltonians and the two-to-one
covering onto the orthogonal group of the Majorana span.

a_k^dag, a_k, the Majoranas and C are signed permutations b -> b ^ mask
(``SignedPerm``): a Fock space costs O(N 2^N) memory up to N = 14
modes, and a product of two operators O(2^N) gathers.  What is dense by
nature (a quadratic Hamiltonian, the lift of a general unitary, the
matrix of C) is a 2^N x 2^N array, built only up to
``MAX_DENSE_MODES``; above it those entry points raise InputShapeError
before allocating.  Scaling is a non-goal, exactness is the point.

The two checks never multiply 2^N x 2^N matrices; they work on the
blocks that fermion parity and particle number leave.  A quadratic H is
parity-even and every Majorana parity-odd, so exp(-iH) splits into two
2^(N-1) blocks, one on each half-spinor module of Spin(2N) (Lawson and
Michelsohn, Spin Geometry, ch. I), and U c_i U^dag into the two blocks
between them, each the adjoint of the other.  ``covering_check``
exponentiates each parity block through its eigendecomposition and
forms only the even-to-odd one, one 2^(N-1)-sized product per Majorana:
an eighth of the flops of the dense conjugation, a quarter of its
memory.  Lift(S) keeps the particle number and C maps n particles to
N - n, so ``twisted_ph_transfer_check`` works on the C(N, n)-sized
sector blocks of both, O(N sum_n C(N, n)^3) flops in place of N + 1
dense products.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .antiunitary import AntiUnitaryOp
from .errors import InputShapeError, NotQuadraticError

MAX_MODES = 14
# A 2^N x 2^N complex array takes 64 MB at N = 11 and 256 MB at N = 12.
# With one BLAS thread on a 2-vCPU host, fock-verify --modes 10 takes
# 9.5 s and peaks at 151 MB resident, --modes 11 73 s and 477 MB, so
# N = 12 would need about 1.5 GB and 9 minutes.
MAX_DENSE_MODES = 11
# covering_check forms the images of the Majoranas of as many modes at
# once as fit in this many entries (1 MB), and of at least one mode;
# wedge takes this many pairs of basis states at a time (about 30 MB)
_BATCH_ENTRIES = 1 << 16
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

    def add_to(self, dense, coeff=1.0):
        """Scatter-add ``coeff`` times this operator into ``dense``."""
        rows = np.arange(len(self.sign))
        dense[rows, rows ^ self.mask] += coeff * self.sign

    def dense(self):
        out = np.zeros((len(self.sign),) * 2, dtype=self.sign.dtype)
        self.add_to(out)
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


def _conjugation(fock):
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
    return AntiUnitaryOp(_conjugation(fock).dense())


def lift_unitary(fock, s):
    """Functorial lift of a one-particle operator to the exterior algebra.

    The basis state e_S maps to (s e_{k_1}) ^ (s e_{k_2}) ^ ... with the
    modes of S ascending, i.e. column S is sum_k s_kj a_k^dag applied to
    column S - {j}, j the lowest mode of S.
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
    for j in reversed(range(n)):
        cols = np.nonzero(lowest == 1 << j)[0]
        prev = out[:, cols ^ (1 << j)]
        out[:, cols] = sum(s[k, j] * (fock.create[k] @ prev)
                           for k in range(n))
    return out


def lift_one_body(fock, w, z, tol=None):
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
    tol = linalg.TOL_INPUT if tol is None else tol
    n = fock.n_modes
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if w.shape != (n, n) or z.shape != (n, n):
        raise InputShapeError("W and Z must match the mode count")
    if not linalg.is_hermitian(w, tol):
        raise InputShapeError("W must be Hermitian")
    if not linalg.is_skew(z, tol):
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
    """Result of projecting a Fock evolution onto the Majorana rotation.

    ``sign_residual`` is max|M(U) - M(-U)|; the covering is two-to-one
    (``sign_invariant``) only when it is exactly 0.
    """

    rotation: np.ndarray
    span_residual: float
    orthogonality_residual: float
    determinant: float
    generator_residual: float
    sign_invariant: bool
    sign_residual: float


def covering_check(fock, h_fock, w, z, tol=1e-9):
    """Project U = exp(-i H) onto SO(2N) and compare with the generator.

    Computes the rotation M with U c_i U^{-1} = sum_j M_{ji} c_j, checks
    that M is special orthogonal, that it equals the exponential of the
    Majorana generator built from (w, z), and that -U induces exactly
    the same rotation (the covering is two-to-one).

    H must be Hermitian (else InputShapeError) and parity-even (else
    NotQuadraticError).  Then U = U_e + U_o on the even and odd states,
    each block exp(-i H) of size 2^(N-1), and every Majorana maps one
    parity to the other, so U c_i U^{-1} has only the two blocks
    X = U_e c_i U_o^{-1} and U_o c_i U_e^{-1} = X^dag.  Only X is
    formed, for both Majoranas of several modes in one batched product:
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
    if mixing > tol * max(1.0, linalg.frob(h_fock)):
        raise NotQuadraticError("H mixes even and odd fermion parity "
                                f"(residual {mixing:.3e})")
    u_even = _exp_i(h_fock[even[:, None], even])
    u_odd = _exp_i(h_fock[odd[:, None], odd])
    n = fock.n_modes
    c_ops = majorana_basis(fock)
    masks = np.array([c.mask for c in c_ops[::2]])
    # c_2k and c_2k+1 share the mask 2^k: on even row r they hold
    # signs[k, :, r] in column partners[k, r] of the odd states
    signs = np.array([c.sign for c in c_ops]).reshape(n, 2, -1)[..., even]
    partners = pos[even ^ masks[:, None]]
    half = len(even)
    rows = np.arange(half)
    # the images of the Majoranas of ``per`` modes at a time, in two
    # buffers reused by every batch and by -U: at N = 7, fresh arrays
    # per batch took longer to fault in than the products took
    per = min(n, max(1, _BATCH_ENTRIES // (2 * half * half)))
    images = np.empty((per, 2, half, half), dtype=complex)
    factors = np.empty_like(images)

    def rotation_of(u_e, u_o):
        u_o_adj = np.ascontiguousarray(u_o.conj().T)
        m = np.zeros((2 * n, 2 * n))
        residual = 0.0
        for k in range(0, n, per):
            ks, count = slice(k, k + per), min(per, n - k)
            image = images[:count]
            # U_e c U_o^dag: c U_o^dag gathers signed rows of U_o^dag
            np.multiply(u_o_adj[partners[ks]][:, None],
                        signs[ks, :, :, None], out=factors[:count])
            np.matmul(u_e, factors[:count], out=image)
            # M_ji = 2 Re tr(c_j^oe image) / 2^N, gathered for all j
            on_span = image[:, :, rows, partners]
            coeff = 2 * np.einsum("kajr,jbr->kajb", on_span,
                                  signs.conj()).real / fock.dim
            m[:, 2 * k:2 * (k + count)] = coeff.reshape(-1, 2 * n).T
            image[:, :, rows, partners] = on_span - np.einsum(
                "kajb,jbr->kajr", coeff, signs)
            # the odd-to-even block is the adjoint: twice the squared norm
            parts = image.view(float)
            residual = max(residual, np.sqrt(2 * np.einsum(
                "kaij,kaij->ka", parts, parts)).max())
        return m, residual

    m, span_residual = rotation_of(u_even, u_odd)
    if span_residual > tol * max(1.0, linalg.frob(m)):
        raise NotQuadraticError("conjugated Majorana operators leave the "
                                f"Majorana span (residual {span_residual:.3e})")
    orth = linalg.frob(m.T @ m - np.eye(2 * n))
    det = float(np.linalg.det(m))
    gen = nambu_generator(w, z)
    gen_residual = linalg.frob(m - _exp_i(1j * gen).real)
    m_neg = rotation_of(-u_even, -u_odd)[0]
    return CoveringRecord(rotation=m, span_residual=span_residual,
                          orthogonality_residual=orth, determinant=det,
                          generator_residual=gen_residual,
                          sign_invariant=bool(np.array_equal(m, m_neg)),
                          sign_residual=float(np.max(np.abs(m - m_neg))))


@dataclass(frozen=True, eq=False)
class TwistedTransferRecord:
    """Residuals of the particle-number-resolved transfer identity."""

    max_residual: float
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def twisted_ph_transfer_check(fock, s, tol=1e-10):
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
    u_ct = _conjugation(fock) @ np.conj(s_fock)  # a gather, no product
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
        lhs = u_ct[rows[:, None, None], cols ^ masks] * raise_signs[:, cols]
        # S a_k S^-1 C-tilde: a_k gathers rows of S^-1 C-tilde
        s_inv_u_ct = s_fock[holes[:, None], holes].conj().T @ \
            u_ct[holes[:, None], cols]
        gathered = s_inv_u_ct[upper[:, rows].T] * \
            lower_signs[:, rows].T[..., None]
        rhs = (s_fock[rows[:, None], rows] @
               gathered.reshape(len(rows), -1)).reshape(gathered.shape)
        residuals[n] = np.linalg.norm(lhs - sign * rhs, axis=(0, 2))
    failures = tuple((n, k, float(r)) for (n, k), r in
                     np.ndenumerate(residuals) if r > tol)
    return TwistedTransferRecord(max_residual=float(residuals.max()),
                                 failures=failures)
