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
nature (a quadratic Hamiltonian, exp(-iH), the lift of a general
unitary, the matrix of C) is a 2^N x 2^N array, built only up to
``MAX_DENSE_MODES``; above it those entry points raise InputShapeError
before allocating.  Scaling is a non-goal, exactness is the point.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import linalg
from .antiunitary import AntiUnitaryOp
from .errors import InputShapeError, NotQuadraticError

MAX_MODES = 14
# A 2^N x 2^N complex array takes 64 MB at N = 11 and 256 MB at N = 12.
# fock-verify --modes 11 peaks at 710 MB resident (one BLAS thread), so
# N = 12 would need about 3 GB.
MAX_DENSE_MODES = 11


@dataclass(frozen=True, eq=False)
class SignedPerm:
    """Operator (A v)[b] = sign[b] v[b ^ mask] on the occupation basis.

    A zero sign marks an empty row, so partial permutations such as
    a_k^dag fit as well as full ones.  ``A @ B`` composes, and ``A @ x``
    and ``x @ A`` act on dense arrays by gathering rows or columns.
    """

    mask: int
    sign: np.ndarray

    __array_ufunc__ = None  # let ndarray @ SignedPerm reach __rmatmul__

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

    def __rmatmul__(self, other):
        src = self._sources()
        return np.asarray(other)[..., src] * self.sign[src]

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

    def number_operator(self):
        _require_dense(self)
        return np.diag(self.occupation.astype(float)).astype(complex)


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


def _merge_sign(s_bits, t_bits):
    """Sign of reordering e_S ^ e_T into ascending order (disjoint S, T)."""
    sign = 1
    t = t_bits
    while t:
        mode = (t & -t).bit_length() - 1
        if int(s_bits >> (mode + 1)).bit_count() % 2:
            sign = -sign
        t &= t - 1
    return sign


def wedge(fock, psi, phi):
    """Wedge product of two Fock vectors in the occupation basis."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    out = np.zeros(fock.dim, dtype=complex)
    psi_nz = np.nonzero(psi)[0]
    phi_nz = np.nonzero(phi)[0]
    for s in psi_nz:
        for t in phi_nz:
            if int(s) & int(t):
                continue
            out[s | t] += _merge_sign(int(s), int(t)) * psi[s] * phi[t]
    return out


def _conjugation(fock):
    """The unitary part of C as a signed permutation with mask Omega.

    Row S holds the sign of e_S ^ e_(S^c), as ``_merge_sign`` computes
    it: the parity of the pairs (m not in S, m' in S) with m' > m.
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
    h = np.zeros((fock.dim, fock.dim), dtype=complex)
    for k in range(n):
        for l in range(n):
            (fock.create[k] @ fock.annihilate[l]).add_to(h, w[k, l])
            pair = fock.create[k] @ fock.create[l]
            pair.add_to(h, 0.5 * z[k, l])
            pair.adjoint().add_to(h, 0.5 * np.conj(z[k, l]))
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


@dataclass(frozen=True, eq=False)
class CoveringRecord:
    """Result of projecting a Fock evolution onto the Majorana rotation."""

    rotation: np.ndarray
    span_residual: float
    orthogonality_residual: float
    determinant: float
    generator_residual: float
    sign_invariant: bool


def covering_check(fock, h_fock, w, z, tol=1e-9):
    """Project U = exp(-i H) onto SO(2N) and compare with the generator.

    Computes the rotation M with U c_i U^{-1} = sum_j M_{ji} c_j, checks
    that M is special orthogonal, that it equals the exponential of the
    Majorana generator built from (w, z), and that -U induces exactly
    the same rotation (the covering is two-to-one).
    """
    _require_dense(fock)
    c_ops = majorana_basis(fock)
    u = expm(-1j * np.asarray(h_fock, dtype=complex))
    n = fock.n_modes
    rows = np.arange(fock.dim)
    # c_2k and c_2k+1 share the mask 2^k, so the entries (b, b ^ 2^k) of
    # an operator hold its whole part along both: one gather per mode
    # reads the coordinates, one scatter removes that part
    cols = rows ^ np.array([c.mask for c in c_ops[::2]])[:, None]
    signs = np.array([c.sign for c in c_ops]).reshape(n, 2, fock.dim)

    def rotation_of(ev):
        ev_inv = ev.conj().T
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        residual = 0.0
        for i, c in enumerate(c_ops):
            image = (ev @ c) @ ev_inv
            # M_ji = tr(c_j image) / 2^N, gathered for all j at once
            coeff = (signs.conj() * image[rows, cols][:, None]).sum(-1) / \
                fock.dim
            m[:, i] = coeff.ravel()
            image[rows, cols] -= (coeff[..., None] * signs).sum(1)
            residual = max(residual, linalg.frob(image))
        return m, residual

    m, span_residual = rotation_of(u)
    if span_residual > tol * max(1.0, linalg.frob(m)):
        raise NotQuadraticError("conjugated Majorana operators leave the "
                                f"Majorana span (residual {span_residual:.3e})")
    if linalg.frob(m.imag) > tol:
        raise NotQuadraticError("induced rotation is not real")
    m = m.real
    n2 = m.shape[0]
    orth = linalg.frob(m.T @ m - np.eye(n2))
    det = float(np.linalg.det(m))
    gen = nambu_generator(w, z)
    gen_residual = linalg.frob(m - expm(gen))
    m_neg, _ = rotation_of(-u)
    sign_invariant = bool(np.array_equal(m, m_neg.real))
    return CoveringRecord(rotation=m, span_residual=span_residual,
                          orthogonality_residual=orth, determinant=det,
                          generator_residual=gen_residual,
                          sign_invariant=sign_invariant)


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
    right acts through its Fock-space lift.  Both sides are formed once
    per k and compared on the columns of each particle number.
    """
    _require_dense(fock)
    s = np.asarray(s, dtype=complex)
    n_modes = fock.n_modes
    if not linalg.is_unitary(s):
        raise InputShapeError("twist S must be unitary")
    if linalg.frob(s @ s - np.eye(n_modes)) > linalg.TOL_INPUT * n_modes:
        raise InputShapeError("twist S must be an involution")
    s_fock = lift_unitary(fock, s)
    u_ct = _conjugation(fock) @ np.conj(s_fock)
    s_inv_u_ct = s_fock.conj().T @ u_ct
    columns = [fock.occupation == n for n in range(n_modes + 1)]
    residuals = np.zeros((n_modes + 1, n_modes))
    for k, (a_dag, a) in enumerate(zip(fock.create, fock.annihilate)):
        lhs = u_ct @ SignedPerm(a_dag.mask, np.conj(a_dag.sign))
        rhs = s_fock @ (a @ s_inv_u_ct)
        for n, cols in enumerate(columns):
            sign = -1.0 if (n_modes - n + 1) % 2 else 1.0
            residuals[n, k] = linalg.frob(lhs[:, cols] - sign * rhs[:, cols])
    failures = tuple((n, k, float(r)) for (n, k), r in
                     np.ndenumerate(residuals) if r > tol)
    return TwistedTransferRecord(max_residual=float(residuals.max()),
                                 failures=failures)
