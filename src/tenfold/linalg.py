"""Dense complex linear algebra foundation.

Provides the Hermitian eigensolver, Haar-distributed unitary sampling,
matrix predicates, residuals off a real span of matrices, and the
deterministic random-number streams used by every sampler in the
package.

All tolerances are centralized here: ``TOL_INPUT`` for input validation,
``TOL_EIG`` for eigendecomposition residuals, and ``tol_unitary(n)`` for
unitarity checks.  Every operation accepts per-call overrides.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputShapeError


def _tolerance_from_env():
    """TENFOLD_TOLERANCE, a number in (0, 1); 1e-8 when unset."""
    text = os.environ.get("TENFOLD_TOLERANCE", "1e-8")
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < 1:
        raise InputShapeError("TENFOLD_TOLERANCE must be a number in (0, 1), "
                              f"got {text!r}")
    return value


# A malformed TENFOLD_TOLERANCE leaves TOL_INPUT undefined: the package
# still imports, but every read of the tolerance raises the error (see
# __getattr__ and input_tol) instead of falling back to the default.
try:
    TOL_INPUT = _tolerance_from_env()
except InputShapeError as err:
    _TOL_ENV_ERROR = str(err)
TOL_EIG = 1e-10
TOL_DEDUP = 1e-8

# Largest array, in bytes, that a sampler draw (size * n^2 * 16 for
# complex128), a commutant constraint system or the elements of a group
# closure may ask for; larger inputs are refused (InputShapeError, or
# GroupTooLargeError for a closure) before they are allocated.
# Measured peaks (one BLAS thread) of ``stats --class`` at 1.05e9 bytes
# of samples: 2.1 GB for A(256) and circular AIII(128,128), 2.8 GB for
# D(128), about 2.7 times the draw, so a draw at the cap fits an 8 GB
# machine.  A tall commutant system peaks at about 3 times its size
# (0.84 GB for 0.27 GB, a generic diagonal generator at n = 256), but a
# nearly square one at 7 times (0.59 GB for 0.08 GB, diag(1, ..., 1, -1)
# at n = 48: the SVD of its square R factor), so one near the cap would
# not fit.
MAX_ARRAY_BYTES = 1 << 30

_MASK64 = (1 << 64) - 1


def input_tol():
    """``TOL_INPUT``; raises ``InputShapeError`` if TENFOLD_TOLERANCE is
    malformed."""
    try:
        return TOL_INPUT
    except NameError:
        raise InputShapeError(_TOL_ENV_ERROR) from None


def __getattr__(name):
    if name == "TOL_INPUT":
        return input_tol()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def tol_unitary(n):
    """Unitarity tolerance, scaled with the matrix dimension."""
    return 1e-12 * np.sqrt(n)


def _splitmix64(x):
    """One round of the splitmix64 finalizer (stateless 64-bit mixer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """Deterministic random stream with reproducible child derivation.

    Identical seeds give bit-identical output sequences.  Independent
    child streams are derived by mixing the parent seed with the child
    index, so parallel work never shares a stream.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index):
        """Derive the ``index``-th independent child stream."""
        return RngStream(_splitmix64(self.seed ^ _splitmix64(index + 1)))

    @property
    def generator(self):
        return self._gen

    def normal(self, size=None, scale=1.0):
        return self._gen.normal(0.0, scale, size=size)

    def complex_normal(self, size=None):
        """Standard complex normal entries, E|z|^2 = 1."""
        re = self._gen.normal(size=size)
        im = self._gen.normal(size=size)
        return (re + 1j * im) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class HermitianEigenSystem:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def frob(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frob_each(stack):
    """Frobenius norm of each entry of a stack, such as the matrices of a
    (count, n, n) array."""
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(len(stack), -1)
    flat = flat.view(float)  # |z|^2 as the sum of two squared reals
    return np.sqrt(np.vecdot(flat, flat))


def is_hermitian(a, tol=None):
    tol = input_tol() if tol is None else tol
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and \
        frob(a - a.conj().T) <= tol * max(1.0, frob(a))


def is_unitary(a, tol=None):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    n = a.shape[0]
    if tol is None:
        tol = max(tol_unitary(n), input_tol())
    return frob(a.conj().T @ a - np.eye(n)) <= tol


def is_skew(a, tol=None):
    tol = input_tol() if tol is None else tol
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and \
        frob(a + a.T) <= tol * max(1.0, frob(a))


def _vec_real(x):
    """Real vector(s) [Re x, Im x] of a matrix or of a stack of matrices."""
    flat = x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _unvec_real(v, n):
    half = n * n
    return (v[..., :half] + 1j * v[..., half:]).reshape(*v.shape[:-1], n, n)


def _rank_svd(a):
    """Thin SVD (u, s) of ``a`` and its rank at numpy's ``matrix_rank``
    threshold."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cut = s.max(initial=0.0) * max(a.shape) * np.finfo(float).eps
    return u, s, int(np.sum(s > cut))


def off_span(basis, mats):
    """Components of ``mats`` off the real span of ``basis``.

    ``mats`` is a stack of matrices of any leading shape; the result has
    that shape with the last two axes replaced by one axis of real
    coordinates, so its norms along that axis are Frobenius residuals.
    One thin SVD of the basis serves the whole stack; its singular
    vectors are cut at the rank, so a repeated or dependent basis
    element adds no direction.
    """
    q, _, rank = _rank_svd(_vec_real(np.asarray(basis, dtype=complex)).T)
    q = q[:, :rank]
    v = _vec_real(np.asarray(mats, dtype=complex))
    return v - (v @ q) @ q.T


def eig_hermitian(h, tol_input=None):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : ndarray
        Square matrix, Hermitian to ``tol_input`` (relative Frobenius).

    Returns
    -------
    HermitianEigenSystem
        Ascending real eigenvalues and unitary eigenvector matrix.  The
        reconstruction residual is not checked here; ``verify``'s
        ``linalg.eig-reconstruction`` check measures it against
        ``TOL_EIG``.
    """
    tol_input = input_tol() if tol_input is None else tol_input
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InputShapeError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h, tol_input):
        raise InputShapeError("matrix is not Hermitian within tolerance "
                              f"{tol_input:g}")
    values, vectors = np.linalg.eigh(h)
    return HermitianEigenSystem(values=values, vectors=vectors)


def haar_unitary(n, rng):
    """Draw an n x n unitary from the Haar measure (CUE).

    A complex Ginibre matrix is orthonormalized and each column is
    rescaled by the phase of the corresponding R-diagonal entry; without
    that phase correction the output would not be Haar distributed.
    """
    if n < 1:
        raise InputShapeError("dimension must be at least 1")
    z = rng.complex_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def haar_orthogonal(n, rng, special=False):
    """Haar-distributed element of O(n), or of SO(n) if ``special``."""
    if n < 1:
        raise InputShapeError("dimension must be at least 1")
    z = rng.normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    q = q * np.sign(d)
    if special and np.linalg.det(q) < 0:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q


def symplectic_form(n):
    """Standard symplectic form [[0, I], [-I, 0]] on C^(2n)."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def haar_symplectic_unitary(n2, rng, j=None):
    """Haar-distributed element of USp(n2) for even ``n2``.

    Columns of a quaternion Ginibre matrix are orthonormalized in
    quaternion arithmetic: each computed column v gets the partner
    -J conj(v), which keeps the result inside USp.  The quaternion
    structure may be supplied as ``j`` (defaults to the standard form).
    """
    if n2 < 2 or n2 % 2:
        raise InputShapeError("symplectic dimension must be even and >= 2")
    n = n2 // 2
    if j is None:
        return _haar_usp_standard(n, rng)
    # General j: conjugate a standard draw by the permutation relating j
    # to the standard form.
    perm = _symplectic_permutation(j)
    u = _haar_usp_standard(n, rng)
    return perm @ u @ perm.T


def _haar_usp_standard(n, rng):
    j = symplectic_form(n)
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


def _symplectic_permutation(j):
    """Permutation P with P J_std P^T = j, for a ±1-paired form j."""
    j = np.asarray(j)
    n2 = j.shape[0]
    n = n2 // 2
    pairs = []
    seen = set()
    for a in range(n2):
        if a in seen:
            continue
        row = j[a]
        b = int(np.argmax(np.abs(row)))
        if abs(row[b] - 1.0) > 1e-12:
            raise InputShapeError("symplectic form must pair basis vectors "
                                  "with entries ±1")
        pairs.append((a, b))
        seen.update((a, b))
    if len(pairs) != n:
        raise InputShapeError("invalid symplectic form")
    p = np.zeros((n2, n2))
    for k, (a, b) in enumerate(pairs):
        p[a, k] = 1.0
        p[b, n + k] = 1.0
    return p
