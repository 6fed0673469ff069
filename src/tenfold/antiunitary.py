"""Anti-unitary operators and their transfer to multiplicity spaces.

An anti-unitary operator is stored as a (unitary, conjugation) pair:
``op(v) = u @ conj(v)``.  Composition rules then stay exact; composing
two anti-unitaries yields a plain unitary ``u_a @ conj(u_b)`` and never
an explicit anti-linear matrix.

``transfer_T`` factors an involutive anti-unitary restricted to a fixed
isotypic sector into a pure tensor alpha (x) beta acting on the
multiplicity and irreducible factors, with the parity relation
eps_alpha * eps_beta = eps_T.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from . import linalg
from .errors import (InputShapeError, NotInvolutiveError, NotPureTensorError,
                     SymmetryConsistencyError)


@dataclass(frozen=True, eq=False)
class AntiUnitaryOp:
    """Anti-unitary operator v -> u @ conj(v), with ``u`` unitary to
    ``tol``, the tolerance of its setting (default ``TOL_INPUT``)."""

    u: np.ndarray
    tol: InitVar[float] = None

    def __post_init__(self, tol):
        tol = linalg.TOL_INPUT if tol is None else tol
        u = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", u)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InputShapeError("anti-unitary part must be square")
        if not linalg.is_unitary(u, max(tol, linalg.tol_unitary(u.shape[0]))):
            raise InputShapeError("anti-unitary part must be unitary")

    @property
    def dim(self):
        return self.u.shape[0]

    def conjugate_linear(self, a):
        """Conjugation T a T^{-1} of a linear operator ``a``."""
        return self.u @ np.conj(a) @ self.u.conj().T

    def conjugated_by(self, w):
        """Basis change W T W^{-1}; the unitary part maps to W u W^t."""
        w = np.asarray(w, dtype=complex)
        return AntiUnitaryOp(w @ self.u @ w.T)


def parity(op, tol=None):
    """Sign eps with op^2 = eps * identity.

    Raises ``NotInvolutiveError`` when the square is not a sign times the
    identity, i.e. when the operator is not an inversion symmetry.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    n = op.dim
    square = op.u @ np.conj(op.u)
    eye = np.eye(n)
    scale = tol * np.sqrt(n)
    if linalg.frob(square - eye) <= scale:
        return 1
    if linalg.frob(square + eye) <= scale:
        return -1
    raise NotInvolutiveError("operator squares to neither +1 nor -1")


@dataclass(frozen=True)
class SectorPairing:
    """How an anti-unitary permutes sector labels: fixed or swapped."""

    fixed: tuple
    swapped: tuple


def sector_action(op, blocks, tol=None):
    """Partition of sector labels into fixed points and swapped pairs.

    With F = [F_1 | ... | F_k], w[a, b] = ||(F^H u conj(F))_ab||_F^2 is
    how much of sector b the operator sends into sector a.  b goes to a =
    argmax w[:, b] when both have one (irrep_dim, multiplicity) and
    2 sum_{a' != a} w[a', b] <= (tol dim_b)^2, i.e. ||T P_b T^-1 - P_a||_F
    <= tol dim_b; else the operator is no symmetry of the decomposition.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    f = np.hstack([b.factor_basis for b in blocks])
    shapes = np.array([(b.irrep_dim, b.multiplicity) for b in blocks])
    labels, dims = np.array([b.label for b in blocks]), shapes.prod(axis=1)
    w = linalg.block_weights(f.conj().T @ op.u @ np.conj(f),
                             np.cumsum(dims) - dims)
    image, sector = w.argmax(axis=0), np.arange(len(blocks))
    w[image, sector] = 0  # off target, summed: total - target cancels
    bad = (shapes[image] != shapes).any(axis=1) | \
        (2 * w.sum(axis=0) > (tol * dims) ** 2)
    if bad.any():
        raise SymmetryConsistencyError(
            f"image of sector {labels[bad.argmax()]} matches no sector")
    if (image[image] != sector).any():
        raise SymmetryConsistencyError("sector pairing is not an involution")
    target = labels[image]
    ahead = labels < target
    return SectorPairing(fixed=tuple(labels[image == sector].tolist()),
                         swapped=tuple(zip(labels[ahead].tolist(),
                                           target[ahead].tolist())))


@dataclass(frozen=True, eq=False)
class TransferredT:
    """Pure-tensor factors of an anti-unitary restricted to a sector."""

    alpha: AntiUnitaryOp
    beta: AntiUnitaryOp
    eps_alpha: int
    eps_beta: int


def transfer_T(block, op, tol=None):
    """Factor an involutive anti-unitary on a fixed sector as alpha (x) beta.

    The unitary part in the factor basis is reshaped so that a pure
    tensor becomes a rank-one matrix; the dominant singular pair yields
    the factors.  beta is normalized to be anti-unitary with its
    largest-modulus entry (the first in row-major order among entries
    within a relative 1e-8 of the largest modulus) real positive, which
    makes the output deterministic.  A second singular value above
    ``tol`` times the first signals an inconsistent input and raises
    ``NotPureTensorError``.  eps_T is T^2's sign on the sector block ub;
    the parities of alpha and beta refuse a ub conj(ub) that is not +-1.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    fb = block.factor_basis
    m, d = block.multiplicity, block.irrep_dim
    restricted = op.u @ np.conj(fb)
    ub = fb.conj().T @ restricted
    if linalg.frob(restricted - fb @ ub) > tol * np.sqrt(block.dim):
        raise SymmetryConsistencyError("sector is not fixed by the operator")

    r = ub.reshape(m, d, m, d).transpose(0, 2, 1, 3).reshape(m * m, d * d)
    _, s, vh = np.linalg.svd(r, full_matrices=False)
    if len(s) > 1 and s[1] > tol * s[0]:
        raise NotPureTensorError(
            f"second singular value {s[1]:.3e} of the reshaped transfer "
            f"operator exceeds tolerance")

    u_beta = vh[0].reshape(d, d)
    gram = u_beta @ u_beta.conj().T
    u_beta = u_beta / np.sqrt(np.trace(gram).real / d)
    # Ties are common (a 2 x 2 skew beta has two entries of equal
    # modulus), so the peak is the first entry near the largest modulus.
    mod = np.abs(u_beta)
    peak = u_beta.flat[int(np.argmax(mod >= (1 - 1e-8) * mod.max()))]
    u_beta = u_beta * (np.abs(peak) / peak)

    # Contract out the normalized beta factor; exact when ub is pure.
    u_alpha = np.einsum("ikjl,kl->ij", ub.reshape(m, d, m, d),
                        np.conj(u_beta)) / d

    if linalg.frob(ub - np.kron(u_alpha, u_beta)) > tol * np.sqrt(m * d):
        raise NotPureTensorError("pure-tensor reconstruction residual "
                                 "exceeds tolerance")
    alpha = AntiUnitaryOp(u_alpha, tol)
    beta = AntiUnitaryOp(u_beta, tol)
    eps_a = parity(alpha, tol)
    eps_b = parity(beta, tol)
    eps_t = 1 if np.trace(ub @ np.conj(ub)).real > 0 else -1
    if eps_a * eps_b != eps_t:
        raise SymmetryConsistencyError(
            "transferred parities violate eps_alpha * eps_beta = eps_T")
    return TransferredT(alpha=alpha, beta=beta, eps_alpha=eps_a,
                        eps_beta=eps_b)

