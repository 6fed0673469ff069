"""Cartan involutions, embeddings and tangent geometry of the ten families.

Each class label carries a compact group U with an involution tau whose
fixed subgroup is K; the symmetric space U/K is realized inside U as
M = {x : tau(x) = x^{-1}} via the Cartan embedding u -> u tau(u^{-1}).
The group-type families A, C, D (where M is the group itself) are
handled directly on U: the flip involution of the doubled model
(K x K)/K is kept only as the descriptor, and the tangent split returns
two copies of the Lie algebra standing for its diagonal and
anti-diagonal.

Bases are orthonormal in the real trace form Re tr(X^dag Y), which is
the negative trace form on anti-Hermitian matrices.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .classifier import FAMILY, ClassLabel, twist
from .errors import InputShapeError, NotInManifoldError


@dataclass(frozen=True, eq=False)
class CartanPair:
    """Involution data of one family at fixed dimensions.

    ``twist`` is the fixed matrix entering the involution (J for the
    quaternion conjugations, S = diag(+1..., -1...) for the chiral
    families); ``ambient_form`` is the symplectic form defining the
    ambient group when that group is symplectic-unitary.
    """

    label: ClassLabel
    kind: str           # 'conj' | 'conj_J' | 'adj_S' | 'flip'
    matrix_dim: int
    twist: np.ndarray = None
    ambient: str = "unitary"
    ambient_form: np.ndarray = None

    @property
    def group_type(self):
        return self.kind == "flip"

    def tau(self, u):
        """The involution on group elements.

        Being linear or anti-linear, it is also its own linearization on
        the Lie algebra.  Group-type pairs have no tau on U: their flip
        acts on the doubled model, which the geometry below never needs.
        """
        if self.kind == "conj":
            return np.conj(u)
        if self.kind == "conj_J":
            return self.twist @ np.conj(u) @ self.twist.T
        if self.kind == "adj_S":
            return self.twist @ u @ self.twist
        raise InputShapeError(f"{self.label} is group-type; its flip "
                              "involution acts on pairs")

    def haar(self, rng):
        """A Haar-distributed element of the ambient group U."""
        n = self.matrix_dim
        if self.ambient == "unitary":
            return linalg.haar_unitary(n, rng)
        if self.ambient == "symplectic-unitary":
            return linalg.haar_symplectic_unitary(n, rng, self.ambient_form)
        special = self.ambient == "special-orthogonal"
        return linalg.haar_orthogonal(n, rng, special).astype(complex)

    def ambient_defects(self, u):
        """Defects of u from U as (residual, tolerance scale) pairs:
        unitarity, then reality and determinant, or the symplectic form."""
        n = self.matrix_dim
        defects = [(linalg.frob(u.conj().T @ u - np.eye(n)), 1.0)]
        if self.ambient in ("orthogonal", "special-orthogonal"):
            defects.append((linalg.frob(u.imag), np.sqrt(n)))
        if self.ambient == "special-orthogonal":
            defects.append((abs(np.linalg.det(u.real) - 1.0), n))
        if self.ambient == "symplectic-unitary":
            j = self.ambient_form
            defects.append((linalg.frob(u.T @ j @ u - j), np.sqrt(n)))
        return defects

    def in_group(self, u, tol=None):
        """Membership test for the ambient group U."""
        tol = linalg.TOL_INPUT if tol is None else tol
        u = np.asarray(u, dtype=complex)
        n = self.matrix_dim
        if u.shape != (n, n):
            return False
        (unitarity, _), *rest = self.ambient_defects(u)
        return unitarity <= max(tol, linalg.tol_unitary(n)) and \
            all(residual <= tol * scale for residual, scale in rest)


def involution(lab):
    """Cartan involution data for any of the ten class labels."""
    fam = FAMILY[lab.family]
    kind, tau_twist = fam.tau
    return CartanPair(lab, kind, lab.matrix_dim, twist(lab, tau_twist),
                      fam.ambient, twist(lab, fam.ambient_form))


def in_space(x, pair, tol=1e-8):
    """Membership in M = {x in U : tau(x) = x^{-1}}."""
    x = np.asarray(x, dtype=complex)
    if not pair.in_group(x, max(tol, linalg.TOL_INPUT)):
        return False
    if pair.group_type:
        return True
    residual = linalg.frob(pair.tau(x) @ x - np.eye(pair.matrix_dim))
    return residual <= tol * np.sqrt(pair.matrix_dim)


def cartan_embed(u, pair):
    """Cartan embedding u K -> u tau(u^{-1}) of U/K into U.

    Group-type families are their own symmetric space, so the embedding
    is the identity map there.
    """
    u = np.asarray(u, dtype=complex)
    if not pair.in_group(u):
        raise InputShapeError(f"element is not in the ambient group of "
                              f"{pair.label}")
    if pair.group_type:
        return u
    return u @ pair.tau(u.conj().T)


def geodesic_inversion(y, x, pair):
    """Geodesic inversion s_y(x) = y x^{-1} y on the symmetric space."""
    if not in_space(x, pair):
        raise NotInManifoldError("x is not in the symmetric space")
    if not in_space(y, pair):
        raise NotInManifoldError("y is not in the symmetric space")
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return y @ x.conj().T @ y


@dataclass(frozen=True, eq=False)
class TangentDecomposition:
    """Orthonormal bases of the +1/-1 eigenspaces of the involution."""

    label: ClassLabel
    k_basis: tuple
    p_basis: tuple

    @property
    def dim_k(self):
        return len(self.k_basis)

    @property
    def dim_p(self):
        return len(self.p_basis)


def ambient_algebra(pair):
    """Real-orthonormal basis of the Lie algebra of the ambient group.

    u(n) is spanned by i E_jj, (E_jk - E_kj)/sqrt 2 and
    i (E_jk + E_kj)/sqrt 2 (j < k), o(n) by its real members; usp is the
    image of u(n) under the real-linear projection X -> (X + J conj(X)
    J^dag)/2 onto the algebra preserving the symplectic form J.
    """
    n = pair.matrix_dim
    e = np.eye(n, dtype=complex)
    j, k = np.triu_indices(n, 1)
    outer = e[j, :, None] * e[k, None, :]
    skew = (outer - outer.transpose(0, 2, 1)) / np.sqrt(2)
    if pair.ambient in ("orthogonal", "special-orthogonal"):
        return list(skew)
    sym = 1j * (outer + outer.transpose(0, 2, 1)) / np.sqrt(2)
    basis = np.concatenate([1j * e[:, :, None] * e[:, None, :], skew, sym])
    if pair.ambient == "symplectic-unitary":
        form = pair.ambient_form
        usp = 0.5 * (basis + form @ basis.conj() @ form.conj().T)
        u, _, rank = linalg._rank_svd(linalg._vec_real(usp).T)
        return list(linalg._unvec_real(u[:, :rank].T, n))
    return list(basis)


def tangent_split(lab):
    """Split the ambient algebra into tau eigenspaces k (+1) and p (-1).

    tau acts once on the orthonormal ambient stack X; the eigenvectors of
    its real matrix T_ij = Re <X_i, tau X_j>, an orthogonal involution to
    ``TOL_INPUT``, contracted with X give orthonormal bases of k and p.

    For the group-type families both lists are copies of the Lie algebra
    itself, standing for the diagonal and anti-diagonal of the doubled
    model; their bracket relations hold because the algebra closes.
    """
    pair = involution(lab)
    ambient = ambient_algebra(pair)
    if pair.group_type:
        return TangentDecomposition(label=lab, k_basis=tuple(ambient),
                                    p_basis=tuple(ambient))
    x = np.array(ambient)
    vx = linalg._vec_real(x)
    t = vx @ linalg._vec_real(pair.tau(x)).T
    signs, vectors = np.linalg.eigh(t)
    tol = linalg.input_tol()
    if not (np.abs(t - t.T).max() <= tol and
            np.abs(np.abs(signs) - 1.0).max() <= tol):
        raise InputShapeError("tau is not an orthogonal involution of the "
                              "ambient algebra; involution is inconsistent")
    n = pair.matrix_dim
    k_basis = linalg._unvec_real(vectors[:, signs > 0].T @ vx, n)
    p_basis = linalg._unvec_real(vectors[:, signs < 0].T @ vx, n)
    return TangentDecomposition(label=lab, k_basis=tuple(k_basis),
                                p_basis=tuple(p_basis))


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of ``closure_check`` (root-sum-square bound, passed at 1e-9)."""

    passed: bool
    max_residual: float


def closure_check(p_basis):
    """Test whether [p, [p, p]] stays inside the real span of ``p_basis``.

    The closure condition holds exactly when p is the odd part of a Lie
    algebra with involution, i.e. the tangent model of a symmetric
    space; a generic span fails it.

    [x, [y, z]] is linear in w = [y, z], so the test runs on k' =
    span [p, p]: the normalized brackets B = [y, z] / (|y| |z|), y < z,
    are compressed by one thin SVD B = U S V^T, and ``max_residual`` is
    the largest Frobenius norm over x of c -> P_off [x / |x|, U S c]:
    with nothing cut, exactly the root-sum-square over y < z of the
    relative triple residuals |P_off [x, [y, z]]| / (|x| |y| |z|), so at
    least the worst of them and at most sqrt(d (d - 1) / 2) times it.
    Singular values below numpy's ``matrix_rank`` threshold are cut;
    2 s_(r+1) (|ad x| <= 2 |x|) keeps the bound.
    """
    mats = np.array(p_basis, dtype=complex)
    if not len(mats):
        raise InputShapeError("need at least one basis element")
    n = mats.shape[-1]
    norms = np.linalg.norm(mats, axis=(1, 2))
    unit = mats / np.maximum(norms, 1e-300)[:, None, None]
    y, z = np.triu_indices(len(mats), 1)
    brackets = linalg._vec_real(unit[y] @ unit[z] - unit[z] @ unit[y]).T
    u, s, rank = linalg._rank_svd(brackets)
    w = linalg._unvec_real((u[:, :rank] * s[:rank]).T, n)
    x = unit[:, None]
    off = linalg.off_span(mats, x @ w - w @ x)
    worst = float(linalg.frob_each(off).max()) + \
        2.0 * float(s[rank:].max(initial=0.0))
    return ClosureResult(passed=worst <= 1e-9, max_residual=worst)
