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


def cartan_embed(u, pair, tol=None):
    """Cartan embedding u K -> u tau(u^{-1}) of U/K into U.

    Group-type families are their own symmetric space, so the embedding
    is the identity map there.
    """
    tol = linalg.TOL_INPUT if tol is None else tol
    u = np.asarray(u, dtype=complex)
    if not pair.in_group(u, tol):
        raise InputShapeError(f"element is not in the ambient group of "
                              f"{pair.label}")
    if pair.group_type:
        return u
    return u @ pair.tau(u.conj().T)


def geodesic_inversion(y, x, pair, tol=1e-8):
    """Geodesic inversion s_y(x) = y x^{-1} y on the symmetric space."""
    if not in_space(x, pair, tol):
        raise NotInManifoldError("x is not in the symmetric space")
    if not in_space(y, pair, tol):
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


def _vec_real(x):
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


def _unvec_real(v, n):
    half = n * n
    return v[:half].reshape(n, n) + 1j * v[half:].reshape(n, n)


def _constraint_matrix(constraints, n):
    """Real matrix of the linear maps X -> constraint(X) over R^(2 n^2)."""
    cols = []
    for idx in range(2 * n * n):
        v = np.zeros(2 * n * n)
        v[idx] = 1.0
        x = _unvec_real(v, n)
        cols.append(np.concatenate([_vec_real(c(x)) for c in constraints]))
    return np.stack(cols, axis=1)


def ambient_algebra(pair):
    """Real-orthonormal basis of the Lie algebra of the ambient group."""
    n = pair.matrix_dim
    constraints = [lambda x: x + x.conj().T]
    if pair.ambient in ("orthogonal", "special-orthogonal"):
        constraints.append(lambda x: 1j * x.imag)
    if pair.ambient == "symplectic-unitary":
        j = pair.ambient_form
        constraints.append(lambda x, j=j: x.T @ j + j @ x)
    mat = _constraint_matrix(constraints, n)
    ns = linalg.nullspace(mat, 1e-12).real
    return [_unvec_real(ns[:, k], n) for k in range(ns.shape[1])]


def _orthonormal_span(mats, n, tol=1e-8):
    if not mats:
        return []
    a = np.stack([_vec_real(m) for m in mats], axis=1)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = int(np.sum(s > tol * max(1.0, s[0])))
    return [_unvec_real(u[:, k], n) for k in range(keep)]


def tangent_split(lab):
    """Split the ambient algebra into tau eigenspaces k (+1) and p (-1).

    For the group-type families both lists are copies of the Lie algebra
    itself, standing for the diagonal and anti-diagonal of the doubled
    model; their bracket relations hold because the algebra closes.
    """
    pair = involution(lab)
    n = pair.matrix_dim
    ambient = ambient_algebra(pair)
    if pair.group_type:
        return TangentDecomposition(label=lab, k_basis=tuple(ambient),
                                    p_basis=tuple(ambient))
    plus, minus = [], []
    for x in ambient:
        dt = pair.tau(x)
        plus.append(0.5 * (x + dt))
        minus.append(0.5 * (x - dt))
    k_basis = _orthonormal_span(plus, n)
    p_basis = _orthonormal_span(minus, n)
    if len(k_basis) + len(p_basis) != len(ambient):
        raise InputShapeError("eigenspace dimensions do not add up; "
                              "involution is inconsistent")
    return TangentDecomposition(label=lab, k_basis=tuple(k_basis),
                                p_basis=tuple(p_basis))


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of the double-commutator closure test."""

    passed: bool
    max_residual: float
    worst_triple: tuple


def closure_check(p_basis, tol=1e-9):
    """Test whether [p, [p, p]] stays inside the real span of ``p_basis``.

    The closure condition holds exactly when p is the odd part of a Lie
    algebra with involution, i.e. the tangent model of a symmetric
    space; a generic span fails it.
    """
    mats = [np.asarray(m, dtype=complex) for m in p_basis]
    if not mats:
        raise InputShapeError("need at least one basis element")
    span = np.stack([_vec_real(m) for m in mats], axis=1)
    q, _ = np.linalg.qr(span)
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
    return ClosureResult(passed=worst <= tol, max_residual=worst,
                         worst_triple=worst_triple)
