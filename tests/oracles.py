"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own algorithms:
multiplicities come from explicit irreducible matrices and characters,
self-duality types from character sums over squared elements,
commutants and hom spaces from the full Kronecker constraint system,
group closures from a linear duplicate scan, tangent dimensions from
brute-force real-linear constraint solving, the double-commutator
closure test from every triple of basis elements, wedge products from
permutation sorting on index tuples, Fock operators and the Fock-space
checks from dense 2^N x 2^N matrices with Fock lifts from minors, and
spacing ratios from a plain loop.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm


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


def lift_one_body_loop(fock, w, z):
    """Sum W a^dag a + (Z a^dag a^dag + h.c.)/2 by a loop over the mode
    pairs, one scatter-add per signed-permutation term."""
    h = np.zeros((fock.dim, fock.dim), dtype=complex)
    for k in range(fock.n_modes):
        for l in range(fock.n_modes):
            (fock.create[k] @ fock.annihilate[l]).add_to(h, w[k, l])
            pair = fock.create[k] @ fock.create[l]
            pair.add_to(h, 0.5 * z[k, l])
            pair.adjoint().add_to(h, 0.5 * np.conj(z[k, l]))
    return h


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
