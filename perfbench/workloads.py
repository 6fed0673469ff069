"""Seeded inputs, operations and correctness checks of the five workloads.

A workload is a fixed list of operations, run in order as one *pass*.
Each operation is one in-process call of ``tenfold.cli.main(argv)`` or,
where no command exists, one call of a public library function.  The
seed changes only the random numbers inside the inputs (bases,
multiplicity splits, sample seeds, group elements), never the sizes, so
the work of a pass, and hence its run time, does not depend on the seed.

Every operation carries the answer known from the way its input was
built; ``Op.check`` compares the output against it and returns a
failure reason, or ``None`` when the output is correct.

This module imports numpy and scipy but never ``tenfold``: the library
is handed to the library operations and checks as an argument, so that
the traced run sees every call through the module namespaces.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

WORKLOADS = ("classify-wide", "classify-big-group", "ensembles-io",
             "fock-oracle", "geometry")

# Known defect: pooled_spacing_ratios drops every spacing pair that
# touches a zero spacing, so on Kramers-degenerate spectra no ratio is
# left and `stats` prints mean_r=nan while still exiting 0.  Its stats
# operations on these classes are kept and expected to fail this way.
KRAMERS = ("AII", "DIII", "CII")
NONFINITE = "non-finite statistic"

CHIRAL = ("AIII", "BDI", "CII")
NAMBU = ("C", "CI", "D", "DIII")


@dataclass(eq=False)
class Op:
    """One operation of a pass.

    ``argv`` marks a CLI operation; otherwise ``call(tf, ctx)`` runs one
    library call, with ``tf`` the imported ``tenfold`` package and
    ``ctx`` a dict shared by the operations of one pass, and ``inputs``
    the seeded arrays it passes to the library.  ``check``
    receives ``(output, tf, ctx)``, where the output of a CLI operation
    is ``(exit_code, stdout)``.  ``phase`` groups operations for the
    per-phase times; ``known_defect`` marks an operation that fails
    with ``NONFINITE`` until the known defect above is fixed.
    """

    name: str
    phase: str
    check: object
    argv: list = None
    call: object = None
    inputs: tuple = ()
    known_defect: bool = False


@dataclass(eq=False)
class Workload:
    ops: list
    warmup: list


# ---------------------------------------------------------------------------
# Random matrices (benchmark side, independent of the library)


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_orthogonal(rng, n, special=False):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if special and np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def symplectic_form(m):
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def split_symplectic_form(p, q):
    j = np.zeros((p + q, p + q))
    j[:p, :p] = symplectic_form(p // 2)
    j[p:, p:] = symplectic_form(q // 2)
    return j


def symplectic_unitary(rng, j):
    """exp(X) for a random anti-Hermitian X with X^t J + J X = 0."""
    n = j.shape[0]
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = 0.5 * (a - a.conj().T)
    x = 0.5 * (x + j @ x.T @ j)
    return expm(x)


def pairs(m):
    """A complex matrix as nested [re, im] pairs (the spec-file format)."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


# ---------------------------------------------------------------------------
# Representations with known decomposition


@dataclass(frozen=True, eq=False)
class Irrep:
    """Images of the group generators, Frobenius-Schur type and the
    index of the conjugate irrep (itself unless ``fs == 0``)."""

    mats: tuple
    fs: int
    conj: int = None

    @property
    def dim(self):
        return self.mats[0].shape[0]


def _m(rows):
    return np.array(rows, dtype=complex)


def _one_dim(values):
    return tuple(_m([[v]]) for v in values)


_W3 = np.exp(2j * np.pi / 3)
_C3, _S3 = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
_REFL = _m([[1, 0], [0, -1]])

# Generators: Z3 <g>, S3 <r, s>, D4 <r, s>, Q8 <i, j>; every real or
# quaternionic irrep is written in a basis where T acts as alpha (x) beta
# with beta = 1 (real) or beta = sigma_y (quaternionic).
FINITE_GROUPS = {
    "Z3": (Irrep(_one_dim([1]), 1, 0), Irrep(_one_dim([_W3]), 0, 2),
           Irrep(_one_dim([_W3 ** 2]), 0, 1)),
    "S3": (Irrep(_one_dim([1, 1]), 1), Irrep(_one_dim([1, -1]), 1),
           Irrep((_m([[_C3, -_S3], [_S3, _C3]]), _REFL), 1)),
    "D4": (Irrep(_one_dim([1, 1]), 1), Irrep(_one_dim([1, -1]), 1),
           Irrep(_one_dim([-1, 1]), 1), Irrep(_one_dim([-1, -1]), 1),
           Irrep((_m([[0, -1], [1, 0]]), _REFL), 1)),
    "Q8": (Irrep(_one_dim([1, 1]), 1), Irrep(_one_dim([1, -1]), 1),
           Irrep(_one_dim([-1, 1]), 1), Irrep(_one_dim([-1, -1]), 1),
           Irrep((_m([[0, 1j], [1j, 0]]), _m([[1j, 0], [0, -1j]])), -1)),
}
_SIGMA_Y = _m([[0, -1j], [1j, 0]])


def _spin(two_j):
    """Anti-Hermitian su(2) generators i J_x, i J_y, i J_z of spin j."""
    j = two_j / 2
    ms = j - np.arange(two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for k in range(1, two_j + 1):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    jx = 0.5 * (jp + jp.conj().T)
    jy = -0.5j * (jp - jp.conj().T)
    return tuple(1j * g for g in (jx, jy, np.diag(ms).astype(complex)))


# su2 irreps are written in the J_z basis, not in the basis the model T
# of ``_model_setting`` assumes, so su2 settings are built without T.
LIE_ALGEBRAS = {
    "su2": (Irrep(_spin(1), 0), Irrep(_spin(2), 0)),
    "u1": (Irrep(_one_dim([1j]), 1), Irrep(_one_dim([2j]), 1),
           Irrep(_one_dim([3j]), 1)),
}


def _split(rng, units, n):
    """Positive integers k with sum(units * k) == n, drawn from ``rng``."""
    for _ in range(1000):
        k = [1] * len(units)
        left = n - sum(units)
        while left > 0:
            fits = [i for i, u in enumerate(units) if u <= left]
            if not fits:
                break
            i = fits[int(rng.integers(len(fits)))]
            k[i] += 1
            left -= units[i]
        if left == 0:
            return k
    raise ValueError(f"cannot split {n} into units {units}")


def _sectors(rng, irreps, n, eps_t):
    """Multiplicity of every irrep and the expected classify blocks.

    Without T every sector is class A.  With T a complex irrep pairs
    with its conjugate (one class-A entry listing both sectors); a real
    or quaternionic irrep is fixed and is AI when eps_T * FS = +1, else
    AII, which needs an even multiplicity.
    """
    groups = []          # (irrep indices, unit size, multiplicity factor)
    for i, rep in enumerate(irreps):
        if eps_t is not None and rep.fs == 0:
            if rep.conj > i:
                groups.append(((i, rep.conj), 2 * rep.dim, 1))
        elif eps_t is not None and eps_t * rep.fs == -1:
            groups.append(((i,), 2 * rep.dim, 2))
        else:
            groups.append(((i,), rep.dim, 1))
    ks = _split(rng, [g[1] for g in groups], n)
    mult = [0] * len(irreps)
    expected = []
    for (members, _, factor), k in zip(groups, ks):
        m = k * factor
        for i in members:
            mult[i] = m
        rep = irreps[members[0]]
        if eps_t is None or rep.fs == 0:
            family = "A"
        else:
            family = "AI" if eps_t * rep.fs == 1 else "AII"
        expected.append((family, (m,), rep.dim, m, len(members)))
    return mult, sorted(expected)


def _model_setting(irreps, mult, eps_t):
    """Generators and T unitary in the sector basis, E slow, R fast."""
    blocks = [(i, m) for i, m in enumerate(mult) if m]
    n = sum(irreps[i].dim * m for i, m in blocks)
    offsets, at = {}, 0
    for i, m in blocks:
        offsets[i] = at
        at += irreps[i].dim * m
    gens = []
    for g in range(len(irreps[0].mats)):
        out = np.zeros((n, n), dtype=complex)
        for i, m in blocks:
            o, size = offsets[i], irreps[i].dim * m
            out[o:o + size, o:o + size] = np.kron(np.eye(m), irreps[i].mats[g])
        gens.append(out)
    if eps_t is None:
        return gens, None
    u = np.zeros((n, n), dtype=complex)
    for i, m in blocks:
        rep, o = irreps[i], offsets[i]
        size = rep.dim * m
        if rep.fs == 0:
            c = offsets[rep.conj]
            u[c:c + size, o:o + size] = np.eye(size)
            u[o:o + size, c:c + size] = eps_t * np.eye(size)
            continue
        beta = np.eye(rep.dim) if rep.fs == 1 else _SIGMA_Y
        alpha = np.eye(m) if eps_t * rep.fs == 1 else symplectic_form(m // 2)
        u[o:o + size, o:o + size] = np.kron(alpha, beta)
    return gens, u


def _spec(n, mode, gens, seed, t=None, s=None):
    spec = {"schema_version": "1", "dimension": n, "setting": "hilbert",
            "g0": {"mode": mode, "generators": [pairs(g) for g in gens]},
            "seed": seed}
    if t is not None:
        spec["time_reversal"] = {"matrix": pairs(t)}
    if s is not None:
        spec["particle_hole"] = {"s_matrix": pairs(s)}
    return spec


def rotated(rng, n, gens, t=None, s=None):
    """The same setting written in a Haar-random basis W."""
    w = haar_unitary(rng, n)
    gens = [w @ g @ w.conj().T for g in gens]
    t = None if t is None else w @ t @ w.T
    s = None if s is None else w @ s @ w.conj().T
    return gens, t, s


def threefold_spec(rng, irreps, mode, n, eps_t):
    mult, expected = _sectors(rng, irreps, n, eps_t)
    gens, t = _model_setting(irreps, mult, eps_t)
    gens, t, _ = rotated(rng, n, gens, t)
    return _spec(n, mode, gens, int(rng.integers(2 ** 31)), t), expected


def tenfold_spec(rng, family, n):
    """U(1) charge with twisted particle-hole S = diag(1_p, -1_q)."""
    p = 2 * int(rng.integers(1, n // 2)) if family == "CII" else \
        int(rng.integers(2, n - 1))
    q = n - p
    s = np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)
    t = None
    if family == "BDI":
        t = np.eye(n, dtype=complex)
    elif family == "CII":
        t = split_symplectic_form(p, q).astype(complex)
    gens, t, s = rotated(rng, n, [1j * np.eye(n)], t, s)
    expected = [(family, (p, q), 1, n, 1)]
    return (_spec(n, "lie-algebra", gens, int(rng.integers(2 ** 31)), t, s),
            expected)


def _perm(images):
    m = np.zeros((len(images), len(images)), dtype=complex)
    for i, j in enumerate(images):
        m[j, i] = 1.0
    return m


# Generators of the permutation groups: a long cycle and a short one.
PERMUTATION_GROUPS = {
    "S4": (4, (1, 2, 3, 0), (1, 0, 2, 3)),
    "A5": (5, (1, 2, 3, 4, 0), (1, 2, 0, 3, 4)),
    "S5": (5, (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),
    "S6": (6, (1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)),
}


def permutation_spec(rng, group, m, extra, eps_t):
    """C^m (x) C^k with the permutation action, plus ``extra`` trivial
    lines.  The permutation module is trivial + standard (dim k - 1),
    both real, so the blocks are (AI or AII or A) with multiplicities
    m + extra and m."""
    k, *cycles = PERMUTATION_GROUPS[group]
    relabel = rng.permutation(k)
    inverse = np.argsort(relabel)
    gens = []
    for c in cycles:
        p = _perm([relabel[c[inverse[i]]] for i in range(k)])
        g = np.eye(m * k + extra, dtype=complex)
        g[:m * k, :m * k] = np.kron(np.eye(m), p)
        gens.append(g)
    n = m * k + extra
    t = None
    if eps_t == 1:
        t = np.eye(n, dtype=complex)
    elif eps_t == -1:
        t = np.zeros((n, n), dtype=complex)
        t[:m * k, :m * k] = np.kron(symplectic_form(m // 2), np.eye(k))
        t[m * k:, m * k:] = symplectic_form(extra // 2)
    family = {None: "A", 1: "AI", -1: "AII"}[eps_t]
    expected = sorted([(family, (m + extra,), 1, m + extra, 1),
                       (family, (m,), k - 1, m, 1)])
    gens, t, _ = rotated(rng, n, gens, t)
    return (_spec(n, "finite-group", gens, int(rng.integers(2 ** 31)), t),
            expected)


# ---------------------------------------------------------------------------
# Checks


def _expect_exit0(out):
    code, _ = out
    return None if code == 0 else f"exit code {code}"


def check_classify(expected):
    def check(out, tf, ctx):
        bad = _expect_exit0(out)
        if bad:
            return bad
        blocks = json.loads(out[1])["blocks"]
        got = sorted((b["class"], tuple(b["dims"]), b["d"], b["m"],
                      len(b["lambda"])) for b in blocks)
        if got != expected:
            return f"blocks {got} != expected {expected}"
        return None
    return check


def check_all_pass(out, tf, ctx):
    bad = _expect_exit0(out)
    if bad:
        return bad
    lines = [ln for ln in out[1].splitlines() if ln.strip()]
    if not lines or not all(ln.startswith("PASS ") for ln in lines):
        return "a verify line is not PASS"
    return None


def read_sample_file(path):
    """Header fields and matrices of a sample file, parsed independently."""
    with open(path, encoding="utf-8") as fh:
        header, *records = fh.read().splitlines()
    meta = dict(tok.split("=", 1) for tok in header.split()[3:])
    mats = []
    for line in records:
        arr = np.asarray(json.loads(line), dtype=float)
        mats.append(arr[..., 0] + 1j * arr[..., 1])
    return meta, mats


def check_samples(family, dims, kind, count, path):
    def check(out, tf, ctx):
        bad = _expect_exit0(out)
        if bad:
            return bad
        meta, mats = read_sample_file(path)
        if meta.get("class") != family or len(mats) != count:
            return f"sample file holds {len(mats)} {meta.get('class')} records"
        lab = tf.classifier.label(family, *dims)
        if kind == "gaussian":
            worst = max(max(tf.ensembles.max_constraint_residual(lab, h),
                            float(np.linalg.norm(h - h.conj().T)))
                        for h in mats)
            if worst > 1e-12:
                return f"constraint residual {worst:.2e} > 1e-12"
        else:
            pair = tf.symspace.involution(lab)
            if not all(tf.symspace.in_space(x, pair) for x in mats):
                return "circular sample outside its symmetric space"
        return None
    return check


def check_stats(bins):
    def check(out, tf, ctx):
        bad = _expect_exit0(out)
        if bad:
            return bad
        lines = out[1].splitlines()
        row = next(ln for ln in lines if ln.startswith("mean_r,"))
        mean, stderr = (float(v) for v in row.split(",")[1:])
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            return NONFINITE
        if not 0.0 < mean < 1.0:
            return f"mean_r {mean} outside (0, 1)"
        if bins:
            start = lines.index("bin_center,density") + 1
            hist = [tuple(float(v) for v in ln.split(","))
                    for ln in lines[start:]]
            if len(hist) != bins or not all(map(math.isfinite,
                                                np.ravel(hist))):
                return NONFINITE
            width = hist[1][0] - hist[0][0] if bins > 1 else 1.0
            area = sum(d for _, d in hist) * width
            if abs(area - 1.0) > 1e-9:
                return f"density integrates to {area}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads


def _classify_op(path, expected, tenfold=False):
    argv = ["classify", str(path), "--json"] + (["--tenfold"] if tenfold
                                                else [])
    return Op("classify", "classify", check_classify(expected), argv=argv)


def _write_spec(workdir, index, spec):
    path = Path(workdir) / f"spec{index:02d}.json"
    path.write_text(json.dumps(spec, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    return path


# (group or algebra, dimension, eps_T); a ladder of dimensions on which
# the O(n^6) commutant solve dominates.
CLASSIFY_WIDE = (
    ("Z3", 12, 1), ("S3", 14, None), ("D4", 16, -1), ("Q8", 18, 1),
    ("Q8", 20, None), ("S3", 22, 1), ("su2", 12, None), ("u1", 16, -1),
)
CLASSIFY_WIDE_TENFOLD = (("AIII", 16), ("BDI", 16), ("CII", 16))

# (group, multiplicity m, extra trivial lines, eps_T); dimension <= 12.
CLASSIFY_BIG_GROUP = (
    ("S4", 1, 2, None), ("A5", 1, 1, 1), ("S5", 1, 1, None),
    ("S6", 1, 0, 1), ("S4", 3, 0, 1), ("S5", 2, 0, -1), ("A5", 2, 2, -1),
    ("S6", 1, 0, None),
)


def classify_wide(rng, workdir):
    ops = []
    for group, n, eps_t in CLASSIFY_WIDE:
        if group in FINITE_GROUPS:
            spec, expected = threefold_spec(rng, FINITE_GROUPS[group],
                                            "finite-group", n, eps_t)
        else:
            spec, expected = threefold_spec(rng, LIE_ALGEBRAS[group],
                                            "lie-algebra", n, eps_t)
        ops.append(_classify_op(_write_spec(workdir, len(ops), spec),
                                expected))
    for family, n in CLASSIFY_WIDE_TENFOLD:
        spec, expected = tenfold_spec(rng, family, n)
        ops.append(_classify_op(_write_spec(workdir, len(ops), spec),
                                expected, tenfold=True))
    return ops, [ops[0], ops[-1]]


def classify_big_group(rng, workdir):
    ops = []
    for group, m, extra, eps_t in CLASSIFY_BIG_GROUP:
        spec, expected = permutation_spec(rng, group, m, extra, eps_t)
        ops.append(_classify_op(_write_spec(workdir, len(ops), spec),
                                expected))
    return ops, [ops[0]]


# Matrix dimension 16 or 24 for every class; chiral dims are (p, q).
ENSEMBLE_LABELS = (
    ("A", (24,)), ("AI", (16,)), ("AII", (24,)), ("C", (8,)), ("CI", (12,)),
    ("D", (12,)), ("DIII", (8,)), ("AIII", (8, 8)), ("BDI", (12, 12)),
    ("CII", (8, 8)),
)
ENSEMBLE_COUNT = 16
ENSEMBLE_BINS = 16


def ensembles_io(rng, workdir):
    ops = []
    for family, dims in ENSEMBLE_LABELS:
        dims_arg = ",".join(str(d) for d in dims)
        kramers = family in KRAMERS
        for kind in ("gaussian", "circular"):
            path = str(Path(workdir) / f"{family}-{kind}.txt")
            seed = str(int(rng.integers(2 ** 31)))
            ops.append(Op("sample", "sample",
                          check_samples(family, dims, kind, ENSEMBLE_COUNT,
                                        path),
                          argv=["sample", "--class", family, "--dims",
                                dims_arg, "--kind", kind, "--count",
                                str(ENSEMBLE_COUNT), "--seed", seed,
                                "--out", path]))
            ops.append(Op("stats", "stats", check_stats(ENSEMBLE_BINS),
                          argv=["stats", "--in", path, "--bins",
                                str(ENSEMBLE_BINS)],
                          known_defect=kramers))
        ops.append(Op("stats", "stats", check_stats(0),
                      argv=["stats", "--class", family, "--dims", dims_arg,
                            "--count", str(ENSEMBLE_COUNT), "--seed",
                            str(int(rng.integers(2 ** 31)))],
                      known_defect=kramers))
    return ops, ops[:5]


# Dense Fock operators grow ~8x per mode; 8 modes take 4 s per call and
# 10 modes several minutes, so the ladder stops at 7.
FOCK_MODES = (3, 4, 5, 6, 7)
FOCK_TRIALS = 2


def fock_oracle(rng, workdir):
    ops = [Op("fock-verify", "fock", check_all_pass,
              argv=["fock-verify", "--modes", str(n), "--trials",
                    str(FOCK_TRIALS), "--seed",
                    str(int(rng.integers(2 ** 31)))])
           for n in FOCK_MODES]
    return ops, ops[:2]


# A ladder over all ten families with dim p from 6 to 18.
GEOMETRY_LABELS = (
    ("A", (3,)), ("AI", (4,)), ("AII", (6,)), ("C", (2,)), ("CI", (3,)),
    ("D", (3,)), ("DIII", (4,)), ("AIII", (2, 3)), ("BDI", (3, 4)),
    ("CII", (2, 4)),
)


def known_dims(family, dims):
    """(dim k, dim p) of the tangent split, from the Lie algebra dims."""
    if family in CHIRAL:
        p, q = dims
        return {"AIII": (p * p + q * q, 2 * p * q),
                "BDI": (p * (p - 1) // 2 + q * (q - 1) // 2, p * q),
                "CII": (p * (p + 1) // 2 + q * (q + 1) // 2, p * q)}[family]
    n = dims[0]
    return {"A": (n * n, n * n),
            "C": (n * (2 * n + 1), n * (2 * n + 1)),
            "D": (n * (2 * n - 1), n * (2 * n - 1)),
            "AI": (n * (n - 1) // 2, n * (n + 1) // 2),
            "AII": (n * (n + 1) // 2, n * (n - 1) // 2),
            "CI": (n * n, n * (n + 1)),
            "DIII": (n * n, n * (n - 1))}[family]


def ambient_element(rng, family, dims):
    """A random element of the family's ambient compact group."""
    if family in CHIRAL:
        n = sum(dims)
    else:
        n = dims[0] * (2 if family in NAMBU else 1)
    if family in ("A", "AI", "AII", "AIII"):
        return haar_unitary(rng, n)
    if family == "BDI":
        return haar_orthogonal(rng, n).astype(complex)
    if family in ("D", "DIII"):
        return haar_orthogonal(rng, n, special=True).astype(complex)
    j = split_symplectic_form(*dims) if family == "CII" else \
        symplectic_form(n // 2)
    return symplectic_unitary(rng, j)


def _geometry_ops(family, dims, u, v):
    key = f"{family}{dims}"
    want_k, want_p = known_dims(family, dims)

    def split(tf, ctx):
        ctx[key] = tf.symspace.tangent_split(tf.classifier.label(family,
                                                                 *dims))
        return ctx[key]

    def check_split(out, tf, ctx):
        if (out.dim_k, out.dim_p) != (want_k, want_p):
            return (f"dims (k, p) = {(out.dim_k, out.dim_p)}, expected "
                    f"{(want_k, want_p)}")
        return None

    def closure(tf, ctx):
        return tf.symspace.closure_check(ctx[key].p_basis)

    def check_closure(out, tf, ctx):
        return None if out.passed else \
            f"closure residual {out.max_residual:.2e} on p"

    def embed(point, u):
        def call(tf, ctx):
            pair = tf.symspace.involution(tf.classifier.label(family, *dims))
            ctx[key + point] = tf.symspace.cartan_embed(u, pair)
            return ctx[key + point]
        return call

    def in_space(out, tf, ctx):
        pair = tf.symspace.involution(tf.classifier.label(family, *dims))
        return None if tf.symspace.in_space(out, pair) else \
            "point left the symmetric space"

    def inversion(tf, ctx):
        pair = tf.symspace.involution(tf.classifier.label(family, *dims))
        return tf.symspace.geodesic_inversion(ctx[key + "y"], ctx[key + "x"],
                                              pair)

    def check_inversion(out, tf, ctx):
        bad = in_space(out, tf, ctx)
        if bad:
            return bad
        y, x = ctx[key + "y"], ctx[key + "x"]
        back = y @ np.linalg.inv(out) @ y
        err = float(np.linalg.norm(back - x))
        return None if err <= 1e-9 else f"s_y(s_y(x)) - x = {err:.2e}"

    return [Op("tangent_split", "symspace", check_split, call=split),
            Op("closure_check", "symspace", check_closure, call=closure),
            Op("cartan_embed", "symspace", in_space, call=embed("x", u),
               inputs=(u,)),
            Op("cartan_embed", "symspace", in_space, call=embed("y", v),
               inputs=(v,)),
            Op("geodesic_inversion", "symspace", check_inversion,
               call=inversion)]


def geometry(rng, workdir):
    ops = [Op("verify", "verify", check_all_pass,
              argv=["verify", "--all-classes", "--level", "full"])]
    for family, dims in GEOMETRY_LABELS:
        u = ambient_element(rng, family, dims)
        v = ambient_element(rng, family, dims)
        ops += _geometry_ops(family, dims, u, v)
    # Negative control: a generic span of anti-Hermitian matrices is not
    # the odd part of a symmetric pair, so the closure test must fail.
    a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    generic = [0.5 * (m - m.conj().T) for m in a]
    ops.append(Op("closure_check", "symspace",
                  lambda out, tf, ctx: None if not out.passed else
                  "generic span passed the closure test",
                  call=lambda tf, ctx: tf.symspace.closure_check(generic),
                  inputs=tuple(generic)))
    return ops, ops[1:6]


BUILDERS = {"classify-wide": classify_wide,
            "classify-big-group": classify_big_group,
            "ensembles-io": ensembles_io, "fock-oracle": fock_oracle,
            "geometry": geometry}


def build(name, seed, workdir):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``
    and return its operations and warm-up operations."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    Path(workdir).mkdir(parents=True, exist_ok=True)
    return Workload(*BUILDERS[name](rng, workdir))
