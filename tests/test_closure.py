"""The batched closure test against the triple-loop oracle.

``closure_check`` reports the largest Frobenius norm over x of x ->
P_off [x, k'] on the normalized brackets k' = span [p, p], which is the
root-sum-square of the per-triple residuals of the oracle when no
singular value is cut; every one of them is a column of that operator,
so in exact arithmetic

    oracle <= new <= sqrt(d (d - 1) / 2) * oracle.

Both sides are computed in floating point, and on a closed span both
measure only roundoff, so the bounds carry ``ROUNDOFF``: 1e-13 is far
above the ~1e-14 roundoff of unit-norm brackets of these sizes and
three orders below the closure tolerance.
"""

import numpy as np
import pytest

import oracles
from test_family_table import CASES, _two_dims
from tenfold.classifier import FAMILIES, label
from tenfold.errors import InputShapeError
from tenfold.linalg import off_span
from tenfold.symspace import closure_check, tangent_split

TOL = 1e-9
ROUNDOFF = 1e-13


def _generic(rng, n, d):
    a = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return list(0.5 * (a - a.conj().transpose(0, 2, 1)))


def _perturbed(p_basis, eps, seed):
    """Each element moved by eps times a unit generic direction."""
    rng = np.random.default_rng(seed)
    moves = _generic(rng, p_basis[0].shape[0], len(p_basis))
    return [x + eps * m / np.linalg.norm(m) for x, m in zip(p_basis, moves)]


def _smallest_p(family):
    bases = [tangent_split(label(family, *dims)).p_basis
             for dims in _two_dims(family)]
    return min((b for b in bases if b), key=len)


def assert_matches_oracle(p_basis):
    result = closure_check(p_basis)
    oracle, triple = oracles.closure_oracle(p_basis)
    d = len(p_basis)
    new = result.max_residual
    assert oracle <= new + ROUNDOFF, (oracle, triple, new)
    assert new <= np.sqrt(d * (d - 1) / 2) * (oracle + ROUNDOFF), \
        (oracle, triple, new)
    if oracle > 10 * TOL or oracle < TOL / 10:
        assert result.passed == (oracle <= TOL), (oracle, triple, new)
    return oracle, result


@pytest.mark.parametrize("family,dims", CASES,
                         ids=[f"{f}{d}" for f, d in CASES])
def test_tangent_spaces_close(family, dims):
    p_basis = tangent_split(label(family, *dims)).p_basis
    if not p_basis:
        with pytest.raises(InputShapeError):
            closure_check(p_basis)
        return
    _, result = assert_matches_oracle(p_basis)
    assert result.passed


@pytest.mark.parametrize("seed", range(20))
def test_generic_spans(seed):
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(2, 5))
    d = int(rng.integers(2, min(7, n * n)))
    assert_matches_oracle(_generic(rng, n, d))


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("family", FAMILIES)
def test_perturbed_tangent_spaces(family, eps):
    p_basis = _smallest_p(family)
    oracle, result = assert_matches_oracle(_perturbed(p_basis, eps, 5))
    n = p_basis[0].shape[0]
    if 1 < len(p_basis) < n * n:
        # short of all of u(n), a moved span no longer closes, by about eps
        assert oracle > eps / 10
        assert result.passed == (eps < TOL)


def test_repeated_element():
    p_basis = list(tangent_split(label("AI", 3)).p_basis)
    _, result = assert_matches_oracle(p_basis + p_basis[:1])
    assert result.passed
    rng = np.random.default_rng(3)
    generic = _generic(rng, 3, 3)
    _, result = assert_matches_oracle(generic + [2.0 * generic[1]])
    assert not result.passed


def test_repeated_element_adds_no_direction():
    rng = np.random.default_rng(7)
    p_basis = _generic(rng, 3, 3)
    x = np.array(_generic(rng, 3, 4))
    repeated = p_basis + p_basis[:1]
    assert np.allclose(off_span(repeated, x), off_span(p_basis, x),
                       rtol=0, atol=1e-12)
    assert abs(oracles.closure_oracle(repeated)[0] -
               oracles.closure_oracle(p_basis)[0]) <= 1e-12
    for basis in (p_basis, list(tangent_split(label("AI", 3)).p_basis)):
        assert closure_check(basis + basis[:1]).passed == \
            closure_check(basis).passed


def test_one_element_basis():
    oracle, result = assert_matches_oracle(
        _generic(np.random.default_rng(4), 3, 1))
    assert oracle == result.max_residual == 0.0 and result.passed


def _generic_uncut(seed):
    """The span of test_generic_spans, when its d (d - 1) / 2 normalized
    brackets are linearly independent, so no singular value is cut."""
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(2, 5))
    d = int(rng.integers(2, min(7, n * n)))
    mats = _generic(rng, n, d)
    unit = [m / np.linalg.norm(m) for m in mats]
    y, z = np.triu_indices(d, 1)
    brackets = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()])
                         for b in (unit[i] @ unit[j] - unit[j] @ unit[i]
                                   for i, j in zip(y, z))], axis=1)
    return mats if np.linalg.matrix_rank(brackets) == len(y) else None


UNCUT_SEEDS = [seed for seed in range(20) if _generic_uncut(seed)]


@pytest.mark.parametrize("family,dims", CASES,
                         ids=[f"{f}{d}" for f, d in CASES])
def test_tangent_residual_is_the_root_sum_square(family, dims):
    p_basis = tangent_split(label(family, *dims)).p_basis
    if p_basis:
        assert abs(closure_check(p_basis).max_residual -
                   oracles.closure_rss_oracle(p_basis)) <= ROUNDOFF


@pytest.mark.parametrize("seed", UNCUT_SEEDS)
def test_generic_residual_is_the_root_sum_square(seed):
    p_basis = _generic_uncut(seed)
    assert abs(closure_check(p_basis).max_residual -
               oracles.closure_rss_oracle(p_basis)) <= ROUNDOFF
