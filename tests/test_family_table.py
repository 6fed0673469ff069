"""Every row of the family table, checked through each layer that reads it.

The labels are derived from the rows themselves, so a row added to
``classifier.FAMILY`` is checked here without further edits.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag

from tenfold import linalg
from tenfold.antiunitary import parity
from tenfold.classifier import (FAMILIES, FAMILY, SIGNATURE,
                                canonical_setting, classify_tenfold,
                                compatible_space, label, twist)
from tenfold.ensembles import (EnsembleSpec, class_constraints,
                               max_constraint_residual, sample_gaussian)
from tenfold.errors import InputShapeError
from tenfold.linalg import RngStream
from tenfold.symspace import cartan_embed, in_space, involution, tangent_split


def _two_dims(family):
    row = FAMILY[family]
    if row.block == "chiral":
        return ((4, 2), (0, 2)) if row.even else ((1, 4), (3, 0))
    return ((2,), (4,)) if row.even else ((3,), (4,))


CASES = [(family, dims) for family in FAMILIES
         for dims in _two_dims(family)]


def _ids(case):
    family, dims = case
    return f"{family}{dims}"


@pytest.fixture(params=CASES, ids=[_ids(c) for c in CASES])
def lab(request):
    family, dims = request.param
    return label(family, *dims)


def test_label_validation(lab):
    row = FAMILY[lab.family]
    assert label(lab.family, *lab.dims) == lab
    with pytest.raises(InputShapeError):
        label(lab.family, *lab.dims, 2)
    if row.even:
        odd = tuple(d + 1 for d in lab.dims)
        with pytest.raises(InputShapeError):
            label(lab.family, *odd)


def test_canonical_setting_classifies_back(lab):
    g0_name, t_name = FAMILY[lab.family].setting
    if t_name == "J" and sum(lab.dims) % 2:
        # a symplectic T on V needs an even dimension
        with pytest.raises(InputShapeError):
            canonical_setting(lab)
        return
    report = classify_tenfold(canonical_setting(lab), RngStream(3))
    assert [e.class_label for e in report.entries] == [lab]


def test_signature_has_one_key_per_row():
    assert len(SIGNATURE) == len(FAMILY) == 10
    assert sorted(SIGNATURE.values()) == sorted(FAMILIES)


def test_canonical_setting_reads_back_its_row(lab):
    g0_name, t_name = FAMILY[lab.family].setting
    if t_name == "J" and sum(lab.dims) % 2:
        return  # no canonical setting (see above)
    setting = canonical_setting(lab)
    t = setting.time_reversal
    key = (g0_name, None if t is None else parity(t),
           setting.particle_hole is not None)
    assert SIGNATURE[key] == lab.family


def test_gaussian_sample_meets_the_constraints(lab):
    rng = RngStream(4)
    draws = sample_gaussian(EnsembleSpec(lab), rng, size=3)
    n = lab.matrix_dim
    assert draws.shape == (3, n, n)
    for h in draws:
        assert np.linalg.norm(h - h.conj().T) <= 1e-12
        assert max_constraint_residual(lab, h) <= 1e-12
    assert len(class_constraints(lab)) == len(FAMILY[lab.family].constraints)


def test_tangent_dimension_matches_the_space(lab):
    assert tangent_split(lab).dim_p == compatible_space(lab).tangent_dim


def test_haar_draw_is_in_the_group_and_embeds_into_the_space(lab):
    pair = involution(lab)
    u = pair.haar(RngStream(5))
    assert u.shape == (lab.matrix_dim, lab.matrix_dim)
    assert pair.in_group(u)
    assert max(r for r, _ in pair.ambient_defects(u)) <= 1e-10
    assert in_space(cartan_embed(u, pair), pair, 1e-10)


@pytest.mark.parametrize("p, q", [(0, 2), (2, 0), (2, 2), (2, 4), (6, 4)])
def test_jpq_twist_matches_block_diag(p, q):
    got = twist(label("CII", p, q), "Jpq")
    expected = block_diag(linalg.symplectic_form(p // 2),
                          linalg.symplectic_form(q // 2))
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
