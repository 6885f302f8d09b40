from __future__ import annotations

import random
from fractions import Fraction

import pytest

from arrspec import (
    Arrangement,
    GradedPoly,
    build_lattice,
    ideal_generators,
    ideal_membership,
    maximal_building,
    monomials_of_degree,
    pair_top,
    prepare,
    reduce_top,
)


def P(nvars, trunc, terms=None):
    return GradedPoly(nvars, trunc, terms)


def var(i, nvars, trunc):
    return GradedPoly.variable(i, nvars, trunc)


def test_addition_and_truncation():
    c0 = var(0, 2, 1)
    c1 = var(1, 2, 1)
    assert (1 + c0) ** 2 == 1 + 2 * c0  # degree-2 part truncated away
    assert c0 * c1 == P(2, 1)
    assert (c0 + c1) - c1 == c0


def test_monomial_order_is_graded_lex():
    assert monomials_of_degree(3, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert monomials_of_degree(2, 0) == [(0, 0)]


def test_geom_inv_geometric_series():
    c0 = var(0, 1, 4)
    inv = (1 - c0).geom_inv()
    assert inv == 1 + c0 + c0**2 + c0**3 + c0**4
    assert (1 - c0) * inv == P(1, 4, {(0,): 1})
    # nontrivial constant terms invert too
    u = 2 + c0
    assert u * u.geom_inv() == P(1, 4, {(0,): 1})


def test_geom_inv_rejects_zero_constant():
    c0 = var(0, 1, 3)
    with pytest.raises(ValueError):
        c0.geom_inv()


def test_negative_powers():
    c0 = var(0, 1, 2)
    assert (1 - c0) ** -2 == 1 + 2 * c0 + 3 * c0**2


def test_exp_series():
    c0, c1 = var(0, 2, 2), var(1, 2, 2)
    got = (c0 + c1).exp()
    expected = (
        1
        + c0
        + c1
        + Fraction(1, 2) * (c0**2)
        + c0 * c1
        + Fraction(1, 2) * (c1**2)
    )
    assert got == expected
    with pytest.raises(ValueError):
        (1 + c0).exp()


def test_exp_turns_sums_into_products():
    c0, c1 = var(0, 2, 2), var(1, 2, 2)
    assert (c0 + c1).exp() == c0.exp() * c1.exp()


def test_graded_parts_and_signs():
    c0 = var(0, 1, 3)
    p = 1 + 2 * c0 + 3 * c0**2 + 4 * c0**3
    assert p.graded_part(2) == 3 * c0**2
    assert p.adams(-1) == 1 - 2 * c0 + 3 * c0**2 - 4 * c0**3
    assert p.adams(-1).adams(-1) == p
    assert p.adams(2).adams(3) == p.adams(6)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        var(0, 2, 1) + var(0, 3, 1)
    with pytest.raises(ValueError):
        var(0, 2, 1) * var(0, 2, 2)


THREE_LINES = prepare(Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)]))
QUARTIC = prepare(
    Arrangement.from_normals(3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)])
)


def test_three_lines_generators():
    ideal = THREE_LINES.ideal
    c = [var(i, 4, 1) for i in range(4)]
    # each line variable is identified with the point class
    assert sorted(repr(g) for g in ideal.generators) == [
        "c0 + c1",
        "c0 + c2",
        "c0 + c3",
    ]
    assert ideal.quotient_ranks == [1, 1]
    for i in (1, 2, 3):
        assert ideal_membership(c[0] + c[i], ideal)
        assert not ideal_membership(c[i], ideal)


def test_generator_degrees_bounded():
    for setup in (THREE_LINES, QUARTIC):
        bound = setup.n - 1
        for g in setup.ideal.generators:
            assert g.is_homogeneous()
            assert 1 <= g.degree() <= bound


def test_quartic_ranks():
    assert QUARTIC.ideal.quotient_ranks == [1, 7, 1]


def test_quartic_membership_relations():
    bs, ideal = QUARTIC.building, QUARTIC.ideal
    nv, tr = bs.size, bs.n - 1
    c = [var(i, nv, tr) for i in range(nv)]
    lines = [i for i in range(1, nv) if bs.dims[i] == 1]
    planes = [i for i in range(1, nv) if bs.dims[i] == 2]
    # one linear relation per plane: its variable plus everything beneath it
    for a in planes:
        g = c[a] + c[0]
        for b in lines:
            if bs.lt(b, a):
                g = g + c[b]
        assert ideal_membership(g, ideal)
    # distinct lines never meet away from the origin
    for x in lines:
        for y in lines:
            if x < y:
                assert ideal_membership(c[x] * c[y], ideal)
        assert ideal_membership(c[x] * c[0], ideal)
        assert ideal_membership(c[x] ** 2 + c[0] ** 2, ideal)
    assert not ideal_membership(c[0] ** 2, ideal)


def test_reduce_top_point_class_normalization():
    for setup in (THREE_LINES, QUARTIC):
        nv, tr = setup.building.size, setup.n - 1
        point = (-var(0, nv, tr)) ** tr
        assert reduce_top(point, setup.ideal) == 1


def test_reduce_top_known_values():
    c = [var(i, 4, 1) for i in range(4)]
    assert reduce_top(c[1], THREE_LINES.ideal) == 1
    assert reduce_top(c[1] - c[2], THREE_LINES.ideal) == 0
    nv, tr = QUARTIC.building.size, 2
    cb = var(1, nv, tr)
    # self-intersection of an exceptional surface against the point class
    assert reduce_top(cb**2, QUARTIC.ideal) == -1
    assert reduce_top(var(0, nv, tr) ** 2, QUARTIC.ideal) == 1


def test_reduce_top_rejects_foreign_rings():
    with pytest.raises(ValueError):
        reduce_top(var(0, 3, 1), THREE_LINES.ideal)


def test_reduce_top_well_defined_on_cosets():
    # adding ideal elements to either factor cannot change the answer
    ideal = QUARTIC.ideal
    nv, tr = QUARTIC.building.size, 2
    monos1 = monomials_of_degree(nv, 1)
    ideal_deg1 = [
        P(nv, tr, {monos1[c]: v for c, v in row.items()})
        for row in ideal.spans[1].rows.values()
    ]
    rng = random.Random(7)
    for _ in range(10):
        p = P(nv, tr, {monos1[rng.randrange(nv)]: rng.randint(-3, 3) for _ in range(3)})
        q = P(nv, tr, {monos1[rng.randrange(nv)]: rng.randint(-3, 3) for _ in range(3)})
        z = ideal_deg1[rng.randrange(len(ideal_deg1))] * rng.randint(-2, 2)
        assert reduce_top(p * q, ideal) == reduce_top((p + z) * q, ideal)
        assert reduce_top(p * q, ideal) == reduce_top(p * (q + z), ideal)
        assert pair_top(p, q, ideal) == reduce_top(p * q, ideal)
        assert pair_top(p + z, q, ideal) == reduce_top((p + z) * q, ideal)


def test_membership_closed_under_multiplication():
    ideal = QUARTIC.ideal
    nv, tr = QUARTIC.building.size, 2
    g = ideal.generators[0]
    if g.degree() == 1:
        for i in range(nv):
            assert ideal_membership(g * var(i, nv, tr), ideal)


def test_top_degree_quotient_is_a_line():
    # dim 1 in top degree means every top class is lam * point class
    bs = maximal_building(build_lattice(Arrangement.from_normals(2, [(1, 0), (0, 1)])))
    ideal = ideal_generators(bs)
    assert ideal.quotient_ranks[-1] == 1
