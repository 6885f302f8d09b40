from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrspec import (
    Arrangement,
    GradedPoly,
    build_lattice,
    building_from_closures,
    d_value,
    enumerate_nested,
    ideal_generators,
    maximal_building,
    prepare,
    reduce_top,
)
from arrspec.linalg import EchelonBasis


def P(nvars, trunc, terms=None):
    return GradedPoly(nvars, trunc, terms)


def var(i, nvars, trunc):
    return GradedPoly.variable(i, nvars, trunc)


def monomials_of_degree(nvars, degree):
    """Degree-`degree` monomials, lexicographically largest first."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    out.sort(reverse=True)
    return out


def test_addition_and_truncation():
    c0 = var(0, 2, 1)
    c1 = var(1, 2, 1)
    assert (1 + c0) ** 2 == 1 + 2 * c0  # degree-2 part truncated away
    assert c0 * c1 == P(2, 1)
    assert (c0 + c1) - c1 == c0
    with pytest.raises(ValueError):
        c0**-1


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
# the paper's maximal model, whose middle rank is 7
QUARTIC = prepare(
    Arrangement.from_normals(3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)]), "maximal"
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
        assert not ideal.element(c[0] + c[i])
        assert ideal.element(c[i])


def test_generator_degrees_bounded():
    for setup in (THREE_LINES, QUARTIC):
        bound = setup.n - 1
        for g in setup.ideal.generators:
            assert len({sum(m) for m in g.terms}) == 1
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
        assert not ideal.element(g)
    # distinct lines never meet away from the origin
    for x in lines:
        for y in lines:
            if x < y:
                assert not ideal.element(c[x] * c[y])
        assert not ideal.element(c[x] * c[0])
        assert not ideal.element(c[x] ** 2 + c[0] ** 2)
    assert ideal.element(c[0] ** 2)


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
    # the degree-1 slice of the ideal is spanned by the degree-1 generators
    ideal_deg1 = [g for g in ideal.generators if g.degree() == 1]
    rng = random.Random(7)
    for _ in range(10):
        p = P(nv, tr, {monos1[rng.randrange(nv)]: rng.randint(-3, 3) for _ in range(3)})
        q = P(nv, tr, {monos1[rng.randrange(nv)]: rng.randint(-3, 3) for _ in range(3)})
        z = ideal_deg1[rng.randrange(len(ideal_deg1))] * rng.randint(-2, 2)
        assert reduce_top(p * q, ideal) == reduce_top((p + z) * q, ideal)
        assert reduce_top(p * q, ideal) == reduce_top(p * (q + z), ideal)
        assert ideal.element(p).pair(ideal.element(q)) == reduce_top(p * q, ideal)
        assert ideal.element(p + z).pair(ideal.element(q)) == reduce_top((p + z) * q, ideal)


def test_membership_closed_under_multiplication():
    ideal = QUARTIC.ideal
    nv, tr = QUARTIC.building.size, 2
    g = ideal.generators[0]
    if g.degree() == 1:
        for i in range(nv):
            assert not ideal.element(g * var(i, nv, tr))


def test_top_degree_quotient_is_a_line():
    # dim 1 in top degree means every top class is lam * point class
    bs = maximal_building(build_lattice(Arrangement.from_normals(2, [(1, 0), (0, 1)])))
    ideal = ideal_generators(bs)
    assert ideal.quotient_ranks[-1] == 1


# The reference presentation: every monomial is a column, and the ideal is
# spanned by all multiples of two generator families, the products over
# antichains whose intersection is a building element (non-nested
# supports) and the nested-set generators.


def reference_presentation(bs):
    """(columns, echelon spans) of the relation ideal in the free truncated ring."""
    nv, trunc = bs.size, bs.n - 1

    def comparable(a, b):
        return bs.leq(a, b) or bs.leq(b, a)

    gens = []
    for size in range(2, trunc + 1):
        for elems in combinations(range(1, nv), size):
            if any(comparable(a, b) for a, b in combinations(elems, 2)):
                continue
            if bs.intersection_element(elems) is not None:
                gens.append({tuple(int(i in elems) for i in range(nv)): 1})
    for subset in enumerate_nested(bs, trunc):
        base = P(nv, trunc, {tuple(int(i in subset) for i in range(nv)): 1})
        for w in range(nv):
            if not all(bs.lt(w, v) for v in subset):
                continue
            drop = d_value(bs, subset, w)
            if len(subset) + drop <= trunc:
                below = sum((var(i, nv, trunc) for i in range(nv) if bs.leq(i, w)), P(nv, trunc))
                gens.append((base * below**drop).terms)
    columns = [monomials_of_degree(nv, j) for j in range(trunc + 1)]
    spans = [EchelonBasis() for _ in columns]
    for j, (monos, span) in enumerate(zip(columns, spans)):
        index = {m: i for i, m in enumerate(monos)}
        for g in gens:
            dg = sum(next(iter(g)))
            for shift in columns[j - dg] if dg <= j else ():
                span.insert({index[tuple(map(add, shift, m))]: c for m, c in g.items()})
    return columns, spans


def assert_matches_reference(bs):
    ideal = ideal_generators(bs)
    columns, spans = reference_presentation(bs)
    nv, trunc = bs.size, bs.n - 1
    assert ideal.quotient_ranks == [len(ms) - sp.rank for ms, sp in zip(columns, spans)]
    # the top residue of each monomial, in units of the point class (-c_0)^trunc
    top = columns[trunc]
    residues = [spans[trunc].reduce({i: 1}) for i in range(len(top))]
    free = set().union(*residues)
    assert len(free) == 1
    (f,) = free
    unit = residues[top.index((trunc,) + (0,) * (nv - 1))][f] * (-1) ** trunc
    for mono, res in zip(top, residues):
        assert reduce_top(P(nv, trunc, {mono: 1}), ideal) == res.get(f, 0) / unit, mono
    nested = set(enumerate_nested(bs, trunc))
    for j, (monos, span) in enumerate(zip(columns, spans)):
        for i, mono in enumerate(monos):
            member = not ideal.element(P(nv, trunc, {mono: 1}))
            assert member == (not span.reduce({i: 1})), mono
            if frozenset(e for e, x in enumerate(mono) if x and e) not in nested:
                assert member, mono


def test_presentation_matches_reference_on_fixtures(setups):
    for setup in setups.values():
        assert_matches_reference(setup.building)


TERNARY = {
    n: [v for v in product((-1, 0, 1), repeat=n) if any(v) and next(c for c in v if c) == 1]
    for n in (3, 4)
}


def building_closure(lattice, chosen):
    """The closure sets of `chosen` plus every hyperplane, completed to a building set.

    Going up by codimension, a flat that the listed flats below it do not
    already decompose is added; flats of larger codimension never change
    the decomposition of a smaller one.
    """
    listed = set(chosen) | {f.closure for f in lattice.hyperplane_flats()}
    for x in sorted((f for f in lattice.flats if f.codim > 0), key=lambda f: f.codim):
        below = [f for f in lattice.flats if f.closure in listed and set(f.closure) <= set(x.closure)]
        factors = sum(
            f.codim for f in below if not any(set(f.closure) < set(g.closure) for g in below)
        )
        if factors != x.codim:
            listed.add(x.closure)
    return [list(c) for c in sorted(listed)]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_presentation_matches_reference_on_random_building_sets(data):
    # four normals at most in C^4 keep the free-ring reference fast
    n = data.draw(st.sampled_from([3, 4]))
    normals = data.draw(
        st.lists(st.sampled_from(TERNARY[n]), min_size=3, max_size=6 if n == 3 else 4, unique=True)
    )
    lattice = build_lattice(Arrangement.from_normals(n, normals))
    assert_matches_reference(maximal_building(lattice))
    proper = [f.closure for f in lattice.flats if f.codim > 1]
    chosen = data.draw(st.lists(st.sampled_from(proper), unique=True)) if proper else []
    assert_matches_reference(building_from_closures(lattice, building_closure(lattice, chosen)))


def test_variable_index_out_of_range_rejected():
    for i in (5, 3, -1):
        with pytest.raises(ValueError):
            GradedPoly.variable(i, 3, 2)


def test_monomial_of_wrong_length_rejected():
    with pytest.raises(ValueError):
        P(3, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        P(3, 2, {(1, 0, 0, 0): 1})
