from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ring import TERNARY, building_closure

from arrspec import (
    Arrangement,
    BuildingSet,
    ValidationError,
    build_lattice,
    building_from_closures,
    d_value,
    enumerate_nested,
    is_nested,
    maximal_building,
)
from arrspec.fixtures import resolve_fixture

THREE_LINES = build_lattice(Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)]))
QUARTIC = build_lattice(
    Arrangement.from_normals(3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)])
)
SINGLE = build_lattice(Arrangement.from_normals(3, [(1, 0, 0)]))


def test_maximal_sizes():
    assert maximal_building(THREE_LINES).size == 4
    assert maximal_building(QUARTIC).size == 11
    assert maximal_building(SINGLE).size == 2


def test_element_order_by_dimension():
    bs = maximal_building(QUARTIC)
    assert bs.dims == (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2)
    assert bs.codims == (3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    # ties broken lexicographically on closures
    line_closures = [bs.closures[i] for i in range(1, 7)]
    assert line_closures == sorted(line_closures)


def test_zero_element_below_everything():
    bs = maximal_building(QUARTIC)
    for i in range(bs.size):
        assert bs.leq(0, i)
        assert bs.leq(i, 0) == (i == 0)


def test_nonessential_keeps_formal_zero_distinct():
    bs = maximal_building(SINGLE)
    # one proper flat (the hyperplane itself) plus the formal element
    assert bs.dims == (0, 2)
    assert bs.lt(0, 1)
    assert not bs.zero_flat_included


def test_containment_matches_closures():
    bs = maximal_building(QUARTIC)
    for a in range(1, bs.size):
        for b in range(1, bs.size):
            expected = set(bs.closures[b]) <= set(bs.closures[a])
            assert bs.leq(a, b) == expected


def test_is_nested_examples():
    bs = maximal_building(QUARTIC)
    lines = [i for i in range(1, bs.size) if bs.dims[i] == 1]
    planes = [i for i in range(1, bs.size) if bs.dims[i] == 2]
    # chains are nested
    incident = next((b, a) for b in lines for a in planes if bs.lt(b, a))
    assert is_nested(bs, incident)
    # two distinct lines meet only at the origin, which is in the building set
    assert not is_nested(bs, (lines[0], lines[1]))
    # two planes meet in a line of the building set
    assert not is_nested(bs, (planes[0], planes[1]))
    assert is_nested(bs, ())
    assert is_nested(bs, (planes[0],))
    # the formal element never obstructs
    assert is_nested(bs, (0, *incident))


def test_is_nested_rejects_unknown_elements():
    bs = maximal_building(THREE_LINES)
    with pytest.raises(ValueError):
        is_nested(bs, (1, 99))


def test_nested_equals_chains_for_maximal():
    # brute force over all small subsets
    for lat in (THREE_LINES, QUARTIC):
        bs = maximal_building(lat)
        elems = range(1, bs.size)
        for size in (2, 3):
            for sub in combinations(elems, size):
                chain = all(
                    bs.leq(a, b) or bs.leq(b, a) for a, b in combinations(sub, 2)
                )
                assert is_nested(bs, sub) == chain


def test_enumerate_nested_matches_brute_force():
    bs = maximal_building(QUARTIC)
    got = set(enumerate_nested(bs, 2))
    expected = {frozenset()}
    for size in (1, 2):
        for sub in combinations(range(1, bs.size), size):
            if is_nested(bs, sub):
                expected.add(frozenset(sub))
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_enumerate_nested_equals_is_nested_filter(data):
    # every subset up to the bound, for the maximal and a custom building set
    n = data.draw(st.sampled_from([3, 4]))
    normals = st.lists(st.sampled_from(TERNARY[n]), min_size=3, max_size=6, unique=True)
    lattice = build_lattice(Arrangement.from_normals(n, data.draw(normals)))
    proper = [f.closure for f in lattice.flats if f.codim > 1]
    chosen = data.draw(st.lists(st.sampled_from(proper), unique=True)) if proper else []
    custom = building_from_closures(lattice, building_closure(lattice, chosen))
    for bs in (maximal_building(lattice), custom):
        expected = {
            frozenset(sub)
            for size in range(bs.n)
            for sub in combinations(range(1, bs.size), size)
            if is_nested(bs, sub)
        }
        assert set(enumerate_nested(bs, bs.n - 1)) == expected


def assert_maximal_is_the_checked_full_selection(lattice):
    # maximal_building skips the axiom check; the checked route must agree
    fast = maximal_building(lattice)
    every = [f.closure for f in lattice.flats if f.codim > 0]
    checked = building_from_closures(lattice, every)
    for name in ("flats", "dims", "codims", "closures", "masks", "below", "_elem_of"):
        assert getattr(fast, name) == getattr(checked, name), name
    assert fast.zero_flat_included == checked.zero_flat_included == lattice.is_essential
    assert fast.is_maximal and checked.is_maximal


def test_maximal_building_equals_the_checked_full_selection_on_fixtures():
    names = ["example-a", "example-a-weighted", "example-b1", "example-b2", "generic3d:5"]
    for lattice in [THREE_LINES, QUARTIC, SINGLE] + [build_lattice(resolve_fixture(n)) for n in names]:
        assert_maximal_is_the_checked_full_selection(lattice)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_maximal_building_equals_the_checked_full_selection(data):
    n = data.draw(st.sampled_from([3, 4]))
    normals = st.lists(st.sampled_from(TERNARY[n]), min_size=1, max_size=6, unique=True)
    assert_maximal_is_the_checked_full_selection(
        build_lattice(Arrangement.from_normals(n, data.draw(normals)))
    )


def test_building_set_takes_proper_flats_only():
    for bad in ([0], [len(QUARTIC.flats)]):
        with pytest.raises(ValueError):
            BuildingSet(QUARTIC, bad)


def test_enumerate_nested_is_downward_closed():
    bs = maximal_building(QUARTIC)
    fams = set(enumerate_nested(bs, 2))
    for fam in fams:
        for e in fam:
            assert fam - {e} in fams


def test_enumerate_nested_respects_bound():
    bs = maximal_building(QUARTIC)
    with pytest.raises(ValueError):
        enumerate_nested(bs, bs.n)


def test_d_value_chain():
    bs = maximal_building(QUARTIC)
    lines = [i for i in range(1, bs.size) if bs.dims[i] == 1]
    planes = [i for i in range(1, bs.size) if bs.dims[i] == 2]
    b, a = next((b, a) for b in lines for a in planes if bs.lt(b, a))
    # empty family: drop from the ambient space
    assert d_value(bs, (), 0) == 3
    assert d_value(bs, (), b) == 2
    assert d_value(bs, (), a) == 1
    assert d_value(bs, (a,), b) == 1
    assert d_value(bs, (a,), 0) == 2
    assert d_value(bs, (b, a), 0) == 1


def test_d_value_requires_strict_containment():
    bs = maximal_building(QUARTIC)
    planes = [i for i in range(1, bs.size) if bs.dims[i] == 2]
    with pytest.raises(ValueError):
        d_value(bs, (planes[0],), planes[1])
    with pytest.raises(ValueError):
        d_value(bs, (planes[0],), planes[0])


def test_custom_building_set_requires_hyperplanes():
    with pytest.raises(ValidationError, match="hyperplane"):
        building_from_closures(QUARTIC, [[0, 1]])


def test_custom_building_set_roundtrip():
    # listing every proper flat explicitly reproduces the maximal building set
    closures = [list(f.closure) for f in QUARTIC.flats if f.codim > 0]
    bs = building_from_closures(QUARTIC, closures)
    assert bs.is_maximal
    assert bs.size == maximal_building(QUARTIC).size


def test_custom_building_set_rejects_non_flats():
    with pytest.raises(ValidationError):
        building_from_closures(THREE_LINES, [[0], [1], [2], [0, 1]])


BRAID_A3 = build_lattice(
    Arrangement.from_normals(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
)
A3_HYPERPLANES = [[i] for i in range(6)]
A3_TRIPLE_LINES = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]
A3_ORIGIN = [list(range(6))]


def test_custom_building_set_axiom_enforced():
    # a triple line is not the direct sum of the hyperplanes through it
    for closures in (A3_HYPERPLANES, A3_HYPERPLANES + A3_ORIGIN):
        with pytest.raises(ValidationError, match=r"not a building set.*\[0, 1, 2\]"):
            building_from_closures(BRAID_A3, closures)
    # without the origin, the triple lines through it overlap
    with pytest.raises(ValidationError, match="not a building set"):
        building_from_closures(BRAID_A3, A3_HYPERPLANES + A3_TRIPLE_LINES)
    # the irreducible flats form a building set
    bs = building_from_closures(BRAID_A3, A3_HYPERPLANES + A3_TRIPLE_LINES + A3_ORIGIN)
    assert bs.size == 11 and bs.zero_flat_included and not bs.is_maximal
