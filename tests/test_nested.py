from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_arrangement import signed_pairs, unit_vectors
from test_quotient import braid
from test_ring import TERNARY, building_closure

from arrspec import (
    Arrangement,
    BuildingSet,
    ValidationError,
    build_lattice,
    building_from_closures,
    d_value,
    enumerate_nested,
    ideal_generators,
    is_nested,
    maximal_building,
    minimal_building,
    prepare,
    spectrum,
)
from arrspec.fixtures import resolve_fixture
from arrspec.nested import _direct_sum

THREE_LINES = build_lattice(Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)]))
QUARTIC = build_lattice(
    Arrangement.from_normals(3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)])
)
SINGLE = build_lattice(Arrangement.from_normals(3, [(1, 0, 0)]))


def coordinate_c4():
    """The coordinate hyperplanes of C^4 with the flat {0,1,2} and the origin:
    hyperplanes 0, 1 and 2 are nested in pairs but not together, since they
    meet in {0,1,2}."""
    normals = [tuple(int(i == k) for k in range(4)) for i in range(4)]
    lattice = build_lattice(Arrangement.from_normals(4, normals))
    return building_from_closures(lattice, [[0], [1], [2], [3], [0, 1, 2], [0, 1, 2, 3]])


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


def test_element_indices_are_ints_not_bools():
    # as in `enumerate_nested` and `multiplicity`, a bool is not taken as
    # element 0 or 1, in a subset or as the lower element
    bs = maximal_building(THREE_LINES)
    assert is_nested(bs, [1]) and d_value(bs, (), 1) == 1 and d_value(bs, (1,), 0) == 1
    for bad in (True, False, 1.0, "1", -1, bs.size):
        with pytest.raises(ValueError):
            is_nested(bs, [bad])
        with pytest.raises(ValueError):
            d_value(bs, (), bad)
        with pytest.raises(ValueError):
            d_value(bs, (bad,), 0)
        # checked before the subset is sorted, so a non-int is not a TypeError
        with pytest.raises(ValueError):
            is_nested(bs, [1, bad])
        with pytest.raises(ValueError):
            d_value(bs, (1, bad), 0)


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


def below_by_scan(bs):
    """below[v] by definition: every earlier element whose mask holds v's."""
    return tuple(
        frozenset(w for w in range(v) if not mv & ~bs.masks[w]) for v, mv in enumerate(bs.masks)
    )


def test_below_equals_the_mask_scan():
    names = ["example-a", "example-a-weighted", "example-b1", "example-b2", "lines:9"]
    names += [f"generic3d:{m}" for m in (4, 5, 6)]
    arrangements = [resolve_fixture(name) for name in names]
    arrangements += [braid(n)[0] for n in (3, 4, 5)]
    # braid A3 in C^4 has no origin, and two lines in C^2 leave it out of
    # the minimal set: element 0 is then no flat of the set
    a3 = braid(3)[0]
    arrangements.append(Arrangement.from_normals(4, [h.normal + (0,) for h in a3.hyperplanes]))
    arrangements.append(Arrangement.from_normals(2, [(1, 0), (0, 1)]))
    for lattice in [THREE_LINES, QUARTIC, SINGLE] + [build_lattice(a) for a in arrangements]:
        for bs in (maximal_building(lattice), minimal_building(lattice)):
            assert bs.below == below_by_scan(bs), bs
    custom = coordinate_c4()
    assert custom.below == below_by_scan(custom)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_below_equals_the_mask_scan_on_custom_sets(data):
    n = data.draw(st.sampled_from([3, 4]))
    normals = st.lists(st.sampled_from(TERNARY[n]), min_size=1, max_size=7, unique=True)
    lattice = build_lattice(Arrangement.from_normals(n, data.draw(normals)))
    proper = [f.closure for f in lattice.flats if f.codim > 1]
    chosen = data.draw(st.lists(st.sampled_from(proper), unique=True)) if proper else []
    bs = building_from_closures(lattice, building_closure(lattice, chosen))
    assert bs.below == below_by_scan(bs)
    assert all(0 in bs.below[v] for v in range(1, bs.size))


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
    # the bound is an int in 0..n-1; a bool is not taken as 0 or 1
    bs = maximal_building(QUARTIC)
    assert enumerate_nested(bs, 0) == [frozenset()]
    assert len(enumerate_nested(bs, bs.n - 1)) > len(enumerate_nested(bs, 1))
    for bad in (-1, bs.n, True, False, "1", 1.0, None):
        with pytest.raises(ValueError):
            enumerate_nested(bs, bad)


def test_enumerate_nested_tests_antichains_the_pairs_cannot_decide():
    bs = coordinate_c4()
    hyperplanes = [bs.closures.index((i,)) for i in range(3)]
    assert all(is_nested(bs, pair) for pair in combinations(hyperplanes, 2))
    assert not is_nested(bs, hyperplanes)
    expected = {
        frozenset(sub)
        for size in range(bs.n)
        for sub in combinations(range(1, bs.size), size)
        if is_nested(bs, sub)
    }
    found = enumerate_nested(bs, bs.n - 1)
    assert len(found) == len(expected) == 21
    assert set(found) == expected


def test_inherited_bounds_equal_the_bounds_from_scratch(setups):
    # the pass derives each nested set's exponent bounds from its parent's;
    # here every bound is the intersection of the elements above v, from scratch.
    # The ideal keeps only the nested sets with no hyperplane element, while
    # enumerate_nested still lists every nested set
    buildings = [s.building for s in setups.values()] + [coordinate_c4()]
    for n in (3, 4, 5):
        arr, closures = braid(n)
        lattice = build_lattice(arr)
        buildings += [maximal_building(lattice), building_from_closures(lattice, closures)]
    for bs in buildings:
        found = enumerate_nested(bs, bs.n - 1)
        assert found == sorted(found, key=lambda s: (len(s), sorted(s)))
        hyperplanes = {v for v in range(1, bs.size) if bs.codims[v] == 1}
        assert all(frozenset({v}) in found for v in hyperplanes)
        free = [s for s in found if not s & hyperplanes]
        assert len(free) < len(found)
        ideal = ideal_generators(bs)
        assert set(ideal._limits) == {sum(1 << v for v in s) for s in free}
        for mask in ideal._limits:
            elems = tuple(v for v in range(1, bs.size) if mask >> v & 1)
            expected = tuple(
                (v, bs.intersection_dim([u for u in elems if bs.lt(v, u)]) - bs.dims[v])
                for v in sorted((0, *elems), key=lambda v: (-bs.dims[v], v))
            )
            assert ideal._limits[mask] == expected, (bs, elems)


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


GENERIC_C3 = Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


@pytest.mark.parametrize(
    "closures",
    [
        [[True], [False], [2], [3]],
        # read as hyperplanes 1 and 0, this is a building set
        [[True], [False], [2], [3], [0, 1, 2, 3]],
        [[-1]],
        [[99]],
    ],
)
def test_custom_building_set_rejects_entries_that_are_not_hyperplane_indices(closures):
    building_from_closures(build_lattice(GENERIC_C3), [[1], [0], [2], [3], [0, 1, 2, 3]])
    with pytest.raises(ValidationError, match=r"closure set \[(True|-1|99)\]"):
        building_from_closures(build_lattice(GENERIC_C3), closures)
    with pytest.raises(ValidationError, match=r"closure set \[(True|-1|99)\]"):
        spectrum(GENERIC_C3, closures)


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


def factor_sum(mask, listed):
    """The codimensions of the listed flats whose masks are maximal inside
    `mask`, summed: those whose masks lie in no other listed mask inside it."""
    inside = [(s, c) for s, c in listed if not s & ~mask]
    return sum(c for s, c in inside if not any(s != t and not s & ~t for t, _ in inside))


def assert_direct_sum_is_the_factor_sum(lattice, rng):
    # listed selections: every hyperplane plus a random share of the other
    # proper flats, the maximal and the minimal set among them
    flats, masks = lattice.flats, lattice.masks
    proper = [i for i, f in enumerate(flats) if f.codim > 1]
    selections = [proper, [i for i in minimal_building(lattice)._elem_of if flats[i].codim > 1]]
    selections += [[i for i in proper if rng.random() < share] for share in (0.2, 0.5, 0.8)]
    for extra in selections:
        chosen = sorted({i for i, f in enumerate(flats) if f.codim == 1} | set(extra))
        listed = [(masks[i], flats[i].codim) for i in chosen]
        for m, f in zip(masks[1:], flats[1:]):
            assert _direct_sum(m, f.codim, listed) == (factor_sum(m, listed) == f.codim), f.closure


@settings(max_examples=60, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_direct_sum_is_the_factor_sum(data, rng):
    n = data.draw(st.sampled_from([3, 4]))
    normals = data.draw(st.lists(st.sampled_from(TERNARY[n]), min_size=1, max_size=7, unique=True))
    assert_direct_sum_is_the_factor_sum(build_lattice(Arrangement.from_normals(n, normals)), rng)


def test_direct_sum_is_the_factor_sum_on_reflection_arrangements():
    rng = random.Random(28)
    arrangements = [braid(n)[0] for n in (3, 4, 5)] + [
        Arrangement.from_normals(4, signed_pairs(4) + unit_vectors(4)),
        Arrangement.from_normals(4, signed_pairs(4)),
    ]
    for arr in arrangements:
        assert_direct_sum_is_the_factor_sum(build_lattice(arr), rng)


def test_minimal_building_joins_nothing():
    lattice = build_lattice(braid(4)[0])
    minimal_building(lattice)
    assert lattice._joins == {0: 0}


def test_building_set_repr_names_only_the_maximal_set():
    assert repr(prepare(resolve_fixture("example-b1")).building) == "BuildingSet(5 elements)"
    assert repr(maximal_building(QUARTIC)) == "BuildingSet(11 elements, maximal)"
    assert repr(building_from_closures(BRAID_A3, A3_HYPERPLANES + A3_TRIPLE_LINES + A3_ORIGIN)) == (
        "BuildingSet(11 elements)"
    )
