"""The quotient ring: normal forms, the memoized product, and the classes in it.

The free-ring classes and the ideal's generators are the oracles: every
quotient class must be the normal form of its free-ring twin, `mul` must
agree with reducing the free product, and the normal form must kill every
generator.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
from test_ring import TERNARY, building_closure

from arrspec import (
    Arrangement,
    GradedPoly,
    build_lattice,
    building_from_closures,
    char_classes,
    enumerate_nested,
    ideal_generators,
    ideal_membership,
    maximal_building,
    monomials_of_degree,
    prepare,
    reduce_top,
    run_checks,
    spectrum,
    spectrum_from_setup,
)
from arrspec import cli, ring
from arrspec.fixtures import resolve_fixture


def standard(ideal, j):
    """Degree-j standard monomials: the nested monomials the normal form fixes."""
    nv, trunc = ideal.building.size, ideal.trunc

    def fixed(m):
        return ideal.normal_form(GradedPoly(nv, trunc, {m: 1})).terms == {m: 1}

    return [m for m in ideal.monomials[j] if fixed(m)]


def class_list(cl):
    return [cl.total, cl.todd, cl.log_chern, *cl.dual_ch]


def random_poly(rng, nv, trunc, count):
    """Random polynomial whose monomials may have any support."""
    terms = {}
    for _ in range(count):
        j = rng.randint(0, trunc)
        monos = monomials_of_degree(nv, j)
        terms[monos[rng.randrange(len(monos))]] = rng.randint(-3, 3)
    return GradedPoly(nv, trunc, terms)


def assert_quotient_classes(bs):
    ideal = ideal_generators(bs)
    free, quotient = char_classes(bs), char_classes(bs, ideal)
    for f, q in zip(class_list(free), class_list(quotient)):
        assert ideal.normal_form(f) == q


def test_quotient_classes_are_normal_forms_of_free_classes(setups):
    for name, setup in setups.items():
        nf = setup.ideal.normal_form
        for f, q in zip(class_list(setup.classes), class_list(setup.quotient)):
            assert nf(f) == q, name


def draw_lattice(data, most_in_c4):
    n = data.draw(st.sampled_from([3, 4]))
    most = 6 if n == 3 else most_in_c4
    normals = st.lists(st.sampled_from(TERNARY[n]), min_size=3, max_size=most, unique=True)
    return build_lattice(Arrangement.from_normals(n, data.draw(normals)))


def draw_custom_closures(data, lattice):
    proper = [f.closure for f in lattice.flats if f.codim > 1]
    chosen = data.draw(st.lists(st.sampled_from(proper), unique=True)) if proper else []
    return building_closure(lattice, chosen)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_quotient_classes_on_random_building_sets(data):
    # four normals at most in C^4 keep the free-ring classes fast
    lattice = draw_lattice(data, 4)
    assert_quotient_classes(maximal_building(lattice))
    assert_quotient_classes(building_from_closures(lattice, draw_custom_closures(data, lattice)))


def test_normal_form_kills_the_ideal_and_non_nested_monomials(setups):
    for name, setup in setups.items():
        ideal, bs = setup.ideal, setup.building
        nv, trunc = bs.size, setup.n - 1
        zero = GradedPoly.zero(nv, trunc)
        for g in ideal.generators:
            assert ideal.normal_form(g) == zero, (name, g)
        nested = set(enumerate_nested(bs, trunc))
        for j in range(trunc + 1):
            for mono in monomials_of_degree(nv, j):
                if frozenset(i for i, e in enumerate(mono) if e and i) not in nested:
                    assert ideal.normal_form(GradedPoly(nv, trunc, {mono: 1})) == zero


def test_normal_form_is_a_projection_onto_the_standard_monomials(setups):
    rng = random.Random(11)
    for name, setup in setups.items():
        ideal = setup.ideal
        nv, trunc = setup.building.size, setup.n - 1
        std = set().union(*(standard(ideal, j) for j in range(trunc + 1)))
        for _ in range(20):
            p = random_poly(rng, nv, trunc, 8)
            q = ideal.normal_form(p)
            assert set(q.terms) <= std, name
            assert ideal.normal_form(q) == q, name
            assert ideal_membership(p - q, ideal), name
            assert reduce_top(q, ideal) == reduce_top(p, ideal), name


def test_mul_is_the_product_in_the_quotient(setups):
    rng = random.Random(5)
    for name, setup in setups.items():
        ideal = setup.ideal
        nv, trunc = setup.building.size, setup.n - 1
        nf = ideal.normal_form
        for _ in range(20):
            a, b = random_poly(rng, nv, trunc, 6), random_poly(rng, nv, trunc, 6)
            assert ideal.mul(a, b) == nf(a * b), name
            assert ideal.mul(nf(a), nf(b)) == nf(a * b), name


def test_corrupted_quotient_class_fails_the_cross_route_check(setups):
    setup = setups["example-b1"]
    result = spectrum_from_setup(setup)
    assert all(c.passed for c in run_checks(setup, result))
    cl = setup.quotient
    extra = GradedPoly(setup.building.size, setup.n - 1, {standard(setup.ideal, 1)[0]: 1})
    dual_ch = (cl.dual_ch[0], cl.dual_ch[1] + extra, *cl.dual_ch[2:])
    broken = dataclasses.replace(setup, quotient=dataclasses.replace(cl, dual_ch=dual_ch))
    (cross,) = [c for c in run_checks(broken, result) if c.name == "chern character cross-route"]
    assert not cross.passed
    assert cross.detail.endswith("; mismatch at p=1")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_spectrum_does_not_depend_on_the_building_set(data):
    lattice = draw_lattice(data, 5)
    arr = lattice.arrangement
    count = len(arr.hyperplanes)
    mults = data.draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    weighted = Arrangement.from_normals(arr.n, [h.normal for h in arr.hyperplanes], mults)
    custom = draw_custom_closures(data, lattice)
    assert spectrum(weighted).as_pairs() == spectrum(weighted, custom).as_pairs()


def test_generators_are_never_built_on_the_spectrum_path(monkeypatch, capsys):
    built = {"nested_set_generators": [], "_nested_monomials": []}

    def counting(name):
        build = getattr(ring, name)

        def counted(*args):
            built[name].append(args)
            return build(*args)

        monkeypatch.setattr(ring, name, counted)

    for name in built:
        counting(name)
    spectrum(resolve_fixture("example-b1"))
    assert cli.main(["compute", "example-b1"]) == 0
    assert cli.main(["verify", "example-b1"]) == 0
    assert cli.main(["verify", "example-b1", "--json"]) == 0
    capsys.readouterr()
    assert built == {"nested_set_generators": [], "_nested_monomials": []}
    # the wrappers are the builders the lazy attributes call
    ideal = prepare(resolve_fixture("example-a")).ideal
    assert ideal.generators
    assert len(built["nested_set_generators"]) == 1
    assert ideal.monomials
    assert len(built["_nested_monomials"]) == ideal.trunc + 1


def braid_a4():
    """x_i - x_j on five points, the last coordinate set to 0, and the
    closures of its irreducible flats (one block of the partition)."""
    pairs = list(combinations(range(5), 2))
    normals = [tuple(int(k == i) - int(k == j) for k in range(4)) for i, j in pairs]
    blocks = [b for size in range(2, 6) for b in combinations(range(5), size)]
    closures = [[h for h, (i, j) in enumerate(pairs) if {i, j} <= set(b)] for b in blocks]
    return Arrangement.from_normals(4, normals), closures


def test_braid_a4_quotient_ranks():
    arr, closures = braid_a4()
    lattice = build_lattice(arr)
    assert ideal_generators(maximal_building(lattice)).quotient_ranks == [1, 41, 41, 1]
    irreducible = building_from_closures(lattice, closures)
    assert ideal_generators(irreducible).quotient_ranks == [1, 16, 16, 1]
