"""The quotient ring: normal forms, the structure-constant product, and the classes in it.

The free-ring classes and the ideal's generators are the oracles: every
quotient class must be the normal form of its free-ring twin, the product
of elements must agree with rewriting the free product monomial by
monomial, and the normal form must kill every generator.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, factorial, gcd
from operator import mul

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from test_ring import TERNARY, building_closure, monomials_of_degree

from arrspec import (
    Arrangement,
    GradedPoly,
    StructureError,
    build_lattice,
    building_from_closures,
    char_classes,
    enumerate_nested,
    ideal_generators,
    maximal_building,
    multiplicity,
    prepare,
    reduce_top,
    run_checks,
    spectrum,
    spectrum_from_setup,
)
from arrspec import chern, cli, ring
from arrspec.chern import q_series, series_log
from arrspec.fixtures import resolve_fixture
from arrspec.linalg import EchelonBasis


def standard(ideal, j):
    """Degree-j standard monomials: the nested monomials the normal form fixes."""
    nv, trunc = ideal.building.size, ideal.trunc

    def fixed(m):
        return ideal.element(GradedPoly(nv, trunc, {m: 1})).poly().terms == {m: 1}

    return [m for m in ideal.monomials[j] if fixed(m)]


def class_list(cl):
    return [cl.total, cl.todd, cl.log_chern, *cl.dual_ch]


def with_power_sums(cl):
    """The classes and the power sums they are built from: the quotient's
    come from the ring's sparse kernel, the free ring's from products."""
    return [*class_list(cl), *cl.tangent, *cl.dual_log]


def random_poly(rng, nv, trunc, count):
    """Random polynomial whose monomials may have any support."""
    terms = {}
    for _ in range(count):
        j = rng.randint(0, trunc)
        monos = monomials_of_degree(nv, j)
        terms[monos[rng.randrange(len(monos))]] = rng.randint(-3, 3)
    return GradedPoly(nv, trunc, terms)


def monomial_element(ideal, mono):
    return ideal.element(GradedPoly(ideal.building.size, ideal.trunc, {mono: 1}))


def assert_quotient_classes(bs):
    ideal = ideal_generators(bs)
    free, quotient = char_classes(bs), char_classes(bs, ideal)
    for f, q in zip(with_power_sums(free), with_power_sums(quotient)):
        assert ideal.element(f).poly() == q.poly()
    # products of dense elements against the rewritten free product
    frees = class_list(free)
    for f, g in zip(frees, frees[1:]):
        assert ideal.element(f) * ideal.element(g) == ideal.element(f * g)


def test_quotient_classes_are_normal_forms_of_free_classes(setups):
    for name, setup in setups.items():
        for f, q in zip(with_power_sums(setup.classes), with_power_sums(setup.quotient)):
            assert setup.ideal.element(f).poly() == q.poly(), name


def draw_lattice(data, most_in_c4):
    n = data.draw(st.sampled_from([3, 4]))
    most = 6 if n == 3 else most_in_c4
    normals = st.lists(st.sampled_from(TERNARY[n]), min_size=3, max_size=most, unique=True)
    arr = Arrangement.from_normals(n, data.draw(normals))
    return arr, build_lattice(arr)


def draw_custom_closures(data, lattice):
    proper = [f.closure for f in lattice.flats if f.codim > 1]
    chosen = data.draw(st.lists(st.sampled_from(proper), unique=True)) if proper else []
    return building_closure(lattice, chosen)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_quotient_classes_on_random_building_sets(data):
    # four normals at most in C^4 keep the free-ring classes fast
    _, lattice = draw_lattice(data, 4)
    assert_quotient_classes(maximal_building(lattice))
    assert_quotient_classes(building_from_closures(lattice, draw_custom_closures(data, lattice)))


def test_normal_form_kills_the_ideal_and_non_nested_monomials(setups):
    for name, setup in setups.items():
        ideal, bs = setup.ideal, setup.building
        nv, trunc = bs.size, setup.n - 1
        zero = GradedPoly.zero(nv, trunc)
        for g in ideal.generators:
            assert ideal.element(g).poly() == zero, (name, g)
        nested = set(enumerate_nested(bs, trunc))
        for j in range(trunc + 1):
            for mono in monomials_of_degree(nv, j):
                if frozenset(i for i, e in enumerate(mono) if e and i) not in nested:
                    assert ideal.element(GradedPoly(nv, trunc, {mono: 1})).poly() == zero


def test_normal_form_is_a_projection_onto_the_standard_monomials(setups):
    rng = random.Random(11)
    for name, setup in setups.items():
        ideal = setup.ideal
        nv, trunc = setup.building.size, setup.n - 1
        std = set().union(*(standard(ideal, j) for j in range(trunc + 1)))
        for _ in range(20):
            p = random_poly(rng, nv, trunc, 8)
            q = ideal.element(p).poly()
            assert set(q.terms) <= std, name
            assert ideal.element(q).poly() == q, name
            assert not ideal.element(p - q), name
            assert reduce_top(q, ideal) == reduce_top(p, ideal), name


def test_mul_is_the_product_in_the_quotient(setups):
    rng = random.Random(5)
    for name, setup in setups.items():
        ideal = setup.ideal
        nv, trunc = setup.building.size, setup.n - 1
        element = ideal.element
        for _ in range(20):
            a, b = random_poly(rng, nv, trunc, 6), random_poly(rng, nv, trunc, 6)
            want = element(a * b).poly()
            assert (element(a) * element(b)).poly() == want, name
            assert (element(element(a).poly()) * element(element(b).poly())).poly() == want, name


def braid_a4_ideals():
    """The braid A4 quotient for the maximal and the minimal building set: C^4,
    where products of three degree-one elements reach the top degree."""
    arr, closures = braid(4)
    lattice = build_lattice(arr)
    return [
        ideal_generators(maximal_building(lattice)),
        ideal_generators(building_from_closures(lattice, closures)),
    ]


def random_nested_poly(rng, ideal, count):
    """Random polynomial over monomials of nested support, which need not be standard."""
    terms = {}
    for _ in range(count):
        monos = ideal.monomials[rng.randint(0, ideal.trunc)]
        terms[rng.choice(monos)] = rng.randint(-3, 3)
    return GradedPoly(ideal.building.size, ideal.trunc, terms)


def test_element_product_is_the_normal_form_of_the_free_product(setups):
    rng = random.Random(7)

    def any_support(ideal):
        return random_poly(rng, ideal.building.size, ideal.trunc, 6)

    cases = [(name, s.ideal, any_support) for name, s in setups.items()]
    cases += [("braid A4", i, lambda i: random_nested_poly(rng, i, 8)) for i in braid_a4_ideals()]
    for name, ideal, draw in cases:
        for _ in range(20):
            a, b = draw(ideal), draw(ideal)
            product = ideal.element(a) * ideal.element(b)
            assert product == ideal.element(a * b), name
            assert product.poly() == ideal.element(a * b).poly(), name


def random_linear_map(rng, bs):
    """A sparse {variable: coefficient} map over element 0, a hyperplane
    element and a few others, with one coefficient zero."""
    hyperplane = rng.choice([v for v in range(1, bs.size) if bs.codims[v] == 1])
    chosen = [0, hyperplane, *rng.sample(range(bs.size), min(3, bs.size))]
    coeffs = {v: rng.randint(-3, 3) for v in chosen}
    coeffs[rng.choice(chosen)] = 0
    return coeffs


def test_sparse_linear_is_the_class_of_the_free_linear_form(setups):
    rng = random.Random(29)
    for ideal in [s.ideal for s in setups.values()] + braid_a4_ideals():
        bs = ideal.building
        nv, trunc = bs.size, ideal.trunc
        maps = [{}, {0: 1}, {nv - 1: -2}] + [random_linear_map(rng, bs) for _ in range(8)]
        for m in maps:
            free = GradedPoly.linear(m, nv, trunc)
            terms = (GradedPoly.variable(v, nv, trunc) * a for v, a in m.items())
            assert free == sum(terms, GradedPoly.zero(nv, trunc)), m
            assert ideal.linear(m) == ideal.element(free), m
        for bad in ({nv: 1}, {-1: 1}):
            with pytest.raises(ValueError):
                GradedPoly.linear(bad, nv, trunc)
            with pytest.raises(KeyError):
                ideal.linear(bad)


def test_structure_constants_are_integral_commutative_and_associative(setups):
    rng = random.Random(3)
    for ideal in [s.ideal for s in setups.values()] + braid_a4_ideals():
        basis = [monomial_element(ideal, m) for m in ideal.basis]
        for x in basis:
            for y in basis:
                assert x * y == y * x
        # every pair of basis monomials has been multiplied, so every row is filled
        for row in ideal._table:
            for entry in row.values():
                assert all(type(c) is int for _, c in entry)
        # triples of positive degree whose product can reach the top degree
        positive = list(zip(ideal.basis, basis))[1:]
        triples = [
            t
            for t in (rng.choices(positive, k=3) for _ in range(2000))
            if sum(map(sum, (m for m, _ in t))) <= ideal.trunc
        ][:200]
        assert triples or ideal.trunc < 3
        for (_, x), (_, y), (_, z) in triples:
            assert (x * y) * z == x * (y * z)


def test_elements_are_kept_in_lowest_terms(setups):
    for name, setup in setups.items():
        cl = setup.quotient
        for x in (cl.todd, *cl.dual_ch, setup.ch_todd(0), setup.twist(1)):
            assert x.den > 0 and gcd(x.den, *x.num) == 1, name
            assert x * Fraction(2, 3) * Fraction(3, 2) == x, name
            assert (x + x) * Fraction(1, 2) == x, name
            assert x - x == x * 0 == setup.ideal.constant(0), name


def test_non_integral_structure_constant_raises_structure_error():
    # a fresh ideal, whose table is still empty; halve the memoized form of x^2
    ideal = ideal_generators(prepare(resolve_fixture("example-b1")).building)
    x = ideal.basis[1]
    square = tuple((v, 2 * e) for v, e in enumerate(x) if e)
    ideal._forms[square] = ((len(ideal.basis) - 1, Fraction(1, 2)),)
    with pytest.raises(StructureError):
        monomial_element(ideal, x) * monomial_element(ideal, x)


def pairing_matrix(ideal, j):
    """The Poincare pairing matrix M_j, read from covectors: row a is the
    covector of the a-th basis element of degree j on degree n-1-j."""
    starts, top, size = ideal._starts, ideal.trunc, len(ideal.basis)
    rows = []
    for a in range(starts[j], starts[j + 1]):
        unit = ring.QuotientElement(ideal, [int(i == a) for i in range(size)])
        rows.append(ideal.covector(unit)[starts[top - j] : starts[top - j + 1]])
    return rows


def assert_poincare_duality(ideal):
    ranks, top = ideal.quotient_ranks, ideal.trunc
    nv = ideal.building.size
    starts = [sum(ranks[:j]) for j in range(top + 1)]
    for j in range(top + 1):
        matrix = pairing_matrix(ideal, j)
        assert len(matrix) == ranks[j] == ranks[top - j]
        assert all(len(row) == ranks[top - j] for row in matrix)
        assert [list(col) for col in zip(*matrix)] == pairing_matrix(ideal, top - j)
        span = EchelonBasis()
        for row in matrix:
            span.insert({b: Fraction(c) for b, c in enumerate(row) if c})
        assert span.rank == ranks[j]
        # each entry is the point-class value of the free product of its monomials
        for a, row in enumerate(matrix, starts[j]):
            x = GradedPoly(nv, top, {ideal.basis[a]: 1})
            for b, value in enumerate(row, starts[top - j]):
                assert value == reduce_top(x * GradedPoly(nv, top, {ideal.basis[b]: 1}), ideal)


def test_pairing_matrices_are_poincare_dual(setups):
    for ideal in [s.ideal for s in setups.values()] + braid_a4_ideals():
        assert_poincare_duality(ideal)


def bareiss_det(matrix):
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss): every division is exact, so every entry stays an integer."""
    a = [list(row) for row in matrix]
    size, sign, prev = len(a), 1, 1
    for k in range(size - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def test_bareiss_det_known_values():
    assert bareiss_det([]) == 1
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 3, 1], [4, 1, -3], [0, 5, 2]]) == 30
    # a zero pivot is swapped away, which flips the sign
    assert bareiss_det([[0, 2, 1], [1, 0, 3], [2, 1, 0]]) == 13
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_pairing_is_unimodular(setups):
    # integral Poincare duality: the resolution's cohomology is the FY ring
    # over Z, so each degree-j block of the pairing has determinant +-1
    cases = [(name, s.ideal) for name, s in setups.items()]
    cases += [(name + " maximal", prepare(resolve_fixture(name), "maximal").ideal) for name in setups]
    for n in (3, 4):
        arr, _ = braid(n)
        cases += [(f"braid A{n}", prepare(arr).ideal), (f"braid A{n} maximal", prepare(arr, "maximal").ideal)]
    for name, ideal in cases:
        for j in range(ideal.trunc + 1):
            assert bareiss_det(pairing_matrix(ideal, j)) in (1, -1), (name, j)


def test_corrupted_quotient_class_fails_the_cross_route_check(setups):
    setup = setups["example-b1"]
    result = spectrum_from_setup(setup)
    assert all(c.passed for c in run_checks(setup, result))
    cl = setup.quotient
    extra = GradedPoly(setup.building.size, setup.n - 1, {standard(setup.ideal, 1)[0]: 1})
    dual_ch = (cl.dual_ch[0], cl.dual_ch[1] + setup.ideal.element(extra), *cl.dual_ch[2:])
    broken = dataclasses.replace(setup, quotient=dataclasses.replace(cl, dual_ch=dual_ch))
    (cross,) = [c for c in run_checks(broken, result) if c.name == "chern character cross-route"]
    assert not cross.passed
    assert cross.detail.endswith("; mismatch at p=1")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_spectrum_does_not_depend_on_the_building_set(data):
    arr, lattice = draw_lattice(data, 5)
    count = len(arr.hyperplanes)
    mults = data.draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    weighted = Arrangement.from_normals(arr.n, [h.normal for h in arr.hyperplanes], mults)
    custom = draw_custom_closures(data, lattice)
    expected = spectrum(weighted, "maximal").as_pairs()
    assert spectrum(weighted).as_pairs() == spectrum(weighted, custom).as_pairs() == expected


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


def test_free_ring_products_are_never_formed_on_the_spectrum_path(monkeypatch, capsys):
    calls, crossings = [], []

    def count(owner, name, log):
        original = getattr(owner, name)

        def counted(*args):
            log.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for name in ("__mul__", "__rmul__"):
        count(GradedPoly, name, calls)
    count(ring.IdealPresentation, "element", crossings)
    count(ring.QuotientElement, "poly", crossings)
    spectrum(resolve_fixture("example-b1"))
    setup = prepare(resolve_fixture("generic3d:5"))
    for k in range(1, setup.degree + 1):
        for p in range(setup.n - (k == setup.degree)):
            multiplicity(setup, k, p)
    assert calls == []
    # the CLI, self-check included, never crosses between the free ring and the quotient
    assert cli.main(["compute", "example-b1"]) == 0
    assert cli.main(["verify", "example-b1"]) == 0
    assert cli.main(["verify", "example-b1", "--json"]) == 0
    capsys.readouterr()
    assert crossings == []
    # the wrappers are the products the free-ring classes call, and the crossings
    assert setup.classes.todd
    assert calls
    assert setup.ideal.element(setup.classes.todd).poly()
    assert crossings == ["element", "poly"]


def braid(n):
    """Braid A_n in C^n: x_i - x_j on n + 1 points, the last coordinate set
    to 0, and the closures of its irreducible flats, the partitions with
    one non-singleton block."""
    pairs = list(combinations(range(n + 1), 2))
    normals = [tuple(int(k == i) - int(k == j) for k in range(n)) for i, j in pairs]
    blocks = [b for size in range(2, n + 2) for b in combinations(range(n + 1), size)]
    closures = [[h for h, (i, j) in enumerate(pairs) if {i, j} <= set(b)] for b in blocks]
    return Arrangement.from_normals(n, normals), closures


def keel_betti(points):
    """Betti numbers of the moduli space of stable genus-0 curves with `points`
    marked points (Keel, Trans. AMS 330, 1992), from the recursion
    P_(m+1) = (1 + q) P_m + (q/2) * sum_(j=2..m-2) C(m, j) P_(j+1) P_(m-j+1)."""
    polys = {3: [1]}
    for m in range(3, points):
        prev = polys[m]
        split = [0] * (m - 1)
        for j in range(2, m - 1):
            for a, x in enumerate(polys[j + 1]):
                for b, y in enumerate(polys[m - j + 1]):
                    split[a + b + 1] += comb(m, j) * x * y
        # (1 + q) P_m, plus half the split sum
        polys[m + 1] = [a + b + s // 2 for a, b, s in zip(prev + [0], [0] + prev, split)]
    return polys[points]


def test_braid_a4_quotient_ranks():
    arr, closures = braid(4)
    lattice = build_lattice(arr)
    assert ideal_generators(maximal_building(lattice)).quotient_ranks == [1, 41, 41, 1]
    irreducible = building_from_closures(lattice, closures)
    assert ideal_generators(irreducible).quotient_ranks == [1, 16, 16, 1]


# quotient ranks of the fixtures with the maximal building set
FIXTURE_RANKS = {
    "example-a": [1, 1],
    "example-a-weighted": [1, 1],
    "example-b1": [1, 7, 1],
    "example-b2": [1, 7, 1],
    "generic3d:4": [1, 7, 1],
    "generic3d:5": [1, 11, 1],
    "generic3d:6": [1, 16, 1],
}


def fresh_ideals():
    """(name, ideal, quotient ranks) for the fixtures and braid A4 with both
    building sets, each ideal built here so that no other test has read it."""
    cases = [
        (name, prepare(resolve_fixture(name), "maximal").ideal, ranks)
        for name, ranks in FIXTURE_RANKS.items()
    ]
    maximal, minimal = braid_a4_ideals()
    return cases + [
        ("braid A4", maximal, [1, 41, 41, 1]),
        ("braid A4 minimal", minimal, [1, 16, 16, 1]),
    ]


def test_dense_basis_is_built_on_first_access_in_the_dense_order():
    for name, ideal, ranks in fresh_ideals():
        assert "basis" not in vars(ideal), name
        basis = ideal.basis
        assert all(len(m) == ideal.building.size for m in basis), name
        assert basis == sorted(set(basis), key=lambda m: (sum(m), [-e for e in m])), name
        # the sparse keys name the same monomials at the same indices
        sparse = [tuple((v, e) for v, e in enumerate(m) if e) for m in basis]
        assert [ideal.index[m] for m in sparse] == list(range(len(basis))), name
        by_degree = [sum(sum(m) == j for m in basis) for j in range(ideal.trunc + 1)]
        assert ideal.quotient_ranks == by_degree == ranks, name


def test_the_spectrum_path_leaves_the_dense_basis_unbuilt():
    arr, closures = braid(4)
    inputs = [(f"{name} {b or 'default'}", resolve_fixture(name), b) for name in FIXTURE_RANKS for b in (None, "maximal")]
    inputs += [("braid A4", arr, "maximal"), ("braid A4 minimal", arr, closures)]
    for name, arrangement, building in inputs:
        setup = prepare(arrangement, building)
        spectrum_from_setup(setup)
        assert "basis" not in vars(setup.ideal), name


def test_the_table_is_filled_lazily_and_only_for_nested_pairs(setups):
    arr4, closures4 = braid(4)
    arr5, closures5 = braid(5)
    inputs = [(f"{name} {b or 'default'}", resolve_fixture(name), b) for name in setups for b in (None, "maximal")]
    inputs += [
        ("braid A4", arr4, "maximal"),
        ("braid A4 minimal", arr4, closures4),
        ("braid A5 minimal", arr5, closures5),
    ]
    for name, arrangement, building in inputs:
        setup = prepare(arrangement, building)
        fresh = ideal_generators(setup.building)
        assert not fresh._partners and all(row is None for row in fresh._table), name
        spectrum_from_setup(setup)
        ideal = setup.ideal
        masks, degrees, nested = ideal._masks, ideal._degrees, ideal._nested
        # each partner row is the brute-force list of nested-compatible indices, ascending
        for support, partners in ideal._partners.items():
            assert partners == [j for j in range(len(masks)) if support | masks[j] in nested], name
        filled = [(i, row) for i, row in enumerate(ideal._table) if row is not None]
        assert filled, name
        for i, row in filled:
            assert all(masks[i] | masks[j] in nested for j in row), (name, i)
            # the nonzero products within the degree bound, each entry as computed directly
            within = [j for j in ideal._partners[masks[i]] if degrees[i] + degrees[j] <= ideal.trunc]
            assert list(row) == [j for j in within if ideal._constants(i, j)], (name, i)
            assert all(entry == ideal._constants(i, j) for j, entry in row.items()), (name, i)


def test_sparse_kernel_routes_equal_the_dense_products(setups):
    # the quotient's power sums and twists take their powers from the sparse
    # linear-form kernel; the references multiply whole elements
    arr, closures = braid(4)
    for setup in [*setups.values(), prepare(arr), prepare(arr, closures)]:
        bs, ideal = setup.building, setup.ideal
        zero = ideal.constant(0)
        for roots in (chern._dual_log_roots, chern._unit_roots):
            dense = chern._power_sums(roots(bs, ideal.linear), ideal.trunc, zero)
            [sums] = ideal.power_sums([((m,), coeffs) for m, coeffs in roots(bs, dict)], 1)
            assert sums == dense
        for k in range(1, setup.degree + 1):
            x = ideal.linear(dict(enumerate(setup.twist_key(k))))
            assert setup.twist(k) == fraction_exp(x) == x.exp(), k


def assert_merged_power_sums(bs):
    """The quotient's dual log and tangent power sums, from the one merged
    root table, equal the products over the unmerged roots, whose hyperplane
    roots are all kept."""
    ideal = ideal_generators(bs)
    cl, zero = char_classes(bs, ideal), ideal.constant(0)
    for sums, roots in ((cl.dual_log, chern._dual_log_roots), (cl.tangent, chern.tangent_roots)):
        assert list(sums) == chern._power_sums(roots(bs, ideal.linear), ideal.trunc, zero), bs


def test_merged_power_sums_equal_the_unmerged_roots(setups):
    buildings = []
    for setup in setups.values():
        buildings += [setup.building, maximal_building(setup.lattice)]
    for n in (3, 4, 5):
        arr, closures = braid(n)
        lattice = build_lattice(arr)
        buildings += [maximal_building(lattice), building_from_closures(lattice, closures)]
    for bs in buildings:
        assert_merged_power_sums(bs)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_merged_power_sums_on_random_building_sets(data):
    _, lattice = draw_lattice(data, 6)
    assert_merged_power_sums(building_from_closures(lattice, draw_custom_closures(data, lattice)))


def root_classes(bs, ideal):
    """The number of distinct nonzero classes among the unmerged dual log and
    tangent roots that have a nonzero multiplicity in either bundle."""
    mults = {}
    for j, roots in enumerate((chern._dual_log_roots, chern.tangent_roots)):
        for m, x in roots(bs, ideal.linear):
            if x:
                mults.setdefault(tuple(x.num), [0, 0])[j] += m
    return sum(1 for m in mults.values() if any(m))


def test_kernel_passes_do_not_grow_with_the_hyperplanes(monkeypatch):
    calls = []
    kernel = ring.IdealPresentation._powers

    def counted(self, coeffs):
        calls.append(coeffs)
        return kernel(self, coeffs)

    def passes(setup):
        calls.clear()
        monkeypatch.setattr(ring.IdealPresentation, "_powers", counted)
        char_classes(setup.building, setup.ideal)
        monkeypatch.undo()
        return len(calls)

    # in C^2 every hyperplane's roots vanish or cancel: only -c_0 is left
    lines = [prepare(resolve_fixture(f"lines:{d}")) for d in (6, 24, 96)]
    assert [passes(s) for s in lines] == [1, 1, 1]
    assert all(root_classes(s.building, s.ideal) == 1 for s in lines)
    for m in (4, 5, 7):
        arr = resolve_fixture(f"generic3d:{m}")
        for building in (None, "maximal"):
            setup = prepare(arr, building)
            assert passes(setup) == root_classes(setup.building, setup.ideal), (m, building)
        # maximal: -c_0, each double line's weak root and c_v, each plane's strict root
        assert passes(setup) == 1 + 2 * comb(m, 2) + m, m


def test_irreducible_braid_ranks_are_keel_betti_numbers():
    # the wonderful model of braid A_n on its irreducible flats is the moduli
    # space of n + 2 marked points; its nested sets are not chains
    assert keel_betti(6) == [1, 16, 16, 1]
    assert keel_betti(7) == [1, 42, 127, 42, 1]
    assert keel_betti(8) == [1, 99, 715, 715, 99, 1]
    for n in (3, 4, 5, 6):
        arr, closures = braid(n)
        irreducible = building_from_closures(build_lattice(arr), closures)
        assert not irreducible.is_maximal
        assert ideal_generators(irreducible).quotient_ranks == keel_betti(n + 2)


def assert_hyperplane_relations(ideal, rng):
    """Each hyperplane variable is minus the sum of the variables below it,
    through `linear` and through the reference route `element`, and its
    products with random nested monomials agree with the quotient product;
    the ideal keeps no nested set that holds a hyperplane."""
    bs, trunc = ideal.building, ideal.trunc
    nv = bs.size
    hyperplanes = [v for v in range(1, nv) if bs.codims[v] == 1]
    assert hyperplanes == list(range(hyperplanes[0], nv)), bs
    assert not any(support >> hyperplanes[0] for support in ideal._nested), bs
    # supports of degree below the top, so that x_v * m stays within the truncation
    nested = enumerate_nested(bs, trunc - 1)
    for v in hyperplanes:
        x = GradedPoly.variable(v, nv, trunc)
        image = ideal.linear({v: 1})
        assert image == -ideal.linear(dict.fromkeys(bs.below[v], 1)) == ideal.element(x), (bs, v)
        for support in rng.sample(nested, min(6, len(nested))):
            # the support's variables, then random ones of it or 0 up to a random degree
            extra = rng.randint(0, trunc - 1 - len(support))
            factors = [*support, *rng.choices((0, *support), k=extra)]
            m = tuple(factors.count(u) for u in range(nv))
            mono = GradedPoly(nv, trunc, {m: 1})
            assert ideal.element(x * mono) == image * ideal.element(mono), (bs, v, m)


def test_hyperplane_relation_route_agrees_with_the_quotient(setups):
    rng = random.Random(23)
    buildings = []
    for setup in setups.values():
        buildings += [setup.building, maximal_building(setup.lattice)]
    for n in (3, 4, 5):
        arr, closures = braid(n)
        lattice = build_lattice(arr)
        buildings += [maximal_building(lattice), building_from_closures(lattice, closures)]
    for bs in buildings:
        assert_hyperplane_relations(ideal_generators(bs), rng)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_hyperplane_relation_route_on_random_building_sets(data):
    n = data.draw(st.sampled_from([3, 4]))
    normals = st.lists(st.sampled_from(TERNARY[n]), min_size=2, max_size=6, unique=True)
    lattice = build_lattice(Arrangement.from_normals(n, data.draw(normals)))
    proper = [f.closure for f in lattice.flats if f.codim > 1]
    chosen = data.draw(st.lists(st.sampled_from(proper), unique=True)) if proper else []
    bs = building_from_closures(lattice, building_closure(lattice, chosen))
    assert_hyperplane_relations(ideal_generators(bs), random.Random(data.draw(st.integers(0, 99))))


def test_hyperplane_images_are_computed_on_first_read():
    # no root and no twist names a hyperplane variable, so the spectrum
    # leaves their images unbuilt; `linear` builds one when asked
    names = ["lines:9", "example-b1", "generic3d:5"]
    cases = [(resolve_fixture(name), building) for name in names for building in (None, "maximal")]
    for arr, building in cases + [braid(4)]:
        setup = prepare(arr, building)
        spectrum_from_setup(setup)
        ideal, bs = setup.ideal, setup.building
        first = ideal._first_hyperplane
        assert first < bs.size and not any(v >= first for v in ideal._images), (arr, building)
        for v in range(first, bs.size):
            below = [ideal.linear({u: 1}) for u in sorted(bs.below[v])]
            assert ideal.linear({v: 1}) == -sum(below, ideal.constant(0)), (arr, v)
            assert v in ideal._images
        for bad in ({bs.size: 1}, {-1: 1}, {"c0": 1}, {0.5: 1}):
            with pytest.raises(KeyError):
                ideal.linear(bad)
    # a stored empty image is an image, not a missing one
    ideal = prepare(resolve_fixture("lines:3")).ideal
    ideal._images[ideal._first_hyperplane] = ()
    assert ideal.linear({ideal._first_hyperplane: 1}) == ideal.constant(0)


def test_boundary_points_are_the_point_class():
    # n - 1 nested divisors meet transversally in one point, and c_0^(n-1) is
    # (-1)^(n-1) times the point class; on braid A_n's irreducible flats the
    # nested sets of n - 1 elements are the trivalent trees with n + 2
    # leaves, (2n - 1)!! of them
    for n, count in ((3, 15), (4, 105), (5, 945)):
        arr, closures = braid(n)
        bs = building_from_closures(build_lattice(arr), closures)
        ideal = ideal_generators(bs)
        point = reduce(mul, [ideal.linear({0: 1})] * (n - 1)) * (-1) ** (n - 1)
        assert point.pair(ideal.constant(1)) == 1
        full = [s for s in enumerate_nested(bs, n - 1) if len(s) == n - 1]
        assert len(full) == count
        for s in full:
            assert reduce(mul, (ideal.linear({v: 1}) for v in s)) == point, sorted(s)


def riemann_roch_setups(setups):
    """(name, setup) for the fixtures, lines:6, braid A3 and A4 with both
    building sets, and 7 moment-curve hyperplanes in C^4."""
    cases = list(setups.items()) + [("lines:6", prepare(resolve_fixture("lines:6")))]
    for n in (3, 4):
        arr, closures = braid(n)
        cases += [(f"braid A{n}", prepare(arr)), (f"braid A{n} minimal", prepare(arr, closures))]
    moment = Arrangement.from_normals(4, [(1, t, t * t, t**3) for t in range(7)])
    return cases + [("moment curve 7 in C^4", prepare(moment))]


def lambda_powers(ch, n):
    """lambda^0 .. lambda^(n-1) of a Chern character, by the Newton identity
    lambda^p = (1/p) * sum_j (-1)^(j-1) * psi^j(ch) * lambda^(p-j)."""
    zero = ch * 0
    out = [zero + 1]
    for p in range(1, n):
        terms = (ch.adams(j) * out[p - j] * (-1) ** (j - 1) for j in range(1, p + 1))
        out.append(sum(terms, zero) * Fraction(1, p))
    return out


def test_riemann_roch_on_the_resolution(setups):
    # the resolution Y is smooth, projective and rational with h^(p,q) = 0 for
    # p != q: chi(O_Y) = 1, chi_top(Y) is the sum of the quotient ranks, and
    # chi(Omega^p) = (-1)^p * quotient_ranks[p]
    for name, setup in riemann_roch_setups(setups):
        ideal, cl, n = setup.ideal, setup.quotient, setup.n
        ranks, one = ideal.quotient_ranks, ideal.constant(1)
        assert one.pair(cl.todd) == 1, name
        assert one.pair(cl.total.graded_parts()[n - 1]) == sum(ranks), name
        # Omega^1 has the tangent roots negated
        parts = (x * Fraction(1, factorial(k)) for k, x in enumerate(cl.tangent) if k)
        ch_tangent = sum(parts, one * (n - 1))
        for p, form in enumerate(lambda_powers(ch_tangent.adams(-1), n)):
            assert form.pair(cl.todd) == (-1) ** p * ranks[p], (name, p)


def random_element(rng, ideal, den):
    """An element with random small numerators over the basis and denominator `den`."""
    num = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in ideal.basis]
    return ring.QuotientElement(ideal, num, den)


def bilinear_pairing(x, y):
    """x . M . y, summed block by block over the degrees j, in Fractions."""
    ideal = x.ring
    starts, top = ideal._starts, ideal.trunc
    total = Fraction(0)
    for j in range(top + 1):
        for a, row in enumerate(pairing_matrix(ideal, j), starts[j]):
            for b, m in enumerate(row, starts[top - j]):
                total += Fraction(x.num[a], x.den) * m * Fraction(y.num[b], y.den)
    return total


def test_covector_dot_is_the_bilinear_pairing(setups):
    rng = random.Random(13)
    for ideal in [s.ideal for s in setups.values()] + braid_a4_ideals():
        for _ in range(10):
            x, y = random_element(rng, ideal, rng.randint(1, 6)), random_element(rng, ideal, 1)
            u = ideal.covector(x)
            assert len(u) == len(ideal.basis) and all(type(c) is int for c in u)
            want = bilinear_pairing(x, y)
            assert Fraction(sum(a * b for a, b in zip(u, y.num)), x.den * y.den) == want
            assert x.pair(y) == want == y.pair(x)


def fraction_exp(x):
    """The sum of x^j / j! over j <= n - 1, stepped with `__mul__` and Fractions."""
    out = power = x.ring.constant(1)
    for j in range(1, x.ring.trunc + 1):
        power = power * x * Fraction(1, j)
        out = out + power
    return out


def test_integer_exp_matches_the_fraction_series(setups):
    rng = random.Random(17)
    for setup in setups.values():
        ideal, top = setup.ideal, setup.n - 1
        # the Todd class's root sum: its denominator is above one from C^3 on
        roots = chern._root_sum(series_log(q_series(top)), setup.quotient.tangent)
        assert roots.den > 1 or top == 1
        cases = [roots, ideal.linear(dict(enumerate(setup.twist_key(1))))]
        for _ in range(5):
            x = random_element(rng, ideal, rng.randint(1, 12))
            cases.append(x - x.num[0] * Fraction(1, x.den))
        # powers that vanish early: x^2 = 0 when x has no part below degree n/2
        high = [i >= ideal._starts[(top + 2) // 2] for i in range(len(ideal.basis))]
        for _ in range(3):
            x = random_element(rng, ideal, rng.randint(1, 5))
            x = ring.QuotientElement(ideal, [c if h else 0 for c, h in zip(x.num, high)], x.den)
            assert not x * x
            assert x.exp() == x + 1
            cases.append(x)
        for x in cases:
            assert x.exp() == fraction_exp(x)
        assert roots.exp() == setup.quotient.todd


def test_ints_and_fractions_act_from_either_side(setups):
    # chern.py runs one body on GradedPoly and QuotientElement, so both
    # must take a plain number on the left
    half = Fraction(1, 2)
    for setup in setups.values():
        poly = setup.classes.todd
        x = setup.ideal.element(poly)
        assert 2 * x == x * 2 == x + x
        assert 1 + x == x + 1
        assert 1 - x == -x + 1 == -(x - 1)
        assert half * x == x * half
        assert setup.ideal.element(2 * poly) == 2 * x
        assert setup.ideal.element(1 + poly) == 1 + x
        assert setup.ideal.element(1 - poly) == 1 - x
        assert setup.ideal.element(half * poly) == half * x
