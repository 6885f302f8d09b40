from __future__ import annotations

import importlib
from fractions import Fraction
from itertools import product
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrspec import (
    Arrangement,
    GradedPoly,
    Hyperplane,
    IdealPresentation,
    SpectrumSetup,
    StructureError,
    ValidationError,
    a_coeff,
    beta,
    build_lattice,
    building_from_closures,
    char_classes,
    euler_projective_complement,
    ideal_generators,
    maximal_building,
    minimal_building,
    multiplicity,
    plane_curve_oracle,
    prepare,
    r_alpha,
    reduce_top,
    s_value,
    spectrum,
    spectrum_from_setup,
)
from arrspec.docio import load_input
from arrspec.fixtures import fixture_names, resolve_fixture
from arrspec.linalg import EchelonBasis
from arrspec.spectrum import choose_building
from test_arrangement import signed_pairs, unit_vectors
from test_quotient import braid, draw_custom_closures, draw_lattice, fraction_exp
from test_ring import TERNARY

GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"


def pairs(result):
    return [(pt.alpha, pt.mult) for pt in result.points]


def test_beta_residues():
    arr = resolve_fixture("example-a")
    assert beta(arr, 1).residues == (Fraction(2, 3),) * 3
    assert beta(arr, 2).residues == (Fraction(1, 3),) * 3
    assert beta(arr, 3).residues == (Fraction(0),) * 3
    weighted = resolve_fixture("example-a-weighted")
    assert beta(weighted, 1).residues == (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4))
    for k in (0, 4, 1.5, 1.0, Fraction(1), True):
        with pytest.raises(ValueError):
            beta(arr, k)


def test_s_value_sums_over_containing_hyperplanes(setups):
    setup = setups["example-b1"]
    bs = setup.building
    eig = beta(setup.arrangement, 1)
    # every residue is 3/4; lines lie on two planes, planes on one
    for v in range(1, bs.size):
        expected = Fraction(3, 4) * len(bs.closures[v])
        assert s_value(bs, v, eig) == expected
    assert s_value(bs, 0, eig) == 3


def test_a_coefficients_three_lines(setups):
    setup = setups["example-a"]
    bs = setup.building
    # hyperplane elements never twist; hand values at the formal element
    for k, expected0 in ((1, 0), (2, 1), (3, 2)):
        eig = beta(setup.arrangement, k)
        assert a_coeff(bs, 0, eig) == expected0
        for v in range(1, bs.size):
            assert a_coeff(bs, v, eig) == 0


def test_r_classes_three_lines(setups):
    setup = setups["example-a"]
    cl = setup.classes
    nv = setup.building.size
    c0 = GradedPoly.variable(0, nv, 1)
    one = GradedPoly.constant(1, nv, 1)
    expected = {
        (1, 0): one + c0,
        (2, 0): one + 2 * c0,
        (3, 0): one + 3 * c0,
        (1, 1): one,
        (2, 1): one + c0,
    }
    for (k, p), want in expected.items():
        got = r_alpha(cl, beta(setup.arrangement, k), p)
        assert not setup.ideal.element(got - want)


def test_r_classes_quartic(setups):
    setup = setups["example-b1"]
    cl, ideal = setup.classes, setup.ideal
    nv = setup.building.size
    c0 = GradedPoly.variable(0, nv, 2)
    one = GradedPoly.constant(1, nv, 2)
    # the first candidate exponent carries no twist at all
    got = r_alpha(cl, beta(setup.arrangement, 1), 0)
    assert not ideal.element(got - cl.dual_ch[2])
    # the last one reduces to the trivial class
    got = r_alpha(cl, beta(setup.arrangement, 1), 2)
    assert not ideal.element(got - one)
    # k = 2, p = 0: hand value 2c0^2 + 2c0 + 1
    got = r_alpha(cl, beta(setup.arrangement, 2), 0)
    assert not ideal.element(got - (2 * c0**2 + 2 * c0 + one))


def test_multiplicity_rejects_excluded_corner(setups):
    setup = setups["example-a"]
    with pytest.raises(ValueError):
        multiplicity(setup, setup.degree, setup.n - 1)


def test_multiplicity_rejects_p_out_of_range(setups):
    setup = setups["example-b1"]
    for p in (-1, setup.n):
        with pytest.raises(ValueError):
            multiplicity(setup, 1, p)


def test_range_checks_hold_after_the_caches_fill():
    # the per-k twist cache must not let an out-of-range k through
    setup = prepare(resolve_fixture("example-b1"))
    spectrum_from_setup(setup)
    n, d = setup.n, setup.degree
    for p in range(n):
        for k in (0, d + 1):
            with pytest.raises(ValueError):
                multiplicity(setup, k, p)
    with pytest.raises(ValueError):
        multiplicity(setup, d, n - 1)
    # only ints index the cells: no float, Fraction or bool
    for k in (1.5, 1.0, Fraction(1), True):
        with pytest.raises(ValueError):
            multiplicity(setup, k, 0)
        with pytest.raises(ValueError):
            setup.twist_key(k)
    for p in (0.5, 1.0, False):
        with pytest.raises(ValueError):
            multiplicity(setup, 1, p)


def test_cells_check_p_before_any_twist_and_skip_the_lifted_zeros():
    # example-b1's planes in C^4: rank 3, so every cell with p = 0 is zero
    arr = resolve_fixture("example-b1")
    lifted = Arrangement.from_normals(4, [h.normal + (0,) for h in arr.hyperplanes])
    setup = prepare(lifted)
    assert setup.lift == 1
    for p in (-1, 4):
        with pytest.raises(ValueError):
            multiplicity(setup, 1, p)
    assert [multiplicity(setup, k, 0) for k in range(1, 5)] == [0] * 4
    assert not setup._twists and not setup._covectors


def test_multiplicity_matches_free_ring_reference(setups):
    # the whole integrand in the free ring, reduced at the very end
    for name, setup in setups.items():
        n, d = setup.n, setup.degree
        for k in range(1, d + 1):
            eig = beta(setup.arrangement, k)
            for p in range(n):
                if k == d and p == n - 1:
                    continue
                integrand = r_alpha(setup.classes, eig, p) * setup.classes.todd
                want = reduce_top(integrand, setup.ideal) * (-1) ** (n - 1 - p)
                assert multiplicity(setup, k, p) == want, (name, k, p)


def test_three_lines_spectrum(results):
    assert pairs(results["example-a"]) == [
        (Fraction(2, 3), 1),
        (Fraction(1), 2),
        (Fraction(4, 3), 1),
    ]


def test_weighted_three_lines_spectrum(results):
    # double one line: degree 4, exponents shift accordingly
    assert pairs(results["example-a-weighted"]) == [
        (Fraction(1, 2), 1),
        (Fraction(3, 4), 1),
        (Fraction(1), 2),
        (Fraction(5, 4), 1),
    ]


def test_quartic_spectrum(results):
    expected = [
        (Fraction(3, 4), 1),
        (Fraction(1), 3),
        (Fraction(3, 2), 1),
        (Fraction(2), -3),
        (Fraction(9, 4), 1),
    ]
    assert pairs(results["example-b1"]) == expected
    assert pairs(results["example-b2"]) == expected


def test_quartic_pair_identical(results):
    assert results["example-b1"] == results["example-b2"]


def test_generic_four_planes_match_quartic(results):
    # four planes in general position are combinatorially the same quartic
    assert pairs(results["generic3d:4"]) == pairs(results["example-b1"])


def test_spectrum_points_sorted_with_provenance(results):
    for result in results.values():
        alphas = [pt.alpha for pt in result.points]
        assert alphas == sorted(alphas)
        for pt in result.points:
            assert pt.alpha == Fraction(pt.k, result.degree) + pt.p
            assert 0 < pt.alpha < 3
            assert pt.mult != 0


def test_single_line_spectrum_is_empty():
    result = spectrum(resolve_fixture("lines:1"))
    assert result.points == ()
    assert result.warnings == ()


@pytest.mark.parametrize(
    "name",
    ["example-a", "example-a-weighted", "example-b1", "example-b2", "lines:5", "generic3d:5"],
)
def test_lift_identity(name):
    # the same forms in one more variable: a non-essential arrangement whose
    # spectrum is the original one shifted by 1 with every sign flipped
    arr = resolve_fixture(name)
    lifted = Arrangement.from_normals(
        arr.n + 1, [h.normal + (0,) for h in arr.hyperplanes], [h.mult for h in arr.hyperplanes]
    )
    assert spectrum(lifted) == spectrum_from_setup(direct_setup(lifted))
    assert pairs(spectrum(lifted)) == [(a + 1, -m) for a, m in pairs(spectrum(arr))]


def direct_setup(arr, closures=None):
    """The setup on the input's own lattice, essential or not: its ring has
    dimension n - 1 and every cell is paired there.  The oracle for
    `prepare`, which computes a non-essential input on its essentialization."""
    lattice = build_lattice(arr)
    bs = choose_building(lattice, closures)
    ideal = ideal_generators(bs)
    return SpectrumSetup(arr, lattice, bs, ideal, char_classes(bs, ideal))


def irreducible_closures(lattice):
    """Closures of the irreducible flats, the minimal building set: a flat is
    reducible when two smaller flats partition its hyperplanes and their
    codimensions add up to its own."""
    flats, masks = lattice.flats, lattice.masks
    out = []
    for i in range(1, len(flats)):
        m, c = masks[i], flats[i].codim
        if not any(
            masks[a] | masks[b] == m and not masks[a] & masks[b]
            and flats[a].codim + flats[b].codim == c
            for a in range(1, i)
            for b in range(a + 1, i)
        ):
            out.append(list(flats[i].closure))
    return out


def closures_of(bs):
    """The closures of a building set's flats, the origin included when it
    is the formal element 0, sorted."""
    origin = [bs.lattice.flats[-1].closure] if bs.zero_flat_included else []
    return sorted(map(list, [*bs.closures[1:], *origin]))


def assert_minimal_is_the_irreducible_flats(lattice):
    bs = minimal_building(lattice)
    expected = irreducible_closures(lattice)
    assert closures_of(bs) == sorted(expected)
    # the selection passes the building-set axiom, element for element
    checked = building_from_closures(lattice, expected)
    assert (bs.masks, bs.dims, bs.below) == (checked.masks, checked.dims, checked.below)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimal_building_is_the_irreducible_flats(data):
    n = data.draw(st.sampled_from([3, 4]))
    normals = data.draw(st.lists(st.sampled_from(TERNARY[n]), min_size=1, max_size=7, unique=True))
    assert_minimal_is_the_irreducible_flats(build_lattice(Arrangement.from_normals(n, normals)))


def test_minimal_building_of_braid_is_the_one_block_partitions():
    # the irreducible flats of braid A_n are the partitions of n + 1 points
    # with one non-singleton block: 2^(n+1) - n - 2 of them
    counts = []
    for n in (3, 4, 5, 6):
        arr, closures = braid(n)
        lattice = build_lattice(arr)
        found = closures_of(minimal_building(lattice))
        assert found == sorted(closures) and len(found) == 2 ** (n + 1) - n - 2
        counts.append(len(found))
        if n < 6:
            assert_minimal_is_the_irreducible_flats(lattice)
    assert counts == [11, 26, 57, 120]


@pytest.mark.parametrize("name", ["B4", "D4"])
def test_minimal_building_of_b4_and_d4_is_the_irreducible_flats(name):
    normals = signed_pairs(4) + (unit_vectors(4) if name == "B4" else [])
    assert_minimal_is_the_irreducible_flats(build_lattice(Arrangement.from_normals(4, normals)))


# decomposable inputs, whose origin is the direct sum of smaller flats
DECOMPOSABLE = {
    "two lines in C^2": Arrangement.from_normals(2, [(1, 0), (0, 1)]),
    "coordinate planes in C^3": Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "a triple line and a plane": Arrangement.from_normals(
        3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], [1, 2, 1, 3]
    ),
}


def test_minimal_building_leaves_out_a_decomposable_origin():
    for name, arr in DECOMPOSABLE.items():
        lattice = build_lattice(arr)
        bs = minimal_building(lattice)
        assert not bs.zero_flat_included, name
        assert closures_of(bs) == sorted(irreducible_closures(lattice)), name
        assert bs.intersection_element(range(1, bs.size)) is None, name
    assert minimal_building(build_lattice(DECOMPOSABLE["two lines in C^2"])).size == 3


def test_default_spectrum_equals_the_maximal_one(setups, results):
    # the library defaults to the minimal building set
    for name, result in results.items():
        bs = setups[name].building
        assert bs.masks == minimal_building(bs.lattice).masks, name
        assert result == spectrum(resolve_fixture(name), "maximal"), name
    for name, arr in DECOMPOSABLE.items():
        assert spectrum(arr) == spectrum(arr, "maximal"), name
    for name in ("lines:2", "lines:5", "generic3d:7"):
        arr = resolve_fixture(name)
        assert spectrum(arr) == spectrum(arr, "maximal"), name


def test_choose_building_defaults_to_the_minimal_set():
    lattice = build_lattice(resolve_fixture("example-b1"))
    closures = irreducible_closures(lattice)
    assert choose_building(lattice).masks == choose_building(lattice, closures).masks
    assert not choose_building(lattice).is_maximal
    assert choose_building(lattice, "maximal").masks == maximal_building(lattice).masks
    assert choose_building(lattice, "maximal").is_maximal
    # "maximal" is the only name; any other string is read as closure sets
    with pytest.raises(ValidationError, match="hyperplane indices"):
        choose_building(lattice, "minimal")


def pivot_projection(arr):
    """The essentialization by coordinates: each normal keeps the pivot
    coordinates of the normals' echelon basis, a projection that is one to
    one on their span.  The oracle for `essentialization`, which relabels
    the input's lattice instead."""
    basis = EchelonBasis()
    for h in arr.hyperplanes:
        basis.insert({j: c for j, c in enumerate(h.normal) if c})
    pivots = sorted(basis.rows)
    return Arrangement(
        len(pivots), [Hyperplane(tuple(h.normal[j] for j in pivots), h.mult) for h in arr.hyperplanes]
    )


@st.composite
def non_essential_arrangements(draw):
    """Rank r in C^n, 2 <= r < n <= 5: normals drawn in C^r, extended by
    integer combinations of their coordinates, with the coordinates shuffled
    so that the pivots are not always the first r."""
    n = draw(st.integers(3, 5))
    r = draw(st.integers(2, n - 1))
    pool = [v for v in product((-1, 0, 1), repeat=r) if next((c for c in v if c), 0) > 0]
    core = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r + 2, unique=True))
    assume(build_lattice(Arrangement.from_normals(r, core)).is_essential)
    extend = draw(st.lists(st.lists(st.integers(-1, 1), min_size=r, max_size=r),
                           min_size=n - r, max_size=n - r))
    order = draw(st.permutations(range(n)))
    normals = []
    for v in core:
        full = v + tuple(sum(a * b for a, b in zip(row, v)) for row in extend)
        normals.append(tuple(full[j] for j in order))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(core), max_size=len(core)))
    return Arrangement.from_normals(n, normals, mults)


@settings(max_examples=50, deadline=None)
@given(non_essential_arrangements(), st.sampled_from(["minimal", "maximal", "custom"]), st.randoms())
def test_non_essential_cells_equal_the_direct_route(arr, kind, rng):
    lattice = build_lattice(arr)
    lift = arr.n - lattice.flats[-1].codim
    assert lift > 0
    closures = None if kind == "minimal" else kind
    if kind == "custom":
        # the irreducible flats plus a random choice of the others; a choice
        # that is not a building set is rejected alike by both routes
        closures = irreducible_closures(lattice)
        extra = [list(f.closure) for f in lattice.flats[1:] if list(f.closure) not in closures]
        chosen = closures + [c for c in extra if rng.random() < 0.5]
        try:
            building_from_closures(lattice, chosen)
            closures = chosen
        except ValidationError:
            with pytest.raises(ValidationError):
                prepare(arr, chosen)
    setup, direct = prepare(arr, closures), direct_setup(arr, closures)
    # the core's lattice is the input's with every flat's dimension relabelled
    core = setup.building.lattice
    assert core.is_essential and setup.lift == lift
    rebuilt = build_lattice(pivot_projection(arr))
    assert core.flats == rebuilt.flats and core.mobius == rebuilt.mobius
    assert core.masks == lattice.masks and core.mobius == lattice.mobius
    assert [(f.closure, f.codim) for f in core.flats] == [(f.closure, f.codim) for f in lattice.flats]
    n, d = arr.n, arr.degree
    for k in range(1, d + 1):
        for p in range(n - (k == d)):
            got = multiplicity(setup, k, p)
            assert got == multiplicity(direct, k, p), (k, p)
            if p < lift:
                assert got == 0, (k, p)
    assert spectrum_from_setup(setup) == spectrum_from_setup(direct)


def classical_plane_curve(d: int) -> dict[Fraction, int]:
    # independent oracle: d concurrent reduced lines have spectrum
    # {(i+j)/d : 1 <= i, j <= d-1} counted with multiplicity
    expected: dict[Fraction, int] = {}
    for i in range(1, d):
        for j in range(1, d):
            a = Fraction(i + j, d)
            expected[a] = expected.get(a, 0) + 1
    return expected


def test_plane_curve_spectra_match_classical_formula():
    for d in range(2, 9):
        got = dict(pairs(spectrum(resolve_fixture(f"lines:{d}"))))
        assert got == classical_plane_curve(d), f"d={d}"


def test_plane_curve_oracle_counts_the_pairs():
    for d in range(1, 31):
        assert plane_curve_oracle(d) == classical_plane_curve(d), f"d={d}"


def test_plane_curve_spectra_symmetric():
    for d in range(2, 9):
        got = dict(pairs(spectrum(resolve_fixture(f"lines:{d}"))))
        assert all(got.get(2 - a, 0) == m for a, m in got.items())


def test_eigenvalue_sums_give_euler_characteristic(setups, results):
    for name, setup in setups.items():
        expected = (-1) ** (setup.n - 1) * euler_projective_complement(setup.lattice)
        d = setup.degree
        sums = {k: 0 for k in range(1, d)}
        for pt in results[name].points:
            if pt.k != d:
                sums[pt.k] += pt.mult
        assert all(s == expected for s in sums.values()), name


def test_spectrum_invariant_under_relabeling():
    arr = resolve_fixture("example-b2")
    base = spectrum(arr)
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
        assert spectrum(arr.permuted(perm)) == base


def test_custom_building_set_equals_maximal_when_complete():
    arr = resolve_fixture("example-a")
    closures = [[0], [1], [2], [0, 1, 2]]
    result = spectrum(arr, building_closures=closures)
    assert pairs(result) == pairs(spectrum(arr))
    assert result.warnings == ()


def test_irreducible_building_set_gives_the_maximal_spectrum():
    # braid arrangement A3: hyperplanes, the four triple lines and the origin
    arr = Arrangement.from_normals(
        3, [(1, -1, 0), (1, 0, -1), (0, 1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    closures = [[i] for i in range(6)] + [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]
    result = spectrum(arr, building_closures=closures + [list(range(6))])
    assert pairs(result) == pairs(spectrum(arr))
    assert result.warnings == ()


def test_multiplicity_integrality_enforced(setups):
    # the assertion path: every stored multiplicity is an int
    for result_mult in [pt.mult for pt in spectrum_from_setup(setups["example-b1"]).points]:
        assert isinstance(result_mult, int)


MOMENT_POOL = [(1, t, t * t) for t in range(6)]


@st.composite
def space_arrangements(draw):
    count = draw(st.integers(min_value=3, max_value=5))
    start = draw(st.integers(min_value=0, max_value=6 - count))
    mults = draw(st.lists(st.integers(1, 2), min_size=count, max_size=count))
    return Arrangement.from_normals(3, MOMENT_POOL[start : start + count], mults)


@settings(max_examples=10, deadline=None)
@given(space_arrangements())
def test_space_arrangement_invariants(arr):
    setup = prepare(arr)
    result = spectrum_from_setup(setup)
    ranks = setup.ideal.quotient_ranks
    assert ranks[0] == ranks[-1] == 1
    assert ranks == ranks[::-1]
    expected = (-1) ** (setup.n - 1) * euler_projective_complement(setup.lattice)
    d = setup.degree
    sums = {k: 0 for k in range(1, d)}
    for pt in result.points:
        if pt.k != d:
            sums[pt.k] += pt.mult
    assert all(s == expected for s in sums.values())


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(1, 3), min_size=5, max_size=5),
)
def test_weighted_plane_arrangements_keep_euler_sums(lines, mults):
    # per-eigenvalue sums see only the reduced arrangement
    arr = resolve_fixture(f"lines:{lines}")
    arr = Arrangement(2, [type(h)(h.normal, m) for h, m in zip(arr.hyperplanes, mults)])
    result = spectrum(arr)
    d = arr.degree
    sums = {k: 0 for k in range(1, d)}
    for pt in result.points:
        assert 0 < pt.alpha < 2
        if pt.k != d:
            sums[pt.k] += pt.mult
    assert all(s == lines - 2 for s in sums.values())
    # reduced total: the classical Milnor number
    if all(h.mult == 1 for h in arr.hyperplanes):
        assert sum(pt.mult for pt in result.points) == (d - 1) ** 2


def assert_twist_keys_match_fraction_coefficients(setup):
    bs = setup.building
    for k in range(1, setup.degree + 1):
        eig = beta(setup.arrangement, k)
        want = tuple(a_coeff(bs, v, eig) for v in range(bs.size))
        assert setup.twist_key(k) == want, (setup.arrangement, k)
    for k in (0, setup.degree + 1):
        with pytest.raises(ValueError):
            setup.twist_key(k)


def test_integer_twist_key_matches_fraction_coefficients(setups):
    # weighted-c4 has flats of codimension >= 2 on several hyperplanes of
    # one multiplicity, so the keys sum counts above one
    weighted = load_input(str(GOLDEN_CLI / "weighted-c4.json")).arrangement
    cases = [*setups.values(), prepare(weighted), prepare(weighted, "maximal")]
    _, rows = cases[-1]._twisted
    assert any(c > 1 for _, _, counts in rows[1:] for c in counts)
    for setup in cases:
        assert_twist_keys_match_fraction_coefficients(setup)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_integer_twist_key_matches_fraction_coefficients_on_repeated_multiplicities(data):
    # multiplicities 1..3 on 3 to 6 lines or planes in C^3, or 3 to 5
    # hyperplanes in C^4, repeat on the flats of codimension >= 2
    arr = data.draw(weighted_arrangements(most_mult=3, min_size=3))
    for building in (None, "maximal"):
        assert_twist_keys_match_fraction_coefficients(prepare(arr, building))


def test_non_integral_multiplicity_raises_structure_error():
    # halve the cached ch * Todd covector of the exponent 2/3 (k = 2, p = 0)
    setup = prepare(resolve_fixture("example-a"))
    q = setup.n - 1
    assert multiplicity(setup, 2, 0) == 1
    u, den = setup.covector(q)
    setup._covectors[q] = (u, 2 * den)
    with pytest.raises(StructureError):
        multiplicity(setup, 2, 0)


def test_spectrum_from_setup_keeps_the_integrality_check():
    # its class rows take the same checked dot product as `multiplicity`;
    # the exponent 2/3 (k = 2, p = 0) has multiplicity 1, so halving breaks it
    setup = prepare(resolve_fixture("example-a"))
    q = setup.n - 1
    u, den = setup.covector(q)
    setup._covectors[q] = (u, 2 * den)
    with pytest.raises(StructureError):
        spectrum_from_setup(setup)


def test_spectrum_takes_one_exponential_per_twist_class(setups, monkeypatch):
    # and pairs it once with each covector, leaving out the exponent n: the
    # exponential's numerators come from the ring helper that `exp_linear`
    # wraps, and each cell is the one checked dot product
    module = importlib.import_module("arrspec.spectrum")
    calls, cells = [], []
    exp_linear, cell = IdealPresentation._exp_linear, module._cell

    def counted(ideal, coeffs):
        calls.append(coeffs)
        return exp_linear(ideal, coeffs)

    monkeypatch.setattr(IdealPresentation, "_exp_linear", counted)
    monkeypatch.setattr(module, "_cell", lambda *args: cells.append(args) or cell(*args))
    # braid-a3-c4 is computed on its essentialization, with no cells at p = 0
    stems = ("weighted-c4", "braid-a3-c4", "weighted-lines-c2")
    documents = [load_input(str(GOLDEN_CLI / f"{stem}.json")).arrangement for stem in stems]
    for arr in [s.arrangement for s in setups.values()] + documents:
        for building in (None, "maximal"):
            setup = prepare(arr, building)
            d = setup.degree
            keys = [setup.twist_key(k) for k in range(1, d + 1)]
            classes = len(set(keys))
            calls.clear()
            cells.clear()
            spectrum_from_setup(setup)
            assert len(calls) == classes, (arr, building)
            alone = keys[-1] not in keys[:-1]
            assert len(cells) == classes * (setup.n - setup.lift) - alone, (arr, building)
    # the ten weighted lines, of degree 19, share twists between eigenvalues
    assert classes < d == 19


def projective_betti(lattice):
    """Betti numbers b_0..b_(n-1) of the projectivized complement.

    The Poincare polynomial sum of mu(X) * (-t)^codim X over the flats,
    divided by 1 + t.
    """
    poly = [0] * (lattice.n + 1)
    for flat, mu in zip(lattice.flats, lattice.mobius):
        poly[flat.codim] += mu * (-1) ** flat.codim
    betti = []
    for c in poly[:-1]:
        betti.append(c - (betti[-1] if betti else 0))
    assert poly[-1] == betti[-1], "Poincare polynomial not divisible by 1 + t"
    return betti


def test_trivial_local_system_gives_signed_betti_numbers(setups):
    # at k = d every residue is 0: the cells are the Hodge-Euler numbers of
    # the trivial local system, signed Betti numbers of the complement
    extra = {name: prepare(resolve_fixture(name)) for name in ("lines:3", "lines:6")}
    for name, setup in {**setups, **extra}.items():
        if not setup.lattice.is_essential:
            continue
        n, d = setup.n, setup.degree
        betti = projective_betti(setup.lattice)
        got = [multiplicity(setup, d, p) for p in range(n - 1)]
        assert got == [(-1) ** p * betti[n - 1 - p] for p in range(n - 1)], name


def budur_saito(d, point_mults):
    """Spectrum of a reduced essential arrangement of d planes in C^3.

    Budur-Saito (Math. Ann. 347, 2010): with nu_m points of multiplicity
    m >= 3 in P^2 and c = ceil(i m / d), for i = 1..d
    n_(i/d) = C(i-1, 2) - sum nu_m C(c-1, 2),
    n_(i/d+1) = (i-1)(d-i-1) - sum nu_m (c-1)(m-c),
    n_(i/d+2) = C(d-i-1, 2) - sum nu_m C(m-c, 2); the exponent 3 is left out.
    """

    def c2(a):
        return a * (a - 1) // 2 if a >= 2 else 0

    out = {}
    for i in range(1, d + 1):
        a = Fraction(i, d)
        cs = [(m, -(-i * m // d)) for m in point_mults if m >= 3]
        out[a] = c2(i - 1) - sum(c2(c - 1) for m, c in cs)
        out[a + 1] = (i - 1) * (d - i - 1) - sum((c - 1) * (m - c) for m, c in cs)
        if i < d:
            out[a + 2] = c2(d - i - 1) - sum(c2(m - c) for m, c in cs)
    return {a: v for a, v in out.items() if v}


def generic_central(n, d):
    """Spectrum of d > n reduced hyperplanes in C^n, any n of them independent:
    n_(i/d+p) = C(i-1, n-1-p) C(d-i-1, p) for 1 <= i <= d-1 and 0 <= p <= n-1,
    and n_(p+1) = (-1)^p C(d-1, n-1-p) for p <= n-2; the exponent n is left out.
    For n = 2 it is the plane-curve formula, for n = 3 Budur-Saito with no
    points of multiplicity 3 or more."""
    out = {}
    for i in range(1, d):
        for p in range(n):
            out[Fraction(i, d) + p] = comb(i - 1, n - 1 - p) * comb(d - i - 1, p)
    for p in range(n - 1):
        out[Fraction(p + 1)] = (-1) ** p * comb(d - 1, n - 1 - p)
    return {a: m for a, m in out.items() if m}


@pytest.mark.parametrize("n, d", [(3, 5), (4, 5), (4, 6), (4, 7), (5, 6)])
def test_generic_central_arrangements_match_the_closed_form(n, d):
    # normals on the moment curve (1, t, ..., t^(n-1)): any n are a Vandermonde
    # basis; the irreducible flats are the hyperplanes and the origin
    arr = Arrangement.from_normals(n, [tuple(t**j for j in range(n)) for t in range(1, d + 1)])
    assert budur_saito(d, []) == generic_central(3, d)
    minimal = [[i] for i in range(d)] + [list(range(d))]
    assert closures_of(minimal_building(build_lattice(arr))) == sorted(minimal)
    for building in (None, "maximal"):
        got = {pt.alpha: pt.mult for pt in spectrum(arr, building).points}
        assert got == generic_central(n, d), building
    assert generic_central(2, d) == classical_plane_curve(d)


# one normal per direction: primitive, first nonzero entry positive
NORMALS_C3 = [
    v
    for v in product((-1, 0, 1, 2), repeat=3)
    if gcd(*v) == 1 and next(c for c in v if c) > 0
]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(NORMALS_C3), min_size=3, max_size=7, unique=True))
def test_reduced_planes_in_c3_match_budur_saito(normals):
    arr = Arrangement.from_normals(3, normals)
    setup = prepare(arr)
    assume(setup.lattice.is_essential)
    points = [len(f.closure) for f in setup.lattice.flats if f.codim == 2]
    got = {pt.alpha: pt.mult for pt in spectrum_from_setup(setup).points}
    assert got == budur_saito(len(normals), points)


@st.composite
def weighted_arrangements(draw, most_mult=4, min_size=1):
    n = draw(st.sampled_from([2, 3, 4]))
    pool = [v for v in product((-1, 0, 1, 2), repeat=n) if any(v) and next(c for c in v if c) > 0]
    pool = [v for v in pool if gcd(*v) == 1]
    most = 6 if n < 4 else 5
    normals = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=most, unique=True))
    mults = draw(st.lists(st.integers(1, most_mult), min_size=len(normals), max_size=len(normals)))
    return Arrangement.from_normals(n, normals, mults)


def assert_one_hyperplane_tail(setup):
    """The building set's `first_hyperplane` is where the codimension-1
    elements start, and the ideal's supports and the twist rows stop there."""
    bs = setup.building
    first = bs.first_hyperplane
    assert [v for v in range(1, bs.size) if bs.codims[v] == 1] == list(range(first, bs.size)), bs
    assert all(bs.codims[v] >= 2 for v in range(1, first)), bs
    assert not any(support >> first for support in setup.ideal._limits), bs
    assert [v for v, _, _ in setup._twisted[1]] == list(range(first)), bs


def test_the_hyperplane_tail_has_one_owner():
    named = [name for name in fixture_names() if "<" not in name]
    inputs = [(resolve_fixture(name), building) for name in named for building in (None, "maximal")]
    inputs += [(resolve_fixture(name), None) for name in ("lines:3", "lines:9", "generic3d:5")]
    for path in sorted(GOLDEN_CLI.glob("*.json")):
        doc = load_input(str(path))
        inputs += [(doc.arrangement, doc.building_closures), (doc.arrangement, "maximal")]
    for n in (3, 4, 5):
        arr, closures = braid(n)
        inputs += [(arr, closures), (arr, "maximal")]
    for arrangement, building in inputs:
        assert_one_hyperplane_tail(prepare(arrangement, building))
    # a single hyperplane's tail starts at 1, in C^2 and C^3
    for arrangement in (resolve_fixture("lines:1"), Arrangement.from_normals(3, [(1, 0, 0)])):
        setup = prepare(arrangement)
        assert setup.building.first_hyperplane == 1
        assert_one_hyperplane_tail(setup)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_the_hyperplane_tail_on_random_building_sets(data):
    arr, lattice = draw_lattice(data, 6)
    assert_one_hyperplane_tail(prepare(arr, draw_custom_closures(data, lattice)))


@settings(max_examples=25, deadline=None)
@given(weighted_arrangements())
def test_twist_key_vanishes_on_hyperplane_elements(arr):
    setup = prepare(arr)
    bs = setup.building
    hyperplanes = [v for v in range(1, bs.size) if bs.codims[v] == 1]
    assert len(hyperplanes) == arr.size
    for k in range(1, setup.degree + 1):
        key = setup.twist_key(k)
        assert all(key[v] == 0 for v in hyperplanes), k
        eig = beta(arr, k)
        assert key == tuple(a_coeff(bs, v, eig) for v in range(bs.size)), k


def test_every_cell_is_the_covector_dot_the_multiplicity_and_the_fraction_route(setups):
    # the Fraction route: the quotient product of ch * Todd with the
    # Fraction-stepped exponential, read at the point class c_0^(n-1)
    arr, closures = braid(4)
    cases = list(setups.values()) + [prepare(arr, closures)]
    for setup in cases:
        n, d, ideal = setup.n, setup.degree, setup.ideal
        cells = {(pt.k, pt.p): pt.mult for pt in spectrum_from_setup(setup).points}
        for k in range(1, d + 1):
            twist = fraction_exp(ideal.linear(dict(enumerate(setup.twist_key(k)))))
            assert twist == setup.twist(k)
            for p in range(n - (k == d)):
                q = n - 1 - p
                top = setup.ch_todd(q) * twist
                want = Fraction(top.num[-1], top.den) * (-1) ** (n - 1 + q)
                assert cells.get((k, p), 0) == multiplicity(setup, k, p) == want, (k, p)


def test_the_library_path_never_computes_mobius_values(monkeypatch):
    # only the CLI's lattice dump and the Euler check read them
    module = importlib.import_module("arrspec.spectrum")
    setups, run = [], module.spectrum_from_setup
    monkeypatch.setattr(module, "spectrum_from_setup", lambda s: setups.append(s) or run(s))
    b1 = resolve_fixture("example-b1")
    lifted = Arrangement.from_normals(4, [h.normal + (0,) for h in b1.hyperplanes])
    for arr in (b1, lifted):
        spectrum(arr)
        setup = prepare(arr)
        for k in range(1, arr.degree + 1):
            for p in range(arr.n - (k == arr.degree)):
                multiplicity(setup, k, p)
        for s in (setups[-1], setup):
            lattices = (s.lattice, s.building.lattice)
            assert (lattices[0] is lattices[1]) == (arr is b1)
            assert all("mobius" not in vars(lattice) for lattice in lattices)
    # read on demand, the values are those of the lattice
    assert setup.building.lattice.mobius == setup.lattice.mobius == build_lattice(b1).mobius
