from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrspec import (
    Arrangement,
    Hyperplane,
    ValidationError,
    build_lattice,
    euler_projective_complement,
)
from arrspec.linalg import EchelonBasis

THREE_LINES = Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)])
QUARTIC = Arrangement.from_normals(3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)])


def test_degree_sums_multiplicities():
    arr = Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)], [2, 1, 1])
    assert arr.degree == 4
    assert THREE_LINES.degree == 3


def test_rejects_small_dimension():
    with pytest.raises(ValidationError):
        Arrangement.from_normals(1, [(1,)])


def test_rejects_zero_normal():
    with pytest.raises(ValidationError):
        Arrangement.from_normals(2, [(1, 0), (0, 0)])


def test_rejects_wrong_length():
    with pytest.raises(ValidationError):
        Arrangement.from_normals(2, [(1, 0, 0)])


def test_rejects_empty():
    with pytest.raises(ValidationError):
        Arrangement(2, [])


def test_rejects_bad_multiplicity():
    with pytest.raises(ValidationError):
        Arrangement(2, [Hyperplane((Fraction(1), Fraction(0)), 0)])


def test_rejects_boolean_multiplicity():
    # bool is an int subclass; True must not pass as multiplicity 1
    with pytest.raises(ValidationError, match="multiplicity"):
        Arrangement(2, [Hyperplane((Fraction(1), Fraction(0)), True)])


def test_proportional_normals_ask_for_merge():
    with pytest.raises(ValidationError, match="merge"):
        Arrangement.from_normals(2, [(1, 0), (2, 0)])
    with pytest.raises(ValidationError, match="merge"):
        Arrangement.from_normals(3, [(1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2))])


def test_proportional_normals_report_the_first_pair():
    # two duplicated directions, the later one found first in a scan; the
    # message names the smallest i with a later proportional normal, then
    # its first such j, as a scan over all pairs (i, j) does
    normals = [(1, 0, 0), (0, 1, 1), (0, -2, -2), (Fraction(-1, 2), 0, 0), (3, 0, 0)]
    with pytest.raises(ValidationError, match=r"^hyperplanes 0 and 3 have proportional normals"):
        Arrangement.from_normals(3, normals)
    # a direction met three times: its first repeat
    with pytest.raises(ValidationError, match=r"^hyperplanes 1 and 3 have proportional normals"):
        Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 3, 3), (0, -1, -1)])


def test_three_lines_lattice():
    lat = build_lattice(THREE_LINES)
    assert [(f.closure, f.dim, f.codim) for f in lat.flats] == [
        ((), 2, 0),
        ((0,), 1, 1),
        ((1,), 1, 1),
        ((2,), 1, 1),
        ((0, 1, 2), 0, 2),
    ]
    # hand-computed Mobius values: recursion over the five flats
    assert lat.mobius == (1, -1, -1, -1, 2)
    assert lat.is_essential


def test_three_lines_euler():
    # complement of 3 points in the projective line
    assert euler_projective_complement(build_lattice(THREE_LINES)) == -1


def test_quartic_lattice_shape():
    lat = build_lattice(QUARTIC)
    assert len(lat.flats) == 12
    by_codim = {}
    for f in lat.flats:
        by_codim.setdefault(f.codim, []).append(f)
    assert len(by_codim[0]) == 1
    assert len(by_codim[1]) == 4
    assert len(by_codim[2]) == 6
    assert len(by_codim[3]) == 1
    # every line lies on exactly two planes, every plane carries three lines
    for line in by_codim[2]:
        assert len(line.closure) == 2
    planes = {f.closure[0]: 0 for f in by_codim[1]}
    for line in by_codim[2]:
        for i in line.closure:
            planes[i] += 1
    assert all(v == 3 for v in planes.values())
    # Mobius: hand recursion gives 1 on top, -1 per plane, +1 per line, -3 at the origin
    mob = {f.codim: set() for f in lat.flats}
    for f, mu in zip(lat.flats, lat.mobius):
        mob[f.codim].add(mu)
    assert mob == {0: {1}, 1: {-1}, 2: {1}, 3: {-3}}


def test_quartic_euler():
    assert euler_projective_complement(build_lattice(QUARTIC)) == 1


def test_single_hyperplane_lattice():
    lat = build_lattice(Arrangement.from_normals(3, [(1, 0, 0)]))
    assert len(lat.flats) == 2
    assert not lat.is_essential
    assert euler_projective_complement(lat) == 1


def test_closure_property():
    # the join of any two flats is again a flat
    lat = build_lattice(QUARTIC)
    for a in lat.flats:
        for b in lat.flats:
            closure, _ = lat.closure_of(set(a.closure) | set(b.closure))
            assert lat.flat_index(closure) is not None


def test_rebuild_from_rank_one_flats():
    # the codimension-1 flats determine the lattice
    for arr in (THREE_LINES, QUARTIC):
        lat = build_lattice(arr)
        normals = [arr.hyperplanes[f.closure[0]].normal for f in lat.hyperplane_flats()]
        lat2 = build_lattice(Arrangement.from_normals(arr.n, normals))
        assert [f.closure for f in lat2.flats] == [f.closure for f in lat.flats]
        assert lat2.mobius == lat.mobius


@pytest.mark.parametrize("bad", [-1, 4, 10**9])
def test_closure_of_rejects_out_of_range_indices(bad):
    lat = build_lattice(QUARTIC)
    with pytest.raises(ValueError, match="out of range"):
        lat.closure_of([0, bad])


def test_leq_is_subspace_containment():
    lat = build_lattice(QUARTIC)
    origin = next(f for f in lat.flats if f.dim == 0)
    ambient = next(f for f in lat.flats if f.codim == 0)
    for f in lat.flats:
        assert lat.leq(origin, f)
        assert lat.leq(f, ambient)


MOMENT_NORMALS = [(1, t, t * t) for t in range(6)]


@st.composite
def small_arrangements(draw):
    n = draw(st.sampled_from([2, 3]))
    if n == 2:
        pool = [(1, 0), (0, 1), (1, 1), (1, 2), (1, -1)]
    else:
        pool = MOMENT_NORMALS
    count = draw(st.integers(min_value=1, max_value=min(5, len(pool))))
    idx = draw(st.permutations(range(len(pool))))
    mults = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    return Arrangement.from_normals(n, [pool[i] for i in idx[:count]], mults)


@settings(max_examples=25, deadline=None)
@given(small_arrangements(), st.randoms(use_true_random=False))
def test_lattice_invariant_under_relabeling(arr, rng):
    perm = list(range(arr.size))
    rng.shuffle(perm)
    lat = build_lattice(arr)
    lat2 = build_lattice(arr.permuted(perm))
    # closures relabel along the permutation; sizes, dims and Mobius data agree
    relabel = {old: new for new, old in enumerate(perm)}
    remapped = {
        tuple(sorted(relabel[i] for i in f.closure)): (f.dim, mu)
        for f, mu in zip(lat.flats, lat.mobius)
    }
    got = {f.closure: (f.dim, mu) for f, mu in zip(lat2.flats, lat2.mobius)}
    assert remapped == got
    assert euler_projective_complement(lat) == euler_projective_complement(lat2)


@settings(max_examples=25, deadline=None)
@given(small_arrangements())
def test_mobius_alternating_sum_is_euler_compatible(arr):
    # the defining recursion: mu sums to zero over every proper lower interval
    lat = build_lattice(arr)
    sets = [frozenset(f.closure) for f in lat.flats]
    for i, f in enumerate(lat.flats):
        if f.codim == 0:
            continue
        total = sum(
            mu for s, mu in zip(sets, lat.mobius) if s <= sets[i]
        )
        assert total == 0


# nonzero vectors of {-1, 0, 1}^n up to sign: no two are proportional
TERNARY = {
    n: [v for v in product((-1, 0, 1), repeat=n) if any(v) and next(c for c in v if c) == 1]
    for n in (3, 4)
}


@st.composite
def ternary_arrangements(draw):
    n = draw(st.sampled_from([3, 4]))
    normals = draw(st.lists(st.sampled_from(TERNARY[n]), min_size=3, max_size=6, unique=True))
    return Arrangement.from_normals(n, normals)


def brute_closure(arr, indices):
    """Closure and rank of a set of hyperplanes from a fresh elimination."""
    vecs = [{j: c for j, c in enumerate(h.normal) if c} for h in arr.hyperplanes]
    basis = EchelonBasis()
    for i in indices:
        basis.insert(vecs[i])
    return tuple(j for j, v in enumerate(vecs) if basis.contains(v)), basis.rank


@settings(max_examples=40, deadline=None)
@given(ternary_arrangements(), st.data())
def test_lattice_matches_brute_force_closures(arr, data):
    # degenerate and non-essential inputs included; every flat is spanned by
    # at most n of its hyperplanes
    lat = build_lattice(arr)
    brute = {
        brute_closure(arr, sub)
        for r in range(arr.n + 1)
        for sub in combinations(range(arr.size), r)
    }
    assert [(f.closure, f.codim) for f in lat.flats] == sorted(brute, key=lambda cr: (cr[1], cr[0]))
    assert all(f.dim == arr.n - f.codim for f in lat.flats)
    for _ in range(5):
        sub = data.draw(st.sets(st.integers(0, arr.size - 1)))
        assert lat.closure_of(sub) == brute_closure(arr, sub)
    # covers by definition: strictly below with nothing strictly between
    sets = [frozenset(f.closure) for f in lat.flats]
    covers = [
        (i, j)
        for i, a in enumerate(sets)
        for j, b in enumerate(sets)
        if a < b and not any(a < c < b for c in sets)
    ]
    assert lat.covers() == covers


@settings(max_examples=40, deadline=None)
@given(ternary_arrangements(), st.data())
def test_join_is_the_first_flat_holding_the_mask(arr, data):
    # the brute-force scan over every flat; masks reach two bits past the
    # hyperplanes, so out-of-range masks are drawn too
    lat = build_lattice(arr)
    masks = data.draw(st.lists(st.integers(0, (1 << (arr.size + 2)) - 1), max_size=20))
    for mask in [0, (1 << arr.size) - 1, *masks]:
        want = next((i for i, m in enumerate(lat.masks) if not mask & ~m), None)
        if want is None:
            with pytest.raises(ValueError, match="out of range"):
                lat.join(mask)
        else:
            assert lat.join(mask) == want
    assert lat.join(0) == 0
