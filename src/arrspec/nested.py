"""Building sets over an intersection lattice, and nested subsets of them.

A building set here is the list of proper flats used to construct the log
resolution, together with one formal element of dimension 0 at index 0.
The formal element is contained in every other element; for an essential
arrangement it is identified with the origin flat, which therefore does
not reappear at a positive index.

`maximal_building` lists every proper flat, and `minimal_building` only
the irreducible ones, those that are not the direct sum of the smallest
irreducible flats containing them; `building_from_closures` checks that
every flat a selection leaves out is such a direct sum of listed flats.
One test, `_direct_sum`, decides both.

Element order is part of the data: index 0 first, then flats by ascending
dimension with ties broken lexicographically on closures.  Polynomial
variables downstream are numbered by this order.

The nested sets come from one depth-first pass, `_nested_sets`, that
grows them as int bitmasks and carries each one's exponent bounds over
from the set it grew from; the relation ideal reads it directly, and
`enumerate_nested` is its sorted view as frozensets.  `is_nested` tests
one set from the definition, independently of the pass.
"""

from __future__ import annotations

from itertools import combinations

from .arrangement import Flat, IntersectionLattice, StructureError, ValidationError


class BuildingSet:
    """Ordered building set: formal zero element plus selected proper flats,
    the hyperplanes last, from `first_hyperplane` (`size` if there are none)."""

    __slots__ = (
        "lattice",
        "flats",
        "dims",
        "codims",
        "closures",
        "masks",
        "zero_flat_included",
        "is_maximal",
        "first_hyperplane",
        "below",
        "_elem_of",
    )

    def __init__(self, lattice: IntersectionLattice, indices) -> None:
        """The building set of the proper flats at the given lattice indices."""
        self.lattice = lattice
        chosen = set(indices)
        if not all(0 < i < len(lattice.flats) for i in chosen):
            raise ValueError("building-set elements must be proper flats of the lattice")
        # the origin, when listed, is the formal element 0
        origin = {i for i in chosen if lattice.flats[i].dim == 0}
        # ascending dimension; within one dimension the lattice orders by closure
        order = sorted(chosen - origin, key=lambda i: (lattice.flats[i].dim, i))
        self.flats: tuple[Flat, ...] = tuple(lattice.flats[i] for i in order)
        self.dims = (0,) + tuple(f.dim for f in self.flats)
        self.codims = (lattice.n,) + tuple(f.codim for f in self.flats)
        self.closures = (None,) + tuple(f.closure for f in self.flats)
        # closures as bitmasks; the formal zero element lies on every hyperplane
        self.masks = (lattice.masks[-1],) + tuple(lattice.masks[i] for i in order)
        self.zero_flat_included = bool(origin)
        self.first_hyperplane = 1 + sum(f.codim > 1 for f in self.flats)
        # lattice index -> element
        self._elem_of = {i: e for e, i in enumerate(order, start=1)} | dict.fromkeys(origin, 0)
        # below[v]: the elements strictly below v, 0 always among them; every
        # other one is a flat on v's lowest hyperplane, read from the lattice
        elem_of, masks, holding = self._elem_of, lattice.masks, lattice._holding
        below = [frozenset()]
        for i in order:
            m = masks[i]
            on_low = holding[(m & -m).bit_length() - 1]
            below.append(frozenset(
                {0, *(elem_of[j] for j in on_low if j != i and j in elem_of and not m & ~masks[j])}
            ))
        self.below: tuple[frozenset[int], ...] = tuple(below)
        # every proper flat is listed, the origin as element 0
        self.is_maximal = len(chosen) == len(lattice.flats) - 1

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def size(self) -> int:
        """Number of elements, formal zero included; equals the variable count."""
        return 1 + len(self.flats)

    def label(self, i: int) -> str:
        if i == 0:
            return "0"
        return "{" + ",".join(str(j) for j in self.closures[i]) + "}"

    def leq(self, a: int, b: int) -> bool:
        """Containment of elements: a <= b as subspaces, 0 below everything."""
        return a == b or a in self.below[b]

    def lt(self, a: int, b: int) -> bool:
        return a in self.below[b]

    def _meet(self, elems) -> int | None:
        """Lattice index of the intersection of the elements, None if 0 is among them."""
        mask = 0
        for e in elems:
            if e == 0:
                return None
            mask |= self.masks[e]
        return self.lattice.join(mask)

    def intersection_dim(self, elems) -> int:
        """Dimension of the subspace intersection of the elements."""
        i = self._meet(elems)
        return 0 if i is None else self.lattice.flats[i].dim

    def intersection_element(self, elems) -> int | None:
        """Element of the building set equal to the intersection, None if absent."""
        i = self._meet(elems)
        if i is None:
            return 0 if self.zero_flat_included else None
        return self._elem_of.get(i)

    def __repr__(self) -> str:
        kind = ", maximal" if self.is_maximal else ""
        return f"BuildingSet({self.size} elements{kind})"


def maximal_building(lattice: IntersectionLattice) -> BuildingSet:
    """Building set containing every proper flat."""
    return BuildingSet(lattice, range(1, len(lattice.flats)))


def minimal_building(lattice: IntersectionLattice) -> BuildingSet:
    """Building set of the irreducible flats, the smallest one.

    Going up by codimension, a flat is irreducible exactly when it is not
    the direct sum of the smallest irreducible flats containing it
    (`_direct_sum`), all of which come earlier; a hyperplane is irreducible.
    """
    flats, masks = lattice.flats, lattice.masks
    chosen, listed = [], []
    for i in range(1, len(flats)):
        m, c = masks[i], flats[i].codim
        if c == 1 or not _direct_sum(m, c, listed):
            chosen.append(i)
            listed.append((m, c))
    return BuildingSet(lattice, chosen)


def _direct_sum(mask: int, codim: int, listed) -> bool:
    """The building-set axiom at one flat: whether the flat with hyperplane
    mask `mask` and codimension `codim` is the direct sum of the flats of
    `listed`, (mask, codim) pairs by ascending codimension, whose masks are
    maximal inside `mask`.

    With every hyperplane listed, those masks cover `mask`, so their
    codimensions sum to at least `codim`, with equality exactly when they
    are disjoint and their ranks add up.  Walking down in codimension, a
    flat inside one already taken is not maximal; any other that meets the
    taken ones, or a sum past `codim`, decides.
    """
    taken: list[int] = []
    union = total = 0
    for s, c in reversed(listed):
        if s & ~mask:
            continue
        if s & union:
            if any(not s & ~t for t in taken):
                continue
            return False
        total += c
        if total > codim:
            return False
        taken.append(s)
        union |= s
    return total == codim


def building_from_closures(lattice: IntersectionLattice, closure_sets) -> BuildingSet:
    """Building set from explicit closure sets (expert option).

    Every codimension-1 flat must be listed, and the selection must satisfy
    the building-set axiom: every proper flat X is the direct sum of the
    smallest listed flats containing X, those whose closures are
    inclusion-maximal inside X's closure (`_direct_sum`).  A listed X is its
    own only such flat, so only unlisted flats are tested.  A selection that
    fails, or lists an entry that is not an int, is rejected with a
    `ValidationError`.
    """
    flats, masks = lattice.flats, lattice.masks
    chosen: set[int] = set()
    for raw in map(list, closure_sets):
        if not all(type(h) is int for h in raw):  # a bool is not an index
            raise ValidationError(f"closure set {raw!r} must list hyperplane indices")
        i = lattice.flat_index(raw)
        if i is None or flats[i].codim == 0:
            raise ValidationError(f"closure set {raw!r} is not a proper flat")
        chosen.add(i)
    for i, f in enumerate(flats):
        if f.codim == 1 and i not in chosen:
            raise ValidationError(
                f"building set must contain every hyperplane flat; missing {list(f.closure)!r}"
            )
    listed = [(masks[i], flats[i].codim) for i in sorted(chosen)]
    for i in range(1, len(flats)):
        if i not in chosen and not _direct_sum(masks[i], flats[i].codim, listed):
            raise ValidationError(
                f"not a building set: {list(flats[i].closure)!r} is not the direct sum "
                f"of the smallest listed flats containing it"
            )
    return BuildingSet(lattice, chosen)


def _check_elements(bs: BuildingSet, subset) -> list[int]:
    elems = sorted(set(subset))
    for e in elems:
        if not isinstance(e, int) or not 0 <= e < bs.size:
            raise ValueError(f"element {e!r} is not in the building set")
    # the formal zero element is comparable to everything and never obstructs
    return [e for e in elems if e != 0]


def is_nested(bs: BuildingSet, subset) -> bool:
    """Whether a subset of building-set elements is nested.

    Nested: every pairwise-incomparable subset of size >= 2 intersects in a
    subspace that is *not* in the building set.  For the maximal building
    set this degenerates to being a chain.
    """
    elems = _check_elements(bs, subset)
    for size in range(2, len(elems) + 1):
        for sub in combinations(elems, size):
            if any(bs.leq(a, b) or bs.leq(b, a) for a, b in combinations(sub, 2)):
                continue
            if bs.intersection_element(sub) is not None:
                return False
    return True


def enumerate_nested(bs: BuildingSet, max_size: int) -> list[frozenset[int]]:
    """All nested subsets of the positive-index elements, up to `max_size`
    elements, sorted by size and then by their ascending elements.

    A view of the depth-first pass `_nested_sets`; `max_size` is an int
    in 0 .. n-1.
    """
    if isinstance(max_size, bool) or not isinstance(max_size, int) or not 0 <= max_size < bs.n:
        raise ValueError(f"max_size must be an int in 0..{bs.n - 1}, not {max_size!r}")
    found = [sorted(v for v, _ in limits if v) for _, limits in _nested_sets(bs, max_size)]
    found.sort(key=lambda s: (len(s), s))
    return [frozenset(s) for s in found]


def _nested_sets(bs: BuildingSet, max_size: int, bound: int | None = None):
    """Every nested set of at most `max_size` positive elements below
    `bound` (all of them by default), depth-first from the empty set, as
    (bitmask, exponent bounds): (v, d) for v in the set and the formal
    element 0, by decreasing dimension and then ascending v, with d =
    dim(intersection of the set's elements strictly above v) - dim(v)
    (Feichtner-Yuzvinsky).  The relation ideal's bound,
    `bs.first_hyperplane`, leaves out exactly the sets that hold a
    hyperplane, which it never reads.

    A set grows by elements j past its largest, so none of it lies above
    j, and a branch dies at its first failed extension, since nestedness
    is closed under taking subsets.  One AND against j's nested pairs,
    listed when j first extends a non-empty set, tests every pair with j;
    `_extends` tests the larger antichains through j only when two or
    more of the set are incomparable to j.  A child's bounds are its
    parent's plus j's, n - dim(j); for 0 and each element below j, j's
    hyperplane mask is ORed into that of the elements above it, at one
    `join` each.  (An explicit stack, not a recursive closure: a closure
    that calls itself is a reference cycle, which would keep the whole
    lattice alive until the cyclic collector runs.)
    """
    n, dims, masks = bs.n, bs.dims, bs.masks
    size = bs.size if bound is None else bound
    join, dim_of = bs.lattice.join, [f.dim for f in bs.lattice.flats]
    below = [sum(1 << w for w in ws) for ws in bs.below]
    pairs: list[int | None] = [None] * size
    # (bitmask, bounds, hyperplane masks of the elements above each bound's v, next j)
    stack = [(0, ((0, n),), (0,), 1)]
    while stack:
        mask, limits, ors, start = stack.pop()
        yield mask, limits
        if len(limits) > max_size:  # one bound per element, and one for 0
            continue
        for j in range(start, size):
            bj = below[j]
            # the empty set takes every element, with no pair mask built
            if mask:
                ok = pairs[j]
                if ok is None:
                    ok = pairs[j] = _pairs_with(bs, j, bj)
                if mask & ~ok:
                    continue
                # the present elements not below j are incomparable to it
                others = mask & ~bj
                if others & (others - 1):
                    if not _extends(bs, [a for a in range(1, j) if others >> a & 1], j):
                        continue
            mj, dj = masks[j], dims[j]
            # j follows the present elements of its dimension, which lead
            # the bounds, and precedes the rest, 0 last
            k = 0
            while dims[limits[k][0]] == dj:
                k += 1
            child, child_ors = [*limits[:k], (j, n - dj)], [*ors[:k], 0]
            for (v, d), o in zip(limits[k:], ors[k:]):
                if bj >> v & 1:
                    o |= mj
                    d = dim_of[join(o)] - dims[v]
                child.append((v, d))
                child_ors.append(o)
            stack.append((mask | 1 << j, tuple(child), tuple(child_ors), j + 1))


def _pairs_with(bs: BuildingSet, j: int, below_j: int) -> int:
    """Bitmask of the elements i < j with {i, j} nested: those below j, and
    the others when their intersection with j is not an element.  The
    maximal set lists every flat, so there only those below j."""
    if bs.is_maximal:
        return below_j
    out = below_j
    for i in range(1, j):
        if not below_j >> i & 1 and bs.intersection_element((i, j)) is None:
            out |= 1 << i
    return out


def _extends(bs: BuildingSet, others: list[int], j: int) -> bool:
    """Whether no antichain of j and two or more of `others`, ascending and
    each incomparable to j, intersects in a building-set element; the
    pairs with j are tested by the caller."""
    for size in range(2, len(others) + 1):
        for sub in combinations(others, size):
            # a precedes b, so only a can lie below b
            if any(a in bs.below[b] for a, b in combinations(sub, 2)):
                continue
            if bs.intersection_element((*sub, j)) is not None:
                return False
    return True


def d_value(bs: BuildingSet, subset, w: int) -> int:
    """Dimension drop from the intersection of `subset` down to element `w`.

    The empty intersection is the ambient space.  Every element of the
    subset must strictly contain `w`.
    """
    if not isinstance(w, int) or not 0 <= w < bs.size:
        raise ValueError(f"element {w!r} is not in the building set")
    elems = sorted(set(subset))
    for v in elems:
        if not isinstance(v, int) or not 0 <= v < bs.size:
            raise ValueError(f"element {v!r} is not in the building set")
        if not bs.lt(w, v):
            raise ValueError(f"element {w} is not strictly below element {v}")
    dim_int = bs.intersection_dim(elems)
    drop = dim_int - bs.dims[w]
    if drop < 0:
        raise StructureError("intersection dimension below the lower element")
    return drop
