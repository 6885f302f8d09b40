"""Building sets over an intersection lattice, and nested subsets of them.

A building set here is the list of proper flats used to construct the log
resolution, together with one formal element of dimension 0 at index 0.
The formal element is contained in every other element; for an essential
arrangement it is identified with the origin flat, which therefore does
not reappear at a positive index.

Element order is part of the data: index 0 first, then flats by ascending
dimension with ties broken lexicographically on closures.  Polynomial
variables downstream are numbered by this order.
"""

from __future__ import annotations

from itertools import combinations

from .arrangement import Flat, IntersectionLattice, StructureError, ValidationError


class BuildingSet:
    """Ordered building set: formal zero element plus selected proper flats."""

    __slots__ = (
        "lattice",
        "flats",
        "dims",
        "codims",
        "closures",
        "zero_flat_included",
        "is_maximal",
        "below",
        "_flat_elem",
        "_sets",
    )

    def __init__(self, lattice: IntersectionLattice, flats, zero_flat_included: bool) -> None:
        self.lattice = lattice
        self.flats: tuple[Flat, ...] = tuple(flats)
        n = lattice.n
        self.dims = (0,) + tuple(f.dim for f in self.flats)
        self.codims = (n,) + tuple(f.codim for f in self.flats)
        self.closures = (None,) + tuple(f.closure for f in self.flats)
        # closures as sets, so containment is one subset test
        self._sets = (None,) + tuple(frozenset(c) for c in self.closures[1:])
        # below[v]: the elements strictly below v; a flat strictly below v has
        # smaller dimension, so it comes earlier in the element order
        masks = [sum(1 << i for i in c) for c in self.closures[1:]]
        self.below: tuple[frozenset[int], ...] = (frozenset(),) + tuple(
            frozenset([0, *(w + 1 for w in range(v) if not mv & ~masks[w])])
            for v, mv in enumerate(masks)
        )
        self.zero_flat_included = zero_flat_included
        self._flat_elem = {f.closure: i + 1 for i, f in enumerate(self.flats)}
        proper = [
            f for f in lattice.flats if f.codim > 0 and not (zero_flat_included and f.dim == 0)
        ]
        self.is_maximal = zero_flat_included is lattice.is_essential and len(proper) == len(
            self.flats
        )

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

    def element_of_flat(self, flat: Flat) -> int | None:
        """Building-set element representing a flat, None if absent."""
        i = self._flat_elem.get(flat.closure)
        if i is not None:
            return i
        if flat.dim == 0 and self.zero_flat_included:
            return 0
        return None

    def intersection_dim(self, elems) -> int:
        """Dimension of the subspace intersection of positive-index elements."""
        elems = list(elems)
        if not elems:
            return self.n
        if 0 in elems:
            return 0
        _, rank = self.lattice.closure_of(frozenset().union(*(self._sets[e] for e in elems)))
        return self.n - rank

    def intersection_element(self, elems) -> int | None:
        """Element of the building set equal to the intersection, None if absent."""
        elems = list(elems)
        if 0 in elems:
            return 0 if self.zero_flat_included else None
        closure, _ = self.lattice.closure_of(frozenset().union(*(self._sets[e] for e in elems)))
        flat = self.lattice.flat_by_closure(closure)
        if flat is None or flat.codim == 0:
            return None
        return self.element_of_flat(flat)

    def __repr__(self) -> str:
        kind = "maximal" if self.is_maximal else "custom"
        return f"BuildingSet({self.size} elements, {kind})"


def maximal_building(lattice: IntersectionLattice) -> BuildingSet:
    """Building set containing every proper flat."""
    return building_from_closures(lattice, (f.closure for f in lattice.flats if f.codim > 0))


def building_from_closures(lattice: IntersectionLattice, closure_sets) -> BuildingSet:
    """Building set from explicit closure sets (expert option).

    Every codimension-1 flat must be listed, and the selection must satisfy
    the building-set axiom: for every proper flat X, the smallest listed
    flats containing X (those whose closures are inclusion-maximal inside
    X's closure) have codimensions summing to codim(X), so X is their
    direct sum.  A selection that fails is rejected with a `ValidationError`.
    """
    chosen: dict[tuple[int, ...], Flat] = {}
    zero_included = False
    for raw in closure_sets:
        closure = tuple(sorted(set(raw)))
        flat = lattice.flat_by_closure(closure)
        if flat is None or flat.codim == 0:
            raise ValidationError(f"closure set {list(raw)!r} is not a proper flat")
        if flat.dim == 0:
            zero_included = True
        chosen[flat.closure] = flat
    for f in lattice.hyperplane_flats():
        if f.closure not in chosen:
            raise ValidationError(
                f"building set must contain every hyperplane flat; missing {list(f.closure)!r}"
            )
    listed = [(frozenset(c), f.codim) for c, f in chosen.items()]
    for x in lattice.flats:
        if x.codim == 0:
            continue
        xs = frozenset(x.closure)
        below = [(s, c) for s, c in listed if s <= xs]
        factors = sum(c for s, c in below if not any(s < t for t, _ in below))
        if factors != x.codim:
            raise ValidationError(
                f"not a building set: the smallest listed flats containing {list(x.closure)!r} "
                f"have codimensions summing to {factors}, not its codimension {x.codim}"
            )
    flats = sorted(
        (f for f in chosen.values() if f.dim > 0), key=lambda f: (f.dim, f.closure)
    )
    return BuildingSet(lattice, flats, zero_flat_included=zero_included)


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
    """All nested subsets of the positive-index elements, up to `max_size`.

    Depth-first: nestedness is closed under taking subsets, so a branch
    dies as soon as one extension fails.  Adding j to a nested set can
    only break an antichain through j, whose other members are all
    incomparable to j, so only those antichains are tested, with the
    comparabilities read from `BuildingSet.below`.  (An explicit
    stack, not a recursive closure: a closure that calls itself is a
    reference cycle, which would keep the whole lattice alive until the
    cyclic collector runs.)
    """
    if max_size > bs.n - 1:
        raise ValueError(f"max_size {max_size} exceeds the ambient bound {bs.n - 1}")
    out: list[frozenset[int]] = [frozenset()]
    stack: list[tuple[tuple[int, ...], int]] = [((), 1)] if max_size > 0 else []
    while stack:
        current, start = stack.pop()
        for j in range(start, bs.size):
            cand = current + (j,)
            # `current` precedes j in the element order, so none of it lies above j
            if _extends(bs, [a for a in current if a not in bs.below[j]], j):
                out.append(frozenset(cand))
                if len(cand) < max_size:
                    stack.append((cand, j + 1))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _extends(bs: BuildingSet, others: list[int], j: int) -> bool:
    """Whether no antichain of j and some of `others`, ascending and each
    incomparable to j, intersects in a building-set element."""
    for size in range(1, len(others) + 1):
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
