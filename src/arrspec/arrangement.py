"""Central hyperplane arrangements and their intersection lattices.

An arrangement is a finite set of linear hyperplanes through the origin of
C^n, each carrying a positive integer multiplicity; it stands for the
product of the corresponding linear forms raised to those multiplicities.
Everything downstream is computed from the intersection lattice alone.

All arithmetic is exact, and a flat is canonically identified by its
*closure*: the sorted tuple of indices of every hyperplane that contains
it.  Two flats are then equal iff their closures are equal, and flat V
is contained in flat W (as subspaces) iff closure(W) is a subset of
closure(V).

`build_lattice` walks the lattice upward one rank at a time by
restriction (Orlik-Terao, *Arrangements of Hyperplanes*, 1992, 1.3).
Each flat X keeps, for every hyperplane not on X, that hyperplane's
normal restricted to a basis of X as a primitive integer row, so the
arithmetic runs in integers.  Hyperplanes with equal rows meet X in the
same cover, so the covers are the groups of equal rows, and a cover's
rows come from X's by clearing one coordinate with a cross-multiplication.
A cover of rank n is the origin, which needs no rows.
`IntersectionLattice(flats)` is the whole lattice, and every closure
query is its cached `join`, a scan over the bitmasks of the flats on the
query's lowest hyperplane.  `essentialization` gives the same lattice
for the arrangement's essentialization in C^r, r its rank, by
relabelling each flat's dimension.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


class ValidationError(ValueError):
    """Rejected user input: bad arrangement data or a malformed document."""


class StructureError(RuntimeError):
    """A computed object violates an invariant it is supposed to satisfy."""


Vector = tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"expected a rational number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {x!r} as a rational number") from exc
    raise ValidationError(f"expected a rational number, got {type(x).__name__}")


def _direction(normal: Vector) -> tuple[int, ...]:
    """The primitive integer vector on the normal's line whose first nonzero entry is positive.

    Two nonzero normals are proportional iff their directions are equal.
    """
    ints = [c.numerator for c in normal]
    if any(c.denominator != 1 for c in normal):
        scale = lcm(*(c.denominator for c in normal))
        ints = [c.numerator * (scale // c.denominator) for c in normal]
    g = gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


@dataclass(frozen=True)
class Hyperplane:
    """A linear hyperplane given by its normal vector, with multiplicity."""

    normal: Vector
    mult: int = 1


@dataclass(frozen=True)
class Flat:
    """A subspace arising as an intersection of hyperplanes.

    `closure` lists every hyperplane index containing the subspace, so it
    determines the flat; `dim` and `codim` are its dimension and
    codimension in the ambient space.
    """

    closure: tuple[int, ...]
    dim: int
    codim: int


class Arrangement:
    """A central arrangement with multiplicities in C^n, n >= 2.

    Each coordinate is converted to a `Fraction` once: a `Hyperplane` whose
    normal is already a tuple of Fractions is kept as given, and any other
    is replaced by one new `Hyperplane`.
    """

    __slots__ = ("n", "hyperplanes", "degree", "_directions")

    def __init__(self, n: int, hyperplanes) -> None:
        if not isinstance(n, int) or n < 2:
            raise ValidationError(f"ambient dimension must be an integer >= 2, got {n!r}")
        hps = []
        for idx, h in enumerate(hyperplanes):
            if not isinstance(h, Hyperplane):
                raise ValidationError(f"hyperplanes[{idx}] is not a Hyperplane")
            if len(h.normal) != n:
                raise ValidationError(
                    f"hyperplanes[{idx}]: normal has {len(h.normal)} coordinates, expected {n}"
                )
            normal = h.normal
            if type(normal) is not tuple or not all(type(c) is Fraction for c in normal):
                normal = tuple(as_fraction(c) for c in normal)
            if not any(normal):
                raise ValidationError(f"hyperplanes[{idx}]: normal vector is zero")
            if type(h.mult) is not int or h.mult < 1:
                raise ValidationError(
                    f"hyperplanes[{idx}]: multiplicity must be a positive integer, got {h.mult!r}"
                )
            # a plain Hyperplane whose normal is a tuple of Fractions is kept
            if normal is not h.normal or type(h) is not Hyperplane:
                h = Hyperplane(normal, h.mult)
            hps.append(h)
        if not hps:
            raise ValidationError("an arrangement needs at least one hyperplane")
        # the smallest i with a later proportional normal, then its first such j
        directions = tuple(_direction(h.normal) for h in hps)
        first: dict[tuple[int, ...], int] = {}
        pair = None
        for j, direction in enumerate(directions):
            i = first.setdefault(direction, j)
            if i != j and (pair is None or i < pair[0]):
                pair = (i, j)
        if pair is not None:
            raise ValidationError(
                f"hyperplanes {pair[0]} and {pair[1]} have proportional normals: "
                "merge them into a single hyperplane with the summed multiplicity"
            )
        self.n = n
        self.hyperplanes = tuple(hps)
        # total degree of the defining polynomial: the sum of multiplicities
        self.degree = sum(h.mult for h in hps)
        # each normal's `_direction`, kept for `build_lattice`'s ambient rows
        self._directions = directions

    @classmethod
    def from_normals(cls, n: int, normals, mults=None) -> "Arrangement":
        rows = [tuple(as_fraction(c) for c in row) for row in normals]
        if mults is None:
            mults = [1] * len(rows)
        if len(mults) != len(rows):
            raise ValidationError("multiplicity list does not match the number of normals")
        return cls(n, [Hyperplane(r, m) for r, m in zip(rows, mults)])

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    def permuted(self, perm) -> "Arrangement":
        """The same arrangement with hyperplanes listed in a new order."""
        perm = list(perm)
        if sorted(perm) != list(range(self.size)):
            raise ValidationError("not a permutation of the hyperplane indices")
        return Arrangement(self.n, [self.hyperplanes[i] for i in perm])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Arrangement)
            and self.n == other.n
            and self.hyperplanes == other.hyperplanes
        )

    def __repr__(self) -> str:
        return f"Arrangement(n={self.n}, {self.size} hyperplanes, degree {self.degree})"


class IntersectionLattice:
    """All intersections of hyperplanes of an arrangement, ordered by inclusion.

    Built from its flats alone, listed by ascending codimension (ties broken
    lexicographically on closures) from the ambient space, of dimension `n`,
    to the intersection of all hyperplanes.  `masks[i]` is the closure of
    `flats[i]` as a bitmask of hyperplane indices, and `mobius[i]`, computed
    on first read, is the Mobius value of the interval from the ambient
    space down to `flats[i]`.
    """

    def __init__(self, flats) -> None:
        self.flats: tuple[Flat, ...] = tuple(flats)
        self.masks: tuple[int, ...] = tuple(sum(1 << i for i in f.closure) for f in self.flats)
        # _holding[h]: the indices of the flats on hyperplane h, ascending (the last on every h)
        holding: list[list[int]] = [[] for _ in self.flats[-1].closure]
        for i, f in enumerate(self.flats):
            for h in f.closure:
                holding[h].append(i)
        self._holding = tuple(map(tuple, holding))
        self._joins: dict[int, int] = {0: 0}

    @property
    def n(self) -> int:
        return self.flats[0].dim

    @cached_property
    def mobius(self) -> tuple[int, ...]:
        """mu(V) = -(sum of mu over the flats strictly containing V).

        The ambient space has 1 and a hyperplane -1.  For codim V >= 2 the
        ambient space and the |closure(V)| hyperplanes through V add up to
        1 - |closure(V)|, so only the flats U with 2 <= codim U < codim V
        are summed: those with closure U inside closure V.
        """
        flats, masks = self.flats, self.masks
        mobius = [1 if f.codim == 0 else -1 for f in flats if f.codim < 2]
        first = len(mobius)
        # (mu, mask) of the flats of codimension 2 .. codim V - 1
        above: list[tuple[int, int]] = []
        for i in range(first, len(flats)):
            if flats[i].codim > flats[i - 1].codim:
                above = list(zip(mobius[first:i], masks[first:i]))
            m = masks[i]
            mobius.append(len(flats[i].closure) - 1 - sum(mu for mu, u in above if not u & ~m))
        return tuple(mobius)

    def flat_index(self, closure) -> int | None:
        """Index of the flat whose closure is the given hyperplane indices, None if none is."""
        key = set(closure)
        i = self.join(sum(1 << h for h in key if 0 <= h < len(self._holding)))
        return i if set(self.flats[i].closure) == key else None

    def join(self, mask: int) -> int:
        """Index of the intersection of the hyperplanes in `mask`, a bitmask.

        Flats are sorted by ascending codimension, so it is the first flat
        whose mask holds `mask`, and only the flats on the mask's lowest
        hyperplane can; `join(0)` is the ambient space.
        """
        got = self._joins.get(mask)
        if got is None:
            low = (mask & -mask).bit_length() - 1
            masks = self.masks
            candidates = self._holding[low] if low < len(self._holding) else ()
            got = next((i for i in candidates if not mask & ~masks[i]), None)
            if got is None:
                raise ValueError(f"hyperplane mask {mask:#x} out of range")
            self._joins[mask] = got
        return got

    def closure_of(self, indices) -> tuple[tuple[int, ...], int]:
        """Closure and rank of the span of the given hyperplanes' normals."""
        key = set(indices)
        if not all(0 <= i < len(self._holding) for i in key):
            raise ValueError(f"hyperplane indices {sorted(key)!r} out of range")
        flat = self.flats[self.join(sum(1 << i for i in key))]
        return flat.closure, flat.codim

    @property
    def is_essential(self) -> bool:
        """True when the normals span the whole space (some flat is the origin)."""
        return any(f.dim == 0 for f in self.flats)

    def hyperplane_flats(self) -> list[Flat]:
        return [f for f in self.flats if f.codim == 1]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) of flat indices where flats[i] covers flats[j].

        The lattice is geometric, so a containment one rank apart is a cover.
        """
        codims, masks = [f.codim for f in self.flats], self.masks
        m = len(masks)
        return [
            (i, j)
            for i in range(m)
            for j in range(m)
            if codims[j] == codims[i] + 1 and not masks[i] & ~masks[j]
        ]

    def __repr__(self) -> str:
        return f"IntersectionLattice({len(self.flats)} flats in C^{self.n})"


def build_lattice(arrangement: Arrangement) -> IntersectionLattice:
    """Enumerate all flats of the arrangement, rank by rank, by restriction.

    A flat of rank r < n - 1 carries its rows, of length n - r, as a dict
    from each distinct row to the hyperplanes that have it: one cover each.
    """
    n, m = arrangement.n, arrangement.size
    found: dict[tuple[int, ...], int] = {(): 0}
    # at the ambient space each row is the normal's direction, which
    # Arrangement keeps; proportional normals are rejected there, so every
    # rank-1 group is one hyperplane
    ambient = {d: [j] for j, d in enumerate(arrangement._directions)}
    frontier = [((), ambient)]
    # whether some line is a proper flat, so that the origin is one too
    origin = False
    for rank in range(1, n):
        nxt = []
        for cl, groups in frontier:
            for row, group in groups.items():
                closure = tuple(sorted((*cl, *group)))
                if closure in found:
                    continue
                found[closure] = rank
                if rank < n - 1:
                    nxt.append((closure, _restrict(row, groups)))
                elif len(closure) < m:
                    origin = True
        frontier = nxt
    # the one cover of a line is the origin, on every hyperplane
    if origin:
        found[tuple(range(m))] = n

    flats = [Flat(cl, n - r, r) for cl, r in found.items()]
    flats.sort(key=lambda f: (f.codim, f.closure))
    return IntersectionLattice(flats)


def _restrict(a: tuple[int, ...], groups) -> dict[tuple[int, ...], list[int]]:
    """The grouped rows of the cover that row `a`, a key of `groups`, cuts out.

    `groups` maps each row of a flat to its hyperplanes.  On the cover,
    coordinate t0, a's first nonzero one, is solved for, so every other
    row b becomes a[t0] * b - b[t0] * a with t0 dropped, made primitive
    with its first nonzero entry positive.
    """
    t0 = next(t for t, c in enumerate(a) if c)
    p = a[t0]
    out: dict[tuple[int, ...], list[int]] = {}
    for b, group in groups.items():
        if b is a:
            continue
        f = b[t0]
        if f:
            v = [p * y - f * x for x, y in zip(a, b)]
            del v[t0]
            g = gcd(*v)
            if next(c for c in v if c) < 0:
                g = -g
            row = tuple(v) if g == 1 else tuple(c // g for c in v)
        else:
            row = b[:t0] + b[t0 + 1 :]
        out.setdefault(row, []).extend(group)
    return out


def essentialization(lattice: IntersectionLattice) -> IntersectionLattice:
    """The lattice of the arrangement's essentialization in C^r, r its rank.

    Every flat contains X, the intersection of all hyperplanes, so the
    flats of C^n / X, of dimension r, are the input's with the same
    closures and codimensions: the lattice is a copy with each flat's
    dimension relabelled to r - codim, and no elimination.  The masks, the
    index of the flats by hyperplane, the join cache and any Mobius values
    already read depend only on the closures, so the two share them.
    """
    r = lattice.flats[-1].codim
    core = copy(lattice)
    core.flats = tuple(Flat(f.closure, r - f.codim, f.codim) for f in lattice.flats)
    return core


def euler_projective_complement(lattice: IntersectionLattice) -> int:
    """Euler characteristic of the projectivized complement.

    For a nonempty central arrangement the characteristic polynomial
    pi(A, t) = sum over flats of mu(V) * (-t)^codim(V) is (1 + t) * pi(PA, t),
    so pi(A, -1) = sum of mu(V) is 0, and pi(PA, -1) = pi'(A, -1) is
    -(sum of codim(V) * mu(V)).
    """
    if sum(lattice.mobius):
        raise StructureError("characteristic polynomial not divisible by 1 + t")
    return -sum(f.codim * mu for f, mu in zip(lattice.flats, lattice.mobius))
