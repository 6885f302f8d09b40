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

`build_lattice` walks the lattice upward one cover at a time.  Each flat
of rank r keeps the echelon basis of its normals, each cleared to its
primitive integer direction, so the elimination runs in integers.  A
cover is that basis plus one more normal, and only hyperplanes outside
every cover already found from it need a containment test, since two
covers of a flat share only the flat's own hyperplanes.  A cover of rank
n is the origin, which needs no elimination.  Once the
lattice is built, every closure query is `IntersectionLattice.join`, a
cached scan over the bitmasks of the flats on the query's lowest
hyperplane: no elimination runs after `build_lattice`.
`essentialization` gives the same lattice for the arrangement's
essentialization in C^r, r its rank, by relabelling each flat's dimension.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import EchelonBasis


class ValidationError(ValueError):
    """Rejected user input: bad arrangement data or a malformed document."""


class StructureError(RuntimeError):
    """A computed object violates an invariant it is supposed to satisfy."""


Vector = tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
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
    """A central arrangement with multiplicities in C^n, n >= 2."""

    __slots__ = ("n", "hyperplanes", "degree")

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
            normal = tuple(as_fraction(c) for c in h.normal)
            if not any(normal):
                raise ValidationError(f"hyperplanes[{idx}]: normal vector is zero")
            if type(h.mult) is not int or h.mult < 1:
                raise ValidationError(
                    f"hyperplanes[{idx}]: multiplicity must be a positive integer, got {h.mult!r}"
                )
            hps.append(Hyperplane(normal, h.mult))
        if not hps:
            raise ValidationError("an arrangement needs at least one hyperplane")
        # the smallest i with a later proportional normal, then its first such j
        first: dict[tuple[int, ...], int] = {}
        pair = None
        for j, h in enumerate(hps):
            i = first.setdefault(_direction(h.normal), j)
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

    Flats are listed by ascending codimension (ties broken lexicographically
    on closures), starting with the ambient space itself.  `masks[i]` is the
    closure of `flats[i]` as a bitmask of hyperplane indices, and
    `mobius[i]` is the Mobius value of the interval from the ambient space
    down to `flats[i]`.
    """

    __slots__ = ("arrangement", "flats", "masks", "mobius", "_index", "_holding", "_joins")

    def __init__(self, arrangement: Arrangement, flats) -> None:
        self.arrangement = arrangement
        self.flats: tuple[Flat, ...] = tuple(flats)
        self._index = {f.closure: i for i, f in enumerate(self.flats)}
        self.masks: tuple[int, ...] = tuple(sum(1 << i for i in f.closure) for f in self.flats)
        # _holding[h]: the indices of the flats on hyperplane h, ascending
        holding: list[list[int]] = [[] for _ in range(arrangement.size)]
        for i, f in enumerate(self.flats):
            for h in f.closure:
                holding[h].append(i)
        self._holding = tuple(map(tuple, holding))
        self._joins: dict[int, int] = {0: 0}
        # mu(V) = -(sum of mu over the flats strictly containing V), all of
        # which have smaller codimension and so come earlier
        mobius = [1]
        for m in self.masks[1:]:
            mobius.append(-sum(mu for mu, u in zip(mobius, self.masks) if not u & ~m))
        self.mobius: tuple[int, ...] = tuple(mobius)

    @property
    def n(self) -> int:
        return self.arrangement.n

    def flat_index(self, closure) -> int | None:
        return self._index.get(tuple(sorted(closure)))

    def leq(self, a: Flat, b: Flat) -> bool:
        """Subspace containment: a <= b."""
        return set(b.closure) <= set(a.closure)

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
        if not all(0 <= i < self.arrangement.size for i in key):
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
        return f"IntersectionLattice({len(self.flats)} flats of {self.arrangement!r})"


def build_lattice(arrangement: Arrangement) -> IntersectionLattice:
    """Enumerate all flats of the arrangement."""
    normals = [
        {j: c for j, c in enumerate(_direction(h.normal)) if c} for h in arrangement.hyperplanes
    ]
    n, m = arrangement.n, len(normals)

    found: dict[tuple[int, ...], int] = {(): 0}
    frontier = [((), EchelonBasis())]
    while frontier:
        nxt = []
        for cl, basis in frontier:
            rank = basis.rank + 1
            if rank == n:
                # the one cover is the origin, which every hyperplane contains
                if len(cl) < m:
                    found.setdefault(tuple(range(m)), n)
                continue
            covered = set(cl)
            for i in range(m):
                if i in covered:
                    continue
                cover = basis.copy()
                cover.insert(normals[i])
                if rank == 1:
                    # proportional normals are rejected by Arrangement
                    closure = (i,)
                else:
                    # every j < i outside the flat lies in an earlier cover
                    extra = [
                        j for j in range(i + 1, m)
                        if j not in covered and cover.contains(normals[j])
                    ]
                    closure = tuple(sorted((*cl, i, *extra)))
                covered.update(closure)
                if closure not in found:
                    found[closure] = rank
                    nxt.append((closure, cover))
        frontier = nxt

    flats = [Flat(cl, n - r, r) for cl, r in found.items()]
    flats.sort(key=lambda f: (f.codim, f.closure))
    return IntersectionLattice(arrangement, flats)


def essentialization(lattice: IntersectionLattice) -> IntersectionLattice:
    """The lattice of the arrangement's essentialization in C^r, r its rank.

    Each normal keeps only the pivot coordinates of the normals' echelon
    basis.  That projection is one to one on the normals' span, so the
    hyperplanes keep their order, multiplicities, closures and
    codimensions: the flats are the input's with each dimension relabelled
    to r - codim, not found again by elimination.  The masks, Mobius values,
    indexes and join cache depend only on the closures, so the two
    lattices share them.  Needs r >= 2, since an `Arrangement` lives in C^n
    with n >= 2.
    """
    arrangement = lattice.arrangement
    basis = EchelonBasis()
    for h in arrangement.hyperplanes:
        basis.insert({j: c for j, c in enumerate(h.normal) if c})
    pivots = sorted(basis.rows)
    r = len(pivots)
    core = copy(lattice)
    core.arrangement = Arrangement(
        r, [Hyperplane(tuple(h.normal[j] for j in pivots), h.mult) for h in arrangement.hyperplanes]
    )
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
