"""Assembly of the Hodge spectrum from lattice data.

For each eigenvalue index k (1 <= k <= d, d the total degree) there is a
tuple of residues, one per hyperplane, and from them one integer shift
per building-set element.  Each candidate exponent alpha = k/d + p with
0 <= p < n (excluding exactly k = d, p = n - 1) gets the multiplicity

    (-1)^(n-1-p) * [ ch(dual (n-1-p)-th exterior power) * exp(shifts) * Todd ]

evaluated against the class of a point.  Nonzero multiplicities form the
spectrum; every candidate is an exact integer, which is asserted.

The formula holds on the wonderful model of any building set, and the
setup uses the smallest, the irreducible flats, unless asked for the
maximal set or a listed one: the ring, the nested sets and every class
shrink with the set, and the spectrum does not change.

The spectrum depends only on the lattice and the multiplicities, so an
input of rank 2 <= r < n is computed on its essentialization in C^r,
which has the same lattice and a ring of dimension r - 1 instead of
n - 1.  With lift = n - r, the input's cell at p is (-1)^lift times the
core's cell at p - lift, and every cell with p < lift is zero.

Every class is a `QuotientElement`, in the quotient ring over its
standard-monomial basis.  The product ch * Todd is computed once per p
and kept only as its pairing covector u, an integer row over the whole
basis read from the ring's structure-constant rows, with the denominator
alongside.  A hyperplane element never shifts, so k enters the cells
only through its twist class: the shifts at element 0 and at the
elements of codimension >= 2, computed in integers from each element's
hyperplanes counted by multiplicity.  The exponential of the divisor sum
of shifts is computed once per class, in integers, from the powers of
that linear form in the ring's sparse kernel; the covectors and the
exponentials are cached on the `SpectrumSetup`.  Each cell is one
integer dot product u . t over the two denominators, without forming
the product of the two classes, and `spectrum_from_setup` takes it once
per class and p, not once per k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor
from operator import mul

from .arrangement import (
    Arrangement,
    IntersectionLattice,
    StructureError,
    build_lattice,
    essentialization,
)
from .chern import CharClasses, char_classes
from .nested import BuildingSet, building_from_closures, maximal_building, minimal_building
from .ring import GradedPoly, IdealPresentation, QuotientElement, ideal_generators


@dataclass(frozen=True)
class EigenData:
    """Residues of one monodromy eigenvalue: index k and one value per hyperplane."""

    k: int
    residues: tuple[Fraction, ...]


def _check_index(what: str, value, lo: int, hi: int) -> None:
    """ValueError unless `value` is an int, not a bool, in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError(f"{what} {value!r} must be an integer in {lo}..{hi}")


def beta(arrangement: Arrangement, k: int) -> EigenData:
    """Residue data for the k-th eigenvalue, 1 <= k <= degree."""
    d = arrangement.degree
    _check_index("eigenvalue index", k, 1, d)
    res = tuple(Fraction(-k * h.mult, d) % 1 for h in arrangement.hyperplanes)
    if sum(res).denominator != 1:
        raise StructureError("eigenvalue residues do not sum to an integer")
    return EigenData(k, res)


def s_value(bs: BuildingSet, elem: int, eig: EigenData) -> Fraction:
    """Sum of residues over all hyperplanes containing the element."""
    if elem == 0:
        return sum(eig.residues, Fraction(0))
    return sum((eig.residues[i] for i in bs.closures[elem]), Fraction(0))


def a_coeff(bs: BuildingSet, elem: int, eig: EigenData) -> int:
    """Integer twist coefficient of one boundary divisor."""
    bump = 1 if elem == 0 else 0
    return bs.codims[elem] - floor(s_value(bs, elem, eig)) - 1 + bump


def twist_exp(bs: BuildingSet, eig: EigenData) -> GradedPoly:
    """exp of the divisor with the integer twist coefficients, in the free ring."""
    coeffs = {v: a_coeff(bs, v, eig) for v in range(bs.size)}
    return GradedPoly.linear(coeffs, bs.size, bs.n - 1).exp()


def r_alpha(classes: CharClasses, eig: EigenData, p: int) -> GradedPoly:
    """Integrand class for the exponent k/d + p, before the Todd factor."""
    n = classes.building.n
    _check_index("integer part", p, 0, n - 1)
    return classes.dual_ch[n - 1 - p] * twist_exp(classes.building, eig)


@dataclass
class SpectrumSetup:
    """Everything derived from the arrangement that the formula consumes.

    `arrangement` and `lattice` are the input's.  `building`, `ideal` and
    `quotient` may belong to its essentialization in C^r, r < n, whose
    ring is smaller; each cell is then lifted by `lift` = n - r.  The
    spectrum reads only the `quotient` classes; the free-ring `classes`
    are computed on first access.
    """

    arrangement: Arrangement
    lattice: IntersectionLattice
    building: BuildingSet
    ideal: IdealPresentation
    quotient: CharClasses
    # per-cell factors, filled on first use: q -> (covector, denominator),
    # and twist class (`_shifts`) -> its exponential
    _covectors: dict[int, tuple[list[int], int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _twists: dict[tuple[int, ...], QuotientElement] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.arrangement.n

    @property
    def lift(self) -> int:
        """The input's dimension minus the ring's: 0 unless computed on the essentialization."""
        return self.arrangement.n - self.building.n

    @property
    def degree(self) -> int:
        return self.arrangement.degree

    @cached_property
    def classes(self) -> CharClasses:
        """The characteristic classes as free-ring polynomials."""
        return char_classes(self.building)

    def ch_todd(self, q: int) -> QuotientElement:
        """ch(dual q-th exterior power) * Todd in the quotient."""
        cl = self.quotient
        return cl.dual_ch[q] * cl.todd

    def covector(self, q: int) -> tuple[list[int], int]:
        """`ch_todd(q)` as its pairing covector and denominator, computed once per q."""
        got = self._covectors.get(q)
        if got is None:
            x = self.ch_todd(q)
            got = self._covectors[q] = (self.ideal.covector(x), x.den)
        return got

    @cached_property
    def _twisted(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, tuple[int, ...]], ...]]:
        """The distinct multiplicities of the hyperplanes, ascending, and
        (element, base, counts) for element 0 and the elements of
        codimension >= 2: base is the codimension minus one, plus one for
        element 0, and counts[i] is how many of the element's hyperplanes
        have the i-th multiplicity.

        A hyperplane element's closure is its one hyperplane (proportional
        normals are rejected), so its residue sum r_i / d is below one and
        its twist coefficient is 1 - 0 - 1 = 0 for every k.
        """
        bs, mults = self.building, [h.mult for h in self.arrangement.hyperplanes]
        distinct = tuple(sorted(set(mults)))
        rows = [(0, bs.n, tuple(map(mults.count, distinct)))]
        # by ascending dimension, the hyperplane elements come last
        for v, c in enumerate(bs.codims[1:], start=1):
            if c == 1:
                break
            own = [mults[i] for i in bs.closures[v]]
            rows.append((v, c - 1, tuple(map(own.count, distinct))))
        return distinct, tuple(rows)

    def _shifts(self, k: int) -> tuple[int, ...]:
        """The twist class of the k-th eigenvalue: `a_coeff` of element 0 and
        of each element of codimension >= 2, in the order of `_twisted`'s
        rows, in integers; no range check.

        With r_i = (-k * m_i) mod d, floor(s_v) is (sum of r_i over v) // d,
        summed as count * r over the distinct multiplicities, not over the
        hyperplanes.
        """
        d = self.degree
        mults, rows = self._twisted
        r = [-k * m % d for m in mults]
        return tuple([base - sum(map(mul, counts, r)) // d for _, base, counts in rows])

    def twist_key(self, k: int) -> tuple[int, ...]:
        """`a_coeff` of every element for the k-th eigenvalue, in integers:
        the class `_shifts(k)` spread over the elements, with zero at every
        hyperplane element.  Raises ValueError unless k is an int in 1..degree.
        """
        _check_index("eigenvalue index", k, 1, self.degree)
        key = [0] * self.building.size
        for (v, _, _), a in zip(self._twisted[1], self._shifts(k)):
            key[v] = a
        return tuple(key)

    def twist(self, k: int) -> QuotientElement:
        """`twist_exp` of the k-th eigenvalue in the quotient, computed once per twist class.

        Raises ValueError unless k is an int in 1..degree.
        """
        _check_index("eigenvalue index", k, 1, self.degree)
        return self._class_twist(self._shifts(k))

    def _class_twist(self, shifts: tuple[int, ...]) -> QuotientElement:
        """The exponential of the divisor sum with the class's shifts, cached by class."""
        got = self._twists.get(shifts)
        if got is None:
            # the hyperplane elements' coefficients are zero
            coeffs = {v: a for (v, _, _), a in zip(self._twisted[1], shifts)}
            got = self._twists[shifts] = self.ideal.exp_linear(coeffs)
        return got


def choose_building(lattice: IntersectionLattice, building_closures=None) -> BuildingSet:
    """The building set that `building_closures` names.

    None gives the irreducible flats, the smallest set and the cheapest
    ring; "maximal" gives every proper flat; a list of closure sets gives
    those flats, checked against the building-set axiom.  Any building set
    gives a log resolution, and the spectrum is the same on each
    (De Concini-Procesi 1995).
    """
    if building_closures is None:
        return minimal_building(lattice)
    if building_closures == "maximal":
        return maximal_building(lattice)
    return building_from_closures(lattice, building_closures)


def prepare(arrangement: Arrangement, building_closures=None) -> SpectrumSetup:
    """The setup of the arrangement's spectrum, on the building set that
    `choose_building` makes of `building_closures`: by default the minimal
    one, else "maximal" or the listed closure sets.

    An input of rank 2 <= r < n is computed on its essentialization, which
    has the same lattice in C^r.  A single hyperplane (r = 1) keeps its own
    lattice: in C^1 its ring would have degree 0, and the ring's `_powers`
    reads degree 1.
    """
    lattice = build_lattice(arrangement)
    core = lattice
    if 2 <= lattice.flats[-1].codim < arrangement.n:
        core = essentialization(lattice)
    bs = choose_building(core, building_closures)
    ideal = ideal_generators(bs)
    return SpectrumSetup(arrangement, lattice, bs, ideal, char_classes(bs, ideal))


def multiplicity(setup: SpectrumSetup, k: int, p: int) -> int:
    """Spectrum multiplicity of the exponent k/d + p.  Exact integer."""
    n, d = setup.n, setup.degree
    _check_index("eigenvalue index", k, 1, d)
    _check_index("integer part", p, 0, n - 1)
    if k == d and p == n - 1:
        raise ValueError("the exponent n is excluded from the spectrum")
    if p < setup.lift:
        return 0
    return _cell(_factor(setup, p), setup.twist(k), k)


def _factor(setup: SpectrumSetup, p: int) -> tuple[int, list[int], int, int]:
    """(p, covector, denominator, sign) of the cells at p >= lift.

    The ring's degree q = n - 1 - p is the same for the input and its
    essentialization, where the cell is the core cell at p - lift, signed
    by (-1)^lift.
    """
    q = setup.n - 1 - p
    return (p, *setup.covector(q), (-1) ** (q + setup.lift))


def _cell(factor: tuple[int, list[int], int, int], twist: QuotientElement, k: int) -> int:
    """The multiplicity of k/d + p, given the factor at p and the k-th twist:
    one dot product of the covector of ch * Todd with the twist, checked to
    be an exact integer."""
    p, u, den, sign = factor
    den *= twist.den
    total = sum(map(mul, u, twist.num)) * sign
    if total % den:
        raise StructureError(
            f"non-integral multiplicity {Fraction(total, den)} at k={k}, p={p}"
        )
    return total // den


@dataclass(frozen=True, slots=True)
class SpectralPoint:
    """One spectrum entry: exponent, multiplicity, and its (k, p) provenance."""

    alpha: Fraction
    mult: int
    k: int
    p: int


@dataclass(frozen=True)
class SpectrumResult:
    degree: int
    points: tuple[SpectralPoint, ...]
    # the output document's "warnings" list; every input is computed alike
    warnings: tuple[str, ...] = ()

    def as_pairs(self) -> list[tuple[Fraction, int]]:
        return [(pt.alpha, pt.mult) for pt in self.points]


def spectrum_from_setup(setup: SpectrumSetup) -> SpectrumResult:
    n, d = setup.n, setup.degree
    # every cell with p < lift is zero
    factors = [_factor(setup, p) for p in range(setup.lift, n)]
    # twist class -> its row of cells, one per factor; cells[k - 1] is k's
    # row.  The exponent n (k = d, p = n - 1) is excluded, and k = d comes
    # last, so its class's row stops short of it unless an earlier k shares it
    rows: dict[tuple[int, ...], list[int]] = {}
    cells = []
    for k in range(1, d + 1):
        shifts = setup._shifts(k)
        row = rows.get(shifts)
        if row is None:
            twist = setup._class_twist(shifts)
            row = rows[shifts] = [_cell(f, twist, k) for f in factors[: len(factors) - (k == d)]]
        cells.append(row)
    # by ascending exponent k/d + p
    points = []
    for i, p in enumerate(range(setup.lift, n)):
        for k, row in enumerate(cells[: d - (p == n - 1)], start=1):
            if m := row[i]:
                points.append(SpectralPoint(Fraction(k + p * d, d), m, k, p))
    return SpectrumResult(d, tuple(points))


def spectrum(arrangement: Arrangement, building_closures=None) -> SpectrumResult:
    """Hodge spectrum of the arrangement, sorted by exponent.

    `building_closures` selects the building set as in `prepare`; the
    default, the minimal set, is the cheapest, and every choice gives the
    same spectrum.
    """
    return spectrum_from_setup(prepare(arrangement, building_closures))
