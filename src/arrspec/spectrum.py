"""Assembly of the Hodge spectrum from lattice data.

For each eigenvalue index k (1 <= k <= d, d the total degree) there is a
tuple of residues, one per hyperplane, and from them one integer shift
per building-set element.  Each candidate exponent alpha = k/d + p with
0 <= p < n (excluding exactly k = d, p = n - 1) gets the multiplicity

    (-1)^(n-1-p) * [ ch(dual (n-1-p)-th exterior power) * exp(shifts) * Todd ]

evaluated against the class of a point.  Nonzero multiplicities form the
spectrum; every candidate is an exact integer, which is asserted.

The spectrum depends only on the lattice and the multiplicities, so an
input of rank 2 <= r < n is computed on its essentialization in C^r,
which has the same lattice and a ring of dimension r - 1 instead of
n - 1.  With lift = n - r, the input's cell at p is (-1)^lift times the
core's cell at p - lift, and every cell with p < lift is zero.

Every class is a `QuotientElement`, in the quotient ring over its
standard-monomial basis.  The product ch * Todd is computed once per p
and kept only as its pairing covector u, an integer row over the whole
basis read from the ring's structure-constant table, with the
denominator alongside; the exponential of the divisor sum of shifts is
computed once per distinct vector of shifts, in integers.  Both are
cached on the `SpectrumSetup`, and the divisor sum is an integer
combination of the variables' degree-one normal forms.  Each cell is
then one integer dot product u . t over the two denominators, without
forming the product of the two classes.  The shifts are computed in
integers, once per k, and only for element 0 and the elements of
codimension >= 2: a hyperplane element never shifts.
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
from .nested import BuildingSet, building_from_closures, maximal_building
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
    # per-cell factors, filled on first use: q -> (covector, denominator)
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
    def _twisted(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(element, codimension, closure) for the elements of codimension >= 2.

        A hyperplane element's closure is its one hyperplane (proportional
        normals are rejected), so its residue sum r_i / d is below one and
        its twist coefficient is 1 - 0 - 1 = 0 for every k.
        """
        bs = self.building
        return tuple(
            (v, bs.codims[v], bs.closures[v]) for v in range(1, bs.size) if bs.codims[v] > 1
        )

    def twist_key(self, k: int) -> tuple[int, ...]:
        """`a_coeff` of every element for the k-th eigenvalue, in integers.

        With r_i = (-k * m_i) mod d, floor(s_v) is (sum of r_i over v) // d.
        Only element 0 and the elements of codimension >= 2 are summed; the
        hyperplane elements are zero.  Raises ValueError unless k is an int
        in 1..degree.
        """
        d, bs = self.degree, self.building
        _check_index("eigenvalue index", k, 1, d)
        r = [(-k * h.mult) % d for h in self.arrangement.hyperplanes]
        get = r.__getitem__
        key = [0] * bs.size
        key[0] = bs.n - sum(r) // d
        for v, c, cl in self._twisted:
            key[v] = c - sum(map(get, cl)) // d - 1
        return tuple(key)

    def twist(self, k: int) -> QuotientElement:
        """`twist_exp` of the k-th eigenvalue in the quotient, computed once per twist vector.

        Raises ValueError unless k is an int in 1..degree.
        """
        key = self.twist_key(k)
        got = self._twists.get(key)
        if got is None:
            # the hyperplane elements' coefficients are zero
            coeffs = {0: key[0]} | {v: key[v] for v, _, _ in self._twisted}
            got = self._twists[key] = self.ideal.linear(coeffs).exp()
        return got


def choose_building(lattice: IntersectionLattice, building_closures) -> BuildingSet:
    """The maximal building set, or the one the closure sets list, checked."""
    if building_closures is None:
        return maximal_building(lattice)
    return building_from_closures(lattice, building_closures)


def prepare(arrangement: Arrangement, building_closures=None) -> SpectrumSetup:
    """The setup of the arrangement's spectrum, with the maximal building set
    or the one the closure sets list.

    An input of rank 2 <= r < n is computed on its essentialization, which
    has the same lattice in C^r.  A single hyperplane (r = 1) keeps its own
    lattice, because an arrangement needs n >= 2.
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
    return _pair_cell(setup, setup.twist(k), k, p)


def _pair_cell(setup: SpectrumSetup, twist: QuotientElement, k: int, p: int) -> int:
    """The multiplicity of k/d + p, given the k-th twist; no range checks.

    One dot product of the cached covector of ch * Todd with the twist.
    The ring's degree q = n - 1 - p is the same for the input and its
    essentialization, where the cell is the core cell at p - lift, signed
    by (-1)^lift; p >= lift.
    """
    q = setup.n - 1 - p
    u, den = setup.covector(q)
    den *= twist.den
    total = sum(map(mul, u, twist.num)) * (-1) ** (q + setup.lift)
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
    twists = [setup.twist(k) for k in range(1, d + 1)]
    points = []
    # by ascending exponent k/d + p; the exponent n (k = d, p = n - 1) is
    # excluded, and every cell with p < lift is zero
    for p in range(setup.lift, n):
        for k, twist in enumerate(twists[: d - (p == n - 1)], start=1):
            if m := _pair_cell(setup, twist, k, p):
                points.append(SpectralPoint(Fraction(k + p * d, d), m, k, p))
    return SpectrumResult(d, tuple(points))


def spectrum(arrangement: Arrangement, building_closures=None) -> SpectrumResult:
    """Hodge spectrum of the arrangement, sorted by exponent."""
    return spectrum_from_setup(prepare(arrangement, building_closures))
