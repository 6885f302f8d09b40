"""Assembly of the Hodge spectrum from lattice data.

For each eigenvalue index k (1 <= k <= d, d the total degree) there is a
tuple of residues, one per hyperplane, and from them one integer shift
per building-set element.  Each candidate exponent alpha = k/d + p with
0 <= p < n (excluding exactly k = d, p = n - 1) gets the multiplicity

    (-1)^(n-1-p) * [ ch(dual (n-1-p)-th exterior power) * exp(shifts) * Todd ]

evaluated against the class of a point.  Nonzero multiplicities form the
spectrum; every candidate is an exact integer, which is asserted.

Every class lives in the quotient ring, as a normal form over its
standard monomials: the product ch * Todd is computed once per p and the
exponential once per distinct vector of shifts, both cached on the
`SpectrumSetup`, and each cell pairs the two with `pair_top`, forming
only the top-degree part of their product.  The shifts are computed in
integers, once per k and p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

from .arrangement import (
    Arrangement,
    IntersectionLattice,
    StructureError,
    build_lattice,
)
from .chern import CharClasses, char_classes
from .nested import BuildingSet, building_from_closures, maximal_building
from .ring import GradedPoly, IdealPresentation, ideal_generators, pair_top


@dataclass(frozen=True)
class EigenData:
    """Residues of one monodromy eigenvalue: index k and one value per hyperplane."""

    k: int
    residues: tuple[Fraction, ...]


def beta(arrangement: Arrangement, k: int) -> EigenData:
    """Residue data for the k-th eigenvalue, 1 <= k <= degree."""
    d = arrangement.degree
    if not 1 <= k <= d:
        raise ValueError(f"eigenvalue index {k} out of range 1..{d}")
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


def _linear_form(coeffs, bs: BuildingSet) -> GradedPoly:
    """The divisor sum of coeffs[v] * c_v, as a degree-1 polynomial."""
    nv = bs.size
    units = {tuple(int(j == v) for j in range(nv)): a for v, a in enumerate(coeffs) if a}
    return GradedPoly(nv, bs.n - 1, units)


def twist_exp(bs: BuildingSet, eig: EigenData) -> GradedPoly:
    """exp of the divisor with the integer twist coefficients, in the free ring."""
    return _linear_form([a_coeff(bs, v, eig) for v in range(bs.size)], bs).exp()


def _check_p(p: int, n: int) -> None:
    if not 0 <= p <= n - 1:
        raise ValueError(f"integer part {p} out of range 0..{n - 1}")


def r_alpha(classes: CharClasses, eig: EigenData, p: int) -> GradedPoly:
    """Integrand class for the exponent k/d + p, before the Todd factor."""
    n = classes.building.n
    _check_p(p, n)
    return classes.dual_ch[n - 1 - p] * twist_exp(classes.building, eig)


@dataclass
class SpectrumSetup:
    """Everything derived from the arrangement that the formula consumes.

    The spectrum reads only the `quotient` classes; the free-ring
    `classes` are computed on first access.
    """

    arrangement: Arrangement
    lattice: IntersectionLattice
    building: BuildingSet
    ideal: IdealPresentation
    quotient: CharClasses
    _classes: CharClasses | None = field(default=None, init=False, repr=False, compare=False)
    # per-cell factors, filled on first use
    _ch_todd: dict[int, GradedPoly] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _twists: dict[tuple[int, ...], GradedPoly] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.arrangement.n

    @property
    def degree(self) -> int:
        return self.arrangement.degree

    @property
    def classes(self) -> CharClasses:
        """The characteristic classes as free-ring polynomials."""
        if self._classes is None:
            self._classes = char_classes(self.building)
        return self._classes

    def ch_todd(self, q: int) -> GradedPoly:
        """ch(dual q-th exterior power) * Todd in the quotient, computed once per q."""
        got = self._ch_todd.get(q)
        if got is None:
            cl = self.quotient
            got = self._ch_todd[q] = self.ideal.mul(cl.dual_ch[q], cl.todd)
        return got

    def twist_key(self, k: int) -> tuple[int, ...]:
        """`a_coeff` of every element for the k-th eigenvalue, in integers.

        With r_i = (-k * m_i) mod d, floor(s_v) is (sum of r_i over v) // d.
        Raises ValueError for k outside 1..degree.
        """
        d, bs = self.degree, self.building
        if not 1 <= k <= d:
            raise ValueError(f"eigenvalue index {k} out of range 1..{d}")
        r = [(-k * h.mult) % d for h in self.arrangement.hyperplanes]
        return (bs.n - sum(r) // d,) + tuple(
            bs.codims[v] - sum(r[i] for i in bs.closures[v]) // d - 1 for v in range(1, bs.size)
        )

    def twist(self, k: int) -> GradedPoly:
        """`twist_exp` of the k-th eigenvalue in the quotient, computed once per twist vector.

        Raises ValueError for k outside 1..degree.
        """
        key = self.twist_key(k)
        got = self._twists.get(key)
        if got is None:
            lin = _linear_form(key, self.building)
            got = self._twists[key] = lin.exp(self.ideal.mul)
        return got


def prepare(arrangement: Arrangement, building_closures=None) -> SpectrumSetup:
    lattice = build_lattice(arrangement)
    if building_closures is None:
        bs = maximal_building(lattice)
    else:
        bs = building_from_closures(lattice, building_closures)
    ideal = ideal_generators(bs)
    return SpectrumSetup(arrangement, lattice, bs, ideal, char_classes(bs, ideal))


def multiplicity(setup: SpectrumSetup, k: int, p: int) -> int:
    """Spectrum multiplicity of the exponent k/d + p.  Exact integer."""
    n, d = setup.n, setup.degree
    if k == d and p == n - 1:
        raise ValueError("the exponent n is excluded from the spectrum")
    twist = setup.twist(k)
    _check_p(p, n)
    q = n - 1 - p
    value = pair_top(setup.ch_todd(q), twist, setup.ideal) * (-1) ** q
    if value.denominator != 1:
        raise StructureError(
            f"non-integral multiplicity {value} at k={k}, p={p}"
        )
    return int(value)


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
    warnings: tuple[str, ...]

    def as_pairs(self) -> list[tuple[Fraction, int]]:
        return [(pt.alpha, pt.mult) for pt in self.points]


def spectrum_from_setup(setup: SpectrumSetup) -> SpectrumResult:
    n, d = setup.n, setup.degree
    points = [
        SpectralPoint(Fraction(k, d) + p, m, k, p)
        for k in range(1, d + 1)
        for p in range(n)
        if not (k == d and p == n - 1) and (m := multiplicity(setup, k, p))
    ]
    points.sort(key=lambda pt: pt.alpha)

    warnings = []
    if not setup.lattice.is_essential:
        warnings.append(
            "non-essential arrangement: computed from the formula as written, "
            "but not validated against known examples"
        )
    return SpectrumResult(d, tuple(points), tuple(warnings))


def spectrum(arrangement: Arrangement, building_closures=None) -> SpectrumResult:
    """Hodge spectrum of the arrangement, sorted by exponent."""
    return spectrum_from_setup(prepare(arrangement, building_closures))
