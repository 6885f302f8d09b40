"""Truncated polynomial calculus for the cohomology of the log resolution.

`GradedPoly` is a sparse polynomial with rational coefficients in one
variable per building-set element, with every term of total degree above
the truncation bound (ambient dimension minus one) discarded.  Dropping
those terms is harmless: the relation ideal is homogeneous and the
quotient vanishes above the bound, and all reductions happen degree by
degree.

`IdealPresentation` presents the quotient by the relation ideal degree
by degree.  A monomial whose support (the formal element 0 aside) is not
a nested set is zero in the quotient, so the columns of each degree are
only the monomials with nested support, and the ideal is spanned there by
one family of generators: for every nested subset H and every element W
strictly below all of H, the product of the H variables times the
(dimension-drop)-th power of the sum of the variables at or below W.
Terms of their multiples with non-nested support are dropped.

The quotient's basis is the standard monomials, the columns without a
pivot.  `normal_form` rewrites a polynomial monomial by monomial from a
per-ideal memo, and `mul` rewrites the truncated product of two normal
forms the same way, so the memo holds the ring's structure constants.

The top-degree quotient has rank one, so reduction against the top slice
is a linear functional: each top monomial is a rational multiple of the
class of a point.  `point_functional` tabulates those multiples once;
`reduce_top` is a dot product with the table, and `pair_top` evaluates a
product the same way while forming only its top-degree terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from operator import add

from .arrangement import StructureError
from .linalg import EchelonBasis
from .nested import BuildingSet, d_value, enumerate_nested

_ZERO = Fraction(0)
_ONE = Fraction(1)

Monomial = tuple[int, ...]


class GradedPoly:
    """Sparse truncated polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("nvars", "trunc", "terms")

    def __init__(self, nvars: int, trunc: int, terms=None) -> None:
        self.nvars = nvars
        self.trunc = trunc
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono!r} does not have {nvars} exponents")
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c and sum(mono) <= trunc:
                clean[mono] = c
        self.terms = clean

    # construction helpers

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "GradedPoly":
        return cls(nvars, trunc)

    @classmethod
    def constant(cls, value, nvars: int, trunc: int) -> "GradedPoly":
        return cls(nvars, trunc, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, i: int, nvars: int, trunc: int) -> "GradedPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range 0..{nvars - 1}")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, trunc, {mono: _ONE})

    def _like(self, terms: dict[Monomial, Fraction]) -> "GradedPoly":
        p = GradedPoly.__new__(GradedPoly)
        p.nvars, p.trunc, p.terms = self.nvars, self.trunc, terms
        return p

    def _compat(self, other: "GradedPoly") -> None:
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ValueError("polynomials live in different rings")

    def _by_degree(self) -> list[list[tuple[Monomial, Fraction]]]:
        """Terms grouped by total degree: entry j holds the degree-j terms."""
        buckets: list[list[tuple[Monomial, Fraction]]] = [[] for _ in range(self.trunc + 1)]
        for mono, c in self.terms.items():
            buckets[sum(mono)].append((mono, c))
        return buckets

    # ring operations

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(other, self.nvars, self.trunc)
        self._compat(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            nv = out.get(mono, _ZERO) + c
            if nv:
                out[mono] = nv
            else:
                out.pop(mono, None)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return GradedPoly.zero(self.nvars, self.trunc)
            return self._like({m: v * c for m, v in self.terms.items()})
        self._compat(other)
        right = other._by_degree()
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            # only right-hand degrees that keep the product within the bound
            for bucket in right[: self.trunc + 1 - sum(ma)]:
                for mb, cb in bucket:
                    mono = tuple(map(add, ma, mb))
                    nv = out.get(mono, _ZERO) + ca * cb
                    if nv:
                        out[mono] = nv
                    else:
                        out.pop(mono, None)
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GradedPoly":
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k < 0:
            return self.geom_inv() ** (-k)
        result = GradedPoly.constant(1, self.nvars, self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPoly)
            and self.nvars == other.nvars
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    __hash__ = None

    # series operations

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, _ZERO)

    def geom_inv(self) -> "GradedPoly":
        """Multiplicative inverse, by geometric series on the non-constant part."""
        a = self.constant_term
        if not a:
            raise ValueError("constant term has no rational inverse")
        rest = self - a  # strictly positive degrees
        step = rest * (-1 / a)
        out = GradedPoly.constant(1 / a, self.nvars, self.trunc)
        power = GradedPoly.constant(1 / a, self.nvars, self.trunc)
        for _ in range(self.trunc):
            power = power * step
            if not power.terms:
                break
            out = out + power
        return out

    def exp(self, mul=None) -> "GradedPoly":
        """Truncated exponential; requires zero constant term.

        `mul` multiplies the powers: free by default, `IdealPresentation.mul`
        in the quotient.
        """
        if self.constant_term:
            raise ValueError("exp needs a zero constant term")
        mul = mul or GradedPoly.__mul__
        out = GradedPoly.constant(1, self.nvars, self.trunc)
        power = GradedPoly.constant(1, self.nvars, self.trunc)
        for k in range(1, self.trunc + 1):
            power = mul(power, self)
            if not power.terms:
                break
            out = out + power * Fraction(1, factorial(k))
        return out

    # graded structure

    def graded_part(self, j: int) -> "GradedPoly":
        return self._like({m: c for m, c in self.terms.items() if sum(m) == j})

    def graded_parts(self) -> list["GradedPoly"]:
        return [self.graded_part(j) for j in range(self.trunc + 1)]

    def adams(self, k: int) -> "GradedPoly":
        """Adams operation psi^k on a Chern character: scale degree i by k^i."""
        scaled = {m: c * k ** sum(m) for m, c in self.terms.items()}
        return GradedPoly(self.nvars, self.trunc, scaled)

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), tuple(-e for e in m))):
            c = self.terms[mono]
            factors = [
                f"c{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e
            ]
            body = "*".join(factors)
            if not body:
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        out = " + ".join(bits).replace("+ -", "- ")
        return out


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """Degree-`degree` monomials, lexicographically largest first."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    out.sort(reverse=True)
    return out


@dataclass
class IdealPresentation:
    """Per-degree echelon bases of the relation ideal of the resolution ring.

    `monomials[j]` lists the degree-j columns, the monomials with nested
    support; `spans[j]` is the ideal's degree-j slice in those columns.
    The columns without a pivot are the standard monomials, a basis of
    the quotient.
    """

    building: BuildingSet
    generators: list[GradedPoly]
    spans: list[EchelonBasis]
    monomials: list[list[Monomial]]
    index: list[dict[Monomial, int]] = field(init=False, repr=False)
    _point: dict[Monomial, Fraction] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # monomial -> its normal form, as (standard monomial, coefficient) pairs
    _forms: dict[Monomial, tuple[tuple[Monomial, Fraction], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.index = [{m: i for i, m in enumerate(ms)} for ms in self.monomials]

    @property
    def trunc(self) -> int:
        return self.building.n - 1

    @property
    def quotient_ranks(self) -> list[int]:
        return [len(ms) - sp.rank for ms, sp in zip(self.monomials, self.spans)]

    def _form(self, mono: Monomial) -> tuple[tuple[Monomial, Fraction], ...]:
        """Normal form of one monomial, memoized: zero if not nested, itself
        if standard, else minus the rest of its reduced row (all standard)."""
        got = self._forms.get(mono)
        if got is None:
            j = sum(mono)
            i = self.index[j].get(mono)
            row = None if i is None else self.spans[j].rows.get(i)
            if row is not None:
                monos = self.monomials[j]
                got = tuple((monos[c], -v) for c, v in row.items() if c != i)
            else:
                got = () if i is None else ((mono, _ONE),)
            self._forms[mono] = got
        return got

    def normal_form(self, poly: GradedPoly) -> GradedPoly:
        """`poly` modulo the ideal, written over the standard monomials."""
        _check_ring(poly, self)
        out: dict[Monomial, Fraction] = {}
        for mono, c in poly.terms.items():
            for std, v in self._form(mono):
                nv = out.get(std, _ZERO) + c * v
                if nv:
                    out[std] = nv
                else:
                    del out[std]
        return poly._like(out)

    def mul(self, a: GradedPoly, b: GradedPoly) -> GradedPoly:
        """Normal form of `a * b`: the truncated product, rewritten by the memo."""
        return self.normal_form(a * b)

    def point_functional(self) -> dict[Monomial, Fraction]:
        """Top monomial -> its multiple of the point class (-c_0)^(n-1).

        With a rank-one top quotient every top normal form is a multiple
        of the one standard top monomial.  Monomials that reduce to zero
        are left out.
        """
        if self._point is None:
            top = self.trunc
            if self.quotient_ranks[top] != 1:
                raise StructureError("top residue is not a multiple of the point class")
            point = self._form((top,) + (0,) * (self.building.size - 1))
            if not point:
                raise StructureError("the class of a point reduces to zero")
            unit = point[0][1] * (-1) ** top
            forms = ((m, self._form(m)) for m in self.monomials[top])
            self._point = {m: form[0][1] / unit for m, form in forms if form}
        return self._point


def _support(mono: Monomial) -> frozenset[int]:
    """Variables of positive exponent, the formal element 0 aside."""
    return frozenset(i for i, e in enumerate(mono) if e and i)


def ideal_generators(bs: BuildingSet) -> IdealPresentation:
    """Relation ideal of the building set, presented degree by degree.

    The columns of degree j are the degree-j monomials with nested
    support; every other monomial is zero in the quotient.  Only
    generators of total degree up to the truncation bound are emitted;
    higher ones vanish in the truncated ring and cannot affect any degree
    slice kept here.
    """
    nv = bs.size
    trunc = bs.n - 1
    nested = enumerate_nested(bs, trunc)
    gens: list[GradedPoly] = []

    def var(i: int) -> GradedPoly:
        return GradedPoly.variable(i, nv, trunc)

    for subset in nested:
        elems = sorted(subset)
        base = GradedPoly.constant(1, nv, trunc)
        for e in elems:
            base = base * var(e)
        for w in range(nv):
            if not all(bs.lt(w, v) for v in elems):
                continue
            drop = d_value(bs, elems, w)
            if len(elems) + drop > trunc:
                continue
            inner = GradedPoly.zero(nv, trunc)
            for wp in range(nv):
                if bs.leq(wp, w):
                    inner = inner + var(wp)
            gens.append(base * inner**drop)

    supports = set(nested)
    monomials = [
        [m for m in monomials_of_degree(nv, j) if _support(m) in supports]
        for j in range(trunc + 1)
    ]
    ideal = IdealPresentation(bs, gens, [EchelonBasis() for _ in range(trunc + 1)], monomials)
    for j, (span, index) in enumerate(zip(ideal.spans, ideal.index)):
        for g in gens:
            dg = g.degree()
            if dg > j or not g.terms:
                continue
            for mono in monomials[j - dg]:
                # terms with non-nested support are zero and have no column
                shifted = {
                    i: c
                    for m, c in g.terms.items()
                    if (i := index.get(tuple(map(add, mono, m)))) is not None
                }
                span.insert(shifted)

    if ideal.quotient_ranks[trunc] != 1:
        raise StructureError(
            f"top cohomology not rank 1 (got {ideal.quotient_ranks[trunc]})"
        )
    return ideal


def _check_ring(poly: GradedPoly, ideal: IdealPresentation) -> None:
    if poly.nvars != ideal.building.size or poly.trunc != ideal.trunc:
        raise ValueError("polynomial does not match the ideal's ring")


def reduce_top(poly: GradedPoly, ideal: IdealPresentation) -> Fraction:
    """Coefficient of the point class in the top-degree part of `poly`."""
    _check_ring(poly, ideal)
    point = ideal.point_functional()
    # the functional's keys are top-degree monomials only
    return sum((c * point[m] for m, c in poly.terms.items() if m in point), _ZERO)


def pair_top(a: GradedPoly, b: GradedPoly, ideal: IdealPresentation) -> Fraction:
    """`reduce_top(a * b, ideal)`, forming only the top-degree terms of the product."""
    _check_ring(a, ideal)
    _check_ring(b, ideal)
    point = ideal.point_functional()
    top = ideal.trunc
    right = b._by_degree()
    total = _ZERO
    for ma, ca in a.terms.items():
        acc = _ZERO
        for mb, cb in right[top - sum(ma)]:
            w = point.get(tuple(map(add, ma, mb)))
            if w:
                acc += cb * w
        if acc:
            total += ca * acc
    return total


def ideal_membership(poly: GradedPoly, ideal: IdealPresentation) -> bool:
    """Whether `poly` lies in the ideal: its normal form is zero."""
    return not ideal.normal_form(poly).terms
