"""Characteristic classes on the log resolution, in the free ring or the quotient.

In K-theory the tangent bundle of the resolution is a signed sum of line
bundles, up to trivial summands.  `tangent_roots` lists their first Chern
classes with multiplicities, the virtual Chern roots: n copies of -c_0,
then for each further building-set element v of codimension r, -r copies
of its strict root (minus the sum of the variables strictly below v), one
copy of its unit root c_v, and r copies of its weak root (minus the sum of
the variables weakly below v).  The dual of the sheaf of logarithmic
one-forms has the same roots without the c_v.  In the quotient a root's
powers stop at the first zero one (a weak root's r-th power is zero).

Every class is read off the power sums P_k = sum of m * x^k over the
roots (m, x).  A multiplicative class with series g is
exp(sum_k (log g)_k P_k): the total Chern class takes g = 1 + x, the Todd
class g = Q(x) = x / (1 - exp(-x)).  A bundle of rank r has Chern
character r + sum_k P_k / k!.  The Chern characters of the exterior
powers of the dual log forms follow from the lambda-ring Newton identity

    lambda^p = (1/p) * sum_{j=1..p} (-1)^(j-1) psi^j * lambda^(p-j),

where the Adams operation psi^j scales the degree-i part by j^i.  The
series coefficients depend only on n - 1 and are computed once for each.

Every root is an integer combination of the variables, handed to the
ring as a sparse map {variable: coefficient} that names only the
variables it uses: minus the variables of a set (c_0 alone, or the
elements strictly or weakly below v), or c_v alone.  `char_classes` has
two bodies.  Without the relation ideal it computes free-ring
`GradedPoly`s by products, its power sums from `_power_sums` over
`_dual_log_roots` and `_unit_roots`: the tests' reference.  Given the
ideal, `_quotient_classes` works on integer numerator lists over
denominators known in advance, through the ring's structure-constant
product (`IdealPresentation._product`), and builds one `QuotientElement`
per returned class, at the end: the power sums' numerators are over 1,
ch's over t! (t = n - 1), lambda^p's divide p! * (t!)^p, and Todd's
exponent is over the lcm of the log-Todd coefficients.  Its power sums
come from one table (`_quotient_roots`) that keys each root by its set
and gives it two multiplicities, dual log and tangent, and that drops
what the quotient makes redundant.  Nothing lies above a hyperplane
element v, so the Feichtner-Yuzvinsky relation x_v = -(sum of x_u over
u below v) holds (Invent. Math. 155, 2004): v's weak root is zero and is
never built, and its unit root c_v equals its strict root, so in the
tangent it cancels the strict root's -1.  `IdealPresentation.power_sums`
then takes one pass of the ring's sparse kernel per root class with a
nonzero multiplicity and adds each power into both lists.  Hyperplanes
with the same elements below share a class: in C^2 every strict root is
-c_0, so there the kernel runs once, however many lines there are.  The
total and log Chern classes are built from the stored power sums, in
element arithmetic, when first read; the spectrum reads neither.

`ch_dual_exterior_roots` is kept as an independent route to the same
Chern characters: it expands the exponential sums over formal roots,
rewrites them in elementary symmetric functions and substitutes the
graded parts of the log Chern class, in whichever ring that class lives.
The expansion depends only on the number of roots and p, so it is
computed once for each pair.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import combinations
from math import factorial, lcm
from operator import mul

from .arrangement import StructureError
from .nested import BuildingSet
from .ring import GradedPoly, IdealPresentation, QuotientElement

_ZERO = Fraction(0)
_ONE = Fraction(1)

# a class in the free ring or in the quotient
Element = GradedPoly | QuotientElement


def q_series(deg: int) -> list[Fraction]:
    """Coefficients of Q(x) = x / (1 - exp(-x)) through degree `deg`."""
    # 1 - exp(-x) = x * E(x) with E(k-th coefficient) = (-1)^k / (k+1)!
    e = [Fraction((-1) ** k, factorial(k + 1)) for k in range(deg + 1)]
    q = [_ONE]
    for k in range(1, deg + 1):
        q.append(-sum((e[i] * q[k - i] for i in range(1, k + 1)), _ZERO))
    return q


def series_log(coeffs: list[Fraction]) -> list[Fraction]:
    """Coefficients of log g for the series g with the given coefficients.

    g must have constant term 1.  From g' = (log g)' * g, the k-th
    coefficient l_k of log g satisfies k*g_k = sum_{i=1..k} i*l_i*g_(k-i).
    """
    if coeffs[0] != 1:
        raise ValueError("series log needs constant term 1")
    out = [_ZERO]
    for k in range(1, len(coeffs)):
        rest = sum((i * out[i] * coeffs[k - i] for i in range(1, k)), _ZERO)
        out.append(coeffs[k] - rest / k)
    return out


def tangent_roots(bs: BuildingSet, linear=None) -> list[tuple[int, Element]]:
    """Virtual Chern roots of the resolution's tangent bundle.

    A list of (multiplicity, first Chern class) pairs; the total Chern
    class is the product of (1 + x)^m over them.  `linear` turns a sparse
    map {variable: integer coefficient} into a class; by default a
    free-ring `GradedPoly`.
    """
    linear = linear or partial(GradedPoly.linear, nvars=bs.size, trunc=bs.n - 1)
    return _dual_log_roots(bs, linear) + _unit_roots(bs, linear)


def _dual_log_roots(bs: BuildingSet, linear) -> list[tuple[int, Element]]:
    """The roots of the dual log forms, the tangent roots without the c_v,
    with the multiplicities of equal roots summed.

    Each root is minus the sum of the variables of a set, and is keyed by it.
    """
    mults = {frozenset((0,)): bs.n}
    for v in range(1, bs.size):
        r, strict = bs.codims[v], bs.below[v]
        mults[strict] = mults.get(strict, 0) - r
        weak = strict | {v}
        mults[weak] = mults.get(weak, 0) + r
    return [(m, linear(dict.fromkeys(s, -1))) for s, m in mults.items() if m]


def _unit_roots(bs: BuildingSet, linear) -> list[tuple[int, Element]]:
    """c_v once for each element v > 0."""
    return [(1, linear({v: 1})) for v in range(1, bs.size)]


def _quotient_roots(bs: BuildingSet) -> list[tuple[tuple[int, int], dict[int, int]]]:
    """The dual log and tangent roots as they count in the quotient, in one
    table of ((dual log, tangent) multiplicities, sparse map) pairs.

    A hyperplane element v has no element above it, so its relation is
    x_v = -(sum of x_u over u below v): its weak root is zero and is left
    out, and its unit root c_v equals its strict root, so it is counted
    under that key in the tangent, where it cancels the strict root's -1.
    Only the elements of codimension 2 or more keep a unit root {v: 1}.
    """
    mults = {frozenset((0,)): [bs.n, bs.n]}
    units = []
    for v in range(1, bs.size):
        r, strict = bs.codims[v], bs.below[v]
        m = mults.setdefault(strict, [0, 0])
        m[0] -= r
        if r == 1:
            continue
        m[1] -= r
        weak = mults.setdefault(strict | {v}, [0, 0])
        weak[0] += r
        weak[1] += r
        units.append(v)
    roots = [(tuple(m), dict.fromkeys(s, -1)) for s, m in mults.items()]
    return roots + [((0, 1), {v: 1}) for v in units]


def _power_sums(roots: list[tuple[int, Element]], trunc: int, zero: Element) -> list[Element]:
    """P_k = sum of m * x^k over the roots, for k = 0 .. trunc (P_0 is left zero).

    A root's powers stop at its first zero power, so a zero root adds nothing.
    """
    sums = [zero] * (trunc + 1)
    for m, x in roots:
        power = x * m
        for k in range(1, trunc + 1):
            if not power:
                break
            sums[k] = sums[k] + power
            if k < trunc:
                power = power * x
    return sums


def _root_sum(f: Sequence[Fraction], sums: list[Element]) -> Element:
    """Sum of m * f(x) over the roots behind the power sums, without f(0)."""
    return sum((ps * f[k] for k, ps in enumerate(sums) if k), sums[0])


@cache
def _log_one_plus_x(trunc: int) -> tuple[Fraction, ...]:
    return tuple(series_log([_ONE, _ONE] + [_ZERO] * (trunc - 1)))


@cache
def _log_todd(trunc: int) -> tuple[Fraction, ...]:
    return tuple(series_log(q_series(trunc)))


@cache
def _inverse_factorials(trunc: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, factorial(k)) for k in range(trunc + 1))


@dataclass
class CharClasses:
    """All characteristic classes needed by the spectrum formula.

    `tangent` and `dual_log` are the power sums of the tangent and dual
    log roots; `total` and `log_chern` are built from them when first read.
    """

    building: BuildingSet
    todd: Element
    dual_ch: tuple[Element, ...]
    tangent: tuple[Element, ...] = field(repr=False)
    dual_log: tuple[Element, ...] = field(repr=False)

    @cached_property
    def total(self) -> Element:
        """Total Chern class of the tangent bundle."""
        return _root_sum(_log_one_plus_x(self.building.n - 1), self.tangent).exp()

    @cached_property
    def log_chern(self) -> Element:
        """Total Chern class of the log one-forms: the dual roots with their signs changed."""
        return _root_sum(_log_one_plus_x(self.building.n - 1), self.dual_log).exp().adams(-1)


def char_classes(bs: BuildingSet, ideal: IdealPresentation | None = None) -> CharClasses:
    """Every class of the spectrum formula, from the virtual tangent roots.

    Free-ring `GradedPoly`s, or `QuotientElement`s in the quotient by `ideal`.
    """
    if ideal is not None:
        return _quotient_classes(bs, ideal)
    trunc = bs.n - 1
    free = partial(GradedPoly.linear, nvars=bs.size, trunc=trunc)
    roots = (_dual_log_roots(bs, free), _unit_roots(bs, free))
    dual_log, units = (_power_sums(r, trunc, free({})) for r in roots)
    tangent = [a + b for a, b in zip(dual_log, units)]
    zero = dual_log[0]
    todd = _root_sum(_log_todd(trunc), tangent).exp()

    ch = _root_sum(_inverse_factorials(trunc), dual_log) + trunc
    # lambda^p = (1/p) * sum_j (-1)^(j-1) * psi^j(ch) * lambda^(p-j)
    psi = [ch.adams(j) for j in range(bs.n)]
    dual_ch = [zero + 1]
    for p in range(1, bs.n):
        acc = sum((psi[j] * dual_ch[p - j] * (-1) ** (j - 1) for j in range(1, p + 1)), zero)
        dual_ch.append(acc * Fraction(1, p))
    return CharClasses(bs, todd, tuple(dual_ch), tuple(tangent), tuple(dual_log))


def _quotient_classes(bs: BuildingSet, ideal: IdealPresentation) -> CharClasses:
    """The classes of `char_classes` in the quotient, on integer numerators
    over denominators known in advance; one `QuotientElement` per class.

    With F = t!, t = n - 1, ch and each psi^j(ch) are over F.  lambda^q in
    lowest terms has a denominator e_q dividing q! * F^q, so the Newton term
    j, psi^j(ch) * lambda^(p-j) over F * e_(p-j), is scaled onto the common
    (p - 1)! * F^p, and the sum over p! * F^p is lambda^p.  The term j = p
    is psi^p(ch) itself, since lambda^0 = 1.  The products read the
    lambdas in lowest terms, so their integers stay small.
    """
    trunc, rank = bs.n - 1, len(ideal.index)
    dual_log, tangent = ideal.power_sums(_quotient_roots(bs))
    todd = QuotientElement(ideal, *ideal._exp(*_numerator_sum(_log_todd(trunc), tangent)))

    ch, f = _numerator_sum(_inverse_factorials(trunc), dual_log)
    ch[0] += trunc * f
    psi = [None, ch] + [ideal._adams(ch, j) for j in range(2, bs.n)]
    dual_ch = [QuotientElement(ideal, [1] + [0] * (rank - 1))]
    for p in range(1, bs.n):
        common = factorial(p - 1) * f**p
        acc = [0] * rank
        for j in range(1, p + 1):
            lam = dual_ch[p - j]
            term = psi[p] if j == p else ideal._product(psi[j], lam.num)
            scale = common // (f * lam.den) * (-1) ** (j - 1)
            acc = [a + scale * x for a, x in zip(acc, term)]
        dual_ch.append(QuotientElement(ideal, acc, p * common))
    return CharClasses(bs, todd, tuple(dual_ch), tuple(tangent), tuple(dual_log))


def _numerator_sum(f: Sequence[Fraction], sums: list[QuotientElement]) -> tuple[list[int], int]:
    """`_root_sum(f, sums)` on the power sums' integer numerators: (numerators,
    the lcm of the denominators of f past f(0))."""
    den = lcm(*(c.denominator for c in f[1:]))
    out = [0] * len(sums[0].num)
    for c, ps in zip(f[1:], sums[1:]):
        scale = c.numerator * (den // c.denominator)
        out = [o + scale * x for o, x in zip(out, ps.num)]
    return out, den


def ch_dual_exterior_roots(bs: BuildingSet, p: int, log_chern: Element) -> Element:
    """Chern character of the dual of the p-th exterior power of the log forms.

    Sums exp(-(sum of p distinct roots)) over all subsets of m = n-1
    formal roots, rewrites the symmetric result in the elementary basis
    by stripping lexicographically leading terms, and substitutes the
    graded parts of `log_chern` for the elementary symmetric functions.
    Kept as an independent check of `char_classes`; the result lives in
    the ring of `log_chern`, free or quotient, and equals the class there.
    """
    h_parts = log_chern.graded_parts()
    out = h_zero = log_chern * 0
    for coeff, exps in _elementary_expansion(bs.n - 1, p):
        term = h_zero + coeff
        for j, e in enumerate(exps, start=1):
            for _ in range(e):
                term = term * h_parts[j]
        out = out + term
    return out


@cache
def _elementary_expansion(m: int, p: int) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """The sum of exp(-(sum of p distinct roots)) over m formal roots, in the
    elementary symmetric functions e_1 .. e_m: (coefficient, exponents) pairs."""
    roots = [GradedPoly.variable(i, m, m) for i in range(m)]
    one, zero = GradedPoly.constant(1, m, m), GradedPoly.zero(m, m)
    elementary = reduce(mul, (one + x for x in roots)).graded_parts()
    work = sum(((-sum(combo, zero)).exp() for combo in combinations(roots, p)), zero)
    terms = []
    while work.terms:
        lead = max(work.terms)
        if any(lead[i] < lead[i + 1] for i in range(m - 1)):
            raise StructureError("root polynomial is not symmetric")
        coeff = work.terms[lead]
        # e_1^(l_1 - l_2) * e_2^(l_2 - l_3) * ... * e_m^(l_m) leads with `lead`
        exps = tuple(lead[i] - (lead[i + 1] if i + 1 < m else 0) for i in range(m))
        expansion = one
        for j, e in enumerate(exps, start=1):
            expansion = expansion * elementary[j] ** e
        work = work - expansion * coeff
        terms.append((coeff, exps))
    return tuple(terms)
