"""Characteristic classes on the log resolution, as truncated polynomials.

In K-theory the tangent bundle of the resolution is a signed sum of line
bundles, up to trivial summands.  `tangent_roots` lists their first Chern
classes with multiplicities, the virtual Chern roots: n copies of -c_0,
then for each further building-set element v of codimension r, -r copies
of minus the sum of the variables strictly below v, one copy of c_v, and
r copies of minus the sum of the variables weakly below v.  The dual of
the sheaf of logarithmic one-forms has the same roots plus c_v with
multiplicity -1 for each boundary divisor.

Every class is read off the power sums P_k = sum of m * x^k over the
roots (m, x).  A multiplicative class with series g is
exp(sum_k (log g)_k P_k): the total Chern class takes g = 1 + x, the Todd
class g = Q(x) = x / (1 - exp(-x)).  A bundle of rank r has Chern
character r + sum_k P_k / k!.  The Chern characters of the exterior
powers of the dual log forms follow from the lambda-ring Newton identity

    lambda^p = (1/p) * sum_{j=1..p} (-1)^(j-1) psi^j * lambda^(p-j),

where the Adams operation psi^j scales the degree-i part by j^i.

Given the relation ideal, `char_classes` runs the same code in the
quotient ring: every product is a normal form, so a root's power x^k is
the normal form of x^(k-1) * x, and the sparse roots are rewritten only
in their sum P_1.

`ch_dual_exterior_roots` is kept as an independent route to the same
Chern characters: it expands the exponential sums over formal roots,
rewrites them in elementary symmetric functions and substitutes the
graded parts of the log Chern class.  The two agree as free-ring
polynomials, so their normal forms agree as well; the verification
harness compares the normal forms term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial
from operator import mul

from .arrangement import StructureError
from .nested import BuildingSet
from .ring import GradedPoly, IdealPresentation

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def series_apply(coeffs: list[Fraction], z: GradedPoly) -> GradedPoly:
    """Evaluate a power series with the given coefficients at `z`.

    `z` must have zero constant term, so the composition is finite in the
    truncated ring.
    """
    if z.constant_term:
        raise ValueError("series composition needs a zero constant term")
    out = GradedPoly.constant(coeffs[0], z.nvars, z.trunc)
    power = GradedPoly.constant(1, z.nvars, z.trunc)
    for k in range(1, min(len(coeffs), z.trunc + 1)):
        power = power * z
        if not power.terms:
            break
        if coeffs[k]:
            out = out + power * coeffs[k]
    return out


def tangent_roots(bs: BuildingSet) -> list[tuple[int, GradedPoly]]:
    """Virtual Chern roots of the resolution's tangent bundle.

    A list of (multiplicity, first Chern class) pairs; the total Chern
    class is the product of (1 + x)^m over them.
    """
    nv, trunc = bs.size, bs.n - 1
    var = [GradedPoly.variable(i, nv, trunc) for i in range(nv)]
    roots = [(bs.n, -var[0])]
    for v in range(1, nv):
        r = bs.codims[v]
        strict = sum((var[w] for w in range(nv) if bs.lt(w, v)), GradedPoly.zero(nv, trunc))
        roots += [(-r, -strict), (1, var[v]), (r, -(strict + var[v]))]
    return roots


def _power_sums(roots: list[tuple[int, GradedPoly]], bs: BuildingSet, mul) -> list[GradedPoly]:
    """P_k = sum of m * x^k over the roots, for k = 0 .. n-1 (P_0 is left zero)."""
    trunc = bs.n - 1
    sums = [GradedPoly.zero(bs.size, trunc) for _ in range(trunc + 1)]
    for m, x in roots:
        power = x * m
        sums[1] = sums[1] + power
        for k in range(2, trunc + 1):
            power = mul(power, x)
            sums[k] = sums[k] + power
    return sums


def _root_sum(f: list[Fraction], sums: list[GradedPoly]) -> GradedPoly:
    """Sum of m * f(x) over the roots behind the power sums, without f(0)."""
    return sum((ps * f[k] for k, ps in enumerate(sums) if k), sums[0])


@dataclass
class CharClasses:
    """All characteristic classes needed by the spectrum formula."""

    building: BuildingSet
    total: GradedPoly
    todd: GradedPoly
    log_chern: GradedPoly
    dual_ch: tuple[GradedPoly, ...]


def char_classes(bs: BuildingSet, ideal: IdealPresentation | None = None) -> CharClasses:
    """Every class of the spectrum formula, from the virtual tangent roots.

    Free-ring polynomials, or normal forms in the quotient by `ideal`.
    """
    nv, trunc = bs.size, bs.n - 1
    roots = tangent_roots(bs)
    boundary = [(-1, GradedPoly.variable(v, nv, trunc)) for v in range(1, nv)]
    mul = GradedPoly.__mul__ if ideal is None else ideal.mul
    tangent = _power_sums(roots, bs, mul)
    dual_log = [a + b for a, b in zip(tangent, _power_sums(boundary, bs, mul))]
    if ideal is not None:
        # P_1 is a sum of the roots themselves; every other P_k is a sum of products
        tangent[1], dual_log[1] = ideal.normal_form(tangent[1]), ideal.normal_form(dual_log[1])

    log_one_plus_x = series_log([_ONE, _ONE] + [_ZERO] * (trunc - 1))
    total = _root_sum(log_one_plus_x, tangent).exp(mul)
    todd = _root_sum(series_log(q_series(trunc)), tangent).exp(mul)
    # the log forms are the dual: every root changes sign
    log_chern = _root_sum(log_one_plus_x, dual_log).exp(mul).adams(-1)

    ch = _root_sum([Fraction(1, factorial(k)) for k in range(bs.n)], dual_log) + trunc
    # lambda^p = (1/p) * sum_j (-1)^(j-1) * psi^j(ch) * lambda^(p-j)
    psi = [ch.adams(j) for j in range(bs.n)]
    dual_ch = [GradedPoly.constant(1, nv, trunc)]
    for p in range(1, bs.n):
        acc = sum(
            (mul(psi[j], dual_ch[p - j]) * (-1) ** (j - 1) for j in range(1, p + 1)),
            GradedPoly.zero(nv, trunc),
        )
        dual_ch.append(acc * Fraction(1, p))
    return CharClasses(bs, total, todd, log_chern, tuple(dual_ch))


def ch_dual_exterior_roots(bs: BuildingSet, p: int, log_chern: GradedPoly) -> GradedPoly:
    """Chern character of the dual of the p-th exterior power of the log forms.

    Sums exp(-(sum of p distinct roots)) over all subsets of m = n-1
    formal roots, rewrites the symmetric result in the elementary basis
    by stripping lexicographically leading terms, and substitutes the
    graded parts of `log_chern` for the elementary symmetric functions.
    Kept as an independent check of `char_classes`; the two are equal in
    the free truncated ring, and so are their normal forms.
    """
    nv, m = bs.size, bs.n - 1
    roots = [GradedPoly.variable(i, m, m) for i in range(m)]
    one, zero = GradedPoly.constant(1, m, m), GradedPoly.zero(m, m)
    elementary = reduce(mul, (one + x for x in roots)).graded_parts()
    h_parts = log_chern.graded_parts()

    work = sum(((-sum(combo, zero)).exp() for combo in combinations(roots, p)), zero)
    out = GradedPoly.zero(nv, m)
    while work.terms:
        lead = max(work.terms)
        if any(lead[i] < lead[i + 1] for i in range(m - 1)):
            raise StructureError("root polynomial is not symmetric")
        coeff = work.terms[lead]
        # e_1^(l_1 - l_2) * e_2^(l_2 - l_3) * ... * e_m^(l_m) leads with `lead`
        exps = [lead[i] - (lead[i + 1] if i + 1 < m else 0) for i in range(m)]
        expansion, term = one, GradedPoly.constant(coeff, nv, m)
        for j, e in enumerate(exps, start=1):
            for _ in range(e):
                expansion = expansion * elementary[j]
                term = term * h_parts[j]
        work = work - expansion * coeff
        out = out + term
    return out
