"""Truncated polynomial calculus for the cohomology of the log resolution.

`GradedPoly` is a sparse polynomial with rational coefficients in one
variable per building-set element, with every term of total degree above
the truncation bound (ambient dimension minus one) discarded.  Dropping
those terms is harmless: the relation ideal is homogeneous and the
quotient vanishes above the bound, and all reductions happen degree by
degree.

`IdealPresentation` presents the quotient by the relation ideal through
its Feichtner-Yuzvinsky normal form: the standard monomials, a basis of
the quotient, are known in closed form and listed by degree in `basis`,
and a monomial's normal form comes from rewriting leading terms, with no
elimination.  Every leading coefficient is one and every other
coefficient is a multinomial, so the rewriting runs in integers.  Inside
the presentation a monomial is sparse, its (variable, exponent) pairs
ascending in the variable, so a rewriting step costs the size of its
support, not the number of variables.  A monomial whose support is not
nested is zero, and supports are int bitmasks, so that test is one
lookup.  A hyperplane variable is minus the sum of the variables below
it, so no standard monomial holds one, and the presentation keeps only
the nested sets with no hyperplane.  The product of two basis monomials
is the normal form of their product; its coefficients are the ring's
structure constants.  Only a pair whose supports unite to a nested set
can have a nonzero product, so each basis monomial keeps one row,
filled on first use, of such partners within the degree bound whose
product is nonzero.

`QuotientElement` is an element of the quotient: one integer numerator
per basis monomial over one common denominator.  Its products walk the
rows (`IdealPresentation._product`, on the numerator lists), so a
product costs one multiply-add per structure constant, in integers; the
exponential sums its powers over one denominator and reduces once.  The
same kernels run on bare numerator lists (`_product`, `_exp`, `_adams`),
so `chern` builds its quotient classes in integers and wraps each in an
element only at the end.  The powers of a linear form (for the power
sums of the Chern roots and the twists' exponentials) come from one
sparse kernel on integer maps, `IdealPresentation._powers`, which sums
the form from the variables' degree-one images, each stored on first
read, and never touches the whole rank; `_exp_linear` sums them into
the exponential's numerators over t!, the one route to a twist's
exponential, which the spectrum's cells read.  The top-degree quotient
has rank one, spanned by c_0^(n-1), which is (-1)^(n-1) times the class
of a point, so the product of two basis monomials of complementary
degree is zero or one multiple of it.  An element a pairs with b
through its covector u, an integer row over the whole basis whose entry
b is the point-class value of a times basis[b], summed from the tails of
the rows (`IdealPresentation.covector`); the pairing is the dot product
u . b over the two denominators.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations_with_replacement, groupby, product
from math import factorial, gcd, lcm
from operator import add, mul

from .arrangement import StructureError
from .nested import BuildingSet, _nested_sets, d_value, enumerate_nested

_ZERO = Fraction(0)
_ONE = Fraction(1)

Monomial = tuple[int, ...]
# (variable, exponent) pairs, ascending in the variable, every exponent positive
Sparse = tuple[tuple[int, int], ...]


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

    @classmethod
    def linear(cls, coeffs, nvars: int, trunc: int) -> "GradedPoly":
        """The degree-one polynomial sum of a * c_v over the items (v, a) of `coeffs`."""
        if not all(0 <= v < nvars for v in coeffs):
            raise ValueError(f"variable indices {sorted(coeffs)!r} out of range 0..{nvars - 1}")
        return cls(nvars, trunc, {_monomial(nvars, [(v, 1)]): a for v, a in coeffs.items()})

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
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GradedPoly.constant(1, self.nvars, self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

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

    def exp(self) -> "GradedPoly":
        """Truncated exponential; requires zero constant term."""
        if self.constant_term:
            raise ValueError("exp needs a zero constant term")
        out = GradedPoly.constant(1, self.nvars, self.trunc)
        power = GradedPoly.constant(1, self.nvars, self.trunc)
        for k in range(1, self.trunc + 1):
            power = power * self
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


class IdealPresentation:
    """The relation ideal of the resolution ring, presented by its normal form.

    Order the variables by decreasing dimension, the formal element 0
    last, and monomials lexicographically.  The nested-set generators
    (`generators`) and the non-nested monomials are then a Groebner basis
    of the ideal (Feichtner-Yuzvinsky, Invent. Math. 155, 2004, Thm. 2):
    the generator for a nested set H and an element W below it has the
    leading term x_H * x_W^d, d = dim(intersection of H) - dim(W).  The
    standard monomials, those no leading term divides, are a basis of the
    quotient: the support (element 0 aside) is nested, and every exponent
    m_v, element 0 included, is below dim(intersection of the support
    elements strictly above v) - dim(v).  Nothing lies above a hyperplane
    element v, so its bound is one: x_v = -(sum of x_u over u below v),
    the relation of the empty set and v.  The nested supports with no
    hyperplane, which the rewriting never leaves, and their bounds come
    from one pass (`nested._nested_sets`) that stops at the building
    set's `first_hyperplane`, into `_limits`, keyed by the support's
    bitmask; every nestedness test reads it.  A variable's degree-one
    normal form (`_images`) is stored by `_sparse` on first read, from
    `_form`, which sends a hyperplane variable through the relation above
    (`_substitute`): no root and no twist names a hyperplane variable, so
    the spectrum path computes none.

    `basis` lists the standard monomials by degree, lexicographically
    largest first within a degree, and `quotient_ranks[j]` counts those of
    degree j.  The presentation keys them sparse (`index`, `_standard`);
    the dense `basis` is built on first access, and nothing on the
    spectrum path reads it.  On the empty support the bound of c_0 is n,
    so c_0^(n-1) is always standard; `ideal_generators` checks that the
    top rank is one, so it is the last basis monomial and the only one of
    top degree.
    `monomials[j]`, every degree-j monomial with nested support, hyperplanes
    included, is built on first access from the full pass
    (`enumerate_nested`); nothing on the spectrum path reads it.  The
    structure constants fill rows on first use (`_row`), so construction
    allocates nothing quadratic in the rank.
    """

    def __init__(self, building: BuildingSet) -> None:
        self.building = building
        self.trunc = building.n - 1
        # t!/j! for j = 0 .. t, t = n - 1: the exponential's terms over t!
        top = factorial(self.trunc)
        self._exp_scales = tuple(top // factorial(j) for j in range(self.trunc + 1))
        # nested set with no hyperplane, as a bitmask -> its exponent bounds
        self._limits: dict[int, tuple[tuple[int, int], ...]] = dict(
            _nested_sets(building, self.trunc, building.first_hyperplane)
        )
        self._expansions: dict[tuple[int, int], tuple[tuple[Sparse, int, int], ...]] = {}
        # monomial with nested support -> its normal form, as (basis index, integer) pairs
        self._forms: dict[Sparse, tuple[tuple[int, int], ...]] = {}
        # standard monomials: 1 <= m_v < d_v on the support, 0 <= m_0 < d_0,
        # in the order of `basis`: by degree, then the dense exponents descending
        self._standard: list[Sparse] = sorted(
            (
                tuple(sorted((v, e) for (v, _), e in zip(limits, exps) if e))
                for limits in self._limits.values()
                for exps in product(*(range(1 if v else 0, d) for v, d in limits))
            ),
            key=lambda m: (sum(e for _, e in m), [(v, -e) for v, e in m]),
        )
        self.index = {m: i for i, m in enumerate(self._standard)}
        self._masks = [_mask(v for v, _ in m) for m in self._standard]
        self._degrees = [sum(e for _, e in m) for m in self._standard]
        self.quotient_ranks = [self._degrees.count(j) for j in range(self.trunc + 1)]
        # _starts[j]: index of the first basis monomial of degree j; _starts[trunc + 1] is the rank
        self._starts = list(accumulate(self.quotient_ranks, initial=0))
        # support bitmask -> its basis indices, ascending; support -> its partners, on first use
        self._supports: dict[int, list[int]] = {}
        for i, support in enumerate(self._masks):
            self._supports.setdefault(support, []).append(i)
        self._partners: dict[int, list[int]] = {}
        # i -> {partner j: structure constants of basis[i] * basis[j]}, filled by `_row`
        self._table: list[dict[int, tuple[tuple[int, int], ...]] | None]
        self._table = [None] * len(self._standard)
        # variable -> its normal form, (index, integer) pairs, stored by `_sparse` on first read
        self._images: dict[int, tuple[tuple[int, int], ...]] = {}

    @cached_property
    def basis(self) -> list[Monomial]:
        """The standard monomials as dense exponent tuples, built on first access."""
        nv = self.building.size
        return [_monomial(nv, m) for m in self._standard]

    @cached_property
    def generators(self) -> list[GradedPoly]:
        """The nested-set generators, built on first access; the normal form does not read them."""
        return nested_set_generators(self.building)

    @cached_property
    def monomials(self) -> list[list[Monomial]]:
        """Degree j -> the monomials with nested support, hyperplanes
        included, built on first access from the full nested-set pass."""
        nv, nested = self.building.size, enumerate_nested(self.building, self.trunc)
        return [_nested_monomials(nested, nv, j) for j in range(self.trunc + 1)]

    def covector(self, x: "QuotientElement") -> list[int]:
        """The integer row u over the whole basis with u[b] the point-class
        value of x.num times basis[b], so that x pairs with y as
        u . y.num / (x.den * y.den); x.den is not applied.

        Each nonzero x.num[i] adds its products with the basis monomials of
        complementary degree, the tail of its row.
        """
        table, degrees, starts, top = self._table, self._degrees, self._starts, self.trunc
        sign = (-1) ** top
        u = [0] * len(x.num)
        for i, xi in enumerate(x.num):
            if not xi:
                continue
            xi, dual = sign * xi, starts[top - degrees[i]]
            for b, entry in reversed((table[i] or self._row(i)).items()):
                if b < dual:
                    break
                # a top-degree product is one multiple of c_0^(n-1)
                for _, c in entry:
                    u[b] += xi * c
        return u

    def _product(self, a: list[int], b: list[int]) -> list[int]:
        """Numerators of the product of two elements with numerators a and b:
        each nonzero a[i] walks its row and adds the entries where b is nonzero."""
        table = self._table
        out = [0] * len(a)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, entry in (table[i] or self._row(i)).items():
                if y := b[j]:
                    xy = x * y
                    for k, c in entry:
                        out[k] += xy * c
        return out

    def _powers(self, coeffs):
        """x^k for k = 1 .. n-1, x the class of the linear map `coeffs`, each
        sparse {basis index: integer}, up to the first zero power: the ring's
        one sparse kernel, run once per root class by `power_sums` and once
        per twist class by `_exp_linear`.  x itself is summed from the
        variables' images (`_sparse`), so the kernel never touches the whole
        rank.  Each term of a power walks the degree-one head of its row, so
        it meets the same nested pairs as `_product`."""
        table, end = self._table, self._starts[2]
        form = power = self._sparse(coeffs)
        # the power of degree n - 1 is the last: no product is formed past it
        for _ in range(self.trunc - 1):
            if not power:
                return
            yield power
            out: dict[int, int] = {}
            for i, x in power.items():
                for j, entry in (table[i] or self._row(i)).items():
                    if j >= end:
                        break
                    if y := form.get(j):
                        for k, c in entry:
                            out[k] = out.get(k, 0) + x * y * c
            power = {k: c for k, c in out.items() if c}
        if power:
            yield power

    def _row(self, i: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """Partner j -> structure constants of basis[i] * basis[j], ascending
        in j, for the nonzero products within the degree bound; never empty,
        since basis[i] * 1 = basis[i].

        The partners of a support, the basis indices whose support unites
        with it to a nested set, are listed once per support; no other
        product can be nonzero.  A filled row of j holds the entry for i.
        """
        support, table = self._masks[i], self._table
        partners = self._partners.get(support)
        if partners is None:
            limits = self._limits
            partners = self._partners[support] = sorted(
                j for s, js in self._supports.items() if s | support in limits for j in js
            )
        row = {}
        end = self._starts[self.trunc + 1 - self._degrees[i]]
        for j in partners[: bisect_left(partners, end)]:
            entry = self._constants(i, j) if table[j] is None else table[j].get(i)
            if entry:
                row[j] = entry
        table[i] = row
        return row

    def _expansion(self, w: int, d: int) -> tuple[tuple[Sparse, int, int], ...]:
        """The terms of (sum of x_v over v <= w)^d other than x_w^d, as
        (sparse exponents, support bitmask, multinomial coefficient); terms
        with non-nested support are left out, since every multiple of them
        is zero."""
        got = self._expansions.get((w, d))
        if got is None:
            terms = []
            for combo in combinations_with_replacement(sorted({w, *self.building.below[w]}), d):
                mask = _mask(combo)
                if combo.count(w) < d and mask in self._limits:
                    delta = tuple((v, len(list(run))) for v, run in groupby(combo))
                    coeff = factorial(d)
                    for _, e in delta:
                        coeff //= factorial(e)
                    terms.append((delta, mask, coeff))
            got = self._expansions[(w, d)] = tuple(terms)
        return got

    def _form(self, mono: Sparse, support: int) -> tuple[tuple[int, int], ...]:
        """Normal form of one sparse monomial with the given support bitmask:
        zero if the support's part below the hyperplanes is not nested,
        since a multiple of a non-nested monomial is zero; else rewritten,
        or expanded by a hyperplane's relation if it has a hyperplane
        variable.  Memoized except for those zeros.
        """
        got = self._forms.get(mono)
        if got is None:
            low = support & ((1 << self.building.first_hyperplane) - 1)
            if low not in self._limits:
                return ()
            got = self._forms[mono] = (
                self._rewrite(mono, support) if low == support else self._substitute(mono, support)
            )
        return got

    def _substitute(self, mono: Sparse, support: int) -> tuple[tuple[int, int], ...]:
        """Normal form of a monomial whose last variable x_v is a hyperplane's,
        by x_v = -(sum of x_u over u below v) and each term's normal form.

        Only the reference route (`element`) and a hyperplane variable's
        image (`_sparse`) reach such a monomial.  No further nestedness
        test is needed: the relation holds in the ring, so a monomial with
        non-nested support still comes out zero.
        """
        *rest, (v, e) = mono
        if e > 1:
            rest.append((v, e - 1))
        else:
            support &= ~(1 << v)
        out: dict[int, int] = {}
        for u in sorted(self.building.below[v]):
            for i, c in self._form(_times(rest, ((u, 1),)), support | _mask((u,))):
                nv = out.get(i, 0) - c
                if nv:
                    out[i] = nv
                else:
                    del out[i]
        return tuple(out.items())

    def _rewrite(self, mono: Sparse, support: int) -> tuple[tuple[int, int], ...]:
        """Normal form of a monomial with nested support: itself if standard.

        Otherwise W is the largest-dimension element whose exponent reaches
        its d, and x_H * x_W^d, with H the support elements strictly above
        W, is the leading term of a generator: it is replaced by minus the
        other terms, each rewritten in turn.  Each of those moves a factor
        of x_W to an element of smaller dimension, so the rewriting ends.
        """
        exps = dict(mono)
        over = next(((w, d) for w, d in self._limits[support] if exps.get(w, 0) >= d), None)
        if over is None:
            return ((self.index[mono], 1),)
        w, d = over
        # d = 0 is the relation x_H = 0, possible only below the formal element
        if d < 0 or (d == 0 and w != 0):
            raise StructureError(f"no relation rewrites the non-standard monomial {mono!r}")
        # rest = mono / x_W^d, with support `left`; a term whose support
        # with it is not nested gives zero, and its monomial is never formed
        exps[w] = exps.get(w, 0) - d
        rest = tuple((v, e) for v, e in exps.items() if e)
        left = support if exps[w] else support & ~(1 << w)
        out: dict[int, int] = {}
        for delta, mask, c in self._expansion(w, d):
            union = left | mask
            if union not in self._limits:
                continue
            for i, v in self._form(_times(rest, delta), union):
                nv = out.get(i, 0) - c * v
                if nv:
                    out[i] = nv
                else:
                    del out[i]
        return tuple(out.items())

    def _constants(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Structure constants of basis[i] * basis[j]."""
        mono = _times(self._standard[i], self._standard[j])
        return _integral(self._form(mono, self._masks[i] | self._masks[j]), mono)

    # elements

    def constant(self, value) -> "QuotientElement":
        c = Fraction(value)
        return QuotientElement(self, [c.numerator] + [0] * (len(self._standard) - 1), c.denominator)

    def linear(self, coeffs) -> "QuotientElement":
        """The class of the sum of a * c_v over the items (v, a) of `coeffs`, a in the integers."""
        num = [0] * len(self._standard)
        for i, c in self._sparse(coeffs).items():
            num[i] = c
        return QuotientElement(self, num)

    def _sparse(self, coeffs) -> dict[int, int]:
        """The numerators of `linear(coeffs)` as a sparse {basis index: integer}.

        A variable's image, the normal form of x_v, is stored in `_images`
        on first read; KeyError if v is not a variable."""
        form: dict[int, int] = {}
        images = self._images
        for v, a in coeffs.items():
            image = images.get(v)
            if image is None:
                if v not in range(self.building.size):
                    raise KeyError(v)
                unit = ((v, 1),)
                image = images[v] = _integral(self._form(unit, _mask((v,))), unit)
            for i, c in image:
                form[i] = form.get(i, 0) + a * c
        return {i: c for i, c in form.items() if c}

    def _exp_linear(self, coeffs) -> list[int]:
        """The numerators of `linear(coeffs).exp()` over t!, t = n - 1: the
        sum of (t!/j!) * x^j, with the powers x^j from `_powers`.  Neither
        normalized nor wrapped, so the spectrum's cells read it directly."""
        scales = self._exp_scales
        num = [0] * len(self._standard)
        num[0] = scales[0]
        for j, power in enumerate(self._powers(coeffs), start=1):
            scale = scales[j]
            for i, c in power.items():
                num[i] += scale * c
        return num

    def _exp(self, num: list[int], den: int) -> tuple[list[int], int]:
        """exp(num / den) as numerators over t! * den^t, t = n - 1; num[0]
        must be zero.  The sum over j <= t of (t!/j!) * den^(t - j) * num^j,
        in integer products from `_product`, not reduced."""
        top = self.trunc
        total = factorial(top) * den**top
        out = [total] + [0] * (len(num) - 1)
        scale, power = total, num
        for j in range(1, top + 1):
            if not any(power):
                break
            scale //= j * den
            out = [o + scale * x for o, x in zip(out, power)]
            if j < top:
                power = self._product(power, num)
        return out, total

    def _adams(self, num: list[int], k: int) -> list[int]:
        """The Adams operation psi^k on numerators: degree i scaled by k^i."""
        scale = [k**i for i in range(self.trunc + 1)]
        return [x * scale[d] for x, d in zip(num, self._degrees)]

    def power_sums(self, roots) -> list[list["QuotientElement"]]:
        """Power sums of root lists that share their roots, one list per
        entry of the multiplicity tuples: for each (mults, coeffs) in the
        non-empty list `roots`, x the class of the linear map `coeffs`, list
        j gets P_k = sum of mults[j] * x^k for k = 0 .. n-1 (P_0 is zero).

        One `_powers` pass per root with a nonzero multiplicity, its powers
        added into every list in integer numerators, so the roots come
        merged by class: `chern._quotient_roots` leaves out each hyperplane
        element's weak root, zero by its relation, and counts its unit root
        under its strict root, which it equals.
        """
        rank = len(self._standard)
        sums = [[[0] * rank for _ in range(self.trunc + 1)] for _ in roots[0][0]]
        for mults, coeffs in roots:
            counted = [(m, lists) for m, lists in zip(mults, sums) if m]
            if not counted:
                continue
            for k, power in enumerate(self._powers(coeffs), start=1):
                for m, lists in counted:
                    acc = lists[k]
                    for i, c in power.items():
                        acc[i] += m * c
        return [[QuotientElement(self, num) for num in lists] for lists in sums]

    def element(self, poly: GradedPoly) -> "QuotientElement":
        """The class of `poly` in the quotient."""
        if poly.nvars != self.building.size or poly.trunc != self.trunc:
            raise ValueError("polynomial does not match the ideal's ring")
        acc: dict[int, Fraction] = {}
        for mono, c in poly.terms.items():
            sparse = tuple((v, e) for v, e in enumerate(mono) if e)
            for i, x in self._form(sparse, _mask(v for v, _ in sparse)):
                acc[i] = acc.get(i, _ZERO) + c * x
        den = lcm(*(a.denominator for a in acc.values()))
        num = [0] * len(self._standard)
        for i, a in acc.items():
            num[i] = a.numerator * (den // a.denominator)
        return QuotientElement(self, num, den)


class QuotientElement:
    """An element of the quotient: num[i] / den is the coefficient of `ring.basis[i]`.

    Kept in lowest terms, den > 0 and gcd(den, *num) = 1, so equal
    elements have equal fields.  Adds, subtracts and multiplies with
    elements of the same ring, and with ints and Fractions on either side.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: IdealPresentation, num: list[int], den: int = 1) -> None:
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        self.ring, self.num, self.den = ring, num, den

    def _check(self, other: "QuotientElement") -> None:
        if other.ring is not self.ring:
            raise ValueError("elements live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        elif not isinstance(other, QuotientElement):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = [x * fa + y * fb for x, y in zip(self.num, other.num)]
        return QuotientElement(self.ring, num, den)

    __radd__ = __add__

    def __neg__(self):
        return QuotientElement(self.ring, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuotientElement) else -Fraction(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuotientElement(
                self.ring, [x * other.numerator for x in self.num], self.den * other.denominator
            )
        if not isinstance(other, QuotientElement):
            return NotImplemented
        self._check(other)
        num = self.ring._product(self.num, other.num)
        return QuotientElement(self.ring, num, self.den * other.den)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientElement)
            and self.ring is other.ring
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = None

    def exp(self) -> "QuotientElement":
        """Truncated exponential; requires zero constant term.

        The integer series of `IdealPresentation._exp`, reduced to lowest
        terms once at the end.
        """
        if self.num[0]:
            raise ValueError("exp needs a zero constant term")
        return QuotientElement(self.ring, *self.ring._exp(self.num, self.den))

    def adams(self, k: int) -> "QuotientElement":
        """Adams operation psi^k on a Chern character: scale degree i by k^i."""
        return QuotientElement(self.ring, self.ring._adams(self.num, k), self.den)

    def graded_parts(self) -> list["QuotientElement"]:
        """The degree-j parts, j = 0 .. n-1: the slices of `num` between the degree starts."""
        starts, num = self.ring._starts, self.num
        return [
            QuotientElement(self.ring, [0] * a + num[a:b] + [0] * (len(num) - b), self.den)
            for a, b in zip(starts, starts[1:])
        ]

    def pair(self, other: "QuotientElement") -> Fraction:
        """Point-class value of `self * other`: the dot product of `self`'s
        covector with `other`'s numerators, over both denominators."""
        self._check(other)
        return Fraction(sum(map(mul, self.ring.covector(self), other.num)), self.den * other.den)

    def poly(self) -> GradedPoly:
        """The element as a polynomial over the standard monomials: its normal form."""
        ring = self.ring
        terms = {ring.basis[i]: Fraction(x, self.den) for i, x in enumerate(self.num) if x}
        return GradedPoly(ring.building.size, ring.trunc, terms)

    def __repr__(self) -> str:
        return repr(self.poly())


def _monomial(nvars: int, exponents) -> Monomial:
    """The monomial with the given (variable, exponent) pairs."""
    mono = [0] * nvars
    for v, e in exponents:
        mono[v] = e
    return tuple(mono)


def _integral(form, where) -> tuple[tuple[int, int], ...]:
    """A normal form with integer coefficients; a fraction is a broken presentation."""
    if any(c.denominator != 1 for _, c in form):
        raise StructureError(f"non-integral structure constant in the normal form of {where!r}")
    return tuple((i, c.numerator) for i, c in form)


def _mask(elems) -> int:
    """The bitmask of the elements, the formal element 0 aside."""
    out = 0
    for v in elems:
        out |= 1 << v
    return out & ~1


def _times(a: Sparse, b: Sparse) -> Sparse:
    """The product of two sparse monomials."""
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _nested_monomials(nested, nvars: int, degree: int) -> list[Monomial]:
    """Degree-`degree` monomials whose support is one of the `nested` sets,
    each an ascending list, lexicographically largest first."""
    out = []
    for subset in nested:
        if len(subset) <= degree:
            for extra in combinations_with_replacement((0, *subset), degree - len(subset)):
                mono = [0] * nvars
                for i in (*subset, *extra):
                    mono[i] += 1
                out.append(tuple(mono))
    out.sort(reverse=True)
    return out


def nested_set_generators(bs: BuildingSet) -> list[GradedPoly]:
    """The nested-set generators of the relation ideal.

    For every nested subset H and every element W strictly below all of
    H: the product of the H variables times the (dimension-drop)-th power
    of the sum of the variables at or below W.  Only generators of total
    degree up to the truncation bound are emitted; higher ones vanish in
    the truncated ring.
    """
    nv = bs.size
    trunc = bs.n - 1
    gens: list[GradedPoly] = []

    def var(i: int) -> GradedPoly:
        return GradedPoly.variable(i, nv, trunc)

    for subset in enumerate_nested(bs, trunc):
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
    return gens


def ideal_generators(bs: BuildingSet) -> IdealPresentation:
    """Relation ideal of the building set, presented by its normal form.

    Raises `StructureError` unless the top-degree quotient has rank one.
    """
    ideal = IdealPresentation(bs)
    top = ideal.quotient_ranks[-1]
    if top != 1:
        raise StructureError(f"top cohomology not rank 1 (got {top})")
    return ideal


def reduce_top(poly: GradedPoly, ideal: IdealPresentation) -> Fraction:
    """Coefficient of the point class in the top-degree part of `poly`."""
    return ideal.element(poly).pair(ideal.constant(1))
