"""Exact sparse linear algebra over the rationals, computed in integers.

No module of the library imports this one, since `build_lattice` finds
the flats by restriction.  It stays as the tests' independent
elimination oracle: `brute_closure` in `test_arrangement` and the spans
in `test_ring`, `test_quotient` and `test_spectrum`.

Vectors are dicts mapping an integer coordinate to a nonzero rational, an
int or a Fraction.  `EchelonBasis` keeps its rows fraction-free: each row
is a primitive integer vector (the gcd of its entries is 1) whose pivot,
its smallest coordinate, holds a positive entry, and no row has a
nonzero entry at another row's pivot.  Reduction cross-multiplies:
clearing pivot p of row r from an integer vector v gives r[p] * v - v[p] * r.
`reduce` divides at the end by the product of the pivots it used, so it
returns the exact rational normal form, the same one a reduced echelon
basis over the rationals gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

SparseVec = dict[int, Fraction]


class EchelonBasis:
    """Echelon basis of sparse rational vectors, with primitive integer rows.

    Rows are kept reduced against each other: no row has a nonzero entry
    at another row's pivot, so `reduce` clears each pivot among the
    vector's own coordinates once, in any order.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: SparseVec) -> tuple[dict[int, int], int]:
        """An integer vector w and a scale s > 0 with w / s the normal form of `vec`."""
        scale = lcm(*(c.denominator for c in vec.values()))
        out = {c: v.numerator * (scale // v.denominator) for c, v in vec.items()}
        for p in [c for c in vec if c in self.rows]:
            row = self.rows[p]
            a, f = row[p], out[p]
            if a != 1:
                out = {c: a * v for c, v in out.items()}
                scale *= a
            for c, val in row.items():
                nv = out.get(c, 0) - f * val
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
        return out, scale

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Normal form of `vec` modulo the row span, with Fraction entries."""
        out, scale = self._eliminate(vec)
        return {c: Fraction(v, scale) for c, v in out.items()}

    def insert(self, vec: SparseVec) -> bool:
        """Add `vec` to the span.  Returns True iff the rank grew."""
        red, _ = self._eliminate(vec)
        if not red:
            return False
        row = _primitive(red)
        p = min(row)
        a = row[p]
        # restore the reduced property on previously stored rows
        for q, r in self.rows.items():
            f = r.get(p)
            if f:
                r = {c: a * v for c, v in r.items()}
                for c, val in row.items():
                    nv = r.get(c, 0) - f * val
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
                self.rows[q] = _primitive(r)
        self.rows[p] = row
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self._eliminate(vec)[0]


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """The integer vector divided by the gcd of its entries, signed so its pivot is positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return vec if g == 1 else {c: v // g for c, v in vec.items()}
