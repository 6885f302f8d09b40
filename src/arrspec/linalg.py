"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping an integer coordinate to a nonzero Fraction.
`EchelonBasis` keeps a reduced echelon basis (every pivot is 1 and is the
only nonzero entry in its coordinate across stored rows), so reducing a
vector against it yields a canonical normal form.
"""

from __future__ import annotations

from fractions import Fraction

SparseVec = dict[int, Fraction]


class EchelonBasis:
    """Reduced echelon basis of sparse rational vectors.

    The pivot of a row is its smallest coordinate.  Rows are kept fully
    reduced against each other: no row has a nonzero entry at another
    row's pivot, so `reduce` clears each pivot among the vector's own
    coordinates once, in any order.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "EchelonBasis":
        """An independent basis of the same span (rows are copied, not shared)."""
        out = EchelonBasis()
        out.rows = {p: dict(row) for p, row in self.rows.items()}
        return out

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Normal form of `vec` modulo the row span."""
        out = dict(vec)
        for p in [c for c in vec if c in self.rows]:
            f = out[p]
            for c, val in self.rows[p].items():
                nv = out.get(c, 0) - f * val
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
        return out

    def insert(self, vec: SparseVec) -> bool:
        """Add `vec` to the span.  Returns True iff the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        p = min(red)
        inv = red[p]
        row = {c: v / inv for c, v in red.items()}
        # restore the reduced property on previously stored rows
        for r in self.rows.values():
            f = r.get(p)
            if not f:
                continue
            for c, val in row.items():
                nv = r.get(c, 0) - f * val
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        self.rows[p] = row
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)
