"""The fraction-free echelon basis against a plain rational elimination."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from arrspec.linalg import EchelonBasis

DIM = 5

vectors = st.dictionaries(st.integers(0, DIM - 1), st.integers(-4, 4).filter(bool), max_size=DIM)


def rational_normal_form(rows, vec):
    """Dense Gauss-Jordan over Fractions, pivots in ascending column order;
    the normal form clears every pivot column of `vec`.  Returns (rank, form)."""
    basis = []  # (pivot, row), each row 1 at its pivot and 0 at the other pivots
    for raw in rows:
        row = [Fraction(raw.get(c, 0)) for c in range(DIM)]
        for p, b in basis:
            row = [x - row[p] * y for x, y in zip(row, b)]
        if any(row):
            p = next(c for c, x in enumerate(row) if x)
            row = [x / row[p] for x in row]
            basis = [(q, [x - b[p] * y for x, y in zip(b, row)]) for q, b in basis]
            basis.append((p, row))
    out = [Fraction(vec.get(c, 0)) for c in range(DIM)]
    for p, b in basis:
        out = [x - out[p] * y for x, y in zip(out, b)]
    return len(basis), {c: x for c, x in enumerate(out) if x}


@settings(max_examples=200, deadline=None)
@given(st.lists(vectors, max_size=6), vectors, st.integers(1, 6))
def test_reduce_equals_rational_elimination(rows, vec, den):
    basis = EchelonBasis()
    for i, row in enumerate(rows):
        before = basis.rank
        assert basis.insert(row) == (basis.rank > before)
        assert basis.rank == rational_normal_form(rows[: i + 1], {})[0]
    rank, want = rational_normal_form(rows, vec)
    assert basis.rank == rank
    # integer input, and the same vector as Fractions over a common denominator
    assert basis.reduce(vec) == want
    scaled = {c: Fraction(x, den) for c, x in vec.items()}
    assert basis.reduce(scaled) == {c: x / den for c, x in want.items()}
    assert basis.contains(vec) == (not want)
    # rows are primitive integer vectors with a positive pivot, zero at the other pivots
    for p, row in basis.rows.items():
        assert p == min(row) and row[p] > 0
        assert all(type(x) is int for x in row.values()) and gcd(*row.values()) == 1
        assert not any(q in row for q in basis.rows if q != p)
