"""Answers that arrspec's output is checked against, computed without arrspec.

Nothing here imports the package under test.  Ranks come from exact
integer elimination on the generated normals, so a fault in arrspec's
lattice cannot also hide in the oracle.  A spectrum is a dict mapping the
exponent alpha (a Fraction) to its multiplicity; zero entries are omitted.

- `concurrent_lines`: the classical spectrum of d reduced lines in C^2.
- `budur_saito`: Budur-Saito's closed form for reduced essential
  arrangements of planes in C^3 (Jumping coefficients and spectrum of a
  hyperplane arrangement, Math. Ann. 347 (2010), arXiv:0903.3839).
- `euler_projective_complement`: Whitney's subset-rank formula.
- `euler_sums_hold`: for each eigenvalue index k != d, the multiplicities
  of k/d + p summed over p equal (-1)^(n-1) times that Euler number.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations


def _reduce(basis, v) -> list[int]:
    """`v` with each basis pivot cleared, by fraction-free elimination.

    Rows are kept in insertion order, each already cleared at the pivots
    of the rows before it, so one pass leaves every pivot at zero.
    """
    v = list(v)
    for c, row in basis:
        if v[c]:
            a, b = row[c], v[c]
            v = [a * x - b * y for x, y in zip(v, row)]
    return v


def _basis(rows) -> list[tuple[int, list[int]]]:
    basis = []
    for r in rows:
        v = _reduce(basis, r)
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, v))
    return basis


def rank(rows) -> int:
    """Rank of integer vectors."""
    return len(_basis(rows))


def closure(normals, subset) -> frozenset[int]:
    """Indices of every hyperplane containing the intersection of `subset`."""
    basis = _basis(normals[i] for i in subset)
    return frozenset(j for j, v in enumerate(normals) if not any(_reduce(basis, v)))


def flats(normals) -> set[frozenset[int]]:
    """All flats of the arrangement, each named by its closure."""
    k = len(normals)
    return {closure(normals, s) for size in range(k + 1) for s in combinations(range(k), size)}


def rank2_flats(normals) -> set[frozenset[int]]:
    """Codimension-2 flats; for planes in C^3 these are the points of P^2."""
    return {closure(normals, pair) for pair in combinations(range(len(normals)), 2)}


def euler_projective_complement(normals) -> int:
    """Euler characteristic of the projectivized complement.

    The Poincare polynomial of the complement is the sum over subsets S
    of (-1)^|S| (-t)^rank(S); it equals (1 + t) times that of the
    projective complement, whose value at t = -1 is therefore the
    derivative at t = -1: the sum of (-1)^(|S|+1) rank(S).
    """
    k = len(normals)
    return sum(
        (-1) ** (size + 1) * rank([normals[i] for i in s])
        for size in range(1, k + 1)
        for s in combinations(range(k), size)
    )


def concurrent_lines(d: int) -> dict[Fraction, int]:
    """Spectrum of x^d - y^d: one exponent (i + j)/d for each 1 <= i, j <= d-1."""
    return dict(Counter(Fraction(i + j, d) for i in range(1, d) for j in range(1, d)))


def _c2(a: int) -> int:
    return a * (a - 1) // 2 if a >= 2 else 0


def budur_saito(d: int, point_mults) -> dict[Fraction, int]:
    """Spectrum of a reduced essential arrangement of d planes in C^3.

    `point_mults` lists, for every point of the projective line
    arrangement, the number of lines through it; only points of
    multiplicity >= 3 enter the formula.  The exponent 3 is excluded.
    """
    nu = Counter(m for m in point_mults if m >= 3)
    out: dict[Fraction, int] = {}
    for i in range(1, d + 1):
        n0, n1, n2 = _c2(i - 1), (i - 1) * (d - i - 1), _c2(d - i - 1)
        for m, count in nu.items():
            c = -(-i * m // d)
            n0 -= count * _c2(c - 1)
            n1 -= count * (c - 1) * (m - c)
            n2 -= count * _c2(m - c)
        base = Fraction(i, d)
        for p, value in enumerate((n0, n1, n2) if i < d else (n0, n1)):
            if value:
                out[base + p] = value
    return out


def euler_sums_hold(spec: dict[Fraction, int], n: int, d: int, euler: int, ks) -> bool:
    """Whether, for each k in `ks`, the multiplicities of k/d + p sum to (-1)^(n-1) euler."""
    expected = (-1) ** (n - 1) * euler
    return all(
        sum(spec.get(Fraction(k, d) + p, 0) for p in range(n)) == expected for k in ks
    )


def perturbed(spec: dict[Fraction, int], alpha: Fraction) -> dict[Fraction, int]:
    """The same spectrum with one more unit at `alpha`."""
    out = dict(spec)
    out[alpha] = out.get(alpha, 0) + 1
    if not out[alpha]:
        del out[alpha]
    return out
