"""A fixed reference computation that tells how fast the processor runs now.

The machine this benchmark runs on is shared: for stretches of a minute or
more the same op takes 25% less or more time than usual, in every layer at
once, and CPU time moves with wall time.  A run of half a minute sits in
one such stretch, so its wall times say more about the neighbours than
about the program.

The reference kernel does the two kinds of work arrspec spends its time
on, written independently of it: exact rational elimination of a fixed
matrix, and truncated products of polynomials stored as dicts from
exponent tuples to fractions.  It is timed between every two ops; the
op's wall time divided by the kernel's slowdown against REFERENCE_S is
the op's time at the machine's usual speed.  The kernel is part of the
benchmark, so no change to arrspec can make it faster or slower, and the
garbage collector is off while it runs, so its time does not depend on
how much memory the program holds.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from statistics import median
from time import perf_counter

# Seconds that one `measure()` takes on the reference machine (2-CPU
# "Intel(R) Xeon(R) Processor" at 2.1 GHz, CPython 3.11) at its usual
# speed.  Only the scale of the reported times depends on it.
REFERENCE_S = 0.038

_N = 12
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_N)] for i in range(_N)]


def _kernel() -> int:
    """Gauss-Jordan elimination of the fixed matrix; returns its rank."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_N):
        p = next((i for i in range(r, _N) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(_N):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _poly() -> dict[tuple[int, ...], Fraction]:
    """A fixed polynomial of degree 2 in six variables."""
    nv = 6
    p = {(0,) * nv: Fraction(1)}
    for i in range(nv):
        p[tuple(int(v == i) for v in range(nv))] = Fraction(i + 1, 2)
        for j in range(i, nv):
            p[tuple(int(v == i) + int(v == j) for v in range(nv))] = Fraction(i - j + 3, 1 + i + j)
    return p


_POLY = _poly()


def _poly_kernel(trunc: int = 3) -> int:
    """The fixed polynomial to the fourth power, dropping degrees above `trunc`."""
    out = _POLY
    for _ in range(3):
        res: dict[tuple[int, ...], Fraction] = {}
        for ma, ca in out.items():
            da = sum(ma)
            for mb, cb in _POLY.items():
                if da + sum(mb) > trunc:
                    continue
                mono = tuple(x + y for x, y in zip(ma, mb))
                v = res.get(mono, 0) + ca * cb
                if v:
                    res[mono] = v
                else:
                    res.pop(mono, None)
        out = res
    return len(out)


_RANK = _kernel()
_TERMS = _poly_kernel()


def measure(reps: int = 2) -> float:
    """Wall time of `reps` runs of both kernels, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(reps):
            if _kernel() != _RANK or _poly_kernel() != _TERMS:
                raise AssertionError("reference kernel gave a different answer")
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than usual the machine ran between two measurements."""
    return (before + after) / (2 * REFERENCE_S)


def smoothed(slows: list[float], half: int = 3) -> list[float]:
    """Each slowdown replaced by the median of those up to `half` ops away.

    One kernel measurement takes a few hundredths of a second and jitters;
    the machine's speed drifts over tens of seconds, so the median over a
    few neighbouring ops follows the drift and drops the jitter.
    """
    return [median(slows[max(0, i - half): i + half + 1]) for i in range(len(slows))]
