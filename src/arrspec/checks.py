"""Self-checks that accompany every computed spectrum.

Each check compares the main computation against an independent quantity:
lattice combinatorics (Euler characteristic), classical formulas (plane
curve spectra), dual implementations (two Chern character routes), or
structural facts about the cohomology ring (duality of ranks).  A check
never repairs anything; it reports what it compared and whether the two
sides agreed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import euler_projective_complement
from .chern import ch_dual_exterior_roots
from .spectrum import SpectrumResult, SpectrumSetup


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_duality_ranks(setup: SpectrumSetup) -> CheckResult:
    ranks = setup.ideal.quotient_ranks
    top = len(ranks) - 1
    ok = ranks[0] == 1 and ranks[top] == 1
    ok = ok and all(ranks[j] == ranks[top - j] for j in range(top + 1))
    return CheckResult(
        "cohomology ranks",
        ok,
        "ranks " + ",".join(str(r) for r in ranks) + " (must be symmetric, ends 1)",
    )


def _check_euler(setup: SpectrumSetup, result: SpectrumResult) -> CheckResult:
    d = setup.degree
    expected = (-1) ** (setup.n - 1) * euler_projective_complement(setup.lattice)
    sums = {k: 0 for k in range(1, d)}
    for pt in result.points:
        if pt.k != d:
            sums[pt.k] += pt.mult
    bad = {k: s for k, s in sums.items() if s != expected}
    if d == 1:
        return CheckResult("euler characteristic per eigenvalue", True, "no proper eigenvalues")
    detail = f"expected {expected} for each k in 1..{d - 1}"
    if bad:
        detail += "; mismatches " + ", ".join(f"k={k}: {s}" for k, s in sorted(bad.items()))
    return CheckResult("euler characteristic per eigenvalue", not bad, detail)


def _check_cross_route(setup: SpectrumSetup) -> CheckResult:
    classes = setup.quotient
    bad = [
        p
        for p in range(setup.building.n)
        if classes.dual_ch[p] != ch_dual_exterior_roots(setup.building, p, classes.log_chern)
    ]
    detail = f"exterior powers 0..{setup.building.n - 1} via Adams operations vs direct root expansion"
    if bad:
        detail += "; mismatch at p=" + ",".join(map(str, bad))
    return CheckResult("chern character cross-route", not bad, detail)


def plane_curve_oracle(d: int) -> dict[Fraction, int]:
    """Spectrum of d distinct concurrent reduced lines, from the classical formula.

    The exponents are (i + j)/d for 1 <= i, j <= d - 1, so s/d occurs
    min(s - 1, 2d - 1 - s) times for s = 2..2d - 2.
    """
    return {Fraction(s, d): min(s - 1, 2 * d - 1 - s) for s in range(2, 2 * d - 1)}


def _check_plane_curves(setup: SpectrumSetup, result: SpectrumResult) -> CheckResult | None:
    if setup.n != 2 or any(h.mult != 1 for h in setup.arrangement.hyperplanes):
        return None
    expected = plane_curve_oracle(setup.degree)
    got = {pt.alpha: pt.mult for pt in result.points}
    ok = got == expected
    sym = all(got.get(2 - a, 0) == m for a, m in got.items())
    detail = f"classical spectrum of {setup.degree} concurrent lines, plus symmetry about 1"
    if not ok:
        detail += "; multiset mismatch"
    if not sym:
        detail += "; symmetry broken"
    return CheckResult("plane curve oracle", ok and sym, detail)


def run_checks(setup: SpectrumSetup, result: SpectrumResult) -> list[CheckResult]:
    out = [
        _check_duality_ranks(setup),
        _check_euler(setup, result),
        _check_cross_route(setup),
    ]
    pc = _check_plane_curves(setup, result)
    if pc is not None:
        out.append(pc)
    return out
