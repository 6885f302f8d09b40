"""The three seeded workloads: their inputs, their op, and their oracle.

Inputs come from a fixed ladder of size classes.  The seed picks the
normals and multiplicities inside each class, never the class order, so
every run sees the same mix of sizes and only the arrangements change.
Within a class no labeled lattice repeats until the class has used up
every one it can reach.

Generation uses only this package's own rank routines; arrspec receives
the finished inputs.  An op is one call into arrspec as a user makes it:

- lines-c2: `spectrum(arr)` for lines in C^2;
- planes-c3-cli: `arrspec.cli.main(["compute", doc])` for planes in C^3,
  stdout captured, default self-checks included;
- cells-c4: `prepare(arr)` then `multiplicity(setup, k, p)` for p = 0..3
  at one k < d set by the input's place in the ladder, for hyperplanes
  in C^4.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

import oracles


@dataclass
class Case:
    """One generated input: pure data, independent of arrspec."""

    label: str
    n: int
    normals: list[tuple[int, ...]]
    mults: list[int]
    k: int = 0  # queried eigenvalue index (cells-c4 only)
    facts: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return sum(self.mults)

    @property
    def reduced(self) -> bool:
        return all(m == 1 for m in self.mults)


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    w = tuple(x // g for x in v)
    lead = next(x for x in w if x)
    return w if lead > 0 else tuple(-x for x in w)


def _directions(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Primitive integer vectors in [lo, hi]^n, one per line through 0."""
    return sorted({_primitive(v) for v in product(range(lo, hi + 1), repeat=n) if any(v)})


def _signed(rng: random.Random, v):
    return v if rng.random() < 0.5 else tuple(-x for x in v)


def _add_weights(rng: random.Random, k: int, extra: int) -> list[int]:
    """Multiplicities in 1..3 summing to k + extra."""
    mults = [1] * k
    while extra:
        i = rng.randrange(k)
        if mults[i] < 3:
            mults[i] += 1
            extra -= 1
    return mults


def _sample(seen: set, draw, tries=100):
    """Draw until `draw` returns (case, signature) with a signature not in `seen`.

    Once `tries` valid draws in a row repeat a signature, the class has
    used every lattice the sampler reaches: `seen` is cleared and the next
    valid draw is taken.
    """
    misses = 0
    while True:
        got = draw()
        if got is None:
            continue
        case, signature = got
        if signature not in seen:
            seen.add(signature)
            return case
        misses += 1
        if misses >= tries:
            seen.clear()


# --- lines-c2 -------------------------------------------------------------

# (lines, weighted).  A run's median and tail are each read from one
# input class, so each must sit well inside a class whose ops all cost
# about the same: with one size per class, the op times form three tight
# clusters instead of a continuum, and the median averages many ops spread
# over the whole run instead of the one or two inputs that happen to fall
# in the middle.  Sorted by cost the cycle reads 24r < 36w = 36w < 48r =
# 48r: the median falls in the middle of the 36w cluster (20-60% of the
# ops) and the tail percentile (about p80 at fifty ops) inside the 48r
# cluster (60-100%).  Weighted inputs have degree 2 * lines, so every 36w
# op has the same number of cells.
_LINE_LADDER = [(24, False), (36, True), (48, False), (36, True), (48, False)]


def _lines_case(rng, dirs, m, weighted, label):
    normals = [_signed(rng, v) for v in rng.sample(dirs, m)]
    mults = _add_weights(rng, m, m) if weighted else [1] * m
    return Case(label, 2, normals, mults, facts={"flats": m + 2, "essential": True})


def lines_c2(seed: int, count: int) -> tuple[Case, list[Case]]:
    rng = random.Random(f"lines-c2:{seed}")
    dirs = _directions(2, -9, 9)
    seen_weights: set = set()

    def weighted_case(m, label):
        # reduced arrangements of m lines share one lattice; weighted ones
        # are kept distinct through their multiplicities
        def draw():
            case = _lines_case(rng, dirs, m, True, label)
            return case, tuple(case.mults)

        return _sample(seen_weights, draw)

    warmup = _lines_case(rng, dirs, 24, False, "warmup m=24 reduced")
    pool = []
    for i in range(count):
        m, weighted = _LINE_LADDER[i % len(_LINE_LADDER)]
        if weighted:
            pool.append(weighted_case(m, f"m={m} weighted"))
        else:
            pool.append(_lines_case(rng, dirs, m, False, f"m={m} reduced"))
    return warmup, pool


# --- planes-c3-cli --------------------------------------------------------

# (planes, multiplicities of the points of multiplicity >= 3, weighted).
# Sorted by cost the cycle reads 6r, 6w < 7r = 7r = 7r < 7w = 7w < 8r: the
# median falls inside the three 7r ops (25-62% of the ops) and the tail
# percentile (about p77 at forty-five ops) inside the two 7w ops
# (62-88%), never at the edge between two classes.  The largest class is
# one op in eight, so it costs a run few ops.
_PLANE_LADDER = [
    (6, (4, 3), False),
    (7, (4, 3), False),
    (7, (4, 3), True),
    (7, (4, 3), False),
    (8, (4, 3, 3, 3), False),
    (7, (4, 3), False),
    (7, (4, 3), True),
    (6, (4, 3), True),
]


def _points(normals) -> list[frozenset[int]]:
    """Points of the projective line arrangement, from 3x3 determinants."""
    k = len(normals)

    def det(a, b, c):
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )

    pts = set()
    for i in range(k):
        for j in range(i + 1, k):
            pts.add(
                frozenset([i, j] + [l for l in range(k) if l not in (i, j) and not det(normals[i], normals[j], normals[l])])
            )
    return sorted(pts, key=sorted)


def planes_c3(seed: int, count: int) -> tuple[Case, list[Case]]:
    rng = random.Random(f"planes-c3-cli:{seed}")
    dirs = _directions(3, -2, 2)
    seen: dict[tuple, set] = {}

    def make(k, profile, weighted, label):
        def draw():
            normals = [_signed(rng, v) for v in rng.sample(dirs, k)]
            pts = _points(normals)
            if tuple(sorted((len(p) for p in pts if len(p) > 2), reverse=True)) != profile:
                return None
            mults = _add_weights(rng, k, 3) if weighted else [1] * k
            facts = {"flats": 2 + k + len(pts), "essential": True, "points": [len(p) for p in pts]}
            return Case(label, 3, normals, mults, facts=facts), (frozenset(pts), tuple(mults))

        return _sample(seen.setdefault((k, profile, weighted), set()), draw)

    warmup = make(6, (4, 3), False, "warmup 6 planes (4,3) reduced")
    pool = []
    for i in range(count):
        k, profile, weighted = _PLANE_LADDER[i % len(_PLANE_LADDER)]
        kind = "weighted" if weighted else "reduced"
        pool.append(make(k, profile, weighted, f"{k} planes {profile} {kind}"))
    return warmup, pool


# --- cells-c4 -------------------------------------------------------------

# (hyperplanes, rank, flats); rank 3 is the non-essential path.  An
# essential input costs about six non-essential ones of 13 flats, so it is
# one op in eight, which keeps over twenty ops in a run.  At that count
# the tail percentile is near p55, so the 13-flat class, whose cost varies
# least between inputs, fills the sorted op times from 12% to 75% and
# holds both the median and the tail.
_CELL_LADDER = [
    (5, 4, 20),
    (5, 3, 13),
    (5, 3, 12),
    (5, 3, 13),
    (5, 3, 13),
    (6, 3, 15),
    (5, 3, 13),
    (5, 3, 13),
]


def cells_c4(seed: int, count: int) -> tuple[Case, list[Case]]:
    rng = random.Random(f"cells-c4:{seed}")
    dirs = _directions(4, -1, 1)
    # rank-3 inputs are drawn inside the hyperplane orthogonal to a random w
    inside = {w: [v for v in dirs if sum(a * b for a, b in zip(v, w)) == 0] for w in dirs}
    seen: dict[tuple, set] = {}

    def make(k, rank, nflats, label, query_k):
        def draw():
            choices = dirs if rank == 4 else inside[rng.choice(dirs)]
            if len(choices) < k:
                return None
            normals = [_signed(rng, v) for v in rng.sample(choices, k)]
            if oracles.rank(normals) != rank:
                return None
            points = oracles.rank2_flats(normals)
            if rank == 3:
                # flats: ambient, hyperplanes, codimension 2, the common line
                found = 2 + k + len(points)
            else:
                found = len(oracles.flats(normals))
            if found != nflats:
                return None
            facts = {"flats": found, "essential": rank == 4}
            case = Case(label, 4, normals, [1] * k, k=query_k, facts=facts)
            return case, frozenset(points)

        return _sample(seen.setdefault((k, rank, nflats), set()), draw)

    warmup = make(5, 3, 13, "warmup 5 hyperplanes rank 3", 1)
    pool = []
    for i in range(count):
        k, rank, nflats = _CELL_LADDER[i % len(_CELL_LADDER)]
        # the queried k < d comes from the position, not the seed: the cost
        # of the four cells depends on k, so every run gets the same mix
        query_k = 1 + i % (k - 1)
        pool.append(make(k, rank, nflats, f"{k} hyperplanes rank {rank} {nflats} flats", query_k))
    return warmup, pool


# --- ops and oracles ------------------------------------------------------


def _spec_from_points(points) -> dict[Fraction, int]:
    return {Fraction(pt.alpha): pt.mult for pt in points if pt.mult}


class Workload:
    """Generation, program input, op and oracle for one workload."""

    name = ""
    generate = None
    pool_size = 0
    traced_ops = 0

    def program_input(self, api, case: Case, workdir: str, index: int):
        return api.Arrangement.from_normals(case.n, case.normals, case.mults)

    def run(self, api, prog_input):
        raise NotImplementedError

    def answer(self, case: Case, raw) -> dict[Fraction, int] | None:
        """The raw op output as a spectrum, or None when the op itself failed."""
        raise NotImplementedError

    def oracle(self, case: Case, spec: dict[Fraction, int]) -> bool:
        raise NotImplementedError

    def check(self, case: Case, raw) -> tuple[bool, bool]:
        """(answer agrees with the oracle, oracle rejects the perturbed answer)."""
        spec = self.answer(case, raw)
        if spec is None:
            return False, True
        bump = oracles.perturbed(spec, Fraction(case.k or 1, case.degree))
        return self.oracle(case, spec), not self.oracle(case, bump)


class LinesC2(Workload):
    name = "lines-c2"
    generate = staticmethod(lines_c2)
    pool_size = 160
    traced_ops = 16

    def run(self, api, arr):
        return api.spectrum_mod.spectrum(arr)

    def answer(self, case, raw):
        return _spec_from_points(raw.points)

    def oracle(self, case, spec):
        d = case.degree
        if case.reduced:
            return spec == oracles.concurrent_lines(d)
        return oracles.euler_sums_hold(spec, 2, d, 2 - len(case.normals), range(1, d))


class PlanesC3Cli(Workload):
    name = "planes-c3-cli"
    generate = staticmethod(planes_c3)
    pool_size = 96
    traced_ops = 16

    def program_input(self, api, case, workdir, index):
        doc = {
            "n": case.n,
            "hyperplanes": [
                {"coeffs": list(v), "mult": m} for v, m in zip(case.normals, case.mults)
            ],
        }
        path = f"{workdir}/case{index:04d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run(self, api, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli.main(["compute", path])
        return code, out.getvalue()

    def answer(self, case, raw):
        code, text = raw
        if code != 0:
            return None
        doc = json.loads(text)
        if not all(c["passed"] for c in doc["checks"]):
            return None
        return {Fraction(e["alpha"]): e["mult"] for e in doc["spectrum"] if e["mult"]}

    def oracle(self, case, spec):
        d = case.degree
        pts = case.facts["points"]
        if case.reduced:
            return spec == oracles.budur_saito(d, pts)
        euler = 3 - (2 * len(case.normals) - sum(m - 1 for m in pts))
        return oracles.euler_sums_hold(spec, 3, d, euler, range(1, d))


class CellsC4(Workload):
    name = "cells-c4"
    generate = staticmethod(cells_c4)
    pool_size = 64
    traced_ops = 16

    def program_input(self, api, case, workdir, index):
        return api.Arrangement.from_normals(case.n, case.normals, case.mults), case.k

    def run(self, api, query):
        arr, k = query
        mod = api.spectrum_mod
        setup = mod.prepare(arr)
        return tuple(mod.multiplicity(setup, k, p) for p in range(4))

    def answer(self, case, raw):
        d = case.degree
        return {Fraction(case.k, d) + p: v for p, v in enumerate(raw) if v}

    def oracle(self, case, spec):
        d, k = case.degree, case.k
        if not oracles.euler_sums_hold(spec, 4, d, oracles.euler_projective_complement(case.normals), [k]):
            return False
        if case.facts["essential"]:
            return True
        # a rank-3 arrangement in C^4 is its essentialization in C^3 times
        # a line, and Sp(f on C^4) = -t Sp(f on C^3): each cell is minus a
        # Budur-Saito multiplicity one unit lower
        low = oracles.budur_saito(d, [len(p) for p in oracles.rank2_flats(case.normals)])
        return all(
            spec.get(Fraction(k, d) + p, 0) == (-low.get(Fraction(k, d) + p - 1, 0) if p else 0)
            for p in range(4)
        )
