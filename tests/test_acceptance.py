"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Every expected value here is frozen: either a hand-checked value, a
published example value, or the output of an independent classical
formula written out inline.  Time bounds are wall-clock and generous for
the machine class this targets.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from arrspec import (
    GradedPoly,
    ch_dual_exterior_roots,
    euler_projective_complement,
    prepare,
    spectrum,
    spectrum_from_setup,
)
from arrspec.cli import main
from arrspec.docio import arrangement_to_dict
from arrspec.fixtures import resolve_fixture

ALL_FIXTURES = [
    "example-a",
    "example-a-weighted",
    "example-b1",
    "example-b2",
    "generic3d:4",
    "generic3d:5",
    "generic3d:6",
]


def _spectrum_pairs(name):
    return [(pt.alpha, pt.mult) for pt in spectrum(resolve_fixture(name)).points]


def _compute_cli(capsys, source):
    assert main(["compute", source]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    pairs = [(Fraction(e["alpha"]), e["mult"]) for e in doc["spectrum"]]
    return out, pairs


def test_acceptance_1_three_lines_exact(capsys):
    start = time.monotonic()
    _, pairs = _compute_cli(capsys, "example-a")
    elapsed = time.monotonic() - start
    assert pairs == [
        (Fraction(2, 3), 1),
        (Fraction(1), 2),
        (Fraction(4, 3), 1),
    ]
    assert pairs == _spectrum_pairs("example-a")
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (three concurrent lines, exact spectrum): PASS ({elapsed:.3f}s)")


def test_acceptance_2_quartic_pair_exact(capsys):
    start = time.monotonic()
    expected = [
        (Fraction(3, 4), 1),
        (Fraction(1), 3),
        (Fraction(3, 2), 1),
        (Fraction(2), -3),
        (Fraction(9, 4), 1),
    ]
    out1, pairs1 = _compute_cli(capsys, "example-b1")
    out2, pairs2 = _compute_cli(capsys, "example-b2")
    elapsed = time.monotonic() - start
    assert pairs1 == expected
    assert pairs2 == expected
    assert out1 == out2
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 (equivalent quartics, exact spectrum): PASS ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def maximal_setups():
    """The fixtures on the maximal building set, the model whose
    intermediate classes and ranks the paper prints."""
    return {name: prepare(resolve_fixture(name), "maximal") for name in ALL_FIXTURES}


def test_acceptance_3_intermediate_classes(maximal_setups):
    # the printed intermediate classes of both worked examples hold mod I
    setups = maximal_setups
    s = setups["example-a"]
    nv = s.building.size
    c0 = GradedPoly.variable(0, nv, 1)
    one = GradedPoly.constant(1, nv, 1)
    cs = [GradedPoly.variable(i, nv, 1) for i in range(nv)]
    assert s.classes.total == one - 2 * c0
    assert s.classes.todd == one - c0
    assert s.classes.log_chern == one + 2 * c0 + cs[1] + cs[2] + cs[3]
    assert not s.ideal.element(s.classes.dual_ch[1] - (one + c0))

    for name in ("example-b1", "example-b2"):
        s = setups[name]
        nv = s.building.size
        c0 = GradedPoly.variable(0, nv, 2)
        one = GradedPoly.constant(1, nv, 2)
        sB = sum(
            (GradedPoly.variable(i, nv, 2) for i in range(1, 7)),
            GradedPoly.zero(nv, 2),
        )
        checks = [
            (s.classes.total, 9 * c0**2 - sB - 3 * c0 + one),
            (s.classes.todd, c0**2 - Fraction(1, 2) * sB - Fraction(3, 2) * c0 + one),
            (s.classes.log_chern, c0**2 - c0 + one),
            (s.classes.dual_ch[1], -Fraction(1, 2) * c0**2 + c0 + 2 * one),
            (s.classes.dual_ch[2], Fraction(1, 2) * c0**2 + c0 + one),
        ]
        for got, want in checks:
            assert not s.ideal.element(got - want), name
    print("\nACCEPTANCE 3 (intermediate characteristic classes): PASS")


def test_acceptance_4_plane_curve_oracle():
    start = time.monotonic()
    for d in range(1, 9):
        expected: dict[Fraction, int] = {}
        for i in range(1, d):
            for j in range(1, d):
                a = Fraction(i + j, d)
                expected[a] = expected.get(a, 0) + 1
        got = dict(_spectrum_pairs(f"lines:{d}"))
        assert got == expected, f"d={d}"
        assert all(got.get(2 - a, 0) == m for a, m in got.items()), f"d={d} symmetry"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4 (classical plane curve spectra, d=1..8): PASS ({elapsed:.3f}s)")


def test_acceptance_5_euler_sums():
    start = time.monotonic()
    for name in ALL_FIXTURES:
        setup = prepare(resolve_fixture(name))
        result = spectrum_from_setup(setup)
        expected = (-1) ** (setup.n - 1) * euler_projective_complement(setup.lattice)
        d = setup.degree
        sums = {k: 0 for k in range(1, d)}
        for pt in result.points:
            if pt.k != d:
                sums[pt.k] += pt.mult
        assert all(s == expected for s in sums.values()), name
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 5 (per-eigenvalue Euler sums, all fixtures): PASS ({elapsed:.3f}s)")


def test_acceptance_6_cohomology_ranks(maximal_setups):
    setups = maximal_setups
    for name in ALL_FIXTURES:
        ranks = setups[name].ideal.quotient_ranks
        assert ranks[0] == 1 and ranks[-1] == 1, name
        assert ranks == ranks[::-1], name
    assert setups["example-b1"].ideal.quotient_ranks[1] == 7
    assert setups["example-b2"].ideal.quotient_ranks[1] == 7
    print("\nACCEPTANCE 6 (cohomology rank symmetry, middle rank): PASS")


def test_acceptance_7_chern_cross_route(setups):
    for name in ALL_FIXTURES:
        s = setups[name]
        for p in range(s.n):
            direct = ch_dual_exterior_roots(s.building, p, s.classes.log_chern)
            assert s.classes.dual_ch[p] == direct, (name, p)
    print("\nACCEPTANCE 7 (two Chern character routes agree): PASS")


def test_acceptance_8_determinism(capsys, tmp_path):
    # byte-identical output across worker counts
    assert main(["compute", "example-b1", "--jobs", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["compute", "example-b1", "--jobs", "8"]) == 0
    out8 = capsys.readouterr().out
    assert out1 == out8
    # relabeling hyperplanes cannot change the output
    arr = resolve_fixture("example-b1")
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(arrangement_to_dict(arr.permuted([3, 1, 2, 0]))))
    assert main(["compute", str(path)]) == 0
    out_perm = capsys.readouterr().out
    assert out_perm == out1
    print("\nACCEPTANCE 8 (deterministic output): PASS")
