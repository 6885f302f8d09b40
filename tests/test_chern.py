from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from arrspec import (
    Arrangement,
    GradedPoly,
    ch_dual_exterior_roots,
    prepare,
    q_series,
    reduce_top,
)
from arrspec.chern import series_log, tangent_roots
from test_quotient import braid


def series_apply(coeffs, z):
    """Evaluate a power series with the given coefficients at `z`, of zero constant term."""
    out = GradedPoly.constant(coeffs[0], z.nvars, z.trunc)
    power = GradedPoly.constant(1, z.nvars, z.trunc)
    for c in coeffs[1 : z.trunc + 1]:
        power = power * z
        out = out + power * c
    return out


def signed_power(u, m):
    """`u ** m` for any integer m, for u of constant term 1: its inverse is the
    geometric series in 1 - u, which is finite in the truncated ring."""
    if m >= 0:
        return u**m
    inv = power = GradedPoly.constant(1, u.nvars, u.trunc)
    for _ in range(u.trunc):
        power = power * (1 - u)
        inv = inv + power
    return inv**-m


def test_q_series_frozen_values():
    # x / (1 - exp(-x)): the classical Todd series coefficients
    assert q_series(6) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
        Fraction(0),
        Fraction(1, 30240),
    ]


def test_q_series_defining_identity():
    # Q(x) * (1 - exp(-x)) == x, checked by exact convolution to degree 9
    deg = 9
    q = q_series(deg)
    denom = [Fraction(0)] + [
        -Fraction((-1) ** k, factorial(k)) for k in range(1, deg + 1)
    ]
    prod = [
        sum((q[i] * denom[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(deg + 1)
    ]
    assert prod == [Fraction(0), Fraction(1)] + [Fraction(0)] * (deg - 1)


def test_series_log_of_one_plus_x_frozen_values():
    # log(1 + x) = x - x^2/2 + x^3/3 - ...
    log = series_log([Fraction(1), Fraction(1)] + [Fraction(0)] * 5)
    assert log == [Fraction(0)] + [Fraction((-1) ** (k - 1), k) for k in range(1, 7)]


def test_series_log_exponentiates_back():
    x = GradedPoly.variable(0, 1, 6)
    cubic = [Fraction(1), Fraction(-3), Fraction(2, 7), Fraction(5)] + [Fraction(0)] * 3
    for coeffs in (q_series(6), cubic):
        assert series_apply(series_log(coeffs), x).exp() == series_apply(coeffs, x)


def test_series_apply_matches_exp():
    z = GradedPoly.variable(0, 2, 3) + GradedPoly.variable(1, 2, 3)
    coeffs = [Fraction(1, factorial(k)) for k in range(4)]
    assert series_apply(coeffs, z) == z.exp()


THREE_LINES = prepare(Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)]))
# the paper's maximal model
QUARTIC = prepare(
    Arrangement.from_normals(3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)]), "maximal"
)
SINGLE = prepare(Arrangement.from_normals(3, [(1, 0, 0)]))


def _vars(setup):
    nv, tr = setup.building.size, setup.n - 1
    return [GradedPoly.variable(i, nv, tr) for i in range(nv)], GradedPoly.constant(
        1, nv, tr
    )


def test_three_lines_classes_free_ring():
    # hand computation: every blow-down factor contributes trivially here
    c, one = _vars(THREE_LINES)
    cl = THREE_LINES.classes
    assert cl.total == one - 2 * c[0]
    assert cl.todd == one - c[0]
    assert cl.log_chern == one + 2 * c[0] + c[1] + c[2] + c[3]
    assert cl.dual_ch[0] == one
    assert cl.dual_ch[1] == one - (2 * c[0] + c[1] + c[2] + c[3])


def test_three_lines_classes_mod_ideal():
    c, one = _vars(THREE_LINES)
    ideal = THREE_LINES.ideal
    cl = THREE_LINES.classes
    assert not ideal.element(cl.total - (one - 2 * c[0]))
    assert not ideal.element(cl.todd - (one - c[0]))
    # mod I every line variable collapses to -c0
    assert not ideal.element(cl.log_chern - (one - c[0]))
    assert not ideal.element(cl.dual_ch[1] - (one + c[0]))


def test_quartic_classes_mod_ideal():
    c, one = _vars(QUARTIC)
    ideal = QUARTIC.ideal
    cl = QUARTIC.classes
    lines = [i for i in range(1, 7)]
    sB = c[1] + c[2] + c[3] + c[4] + c[5] + c[6]
    assert {QUARTIC.building.dims[i] for i in lines} == {1}
    assert not ideal.element(cl.total - (9 * c[0] ** 2 - sB - 3 * c[0] + one))
    assert not ideal.element(
        cl.todd - (c[0] ** 2 - Fraction(1, 2) * sB - Fraction(3, 2) * c[0] + one)
    )
    assert not ideal.element(cl.log_chern - (c[0] ** 2 - c[0] + one))
    assert cl.dual_ch[0] == one
    assert not ideal.element(cl.dual_ch[1] - (-Fraction(1, 2) * c[0] ** 2 + c[0] + 2 * one))
    assert not ideal.element(cl.dual_ch[2] - (Fraction(1, 2) * c[0] ** 2 + c[0] + one))


def test_todd_integrates_to_one_on_quartic_resolution(setups):
    # every resolution here is rational, so the Todd class evaluates to 1
    for setup in (QUARTIC, THREE_LINES, SINGLE, *setups.values()):
        assert reduce_top(setup.classes.todd, setup.ideal) == 1


def test_classes_equal_products_over_tangent_roots(setups):
    # the exponential of summed logarithms is the product of the factors
    for setup in setups.values():
        bs, cl = setup.building, setup.classes
        q = q_series(setup.n - 1)
        total = todd = GradedPoly.constant(1, bs.size, setup.n - 1)
        for m, x in tangent_roots(bs):
            total = total * signed_power(1 + x, m)
            todd = todd * signed_power(series_apply(q, x), m)
        assert cl.total == total
        assert cl.todd == todd


def test_single_hyperplane_is_projective_plane():
    # blowing up a divisor changes nothing: the classes are those of P^2
    c, one = _vars(SINGLE)
    ideal = SINGLE.ideal
    cl = SINGLE.classes
    assert not ideal.element(cl.total - (one - c[0]) ** 3)
    assert reduce_top(cl.todd, ideal) == 1


def test_top_exterior_power_is_line_bundle():
    for setup in (THREE_LINES, QUARTIC, SINGLE):
        cl = setup.classes
        top = setup.n - 1
        assert cl.dual_ch[top] == (-cl.log_chern.graded_part(1)).exp()


def test_chern_character_cross_route():
    for setup in (THREE_LINES, QUARTIC, SINGLE):
        bs, cl = setup.building, setup.classes
        for p in range(setup.n):
            direct = ch_dual_exterior_roots(bs, p, cl.log_chern)
            assert cl.dual_ch[p] == direct
    # the same route on the quotient class, also on braid A4 with both building sets
    arr, closures = braid(4)
    for setup in (THREE_LINES, QUARTIC, SINGLE, prepare(arr), prepare(arr, closures)):
        q = setup.quotient
        for p in range(setup.n):
            assert ch_dual_exterior_roots(setup.building, p, q.log_chern) == q.dual_ch[p]


def test_chern_character_ranks_sum_to_euler_of_exterior_algebra():
    for setup in (THREE_LINES, QUARTIC):
        total = sum(cls.constant_term for cls in setup.classes.dual_ch)
        assert total == 2 ** (setup.n - 1)
        for p, cls in enumerate(setup.classes.dual_ch):
            assert cls.constant_term == comb(setup.n - 1, p)
