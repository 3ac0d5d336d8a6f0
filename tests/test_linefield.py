"""Line fields: factorization exactness, axis extension, control, holonomy."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock.certify import certify_block
from vfblock.errors import FactorVanishes, InsufficientPower, SamplingTooCoarse
from vfblock.fields import plane_field
from vfblock.index import block_index
from vfblock.linefield import (LineFieldRep, angle_mod_pi, controls_check,
                               extend_line_field, factor_y_power,
                               flowbox_line_field, orientability_check)
from vfblock.flows import flowbox_build
from vfblock.poly import Poly2, X, Y
from vfblock.regions import disk, rectangle

from test_poly import poly2_st

D = rectangle(-1, -1, 1, 1)


def test_factor_examples():
    g1, g2 = factor_y_power((Y ** 2, X * Y ** 2), 2)
    assert (g1, g2) == (Poly2.const(1), X)
    g1, g2 = factor_y_power((X * Y, Y), 1)
    assert (g1, g2) == (X, Poly2.const(1))


def test_factor_vanishes_with_witness():
    with pytest.raises(FactorVanishes) as exc:
        factor_y_power((X * Y + Y ** 2, Y ** 2), 1)
    assert exc.value.witness == 0


def test_factor_vanishes_decided_exactly():
    # x^2 - 2 has its zero sqrt(2) in [1, 2]: no rational witness
    with pytest.raises(FactorVanishes) as exc:
        factor_y_power((Y * (X ** 2 - 2), Poly2.zero()), 1, (1, 2))
    assert exc.value.witness is None
    # x^2 + 1/10^6 stays positive on [-1, 1] with a minimum of 1/10^6
    g1, g2 = factor_y_power((Y * (X ** 2 + Fraction(1, 10 ** 6)), Poly2.zero()), 1)
    assert (g1, g2) == (X ** 2 + Fraction(1, 10 ** 6), Poly2.zero())


def test_factor_insufficient_power():
    with pytest.raises(InsufficientPower):
        factor_y_power((X, Y), 1)


@given(poly2_st(), poly2_st(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_factor_exactness_roundtrip(a, b, l):
    f1 = a * Y ** l
    f2 = b * Y ** l
    if (f1 + f2).is_zero():
        return
    try:
        g1, g2 = factor_y_power((f1, f2), l)
    except FactorVanishes:
        return
    ypow = Y ** l
    assert g1 * ypow == f1
    assert g2 * ypow == f2


def test_extend_horizontal():
    lam = extend_line_field((Y, Poly2.zero()), 1, D)
    for p in ((0.3, 0.5), (0.3, 0.0), (-0.7, -0.2)):
        assert angle_mod_pi(lam(*p), (1.0, 0.0)) < 1e-12


def test_extend_affine_factor():
    lam = extend_line_field((Y * (1 + X), Y), 1, D)
    v = lam(0.5, 0.0)
    expected = (1.5 / math.hypot(1.5, 1), 1 / math.hypot(1.5, 1))
    assert angle_mod_pi(v, expected) < 1e-12
    # off axis it matches F/|F| as a line
    f = plane_field(Y * (1 + X), Y)
    for p in ((0.5, 0.3), (0.5, -0.3)):
        assert angle_mod_pi(lam(*p), f.eval_float(*p)) < 1e-12


def test_extend_even_power_limit_law():
    lam = extend_line_field((Y ** 2, X * Y ** 2), 2, D)
    for xv in (-1.0, 0.0, 1.0):
        axis = lam(xv, 0.0)
        near = lam(xv, 1e-6)
        assert angle_mod_pi(axis, near) < 1e-6


def test_limit_law_monotone_decrease():
    # deviation at |y| = 2^-m decreases monotonically for m = 4..12
    fields = [((Y ** 2, X * Y ** 2), 2), ((Y * (1 + X), Y), 1),
              ((Y + X * Y, Y - Y ** 2), 1)]
    for f_pair, l in fields:
        lam = extend_line_field(f_pair, l, D)
        for xv in (-0.5, 0.0, 0.5):
            axis = lam(xv, 0.0)
            devs = [angle_mod_pi(axis, lam(xv, 2.0 ** -m)) for m in range(4, 13)]
            assert all(a >= b - 1e-15 for a, b in zip(devs, devs[1:]))


def test_continuity_report_shrinks():
    lam = extend_line_field((Y ** 2, X * Y ** 2), 2, D)
    jumps = lam.meta["continuity"]
    assert jumps[0] < math.pi / 4
    assert jumps[-1] <= jumps[0]


def test_controls_examples(circle_field, euler, std_annulus, unit_disk):
    def rot_rep(x, y):
        n = math.hypot(x, y)
        return (-y / n, x / n)

    lam = LineFieldRep(rot_rep)
    res = controls_check(lam, circle_field, std_annulus, 1e-6, 300)
    assert res.controls and res.max_deviation < 1e-7

    horizontal = LineFieldRep(lambda x, y: (1.0, 0.0))
    res2 = controls_check(horizontal, euler, unit_disk, 1e-6, 600)
    assert not res2.controls
    assert res2.max_deviation > math.pi / 2 - 0.1


def test_controls_through_flowbox_pipeline(circle_field, rotation, std_annulus):
    fb = flowbox_build(rotation, (1, 0), 0.12, 0.4)
    lam = flowbox_line_field(fb, circle_field, 1)
    worst = 0.0
    for i in range(6):
        t = fb.time_window * 0.7 * (2 * i / 5 - 1)
        for j in range(6):
            s = fb.half_length * 0.7 * (2 * j / 5 - 1)
            p = fb.forward(t, s)
            vx, vy = circle_field.eval_float(*p)
            if math.hypot(vx, vy) < 1e-9:
                continue
            worst = max(worst, angle_mod_pi(lam(*p), (vx, vy)))
    assert worst < 1e-6


def test_orientability_examples(std_annulus):
    def rot_rep(x, y):
        n = math.hypot(x, y)
        return (-y / n, x / n)

    assert orientability_check(LineFieldRep(rot_rep), std_annulus, 64)

    def half_angle(x, y):
        th = math.atan2(y, x)
        return (math.cos(th / 2), math.sin(th / 2))

    lam = LineFieldRep(half_angle)
    assert not orientability_check(lam, std_annulus, 128)
    assert lam.orientable is False

    assert orientability_check(LineFieldRep(lambda x, y: (1.0, 0.0)),
                               std_annulus, 64)


def test_orientability_restart_invariance(std_annulus):
    def half_angle(x, y):
        th = math.atan2(y, x)
        return (math.cos(th / 2), math.sin(th / 2))

    lam = LineFieldRep(half_angle)
    verdicts = {orientability_check(lam, std_annulus, 128, start_offset=o)
                for o in (0.0, 0.2, 0.55, 0.81)}
    assert verdicts == {False}


def test_orientability_too_coarse(std_annulus):
    def wiggly(x, y):
        th = math.atan2(y, x)
        return (math.cos(7 * th), math.sin(7 * th))

    with pytest.raises(SamplingTooCoarse):
        orientability_check(LineFieldRep(wiggly), std_annulus, 8)


def test_direction_grid_export():
    import json
    from vfblock.linefield import direction_grid

    lam = extend_line_field((Y * (1 + X), Y), 1, D)
    grid = direction_grid(lam, D, 8)
    assert grid["grid"] == 8
    assert len(grid["directions"]) == 81
    for px, py, ux, uy in grid["directions"]:
        assert abs(math.hypot(ux, uy) - 1) < 1e-12
    json.dumps(grid)  # JSON-serializable as exported


def test_lines3_controls_implies_index_zero(circle_field, const_east,
                                            std_annulus):
    # every corpus scenario where a line field controls X on a certified
    # isolating region has block index 0
    def rot_rep(x, y):
        n = math.hypot(x, y)
        return (-y / n, x / n)

    scenarios = [
        (circle_field, std_annulus, LineFieldRep(rot_rep)),
        (const_east, disk((0, 0), 1), LineFieldRep(lambda x, y: (1.0, 0.0))),
    ]
    for field, region, lam in scenarios:
        res = controls_check(lam, field, region, 1e-6, 300)
        assert res.controls
        blk = certify_block(field, region, Fraction(1, 64))
        assert block_index(blk).index == 0
