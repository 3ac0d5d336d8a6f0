"""Line fields: factorization exactness and flowbox control."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock.certify import certify_block
from vfblock.errors import FactorVanishes, InsufficientPower
from vfblock.index import block_index
from vfblock.linefield import angle_mod_pi, factor_y_power, flowbox_line_field
from vfblock.flows import flowbox_build
from vfblock.poly import Poly2, X, Y
from vfblock.regions import disk

from test_poly import poly2_st


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


def test_controls_through_flowbox_pipeline(circle_field, rotation, std_annulus):
    fb = flowbox_build(rotation, (1, 0), 0.12, 0.4)
    line, _ = flowbox_line_field(fb, circle_field, 1)
    worst = 0.0
    for i in range(6):
        t = fb.time_window * 0.7 * (2 * i / 5 - 1)
        for j in range(6):
            s = fb.half_length * 0.7 * (2 * j / 5 - 1)
            p = fb.forward(t, s)
            vx, vy = circle_field.eval_float(*p)
            if math.hypot(vx, vy) < 1e-9:
                continue
            worst = max(worst, angle_mod_pi(line(*p), (vx, vy)))
    assert worst < 1e-6


def test_lines3_controls_implies_index_zero(circle_field, const_east,
                                            std_annulus):
    # the circle field on the standard annulus and the constant field on the
    # unit disk, each controlled by a line field, have block index 0
    for field, region in ((circle_field, std_annulus), (const_east, disk((0, 0), 1))):
        blk = certify_block(field, region, Fraction(1, 64))
        assert block_index(blk).index == 0
