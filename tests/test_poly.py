"""Exact polynomial core and the interval layer underneath it."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock import upoly
from vfblock.errors import InsufficientPower
from vfblock.poly import Poly2, X, Y, restrict_to_circle, restrict_to_segment

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def poly2_st(draw, max_degree=4):
    terms = {}
    n = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_degree))
        j = draw(st.integers(min_value=0, max_value=max_degree - min(i, max_degree)))
        terms[(i, j)] = draw(fractions_st)
    return Poly2(terms)


def test_zero_polynomial_degree_convention():
    assert Poly2.zero().degree == -1
    assert Poly2.zero().min_total_degree == -1
    assert Poly2.const(5).degree == 0
    assert (X ** 2 * Y).degree == 3


def test_canonical_form_drops_zeros():
    p = X - X
    assert p.is_zero()
    assert p.monomials() == {}


@given(poly2_st(), poly2_st(), fractions_st, fractions_st)
@settings(max_examples=60, deadline=None)
def test_eval_exact_is_ring_homomorphism(p, q, x, y):
    assert (p + q).eval_exact(x, y) == p.eval_exact(x, y) + q.eval_exact(x, y)
    assert (p * q).eval_exact(x, y) == p.eval_exact(x, y) * q.eval_exact(x, y)


@given(poly2_st(), fractions_st, fractions_st)
@settings(max_examples=60, deadline=None)
def test_eval_exact_matches_termwise_expansion(p, x, y):
    expected = sum((c * x ** i * y ** j for (i, j), c in p.monomials().items()),
                   Fraction(0))
    assert p.eval_exact(x, y) == expected


@given(poly2_st(), fractions_st, fractions_st, fractions_st, fractions_st)
@settings(max_examples=60, deadline=None)
def test_translate_shifts_evaluation(p, ax, ay, x, y):
    assert p.translate(ax, ay).eval_exact(x, y) == p.eval_exact(x + ax, y + ay)


def test_derivatives():
    p = X ** 2 * Y + 3 * Y ** 2
    assert p.dx() == 2 * X * Y
    assert p.dy() == X ** 2 + 6 * Y


def test_divide_y_power():
    p = Y ** 2 + X * Y ** 3
    assert p.divide_y_power(2) == Poly2.const(1) + X * Y
    with pytest.raises(InsufficientPower):
        (X + Y ** 2).divide_y_power(1)


@given(poly2_st(), fractions_st, fractions_st)
@settings(max_examples=40, deadline=None)
def test_interval_eval_is_sound(p, x, y):
    width = Fraction(1, 8)
    box = ((iv.make(x - width)[0], iv.make(x + width)[1]),
           (iv.make(y - width)[0], iv.make(y + width)[1]))
    lo, hi = p.eval_interval(*box)
    value = float(p.eval_exact(x, y))
    assert lo <= value <= hi


@given(st.floats(-10, 10), st.floats(0, 3))
@settings(max_examples=80, deadline=None)
def test_interval_sin_cos_sound(a, width):
    lo, hi = a, a + width
    s = iv.sin_iv((lo, hi))
    c = iv.cos_iv((lo, hi))
    for t in (lo, lo + width / 3, lo + width / 2, hi):
        assert s[0] <= math.sin(t) <= s[1]
        assert c[0] <= math.cos(t) <= c[1]


@given(st.integers(-20, 20), st.integers(1, 20), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_interval_pow_sound(num, den, n):
    x = Fraction(num, den)
    box = iv.make(x)
    lo, hi = iv.pow_int(box, n)
    assert lo <= float(x ** n) <= hi


def test_restrict_to_circle_detects_boundary_vanishing():
    # x^2 + y^2 - 1 vanishes identically on the unit circle
    p = X ** 2 + Y ** 2 - 1
    assert upoly.is_zero(restrict_to_circle(p, 0, 0, 1))
    # but not on a circle of radius 2
    r = restrict_to_circle(p, 0, 0, 2)
    assert not upoly.is_zero(r)


def test_restrict_to_circle_matches_pointwise_evaluation():
    p = X ** 2 * Y - 2 * X + Y ** 3
    coeffs = restrict_to_circle(p, Fraction(1, 2), 0, Fraction(3, 2))
    d = max(p.degree, 0)
    for s in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 7)):
        x = Fraction(1, 2) + Fraction(3, 2) * (1 - s * s) / (1 + s * s)
        y = Fraction(3, 2) * 2 * s / (1 + s * s)
        assert upoly.evaluate(coeffs, s) == p.eval_exact(x, y) * (1 + s * s) ** d


def test_restrict_to_segment():
    p = X + 2 * Y
    coeffs = restrict_to_segment(p, (0, 0), (1, 1))
    assert coeffs == [Fraction(0), Fraction(3)]


def test_upoly_sturm_and_rational_roots():
    # (x - 1)(x + 2)(2x - 3) = 2x^3 + ... ; roots 1, -2, 3/2
    p = upoly.mul(upoly.mul([Fraction(-1), Fraction(1)], [Fraction(2), Fraction(1)]),
                  [Fraction(-3), Fraction(2)])
    roots = upoly.rational_roots(p)
    assert {r for r, _ in roots} == {Fraction(1), Fraction(-2), Fraction(3, 2)}
    assert upoly.count_real_roots(p) == 3
    assert upoly.count_real_roots(p, Fraction(0), Fraction(2)) == 2
    # x^2 - 2 has no rational roots but two real ones
    q = [Fraction(-2), Fraction(0), Fraction(1)]
    assert upoly.rational_roots(q) == []
    assert upoly.count_real_roots(q) == 2
    # x^2 + 1 has no real roots
    assert upoly.count_real_roots([Fraction(1), Fraction(0), Fraction(1)]) == 0


def test_poly_json_roundtrip():
    p = X ** 2 - Fraction(3, 2) * Y
    assert Poly2.from_json(p.to_json()) == p
