"""Trig polynomial ring on the torus: products, derivatives, exact points."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock.errors import InexactTrigEvaluation
from vfblock.poly import TermMap
from vfblock.trig import COS, SIN, PiNumber, TrigPoly2

coeff_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def trig_st(draw):
    terms = {}
    n = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n):
        m = draw(st.integers(min_value=0, max_value=3))
        nn = draw(st.integers(min_value=0, max_value=3))
        bx = draw(st.sampled_from((COS, SIN)))
        by = draw(st.sampled_from((COS, SIN)))
        terms[(m, nn, bx, by)] = draw(coeff_st)
    return TrigPoly2(terms)


def test_normalization_drops_sin_zero():
    assert TrigPoly2({(0, 0, SIN, COS): Fraction(1)}).is_zero()
    p = TrigPoly2({(-1, 0, SIN, COS): Fraction(1)})
    q = TrigPoly2({(1, 0, SIN, COS): Fraction(-1)})
    assert p == q


@given(trig_st(), trig_st(), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_product_to_sum_matches_float_product(p, q, x, y):
    direct = p.eval_float(x, y) * q.eval_float(x, y)
    reduced = (p * q).eval_float(x, y)
    assert abs(direct - reduced) < 1e-9


@given(trig_st(), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
@settings(max_examples=40, deadline=None)
def test_derivative_matches_finite_difference(p, x, y):
    h = 1e-6
    fd = (p.eval_float(x + h, y) - p.eval_float(x - h, y)) / (2 * h)
    scale = 1.0 + sum(abs(float(c)) * (1 + t[0]) ** 2
                      for t, c in p.terms().items())
    assert abs(p.dx().eval_float(x, y) - fd) < 1e-4 * scale


def test_exact_eval_quarter_points():
    s = TrigPoly2.term(1, 0, "sc", 1)  # sin(2 pi x)
    assert s.eval_exact(Fraction(1, 4), 0).as_fraction() == 1
    assert s.eval_exact(Fraction(1, 2), 0).as_fraction() == 0
    assert s.eval_exact(Fraction(3, 4), 0).as_fraction() == -1
    with pytest.raises(InexactTrigEvaluation):
        s.eval_exact(Fraction(1, 3), 0)


def test_derivative_carries_pi():
    s = TrigPoly2.term(1, 0, "sc", 1)
    d = s.dx()  # 2 pi cos(2 pi x)
    v = d.eval_exact(0, 0)
    assert v.as_fraction() is None
    assert abs(float(v) - 2 * math.pi) < 1e-12


def test_pi_number_zero_test_is_exact():
    a = PiNumber({1: Fraction(2)})
    b = PiNumber({1: Fraction(-2)})
    assert (a + b).is_zero()
    assert not (a + PiNumber.of(1)).is_zero()


def test_pi_number_is_a_term_map():
    pi = PiNumber({1: 1})
    assert isinstance(pi, TermMap)
    assert not PiNumber() and pi and PiNumber() == 0 and PiNumber.of(3) == 3
    assert PiNumber.of(Fraction(1, 2)) == Fraction(1, 2) != pi
    assert 1 + pi == pi + 1 == PiNumber({1: 1, 0: 1})
    assert hash(pi + 1) == hash(PiNumber({0: 1, 1: 1}))
    assert (pi - pi).is_zero() and -pi == PiNumber({1: -1})
    assert {pi * 2: "a"}[PiNumber({1: 2})] == "a"


@given(trig_st(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_interval_eval_sound(p, x, y):
    w = 0.03
    box = ((x - w, x + w), (y - w, y + w))
    lo, hi = p.eval_interval(*box)
    v = p.eval_float(x, y)
    assert lo - 1e-9 <= v <= hi + 1e-9


def test_trig_json_roundtrip():
    p = TrigPoly2.term(2, 1, "ss", Fraction(3, 2)) + TrigPoly2.term(0, 1, "cs", -1)
    assert TrigPoly2.from_json(p.to_json()) == p
    d = p.dx()  # pi-carrying coefficients survive serialization
    assert TrigPoly2.from_json(d.to_json()) == d
