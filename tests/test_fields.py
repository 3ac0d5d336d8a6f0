"""Field evaluation, Lie brackets and jet orders."""

from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock.errors import PointNotZero
from vfblock.fields import (jet_order, lie_bracket, partials_by_order, plane_field,
                            torus_field)
from vfblock.poly import Poly2, X, Y
from vfblock.trig import TrigPoly2

from test_poly import poly2_st


@st.composite
def field_st(draw):
    return plane_field(draw(poly2_st()), draw(poly2_st()))


def test_field_eval_examples(euler, dipole, torus_sin):
    assert euler.eval_exact(Fraction(2), Fraction(3)) == (2, 3)
    assert dipole.eval_exact(Fraction(1), Fraction(1)) == (0, 2)
    assert torus_sin.eval_exact(Fraction(1, 4), Fraction(0)) == (1, 0)


def test_bracket_examples(euler, rotation, const_east):
    assert lie_bracket(rotation, euler).is_zero()
    b = lie_bracket(const_east, euler)
    assert (b.p, b.q) == (Poly2.const(1), Poly2.zero())
    b2 = lie_bracket(plane_field(X, Poly2.zero()), const_east)
    assert (b2.p, b2.q) == (Poly2.const(-1), Poly2.zero())


def _sympy_bracket(yf, xf):
    sx, sy = sympy.symbols("x y")

    def expr(p):
        return sum(sympy.Rational(c) * sx ** i * sy ** j
                   for (i, j), c in p.monomials().items())

    y1, y2 = expr(yf.p), expr(yf.q)
    x1, x2 = expr(xf.p), expr(xf.q)
    b1 = sympy.expand(sympy.diff(x1, sx) * y1 + sympy.diff(x1, sy) * y2
                      - sympy.diff(y1, sx) * x1 - sympy.diff(y1, sy) * x2)
    b2 = sympy.expand(sympy.diff(x2, sx) * y1 + sympy.diff(x2, sy) * y2
                      - sympy.diff(y2, sx) * x1 - sympy.diff(y2, sy) * x2)
    return b1, b2


@given(field_st(), field_st())
@settings(max_examples=25, deadline=None)
def test_bracket_matches_sympy_oracle(yf, xf):
    b = lie_bracket(yf, xf)
    sb1, sb2 = _sympy_bracket(yf, xf)
    sx, sy = sympy.symbols("x y")

    def expr(p):
        return sympy.expand(sum(sympy.Rational(c) * sx ** i * sy ** j
                                for (i, j), c in p.monomials().items()))

    assert expr(b.p) - sb1 == 0
    assert expr(b.q) - sb2 == 0


@given(field_st(), field_st())
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetry(a, b):
    lhs = lie_bracket(a, b)
    rhs = lie_bracket(b, a)
    assert (lhs + rhs).is_zero()


@given(field_st(), field_st(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_bracket_bilinearity(a, b, c):
    x = plane_field(X, Y)
    lhs = lie_bracket(a.scale(c) + b, x)
    rhs = lie_bracket(a, x).scale(c) + lie_bracket(b, x)
    assert (lhs - rhs).is_zero()


@given(field_st(), field_st(), field_st())
@settings(max_examples=15, deadline=None)
def test_jacobi_identity(a, b, c):
    total = (lie_bracket(a, lie_bracket(b, c))
             + lie_bracket(b, lie_bracket(c, a))
             + lie_bracket(c, lie_bracket(a, b)))
    assert total.is_zero()


def test_jet_order_examples(euler, dipole, circle_field):
    assert jet_order(euler, (0, 0), 2).order == 1
    assert jet_order(dipole, (0, 0), 3).order == 2
    zero_field = plane_field(Poly2.zero(), Poly2.zero())
    jo = jet_order(zero_field, (0, 0), 5)
    assert jo.is_flat and jo.k == 5
    assert jet_order(circle_field, (1, 0), 2).order == 1


def test_jet_order_against_sympy_translation(circle_field):
    sx, sy = sympy.symbols("x y")
    p = sum(sympy.Rational(c) * (sx + 1) ** i * sy ** j
            for (i, j), c in circle_field.p.monomials().items())
    q = sum(sympy.Rational(c) * (sx + 1) ** i * sy ** j
            for (i, j), c in circle_field.q.monomials().items())
    degrees = [sympy.Poly(e, sx, sy).as_dict() for e in (sympy.expand(p), sympy.expand(q))]
    min_deg = min(sum(mono) for d in degrees for mono in d)
    assert min_deg == jet_order(circle_field, (1, 0), 2).order


def test_jet_order_requires_zero(euler):
    with pytest.raises(PointNotZero):
        jet_order(euler, (1, 0), 1)


def test_jet_order_beyond_k_reports_flat():
    f = plane_field(X ** 3, Poly2.zero())
    assert jet_order(f, (0, 0), 2).is_flat
    assert jet_order(f, (0, 0), 3).order == 3


def test_torus_jets(torus_sin):
    for p, expected in (((0, 0), 1), ((Fraction(1, 2), 0), 1),
                        ((0, Fraction(1, 2)), 1), ((Fraction(1, 2), Fraction(1, 2)), 1)):
        assert jet_order(torus_sin, p, 1).order == expected


def test_torus_jets_of_higher_order():
    s = TrigPoly2.term(1, 0, "sc", 1)      # sin(2 pi x)
    t = TrigPoly2.term(0, 1, "cs", 1)      # sin(2 pi y)
    f = torus_field(s * s * s, t * t)
    assert jet_order(f, (0, 0), 1).is_flat
    assert jet_order(f, (0, 0), 2).order == 2
    g = torus_field(s * s * s, s * t * t)
    assert jet_order(g, (0, 0), 3).order == 3
    assert jet_order(g, (Fraction(1, 2), 0), 2).is_flat


def test_partials_by_order():
    p = X ** 3 * Y + Y ** 2
    assert list(islice(partials_by_order(p), 3)) == [
        [p], [p.dx(), p.dy()], [p.dx().dx(), p.dx().dy(), p.dy().dy()]]


def test_field_json_roundtrip(circle_field, torus_sin):
    from vfblock.fields import PlanarField
    assert PlanarField.from_json(circle_field.to_json()) == circle_field
    assert PlanarField.from_json(torus_sin.to_json()) == torus_sin
