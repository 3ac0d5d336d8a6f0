"""Poly2 on integer numerators over one denominator, against the Fraction
dicts of `fraction_reference`.

Every operation must give the reference's coefficients in the reference's
term order, in canonical form: a positive denominator sharing no factor with
the numerators, no zero numerator, and denominator 1 for zero.  Equal
polynomials built by different routes compare and hash equal.  The float and
interval forms read n / d and `iv.ratio(n, d)`; they must give, repr for
repr, the bits that `float(Fraction)` and `iv.make(Fraction)` give, overflow
included.  Coefficients reach 60-bit numerators and denominators.
"""

import math
from fractions import Fraction

import pytest
from fraction_reference import (poly_add, poly_divide_y_power, poly_dx, poly_dy, poly_eval,
                                poly_mul, poly_neg, poly_of, poly_pow, poly_restrict, poly_scale,
                                poly_sub, poly_translate)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock.errors import InsufficientPower
from vfblock.poly import Poly2, _powers, _sum_terms, float_plan, restrict

_BIG = 2 ** 60


@st.composite
def rational_st(draw):
    """A small or 60-bit numerator over a small or 60-bit denominator, as a
    Fraction, an int or an unreduced string such as "6/4"."""
    n = draw(st.one_of(st.integers(-9, 9), st.integers(-_BIG, _BIG)))
    d = draw(st.one_of(st.integers(1, 12), st.integers(1, _BIG)))
    k = draw(st.integers(1, 6))
    return draw(st.sampled_from((Fraction(n, d), n, f"{n * k}/{d * k}")))


@st.composite
def monomials_st(draw, max_degree=4):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, max_degree))
        j = draw(st.integers(0, max_degree - i))
        terms[(i, j)] = draw(rational_st())
    return terms


def _canonical(p: Poly2):
    assert type(p._d) is int and p._d > 0
    assert all(type(c) is int and c for c in p._m.values())
    assert math.gcd(p._d, *p._m.values()) == 1


def _same(p: Poly2, ref: dict):
    """Equal coefficients in the same insertion order, in canonical form."""
    assert list(p.monomials().items()) == list(ref.items())
    assert all(type(c) is Fraction for c in p.monomials().values())
    _canonical(p)


@given(monomials_st(), monomials_st(), rational_st(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_reference(ma, mb, c, n):
    a, b, c = Poly2(ma), Poly2(mb), Fraction(c)
    ra, rb = poly_of(ma), poly_of(mb)
    _same(a, ra)
    _same(a + b, poly_add(ra, rb))
    _same(a - b, poly_sub(ra, rb))
    _same(-a, poly_neg(ra))
    _same(a * b, poly_mul(ra, rb))
    _same(a * c, poly_scale(ra, c))
    _same(a * int(c), poly_scale(ra, int(c)))
    _same(c * a, poly_scale(ra, c))
    _same(a + c, poly_add(ra, poly_of({(0, 0): c})))
    _same(c - a, poly_sub(poly_of({(0, 0): c}), ra))
    _same(a ** n, poly_pow(ra, n))


@given(monomials_st(), monomials_st())
@settings(max_examples=100, deadline=None)
def test_sums_that_cancel(ma, mb):
    a, b = Poly2(ma), Poly2(mb)
    ra, rb = poly_of(ma), poly_of(mb)
    for zero in (a - a, a + (-a), a * 0, a * Fraction(0), Poly2(), Poly2.zero(),
                 Poly2({(1, 2): 0})):
        assert zero.is_zero() and zero._d == 1 and zero._m == {}
        assert zero == Poly2() and hash(zero) == hash(Poly2())
    # b cancels out again: its keys leave and those of a that it hit go last
    _same((a + b) - b, poly_sub(poly_add(ra, rb), rb))
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


@given(monomials_st(), rational_st(), rational_st(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_calculus_matches_reference(ma, ax, ay, l):
    a, ra = Poly2(ma), poly_of(ma)
    _same(a.dx(), poly_dx(ra))
    _same(a.dy(), poly_dy(ra))
    _same(a.translate(ax, ay), poly_translate(ra, ax, ay))
    want = poly_divide_y_power(ra, l)
    if want is None:
        with pytest.raises(InsufficientPower):
            a.divide_y_power(l)
    else:
        _same(a.divide_y_power(l), want)
    shifted = a * Poly2({(0, l): 1})
    _same(shifted.divide_y_power(l), poly_divide_y_power(poly_mul(ra, {(0, l): Fraction(1)}), l))


@given(monomials_st(), rational_st(), rational_st())
@settings(max_examples=150, deadline=None)
def test_eval_exact_matches_reference(ma, x, y):
    got = Poly2(ma).eval_exact(x, y)
    assert type(got) is Fraction and got == poly_eval(poly_of(ma), x, y)


_piece_list = st.lists(rational_st().map(Fraction), min_size=1, max_size=3)


@given(monomials_st(), _piece_list, _piece_list, _piece_list)
@settings(max_examples=150, deadline=None)
@example({(1, 0): 1, (0, 1): 2}, [0, 1], [0], [1])       # a zero entry, a zero table
@example({}, [1], [2], [3])                              # the zero polynomial
@example({(0, 0): "6/4"}, [1], [2], [3])                 # a constant
def test_restrict_matches_reference(ma, x, y, w):
    got = restrict(Poly2(ma), x, y, w)
    assert all(type(c) is Fraction for c in got)
    assert got == poly_restrict(poly_of(ma), x, y, w)


@given(monomials_st(), monomials_st())
@settings(max_examples=100, deadline=None)
@example({(1, 0): 1}, {(0, 1): 3})
def test_equality_and_hash_across_routes(ma, mb):
    a, b = Poly2(ma), Poly2(mb)
    routes = [a * b, b * a, Poly2((a * b).monomials()), Poly2.from_json((a * b).to_json()),
              (a + 1) * b - b]
    for p in routes:
        _canonical(p)
        assert p == routes[0] and hash(p) == hash(routes[0])
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert (a == b) == (poly_of(ma) == poly_of(mb))
    # x / 2 keeps the numerators of x: the denominator tells them apart
    assert (a * Fraction(1, 2) == a) == a.is_zero()


# float and interval bits ---------------------------------------------------

def _reference_floats(ref):
    return [(i, j, float(c)) for (i, j), c in sorted(ref.items())]


def _reference_plan(ref):
    terms = [(i, j, *iv.make(c)) for (i, j), c in sorted(ref.items())]
    return (max((t[0] for t in terms), default=0), max((t[1] for t in terms), default=0), terms)


def _reference_eval_float(ref, x, y):
    total = 0.0
    for i, j, c in _reference_floats(ref):
        total += c * x ** i * y ** j
    return total


@st.composite
def wide_monomials_st(draw):
    """Up to five terms, each a 60-bit numerator and denominator with a
    common factor drawn in, so that the stored numerators over the common
    denominator are not in lowest terms one by one."""
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        k = draw(st.integers(1, 1000))
        terms[(i, j)] = Fraction(draw(st.integers(-_BIG, _BIG)) * k,
                                 draw(st.integers(1, _BIG)) * k)
    return terms


_coord = st.floats(-4.0, 4.0)


@st.composite
def interval_st(draw):
    a, b = draw(_coord), draw(_coord)
    return (min(a, b), max(a, b))


@given(wide_monomials_st(), interval_st(), interval_st(), _coord, _coord)
@settings(max_examples=200, deadline=None)
@example({(0, 0): Fraction(3, 2 ** 1080), (1, 0): 1}, (0.5, 1.0), (-1.0, 1.0), 0.5, 0.25)
@example({(0, 0): Fraction(2 ** 1100, 3 ** 600), (0, 1): Fraction(1, 3)},
         (-1.0, 1.0), (0.0, 0.5), -0.75, 0.5)
@example({(0, 0): Fraction(1, 10 ** 400), (2, 1): Fraction(-7, 3)},
         (-2.0, 1.0), (1.0, 1.0), 1.5, -1.0)
def test_float_and_interval_bits_match_fraction(ma, ix, iy, x, y):
    p, ref = Poly2(ma), poly_of(ma)
    assert repr(p._floats()) == repr(_reference_floats(ref))
    assert repr(p._plan()) == repr(_reference_plan(ref))
    want = repr(_reference_eval_float(ref, x, y))
    assert repr(p.eval_float(x, y)) == want
    assert repr(float_plan([p])(x, y)) == f"[{want}]"
    max_i, max_j, terms = _reference_plan(ref)
    reference = _sum_terms(terms, _powers(ix, max_i), _powers(iy, max_j))
    assert repr(p.eval_interval(ix, iy)) == repr(reference)


@pytest.mark.parametrize("ma", [
    {(0, 0): Fraction(10 ** 400, 7)},
    {(1, 0): -(10 ** 309), (0, 0): Fraction(1, 3)},
    {(0, 1): Fraction(2 ** 1100, 3), (0, 0): Fraction(1, 10 ** 400)},
])
def test_coefficient_past_float_range_overflows(ma):
    """As float(Fraction) and iv.make(Fraction) do, with the same message."""
    big = next(c for c in poly_of(ma).values() if abs(c) > 2 ** 1024)
    with pytest.raises(OverflowError) as want:
        float(big)
    for compute in (lambda: iv.make(big), lambda: Poly2(ma)._floats(),
                    lambda: Poly2(ma)._plan()):
        with pytest.raises(OverflowError) as got:
            compute()
        assert str(got.value) == str(want.value)
