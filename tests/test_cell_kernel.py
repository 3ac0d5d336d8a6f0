"""The quadtree's Poly2 cell test in exact integers.

`poly._int_powers` tables hold the exact range of X^k on a scaled integer
interval, and `poly._monomial_range` the exact range of a term, both checked
by brute force.  The enclosure built on them must keep a
subset of the cells of the float descent (`box_reference.float_evaluator`),
every exact zero built into its scalars must lie in a kept cell, and no cell
test of Poly2 scalars may reach float interval arithmetic.
"""

from fractions import Fraction

import pytest
from box_reference import contains_point, float_evaluator, zero_enclosure_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock import poly
from vfblock.certify import _grid_setup, zero_enclosure_scalars
from vfblock.poly import Poly2, X, Y, _int_powers, _monomial_range
from vfblock.regions import annulus, disk, rectangle, torus_full
from vfblock.trig import TrigPoly2

_COUNT = 7


def _brute_range(lo, hi, k):
    values = [x ** k for x in range(lo, hi + 1)]
    return min(values), max(values)


@pytest.mark.parametrize("lo", range(-7, 8))
def test_int_powers_are_exact_ranges(lo):
    # negative, straddling, touching 0 from either side, and positive intervals
    for hi in range(lo, lo + 10):
        table = _int_powers(lo, hi, 1, _COUNT)
        assert table == [_brute_range(lo, hi, k) for k in range(_COUNT + 1)]


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 40), st.integers(0, 9),
       st.integers(1, 10 ** 9))
@settings(max_examples=200, deadline=None)
def test_int_powers_far_from_zero(lo, width, count, n):
    # entry k does not depend on the length or on n
    table = _int_powers(lo, lo + width, n, count)
    assert table == [_brute_range(lo, lo + width, k) for k in range(count + 1)]
    assert _int_powers(lo, lo + width, 1, count + 2)[:count + 1] == table


def test_monomial_range_is_the_four_product_rule():
    intervals = [(lo, hi) for lo in range(-3, 4) for hi in range(lo, 4)]
    for a in intervals:
        for b in intervals:
            for c in (-2, 3):
                products = [c * x * y for x in a for y in b]
                assert _monomial_range([(1, 1, c)], [None, a], [None, b]) == \
                    (min(products), max(products))


_coef = st.fractions(min_value=-3, max_value=3, max_denominator=60)
_unit = st.fractions(min_value=0, max_value=1, max_denominator=24)
_size = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(3, 2), max_denominator=12)


@st.composite
def _zero_cases(draw):
    """Poly2 scalars of degree <= 4 with known exact common zeros, a disk,
    annulus or rectangle whose root box is centred at the origin or not, and
    a resolution of 1/4 to 1/32.  Scalar k is the product, over the zeros z,
    of a line a (x - zx) + b (y - zy) of its own through z, times a random
    cofactor; every coefficient has its own denominator."""
    centre = (0, 0) if draw(st.booleans()) else (draw(_coef), draw(_coef))
    size = draw(_size)
    kind = draw(st.sampled_from(("disk", "annulus", "rect")))
    if kind == "disk":
        region = disk(centre, size)
    elif kind == "annulus":
        region = annulus(centre, size * draw(st.fractions(Fraction(1, 8), Fraction(7, 8),
                                                          max_denominator=8)), size)
    else:
        other = draw(_size)
        region = rectangle(centre[0] - size, centre[1] - other, centre[0] + size,
                           centre[1] + other)
    x0, y0, x1, y1 = region.bounding_box()
    zeros = [(x0 + draw(_unit) * (x1 - x0), y0 + draw(_unit) * (y1 - y0))
             for _ in range(draw(st.integers(1, 2)))]
    scalars = []
    for _ in range(draw(st.integers(1, 3))):
        p = Poly2.const(1)
        for zx, zy in zeros:
            a, b = draw(st.tuples(_coef, _coef).filter(any))
            p = p * (a * (X - zx) + b * (Y - zy))
        exponents = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
            lambda e: sum(e) <= 4 - len(zeros))
        cofactor = draw(st.dictionaries(exponents, _coef, min_size=1, max_size=4))
        scalars.append(p * Poly2(cofactor))
    resolution = Fraction(1, draw(st.integers(4, 32)))
    return scalars, region, resolution, zeros


@given(_zero_cases())
@settings(max_examples=100, deadline=None)
def test_integer_cells_refine_the_float_descent(case):
    scalars, region, resolution, zeros = case
    enc = zero_enclosure_scalars(scalars, region, resolution)
    float_cells = zero_enclosure_reference(scalars, region, resolution,
                                           evaluator=float_evaluator)[0]
    assert set(enc.cells) <= set(float_cells)
    for z in zeros:
        if region.contains_point_closed(z):
            assert contains_point(enc, z)


def test_strictly_tighter_than_floats():
    """Leaf cell (10, 10) is [-1/24, 1/48]^2, around the origin: the float
    chain encloses x^3 there in [-1/13824, 1/27648], which admits 1/50000,
    while the exact range [-1/13824, 1/110592] does not."""
    scalars, region = [X ** 3 - Fraction(1, 50000), Y], disk((Fraction(1, 3), Fraction(1, 3)), 1)
    enc = zero_enclosure_scalars(scalars, region, Fraction(1, 8))
    floats = zero_enclosure_reference(scalars, region, Fraction(1, 8), evaluator=float_evaluator)
    assert enc.cells == [(11, 10)] and floats[0] == [(10, 10), (11, 10)]


def test_poly2_cells_hold_no_floating_point(monkeypatch):
    """Poly2 scalars on an off-centre annulus run the centred descent and the
    untranslated leaf test without the float term loop or `iv.ratio`; a
    TrigPoly2 field on the torus still runs the float loop."""
    def refuse(*args):
        raise AssertionError("a Poly2 cell test reached floating point")

    rho = 1 - X ** 2 - Y ** 2       # the circle field: (1 - x^2 - y^2) (-y, x)
    scalars = [rho * -Y, rho * X]
    region = annulus((Fraction(1, 8), Fraction(-1, 16)), Fraction(1, 2), Fraction(3, 2))
    with monkeypatch.context() as m:
        m.setattr(poly, "_sum_terms", refuse)
        m.setattr(iv, "ratio", refuse)
        _grid_setup.cache_clear()
        enc = zero_enclosure_scalars(scalars, region, Fraction(1, 32))
    assert enc.cells and enc.cells_discarded_interval
    assert enc.cells == zero_enclosure_reference(scalars, region, Fraction(1, 32))[0]

    calls = []

    def counted(*args):
        calls.append(args)
        return sum_terms(*args)

    sum_terms = poly._sum_terms
    monkeypatch.setattr(poly, "_sum_terms", counted)
    _grid_setup.cache_clear()
    trig = [TrigPoly2.term(1, 0, "sc", 1), TrigPoly2.term(0, 1, "cs", 1)]
    assert zero_enclosure_scalars(trig, torus_full(), Fraction(1, 16)).cells
    assert calls
