"""The quadtree's Poly2 cell test in exact integers.

`poly._int_powers` tables hold the exact range of X^k on a scaled integer
interval, and `poly._monomial_range` the exact range of a term, both checked
by brute force.  The enclosure built on them must keep a
subset of the cells of the float descent (`box_reference.float_evaluator`),
every exact zero built into its scalars must lie in a kept cell, and no cell
test of Poly2 scalars may reach float interval arithmetic.  The compiled
corner code (`poly._corner_kernel`) must give `_monomial_range`'s verdicts,
and only enclosures that examine enough cells may compile it.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from box_reference import contains_point, float_evaluator, zero_enclosure_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock import certify, poly
from vfblock import interval as iv
from vfblock.certify import _COMPILE_AFTER, _grid_setup, zero_enclosure, zero_enclosure_scalars
from vfblock.corpus import random_tracking_scenario
from vfblock.fields import PlanarField
from vfblock.poly import Poly2, X, Y, _corner_kernel, _int_powers, _monomial_range
from vfblock.regions import Region, annulus, disk, rectangle, torus_full
from vfblock.trig import TrigPoly2
from vfblock.verifier import verify_main

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


_AXIS = st.tuples(st.integers(-12, 12), st.integers(1, 6)).map(lambda a: (a[0], a[0] + a[1]))


@st.composite
def _kernel_cases(draw):
    """1 to 3 integer term lists (i, j, c) in sorted order, the zero list
    included, with x or y of degree 0 often, and one cell: a column and a
    row that are negative, positive, straddle 0 or touch it."""
    nx, ny = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    monomials = st.tuples(st.integers(0, nx), st.integers(0, ny))
    coef = st.integers(-50, 50).filter(bool)
    scalars = [sorted((i, j, c) for (i, j), c in draw(
        st.dictionaries(monomials, coef, max_size=6)).items())
        for _ in range(draw(st.integers(1, 3)))]
    return scalars, draw(_AXIS), draw(_AXIS)


def _compiled(scalars, fallback):
    pattern = tuple(tuple((i, j, c > 0) for i, j, c in t) for t in scalars)
    return _corner_kernel(pattern)(tuple(c for t in scalars for _, _, c in t), fallback)


def _loop_test(scalars):
    def test(xt, yt):
        return not any(lo > 0 or hi < 0 for lo, hi in
                       (_monomial_range(t, xt, yt) for t in scalars))
    return test


@given(_kernel_cases())
@settings(max_examples=400, deadline=None)
def test_corner_kernel_matches_monomial_range(case):
    """Each scalar, shifted by a constant so that its lower or upper end
    lands on 0 or just past it, makes the verdict turn on that exact end;
    a cell that crosses an axis with an odd exponent is the fallback's."""
    scalars, (x0, x1), (y0, y1) = case
    xt, yt = _int_powers(x0, x1, 1, 5), _int_powers(y0, y1, 1, 5)
    odd = [any(t[a] % 2 for s in scalars for t in s) for a in (0, 1)]
    crosses = (odd[0] and x0 < 0 < x1) or (odd[1] and y0 < 0 < y1)
    fell_back = []

    def fallback(xt, yt):
        fell_back.append(True)
        return _loop_test(scalars)(xt, yt)

    assert _compiled(scalars, fallback)(xt, yt) == _loop_test(scalars)(xt, yt)
    assert bool(fell_back) == crosses
    for terms in scalars:
        rest = [t for t in terms if t[:2] != (0, 0)]
        lo, hi = _monomial_range(rest, xt, yt)
        for shift in (-lo, 1 - lo, -hi, -1 - hi):
            shifted = sorted(rest + [(0, 0, shift)] * (shift != 0))
            assert _compiled([shifted], _loop_test([shifted]))(xt, yt) == \
                _loop_test([shifted])(xt, yt)


def test_cell_test_compiles_to_the_same_verdicts():
    """`cell_test`'s compiled test, off-centre coefficients scaled by n,
    against its loop on every cell of a 16 x 16 grid around the origin."""
    scalars = [(X - Fraction(1, 3)) * (Y + Fraction(2, 5)) - Fraction(1, 7) * X ** 3,
               Y ** 2 - Fraction(1, 2) * X + Fraction(1, 9)]
    build, nx, ny, test, compiled = poly.cell_test(scalars, 12)
    fast = compiled()
    verdicts = set()
    for a in range(-8, 8):
        for b in range(-8, 8):
            xt, yt = build(a, a + 1, 12, nx), build(b, b + 1, 12, ny)
            verdicts.add(test(xt, yt))
            assert fast(xt, yt) == test(xt, yt)
    assert verdicts == {False, True}


def _annulus_k():
    data = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                       / "annulus_mainbis.json").read_text())
    field = PlanarField.from_json(data["fields"]["X"])
    region = Region.from_json(data["regions"]["U"])
    return field, region, Fraction(data["tolerances"]["resolution"])


def test_only_large_enclosures_compile(monkeypatch):
    """The K enclosure of annulus_mainbis.json swaps in the compiled test
    and runs it; a falsify case's MAIN run, whose K and Z(Y) near K hold
    point zeros, stays under the use count and compiles nothing; the pattern
    cache keeps its bound."""
    compiled, calls = [], []

    def spy(pattern):
        make = kernel(pattern)
        compiled.append(pattern)

        def counted(c, fallback):
            fast = make(c, fallback)

            def test(xt, yt):
                calls.append(1)
                return fast(xt, yt)
            return test
        return counted

    kernel = poly._corner_kernel
    monkeypatch.setattr(poly, "_corner_kernel", spy)
    _grid_setup.cache_clear()
    x_field, y_field, region, zeros = random_tracking_scenario(random.Random(1))
    report = verify_main(x_field, y_field, region, k=1, resolution=Fraction(1, 16),
                         known_zeros=zeros)
    assert report.overall["status"] == "Pass" and not compiled
    field, region, resolution = _annulus_k()
    enc = zero_enclosure(field, region, resolution)
    assert enc.cells_examined > 10 * _COMPILE_AFTER
    assert len(compiled) == 1        # centred at 0: no leaf test
    assert len(calls) >= enc.cells_examined - _COMPILE_AFTER - enc.cells_discarded_geometry
    info = kernel.cache_info()
    assert info.maxsize == 32 and info.currsize <= info.maxsize


def test_compiled_descent_keeps_the_loops_cells(monkeypatch):
    """An off-centre annulus compiles the centred descent and the
    untranslated leaf test, and keeps the cells and counters of a descent
    that never leaves the loop (a use count no cell reaches)."""
    rho = 1 - X ** 2 - Y ** 2
    scalars = [rho * -Y, rho * X]
    region = annulus((Fraction(1, 8), Fraction(-1, 16)), Fraction(1, 2), Fraction(3, 2))
    compiled = []

    def spy(pattern):
        compiled.append(pattern)
        return kernel(pattern)

    kernel = poly._corner_kernel
    monkeypatch.setattr(poly, "_corner_kernel", spy)
    enc = zero_enclosure_scalars(scalars, region, Fraction(1, 32))
    assert len(compiled) == 2
    monkeypatch.setattr(certify, "_COMPILE_AFTER", 0)
    loop = zero_enclosure_scalars(scalars, region, Fraction(1, 32))
    assert len(compiled) == 2 and loop == enc
    info = kernel.cache_info()
    assert info.maxsize == 32 and info.currsize <= info.maxsize
