"""Memoised arc boxes and the integer rounding rule of `iv.make`.

Boundary curves memoise `box_of` per object, and homotopy and wedge checks run
several fields over one curve list.  Each pass over a shared list must give
exactly what a pass over fresh curves gives, and what a pass that computes
every box anew gives: the same `WindingStats` and `BoundaryPass`, every float
compared by repr, or the same `BoundaryZero`.  `iv.make`, and `iv.ratio` of
a numerator and denominator in any terms, must match the `Fraction` rule
they replaced, kept in `fraction_reference.make_reference`.
"""

import math
from fractions import Fraction

import pytest
from fraction_reference import make_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock.certify import min_norm_on_boundary, winding_stats
from vfblock.errors import BoundaryZero
from vfblock.fields import plane_field
from vfblock.index import homotopy_invariance_check, wedge_check
from vfblock.poly import Poly2, X, Y
from vfblock.regions import annulus, disk, rectangle

_DEPTH = 12     # keeps a pass that meets a boundary zero short
_rational = st.fractions(min_value=-1, max_value=1, max_denominator=12)
_length = st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=12)


@st.composite
def _regions(draw):
    kind = draw(st.sampled_from(("disk", "annulus", "rect")))
    c = (draw(_rational), draw(_rational))
    if kind == "disk":
        return disk(c, draw(_length))
    if kind == "annulus":
        r_in = draw(_length)
        return annulus(c, r_in, r_in + draw(_length))
    return rectangle(c[0], c[1], c[0] + draw(_length), c[1] + draw(_length))


@st.composite
def _fields(draw):
    def poly():
        return Poly2({(i, j): draw(_rational) for i in range(4) for j in range(4 - i)
                      if draw(st.booleans())})
    return plane_field(poly(), poly())


class _Uncached:
    """A view of a curve that computes every arc box anew."""

    def __init__(self, curve):
        self.point = curve.point
        self.box_of = curve._arc_box


def _stats(field, curve, tol):
    try:
        return repr(winding_stats(field, curve, tol, _DEPTH))
    except BoundaryZero:
        return "BoundaryZero"


@given(_regions(), st.lists(_fields(), min_size=2, max_size=4),
       st.sampled_from((1, Fraction(1, 2))))
@example(disk((0, 0), 1), [plane_field(X - Fraction(19, 20), Y), plane_field(X, Y)], 1)
@example(rectangle(-1, -1, 1, 1), [plane_field(X, Y), plane_field(X + Y, Y - X)],
         Fraction(1, 2))
@settings(max_examples=60, deadline=None)
def test_shared_curves_give_fresh_results(region, fields, tol):
    shared = region.boundary_curves()
    for field in fields:
        fresh = region.boundary_curves()
        for curve, new in zip(shared, fresh):
            got = _stats(field, curve, tol)
            assert got == _stats(field, new, tol)
            assert got == _stats(field, _Uncached(new), tol)
        assert repr(min_norm_on_boundary(field, region, tol, _DEPTH, _curves=shared)) == \
            repr(min_norm_on_boundary(field, region, tol, _DEPTH))


def test_checks_share_one_curve_list(monkeypatch):
    from vfblock import index

    seen = []
    original = index.min_norm_on_boundary

    def spy(field, region, tol=None, max_depth=None, *, _curves=None):
        seen.append(_curves)
        return original(field, region, tol, max_depth, _curves=_curves)

    monkeypatch.setattr(index, "min_norm_on_boundary", spy)
    region = rectangle(-1, -1, 1, 1)
    x0, x1 = plane_field(X, Y), plane_field(X + Y, Y - X)
    assert homotopy_invariance_check(x0, x1, region, 4).index == 1
    assert len(seen) == 5 and all(c is seen[0] for c in seen) and seen[0]
    seen.clear()
    assert wedge_check(x0, x0.times_scalar_poly(1 + X * X), region).index == 1
    assert len(seen) == 2 and seen[0] is seen[1] and seen[0]


# iv.make against the Fraction rule ---------------------------------------------

_big = st.integers(-2 ** 1100, 2 ** 1100)
_small = st.integers(-10 ** 6, 10 ** 6)
_den = st.one_of(st.integers(1, 10 ** 6), st.integers(1, 2 ** 1100),
                 st.integers(1000, 1100).map(lambda e: 2 ** e))
_exact = st.one_of(
    _small, _big,
    st.builds(Fraction, st.one_of(_small, _big), _den),
    # subnormal and underflowing results
    st.builds(lambda a, e: Fraction(a, 2 ** e), _small, st.integers(1000, 1120)),
    # exactly representable values
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    st.floats(allow_nan=False, allow_infinity=False).filter(float.is_integer).map(int),
)


def _outcome(make, x):
    try:
        return "ok", make(x)
    except OverflowError as e:
        return "OverflowError", str(e)


@given(_exact)
@example(0)
@example(Fraction(1, 3))
@example(Fraction(-1, 2 ** 1074))
@example(Fraction(1, 2 ** 1075))
@example(Fraction(3, 2 ** 1076))
@example(2 ** 53 + 1)
@example(-(2 ** 1024 - 2 ** 970))            # halfway to 2**1024: rounds over
@example(Fraction(2 ** 1024 - 2 ** 970 - 1))
@example(Fraction(2 ** 1100, 3))
@settings(max_examples=500, deadline=None)
def test_make_matches_fraction_rule(x):
    got = _outcome(iv.make, x)
    assert got == _outcome(make_reference, x)
    if got[0] == "ok":
        lo, hi = got[1]
        assert lo == -math.inf or Fraction(lo) <= x     # one ulp past the largest
        assert hi == math.inf or x <= Fraction(hi)      # float is infinite
        assert hi in (lo, math.nextafter(lo, math.inf))


@given(st.one_of(_small, _big), _den,
       st.one_of(st.integers(1, 10 ** 6), st.integers(2 ** 53, 2 ** 80)))
@example(1, 3, 2 ** 53 + 1)
@example(2 ** 53 + 1, 1, 1)
@example(-(2 ** 1024 - 2 ** 970), 1, 3)      # rounds over the largest float
@settings(max_examples=500, deadline=None)
def test_ratio_matches_fraction_rule(a, n, k):
    # a k / n k is a / n, not in lowest terms when k > 1
    x = Fraction(a, n)
    assert _outcome(lambda _: iv.ratio(a * k, n * k), x) == _outcome(make_reference, x)


@pytest.mark.parametrize("x", [2 ** 1024, -Fraction(2 ** 1030, 3)])
def test_make_overflows_like_float(x):
    with pytest.raises(OverflowError):
        iv.make(x)
