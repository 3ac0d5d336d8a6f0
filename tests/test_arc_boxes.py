"""Memoised arc boxes and axis tables, and the integer rounding rule of `iv.make`.

Boundary curves memoise each arc's box and axis tables per object
(`tables_of`), and `Region.boundary_curves` memoises the curves of the last
region asked, so homotopy and wedge checks, and consecutive passes on an
equal region, run every field over one curve list.  Each pass over the
memoised list must give exactly what a pass over fresh curves gives, and
what a pass that computes every box and table anew gives: the same
`WindingStats` and `BoundaryPass`, every float compared by repr, or the
same `BoundaryZero`.  `iv.make`, and `iv.ratio` of a numerator and
denominator in any terms, must match the `Fraction` rule they replaced, kept
in `fraction_reference.make_reference`; rectangle arc boxes, computed in
integers, must match their exact form in `box_reference.rect_box_of`.
"""

import math
import os
from fractions import Fraction
from unittest import mock

import pytest
from box_reference import rect_box_of
from fraction_reference import make_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock.certify import min_norm_on_boundary, winding_stats
from vfblock.config import ENV_MAX_DEPTH
from vfblock.errors import BoundaryZero
from vfblock.fields import plane_field, torus_field
from vfblock.index import homotopy_invariance_check, wedge_check
from vfblock.poly import Poly2, X, Y
from vfblock.regions import Circle, RectLoop, Region, _Curve, annulus, disk, rectangle
from vfblock.trig import TrigPoly2

_DEPTH = "12"   # VFBLOCK_MAX_DEPTH: keeps a pass that meets a boundary zero short
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
    """A view of a curve that computes every arc box and axis table anew."""

    def __init__(self, curve):
        self.point = curve.point
        self.box_of = curve.box_of

    def tables_of(self, t0, t1, build, nx, ny):
        ix, iy = self.box_of(t0, t1)
        return ix, iy, (build(ix, nx), build(iy, ny))


def _fresh(region):
    """New curve objects for the region, past the memo."""
    return Region.boundary_curves.__wrapped__(region)


def _stats(field, curve, tol):
    try:
        return repr(winding_stats(field, curve, tol))
    except BoundaryZero:
        return "BoundaryZero"


def _fresh_pass(field, region, tol):
    """`min_norm_on_boundary` over fresh curves, left out of the memo."""
    Region.boundary_curves.cache_clear()
    try:
        return repr(min_norm_on_boundary(field, region, tol))
    finally:
        Region.boundary_curves.cache_clear()


@given(_regions(), st.lists(_fields(), min_size=2, max_size=4),
       st.sampled_from((1, Fraction(1, 2))))
@example(disk((0, 0), 1), [plane_field(X - Fraction(19, 20), Y), plane_field(X, Y)], 1)
@example(rectangle(-1, -1, 1, 1), [plane_field(X, Y), plane_field(X + Y, Y - X)],
         Fraction(1, 2))
@settings(max_examples=60, deadline=None)
def test_shared_curves_give_fresh_results(region, fields, tol):
    with mock.patch.dict(os.environ, {ENV_MAX_DEPTH: _DEPTH}):
        want = [_fresh_pass(field, region, tol) for field in fields]
        shared = region.boundary_curves()
        for field, fresh_pass in zip(fields, want):
            for curve, new in zip(shared, _fresh(region)):
                got = _stats(field, curve, tol)
                assert got == _stats(field, new, tol)
                assert got == _stats(field, _Uncached(new), tol)
            assert region.boundary_curves() is shared
            assert repr(min_norm_on_boundary(field, region, tol)) == fresh_pass


@given(_regions(), _fields(), _fields(), st.booleans())
@example(disk((0, 0), 1), plane_field(X, Y), plane_field(X - Fraction(19, 20), Y), True)
@settings(max_examples=60, deadline=None)
def test_memoised_curves_any_pass_order(region, first, second, coarse_first):
    """A tol = 1 pass and a tol = 1/4 pass on another field, in either order,
    on the memoised curves: each the `BoundaryPass` of fresh curves."""
    passes = [(first, 1), (second, Fraction(1, 4))]
    if not coarse_first:
        passes.reverse()
    with mock.patch.dict(os.environ, {ENV_MAX_DEPTH: _DEPTH}):
        want = [_fresh_pass(field, region, tol) for field, tol in passes]
        shared = region.boundary_curves()
        got = [repr(min_norm_on_boundary(field, region, tol)) for field, tol in passes]
    assert region.boundary_curves() is shared
    assert got == want


def test_checks_share_one_curve_list(monkeypatch):
    """The one pass of a homotopy, then the one pass of a wedge check, run
    over one memoised curve."""
    seen = []
    tables_of = _Curve.tables_of
    monkeypatch.setattr(_Curve, "tables_of", lambda c, *a: (
        seen.append(c), tables_of(c, *a))[1])
    region = rectangle(-1, -1, 1, 1)
    x0, x1 = plane_field(X, Y), plane_field(X + Y, Y - X)
    assert homotopy_invariance_check(x0, x1, region, 4).index == 1
    arcs = len(seen)
    assert arcs >= 16 and all(c is seen[0] for c in seen)
    assert wedge_check(x0, x0.times_scalar_poly(1 + X * X), region).index == 1
    assert len(seen) >= arcs + 16 and all(c is seen[0] for c in seen)
    # the verdicts of fresh curves
    Region.boundary_curves.cache_clear()
    arcs = len(seen)
    assert homotopy_invariance_check(x0, x1, region, 4).index == 1
    assert seen[arcs] is not seen[0]


_SIN_X = TrigPoly2.term(1, 0, "sc", 1)     # sin(2 pi x)
_SIN_Y = TrigPoly2.term(0, 1, "cs", 1)     # sin(2 pi y)
_WEIGHT = 3 + TrigPoly2.term(1, 1, "cc", 1)


def test_homotopy_builds_each_arcs_tables_once_per_ring(monkeypatch):
    """A homotopy subdivides each curve once for the segment and both ends:
    each arc reached is visited once and gets one box and one table per
    axis, per ring."""
    builds, boxes, visits = {}, [], []
    for ring in (Poly2, TrigPoly2):
        def counting(a, n, ring=ring, build=ring.axis_table):
            builds[ring] = builds.get(ring, 0) + 1
            return build(a, n)
        monkeypatch.setattr(ring, "axis_table", staticmethod(counting))
    box_of, tables_of = Circle.box_of, _Curve.tables_of
    monkeypatch.setattr(Circle, "box_of", lambda c, t0, t1: (
        boxes.append((id(c), t0, t1)), box_of(c, t0, t1))[1])
    monkeypatch.setattr(_Curve, "tables_of", lambda c, *a: (
        visits.append(a[:2]), tables_of(c, *a))[1])
    Region.boundary_curves.cache_clear()
    cases = [(plane_field(X, Y), plane_field(2 * X + Y, X + 2 * Y), disk((0, 0), 1), Poly2),
             (torus_field(_WEIGHT * _SIN_X, _WEIGHT * _SIN_Y),
              torus_field((_WEIGHT - 1) * _SIN_X, (_WEIGHT + 1) * _SIN_Y),
              disk((0, 0), Fraction(1, 8)), TrigPoly2)]
    for x0, x1, region, ring in cases:
        boxes.clear()
        visits.clear()
        assert homotopy_invariance_check(x0, x1, region, 8).index == 1
        assert len(set(boxes)) == len(boxes) == len(set(visits)) == len(visits)
        assert len(visits) >= 16                    # one pass reads the 16 first arcs
        assert builds.pop(ring) == 2 * len(boxes)
    assert not builds


@pytest.mark.parametrize("ring", ["plane", "torus"])
@pytest.mark.parametrize("high_first", [True, False])
def test_lower_degree_pass_reads_fresh_bits(monkeypatch, ring, high_first):
    """A pass that reads tables longer than it needs, kept from a pass of
    higher degree, gives the `BoundaryPass` of fresh curves; a pass of
    higher degree after a lower one lengthens the tables."""
    if ring == "plane":
        region = rectangle(-1, -1, 1, 1)
        low, high = plane_field(X, Y), plane_field(X + X ** 3 * Y ** 2, Y - X ** 2 * Y ** 3)
    else:
        region = disk((0, 0), Fraction(1, 8))
        low, high = torus_field(_SIN_X, _SIN_Y), torus_field(_WEIGHT * _SIN_X, _SIN_Y)
    order = [high, low] if high_first else [low, high]
    monkeypatch.setenv(ENV_MAX_DEPTH, _DEPTH)
    for tol in (1, Fraction(1, 4)):
        want = [_fresh_pass(field, region, tol) for field in order]
        assert [repr(min_norm_on_boundary(field, region, tol))
                for field in order] == want
        # both passes read the 16 first arcs, in tables long enough for `high`
        (curve,) = region.boundary_curves()
        (arcs,) = curve._tables.values()            # one ring, one builder
        nx, ny = (max(s._plan()[k] for s in (high.p, high.q)) for k in (0, 1))
        assert nx > max(s._plan()[0] for s in (low.p, low.q))
        assert sum(len(xt) > nx and len(yt) > ny
                   for _, _, (xt, yt) in arcs.values()) >= 16
        Region.boundary_curves.cache_clear()


# rectangle arc boxes in integers against exact points ---------------------------

_corner = st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 4)
_side = st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 4,
                     max_denominator=10 ** 4)


@given(_corner, _corner, _side, _side, st.integers(4, 8), st.data())
@example(Fraction(-1), Fraction(-1), Fraction(2), Fraction(2), 4, None)
@example(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 10 ** 4), 8, None)
@settings(max_examples=200, deadline=None)
def test_rect_box_of_matches_exact_points(x0, y0, w, h, depth, data):
    """`RectLoop.box_of` in integers gives, bit for bit, the `iv.make`
    rounding of the exact endpoints and the vertices between them
    (`box_reference.rect_box_of`): on every arc of one dyadic level, on
    arcs through vertices and on the whole loop."""
    loop = RectLoop((x0, y0, x0 + w, y0 + h))
    n = 2 ** depth
    arcs = [(k / n, (k + 1) / n) for k in range(n)] + [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
    if data is not None:
        a, b = sorted(data.draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
        arcs.append((a, b))
    for t0, t1 in arcs:
        assert loop.box_of(t0, t1) == rect_box_of(loop, t0, t1)


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
