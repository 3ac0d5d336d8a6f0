"""Zero enclosures, boundary margins, blocks and components."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock.certify import (Grid, _lower, _root_box, _upper, boxes_overlap,
                             certify_block, components, min_norm_on_boundary,
                             zero_enclosure)
from vfblock.errors import BoundaryZero, DepthLimitExceeded, UnsupportedRegion
from vfblock.fields import plane_field, torus_field
from vfblock.poly import Poly2, X, Y
from vfblock.regions import (Region, annulus, box_clears_boundary,
                             box_intersects_closure, disk, rectangle, torus_full)
from vfblock.trig import TrigPoly2


def _box_dist_to_origin(b):
    return math.hypot(max(abs(float(b[0])), abs(float(b[2]))),
                      max(abs(float(b[1])), abs(float(b[3]))))


def test_enclosure_source(euler, unit_disk):
    enc = zero_enclosure(euler, unit_disk, Fraction(1, 64))
    assert enc.boxes
    assert all(_box_dist_to_origin(b) < 2 ** -5 for b in enc.boxes)


def test_enclosure_nonvanishing_empty(const_east, unit_disk):
    enc = zero_enclosure(const_east, unit_disk, Fraction(1, 64))
    assert enc.is_empty


def test_enclosure_circle_tube(circle_field, std_annulus):
    res = Fraction(1, 64)
    enc = zero_enclosure(circle_field, std_annulus, res)
    # a tube around the unit circle and nothing elsewhere: every box within
    # 2 * resolution of the circle (outer enclosures keep a sliver of slack)
    from vfblock.regions import box_max_dist_sq, box_min_dist_sq
    origin = (Fraction(0), Fraction(0))
    for b in enc.boxes:
        assert box_min_dist_sq(b, origin) <= (1 + 2 * res) ** 2
        assert box_max_dist_sq(b, origin) >= (1 - 2 * res) ** 2


def test_enclosure_soundness_exact_zeros(circle_field, std_annulus):
    # rational points on the unit circle from Pythagorean triples
    enc = zero_enclosure(circle_field, std_annulus, Fraction(1, 64))
    for z in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
              (Fraction(8, 17), Fraction(-15, 17))):
        assert circle_field.eval_exact(*z) == (0, 0)
        assert enc.contains_point(z)


def test_enclosure_monotone_under_refinement(saddle_pair_field, std_annulus):
    coarse = zero_enclosure(saddle_pair_field, std_annulus, Fraction(1, 16))
    fine = zero_enclosure(saddle_pair_field, std_annulus, Fraction(1, 32))
    for fb in fine.boxes:
        assert any(cb[0] <= fb[0] and cb[1] <= fb[1] and cb[2] >= fb[2]
                   and cb[3] >= fb[3] for cb in coarse.boxes)


def test_enclosure_depth_limit(euler, unit_disk):
    with pytest.raises(DepthLimitExceeded):
        zero_enclosure(euler, unit_disk, Fraction(1, 2 ** 30), max_depth=8)


def test_min_norm_source(euler, unit_disk):
    m = min_norm_on_boundary(euler, unit_disk, tol=Fraction(1, 2000))
    assert m is not None
    assert Fraction(999, 1000) <= m <= 1


def test_min_norm_annulus_with_sampling_oracle(saddle_pair_field, std_annulus):
    m = min_norm_on_boundary(saddle_pair_field, std_annulus)
    assert m is not None and m > 0
    # oracle: dense 1-D minimization over each boundary circle
    lowest = math.inf
    for r in (0.5, 1.5):
        for i in range(100000):
            t = 2 * math.pi * i / 100000
            vx, vy = saddle_pair_field.eval_float(r * math.cos(t), r * math.sin(t))
            lowest = min(lowest, math.hypot(vx, vy))
    assert float(m) <= lowest
    assert lowest - float(m) < 0.3 * lowest


def test_min_norm_anti_false_negative(circle_field, std_annulus):
    m = min_norm_on_boundary(circle_field, std_annulus)
    assert m is not None
    import random
    rng = random.Random(7)
    for _ in range(10000):
        r = rng.choice((0.5, 1.5))
        t = rng.uniform(0, 2 * math.pi)
        vx, vy = circle_field.eval_float(r * math.cos(t), r * math.sin(t))
        assert math.hypot(vx, vy) >= float(m)


def test_min_norm_boundary_zero_inconclusive(euler):
    assert min_norm_on_boundary(euler, disk((1, 0), 1), max_depth=12) is None


def test_certify_block(euler, unit_disk):
    blk = certify_block(euler, unit_disk, Fraction(1, 32))
    assert blk.boundary_margin > Fraction(7, 10)
    assert blk.enclosure.boxes


def test_certify_block_boundary_zero(euler):
    with pytest.raises(BoundaryZero):
        certify_block(euler, disk((1, 0), 1), Fraction(1, 32), max_depth=12)


def test_certify_block_torus_full_unsupported(torus_sin):
    with pytest.raises(UnsupportedRegion):
        certify_block(torus_sin, torus_full(), Fraction(1, 32))


def test_components_counts(euler, circle_field, saddle_pair_field,
                           unit_disk, std_annulus):
    one = components(zero_enclosure(euler, unit_disk, Fraction(1, 64)))
    assert len(one) == 1 and not one[0].loop_like
    tube = components(zero_enclosure(circle_field, std_annulus, Fraction(1, 64)))
    assert len(tube) == 1 and tube[0].loop_like
    two = components(zero_enclosure(saddle_pair_field, std_annulus, Fraction(1, 64)))
    assert len(two) == 2 and not any(c.loop_like for c in two)


def test_components_wrap_on_torus(torus_sin):
    enc = zero_enclosure(torus_sin, torus_full(), Fraction(1, 64))
    comps = components(enc)
    assert len(comps) == 4


def test_components_wrap_diagonal_loops_on_torus():
    # X = (cos 2pi(x - y), 0) vanishes on the two (1,1)-loops x - y = +-1/4,
    # which cross the fundamental domain's edges in both x and y
    p = TrigPoly2.term(1, 1, "cc", 1) + TrigPoly2.term(1, 1, "ss", 1)
    enc = zero_enclosure(torus_field(p, TrigPoly2.zero()), torus_full(),
                         Fraction(1, 16))
    comps = components(enc)
    assert [len(c.cells) for c in comps] == [96, 96]


def test_region_validation():
    with pytest.raises(ValueError):
        disk((0, 0), 0)
    with pytest.raises(ValueError):
        annulus((0, 0), 1, 1)
    with pytest.raises(ValueError):
        rectangle(0, 0, 0, 1)


def test_region_json_roundtrip(std_annulus, unit_disk):
    for region in (std_annulus, unit_disk, rectangle(-1, -2, 3, 4), torus_full()):
        assert Region.from_json(region.to_json()) == region


@given(st.fractions(min_value=-2, max_value=2, max_denominator=16),
       st.fractions(min_value=-2, max_value=2, max_denominator=16))
@settings(max_examples=50, deadline=None)
def test_enclosure_covers_random_exact_zero(zx, zy):
    # field with a single zero placed at (zx, zy)
    f = plane_field(X - Poly2.const(zx), Y - Poly2.const(zy))
    region = rectangle(-3, -3, 3, 3)
    enc = zero_enclosure(f, region, Fraction(1, 16))
    assert enc.contains_point((zx, zy))


def test_boxes_overlap_is_closed_test():
    a = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    b = (Fraction(1), Fraction(1), Fraction(2), Fraction(2))
    c = (Fraction(2), Fraction(0), Fraction(3), Fraction(1))
    assert boxes_overlap(a, b)
    assert not boxes_overlap(a, c)


_coord = st.fractions(min_value=-3, max_value=3, max_denominator=40)
_length = st.fractions(min_value=Fraction(1, 40), max_value=3, max_denominator=40)


@st.composite
def _regions(draw):
    kind = draw(st.sampled_from(("disk", "annulus", "rect")))
    cx, cy = draw(_coord), draw(_coord)
    if kind == "disk":
        return disk((cx, cy), draw(_length))
    if kind == "annulus":
        r_in = draw(_length)
        return annulus((cx, cy), r_in, r_in + draw(_length))
    return rectangle(cx, cy, cx + draw(_length), cy + draw(_length))


@given(_regions(), st.integers(0, 7), st.data(),
       st.fractions(min_value=0, max_value=1, max_denominator=40))
@settings(max_examples=200, deadline=None)
def test_integer_cell_geometry_matches_fractions(region, depth, data, collar):
    x0, y0, x1, _ = _root_box(region)
    grid = Grid(x0, y0, x1 - x0, depth)
    cell = tuple(data.draw(st.integers(0, 2 ** depth - 1)) for _ in "ij")
    box = grid.box(cell)
    n, (scaled_box,) = grid.scaled_boxes([cell], *region.params, collar)
    scaled = region.scaled(n)
    assert all(type(v) is int for v in (*scaled_box, *scaled.params))
    assert (collar * n).denominator == 1
    assert (box_intersects_closure(scaled, scaled_box)
            == box_intersects_closure(region, box))
    assert (box_clears_boundary(scaled, scaled_box, int(collar * n))
            == box_clears_boundary(region, box, collar))
    for a, exact in zip(scaled_box, box):
        assert (_lower(a, n), _upper(a, n)) == iv.make(exact)
