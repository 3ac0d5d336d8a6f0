"""Zero enclosures, boundary margins, blocks and components."""

import contextlib
import hashlib
import json
import math
import os
import pathlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from box_reference import (clusters_reference, components_reference, contains_point,
                           has_hole_reference, zero_enclosure_reference)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock import certify
from vfblock import interval as iv
from vfblock.certify import (_EDGE_STEPS, Block, BoundaryPass, Grid, ZeroEnclosure,
                             _AxisTables, _grid_setup, _root_box, certify_block,
                             components, meeting_cells, min_norm_on_boundary,
                             restrict_block, zero_enclosure, zero_enclosure_scalars)
from vfblock.config import ENV_MAX_DEPTH
from vfblock.corpus import random_tracking_scenario
from vfblock.errors import (BoundaryZero, CertificationFailed, DepthLimitExceeded,
                            UnsupportedRegion)
from vfblock.fields import plane_field, torus_field
from vfblock.poly import Poly2, X, Y
from vfblock.regions import (RectLoop, Region, annulus, box_clears_boundary,
                             box_intersects_closure, disk, disk_like_within, rectangle,
                             torus_full)
from vfblock.scenario import parse_scenario
from vfblock.trig import TrigPoly2

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
        assert contains_point(enc, z)


def test_enclosure_monotone_under_refinement(saddle_pair_field, std_annulus):
    coarse = zero_enclosure(saddle_pair_field, std_annulus, Fraction(1, 16))
    fine = zero_enclosure(saddle_pair_field, std_annulus, Fraction(1, 32))
    for fb in fine.boxes:
        assert any(cb[0] <= fb[0] and cb[1] <= fb[1] and cb[2] >= fb[2]
                   and cb[3] >= fb[3] for cb in coarse.boxes)


def test_enclosure_depth_limit(monkeypatch, euler, unit_disk):
    monkeypatch.setenv(ENV_MAX_DEPTH, "8")
    with pytest.raises(DepthLimitExceeded):
        zero_enclosure(euler, unit_disk, Fraction(1, 2 ** 30))


def test_annulus_scenario_enclosure_is_pinned():
    # K = Z(X) of scenarios/annulus_mainbis.json at its resolution 1/64
    scenario = parse_scenario(json.loads((SCENARIOS / "annulus_mainbis.json").read_text()))
    enc = zero_enclosure(scenario.fields["X"], scenario.regions["U"], scenario.resolution)
    assert (len(enc.cells), enc.cells_examined, enc.cells_discarded_geometry,
            enc.cells_discarded_interval, enc.depth_used) == (2552, 10069, 16, 4984, 9)
    assert hashlib.sha256(json.dumps(enc.cells).encode()).hexdigest() == \
        "34d225a7d219a4435e26fbe7b6378834f12c5013886a9f0f72810468c43401bc"


def test_cells_inside_closure_skip_the_region_test(monkeypatch):
    # K of scenarios/annulus_mainbis.json: once a split cell lies in closure(U),
    # its descendants are not region-tested, and nothing else moves
    scenario = parse_scenario(json.loads((SCENARIOS / "annulus_mainbis.json").read_text()))
    scalars = [scenario.fields["X"].p, scenario.fields["X"].q]
    region, resolution = scenario.regions["U"], scenario.resolution
    calls = []

    def counted(region, box):
        calls.append(box)
        return box_intersects_closure(region, box)

    monkeypatch.setattr(certify, "box_intersects_closure", counted)
    enc = zero_enclosure_scalars(scalars, region, resolution)
    assert len(calls) == 181 < enc.cells_examined
    assert (enc.cells, enc.cells_examined, enc.cells_discarded_geometry,
            enc.cells_discarded_interval, enc.depth_used) == \
        zero_enclosure_reference(scalars, region, resolution)


@pytest.mark.parametrize("count", [0, -3])
def test_spread_centers_rejects_non_positive_count(euler, unit_disk, count):
    enc = zero_enclosure(euler, unit_disk, Fraction(1, 16))
    assert len(enc.spread_centers(1)) == 1
    with pytest.raises(ValueError):
        enc.spread_centers(count)


_coef = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= 4)


@st.composite
def _quadtree_cases(draw):
    """Scalars, a region of any kind and a resolution of 1/20 to 2 root-box
    sides.  A Poly2 may be shifted to vanish at an exact point of the root
    box, so kept cells and deep subdivisions occur; a TrigPoly2 list comes
    with the torus or a disk inside its fundamental domain."""
    kind = draw(st.integers(0, 6))
    trig = kind in (0, 6)
    if kind == 6:
        r = draw(st.fractions(Fraction(1, 20), Fraction(1, 2), max_denominator=40))
        centre = st.fractions(r, 1 - r, max_denominator=40)
        region = disk((draw(centre), draw(centre)), r)
    else:
        region = torus_full() if kind < 2 else draw(_regions())
    x0, y0, x1, _ = _root_box(region)
    side = x1 - x0
    if trig:
        basis = st.sampled_from(("ss", "sc", "cs", "cc"))
        terms = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), basis, _coef),
                         max_size=4)
        scalars = [sum((TrigPoly2.term(*t) for t in ts), TrigPoly2.zero())
                   for ts in draw(st.lists(terms, min_size=1, max_size=3))]
    else:
        scalars = draw(_poly_scalars(x0, y0, side))
    resolution = side * draw(st.fractions(Fraction(1, 20), 2, max_denominator=60))
    return scalars, region, resolution


@st.composite
def _poly_scalars(draw, x0, y0, side):
    """One to six Poly2 scalars, each maybe shifted to vanish at an exact
    point of the square [x0, x0 + side] x [y0, y0 + side]."""
    scalars = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.one_of(st.just(Poly2.zero()), _coef.map(Poly2.const),
                           st.dictionaries(_exponents, _coef, max_size=6).map(Poly2)))
        if draw(st.booleans()):
            u, v = draw(st.fractions(0, 1, max_denominator=16)), draw(st.fractions(0, 1))
            p = p - p.eval_exact(x0 + u * side, y0 + v * side)
        scalars.append(p)
    return scalars


@given(_quadtree_cases(), st.none() | st.integers(1, 4))
@example(([X ** 2 + Y ** 2 - 1, Poly2.zero()], annulus((0, 0), Fraction(1, 2), 2),
          Fraction(1, 8)), None)
@example(([Poly2.zero()], disk((0, 0), 1), Fraction(1, 4)), 2)
@example(([(X - 1) ** 2 + Fraction(1, 8)], disk((1, 0), Fraction(1, 2)), 2), None)
@settings(max_examples=150, deadline=None)
def test_quadtree_matches_reference_loop(case, max_depth):
    scalars, region, resolution = case
    env = {} if max_depth is None else {ENV_MAX_DEPTH: str(max_depth)}
    try:
        want = zero_enclosure_reference(scalars, region, resolution, max_depth)
    except DepthLimitExceeded:
        with pytest.raises(DepthLimitExceeded), mock.patch.dict(os.environ, env):
            zero_enclosure_scalars(scalars, region, resolution)
        return
    with mock.patch.dict(os.environ, env):
        enc = zero_enclosure_scalars(scalars, region, resolution)
    assert (enc.cells, enc.cells_examined, enc.cells_discarded_geometry,
            enc.cells_discarded_interval, enc.depth_used) == want
    # the centred descent only ever removes cells the natural extension keeps
    try:
        natural = zero_enclosure_reference(scalars, region, resolution, max_depth,
                                            centred=False)
    except DepthLimitExceeded:
        return
    assert set(enc.cells) <= set(natural[0])


def test_min_norm_source(euler, unit_disk):
    m = min_norm_on_boundary(euler, unit_disk, tol=Fraction(1, 2000)).margin
    assert Fraction(999, 1000) <= m <= 1


def test_min_norm_annulus_with_sampling_oracle(saddle_pair_field, std_annulus):
    m = min_norm_on_boundary(saddle_pair_field, std_annulus).margin
    assert m > 0
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
    m = min_norm_on_boundary(circle_field, std_annulus).margin
    import random
    rng = random.Random(7)
    for _ in range(10000):
        r = rng.choice((0.5, 1.5))
        t = rng.uniform(0, 2 * math.pi)
        vx, vy = circle_field.eval_float(r * math.cos(t), r * math.sin(t))
        assert math.hypot(vx, vy) >= float(m)


def test_min_norm_boundary_zero_inconclusive(monkeypatch, euler):
    monkeypatch.setenv(ENV_MAX_DEPTH, "12")
    assert min_norm_on_boundary(euler, disk((1, 0), 1)) is None


def test_certify_block(euler, unit_disk):
    blk = certify_block(euler, unit_disk, Fraction(1, 32))
    assert blk.boundary.margin > Fraction(7, 10)
    assert blk.enclosure.boxes


def test_certify_block_boundary_zero(monkeypatch, euler):
    monkeypatch.setenv(ENV_MAX_DEPTH, "12")
    with pytest.raises(BoundaryZero):
        certify_block(euler, disk((1, 0), 1), Fraction(1, 32))


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
    assert [c.loop_like for c in comps] == [_has_hole_flood(set(c.cells)) for c in comps]


def _has_hole_flood(cluster):
    """Reference loop-like flag: flood the complement of the cells inside
    their padded bounding box; an unreachable complement cell is a hole."""
    is_ = [c[0] for c in cluster]
    js = [c[1] for c in cluster]
    i0, i1 = min(is_) - 1, max(is_) + 1
    j0, j1 = min(js) - 1, max(js) + 1
    seen = {(i0, j0)}
    todo = [(i0, j0)]
    while todo:
        ci, cj = todo.pop()
        for nb in ((ci + 1, cj), (ci - 1, cj), (ci, cj + 1), (ci, cj - 1)):
            if (i0 <= nb[0] <= i1 and j0 <= nb[1] <= j1
                    and nb not in seen and nb not in cluster):
                seen.add(nb)
                todo.append(nb)
    return len(seen) + len(cluster) < (i1 - i0 + 1) * (j1 - j0 + 1)


_cell_sets = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1,
                     max_size=40)


@given(_cell_sets)
@settings(max_examples=300, deadline=None)
@example({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)})   # ring
@example({(1, 0), (0, 1), (2, 1), (1, 2)})          # diagonal ring around (1, 1)
@example({(0, 0), (1, 1)})                          # touching at a corner only
def test_euler_hole_test_matches_flood_fill(cells):
    # planar: each edge-connected cluster, as `components` passes it
    for cluster in clusters_reference(cells, _EDGE_STEPS):
        assert has_hole_reference(set(cluster)) == _has_hole_flood(set(cluster))
    # torus of side 8: clusters wrap across the seam, so the flood fill sees
    # them in several pieces; any cell set counts its own pieces
    for cluster in clusters_reference(cells, _EDGE_STEPS, 8):
        assert has_hole_reference(set(cluster), True) == _has_hole_flood(set(cluster))
    assert has_hole_reference(cells, True) == _has_hole_flood(cells)


def test_euler_hole_test_on_seam_clusters():
    # a ring cut by the seam x = 0 of an 8-cell torus falls into two planar
    # pieces, neither enclosing anything
    cut = {(7, 2), (7, 3), (7, 4), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4)}
    assert clusters_reference(cut, _EDGE_STEPS, 8) == [sorted(cut)]
    assert not has_hole_reference(cut, True) and not _has_hole_flood(cut)
    # joined by (2, 3) to an uncut ring around (4, 4): still one wrapped
    # cluster, two planar pieces, and one hole (chi = 1 < 2 pieces)
    ring = {(3, 3), (4, 3), (5, 3), (3, 4), (5, 4), (3, 5), (4, 5), (5, 5)}
    joined = cut | {(2, 3)} | ring
    assert clusters_reference(joined, _EDGE_STEPS, 8) == [sorted(joined)]
    assert has_hole_reference(joined, True) and _has_hole_flood(joined)


_SEAM_RING = {(7, 2), (7, 3), (7, 4), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4)}
_RING = {(3, 3), (4, 3), (5, 3), (3, 4), (5, 4), (3, 5), (4, 5), (5, 5)}


@given(_cell_sets, st.booleans())
@settings(max_examples=300, deadline=None)
@example(_SEAM_RING, True)                          # one cluster across the seam x = 0
@example(_SEAM_RING | {(2, 3)} | _RING, True)       # across the seam, with a hole
@example(_RING | {(0, 0), (7, 7), (0, 7)}, False)   # a hole and three more components
@example({(0, 0), (7, 7), (0, 7), (7, 0)}, True)    # four corners: one cluster on the torus
@example({(0, 3), (7, 3), (3, 0), (3, 7), (2, 2)}, False)   # off-edge steps alias no cell
def test_components_match_tuple_reference(cells, torus):
    # packed integer cells give the tuple flood's clusters, order, boxes and flags
    region = torus_full() if torus else rectangle(0, 0, 1, 1)
    enc = ZeroEnclosure(sorted(cells), Grid(Fraction(0), Fraction(0), Fraction(1), 3),
                        Fraction(1, 8), region)
    assert components(enc) == components_reference(enc)


def test_components_match_tuple_reference_on_enclosures(circle_field, saddle_pair_field,
                                                        std_annulus, torus_sin):
    for enc in (zero_enclosure(circle_field, std_annulus, Fraction(1, 64)),
                zero_enclosure(saddle_pair_field, std_annulus, Fraction(1, 32)),
                zero_enclosure(torus_sin, torus_full(), Fraction(1, 32))):
        assert components(enc) == components_reference(enc)


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
    assert contains_point(enc, (zx, zy))


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
        assert iv.ratio(a, n) == iv.make(exact)
    # the quadtree's per-column and per-row intervals are the cell's, scaled by n
    _, sx, sy, h = grid.scaling(*region.params, collar)
    for start, k, lo, hi in ((sx, cell[0], box[0], box[2]), (sy, cell[1], box[1], box[3])):
        assert _AxisTables(start, h, depth, n, lambda a, b, n, count: (a, b), 0)[depth, k] == \
            (lo * n, hi * n)


_blob = st.tuples(st.integers(0, 127), st.integers(0, 127), st.integers(0, 12),
                  st.lists(st.tuples(st.integers(0, 127), st.integers(0, 127)), max_size=4))


def _cell_set(grid, blob):
    """Sorted cells of the grid: a square of Chebyshev radius r around cell
    (i0, j0), clipped to the grid, and a few more cells, every index taken
    mod the grid's size; so blocks lie inside U, outside it and across its
    frontier and collar."""
    (i0, j0, r, extra), size = blob, 2 ** grid.depth
    i0, j0 = i0 % size, j0 % size
    cells = {(i, j) for i in range(max(0, i0 - r), min(size, i0 + r + 1))
             for j in range(max(0, j0 - r), min(size, j0 + r + 1))}
    return sorted(cells | {(i % size, j % size) for i, j in extra})


@given(_regions(), _regions(), st.integers(0, 7), _blob,
       st.fractions(Fraction(1, 64), Fraction(1, 2), max_denominator=64))
@example(annulus((0, 0), Fraction(1, 2), Fraction(3, 2)),
         annulus((0, 0), Fraction(7, 8), Fraction(9, 8)), 6, (10, 30, 12, []),
         Fraction(1, 64))
@settings(max_examples=200, deadline=None)
def test_blockwise_region_tests_match_the_per_cell_loop(region, sub, depth, blob,
                                                        resolution):
    # `_check_collar` and `restrict_block` decide 8 x 8 cells at a time on
    # their ancestor box; they must raise, keep and order exactly as a loop
    # of the exact Fraction predicates over every cell does
    x0, y0, x1, _ = _root_box(region)
    grid = Grid(x0, y0, x1 - x0, depth)
    cells = _cell_set(grid, blob)
    collar = certify._COLLAR_FACTOR * resolution

    def collar_fails(region, cells):
        return any(not box_clears_boundary(region, grid.box(c), collar) for c in cells)

    enclosure = ZeroEnclosure(cells, grid, resolution, region)
    with (pytest.raises(CertificationFailed) if collar_fails(region, cells)
          else contextlib.nullcontext()):
        certify._check_collar(enclosure)
    parent = Block(plane_field(Poly2.const(1), Poly2.zero()), region, enclosure,
                   BoundaryPass(Fraction(1), 0, 16))
    want = [c for c in cells if box_intersects_closure(sub, grid.box(c))]
    if collar_fails(sub, want):
        with pytest.raises(CertificationFailed):
            restrict_block(parent, sub)
    else:
        assert restrict_block(parent, sub).enclosure.cells == want


def _collar_outcome(enclosure, frame=None):
    try:
        certify._check_collar(enclosure, frame)
    except CertificationFailed as e:
        return str(e)
    return None


@given(_regions(), _blob, st.fractions(Fraction(1, 64), Fraction(1, 2), max_denominator=64))
@settings(max_examples=100, deadline=None)
def test_collar_frame_memoised_on_the_grid_setup(region, blob, resolution):
    """K's collar frame, built once on the grid set-up of (region,
    resolution), makes the collar test raise, with the same message, exactly
    when the frame built anew does."""
    setup = certify._GridSetup(region, resolution)
    enclosure = ZeroEnclosure(_cell_set(setup.grid, blob), setup.grid, resolution, region)
    want = _collar_outcome(enclosure)
    assert _collar_outcome(enclosure, setup.collar) == want
    assert setup.collar is setup.collar
    assert setup.collar[0] == setup.grid.scaling(*region.params,
                                                 certify._COLLAR_FACTOR * resolution)


def test_certify_block_builds_the_collar_frame_once_per_grid(monkeypatch, euler):
    """Blocks of two fields on one region and resolution share K's collar
    frame; `restrict_block` builds its sub-region's own."""
    built = []
    collar_frame = certify._collar_frame
    monkeypatch.setattr(certify, "_collar_frame", lambda *a: (built.append(a[1]),
                                                              collar_frame(*a))[1])
    _grid_setup.cache_clear()
    region, sub = disk((0, 0), 1), disk((0, 0), Fraction(1, 2))
    block = certify_block(euler, region, Fraction(1, 16))
    certify_block(plane_field(2 * X, Y), region, Fraction(1, 16))
    assert built == [region]
    assert restrict_block(block, sub).boundary.index == 1
    assert built == [region, sub]


def _within_slack(sub, region) -> float:
    """In floats, how far closure(sub), a disk or an annulus, stays inside
    closure(region): negative when it leaves it."""
    (cx, cy), r = map(float, sub.center), float(sub.r or sub.r_out)
    lo = float(sub.r_in or 0)
    if region.kind == "rect":
        x0, y0, x1, y1 = map(float, region.corners)
        return min(cx - r - x0, x1 - r - cx, cy - r - y0, y1 - r - cy)
    d = math.hypot(cx - float(region.center[0]), cy - float(region.center[1]))
    slack = float(region.r or region.r_out) - r - d
    if region.kind == "annulus":
        hole = float(region.r_in)
        slack = min(slack, max(d - r - hole, lo - hole - d))
    return slack


@pytest.mark.parametrize("sub, region, want", [
    (disk((0, 0), 1), disk((0, 0), 1), True),
    (disk((Fraction(1, 2), 0), Fraction(1, 2)), disk((0, 0), 1), True),     # tangent inside
    (disk((Fraction(1, 2), 0), Fraction(3, 5)), disk((0, 0), 1), False),
    (annulus((0, 0), Fraction(1, 2), Fraction(4860750170816711, 4503599627370496)),
     annulus((0, 0), Fraction(1, 2), Fraction(17, 16)), False),             # the (iv) sliver
    (annulus((0, 0), Fraction(3, 4), 1), annulus((0, 0), Fraction(1, 2), 1), True),
    (annulus((0, 0), Fraction(1, 4), 1), annulus((0, 0), Fraction(1, 2), 1), False),
    (disk((2, 0), Fraction(1, 2)), annulus((0, 0), 1, 3), True),            # beside the hole
    (disk((Fraction(3, 2), 0), Fraction(1, 2)), annulus((0, 0), 1, 3), True),   # touches it
    (disk((Fraction(7, 5), 0), Fraction(1, 2)), annulus((0, 0), 1, 3), False),
    (annulus((Fraction(1, 4), 0), Fraction(5, 4), 2), annulus((0, 0), 1, 3), True),
    (annulus((Fraction(1, 4), 0), Fraction(6, 5), 2), annulus((0, 0), 1, 3), False),
    (disk((1, 1), 1), rectangle(0, 0, 2, 2), True),
    (annulus((1, 1), Fraction(1, 2), 1), rectangle(0, 0, 2, 3), True),
    (disk((1, 1), 1), rectangle(0, 0, 2, Fraction(19, 10)), False),
])
def test_disk_like_within_cases(sub, region, want):
    assert disk_like_within(sub, region) is want


_unit = st.fractions(-1, 1, max_denominator=24)


@given(_regions(), _unit, _unit, _unit.map(abs), _unit.map(abs))
@settings(max_examples=300, deadline=None)
def test_disk_like_within_matches_float_geometry(region, u, v, a, b):
    # a disk or an annulus scaled to the region's size and placed around its
    # middle, so that it lies inside about as often as not: the exact decision
    # agrees with the float one wherever the float slack is clear of rounding
    x0, y0, x1, y1 = region.bounding_box()
    size = min(x1 - x0, y1 - y0) / 2
    center = ((x0 + x1) / 2 + u * size, (y0 + y1) / 2 + v * size)
    r = (a + Fraction(1, 24)) * size
    sub = disk(center, r) if b < Fraction(1, 3) else annulus(center, b * r, r + b * r)
    slack = _within_slack(sub, region)
    if abs(slack) > 1e-9:
        assert disk_like_within(sub, region) is (slack > 0)


def _shifted(region, c):
    """The disk, annulus or rectangle translated by -c."""
    if region.corners is not None:
        x0, y0, x1, y1 = region.corners
        return replace(region, corners=(x0 - c[0], y0 - c[1], x1 - c[0], y1 - c[1]))
    return replace(region, center=(region.center[0] - c[0], region.center[1] - c[1]))


@given(_regions(), st.data(), st.fractions(Fraction(1, 20), 1, max_denominator=60))
@settings(max_examples=100, deadline=None)
def test_centred_descent_is_translation_covariant(region, data, fraction):
    # on U, whose root box is centred at c, the descent is the natural one of
    # the translated scalars on U - c, cell for cell; the final natural test
    # of the untranslated scalars can only remove cells
    x0, y0, x1, _ = _root_box(region)
    side = x1 - x0
    c = (x0 + side / 2, y0 + side / 2)
    scalars = data.draw(_poly_scalars(x0, y0, side))
    enc = zero_enclosure_scalars(scalars, region, side * fraction)
    moved = zero_enclosure_scalars([s.translate(*c) for s in scalars],
                                   _shifted(region, c), side * fraction)
    assert _root_box(moved.region) == (-side / 2, -side / 2, side / 2, side / 2)
    assert enc.grid.depth == moved.grid.depth > 0
    assert (enc.cells_examined, enc.cells_discarded_geometry, enc.depth_used) == \
        (moved.cells_examined, moved.cells_discarded_geometry, moved.depth_used)
    assert set(enc.cells) <= set(moved.cells)
    assert enc.cells_discarded_interval == \
        moved.cells_discarded_interval + len(moved.cells) - len(enc.cells)


def _boxes_overlap_ref(a, b):
    """Reference overlap rule: closed exact rational boxes meet."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _enclosure(grid, cells):
    return ZeroEnclosure(sorted(cells), grid, Fraction(1), torus_full())


_UNIT_GRID = Grid(Fraction(0), Fraction(0), Fraction(4), 2)   # cells of side 1


@st.composite
def _overlap_cases(draw):
    """K and Z(Y) on one grid, the torus root box's or a random region's, and
    exact points on cell corners, on edges, inside cells and off the grid."""
    region = draw(st.one_of(st.just(torus_full()), _regions()))
    x0, y0, x1, _ = _root_box(region)
    depth = draw(st.integers(0, 4))
    grid = Grid(x0, y0, x1 - x0, depth)
    cells = st.sets(st.tuples(*[st.integers(0, 2 ** depth - 1)] * 2), max_size=12)
    h = grid.side / 2 ** depth
    coord = st.tuples(st.integers(-1, 2 ** depth),
                      st.sampled_from([Fraction(0), Fraction(1, 2)])
                      | st.fractions(0, 1, max_denominator=64))
    points = [(x0 + (i + u) * h, y0 + (j + v) * h)
              for (i, u), (j, v) in draw(st.lists(st.tuples(coord, coord), max_size=4))]
    return _enclosure(grid, draw(cells)), _enclosure(grid, draw(cells)), points


@given(_overlap_cases(), st.integers(1, 8))
@example((_enclosure(_UNIT_GRID, {(0, 0)}), _enclosure(_UNIT_GRID, {(1, 1)}),
          [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]), 8)   # corner contact
@example((_enclosure(_UNIT_GRID, {(0, 0)}), _enclosure(_UNIT_GRID, {(2, 0)}),
          [(Fraction(1), Fraction(1, 2))]), 8)                            # one cell apart
@settings(max_examples=300, deadline=None)
def test_cell_overlap_matches_fraction_boxes(case, limit):
    k_enc, y_enc, points = case
    k_boxes, y_boxes = k_enc.boxes, y_enc.boxes
    meeting = [b for b in k_boxes if any(_boxes_overlap_ref(b, yb) for yb in y_boxes)]
    assert (next(meeting_cells(k_enc, y_enc), None) is not None) == bool(meeting)
    assert (next(meeting_cells(y_enc, k_enc), None) is not None) == bool(meeting)
    centres = [(float((b[0] + b[2]) / 2), float((b[1] + b[3]) / 2)) for b in k_boxes]
    assert k_enc.grid.centers(k_enc.cells) == centres
    assert k_enc.grid.centers(islice(meeting_cells(k_enc, y_enc), limit)) == [
        c for c, b in zip(centres, k_boxes) if b in meeting][:limit]
    for point in points:
        assert contains_point(k_enc, point) == any(
            b[0] <= point[0] <= b[2] and b[1] <= point[1] <= b[3] for b in k_boxes)


def test_enclosures_on_different_grids_raise():
    cells = [(0, 0)]
    for other in (Grid(Fraction(0), Fraction(0), Fraction(4), 3),
                  Grid(Fraction(1, 2), Fraction(0), Fraction(4), 2)):
        with pytest.raises(ValueError):
            meeting_cells(_enclosure(_UNIT_GRID, cells), _enclosure(other, cells))
        with pytest.raises(ValueError):
            meeting_cells(_enclosure(other, cells), _enclosure(_UNIT_GRID, cells))


@given(_quadtree_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_near_enclosure_is_full_enclosure_meeting_near(case, data):
    scalars, region, resolution = case
    full = zero_enclosure_scalars(scalars, region, resolution)
    top = 2 ** full.grid.depth - 1
    # any cell, a cell on the grid's edge, a kept cell or a neighbour of one
    coord = st.integers(0, top) | st.sampled_from((0, top))
    cell = st.tuples(coord, coord)
    if full.cells:
        nudge = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
        cell |= st.tuples(st.sampled_from(full.cells), nudge).map(
            lambda c: (min(max(c[0][0] + c[1][0], 0), top),
                       min(max(c[0][1] + c[1][1], 0), top)))
    near = ZeroEnclosure(sorted(data.draw(st.sets(cell, max_size=6))), full.grid,
                         resolution, region)
    restricted = zero_enclosure_scalars(scalars, region, resolution, near=near)
    assert restricted.cells == list(meeting_cells(full, near))
    assert list(meeting_cells(near, restricted)) == list(meeting_cells(near, full))
    assert restricted.cells_examined <= full.cells_examined
    assert restricted.cells_discarded_interval <= full.cells_discarded_interval
    other = Grid(full.grid.x0, full.grid.y0, full.grid.side, full.grid.depth + 1)
    with pytest.raises(ValueError):
        zero_enclosure_scalars(scalars, region, resolution,
                               near=ZeroEnclosure(near.cells, other, resolution, region))


def test_near_enclosure_examines_fewer_cells():
    # the first seed-1 falsification case: Z(Y) has zeros away from K = Z(X)
    x_field, y_field, region, _ = random_tracking_scenario(random.Random(1))
    res = Fraction(1, 16)
    k_enc = zero_enclosure(x_field, region, res)
    full = zero_enclosure(y_field, region, res)
    restricted = zero_enclosure(y_field, region, res, near=k_enc)
    assert len(restricted.cells) < len(full.cells)
    assert restricted.cells_examined < full.cells_examined
    assert restricted.cells == list(meeting_cells(full, k_enc))
    assert list(meeting_cells(k_enc, restricted)) == list(meeting_cells(k_enc, full))


def _rect_point(corners, t: Fraction):
    """The exact point at arc-length parameter t of the counterclockwise
    boundary of the rectangle, starting at its lower-left corner."""
    x0, y0, x1, y1 = corners
    w, h = x1 - x0, y1 - y0
    s = t * 2 * (w + h)
    for (ax, ay), (dx, dy), length in (((x0, y0), (1, 0), w), ((x1, y0), (0, 1), h),
                                       ((x1, y1), (-1, 0), w), ((x0, y1), (0, -1), h)):
        if s <= length:
            return ax + dx * s, ay + dy * s
        s -= length
    raise AssertionError(t)


@given(st.tuples(_coord, _coord, _length, _length), st.integers(1, 12),
       st.integers(0, 2 ** 12 - 1), st.fractions(min_value=0, max_value=1))
@example((Fraction(-815366, 735), Fraction(-45829, 946),
          Fraction(-539833817, 490245) + Fraction(815366, 735),
          Fraction(-25429, 2838) + Fraction(45829, 946)), 8, 115, Fraction(1, 2))
@settings(max_examples=200, deadline=None)
def test_rect_box_of_encloses_exact_arc(rect, depth, k, u):
    x0, y0, w, h = rect
    corners = (x0, y0, x0 + w, y0 + h)
    k %= 2 ** depth
    t0, t1 = k / 2 ** depth, (k + 1) / 2 ** depth
    (xlo, xhi), (ylo, yhi) = RectLoop(corners).box_of(t0, t1)
    for t in (Fraction(t0), Fraction(t1), Fraction(t0) + u * (Fraction(t1) - Fraction(t0))):
        x, y = _rect_point(corners, t)
        assert xlo <= x <= xhi and ylo <= y <= yhi


# the grid set-up memo ----------------------------------------------------------

def _fingerprint(enc):
    return (enc.grid, enc.cells, enc.cells_examined, enc.cells_discarded_geometry,
            enc.cells_discarded_interval, enc.depth_used)


@st.composite
def _memo_cases(draw):
    """Scalars of mixed degree on a disk, annulus or rectangle, mostly off
    the origin; a resolution of 1/20 to 2 root-box sides; another region."""
    region = draw(_regions())
    x0, y0, x1, _ = _root_box(region)
    side = x1 - x0
    scalars = draw(_poly_scalars(x0, y0, side))
    resolution = side * draw(st.fractions(Fraction(1, 20), 2, max_denominator=60))
    return scalars, region, resolution, draw(_regions().filter(lambda r: r != region))


@given(_memo_cases(), st.integers(5, 7), st.integers(5, 7))
@example(([X * X + Y * Y - 1, X - Y], disk((0, 0), 1), Fraction(1, 16),
          rectangle(0, 0, 1, 1)), 5, 6)
@example(([(X - 1) ** 3 - Y, Y * Y - Fraction(1, 9)], annulus((1, 1), Fraction(1, 3), 1),
          Fraction(1, 32), disk((0, 0), 1)), 7, 5)
@settings(max_examples=100, deadline=None)
def test_warm_grid_memo_gives_cold_enclosures(case, a, b):
    """The enclosure is the same with the memo cold, warm from scalars of
    fewer or more powers on the same grid, and after another region evicted
    the entry."""
    scalars, region, resolution, other = case
    enclose = zero_enclosure_scalars
    _grid_setup.cache_clear()
    cold = _fingerprint(enclose(scalars, region, resolution))
    for before in ([X - Y], [X ** a + Y ** b, X ** b * Y - 1]):
        _grid_setup.cache_clear()
        enclose(before, region, resolution)
        assert _fingerprint(enclose(scalars, region, resolution)) == cold
        assert _fingerprint(enclose(scalars, region, resolution)) == cold
    enclose(before, other, resolution)
    assert _grid_setup.cache_info().currsize == 1
    assert _fingerprint(enclose(scalars, region, resolution)) == cold


@pytest.mark.parametrize("ints, fractions", [
    (Region("disk", (0, 0), r=1), disk((Fraction(0), Fraction(0)), Fraction(1))),
    (Region("disk", (1, -2), r=3), disk((Fraction(1), Fraction(-2)), Fraction(3))),
    (Region("annulus", (1, 0), r_in=1, r_out=2), annulus((Fraction(1), 0), 1, Fraction(2))),
    (Region("rect", corners=(0, -1, 3, 1)), rectangle(0, Fraction(-1), Fraction(3), 1)),
])
def test_int_region_shares_the_fraction_entry(ints, fractions):
    """A region built from ints equals one built from `Fraction`s, so they
    share a memo entry; either may fill it, for the same enclosure."""
    scalars = [X * X + Y * Y - 2, X * Y - Fraction(1, 2)]
    assert ints == fractions and hash(ints) == hash(fractions)
    got = []
    for first, second in ((ints, fractions), (fractions, ints)):
        _grid_setup.cache_clear()
        got.append(_fingerprint(zero_enclosure_scalars(scalars, first, Fraction(1, 16))))
        got.append(_fingerprint(zero_enclosure_scalars(scalars, second, Fraction(1, 16))))
        assert _grid_setup.cache_info().hits >= 1
    assert got == got[:1] * 4
    assert all(isinstance(v, Fraction) for v in got[0][0].box((0, 0)))


def test_torus_polynomials_and_trig_share_one_grid():
    """Power and factor table stores of one grid stay apart."""
    region, res = torus_full(), Fraction(1, 32)
    trig = [TrigPoly2.term(1, 0, "sc", Fraction(1)), TrigPoly2.term(0, 1, "cs", Fraction(1))]
    poly = [X * X - Fraction(1, 4), Y - Fraction(1, 3)]
    _grid_setup.cache_clear()
    cold = [_fingerprint(zero_enclosure_scalars(s, region, res)) for s in (trig, poly)]
    _grid_setup.cache_clear()
    warm = [_fingerprint(zero_enclosure_scalars(s, region, res)) for s in (poly, trig)]
    assert warm[::-1] == cold and _grid_setup.cache_info().currsize == 1


def test_memos_hold_one_read_only_entry():
    """After enclosures and boundary passes on 20 regions each memo holds one
    entry, and what it hands out cannot be changed in place: the axis tables
    are tuples of intervals, the scaled region is frozen and the curves are a
    tuple."""
    field = plane_field(X * X - Fraction(1, 9), Y - X * Y)
    for k in range(20):
        region = (disk, lambda c, r: annulus(c, r / 2, r))[k % 2]((Fraction(k, 7), 0),
                                                                 Fraction(1, 2) + k)
        zero_enclosure(field, region, Fraction(1, 8))
        assert min_norm_on_boundary(field, region, tol=1) is not None
        assert _grid_setup.cache_info().currsize <= 1
        assert Region.boundary_curves.cache_info().currsize <= 1
    setup = _grid_setup(region, Fraction(1, 8))
    assert _grid_setup.cache_info().currsize == 1
    tables = [t for store in setup._stores.values() for t in store.values()]
    assert tables and all(type(t) is tuple and all(type(e) is tuple for e in t)
                          for t in tables)
    with pytest.raises(AttributeError):
        setup.scaled.r_out = 0
    assert all(type(v) in (int, Fraction, str, type(None)) or type(v) is tuple
               for v in vars(setup.scaled).values())
    assert type(region.boundary_curves()) is tuple
