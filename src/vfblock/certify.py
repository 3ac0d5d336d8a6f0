"""Interval-certified zero enclosures, boundary margins and blocks.

The subdivision machinery is the load-bearing certificate layer: a cell is
discarded only when exact geometry or a sound interval evaluation proves it
cannot contain a zero, and a boundary margin is returned only when every leaf
sub-arc has a positive certified lower bound for |X|^2; the same leaves give
the index of X in U (see `winding_stats`).

Every enclosure cell lies on one dyadic grid: the square root box of the
region, halved `depth` times.  A cell is an integer pair (i, j).  Scaling the
grid and the region by n = lcm(denominators) * 2^depth makes every cell corner
an integer, so the region predicates and the Poly2 cell tests run in integer
arithmetic; only a torus TrigPoly2 cell is rounded outward to floats.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from . import interval as iv
from .config import DEFAULT_RESOLUTION, default_max_depth
from .errors import (BoundaryZero, CertificationFailed, ContradictionError,
                     DepthLimitExceeded)
from .fields import PlanarField
from .poly import Poly2, _frac, _frac_str, _ring_plans, cell_test
from .regions import (
    Region,
    TORUS_FULL,
    box_clears_boundary,
    box_intersects_closure,
    require_planar_boundary,
)

Box = tuple[Fraction, Fraction, Fraction, Fraction]
Cell = tuple[int, int]


def box_to_json(box: Box) -> dict:
    x0, y0, x1, y1 = box
    return {"x0": _frac_str(x0), "y0": _frac_str(y0),
            "x1": _frac_str(x1), "y1": _frac_str(y1)}


@dataclass(frozen=True)
class Grid:
    """The 2^depth x 2^depth cells of the square [x0, x0 + side] x
    [y0, y0 + side]; cell (i, j) is column i, row j."""

    x0: Fraction
    y0: Fraction
    side: Fraction
    depth: int

    def box(self, cell: Cell) -> Box:
        h = self.side / 2 ** self.depth
        i, j = cell
        return (self.x0 + i * h, self.y0 + j * h,
                self.x0 + (i + 1) * h, self.y0 + (j + 1) * h)

    def scaling(self, *exact) -> tuple[int, int, int, int]:
        """(n, n x0, n y0, n h) for the least n = lcm * 2^depth that makes the
        grid, every cell corner and the given exact numbers integral."""
        d = math.lcm(*(_frac(v).denominator
                       for v in (self.x0, self.y0, self.side, *exact)))
        return (d << self.depth, int(self.x0 * d) << self.depth,
                int(self.y0 * d) << self.depth, int(self.side * d))

    def scaled_boxes(self, cells, *exact):
        """n from `scaling` and the integer corners n * box(cell) of the cells."""
        n, sx, sy, h = self.scaling(*exact)
        return n, ((sx + i * h, sy + j * h, sx + (i + 1) * h, sy + (j + 1) * h)
                   for i, j in cells)

    def centers(self, cells) -> list[tuple[float, float]]:
        """Correctly rounded float centres of the cells."""
        n, sx, sy, h = self.scaling()
        return [((2 * (sx + i * h) + h) / (2 * n), (2 * (sy + j * h) + h) / (2 * n))
                for i, j in cells]


@dataclass
class ZeroEnclosure:
    """Certified outer approximation: common zeros inside the region's closure
    are covered by the grid cells."""

    cells: list[Cell]
    grid: Grid
    resolution: Fraction
    region: Region
    cells_examined: int = 0
    cells_discarded_geometry: int = 0
    cells_discarded_interval: int = 0
    depth_used: int = 0

    @cached_property
    def boxes(self) -> list[Box]:
        """The cells as exact rational boxes, for JSON and plots only."""
        return [self.grid.box(c) for c in self.cells]

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @cached_property
    def near_cells(self) -> "_NearCells":
        """The `_NearCells` of every descent `near` these cells."""
        return _NearCells(self)

    def spread_centers(self, count: int) -> list[tuple[float, float]]:
        """Correctly rounded float centres of up to `count` cells, taken at an
        even stride through the sorted cells."""
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        return self.grid.centers(self.cells[::max(1, len(self.cells) // count)][:count])

    def to_json(self) -> dict:
        return {
            "resolution": _frac_str(self.resolution),
            "region": self.region.to_json(),
            "boxes": [box_to_json(b) for b in self.boxes],
            "certificate": {
                "cells_examined": self.cells_examined,
                "discarded_by_geometry": self.cells_discarded_geometry,
                "discarded_by_interval": self.cells_discarded_interval,
                "depth_used": self.depth_used,
            },
        }


_EDGE_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_KING_STEPS = _EDGE_STEPS + ((1, 1), (1, -1), (-1, 1), (-1, -1))
_NEIGHBOURHOOD = ((0, 0),) + _KING_STEPS    # a cell and the eight it meets


def meeting_cells(a: ZeroEnclosure, b: ZeroEnclosure):
    """The cells of `a`, in order, whose closed squares meet a closed cell of
    `b`.  On the grid both share, cells (i, j) and (i', j') meet exactly when
    |i - i'| <= 1 and |j - j'| <= 1."""
    if a.grid != b.grid:
        raise ValueError("the enclosures lie on different grids")
    near = {(i + di, j + dj) for i, j in b.cells for di, dj in _NEIGHBOURHOOD}
    return (c for c in a.cells if c in near)


def _root_box(region: Region) -> Box:
    """The square around the bounding box, in `Fraction`s for int regions too."""
    x0, y0, x1, y1 = region.bounding_box()
    half = Fraction(max(x1 - x0, y1 - y0), 2)
    cx, cy = Fraction(x0 + x1, 2), Fraction(y0 + y1, 2)
    return (cx - half, cy - half, cx + half, cy + half)


class _AxisTables(dict):
    """The tables of one grid axis, keyed on (depth d, column or row i): each
    is built once, on first use, as the tuple build(a, a + w, n, count) of
    the scaled integer interval [a, a + w], a = start + i w, w = h 2^(depth -
    d); `build` is a ring's cell table (`poly.cell_test`).  Entry k of such
    a table does not depend on its length, so one store serves scalars of
    every degree up to `count`, bit for bit."""

    def __init__(self, start: int, h: int, depth: int, n: int, build, count: int):
        super().__init__()
        self.start, self.h, self.depth, self.n = start, h, depth, n
        self.build, self.count = build, count

    def __missing__(self, key):
        d, i = key
        w = self.h << (self.depth - d)
        a = self.start + i * w
        table = self[key] = tuple(self.build(a, a + w, self.n, self.count))
        return table


_COLLAR_FACTOR = 2      # K keeps _COLLAR_FACTOR * resolution off the frontier


class _GridSetup:
    """What every enclosure of one region at one resolution shares: the grid,
    its `scaling` (n, n x0, n y0, n h), the region scaled by n, the collar's
    frame and one `_AxisTables` store per axis start and table builder,
    filled lazily."""

    def __init__(self, region: Region, resolution: Fraction):
        x0, y0, x1, _ = _root_box(region)
        side = x1 - x0
        depth = 0
        while 2 * side * side > resolution * resolution * 4 ** depth:
            depth += 1
        self.grid = Grid(x0, y0, side, depth)
        self.region, self.collar_width = region, _COLLAR_FACTOR * resolution
        self.scaling = self.grid.scaling(*region.params)
        self.scaled = region.scaled(self.scaling[0])
        self._stores = {}

    @cached_property
    def collar(self):
        """The `_collar_frame` of an enclosure on this grid, built once."""
        return _collar_frame(self.grid, self.region, self.collar_width)

    def axis(self, start: int, build, count: int) -> _AxisTables:
        """The `build` tables, through at least entry `count`, of the axis
        whose cells start at n x = start; a longer count replaces the store."""
        store = self._stores.get((start, build))
        if store is None or count > store.count:
            n, _, _, h = self.scaling
            store = _AxisTables(start, h, self.grid.depth, n, build, count)
            self._stores[start, build] = store
        return store

_grid_setup = lru_cache(maxsize=1)(_GridSetup)

# Cells examined on `cell_test`'s loop before its compiled test: K's quadtree
# examines about 10,000, point zeros' Z(Y) and Z(g) fewer than 150.
_COMPILE_AFTER = 256


class _NearCells(dict):
    """Per depth d, built in O(|near|) on first use: the depth-d cells that may
    have a final descendant within one cell of `near`'s.  Exact at the final
    depth; above it, the parents of the cells beside `near`'s ancestors one
    depth down."""

    def __init__(self, near: ZeroEnclosure):
        super().__init__()
        self.ancestors = [near.cells]
        for _ in range(near.grid.depth):
            self.ancestors.append({(i >> 1, j >> 1) for i, j in self.ancestors[-1]})
        self.ancestors.reverse()

    def __missing__(self, d):
        if d == len(self.ancestors) - 1:
            cells = {(i + di, j + dj) for i, j in self.ancestors[d] for di, dj in _NEIGHBOURHOOD}
        else:   # {a - 1, a, a + 1} >> 1 == {(a - 1) >> 1, (a + 1) >> 1}
            cells = {((i + di) >> 1, (j + dj) >> 1) for i, j in self.ancestors[d + 1]
                     for di in (-1, 1) for dj in (-1, 1)}
        self[d] = cells
        return cells


def zero_enclosure_scalars(scalars, region: Region, resolution,
                           near: ZeroEnclosure | None = None) -> ZeroEnclosure:
    """Enclose the common zero set of the scalar functions within closure(U).

    A cell survives only if every scalar's interval enclosure over the cell
    contains zero and the cell meets closure(U) (decided exactly).  Kept cells
    are those of the first depth whose diagonal is at most the resolution.
    A cell that passes both and is split asks once whether its box lies in
    closure(U) (`box_clears_boundary` with collar 0, exact); if so, its
    descendants skip the region test.  Both region tests are exact and
    inclusion-isotone, so such a descendant would have passed it: the cells,
    the order of the remaining tests and all four counters are those of a
    region test on every cell.

    Poly2 scalars are tested by the exact natural extension on the integer
    cells (`poly.cell_test`), other rings by the outward-rounded float one.
    After `_COMPILE_AFTER` examined cells the descent swaps in the compiled
    test: the same verdicts, at a cost only a large quadtree pays back.
    The natural extension overestimates more the farther a box lies from the
    origin.  So when every scalar is a Poly2 and the root box has a nonzero
    centre c (and depth > 0), the descent tests s.translate(c), exact, on the
    cells shifted by -c, and a final-depth cell is kept only if the untranslated
    scalars also admit 0 there.  Both forms are inclusion-isotone: their
    endpoints are exact, and the range of each power and product on a cell
    lies in its range on the parent.  So a leaf that passes the natural test
    has ancestors that all pass it, and the kept cells are exactly those that
    both forms keep at every depth: a subset of what either keeps alone.

    With `near`, an enclosure on the same grid (else ValueError), the kept
    cells are exactly `list(meeting_cells(full, near))` of the unrestricted
    enclosure `full`: a cell none of whose descendants can lie within one
    cell of `near`'s is discarded first and counted under geometry.  A cell
    to be split at the depth cap `default_max_depth()` raises
    DepthLimitExceeded.

    The grid, its scaling, the scaled region and the column and row tables
    come from a one-entry memo on the exact (region, resolution): K, the
    k-flat locus, Z(Y) and Z(g) of one theorem, and the next theorem on an
    equal region, share them, bit for bit.  One entry keeps one grid's
    tables alive at a time.
    """
    resolution = _frac(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    max_depth = default_max_depth()
    setup = _grid_setup(region, resolution)
    grid, scaled = setup.grid, setup.scaled
    n, sx, sy, h = setup.scaling
    depth = grid.depth
    build, nx, ny, test, compiled = cell_test(scalars, n)
    columns, rows = setup.axis(sx, build, nx), setup.axis(sy, build, ny)
    leaf_test = leaf_compiled = None
    half = h << depth >> 1          # n side / 2, exact when depth > 0
    cx, cy = sx + half, sy + half   # n c for the root box's centre c
    if depth and (cx or cy) and all(isinstance(s, Poly2) for s in scalars):
        leaf_test, leaf_compiled, leaf_columns, leaf_rows = test, compiled, columns, rows
        c = Fraction(cx, n), Fraction(cy, n)
        build, nx, ny, test, compiled = cell_test([s.translate(*c) for s in scalars], n)
        columns, rows = setup.axis(sx - cx, build, nx), setup.axis(sy - cy, build, ny)
    if near is not None and near.grid != grid:
        raise ValueError("the enclosures lie on different grids")
    near_cells = None if near is None else near.near_cells
    examined = discarded_geom = discarded_iv = depth_used = 0
    kept: list[Cell] = []
    stack: list[tuple[int, int, int, bool]] = [(0, 0, 0, False)]
    while stack:
        i, j, d, inside = stack.pop()
        examined += 1
        if examined == _COMPILE_AFTER:      # no leaf test: leaf_compiled is None
            test, leaf_test = compiled(), leaf_compiled and leaf_compiled()
        depth_used = max(depth_used, d)
        if near_cells is not None and (i, j) not in near_cells[d]:
            discarded_geom += 1
            continue
        if not inside:
            w = h << (depth - d)
            bx, by = sx + i * w, sy + j * w
            box = (bx, by, bx + w, by + w)
            if not box_intersects_closure(scaled, box):
                discarded_geom += 1
                continue
        if not test(columns[d, i], rows[d, j]):
            discarded_iv += 1
            continue
        if d == depth:
            if leaf_test is None or leaf_test(leaf_columns[d, i], leaf_rows[d, j]):
                kept.append((i, j))
            else:
                discarded_iv += 1
            continue
        if d >= max_depth:
            raise DepthLimitExceeded(
                f"resolution {resolution} unreachable within depth {max_depth}"
            )
        inside = inside or box_clears_boundary(scaled, box, 0)
        i, j, d = 2 * i, 2 * j, d + 1
        stack += [(i, j, d, inside), (i + 1, j, d, inside), (i, j + 1, d, inside),
                  (i + 1, j + 1, d, inside)]
    kept.sort()
    return ZeroEnclosure(kept, grid, resolution, region, examined,
                         discarded_geom, discarded_iv, depth_used)


def zero_enclosure(field: PlanarField, region: Region, resolution,
                   near=None) -> ZeroEnclosure:
    return zero_enclosure_scalars([field.p, field.q], region, resolution, near)


# boundary margins and degrees ------------------------------------------------

_INITIAL_ARCS = 16
_LEAF_BUDGET = 40000
_MARGIN_TOL = 0.25      # relative slack target for boundary margins


@dataclass(frozen=True)
class WindingStats:
    winding: int
    samples: int            # leaf arcs
    norm_sq_lower: float    # least leaf lower bound for |X|^2


def winding_stats(field: PlanarField, curve, tol=_MARGIN_TOL) -> WindingStats:
    """Certified lower bound for |X|^2 on a closed curve and the degree of
    X/|X| along it, from one adaptive interval subdivision of the curve.

    Arcs are split lowest bound first until the least bound is positive and
    within the relative slack `tol` in (0, 1] of the least |X|^2 sampled at
    midpoints (tol = 1 accepts any positive bound and samples nothing).  Each
    leaf's interval image then misses 0, so it lies in an open half-plane
    p > 0, q > 0, p < 0 or q < 0: quarter k, centred at angle k pi/2.  On a
    leaf the angle of X stays within pi/2 of one lift of k pi/2; at an
    endpoint shared by neighbouring leaves it is within pi/2 of both lifts,
    so they differ by exactly the quarter step -1, 0 or +1 (mod 4) times
    pi/2.  The lifts advance by 2 pi times the degree around the curve, so
    the degree is the sum of the quarter steps over 4, exactly.  A step of 2
    puts one point in two disjoint half-planes, which only an unsound
    enclosure can do.  Raises BoundaryZero when no positive bound is reached
    within the depth cap or the leaf budget.  An arc's box and axis tables
    come from the curve's memo (`tables_of`), shared by every pass.
    """
    tol = float(tol)
    if not 0 < tol <= 1:
        raise ValueError("tol must lie in (0, 1]")
    slack = (1.0 - tol) ** 2
    min_width = 0.5 ** default_max_depth()
    emp = math.inf
    heap = []
    p, q = field.p, field.q
    build, nx, ny, _ = _ring_plans((p, q))

    def push(t0, t1):
        nonlocal emp
        ix, iy, tables = curve.tables_of(t0, t1, build, nx, ny)
        p_iv, q_iv = p.eval_interval(ix, iy, tables), q.eval_interval(ix, iy, tables)
        lo, _ = iv.add(iv.sqr(p_iv), iv.sqr(q_iv))
        if slack:
            try:
                vx, vy = field.eval_float(*curve.point(0.5 * (t0 + t1)))
            except OverflowError as e:
                raise BoundaryZero(f"X overflows a float at a sampled boundary point: {e}") from e
            emp = min(emp, vx * vx + vy * vy)
        heapq.heappush(heap, (lo, t0, t1, p_iv, q_iv))

    for i in range(_INITIAL_ARCS):
        push(i / _INITIAL_ARCS, (i + 1) / _INITIAL_ARCS)
    splits = 0
    while True:
        lo, t0, t1 = heap[0][:3]
        stop = (t1 - t0) < min_width or splits >= _LEAF_BUDGET
        if lo > 0.0 and (stop or not slack or lo >= slack * emp):
            break
        if stop:
            raise BoundaryZero("|X| could not be certified positive on the boundary")
        heapq.heappop(heap)
        tm = 0.5 * (t0 + t1)
        push(t0, tm)
        push(tm, t1)
        splits += 1
    heap.sort(key=lambda leaf: leaf[1])
    return WindingStats(_degree([leaf[3:] for leaf in heap]), len(heap), lo)


def _degree(images) -> int:
    """The degree of X/|X| from the leaf images (p, q), in curve order, each
    in an open half-plane: the quarter-step rule of `winding_stats`."""
    quarters = [0 if pv[0] > 0.0 else 1 if qv[0] > 0.0 else 2 if pv[1] < 0.0 else 3
                for pv, qv in images]
    turns = 0
    for k0, k1 in zip(quarters, quarters[1:] + quarters[:1]):
        step = (k1 - k0) % 4
        if step == 2:
            raise ContradictionError(
                "neighbouring boundary arcs map into opposite half-planes")
        turns += step if step < 2 else -1
    return turns // 4


@dataclass(frozen=True)
class BoundaryPass:
    """Certified lower bound for |X| on the boundary of U, the index of X in U
    and the number of leaf arcs that certify both.  Any field within `margin`
    of X in sup distance on cl(U) has no boundary zero and the same index:
    the straight-line homotopy to X has none on the boundary either."""

    margin: Fraction
    index: int
    arcs: int


def min_norm_on_boundary(field: PlanarField, region: Region,
                         tol=_MARGIN_TOL) -> BoundaryPass | None:
    """One certified pass over the boundary of U (`winding_stats` on each
    curve), or None when |X| cannot be certified positive there (e.g. a
    boundary zero).  The curves are the region's memoised `boundary_curves()`,
    so consecutive passes over one region, for any fields, share arc boxes
    and axis tables (`_Curve.tables_of`)."""
    require_planar_boundary(region, "min_norm_on_boundary")
    try:
        stats = [winding_stats(field, curve, tol)
                 for curve in region.boundary_curves()]
    except BoundaryZero:
        return None
    return _summed(stats)


def _summed(stats) -> BoundaryPass:
    """The `BoundaryPass` of a region from the `WindingStats` of its curves."""
    return BoundaryPass(Fraction(iv.sqrt_lower(min(s.norm_sq_lower for s in stats))),
                        sum(s.winding for s in stats), sum(s.samples for s in stats))


def joint_boundary_pass(fields, region: Region,
                        segment: bool = False) -> list[BoundaryPass] | None:
    """Each field's `min_norm_on_boundary(field, region, tol=1)`, for fields
    of one ring, from one depth-first subdivision of each boundary curve;
    None where one is None or, with `segment`, where (1 - t) X0 + t X1 is
    not certified nonzero.  A field's test, lo(|X|^2) > 0, makes an arc one
    of its leaves; the segment's, lo(X0 . X1) > 0 or 0 not in det(X0, X1),
    makes X0 and X1 nonzero and not antiparallel on it.  An arc is split
    while a test fails on it, under `winding_stats`' width cap and its leaf
    budget per test, and a test that held is not asked below.  So each
    field gets its own pass's leaves, degree and margin, bit for bit, and
    each arc's box and tables are built once, at the largest degree."""
    require_planar_boundary(region, "joint_boundary_pass")
    min_width = 0.5 ** default_max_depth()
    build, nx, ny, _ = _ring_plans([s for f in fields for s in (f.p, f.q)])
    m = len(fields)
    stats = [[] for _ in fields]
    for curve in region.boundary_curves():
        leaves, splits = [[] for _ in fields], [0] * (m + 1)
        tests = list(range(m + segment))
        stack = [(i / _INITIAL_ARCS, (i + 1) / _INITIAL_ARCS, tests)
                 for i in range(_INITIAL_ARCS)][::-1]
        while stack:
            t0, t1, tests = stack.pop()
            ix, iy, tables = curve.tables_of(t0, t1, build, nx, ny)
            images = {k: (fields[k].p.eval_interval(ix, iy, tables),
                          fields[k].q.eval_interval(ix, iy, tables))
                      for k in (range(m) if m in tests else tests)}
            failing = []
            for k in tests:
                if k == m:
                    if not _segment_leaf(*images[0], *images[1]):
                        failing.append(k)
                    continue
                lo = iv.add(iv.sqr(images[k][0]), iv.sqr(images[k][1]))[0]
                if lo > 0.0:
                    leaves[k].append((lo, images[k]))
                else:
                    failing.append(k)
            if not failing:
                continue
            if (t1 - t0) < min_width or any(splits[k] >= _LEAF_BUDGET for k in failing):
                return None
            for k in failing:
                splits[k] += 1
            tm = 0.5 * (t0 + t1)
            stack += [(tm, t1, failing), (t0, tm, failing)]
        for k, found in enumerate(leaves):
            stats[k].append(WindingStats(_degree([image for _, image in found]), len(found),
                                         min(lo for lo, _ in found)))
    return [_summed(st) for st in stats]


def _segment_leaf(a0, b0, a1, b1) -> bool:
    """lo(X0 . X1) > 0 or 0 not in det(X0, X1) for X0 = (a0, b0), X1 = (a1, b1)."""
    if iv.add(iv.mul(a0, a1), iv.mul(b0, b1))[0] > 0.0:
        return True
    lo, hi = iv.sub(iv.mul(a0, b1), iv.mul(b0, a1))
    return lo > 0.0 or hi < 0.0


@dataclass
class Block:
    """A certified isolating neighborhood: a zero enclosure at positive
    distance from the frontier, and the boundary pass that certified a
    positive margin and read the index."""

    field: PlanarField
    region: Region
    enclosure: ZeroEnclosure
    boundary: BoundaryPass


def certify_block(field: PlanarField, region: Region, resolution=DEFAULT_RESOLUTION) -> Block:
    """Certify that U is isolating for the field and enclose K = Z(X) n cl(U)."""
    if region.kind == TORUS_FULL:
        require_planar_boundary(region, "certify_block")
    resolution = _frac(resolution)
    boundary = min_norm_on_boundary(field, region)
    if boundary is None or boundary.margin <= 0:
        raise BoundaryZero("no positive boundary margin could be certified")
    enclosure = zero_enclosure(field, region, resolution)
    _check_collar(enclosure, _grid_setup(region, resolution).collar)
    return Block(field, region, enclosure, boundary)


_BLOCK_LEVELS = 3      # region tests decide 8 x 8 cells at once (`_select`)


def _select(grid: Grid, cells, scaling, every, some=None) -> list[Cell]:
    """The cells, in order, whose box at `scaling` passes the exact region test
    `every`, which holds on sub-boxes where it holds, or `some`, which fails on
    sub-boxes where it fails: a block under one ancestor _BLOCK_LEVELS depths
    up (fewer on a shallow grid) is decided at once when that box decides it."""
    _, sx, sy, h = scaling
    up = min(_BLOCK_LEVELS, grid.depth)
    w = h << up
    verdicts, kept = {}, []
    for cell in cells:
        i, j = cell
        key = i >> up, j >> up
        if key not in verdicts:
            x, y = sx + key[0] * w, sy + key[1] * w
            box = x, y, x + w, y + w
            verdicts[key] = every(box) or (None if some is None or some(box) else False)
        verdict = verdicts[key]
        if verdict is None:
            x, y = sx + i * h, sy + j * h
            box = x, y, x + h, y + h
            verdict = every(box) or some is not None and some(box)
        if verdict:
            kept.append(cell)
    return kept


def _collar_frame(grid: Grid, region: Region, collar: Fraction):
    """(scaling, region, collar): the grid's `scaling` that makes the region
    and the collar integral, and both scaled by its n."""
    scaling = n, _, _, _ = grid.scaling(*region.params, collar)
    return scaling, region.scaled(n), int(collar * n)


def _check_collar(enclosure: ZeroEnclosure, frame=None):
    """Raise CertificationFailed when a cell lies within the collar of the
    frontier; `frame` is the enclosure's `_collar_frame`, built here if None."""
    grid, cells = enclosure.grid, enclosure.cells
    scaling, scaled, collar = frame or _collar_frame(
        grid, enclosure.region, _COLLAR_FACTOR * enclosure.resolution)
    clears = partial(box_clears_boundary, scaled, collar=collar)
    if len(_select(grid, cells, scaling, clears)) < len(cells):
        raise CertificationFailed(
            "enclosure box touches the boundary collar; refine the resolution"
        )


def restrict_block(parent: Block, sub_region: Region) -> Block:
    """A block for a sub-region of an already certified block: the parent's
    enclosure boxes restricted to the sub-region stay a valid outer enclosure,
    so only the boundary margin needs fresh certification.  Its pass runs at
    tol = 1: the margin is a certified positive bound, not a tight one."""
    boundary = min_norm_on_boundary(parent.field, sub_region, tol=1)
    if boundary is None or boundary.margin <= 0:
        raise BoundaryZero("no positive boundary margin on the sub-region")
    enc = parent.enclosure
    scaling = enc.grid.scaling(*sub_region.params)
    scaled = sub_region.scaled(scaling[0])
    cells = _select(enc.grid, enc.cells, scaling, partial(box_clears_boundary, scaled, collar=0),
                    partial(box_intersects_closure, scaled))
    enclosure = ZeroEnclosure(cells, enc.grid, enc.resolution, sub_region)
    _check_collar(enclosure)
    return Block(parent.field, sub_region, enclosure, boundary)


# connected components --------------------------------------------------------

@dataclass
class Component:
    cells: list[Cell]
    bounding_box: Box
    loop_like: bool

    def to_json(self) -> dict:
        return {
            "bounding_box": box_to_json(self.bounding_box),
            "box_count": len(self.cells),
            "loop_like": self.loop_like,
        }


def _clusters(cells: set[int], steps, width: int, wrap: int = 0) -> list[list[int]]:
    """Connected clusters of the cells packed as i * width + j (width > every
    j + 1, so no planar step off the grid lands on a cell) under the steps
    (di, dj), mod `wrap` in both axes when set; each sorted, by least cell."""
    deltas = [di * width + dj for di, dj in steps]
    left = set(cells)
    out = []
    for start in sorted(cells):
        if start not in left:
            continue
        left.remove(start)
        todo = [start]
        cluster = []
        while todo:
            c = todo.pop()
            cluster.append(c)
            if wrap:
                i, j = divmod(c, width)
                nbs = [(i + di) % wrap * width + (j + dj) % wrap for di, dj in steps]
            else:
                nbs = [c + d for d in deltas]
            for nb in nbs:
                if nb in left:
                    left.remove(nb)
                    todo.append(nb)
        cluster.sort()
        out.append(cluster)
    return out


def components(enclosure: ZeroEnclosure) -> list[Component]:
    """Edge-adjacency connected clusters of enclosure cells (wrapping around
    on the torus), each with a heuristic (non-certified) loop-like flag, on
    cells packed as i * width + j with width = 2^depth + 1."""
    width = (1 << enclosure.grid.depth) + 1
    wrap = enclosure.region.kind == TORUS_FULL
    out = []
    for cluster in _clusters({i * width + j for i, j in enclosure.cells}, _EDGE_STEPS,
                             width, width - 1 if wrap else 0):
        cells = [divmod(c, width) for c in cluster]
        lo = enclosure.grid.box((cells[0][0], min(j for _, j in cells)))
        hi = enclosure.grid.box((cells[-1][0], max(j for _, j in cells)))
        out.append(Component(cells, lo[:2] + hi[2:], _has_hole(cluster, width, wrap)))
    return out


def _has_hole(cluster: list[int], width: int, wrapped: bool = False) -> bool:
    """Whether the union of the closed packed cells encloses a hole.  Its
    Euler characteristic V - E + F is its number of 8-connected pieces minus
    its number of holes; cell c has vertices c, c + 1, c + width, c + width +
    1 and edges c, c + 1 (horizontal), c, c + width (vertical).  An
    edge-connected planar cluster is one piece; a cluster that wraps around
    the torus may fall apart at the seam."""
    faces = set(cluster)
    rows = faces | {c + 1 for c in faces}           # horizontal edges
    verts = len(rows | {c + width for c in rows})
    edges = len(rows) + len(faces | {c + width for c in faces})
    pieces = len(_clusters(faces, _KING_STEPS, width)) if wrapped else 1
    return verts - edges + len(faces) < pieces
