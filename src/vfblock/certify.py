"""Interval-certified zero enclosures, boundary margins and blocks.

The subdivision machinery is the load-bearing certificate layer: a cell is
discarded only when exact geometry or a sound interval evaluation proves it
cannot contain a zero, and a boundary margin is returned only when every leaf
sub-arc has a positive certified lower bound for |X|^2.

Every enclosure cell lies on one dyadic grid: the square root box of the
region, halved `depth` times.  A cell is an integer pair (i, j).  Scaling the
grid and the region by n = lcm(denominators) * 2^depth makes every cell corner
an integer, so the region predicates run in integer arithmetic and the float
interval of a cell comes straight from integer quotients.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import interval as iv
from .config import DEFAULTS, default_max_depth
from .errors import BoundaryZero, CertificationFailed, DepthLimitExceeded
from .fields import PlanarField
from .poly import _frac, _frac_str
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


def boxes_overlap(a: Box, b: Box) -> bool:
    return (a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3])


def box_contains_point(box: Box, point) -> bool:
    x, y = _frac(point[0]), _frac(point[1])
    return box[0] <= x <= box[2] and box[1] <= y <= box[3]


def _lower(a: int, n: int) -> float:
    """iv.make(Fraction(a, n))[0]: a / n is correctly rounded, so it needs
    one ulp only when it rounded up."""
    f = a / n
    p, q = f.as_integer_ratio()
    return f if p * n <= a * q else iv.down(f)


def _upper(a: int, n: int) -> float:
    f = a / n
    p, q = f.as_integer_ratio()
    return f if p * n >= a * q else iv.up(f)


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
        """The cells as exact rational boxes, built on first use."""
        return [self.grid.box(c) for c in self.cells]

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def spread_centers(self, count: int) -> list[tuple[float, float]]:
        """Correctly rounded float centres of up to `count` cells, taken at an
        even stride through the sorted cells."""
        n, sx, sy, h = self.grid.scaling()
        picked = self.cells[::max(1, len(self.cells) // count)][:count]
        return [((2 * (sx + i * h) + h) / (2 * n), (2 * (sy + j * h) + h) / (2 * n))
                for i, j in picked]

    def contains_point(self, point) -> bool:
        return any(box_contains_point(b, point) for b in self.boxes)

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


def enclosures_overlap(a: ZeroEnclosure, b: ZeroEnclosure) -> bool:
    return any(boxes_overlap(ba, bb) for ba in a.boxes for bb in b.boxes)


def _root_box(region: Region) -> Box:
    x0, y0, x1, y1 = region.bounding_box()
    w, h = x1 - x0, y1 - y0
    side = max(w, h)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    return (cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2)


def zero_enclosure_scalars(scalars, region: Region, resolution,
                           max_depth: int | None = None) -> ZeroEnclosure:
    """Enclose the common zero set of the scalar functions within closure(U).

    A cell survives only if every scalar's interval enclosure over the cell
    contains zero and the cell meets closure(U) (decided exactly).  Kept cells
    are those of the first depth whose diagonal is at most the resolution.
    """
    resolution = _frac(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if max_depth is None:
        max_depth = default_max_depth()
    x0, y0, x1, _ = _root_box(region)
    side = x1 - x0
    depth = 0
    while 2 * side * side > resolution * resolution * 4 ** depth:
        depth += 1
    grid = Grid(x0, y0, side, depth)
    n, sx, sy, h = grid.scaling(*region.params)
    scaled = region.scaled(n)
    examined = discarded_geom = discarded_iv = depth_used = 0
    kept: list[Cell] = []
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        i, j, d = stack.pop()
        examined += 1
        depth_used = max(depth_used, d)
        w = h << (depth - d)
        bx, by = sx + i * w, sy + j * w
        if not box_intersects_closure(scaled, (bx, by, bx + w, by + w)):
            discarded_geom += 1
            continue
        bi = ((_lower(bx, n), _upper(bx + w, n)), (_lower(by, n), _upper(by + w, n)))
        if not all(iv.contains_zero(s.eval_interval(*bi)) for s in scalars):
            discarded_iv += 1
            continue
        if d == depth:
            kept.append((i, j))
            continue
        if d >= max_depth:
            raise DepthLimitExceeded(
                f"resolution {resolution} unreachable within depth {max_depth}"
            )
        i, j, d = 2 * i, 2 * j, d + 1
        stack += [(i, j, d), (i + 1, j, d), (i, j + 1, d), (i + 1, j + 1, d)]
    kept.sort()
    return ZeroEnclosure(kept, grid, resolution, region, examined,
                         discarded_geom, discarded_iv, depth_used)


def zero_enclosure(field: PlanarField, region: Region, resolution,
                   max_depth: int | None = None) -> ZeroEnclosure:
    return zero_enclosure_scalars([field.p, field.q], region, resolution, max_depth)


# boundary margins ------------------------------------------------------------

_INITIAL_ARCS = 16
_LEAF_BUDGET = 40000


def _curve_min_norm_sq(field, curve, tol: float, max_depth: int):
    """Certified lower bound of |X|^2 over the curve, or None."""
    min_width = 0.5 ** max_depth

    def norm_sq_interval(t0, t1):
        ix, iy = curve.box_of(t0, t1)
        p_iv = field.p.eval_interval(ix, iy)
        q_iv = field.q.eval_interval(ix, iy)
        return iv.add(iv.sqr(p_iv), iv.sqr(q_iv))

    def sample_sq(t):
        vx, vy = field.eval_float(*curve.point(t))
        return vx * vx + vy * vy

    emp = math.inf
    heap = []
    for i in range(_INITIAL_ARCS):
        t0, t1 = i / _INITIAL_ARCS, (i + 1) / _INITIAL_ARCS
        lo, _ = norm_sq_interval(t0, t1)
        emp = min(emp, sample_sq(0.5 * (t0 + t1)))
        heapq.heappush(heap, (lo, t0, t1))
    splits = 0
    while True:
        lo, t0, t1 = heap[0]
        if lo > 0.0 and lo >= (1.0 - tol) ** 2 * emp:
            return lo
        if (t1 - t0) < min_width or splits >= _LEAF_BUDGET:
            return lo if lo > 0.0 else None
        heapq.heappop(heap)
        tm = 0.5 * (t0 + t1)
        for a, b in ((t0, tm), (tm, t1)):
            child_lo, _ = norm_sq_interval(a, b)
            emp = min(emp, sample_sq(0.5 * (a + b)))
            heapq.heappush(heap, (child_lo, a, b))
        splits += 1


def min_norm_on_boundary(field: PlanarField, region: Region, tol=None,
                         max_depth: int | None = None):
    """Certified positive lower bound for |X| on the boundary of U, as an exact
    rational, or None when the bound is inconclusive (e.g. a boundary zero)."""
    require_planar_boundary(region, "min_norm_on_boundary")
    if tol is None:
        tol = DEFAULTS.margin_tol
    tol = float(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_depth is None:
        max_depth = default_max_depth()
    worst = math.inf
    for curve in region.boundary_curves():
        lo = _curve_min_norm_sq(field, curve, tol, max_depth)
        if lo is None:
            return None
        worst = min(worst, lo)
    return Fraction(iv.sqrt_lower(worst))


@dataclass
class Block:
    """A certified isolating neighborhood: positive boundary margin plus a zero
    enclosure at positive distance from the frontier."""

    field: PlanarField
    region: Region
    enclosure: ZeroEnclosure
    boundary_margin: Fraction

    def to_json(self) -> dict:
        return {
            "region": self.region.to_json(),
            "boundary_margin": _frac_str(self.boundary_margin),
            "enclosure": self.enclosure.to_json(),
        }


def certify_block(field: PlanarField, region: Region, resolution=None,
                  tol=None, max_depth: int | None = None) -> Block:
    """Certify that U is isolating for the field and enclose K = Z(X) n cl(U)."""
    if region.kind == TORUS_FULL:
        require_planar_boundary(region, "certify_block")
    if resolution is None:
        resolution = DEFAULTS.default_resolution
    resolution = _frac(resolution)
    margin = min_norm_on_boundary(field, region, tol, max_depth)
    if margin is None or margin <= 0:
        raise BoundaryZero("no positive boundary margin could be certified")
    enclosure = zero_enclosure(field, region, resolution, max_depth)
    _check_collar(enclosure)
    return Block(field, region, enclosure, margin)


def _check_collar(enclosure: ZeroEnclosure):
    region = enclosure.region
    collar = DEFAULTS.collar_factor * enclosure.resolution
    n, boxes = enclosure.grid.scaled_boxes(enclosure.cells, *region.params, collar)
    scaled, collar = region.scaled(n), int(collar * n)
    for box in boxes:
        if not box_clears_boundary(scaled, box, collar):
            raise CertificationFailed(
                "enclosure box touches the boundary collar; refine the resolution"
            )


def restrict_block(parent: Block, sub_region: Region, tol=None,
                   max_depth: int | None = None) -> Block:
    """A block for a sub-region of an already certified block: the parent's
    enclosure boxes restricted to the sub-region stay a valid outer enclosure,
    so only the boundary margin needs fresh certification."""
    margin = min_norm_on_boundary(parent.field, sub_region, tol, max_depth)
    if margin is None or margin <= 0:
        raise BoundaryZero("no positive boundary margin on the sub-region")
    enc = parent.enclosure
    n, boxes = enc.grid.scaled_boxes(enc.cells, *sub_region.params)
    scaled = sub_region.scaled(n)
    cells = [c for c, b in zip(enc.cells, boxes) if box_intersects_closure(scaled, b)]
    enclosure = ZeroEnclosure(cells, enc.grid, enc.resolution, sub_region)
    _check_collar(enclosure)
    return Block(parent.field, sub_region, enclosure, margin)


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


def components(enclosure: ZeroEnclosure) -> list[Component]:
    """Edge-adjacency connected clusters of enclosure cells (wrapping around
    on the torus), each with a heuristic (non-certified) loop-like flag."""
    cells = set(enclosure.cells)
    wrap = enclosure.region.kind == TORUS_FULL
    m = 1 << enclosure.grid.depth

    def neighbors(c):
        ci, cj = c
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = ((ci + di) % m, (cj + dj) % m) if wrap else (ci + di, cj + dj)
            if nb in cells:
                yield nb

    seen = set()
    out = []
    for start in sorted(cells):
        if start in seen:
            continue
        todo = [start]
        cluster = []
        seen.add(start)
        while todo:
            c = todo.pop()
            cluster.append(c)
            for nb in neighbors(c):
                if nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        cluster.sort()
        lo = enclosure.grid.box((cluster[0][0], min(j for _, j in cluster)))
        hi = enclosure.grid.box((cluster[-1][0], max(j for _, j in cluster)))
        out.append(Component(cluster, lo[:2] + hi[2:], _has_hole(set(cluster))))
    return out


def _has_hole(cluster: set[tuple[int, int]]) -> bool:
    """Flood the complement of the cluster inside its padded bounding box;
    an unreachable complement cell means the union of boxes encircles a hole."""
    is_ = [c[0] for c in cluster]
    js = [c[1] for c in cluster]
    i0, i1 = min(is_) - 1, max(is_) + 1
    j0, j1 = min(js) - 1, max(js) + 1
    start = (i0, j0)
    seen = {start}
    todo = [start]
    while todo:
        ci, cj = todo.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (ci + di, cj + dj)
            if (i0 <= nb[0] <= i1 and j0 <= nb[1] <= j1
                    and nb not in seen and nb not in cluster):
                seen.add(nb)
                todo.append(nb)
    total = (i1 - i0 + 1) * (j1 - j0 + 1)
    return len(seen) + len(cluster) < total
