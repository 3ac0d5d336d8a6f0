"""Regions with oriented boundaries and exact box/region geometry.

Conventions: outer boundary components run counterclockwise, inner ones
clockwise, so the region always lies to the left of its boundary.  All region
parameters are exact rationals.  The box predicates used by the subdivision
machinery are exact: they take rational boxes, or integer corners together
with `Region.scaled(n)` for an n that clears every denominator, in which case
they never leave integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import interval as iv
from . import upoly
from .errors import UnsupportedRegion
from .poly import _frac, _frac_str

DISK = "disk"
ANNULUS = "annulus"
RECT = "rect"
TORUS_FULL = "torus"


@dataclass(frozen=True)
class Region:
    kind: str
    center: tuple[Fraction, Fraction] | None = None
    r: Fraction | None = None
    r_in: Fraction | None = None
    r_out: Fraction | None = None
    corners: tuple[Fraction, Fraction, Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.kind == DISK:
            if self.r is None or self.r <= 0:
                raise ValueError("disk needs 0 < r")
        elif self.kind == ANNULUS:
            if self.r_in is None or self.r_out is None or not 0 < self.r_in < self.r_out:
                raise ValueError("annulus needs 0 < r_in < r_out")
        elif self.kind == RECT:
            x0, y0, x1, y1 = self.corners
            if not (x0 < x1 and y0 < y1):
                raise ValueError("rectangle needs corners x0 < x1 and y0 < y1")
        elif self.kind != TORUS_FULL:
            raise ValueError(f"unknown region kind {self.kind!r}")

    # geometry -------------------------------------------------------------

    @property
    def params(self) -> tuple:
        """Every exact number the region is built from."""
        return (*(self.center or ()), *(self.corners or ()),
                *(v for v in (self.r, self.r_in, self.r_out) if v is not None))

    def scaled(self, n: int) -> "Region":
        """The image of the region under (x, y) -> (n x, n y); parameters that
        n makes integral become ints."""
        def s(v):
            if isinstance(v, tuple):
                return tuple(map(s, v))
            v = v * n
            return v.numerator if v.denominator == 1 else v
        return replace(self, **{f: s(getattr(self, f)) for f in
                                ("center", "r", "r_in", "r_out", "corners")
                                if getattr(self, f) is not None})

    def bounding_box(self):
        if self.kind == DISK:
            cx, cy = self.center
            return (cx - self.r, cy - self.r, cx + self.r, cy + self.r)
        if self.kind == ANNULUS:
            cx, cy = self.center
            return (cx - self.r_out, cy - self.r_out, cx + self.r_out, cy + self.r_out)
        if self.kind == RECT:
            return self.corners
        return (Fraction(0), Fraction(0), Fraction(1), Fraction(1))

    def contains_point_closed(self, point) -> bool:
        x, y = _frac(point[0]), _frac(point[1])
        if self.kind == DISK:
            cx, cy = self.center
            return (x - cx) ** 2 + (y - cy) ** 2 <= self.r ** 2
        if self.kind == ANNULUS:
            cx, cy = self.center
            d = (x - cx) ** 2 + (y - cy) ** 2
            return self.r_in ** 2 <= d <= self.r_out ** 2
        if self.kind == RECT:
            x0, y0, x1, y1 = self.corners
            return x0 <= x <= x1 and y0 <= y <= y1
        return True

    @lru_cache(maxsize=1)
    def boundary_curves(self) -> tuple:
        """The boundary curves, outer first, memoised for the last region
        asked (one entry, so one region's arc tables stay alive at a time):
        every pass over an equal region shares their arc boxes and axis
        tables (`tables_of`)."""
        if self.kind == DISK:
            return (Circle(self.center, self.r, ccw=True),)
        if self.kind == ANNULUS:
            return (Circle(self.center, self.r_out, ccw=True),
                    Circle(self.center, self.r_in, ccw=False))
        if self.kind == RECT:
            return (RectLoop(self.corners),)
        return ()

    def to_json(self) -> dict:
        if self.kind == DISK:
            return {"type": "disk", "center": [_frac_str(c) for c in self.center],
                    "r": _frac_str(self.r)}
        if self.kind == ANNULUS:
            return {"type": "annulus", "center": [_frac_str(c) for c in self.center],
                    "r_in": _frac_str(self.r_in), "r_out": _frac_str(self.r_out)}
        if self.kind == RECT:
            x0, y0, x1, y1 = self.corners
            return {"type": "rect",
                    "corners": [[_frac_str(x0), _frac_str(y0)],
                                [_frac_str(x1), _frac_str(y1)]]}
        return {"type": "torus"}

    @classmethod
    def from_json(cls, data) -> "Region":
        t = data["type"]
        if t == "disk":
            return disk(tuple(Fraction(c) for c in data["center"]), Fraction(data["r"]))
        if t == "annulus":
            return annulus(tuple(Fraction(c) for c in data["center"]),
                           Fraction(data["r_in"]), Fraction(data["r_out"]))
        if t == "rect":
            (x0, y0), (x1, y1) = data["corners"]
            return rectangle(Fraction(x0), Fraction(y0), Fraction(x1), Fraction(y1))
        if t == "torus":
            return torus_full()
        raise ValueError(f"unknown region type {t!r}")


def disk(center, r) -> Region:
    return Region(DISK, (_frac(center[0]), _frac(center[1])), r=_frac(r))


def annulus(center, r_in, r_out) -> Region:
    return Region(ANNULUS, (_frac(center[0]), _frac(center[1])),
                  r_in=_frac(r_in), r_out=_frac(r_out))


def rectangle(x0, y0, x1, y1) -> Region:
    return Region(RECT, corners=(_frac(x0), _frac(y0), _frac(x1), _frac(y1)))


def torus_full() -> Region:
    return Region(TORUS_FULL)


# exact box predicates ------------------------------------------------------

def box_min_dist_sq(box, c) -> Fraction:
    x0, y0, x1, y1 = box
    cx, cy = c
    dx = max(x0 - cx, cx - x1, 0)
    dy = max(y0 - cy, cy - y1, 0)
    return dx * dx + dy * dy


def box_max_dist_sq(box, c) -> Fraction:
    x0, y0, x1, y1 = box
    cx, cy = c
    dx = max(abs(x0 - cx), abs(x1 - cx))
    dy = max(abs(y0 - cy), abs(y1 - cy))
    return dx * dx + dy * dy


def box_intersects_closure(region: Region, box) -> bool:
    if region.kind == DISK:
        return box_min_dist_sq(box, region.center) <= region.r ** 2
    if region.kind == ANNULUS:
        return (box_min_dist_sq(box, region.center) <= region.r_out ** 2
                and box_max_dist_sq(box, region.center) >= region.r_in ** 2)
    if region.kind == RECT:
        x0, y0, x1, y1 = region.corners
        bx0, by0, bx1, by1 = box
        return bx0 <= x1 and x0 <= bx1 and by0 <= y1 and y0 <= by1
    return True


def box_clears_boundary(region: Region, box, collar: Fraction) -> bool:
    """Is the box inside the region, at distance >= collar from its frontier?"""
    if region.kind == DISK:
        if region.r <= collar:
            return False
        return box_max_dist_sq(box, region.center) <= (region.r - collar) ** 2
    if region.kind == ANNULUS:
        if region.r_out - region.r_in <= 2 * collar:
            return False
        return (box_max_dist_sq(box, region.center) <= (region.r_out - collar) ** 2
                and box_min_dist_sq(box, region.center) >= (region.r_in + collar) ** 2)
    if region.kind == RECT:
        x0, y0, x1, y1 = region.corners
        bx0, by0, bx1, by1 = box
        return (bx0 >= x0 + collar and bx1 <= x1 - collar
                and by0 >= y0 + collar and by1 <= y1 - collar)
    return True  # the torus has no frontier


def disk_like_within(sub: Region, region: Region) -> bool:
    """Is closure(sub), a disk or an annulus, inside closure(region)?  Exact:
    sub's outer disk lies within region's outer boundary, and the hole of an
    annulus region misses sub or lies in sub's own hole."""
    (cx, cy), r = sub.center, sub.r if sub.kind == DISK else sub.r_out
    if region.kind == RECT:
        x0, y0, x1, y1 = region.corners
        return x0 + r <= cx <= x1 - r and y0 + r <= cy <= y1 - r
    (ux, uy), outer = region.center, region.r if region.kind == DISK else region.r_out
    d_sq = (cx - ux) ** 2 + (cy - uy) ** 2
    if r > outer or d_sq > (outer - r) ** 2:
        return False
    hole, lo = region.r_in, sub.r_in or 0
    return (region.kind == DISK or d_sq >= (r + hole) ** 2
            or hole <= lo and d_sq <= (lo - hole) ** 2)


# boundary curves -------------------------------------------------------------


class _Curve:
    """A closed boundary curve parametrized over t in [0, 1).  `box_of(t0, t1)`
    encloses the arc [t0, t1] in an interval box.  `tables_of` memoises that
    box, next to its x and y axis tables for one ring's `axis_table`
    builder, per curve object on the exact float pair and the builder: every
    pass over the curves that `Region.boundary_curves` memoises, for any
    field of the ring, shares them, and they are freed with them.
    `pieces()` is the curve's one exact form: pieces (x, y, w) of ascending
    coefficient lists, whose point at t is (x(t) / w(t), y(t) / w(t))
    (`piece_point`)."""

    def __init__(self):
        self._tables = {}

    def tables_of(self, t0: float, t1: float, build, nx: int, ny: int):
        """(ix, iy, (build(ix, >= nx), build(iy, >= ny))) for the arc's box,
        the tables as tuples, which every caller shares.  The longest tables
        asked for so far are kept; entry k of a table does not depend on its
        length, so every caller reads fresh tables' bits.  Float-pair keys and
        tuples of floats drop out of the cyclic collector's tracking once it
        has passed over them, so kept tables add little collection work."""
        memo = self._tables.get(build)
        if memo is None:
            memo = self._tables[build] = {}
        found = memo.get((t0, t1))
        if found is None:
            ix, iy = self.box_of(t0, t1)
        elif len(found[2][0]) > nx and len(found[2][1]) > ny:
            return found
        else:
            ix, iy, (xt, yt) = found
            nx, ny = max(nx, len(xt) - 1), max(ny, len(yt) - 1)
        found = memo[(t0, t1)] = (ix, iy, (tuple(build(ix, nx)), tuple(build(iy, ny))))
        return found


class Circle(_Curve):
    """Circle parametrized over t in [0, 1); ccw=False reverses orientation."""

    def __init__(self, center, r, ccw: bool):
        super().__init__()
        self.center = (_frac(center[0]), _frac(center[1]))
        self.r = _frac(r)
        self.ccw = ccw
        self._cf = (float(self.center[0]), float(self.center[1]))
        self._rf = float(self.r)
        self._iv = (iv.make(self.center[0]), iv.make(self.center[1]), iv.make(self.r))

    def point(self, t: float) -> tuple[float, float]:
        theta = 2.0 * math.pi * t * (1.0 if self.ccw else -1.0)
        return (self._cf[0] + self._rf * math.cos(theta),
                self._cf[1] + self._rf * math.sin(theta))

    def box_of(self, t0: float, t1: float):
        sign = 1.0 if self.ccw else -1.0
        a = iv.mul(iv.TWO_PI, (min(sign * t0, sign * t1), max(sign * t0, sign * t1)))
        cx, cy, rr = self._iv
        ix = iv.add(cx, iv.mul(rr, iv.cos_iv(a)))
        iy = iv.add(cy, iv.mul(rr, iv.sin_iv(a)))
        return ix, iy

    def length_upper(self) -> float:
        return iv.up(2.0 * math.pi * self._rf * (1.0 + 1e-12))

    def pieces(self):
        """The one exact piece, the half-angle form: its point at t is the
        point at angle 2 arctan(t), counterclockwise whatever `ccw` says.  It
        covers every point but (cx - r, cy), the limit as t -> +-infinity."""
        (cx, cy), r = self.center, self.r
        return [([cx + r, 0, cx - r], [cy, 2 * r, cy], [1, 0, 1])]


class RectLoop(_Curve):
    """Counterclockwise rectangle boundary, arc-length parametrized on [0, 1)."""

    def __init__(self, corners):
        super().__init__()
        self.corners = tuple(_frac(c) for c in corners)
        x0, y0, x1, y1 = self.corners
        self.vertices = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        self._edges = [([ax, bx - ax], [ay, by - ay], [1]) for (ax, ay), (bx, by)
                       in zip(self.vertices, self.vertices[1:] + self.vertices[:1])]
        # in integers, times L, the lcm of the corners' denominators: edge e runs
        # from vertex e in direction (dx, dy) over the arc lengths (start, end]
        self._scale = math.lcm(*(c.denominator for c in self.corners))
        ix0, iy0, ix1, iy1 = (int(c * self._scale) for c in self.corners)
        w, h = ix1 - ix0, iy1 - iy0
        self._int_edges = [(ix0, iy0, 1, 0, 0, w), (ix1, iy0, 0, 1, w, w + h),
                           (ix1, iy1, -1, 0, w + h, 2 * w + h),
                           (ix0, iy1, 0, -1, 2 * w + h, 2 * (w + h))]
        self.breaks = [Fraction(edge[-1], 2 * (w + h)) for edge in self._int_edges]

    def _locate(self, t: float):
        t = t % 1.0
        prev = 0.0
        for e, b in enumerate(self.breaks):
            bf = float(b)
            if t <= bf or e == 3:
                span = bf - prev
                local = 0.0 if span == 0 else (t - prev) / span
                return e, min(max(local, 0.0), 1.0)
            prev = bf
        raise AssertionError

    def point(self, t: float) -> tuple[float, float]:
        e, local = self._locate(t)
        a = self.vertices[e]
        b = self.vertices[(e + 1) % 4]
        ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
        return (ax + (bx - ax) * local, ay + (by - ay) * local)

    def pieces(self):
        """One piece per edge, counterclockwise from (x0, y0): the edge from
        vertex a to vertex b is a + t (b - a) for t in [0, 1]."""
        return self._edges

    def box_of(self, t0: float, t1: float):
        """Enclosure of the exact points with parameter in [t0, t1]: its
        endpoints and the vertices strictly between them.  With t = m / e and
        E the larger e (powers of two), each is an integer pair over L E, so
        each bound is `iv.ratio`, the bits of `iv.make` of the rational."""
        (m0, e0), (m1, e1) = t0.as_integer_ratio(), t1.as_integer_ratio()
        e = max(e0, e1)
        perimeter = self._int_edges[-1][-1]
        s0, s1 = m0 * (e // e0) * perimeter, m1 * (e // e1) * perimeter
        if not 0 <= s0 <= s1 <= perimeter * e:
            raise ValueError(f"arc [{t0}, {t1}] outside [0, 1]")
        xs, ys = [], []
        for x, y, dx, dy, start, end in self._int_edges:
            start, end = start * e, end * e
            at = [s for s in (s0, s1) if start < s <= end or s == start == 0]
            if s0 < end < s1:
                at.append(end)
            xs += [x * e + dx * (s - start) for s in at]
            ys += [y * e + dy * (s - start) for s in at]
        n = self._scale * e
        return ((iv.ratio(min(xs), n)[0], iv.ratio(max(xs), n)[1]),
                (iv.ratio(min(ys), n)[0], iv.ratio(max(ys), n)[1]))

def piece_point(piece, t: Fraction) -> tuple[Fraction, Fraction]:
    """The exact point (x(t) / w(t), y(t) / w(t)) of a curve piece (x, y, w)."""
    x, y, w = (upoly.evaluate(c, t) for c in piece)
    return x / w, y / w


def require_planar_boundary(region: Region, op: str):
    if region.kind == TORUS_FULL:
        raise UnsupportedRegion(
            f"{op} needs a boundary; the full torus has none "
            "(use disk sub-regions in the fundamental domain)"
        )
