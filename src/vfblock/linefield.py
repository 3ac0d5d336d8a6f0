"""Line fields: y-power factorizations, axis extensions and control checks.

A line field stores a unit representative defined up to sign; all comparisons
go through the mod-pi angular distance, so no global angle chart is needed.
The extension across the zero axis uses the sign(y)^l adjustment, which makes
the representative itself continuous for every parity of l (for odd l it
agrees with the sign(y) convention up to sign, i.e. as a line field).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import upoly
from .errors import FactorVanishes
from .fields import PlanarField
from .flows import Flowbox
from .poly import _frac, restrict
from .regions import RECT, Region


def angle_mod_pi(u, v) -> float:
    """Angular distance between the lines spanned by u and v, in [0, pi/2]."""
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle of a zero vector")
    c = abs(u[0] * v[0] + u[1] * v[1]) / (nu * nv)
    return math.acos(min(1.0, c))


def _unit(v):
    n = math.hypot(*v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return (v[0] / n, v[1] / n)


@dataclass
class LineFieldRep:
    """Unoriented direction field: a unit-vector evaluator defined up to sign."""

    evaluate: object
    domain: object = None
    meta: dict = dc_field(default_factory=dict)

    def __call__(self, x: float, y: float):
        return self.evaluate(x, y)


_X_AXIS = ([0, 1], [0], [1])     # the curve piece (t, 0)


def factor_y_power(f_pair, l: int, x_interval=(-1, 1)):
    """Exact factorization F = y^l * g with g(x, 0) certified nonvanishing on
    the closed x-interval.  Raises InsufficientPower when some monomial has a
    smaller y-exponent, FactorVanishes when g(x, 0) has a zero in the interval.

    The decision is exact: g(x, 0) vanishes at x exactly when x is a real root
    of the gcd of its two components, and a rational root search, a Sturm
    count and an endpoint test settle whether such a root lies in [a, b]."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if isinstance(f_pair, PlanarField):
        f1, f2 = f_pair.p, f_pair.q
    else:
        f1, f2 = f_pair
    g1 = f1.divide_y_power(l)
    g2 = f2.divide_y_power(l)
    a, b = _frac(x_interval[0]), _frac(x_interval[1])
    gx1, gx2 = restrict(g1, *_X_AXIS), restrict(g2, *_X_AXIS)
    if upoly.is_zero(gx1) and upoly.is_zero(gx2):
        raise FactorVanishes("g(x, 0) is identically (0, 0)", witness=a)
    _decide_factor_vanishes(gx1, gx2, a, b)
    return g1, g2


def _decide_factor_vanishes(gx1, gx2, a: Fraction, b: Fraction):
    """A common real root of the axis restrictions inside [a, b] proves
    FactorVanishes; the witness is a rational root when one exists."""
    if upoly.is_zero(gx1):
        common = list(gx2)
    elif upoly.is_zero(gx2):
        common = list(gx1)
    else:
        common = upoly.gcd(gx1, gx2)
    if upoly.deg(common) < 1:
        return
    witness = None
    for root, _ in upoly.rational_roots(common):
        if a <= root <= b:
            witness = root
            break
    count = upoly.count_real_roots(common, a, b)
    at_a = upoly.evaluate(common, a) == 0
    if witness is not None or count > 0 or at_a:
        raise FactorVanishes(
            f"g(x, 0) vanishes inside [{a}, {b}]", witness=witness if witness is not None else (a if at_a else None)
        )


def extend_line_field(f_pair, l: int, region: Region) -> LineFieldRep:
    """The unique continuous line field extending F/|F| across {y = 0}: off the
    axis the representative is sign(y)^l F/|F|, on the axis g(x,0)/|g(x,0)|."""
    if region.kind != RECT:
        raise ValueError("extend_line_field expects a rectangle region")
    x0, _, x1, _ = region.corners
    g1, g2 = factor_y_power(f_pair, l, (x0, x1))
    if isinstance(f_pair, PlanarField):
        f1, f2 = f_pair.p, f_pair.q
    else:
        f1, f2 = f_pair

    def rep(px: float, py: float):
        if abs(py) > 1e-9:
            sgn = 1.0 if (py > 0 or l % 2 == 0) else -1.0
            return _unit((sgn * f1.eval_float(px, py), sgn * f2.eval_float(px, py)))
        return _unit((g1.eval_float(px, 0.0), g2.eval_float(px, 0.0)))

    lam = LineFieldRep(rep, domain=region)
    lam.meta["factor"] = (g1, g2)
    lam.meta["continuity"] = _continuity_jumps(lam, region, (4, 5, 6))
    return lam


def _continuity_jumps(lam: LineFieldRep, region: Region, levels) -> list[float]:
    """Max mod-pi angular jump between adjacent grid samples per refinement
    level; grid points where the representative is undefined (off-axis zeros
    of F) are skipped."""
    x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
    out = []
    for level in levels:
        n = 1 << level
        worst = 0.0
        prev_row = None
        for j in range(n + 1):
            row = []
            py = y0 + (y1 - y0) * j / n
            for i in range(n + 1):
                px = x0 + (x1 - x0) * i / n
                try:
                    row.append(lam(px, py))
                except ValueError:
                    row.append(None)
            for u, v in zip(row, row[1:]):
                if u is not None and v is not None:
                    worst = max(worst, angle_mod_pi(u, v))
            if prev_row is not None:
                for u, v in zip(prev_row, row):
                    if u is not None and v is not None:
                        worst = max(worst, angle_mod_pi(u, v))
            prev_row = row
        out.append(worst)
    return out


def direction_grid(lam: LineFieldRep, region: Region, n: int = 16) -> dict:
    """Sampled direction grid for JSON export and SVG plotting: entries are
    [x, y, ux, uy]; grid points where the representative is undefined or the
    domain test fails are skipped."""
    x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
    samples = []
    for j in range(n + 1):
        py = y0 + (y1 - y0) * j / n
        for i in range(n + 1):
            px = x0 + (x1 - x0) * i / n
            if lam.domain is not None and hasattr(lam.domain, "contains") \
                    and not lam.domain.contains((px, py)):
                continue
            try:
                ux, uy = lam(px, py)
            except ValueError:
                continue
            samples.append([px, py, ux, uy])
    return {"grid": n, "region": region.to_json(), "directions": samples}


@dataclass(frozen=True)
class ControlsResult:
    max_deviation: float
    controls: bool
    n_used: int

    def to_json(self) -> dict:
        return {"max_deviation": self.max_deviation, "controls": self.controls,
                "n_used": self.n_used}


def controls_check(lam: LineFieldRep, x_field: PlanarField, region: Region,
                   tol: float, n_samples: int) -> ControlsResult:
    """Max mod-pi angle between X and the line field over sampled points of the
    region where |X| clears 1e-9; controls iff max < tol."""
    rng = random.Random(0)
    x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
    worst = 0.0
    used = 0
    attempts = 0
    while used < n_samples and attempts < 50 * n_samples:
        attempts += 1
        px = rng.uniform(x0, x1)
        py = rng.uniform(y0, y1)
        if not region.contains_point_closed(
                (Fraction(px).limit_denominator(1 << 30),
                 Fraction(py).limit_denominator(1 << 30))):
            continue
        if lam.domain is not None and hasattr(lam.domain, "contains") \
                and not lam.domain.contains((px, py)):
            continue
        vx, vy = x_field.eval_float(px, py)
        if math.hypot(vx, vy) <= 1e-9:
            continue
        used += 1
        worst = max(worst, angle_mod_pi((vx, vy), lam(px, py)))
    return ControlsResult(worst, worst < tol, used)


# below this |s| the chart direction is a symmetric difference quotient
_S_EPS = 1e-4


def flowbox_line_field(fb: Flowbox, x_field: PlanarField, l: int) -> LineFieldRep:
    """Numeric controlling line field in a flowbox: divide the pushforward of X
    by s^l, extend across the axis via symmetric difference quotients, and pull
    the direction back through the chart frame."""
    pushed = fb.pushforward(x_field)
    parity = 1.0 if l % 2 == 0 else -1.0

    def chart_dir(t: float, s: float):
        if abs(s) >= _S_EPS:
            a, b = pushed(t, s)
            sgn = 1.0 if (s > 0 or l % 2 == 0) else -1.0
            return _unit((sgn * a, sgn * b))
        scale = _S_EPS ** l
        ap, bp = pushed(t, _S_EPS)
        am, bm = pushed(t, -_S_EPS)
        return _unit(((ap + parity * am) / (2 * scale), (bp + parity * bm) / (2 * scale)))

    def rep(px: float, py: float):
        ts = fb.inverse((px, py))
        if ts is None:
            raise ValueError(f"point {(px, py)} is outside the flowbox window")
        t, s = ts
        d = chart_dir(t, s)
        _, ycol, vcol = fb.frame(t, s)
        return _unit((ycol[0] * d[0] + vcol[0] * d[1],
                      ycol[1] * d[0] + vcol[1] * d[1]))

    lam = LineFieldRep(rep, domain=fb)
    lam.meta["chart_dir"] = chart_dir
    lam.meta["order"] = l
    return lam
