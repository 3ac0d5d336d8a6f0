"""Line fields: y-power factorizations and flowbox line fields.

A line field stores a unit representative defined up to sign; all comparisons
go through the mod-pi angular distance, so no global angle chart is needed.
In a flowbox chart the direction of X is divided by sign(s)^l, which makes the
representative itself continuous across the axis s = 0 for every parity of l
(for odd l it agrees with the sign(s) convention up to sign, i.e. as a line
field).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import upoly
from .errors import FactorVanishes
from .fields import PlanarField
from .flows import Flowbox
from .poly import _frac, restrict


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


# below this |s| the chart direction is a symmetric difference quotient
_S_EPS = 1e-4


def flowbox_line_field(fb: Flowbox, x_field: PlanarField, l: int):
    """Numeric controlling line field in a flowbox: divide the pushforward of X
    by s^l, extend across the axis via symmetric difference quotients, and pull
    the direction back through the chart frame.

    Returns the pair (line, chart_dir): line(x, y) is the unit representative
    at a point of the window (ValueError outside it), chart_dir(t, s) the unit
    direction in chart coordinates."""
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

    def line(px: float, py: float):
        ts = fb.inverse((px, py))
        if ts is None:
            raise ValueError(f"point {(px, py)} is outside the flowbox window")
        t, s = ts
        d = chart_dir(t, s)
        _, ycol, vcol = fb.frame(t, s)
        return _unit((ycol[0] * d[0] + vcol[0] * d[1],
                      ycol[1] * d[0] + vcol[1] * d[1]))

    return line, chart_dir
