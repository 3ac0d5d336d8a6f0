"""Interval arithmetic on double endpoints with outward rounding.

Intervals are plain ``(lo, hi)`` tuples; every operation widens its result by
one ulp per rounding step, so enclosures stay sound for certificates.  Trig
enclosures additionally pad endpoint evaluations by an absolute slop that
dominates libm's error.
"""

from __future__ import annotations

import math

_INF = math.inf
_next = math.nextafter
_TRIG_SLOP = 1e-12     # absolute pad on libm sin/cos results
_ARG_SLOP = 1e-9       # pad when locating trig extrema inside an argument range
_PERIOD = 2 * math.pi
_FULL_TURN = 2 * math.pi - 2 * _ARG_SLOP   # wider arguments cover every value
_HALF_PI = math.pi / 2

PI = (math.nextafter(math.pi, -_INF), math.nextafter(math.pi, _INF))
TWO_PI = (math.nextafter(2 * math.pi, -_INF), math.nextafter(2 * math.pi, _INF))


def down(x: float) -> float:
    return math.nextafter(x, -_INF)


def up(x: float) -> float:
    return math.nextafter(x, _INF)


def make(x) -> tuple[float, float]:
    """Enclose an exact number (int, Fraction or float) in a float interval.

    float(x) is correctly rounded, so it needs one ulp only on the side it
    rounded to; that side is read off in integers: f = p / q against
    x = a / n is p n against a q."""
    if isinstance(x, float):
        return (x, x)
    f = float(x)
    p, q = f.as_integer_ratio()
    pn, aq = p * x.denominator, x.numerator * q
    lo = f if pn <= aq else down(f)
    hi = f if pn >= aq else up(f)
    return (lo, hi)


def add(a, b):
    return (down(a[0] + b[0]), up(a[1] + b[1]))


def sub(a, b):
    return (down(a[0] - b[1]), up(a[1] - b[0]))


def mul4(a0: float, a1: float, b0: float, b1: float) -> tuple[float, float]:
    """[a0, a1] * [b0, b1], outward rounded; the endpoint products are chosen
    by the signs of the operands (Moore's nine cases).

    Rounding is monotone, so whenever no product of all four is NaN the
    chosen ones round to their min and max; only the sign of a zero can
    differ, and the outward step erases it.  A zero endpoint is multiplied
    by an infinite one (NaN) only when an operand is the point 0 or a point
    at infinity.
    """
    if a0 >= 0.0:
        if b0 >= 0.0:
            lo, hi = a0 * b0, a1 * b1
        elif b1 <= 0.0:
            lo, hi = a1 * b0, a0 * b1
        else:
            lo, hi = a1 * b0, a1 * b1
    elif a1 <= 0.0:
        if b0 >= 0.0:
            lo, hi = a0 * b1, a1 * b0
        elif b1 <= 0.0:
            lo, hi = a1 * b1, a0 * b0
        else:
            lo, hi = a0 * b1, a0 * b0
    elif b0 >= 0.0:
        lo, hi = a0 * b1, a1 * b1
    elif b1 <= 0.0:
        lo, hi = a1 * b0, a0 * b0
    else:
        lo, hi = min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1)
    return (_next(lo, -_INF), _next(hi, _INF))


def mul(a, b):
    return mul4(a[0], a[1], b[0], b[1])


def sqr(a):
    lo, hi = a
    if lo >= 0.0:
        return (down(lo * lo), up(hi * hi))
    if hi <= 0.0:
        return (down(hi * hi), up(lo * lo))
    m = max(-lo, hi)
    return (0.0, up(m * m))


def pow_int(a, n: int):
    """a**n by repeated outward-rounded multiplication; sign-aware for even n."""
    if n == 0:
        return (1.0, 1.0)
    if n == 1:
        return a
    if n % 2 == 0 and a[0] < 0.0 <= a[1]:
        m = max(-a[0], a[1])
        hi = 1.0
        for _ in range(n):
            hi = up(hi * m)
        return (0.0, hi)
    a0, a1 = a
    r = a
    for _ in range(n - 1):
        r = mul4(r[0], r[1], a0, a1)
    return r


def contains_zero(a) -> bool:
    """True unless the interval lies strictly on one side of 0; a NaN
    endpoint (an undefined bound) never excludes 0."""
    return not (a[0] > 0.0 or a[1] < 0.0)


def abs_upper(a) -> float:
    return max(-a[0], a[1], 0.0)


def _has_point_cong(lo: float, hi: float, base: float, period: float) -> bool:
    # is there an integer k with lo <= base + k*period <= hi, up to slop?
    k_min = math.ceil((lo - base - _ARG_SLOP) / period)
    k_max = math.floor((hi - base + _ARG_SLOP) / period)
    return k_min <= k_max


def sin_iv(a):
    lo, hi = a
    if hi - lo >= _FULL_TURN:
        return (-1.0, 1.0)
    v0, v1 = math.sin(lo), math.sin(hi)
    s_lo = min(v0, v1) - _TRIG_SLOP
    s_hi = max(v0, v1) + _TRIG_SLOP
    if _has_point_cong(lo, hi, _HALF_PI, _PERIOD):
        s_hi = 1.0
    if _has_point_cong(lo, hi, -_HALF_PI, _PERIOD):
        s_lo = -1.0
    return (max(s_lo, -1.0), min(s_hi, 1.0))


def cos_iv(a):
    lo, hi = a
    if hi - lo >= _FULL_TURN:
        return (-1.0, 1.0)
    v0, v1 = math.cos(lo), math.cos(hi)
    c_lo = min(v0, v1) - _TRIG_SLOP
    c_hi = max(v0, v1) + _TRIG_SLOP
    if _has_point_cong(lo, hi, 0.0, _PERIOD):
        c_hi = 1.0
    if _has_point_cong(lo, hi, math.pi, _PERIOD):
        c_lo = -1.0
    return (max(c_lo, -1.0), min(c_hi, 1.0))


def sqrt_lower(x: float) -> float:
    """A certified lower bound for sqrt(x), x >= 0."""
    if x <= 0.0:
        return 0.0
    r = down(math.sqrt(down(x)))
    return max(r, 0.0)
