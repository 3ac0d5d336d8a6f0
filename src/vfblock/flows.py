"""Adaptive flow integration and flowbox charts.

The integrator is a Dormand-Prince 5(4) embedded pair with standard step
control, its stages unrolled into the float operations of the plain tableau
loop, in the same order (see `integrate`).  Flowboxes rectify a field Y to
the constant horizontal field: the chart sends (t, s) to the time-t flow of
the point p + s * n, with n the unit normal to Y(p).  The s-derivative
column is integrated alongside through the exact variational equation, so
chart frames are cheap and accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import EscapeError, FoldDetected, StepUnderflow, ZeroAtBasePoint
from .fields import PlanarField
from .poly import _frac

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = _A[6]
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

DEFAULT_BBOX = (-1e3, -1e3, 1e3, 1e3)
_MAX_STEPS = 200000
_MAX_SHRINKS = 12
_MARGIN_GRID = 5


def integrate(f, y0, t_total: float, tol: float, bbox=DEFAULT_BBOX):
    """Integrate the autonomous system y' = f(y) from 0 to t_total.

    The seven stages are unrolled.  Stage i adds (hs * a_im) * k_m[d] to y[d]
    over the nonzero a_im, left to right, and each order sum adds b_m * k_m[d]
    to 0.0 left to right: the floats, in the order, of the tableau loop in
    tests/flow_reference.py (whose `sum()` adds left to right on Python 3.10
    and 3.11).  tests/test_flow_oracle.py compares the two by `repr` of every
    float and by every raised error."""
    if t_total == 0.0:
        return tuple(y0)
    y = tuple(float(v) for v in y0)
    direction = 1.0 if t_total > 0 else -1.0
    remaining = abs(t_total)
    h = min(0.1, remaining)
    h_min = 1e-14 * max(1.0, abs(t_total))
    elapsed = 0.0
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54) = _A[1:6]
    b0, _, b2, b3, b4, b5 = _B5
    e0, _, e2, e3, e4, e5, e6 = _B4
    for _ in range(_MAX_STEPS):
        if elapsed >= remaining - 1e-300:
            return y
        h = min(h, remaining - elapsed)
        if h < h_min and h < remaining - elapsed:   # shrunk by error control
            raise StepUnderflow(f"step collapsed to {h:g} at t={direction*elapsed:g}")
        hs = h * direction
        k0 = f(y)
        try:
            c0 = hs * a10
            k1 = f([u + c0 * p for u, p in zip(y, k0)])
            c0, c1 = hs * a20, hs * a21
            k2 = f([u + c0 * p + c1 * q for u, p, q in zip(y, k0, k1)])
            c0, c1, c2 = hs * a30, hs * a31, hs * a32
            k3 = f([u + c0 * p + c1 * q + c2 * r for u, p, q, r in zip(y, k0, k1, k2)])
            c0, c1, c2, c3 = hs * a40, hs * a41, hs * a42, hs * a43
            k4 = f([u + c0 * p + c1 * q + c2 * r + c3 * s
                    for u, p, q, r, s in zip(y, k0, k1, k2, k3)])
            c0, c1, c2, c3, c4 = hs * a50, hs * a51, hs * a52, hs * a53, hs * a54
            k5 = f([u + c0 * p + c1 * q + c2 * r + c3 * s + c4 * v
                    for u, p, q, r, s, v in zip(y, k0, k1, k2, k3, k4)])
            c0, c2, c3, c4, c5 = hs * b0, hs * b2, hs * b3, hs * b4, hs * b5
            k6 = f([u + c0 * p + c2 * r + c3 * s + c4 * v + c5 * w
                    for u, p, r, s, v, w in zip(y, k0, k2, k3, k4, k5)])
        except (OverflowError, ValueError):
            err = math.inf
        else:
            y5, err = [], 0.0
            for u, p, r, s, v, w, z in zip(y, k0, k2, k3, k4, k5, k6):
                acc5 = 0.0 + b0 * p + b2 * r + b3 * s + b4 * v + b5 * w
                acc4 = 0.0 + e0 * p + e2 * r + e3 * s + e4 * v + e5 * w + e6 * z
                y5.append(u + hs * acc5)
                scale = tol + tol * max(abs(u), abs(y5[-1]))
                err += ((hs * (acc5 - acc4)) / scale) ** 2
            err = math.sqrt(err / len(y))
        if err <= 1.0:
            elapsed += h
            y = tuple(y5)
            if bbox is not None and not (
                bbox[0] <= y[0] <= bbox[2] and bbox[1] <= y[1] <= bbox[3]
            ):
                raise EscapeError(f"trajectory left the bounding box at {y[:2]}")
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2) if math.isfinite(err) else 0.2
        h *= factor
    raise StepUnderflow("integrator exceeded its step budget")


def field_rhs(field: PlanarField):
    evalf = field.eval_float

    def rhs(y):
        return evalf(y[0], y[1])

    return rhs


def variational_rhs(field: PlanarField):
    """RHS of the flow plus its derivative along one transported vector."""
    evaluate = field.jacobian_plan

    def rhs(y):
        x0, x1, v0, v1 = y
        f0, f1, a, b, c, d = evaluate(x0, x1)
        return (f0, f1, a * v0 + b * v1, c * v0 + d * v1)

    return rhs


def flow_integrate(field: PlanarField, point, t: float, tol: float = 1e-10,
                   bbox=DEFAULT_BBOX):
    """The time-t flow of the field applied to the point."""
    p = (float(point[0]), float(point[1]))
    return integrate(field_rhs(field), p, float(t), tol, bbox)


@dataclass
class Flowbox:
    """Chart (t, s) -> flow_t(p + s*n) rectifying the field to (1, 0)."""

    field: PlanarField
    base: tuple[float, float]
    direction: tuple[float, float]
    normal: tuple[float, float]
    half_length: float
    time_window: float
    tol: float
    injectivity_margin: float = 0.0
    _rhs: object = dc_field(default=None, repr=False)
    _frames: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._rhs = variational_rhs(self.field)

    def _transversal(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.normal[0], self.base[1] + s * self.normal[1])

    def frame(self, t: float, s: float):
        """Chart point plus the columns of the chart differential:
        (point, Y(point), v) with v the transported transversal direction.
        Memoised per chart on the exact (t, s); errors are not cached."""
        found = self._frames.get((t, s))
        if found is not None:
            return found
        x0, y0 = self._transversal(s)
        if t == 0.0:
            pt = (x0, y0)
            v = self.normal
        else:
            x, y, vx, vy = integrate(self._rhs, (x0, y0, *self.normal), t, self.tol,
                                     bbox=None)
            pt = (x, y)
            v = (vx, vy)
        found = self._frames[(t, s)] = (pt, self.field.eval_float(*pt), v)
        return found

    def forward(self, t: float, s: float) -> tuple[float, float]:
        return self.frame(t, s)[0]

    def pushforward(self, other: PlanarField):
        """Evaluator of the chart coordinates of another field: solves
        [Y(pt) | v] * (a, b) = other(pt)."""

        def pushed(t: float, s: float) -> tuple[float, float]:
            pt, ycol, vcol = self.frame(t, s)
            wx, wy = other.eval_float(*pt)
            det = ycol[0] * vcol[1] - ycol[1] * vcol[0]
            a = (wx * vcol[1] - wy * vcol[0]) / det
            b = (ycol[0] * wy - ycol[1] * wx) / det
            return (a, b)

        return pushed

    def inverse(self, q):
        """Chart coordinates of a nearby point, or None when Newton leaves the
        (slightly padded) window or fails to converge."""
        dx = (q[0] - self.base[0], q[1] - self.base[1])
        t = dx[0] * self.direction[0] + dx[1] * self.direction[1]
        speed = math.hypot(*self.field.eval_float(*self.base))
        t /= max(speed, 1e-12)
        s = dx[0] * self.normal[0] + dx[1] * self.normal[1]
        scale = 1.0 + math.hypot(*q)
        for _ in range(40):
            if abs(t) > 1.5 * self.time_window or abs(s) > 1.5 * self.half_length:
                return None
            pt, ycol, vcol = self.frame(t, s)
            rx, ry = pt[0] - q[0], pt[1] - q[1]
            if math.hypot(rx, ry) < 1e-11 * scale:
                if abs(t) <= 1.0000001 * self.time_window and \
                        abs(s) <= 1.0000001 * self.half_length:
                    return (t, s)
                return None
            det = ycol[0] * vcol[1] - ycol[1] * vcol[0]
            if det == 0.0:
                return None
            t -= (rx * vcol[1] - ry * vcol[0]) / det
            s -= (ycol[0] * ry - ycol[1] * rx) / det
        return None

    def contains(self, q) -> bool:
        return self.inverse(q) is not None


def flowbox_build(field: PlanarField, point, half_length, time_window,
                  tol: float = 1e-10) -> Flowbox:
    """Construct a flowbox for the field at a nonzero base point, shrinking the
    window until the chart frame keeps a transversality margin."""
    p = (float(point[0]), float(point[1]))
    vx, vy = field.eval_float(*p)
    speed = math.hypot(vx, vy)
    if speed < 1e-12:
        raise ZeroAtBasePoint(f"field vanishes at base point {point}")
    direction = (vx / speed, vy / speed)
    normal = (-direction[1], direction[0])
    half = float(_frac(half_length)) if not isinstance(half_length, float) else half_length
    window = float(_frac(time_window)) if not isinstance(time_window, float) else time_window
    for _ in range(_MAX_SHRINKS + 1):
        fb = Flowbox(field, p, direction, normal, half, window, tol)
        margin = _injectivity_margin(fb)
        if margin >= 0.25:
            fb.injectivity_margin = margin
            return fb
        half *= 0.5
        window *= 0.5
    raise FoldDetected(
        f"no transversality margin within {_MAX_SHRINKS} window shrinks at {point}"
    )


def _injectivity_margin(fb: Flowbox) -> float:
    worst = math.inf
    for i in range(_MARGIN_GRID):
        t = fb.time_window * (2.0 * i / (_MARGIN_GRID - 1) - 1.0)
        for j in range(_MARGIN_GRID):
            s = fb.half_length * (2.0 * j / (_MARGIN_GRID - 1) - 1.0)
            try:
                _, ycol, vcol = fb.frame(t, s)
            except (EscapeError, StepUnderflow):
                return 0.0
            ny = math.hypot(*ycol)
            nv = math.hypot(*vcol)
            if ny < 1e-12 or nv < 1e-12:
                return 0.0
            det = ycol[0] * vcol[1] - ycol[1] * vcol[0]
            worst = min(worst, abs(det) / (ny * nv))
    return worst
