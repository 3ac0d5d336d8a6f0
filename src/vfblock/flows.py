"""Adaptive flow integration and flowbox charts.

The integrator is a Dormand-Prince 5(4) embedded pair with standard step
control.  Flowboxes rectify a field Y to the constant horizontal field: the
chart sends (t, s) to the time-t flow of the point p + s * n, with n the unit
normal to Y(p).  The s-derivative column is integrated alongside through the
exact variational equation, so chart frames are cheap and accurate.
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


def integrate(f, y0, t_total: float, tol: float, bbox=DEFAULT_BBOX,
              max_steps: int = 200000):
    """Integrate the autonomous system y' = f(y) from 0 to t_total."""
    if t_total == 0.0:
        return tuple(y0)
    y = tuple(float(v) for v in y0)
    direction = 1.0 if t_total > 0 else -1.0
    remaining = abs(t_total)
    h = min(0.1, remaining)
    h_min = 1e-14 * max(1.0, abs(t_total))
    elapsed = 0.0
    for _ in range(max_steps):
        if elapsed >= remaining - 1e-300:
            return y
        h = min(h, remaining - elapsed)
        if h < h_min and h < remaining - elapsed:   # shrunk by error control
            raise StepUnderflow(f"step collapsed to {h:g} at t={direction*elapsed:g}")
        hs = h * direction
        k = [f(y)]
        ok = True
        for stage in range(1, 7):
            yi = list(y)
            for m, a in enumerate(_A[stage]):
                if a:
                    for d in range(len(y)):
                        yi[d] += hs * a * k[m][d]
            try:
                k.append(f(tuple(yi)))
            except (OverflowError, ValueError):
                ok = False
                break
        if ok:
            y5 = list(y)
            err = 0.0
            for d in range(len(y)):
                acc5 = sum(b * k[m][d] for m, b in enumerate(_B5) if b)
                acc4 = sum(b * k[m][d] for m, b in enumerate(_B4) if b)
                y5[d] += hs * acc5
                scale = tol + tol * max(abs(y[d]), abs(y5[d]))
                err += ((hs * (acc5 - acc4)) / scale) ** 2
            err = math.sqrt(err / len(y))
        else:
            err = math.inf
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
    evalf = field.eval_float
    jp = field.jacobian()
    jf = [c.eval_float for c in jp]

    def rhs(y):
        x0, x1, v0, v1 = y
        f0, f1 = evalf(x0, x1)
        a, b, c, d = (j(x0, x1) for j in jf)
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

    def __post_init__(self):
        self._rhs = variational_rhs(self.field)

    def _transversal(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.normal[0], self.base[1] + s * self.normal[1])

    def frame(self, t: float, s: float):
        """Chart point plus the columns of the chart differential:
        (point, Y(point), v) with v the transported transversal direction."""
        x0, y0 = self._transversal(s)
        if t == 0.0:
            pt = (x0, y0)
            v = self.normal
        else:
            x, y, vx, vy = integrate(self._rhs, (x0, y0, *self.normal), t, self.tol,
                                     bbox=None)
            pt = (x, y)
            v = (vx, vy)
        return pt, self.field.eval_float(*pt), v

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

    def inverse(self, q, max_iter: int = 40):
        """Chart coordinates of a nearby point, or None when Newton leaves the
        (slightly padded) window or fails to converge."""
        dx = (q[0] - self.base[0], q[1] - self.base[1])
        t = dx[0] * self.direction[0] + dx[1] * self.direction[1]
        speed = math.hypot(*self.field.eval_float(*self.base))
        t /= max(speed, 1e-12)
        s = dx[0] * self.normal[0] + dx[1] * self.normal[1]
        scale = 1.0 + math.hypot(*q)
        for _ in range(max_iter):
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
                  tol: float = 1e-10, max_shrinks: int = 12) -> Flowbox:
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
    for _ in range(max_shrinks + 1):
        fb = Flowbox(field, p, direction, normal, half, window, tol)
        margin = _injectivity_margin(fb)
        if margin >= 0.25:
            fb.injectivity_margin = margin
            return fb
        half *= 0.5
        window *= 0.5
    raise FoldDetected(
        f"no transversality margin within {max_shrinks} window shrinks at {point}"
    )


def _injectivity_margin(fb: Flowbox, grid: int = 5) -> float:
    worst = math.inf
    for i in range(grid):
        t = fb.time_window * (2.0 * i / (grid - 1) - 1.0)
        for j in range(grid):
            s = fb.half_length * (2.0 * j / (grid - 1) - 1.0)
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
