"""Adaptive flow integration and flowbox charts.

The integrator is a Dormand-Prince 5(4) embedded pair with standard step
control.  Its step loop is generated from the tableau once per dimension of
the state and keeps every coordinate and stage value in a scalar local; it
does the float operations of the plain tableau loop, in the same order (see
`integrate`).  Flowboxes rectify a field Y to the constant horizontal field:
the chart sends (t, s) to the time-t flow of the point p + s * n, with n the
unit normal to Y(p).  The s-derivative column is integrated alongside through
the exact variational equation, whose right-hand side for a polynomial field
is one generated function per field (`PlanarField.variational_plan`).  The
frames on one transversal line resume one recorded trajectory (`integrate`'s
trail) per direction of time instead of starting again at t = 0.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

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
_BITS = struct.Struct("2d").pack     # a start point's exact bits, -0.0 apart from 0.0


def integrate(f, y0, t_total: float, tol: float, bbox=DEFAULT_BBOX, trail=None):
    """Integrate the autonomous system y' = f(y) from 0 to t_total.

    The step loop is `_stepper(len(y0))`: the source `_STEP_LOOP`, filled in
    from the nonzero entries of `_A`, `_B5` and `_B4` and compiled once per
    dimension n, with y0..y{n-1} and the stage values k{m}_{d} as scalar
    locals.  Stage i calls f on the tuple of y{d} + c{m} * k{m}_{d}, added
    left to right over the nonzero a_im with c{m} = hs * a_im, and the two
    order sums add b_m * k{m}_{d} to 0.0 left to right: the floats, in the
    order, of the tableau loop in tests/flow_reference.py (whose `sum()` adds
    left to right on Python 3.10 and 3.11), with its step control, messages
    and caught errors.  tests/test_flow_oracle.py compares the two by `repr`
    of every float and by every raised error.  A bbox bounds the first two
    coordinates, so it needs a state of dimension at least 2.

    A `trail`, an empty `array("d")` at first, is shared by the runs of one
    f, y0, tol, bbox, sign of t_total and `_start_step`: the iteration-start
    states (elapsed, h, iteration, *y) they reached by unclamped steps.  Until
    a run stops (elapsed >= |t_total| - 1e-300) or clamps (h >= |t_total| -
    elapsed), its steps do not depend on |t_total|, so it resumes at the
    first recorded state where it would, or extends the trail from the last
    one, with a fresh run's floats, errors and messages."""
    if bbox is not None and len(y0) < 2:
        raise ValueError(f"a bbox needs a state of dimension >= 2, got {len(y0)}")
    if t_total == 0.0:
        return tuple(y0)
    h0, h_min = _start_step(t_total)
    state = (0.0, h0, 0, *(float(v) for v in y0))
    if trail:
        span, width = abs(t_total), len(state)
        for at in range(0, len(trail), width):      # where this run stops or clamps
            if not (trail[at] < span - 1e-300 and trail[at + 1] < span - trail[at]):
                break
        state = trail[at:at + width]      # the loop stops recording where it halts
    elif trail is not None:
        trail.extend(state)
    return _stepper(len(state) - 3)(f, state, t_total, h_min, tol, bbox, trail)


def _start_step(t_total: float) -> tuple[float, float]:
    """(h0, h_min): a run's first step, and its `StepUnderflow` floor."""
    return min(0.1, abs(t_total)), 1e-14 * max(1.0, abs(t_total))


_STEP_LOOP = """\
def step_loop(f, state, t_total, h_min, tol, bbox, trail):
    elapsed, h, start, {ys} = state
    direction = 1.0 if t_total > 0 else -1.0
    remaining = abs(t_total)
    for it in range(int(start), MAX_STEPS):
        if elapsed >= remaining - 1e-300:
            return ({ys})
        if trail is not None and not h < remaining - elapsed:
            trail = None                    # the steps from here are this run's own
        h = min(h, remaining - elapsed)
        if h < h_min and h < remaining - elapsed:   # shrunk by error control
            raise StepUnderflow(f"step collapsed to {{h:g}} at t={{direction*elapsed:g}}")
        hs = h * direction
        {k0} = f(({ys}))
        try:
{stages}
        except (OverflowError, ValueError):
            err = math.inf
        else:
            err = 0.0
{sums}
            err = math.sqrt(err / {n})
        if err <= 1.0:
            elapsed += h
            {ys} = {news}
            if bbox is not None and not (bbox[0] <= y0 <= bbox[2] and bbox[1] <= y1 <= bbox[3]):
                raise EscapeError(f"trajectory left the bounding box at {{({head})}}")
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2) if math.isfinite(err) else 0.2
        h *= factor
        if trail is not None:
            trail.extend((elapsed, h, it + 1, {ys}))
    raise StepUnderflow("integrator exceeded its step budget")
"""


@lru_cache(maxsize=None)
def _stepper(n: int):
    """`_STEP_LOOP` for states of dimension n, compiled (see `integrate`).  As
    in `poly.float_plan`, the tableau reaches the code by name through its
    globals (A{i}_{m}, B5_{m}, B4_{m}), so no value is written into the
    source; every 2-D flow and 4-D flowbox frame runs on the one tableau."""
    def tup(names):
        return ", ".join(names) + ","

    def weighted(prefix, row, d):
        return "".join(f" + {prefix}{m} * k{m}_{d}" for m, v in enumerate(row) if v)

    dims = range(n)
    env = {"math": math, "MAX_STEPS": _MAX_STEPS, "StepUnderflow": StepUnderflow,
           "EscapeError": EscapeError}
    env.update((f"B5_{m}", b) for m, b in enumerate(_B5))
    env.update((f"B4_{m}", b) for m, b in enumerate(_B4))
    stages, sums = [], []
    for i in range(1, 7):
        env.update((f"A{i}_{m}", a) for m, a in enumerate(_A[i]))
        stages += [f"c{m} = hs * A{i}_{m}" for m, a in enumerate(_A[i]) if a]
        args = (f"y{d}" + weighted("c", _A[i], d) for d in dims)
        stages.append(f"{tup(f'k{i}_{d}' for d in dims)} = f(({tup(args)}))")
    for d in dims:
        sums += [f"p{d} = 0.0" + weighted("B5_", _B5, d),
                 f"q{d} = 0.0" + weighted("B4_", _B4, d),
                 f"n{d} = y{d} + hs * p{d}",
                 f"scale = tol + tol * max(abs(y{d}), abs(n{d}))",
                 f"err += ((hs * (p{d} - q{d})) / scale) ** 2"]
    source = _STEP_LOOP.format(
        n=n, ys=tup(f"y{d}" for d in dims), k0=tup(f"k0_{d}" for d in dims),
        news=tup(f"n{d}" for d in dims), head=tup(f"y{d}" for d in dims[:2]),
        stages="\n".join(" " * 12 + s for s in stages),
        sums="\n".join(" " * 12 + s for s in sums))
    exec(compile(source, f"<dormand_prince_{n}>", "exec"), env)
    return env["step_loop"]


def field_rhs(field: PlanarField):
    evalf = field.eval_float

    def rhs(y):
        return evalf(y[0], y[1])

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
    speed: float                        # |Y(base)|
    half_length: float
    time_window: float
    tol: float
    injectivity_margin: float = 0.0
    _frames: dict = dc_field(default_factory=dict, compare=False, repr=False)
    _trails: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def _transversal(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.normal[0], self.base[1] + s * self.normal[1])

    def frame(self, t: float, s: float):
        """Chart point plus the columns of the chart differential:
        (point, Y(point), v) with v the transported transversal direction.
        Memoised per chart on the exact (t, s), the sign of a zero s included;
        errors are not cached.  Integrations run inside `DEFAULT_BBOX` and share
        one trail per start point's bits, sign of t and `_start_step`."""
        key = (t, s) if s else (t, s, math.copysign(1.0, s))
        found = self._frames.get(key)
        if found is not None:
            return found
        x0, y0 = self._transversal(s)
        if t == 0.0:
            pt = (x0, y0)
            v = self.normal
        else:
            trail = self._trails.setdefault((_BITS(x0, y0), t > 0, *_start_step(t)),
                                            array("d"))
            x, y, vx, vy = integrate(self.field.variational_plan, (x0, y0, *self.normal),
                                     t, self.tol, DEFAULT_BBOX, trail)
            pt = (x, y)
            v = (vx, vy)
        found = self._frames[key] = (pt, self.field.eval_float(*pt), v)
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
        t /= max(self.speed, 1e-12)
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
        fb = Flowbox(field, p, direction, normal, speed, half, window, tol)
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
            except (StepUnderflow, EscapeError):
                return 0.0
            ny = math.hypot(*ycol)
            nv = math.hypot(*vcol)
            if ny < 1e-12 or nv < 1e-12:
                return 0.0
            det = ycol[0] * vcol[1] - ycol[1] * vcol[0]
            worst = min(worst, abs(det) / (ny * nv))
    return worst
