"""The Dormand-Prince 5(4) loop that `vfblock.flows.integrate` unrolls, and
the variational right-hand side that `PlanarField.variational_plan` generates.

The tableau and the step loop are kept as they were before the unrolling:
per-dimension loops over the nonzero entries of each row and `sum()` for the
two order sums.  `flows.integrate` must return the same floats, or raise the
same exception with the same message, for every input.  On Python 3.12 and
later `sum()` adds floats with compensation, so there the two differ in the
last bits; the supported interpreters (3.10 and 3.11) add left to right.
"""

import math

from vfblock.errors import EscapeError, StepUnderflow

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
# the nonzero entries (m, coefficient) of each tableau row, in order of m
_A_NZ = tuple(tuple((m, a) for m, a in enumerate(row) if a) for row in _A)
_B5_NZ = tuple((m, b) for m, b in enumerate(_B5) if b)
_B4_NZ = tuple((m, b) for m, b in enumerate(_B4) if b)

DEFAULT_BBOX = (-1e3, -1e3, 1e3, 1e3)
_MAX_STEPS = 200000


def integrate_reference(f, y0, t_total: float, tol: float, bbox=DEFAULT_BBOX):
    """Integrate the autonomous system y' = f(y) from 0 to t_total."""
    if bbox is not None and len(y0) < 2:
        raise ValueError(f"a bbox needs a state of dimension >= 2, got {len(y0)}")
    if t_total == 0.0:
        return tuple(y0)
    y = tuple(float(v) for v in y0)
    direction = 1.0 if t_total > 0 else -1.0
    remaining = abs(t_total)
    h = min(0.1, remaining)
    h_min = 1e-14 * max(1.0, abs(t_total))
    elapsed = 0.0
    dims = range(len(y))
    for _ in range(_MAX_STEPS):
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
            for m, a in _A_NZ[stage]:
                hsa, km = hs * a, k[m]
                for d in dims:
                    yi[d] += hsa * km[d]
            try:
                k.append(f(tuple(yi)))
            except (OverflowError, ValueError):
                ok = False
                break
        if ok:
            y5 = list(y)
            err = 0.0
            for d in dims:
                acc5 = sum(b * k[m][d] for m, b in _B5_NZ)
                acc4 = sum(b * k[m][d] for m, b in _B4_NZ)
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


def variational_reference(field):
    """The flow's right-hand side with its derivative along a transported
    vector, as a closure over the field's `jacobian_plan`: the products and
    sums that the generated `variational_plan` must reproduce bit for bit."""
    evaluate = field.jacobian_plan

    def rhs(y):
        x0, x1, v0, v1 = y
        f0, f1, a, b, c, d = evaluate(x0, x1)
        return (f0, f1, a * v0 + b * v1, c * v0 + d * v1)

    return rhs
