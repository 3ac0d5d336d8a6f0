"""Tracking certificates, zero polishing and exact order checks.

The tracking criterion is exact: det([Y,X], X) as a polynomial (or trig
polynomial).  For nonzero polynomial fields the zero set of X is nowhere
dense, so parallelism of the bracket with X off Z(X) extends by continuity,
and the determinant vanishing identically is equivalent to tracking.  When
Y tracks X, Y's flow locally permutes the integral curves of X, so it keeps
Z(X) invariant and carries the order of vanishing along; neither needs a
check of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionFailed
from .fields import PlanarField, jet_order, lie_bracket, require_not_identically_zero


@dataclass(frozen=True)
class TrackingCertificate:
    """An exact verdict of `tracks_symbolic`: symbolic, with residual 0."""

    verdict: bool
    mode = "symbolic"

    def to_json(self) -> dict:
        return {"mode": self.mode, "verdict": self.verdict, "residual": "0"}


def tracks_symbolic(y_field: PlanarField, x_field: PlanarField) -> TrackingCertificate:
    """Exact tracking certificate: the bracket [Y, X] is everywhere parallel
    to X iff det([Y,X], X) is the zero polynomial."""
    require_not_identically_zero(x_field, "tracked field X")
    bracket = lie_bracket(y_field, x_field)
    det = bracket.p * x_field.q - bracket.q * x_field.p
    verdict = det.is_zero()
    return TrackingCertificate(verdict)


def polish_zero(field: PlanarField, point):
    """Damped Gauss-Newton descent of |X|^2 toward the nearby zero set."""
    x, y = float(point[0]), float(point[1])
    evaluate = field.jacobian_plan
    for _ in range(30):
        fx, fy, a, b, c, d = evaluate(x, y)
        if math.hypot(fx, fy) < 1e-14 * (1.0 + math.hypot(x, y)):
            break
        # normal equations with a tiny Levenberg damping
        g0 = a * fx + c * fy
        g1 = b * fx + d * fy
        h00 = a * a + c * c + 1e-14
        h01 = a * b + c * d
        h11 = b * b + d * d + 1e-14
        det = h00 * h11 - h01 * h01
        if det == 0.0:
            break
        x -= (g0 * h11 - g1 * h01) / det
        y -= (h00 * g1 - h01 * g0) / det
    return (x, y)


@dataclass(frozen=True)
class ComponentOrderReport:
    verdict: bool
    orders: tuple

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "orders": [o.to_json() for o in self.orders]}


def component_order_check(x_field: PlanarField, points, k: int) -> ComponentOrderReport:
    """Exact orders at several rational points of one component must agree."""
    orders = tuple(jet_order(x_field, p, k) for p in points)
    if not orders:
        raise PreconditionFailed("need at least one point")
    first = orders[0].order
    return ComponentOrderReport(all(o.order == first for o in orders), orders)
