"""Tracking certificates, orbit invariance and order transport checks.

The primary tracking criterion is exact: det([Y,X], X) as a polynomial (or
trig polynomial).  For nonzero polynomial fields the zero set of X is nowhere
dense, so parallelism of the bracket with X off Z(X) extends by continuity,
and the determinant vanishing identically is equivalent to tracking.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .certify import Block
from .errors import OrderEstimateAmbiguous, PreconditionFailed
from .fields import JetOrder, PlanarField, jet_order, lie_bracket, require_not_identically_zero
from .flows import flow_integrate
from .index import interval_lipschitz
from .regions import Region


@dataclass(frozen=True)
class TrackingCertificate:
    mode: str               # "symbolic" | "numeric"
    verdict: bool
    residual: object        # Fraction(0) in symbolic mode, float in numeric mode

    def to_json(self) -> dict:
        res = "0" if self.mode == "symbolic" and self.verdict else self.residual
        if isinstance(res, Fraction):
            res = str(res)
        return {"mode": self.mode, "verdict": self.verdict, "residual": res}


def tracks_symbolic(y_field: PlanarField, x_field: PlanarField) -> TrackingCertificate:
    """Exact tracking certificate: the bracket [Y, X] is everywhere parallel
    to X iff det([Y,X], X) is the zero polynomial."""
    require_not_identically_zero(x_field, "tracked field X")
    bracket = lie_bracket(y_field, x_field)
    det = bracket.p * x_field.q - bracket.q * x_field.p
    verdict = det.is_zero()
    return TrackingCertificate("symbolic", verdict, Fraction(0))


def tracking_residual(y_field: PlanarField, x_field: PlanarField, region: Region,
                      n_samples: int, seed: int = 0) -> float:
    """Numeric cross-check: max normalized parallelism defect of [Y,X] with X
    over sampled points where |X| is above 1e-9."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    bracket = lie_bracket(y_field, x_field)
    rng = random.Random(seed)
    x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
    worst = 0.0
    used = 0
    while used < n_samples:
        px = rng.uniform(x0, x1)
        py = rng.uniform(y0, y1)
        if not region.contains_point_closed((Fraction(px).limit_denominator(1 << 30),
                                             Fraction(py).limit_denominator(1 << 30))):
            continue
        used += 1
        vx, vy = x_field.eval_float(px, py)
        nx = math.hypot(vx, vy)
        if nx <= 1e-9:
            continue
        bx, by = bracket.eval_float(px, py)
        nb = math.hypot(bx, by)
        defect = abs(bx * vy - by * vx) / (nb * nx + 1e-300)
        worst = max(worst, defect)
    return worst


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
class InvarianceReport:
    verdict: bool
    max_defect: float
    tolerance: float
    seeds: tuple

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "max_defect": self.max_defect,
                "tolerance": self.tolerance, "n_seeds": len(self.seeds)}


def zero_invariance_check(x_field: PlanarField, y_field: PlanarField, block: Block,
                          t_max: float = 1.0, n_points: int = 8,
                          tol: float = 1e-8) -> InvarianceReport:
    """Flow polished zeros of X by Y and verify |X| stays tolerance-small;
    refuses to run unless tracking holds symbolically."""
    cert = tracks_symbolic(y_field, x_field)
    if not cert.verdict:
        raise PreconditionFailed("Y does not track X; invariance check refused")
    if block.enclosure.is_empty:
        return InvarianceReport(True, 0.0, tol, ())
    seeds = [polish_zero(x_field, c) for c in block.enclosure.spread_centers(n_points)]
    bbox = block.region.bounding_box()
    pad = (bbox[2] - bbox[0]) / 5
    lip = interval_lipschitz(x_field, (bbox[0] - pad, bbox[1] - pad,
                                       bbox[2] + pad, bbox[3] + pad))
    scaled_tol = tol * (1.0 + lip)
    worst = 0.0
    for seed in seeds:
        for frac in (0.25, 0.5, 1.0):
            for sign in (1.0, -1.0):
                q = flow_integrate(y_field, seed, sign * frac * t_max)
                worst = max(worst, math.hypot(*x_field.eval_float(*q)))
    return InvarianceReport(worst < scaled_tol, worst, scaled_tol, tuple(seeds))


_ORDER_DIRECTIONS = 16
_ORDER_SCALES = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def numeric_order_estimate(field: PlanarField, point, k: int) -> int:
    """Order of vanishing at a numeric zero from the log-log slope of the max
    jet magnitude against the probe scale (4 dyadic scales)."""
    qx, qy = float(point[0]), float(point[1])
    mags = []
    for h in _ORDER_SCALES:
        m = 0.0
        for i in range(_ORDER_DIRECTIONS):
            a = 2.0 * math.pi * i / _ORDER_DIRECTIONS
            vx, vy = field.eval_float(qx + h * math.cos(a), qy + h * math.sin(a))
            m = max(m, math.hypot(vx, vy))
        if m == 0.0:
            raise OrderEstimateAmbiguous("field identically zero at probe scale")
        mags.append(m)
    xs = [math.log(h) for h in _ORDER_SCALES]
    ys = [math.log(m) for m in mags]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / \
        sum((x - mean_x) ** 2 for x in xs)
    j = round(slope)
    if abs(slope - j) > 0.2 or j < 1:
        raise OrderEstimateAmbiguous(f"slope {slope:.3f} is not near a positive integer")
    return min(j, k) if j <= k else j


@dataclass(frozen=True)
class OrderInvarianceReport:
    verdict: bool
    order_at_p: JetOrder
    order_at_q: int
    q: tuple
    exact_order_at_q: JetOrder | None = None

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "order_p": self.order_at_p.to_json(),
               "order_q_numeric": self.order_at_q, "q": list(self.q)}
        if self.exact_order_at_q is not None:
            out["order_q_exact"] = self.exact_order_at_q.to_json()
        return out


def order_invariance_check(x_field: PlanarField, y_field: PlanarField, point,
                           t: float, k: int) -> OrderInvarianceReport:
    """Compare the exact order at a rational zero with the numerically
    estimated order at its time-t image under the flow of Y."""
    cert = tracks_symbolic(y_field, x_field)
    if not cert.verdict:
        raise PreconditionFailed("Y does not track X; order transport check refused")
    jp = jet_order(x_field, point, k)
    if jp.is_flat:
        raise PreconditionFailed("order transport needs a non-k-flat base point")
    q = flow_integrate(y_field, point, t)
    jq = numeric_order_estimate(x_field, q, k)
    exact_q = None
    qr = (Fraction(q[0]).limit_denominator(10 ** 6),
          Fraction(q[1]).limit_denominator(10 ** 6))
    try:
        vx, vy = x_field.eval_exact(*qr)
        if not (vx or vy):
            exact_q = jet_order(x_field, qr, k)
    except Exception:
        exact_q = None
    verdict = jq == jp.order and (exact_q is None or exact_q.order == jp.order)
    return OrderInvarianceReport(verdict, jp, jq, q, exact_q)


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
