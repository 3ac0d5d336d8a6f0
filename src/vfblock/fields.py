"""Planar and toroidal vector fields: evaluation, brackets, jets.

A field is a pair of exact components (Poly2 on the plane, TrigPoly2 on the
torus) plus a declared smoothness label k.  All symbolic operations (brackets,
translations, jet inspection) are exact in the coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .errors import DegenerateField, PointNotZero
from .poly import Poly2, _frac, float_plan
from .trig import PiNumber, TrigPoly2

PLANE = "plane"
TORUS = "torus"


@dataclass(frozen=True)
class PlanarField:
    """Vector field (p, q) on the plane or the flat torus."""

    surface: str
    p: object
    q: object
    k: int = 1

    def __post_init__(self):
        if self.surface not in (PLANE, TORUS):
            raise ValueError(f"unknown surface {self.surface!r}")
        want = Poly2 if self.surface == PLANE else TrigPoly2
        if not isinstance(self.p, want) or not isinstance(self.q, want):
            raise TypeError(f"{self.surface} fields need {want.__name__} components")
        if self.k < 1:
            raise ValueError("smoothness label k must be >= 1")

    # algebra --------------------------------------------------------------

    def __add__(self, other: "PlanarField") -> "PlanarField":
        self._same_surface(other)
        return PlanarField(self.surface, self.p + other.p, self.q + other.q,
                           min(self.k, other.k))

    def __sub__(self, other: "PlanarField") -> "PlanarField":
        self._same_surface(other)
        return PlanarField(self.surface, self.p - other.p, self.q - other.q,
                           min(self.k, other.k))

    def __neg__(self) -> "PlanarField":
        return PlanarField(self.surface, -self.p, -self.q, self.k)

    def scale(self, c) -> "PlanarField":
        return PlanarField(self.surface, self.p * c, self.q * c, self.k)

    def times_scalar_poly(self, g) -> "PlanarField":
        """Multiply by a scalar function from the same coefficient ring."""
        return PlanarField(self.surface, g * self.p, g * self.q, self.k)

    def _same_surface(self, other: "PlanarField"):
        if self.surface != other.surface:
            raise ValueError("fields live on different surfaces")

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    # evaluation -----------------------------------------------------------

    def eval_float(self, x: float, y: float) -> tuple[float, float]:
        return (self.p.eval_float(x, y), self.q.eval_float(x, y))

    def eval_exact(self, x, y):
        vp = self.p.eval_exact(x, y)
        vq = self.q.eval_exact(x, y)
        if isinstance(vp, PiNumber):
            fp, fq = vp.as_fraction(), vq.as_fraction()
            if fp is not None and fq is not None:
                return (fp, fq)
        return (vp, vq)

    def jacobian(self):
        """Component partials (dp/dx, dp/dy, dq/dx, dq/dy)."""
        return (self.p.dx(), self.p.dy(), self.q.dx(), self.q.dy())

    @cached_property
    def jacobian_plan(self):
        """Float evaluator (x, y) -> [p, q, dp/dx, dp/dy, dq/dx, dq/dy], bit for
        bit each component's eval_float (`poly.float_plan`); built once per
        field, on first use."""
        return float_plan((self.p, self.q, *self.jacobian()))

    def to_json(self) -> dict:
        return {
            "surface": self.surface,
            "k": self.k,
            "P": self.p.to_json(),
            "Q": self.q.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "PlanarField":
        surface = data.get("surface", PLANE)
        comp = Poly2 if surface == PLANE else TrigPoly2
        return cls(surface, comp.from_json(data["P"]), comp.from_json(data["Q"]),
                   int(data.get("k", 1)))


def plane_field(p: Poly2, q: Poly2, k: int = 1) -> PlanarField:
    return PlanarField(PLANE, p, q, k)


def torus_field(p: TrigPoly2, q: TrigPoly2, k: int = 1) -> PlanarField:
    return PlanarField(TORUS, p, q, k)


def field_eval(field: PlanarField, point):
    """Evaluate at a point; exact for rational input, float for float input.

    On the torus exact evaluation needs every angle to be a multiple of pi/2
    (quarter-period rational coordinates); other rational points fall back to
    float evaluation.
    """
    x, y = point
    if isinstance(x, float) or isinstance(y, float):
        return field.eval_float(float(x), float(y))
    try:
        return field.eval_exact(_frac(x), _frac(y))
    except Exception:
        if field.surface == TORUS:
            return field.eval_float(float(Fraction(x)), float(Fraction(y)))
        raise


def lie_bracket(y_field: PlanarField, x_field: PlanarField) -> PlanarField:
    """[Y, X] = DX*Y - DY*X, exact in the coefficient ring."""
    y_field._same_surface(x_field)
    xp_x, xp_y, xq_x, xq_y = x_field.jacobian()
    yp_x, yp_y, yq_x, yq_y = y_field.jacobian()
    comp1 = xp_x * y_field.p + xp_y * y_field.q - (yp_x * x_field.p + yp_y * x_field.q)
    comp2 = xq_x * y_field.p + xq_y * y_field.q - (yq_x * x_field.p + yq_y * x_field.q)
    return PlanarField(x_field.surface, comp1, comp2, min(x_field.k, y_field.k))


@dataclass(frozen=True)
class JetOrder:
    """Order verdict at a zero: order j in 1..k, or k-flat (order is None)."""

    order: int | None
    k: int

    @property
    def is_flat(self) -> bool:
        return self.order is None

    def to_json(self) -> dict:
        return {"order": self.order, "k": self.k, "k_flat": self.is_flat}


def partials_by_order(comp):
    """The mixed partials of comp, one list per total order j = 0, 1, ...:
    [d^j/dx^j, d^j/dx^(j-1)dy, ..., d^j/dy^j], each order built from the last."""
    order = [comp]
    while True:
        yield order
        order = [d.dx() for d in order] + [order[-1].dy()]


def jet_order(field: PlanarField, point, k: int | None = None) -> JetOrder:
    """Order of the field at an exact zero: the lowest total degree with a
    nonvanishing jet, or k-flat when all jets through order k vanish."""
    if k is None:
        k = field.k
    if k < 1:
        raise ValueError("k must be >= 1")
    x, y = _frac(point[0]), _frac(point[1])
    vx, vy = field.eval_exact(x, y)
    if vx or vy:
        raise PointNotZero(f"field is {vx, vy} != 0 at {point}")
    if field.surface == PLANE:
        tp = field.p.translate(x, y)
        tq = field.q.translate(x, y)
        degs = [d for d in (tp.min_total_degree, tq.min_total_degree) if d >= 0]
        if not degs:
            return JetOrder(None, k)
        j = min(degs)
        return JetOrder(j if j <= k else None, k)
    orders = islice(zip(partials_by_order(field.p), partials_by_order(field.q)), 1, k + 1)
    for j, (dp, dq) in enumerate(orders, 1):
        if any(d.eval_exact(x, y) for d in dp + dq):
            return JetOrder(j, k)
    return JetOrder(None, k)


def require_not_identically_zero(field: PlanarField, what: str = "field"):
    if field.is_zero():
        raise DegenerateField(f"{what} is identically zero")
