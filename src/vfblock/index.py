"""Certified Poincare-Hopf indices from one boundary pass.

The index of X in U is the degree of X/|X| along the oriented boundary of U,
read off the leaf arcs that certify the boundary margin: each leaf's interval
image lies in one open half-plane p > 0, q > 0, p < 0 or q < 0, and the degree
is the sum of the quarter turns between neighbouring leaves over 4 (Stenger
1975, Kearfott 1979; see `certify.winding_stats`, re-exported here).  Only the
annulus double-cover lift is still sampled: its evaluator and its Lipschitz
sweep are straight-line code compiled once per monomial pattern.

An arc's interval box, and its axis tables for a coefficient ring, depend on
the curve, not on the field.  Each curve memoises them (`_Curve.tables_of`
in `regions`), and `Region.boundary_curves` memoises the curves of the last
region asked, so consecutive checks on an equal region share them.  A
homotopy or wedge check subdivides each curve once for both of its fields
(`certify.joint_boundary_pass`): the leaves that certify a homotopy for
every t in [0, 1], or a wedge's two margins, carry both indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import interval as iv
from .certify import (Block, joint_boundary_pass,  # noqa: F401 (re-export)
                      min_norm_on_boundary, winding_stats)
from .errors import CertificationFailed, ContradictionError, PreconditionFailed
from .fields import PlanarField
from .poly import Poly2, _compile_plan, _frac, _frac_str, float_plan, plan_lines, restrict
from .regions import ANNULUS, Region, piece_point
from . import upoly


@dataclass(frozen=True)
class IndexResult:
    index: int
    boundary_margin: Fraction
    samples: int
    essential: bool
    certified: bool

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "margin": _frac_str(self.boundary_margin),
            "samples": self.samples,
            "essential": self.essential,
            "certified": self.certified,
        }


def interval_lipschitz(field: PlanarField, bbox) -> float:
    """Upper bound for sup ||DX||_2 over the box via interval Frobenius norms."""
    ix = (iv.make(bbox[0])[0], iv.make(bbox[2])[1])
    iy = (iv.make(bbox[1])[0], iv.make(bbox[3])[1])
    total = 0.0
    for comp in field.jacobian():
        total += iv.abs_upper(comp.eval_interval(ix, iy)) ** 2
    return iv.up(math.sqrt(total)) + 1e-300


_LIPSCHITZ_SAMPLES = 2048
_SAMPLED_LIPSCHITZ_SAFETY = 2.0     # factor on the finite-difference estimate
_LIPSCHITZ_SAFETY = 1.2             # oversampling factor on the chord bound
_WINDING_BUDGET = 1 << 20           # most samples per curve of the lift


def sampled_lipschitz(sweep, curve) -> float:
    """Finite-difference Lipschitz estimate of the lift along a circle, by the
    `sweep` of `make_double_cover_lift`, with a safety factor."""
    best = sweep(*curve._cf, curve._rf, 1.0 if curve.ccw else -1.0, _LIPSCHITZ_SAMPLES)
    return best * _SAMPLED_LIPSCHITZ_SAFETY + 1e-300


def block_index(block: Block) -> IndexResult:
    """Poincare-Hopf index of the block, with its essentiality flag; read from
    the boundary pass that certified the block."""
    b = block.boundary
    return IndexResult(b.index, b.margin, b.arcs, essential=b.index != 0, certified=True)


@dataclass(frozen=True)
class HomotopyVerdict:
    status: str  # "invariant" | "degenerate"
    index: int | None = None
    t: Fraction | None = None

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.index is not None:
            out["index"] = self.index
        if self.t is not None:
            out["t"] = _frac_str(self.t)
        return out


def homotopy_invariance_check(x0: PlanarField, x1: PlanarField, region: Region,
                              steps: int) -> HomotopyVerdict:
    """Certify that (1 - t) x0 + t x1 has no zero on the boundary of U for
    every t in [0, 1]; the index is then constant.  One pass per boundary
    curve (`joint_boundary_pass` with `segment`) certifies the segment and
    reads the indices of x0 and x1 off the same leaves.  If it refuses, the
    step fields at t = i/steps (x0 + t (x1 - x0), x1 itself at t = 1: the
    terms of x0.scale(1 - t) + x1.scale(t)) only locate the first t whose
    field is zero or not certified nonvanishing (`min_norm_on_boundary`);
    if none is, the verdict is degenerate without t.  Degenerate verdicts
    are honest failures of certification, not counterexamples.  All passes
    share the region's memoised curves."""
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ValueError(f"steps must be an int, got {steps!r}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    x0._same_surface(x1)
    ends = joint_boundary_pass((x0, x1), region, segment=True)
    if ends is not None:
        if ends[0].index != ends[1].index:
            raise ContradictionError("index changed along a certified-nonvanishing "
                                     f"homotopy: {[b.index for b in ends]}")
        return HomotopyVerdict("invariant", index=ends[0].index)
    d = x1 - x0
    for i in range(steps + 1):
        t = Fraction(i, steps)
        xt = replace(x1, k=d.k) if i == steps else x0 + d.scale(t)
        if xt.is_zero() or min_norm_on_boundary(xt, region, tol=1) is None:
            return HomotopyVerdict("degenerate", t=t)
    return HomotopyVerdict("degenerate")


@dataclass(frozen=True)
class WedgeVerdict:
    status: str  # "equal" | "not_dependent" | "not_isolating"
    index: int | None = None
    witness: tuple | None = None

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.index is not None:
            out["index"] = self.index
        if self.witness is not None:
            out["witness"] = [_frac_str(_frac(w)) for w in self.witness]
        return out


def _dependent_on_boundary(det, curves):
    """(True, None) if det vanishes identically on the boundary curves, else
    (False, witness).  The witness is on the first piece whose restriction
    has n > 0 coefficients: the point at the first t = k/n, k < n, where the
    restriction is not 0.  One exists, as a nonzero polynomial of degree
    n - 1 has at most n - 1 roots; and w(t) != 0, so det != 0 there.  A
    torus det is decided only where it is identically zero."""
    if det.is_zero():
        return True, None
    if not isinstance(det, Poly2):
        raise PreconditionFailed(
            "boundary dependence of torus fields is decided only where "
            "det(Y, Y') is identically zero")
    for curve in curves:
        for piece in curve.pieces():
            coeffs = restrict(det, *piece)
            if not upoly.is_zero(coeffs):
                n = len(coeffs)
                t = next(Fraction(k, n) for k in range(n)
                         if upoly.evaluate(coeffs, Fraction(k, n)))
                return False, piece_point(piece, t)
    return True, None


def wedge_check(y_field: PlanarField, yp_field: PlanarField,
                region: Region) -> WedgeVerdict:
    """Certify pointwise linear dependence of the two fields along the boundary
    of an isolating region; their indices must then agree.  One pass per
    boundary curve (`joint_boundary_pass`) certifies both margins and reads
    both indices off the same leaves, each arc's box and tables built once."""
    det = y_field.p * yp_field.q - y_field.q * yp_field.p
    dependent, witness = _dependent_on_boundary(det, region.boundary_curves())
    if not dependent:
        return WedgeVerdict("not_dependent", witness=witness)
    passes = joint_boundary_pass((y_field, yp_field), region)
    if passes is None:
        return WedgeVerdict("not_isolating")
    b1, b2 = passes
    if b1.index != b2.index:
        raise ContradictionError(
            f"boundary-dependent fields with certified margins {b1.margin}, "
            f"{b2.margin} have indices {b1.index} != {b2.index}"
        )
    return WedgeVerdict("equal", index=b1.index)


# The lift at (u, v) into (a, b), X read by {plan}: the `poly.plan_lines` of
# (P, Q), or one call of a torus field's `float_plan`.
_LIFT_POINT = """\
phi = atan2(v, u)
rho = hypot(u, v)
theta = 2.0 * phi
ct, st = cos(theta), sin(theta)
x, y = rho * ct, rho * st
{plan}
radial = r0 * ct + r1 * st
tangential = -r0 * st + r1 * ct
cp, sp = cos(phi), sin(phi)
a = radial * cp - 0.5 * tangential * sp
b = radial * sp + 0.5 * tangential * cp"""

# The lift, and its largest finite-difference quotient on the points
# `Circle.point(t)`, t = i / n for i = 0..n.
_LIFT_SOURCE = """\
def lift(u, v):
{lift}
    return (a, b)


def sweep(cx, cy, rf, sign, n):
    best = 0.0
    for i in range(n + 1):
        angle = 2.0 * pi * (i / n) * sign
        u, v = cx + rf * cos(angle), cy + rf * sin(angle)
{loop}
        if i:
            dp = hypot(u - pu, v - pv)
            dv = hypot(a - pa, b - pb)
            if dp > 0:
                q = dv / dp
                if q > best:
                    best = q
        pu, pv, pa, pb = u, v, a, b
    return best
"""


def make_double_cover_lift(field: PlanarField):
    """(lift, sweep) for the lift of the field under the angle-doubling cover
    of an origin-centered annulus: kappa(r, theta) = (r, 2 theta), bit for bit
    the lift of `eval_float`.  Their source, one per monomial pattern of
    (P, Q), is compiled once; a torus field's X is read through `float_plan`."""
    polys = (field.p, field.q)
    if all(isinstance(p, Poly2) for p in polys):
        names, lines = plan_lines(polys)
    else:
        names, lines = {"evaluate": float_plan(polys)}, ["r0, r1 = evaluate(x, y)"]
    point = _LIFT_POINT.format(plan="\n".join(lines)).splitlines()
    lift, loop = ("\n".join(" " * depth + line for line in point) for depth in (4, 8))
    names.update(atan2=math.atan2, hypot=math.hypot, cos=math.cos, sin=math.sin, pi=math.pi)
    exec(_compile_plan(_LIFT_SOURCE.format(lift=lift, loop=loop), "<lift>"), names)
    return names["lift"], names["sweep"]


def lift_double_cover(field: PlanarField, region: Region, block: Block | None = None):
    """Index-doubling check through the annulus double cover; returns the lifted
    evaluator and its index result.  A `block` certified for the same field
    and annulus lends its boundary pass; without one the pass is run here.

    The lift is radial * e_phi + tangential / 2 * e_phi', so
    |lift|^2 >= |X o kappa|^2 / 4, and kappa maps each boundary circle onto
    itself: half the certified boundary margin of X is a certified margin for
    the lift.  The lifted winding is still sampled at float points with a
    finite-difference Lipschitz estimate, so the result is `certified: false`.
    """
    if region.kind != ANNULUS or region.center != (Fraction(0), Fraction(0)):
        raise ValueError("double cover lift needs an origin-centered annulus")
    if block is None:
        base = min_norm_on_boundary(field, region)
    elif (block.field, block.region) == (field, region):
        base = block.boundary
    else:
        raise ValueError("the block certifies another field or region")
    if base is None or base.margin <= 0:
        raise CertificationFailed("field not certified nonvanishing on the annulus boundary")
    lifted, sweep = make_double_cover_lift(field)
    margin = base.margin / 2

    def sampled_winding(curve) -> tuple[int, int]:
        """(winding, samples) of the lift along the curve, sampled uniformly
        finer than margin / (sampled Lipschitz estimate)."""
        lipschitz = sampled_lipschitz(sweep, curve)
        need = _LIPSCHITZ_SAFETY * lipschitz * curve.length_upper() / float(margin)
        samples = max(16, int(math.ceil(need)))
        if samples > _WINDING_BUDGET:
            raise CertificationFailed(f"winding needs {samples} samples, over the budget")
        total = 0.0
        first = prev = lifted(*curve.point(0.0))
        for i in range(1, samples + 1):
            cur = first if i == samples else lifted(*curve.point(i / samples))
            step = math.atan2(prev[0] * cur[1] - prev[1] * cur[0],
                              prev[0] * cur[0] + prev[1] * cur[1])
            if abs(step) >= math.pi / 2:
                raise CertificationFailed(f"angular step {step:.3f} rad exceeds pi/2")
            total += step
            prev = cur
        winding = round(total / (2.0 * math.pi))
        if abs(total / (2.0 * math.pi) - winding) >= 0.25:
            raise CertificationFailed("winding rounding residual >= 0.25")
        return winding, samples

    windings = [sampled_winding(curve) for curve in region.boundary_curves()]
    index = sum(w for w, _ in windings)
    if index != 2 * base.index:
        raise ContradictionError(f"lifted index {index} != 2 * base index {base.index}")
    return lifted, IndexResult(index, margin, sum(n for _, n in windings),
                               essential=index != 0, certified=False)
