"""Certified Poincare-Hopf indices from one boundary pass.

The index of X in U is the degree of X/|X| along the oriented boundary of U,
read off the leaf arcs that certify the boundary margin: each leaf's interval
image lies in one open half-plane p > 0, q > 0, p < 0 or q < 0, and the degree
is the sum of the quarter turns between neighbouring leaves over 4 (Stenger
1975, Kearfott 1979; see `certify.winding_stats`, re-exported here).  Only the
annulus double-cover lift, a float evaluator compiled once per lift
(`poly.float_plan`), is still sampled.

An arc's interval box, and its axis tables for a coefficient ring, depend on
the curve, not on the field.  Each curve memoises them (`_Curve.tables_of`
in `regions`), and `Region.boundary_curves` memoises the curves of the last
region asked: the passes of one homotopy or wedge check, and consecutive
checks on an equal region, share them.  A homotopy is certified for every
t in [0, 1] by one subdivision of the boundary (`certify.segment_clear`)
plus the passes of its two ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import interval as iv
from .certify import (Block, BoundaryPass, min_norm_on_boundary,  # noqa: F401 (re-export)
                      segment_clear, winding_stats)
from .config import DEFAULTS
from .errors import CertificationFailed, ContradictionError, PreconditionFailed
from .fields import PlanarField
from .poly import Poly2, _frac, _frac_str, float_plan, restrict
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


def sampled_lipschitz(evalf, curve) -> float:
    """Finite-difference Lipschitz estimate along a curve, with a safety factor."""
    best = 0.0
    prev_p = curve.point(0.0)
    prev_v = evalf(*prev_p)
    for i in range(1, _LIPSCHITZ_SAMPLES + 1):
        p = curve.point(i / _LIPSCHITZ_SAMPLES)
        v = evalf(*p)
        dp = math.hypot(p[0] - prev_p[0], p[1] - prev_p[1])
        dv = math.hypot(v[0] - prev_v[0], v[1] - prev_v[1])
        if dp > 0:
            best = max(best, dv / dp)
        prev_p, prev_v = p, v
    return best * DEFAULTS.sampled_lipschitz_safety + 1e-300


def block_index(block: Block) -> IndexResult:
    """Poincare-Hopf index of the block, with its essentiality flag; read from
    the boundary pass that certified the block."""
    return IndexResult(block.index, block.boundary_margin, block.arcs,
                       essential=block.index != 0, certified=True)


def perturbation_bound(block: Block) -> Fraction:
    """A sup-distance delta such that any field within delta of X on cl(U) has
    no boundary zeros and the same index (straight-line homotopy argument)."""
    return block.boundary_margin


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
    every t in [0, 1] (`segment_clear`); the index, read at t = 0 and 1, is
    then constant.  If that certificate refuses, the step fields at
    t = i/steps (x0 + t (x1 - x0), x1 itself at t = 1: the terms of
    x0.scale(1 - t) + x1.scale(t)) only locate the first t whose field is
    zero or not certified nonvanishing; if none is, the verdict is
    degenerate without t.  Degenerate verdicts are honest failures of
    certification, not counterexamples.  All passes share the region's
    memoised curves."""
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ValueError(f"steps must be an int, got {steps!r}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    x0._same_surface(x1)
    if all(segment_clear(x0, x1, curve) for curve in region.boundary_curves()):
        ends = [min_norm_on_boundary(x, region, tol=1) for x in (x0, x1)]
        if None not in ends:
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
    of an isolating region; their indices must then agree.  Both boundary
    passes run over the region's memoised boundary curves and so share their
    arc boxes and axis tables."""
    det = y_field.p * yp_field.q - y_field.q * yp_field.p
    dependent, witness = _dependent_on_boundary(det, region.boundary_curves())
    if not dependent:
        return WedgeVerdict("not_dependent", witness=witness)
    b1 = min_norm_on_boundary(y_field, region, tol=1)
    b2 = min_norm_on_boundary(yp_field, region, tol=1)
    if b1 is None or b2 is None:
        return WedgeVerdict("not_isolating")
    if b1.index != b2.index:
        raise ContradictionError(
            f"boundary-dependent fields with certified margins {b1.margin}, "
            f"{b2.margin} have indices {b1.index} != {b2.index}"
        )
    return WedgeVerdict("equal", index=b1.index)


def make_double_cover_lift(field: PlanarField):
    """Evaluator for the lift of the field under the angle-doubling cover of an
    origin-centered annulus: kappa(r, theta) = (r, 2 theta).  X is read
    through one `poly.float_plan` per lift, bit for bit `eval_float`."""
    evaluate = float_plan((field.p, field.q))

    def lifted(u: float, v: float) -> tuple[float, float]:
        phi = math.atan2(v, u)
        rho = math.hypot(u, v)
        theta = 2.0 * phi
        ct, st = math.cos(theta), math.sin(theta)
        wx, wy = evaluate(rho * ct, rho * st)
        radial = wx * ct + wy * st
        tangential = -wx * st + wy * ct
        cp, sp = math.cos(phi), math.sin(phi)
        return (radial * cp - 0.5 * tangential * sp,
                radial * sp + 0.5 * tangential * cp)

    return lifted


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
        base = BoundaryPass(block.boundary_margin, block.index, block.arcs)
    else:
        raise ValueError("the block certifies another field or region")
    if base is None or base.margin <= 0:
        raise CertificationFailed("field not certified nonvanishing on the annulus boundary")
    lifted = make_double_cover_lift(field)
    margin = base.margin / 2

    def sampled_winding(curve) -> tuple[int, int]:
        """(winding, samples) of the lift along the curve, sampled uniformly
        finer than margin / (sampled Lipschitz estimate)."""
        lipschitz = sampled_lipschitz(lifted, curve)
        need = DEFAULTS.lipschitz_safety * lipschitz * curve.length_upper() / float(margin)
        samples = max(16, int(math.ceil(need)))
        if samples > DEFAULTS.winding_budget:
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
