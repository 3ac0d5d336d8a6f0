"""The double-cover lift as plain Python loops, an oracle for `vfblock.index`.

`lifted_reference` is the lift of a pointwise evaluator of X (the field's
`eval_float`, or its `poly.float_plan`), `sampled_lipschitz_reference` the
finite-difference sweep over `curve.point(i / 2048)` and
`lift_double_cover_reference` the whole check, its winding summed one
`atan2` step at a time.  Each point costs a `curve.point`, a `lifted` and an
evaluator call; the compiled source of `make_double_cover_lift` must give
the same floats, results and errors.
"""

from __future__ import annotations

import math

from vfblock import index
from vfblock.errors import CertificationFailed, ContradictionError
from vfblock.index import IndexResult, min_norm_on_boundary
from vfblock.poly import float_plan

LIPSCHITZ_SAMPLES = 2048


def lifted_reference(evaluate):
    """The lift of X, read by `evaluate(x, y)`, under the angle-doubling cover
    kappa(r, theta) = (r, 2 theta), pointwise."""

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


def sampled_lipschitz_reference(evalf, curve) -> float:
    """Finite-difference Lipschitz estimate along a curve, with a safety factor."""
    best = 0.0
    prev_p = curve.point(0.0)
    prev_v = evalf(*prev_p)
    for i in range(1, LIPSCHITZ_SAMPLES + 1):
        p = curve.point(i / LIPSCHITZ_SAMPLES)
        v = evalf(*p)
        dp = math.hypot(p[0] - prev_p[0], p[1] - prev_p[1])
        dv = math.hypot(v[0] - prev_v[0], v[1] - prev_v[1])
        if dp > 0:
            best = max(best, dv / dp)
        prev_p, prev_v = p, v
    return best * index._SAMPLED_LIPSCHITZ_SAFETY + 1e-300


def sampled_winding_reference(lifted, curve, margin) -> tuple[int, int]:
    """(winding, samples) of the lift along the curve, sampled uniformly
    finer than margin / (sampled Lipschitz estimate)."""
    lipschitz = sampled_lipschitz_reference(lifted, curve)
    need = index._LIPSCHITZ_SAFETY * lipschitz * curve.length_upper() / float(margin)
    samples = max(16, int(math.ceil(need)))
    if samples > index._WINDING_BUDGET:
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


def lift_double_cover_reference(field, region) -> IndexResult:
    """`index.lift_double_cover`'s IndexResult, from its own boundary pass."""
    base = min_norm_on_boundary(field, region)
    if base is None or base.margin <= 0:
        raise CertificationFailed("field not certified nonvanishing on the annulus boundary")
    lifted = lifted_reference(float_plan((field.p, field.q)))
    margin = base.margin / 2
    windings = [sampled_winding_reference(lifted, curve, margin)
                for curve in region.boundary_curves()]
    lifted_index = sum(w for w, _ in windings)
    if lifted_index != 2 * base.index:
        raise ContradictionError(f"lifted index {lifted_index} != 2 * base index {base.index}")
    return IndexResult(lifted_index, margin, sum(n for _, n in windings),
                       essential=lifted_index != 0, certified=False)
