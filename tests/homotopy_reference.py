"""Reference boundary passes: a region's index, a homotopy check with one
boundary pass per sample t = i/steps, and the homotopy and wedge checks
that subdivide each curve once per test.

`index.homotopy_invariance_check` certifies every t in [0, 1] at once;
wherever that certificate holds, every sampled pass below succeeds and
reads the same index.  `segment_clear` and the separate end passes of
`homotopy_check_reference`, and the two passes of `wedge_check_reference`,
are the checks that `certify.joint_boundary_pass` runs in one subdivision:
both must give the same verdicts.
"""

from dataclasses import replace
from fractions import Fraction

from vfblock import interval as iv
from vfblock.certify import _INITIAL_ARCS, _LEAF_BUDGET
from vfblock.config import default_max_depth
from vfblock.errors import BoundaryZero, ContradictionError
from vfblock.index import (HomotopyVerdict, IndexResult, WedgeVerdict,
                           _dependent_on_boundary, min_norm_on_boundary)
from vfblock.poly import _ring_plans


def region_index(field, region) -> IndexResult:
    """Index of X in U from one boundary pass that stops at the first positive
    bound on every arc; raises BoundaryZero when there is none."""
    boundary = min_norm_on_boundary(field, region, tol=1)
    if boundary is None:
        raise BoundaryZero("X is not certified nonvanishing on the boundary")
    return IndexResult(boundary.index, boundary.margin, boundary.arcs,
                       essential=boundary.index != 0, certified=True)


def sampled_homotopy_check(x0, x1, region, steps: int) -> HomotopyVerdict:
    """Boundary nonvanishing and a constant index at the samples t = i/steps
    only: the field at t is x0 + t (x1 - x0), and x1 itself at t = 1."""
    d = x1 - x0
    indices = []
    for i in range(steps + 1):
        t = Fraction(i, steps)
        xt = replace(x1, k=d.k) if i == steps else x0 + d.scale(t)
        if xt.is_zero():
            return HomotopyVerdict("degenerate", t=t)
        boundary = min_norm_on_boundary(xt, region, tol=1)
        if boundary is None:
            return HomotopyVerdict("degenerate", t=t)
        indices.append(boundary.index)
    if any(idx != indices[0] for idx in indices):
        raise ContradictionError(
            f"index changed along a certified-nonvanishing homotopy: {indices}")
    return HomotopyVerdict("invariant", index=indices[0])


def segment_clear(x0, x1, curve) -> bool:
    """Whether (1 - t) X0 + t X1 is certified nonzero on the closed curve for
    every t in [0, 1]: arcs are split depth first until the interval images
    give lo(X0 . X1) > 0 or 0 not in det(X0, X1), under the width and leaf
    budget of `winding_stats`."""
    min_width = 0.5 ** default_max_depth()
    scalars = x0.p, x0.q, x1.p, x1.q
    build, nx, ny, _ = _ring_plans(scalars)
    stack = [(i / _INITIAL_ARCS, (i + 1) / _INITIAL_ARCS) for i in range(_INITIAL_ARCS)][::-1]
    splits = 0
    while stack:
        t0, t1 = stack.pop()
        ix, iy, tables = curve.tables_of(t0, t1, build, nx, ny)
        a0, b0, a1, b1 = (s.eval_interval(ix, iy, tables) for s in scalars)
        if iv.add(iv.mul(a0, a1), iv.mul(b0, b1))[0] > 0.0:
            continue
        lo, hi = iv.sub(iv.mul(a0, b1), iv.mul(b0, a1))
        if lo > 0.0 or hi < 0.0:
            continue
        if (t1 - t0) < min_width or splits >= _LEAF_BUDGET:
            return False
        tm = 0.5 * (t0 + t1)
        stack += [(tm, t1), (t0, tm)]
        splits += 1
    return True


def homotopy_check_reference(x0, x1, region, steps: int) -> HomotopyVerdict:
    """`homotopy_invariance_check` by `segment_clear` on each curve, then one
    `min_norm_on_boundary` per end, then the same step locator."""
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


def wedge_check_reference(y_field, yp_field, region) -> WedgeVerdict:
    """`wedge_check` by one `min_norm_on_boundary` per field."""
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
