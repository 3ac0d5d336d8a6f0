"""Reference boundary passes: a region's index, and a homotopy check with
one boundary pass per sample t = i/steps.

`index.homotopy_invariance_check` certifies every t in [0, 1] at once
(`certify.segment_clear`); wherever that certificate holds, every sampled
pass below succeeds and reads the same index.
"""

from dataclasses import replace
from fractions import Fraction

from vfblock.errors import BoundaryZero, ContradictionError
from vfblock.index import HomotopyVerdict, IndexResult, min_norm_on_boundary


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
