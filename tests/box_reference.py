"""Reference interval evaluator: fresh axis tables for every box.

`certify.winding_stats` reads memoised per-arc tables (`_Curve.tables_of`)
and the quadtree reads shared per-column and per-row tables
(`poly.cell_test`); both must give what this gives.
"""

from vfblock.poly import _ring_plans


def box_evaluator(scalars):
    """Evaluator (ix, iy) -> lazy iterator of `s.eval_interval(ix, iy)` over
    the scalars, in order, bit for bit; scalars of one ring (else TypeError)
    share one table per axis per box, built anew for each box."""
    build, nx, ny, _ = _ring_plans(scalars)

    def evaluate(ix, iy):
        tables = (build(ix, nx), build(iy, ny))
        return (s.eval_interval(ix, iy, tables) for s in scalars)

    return evaluate
