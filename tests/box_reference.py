"""Reference boxes: fresh axis tables for every box, and rectangle arc boxes
in exact arithmetic.

`certify.winding_stats` reads memoised per-arc tables (`_Curve.tables_of`)
and the quadtree reads shared per-column and per-row tables
(`poly.cell_test`); both must give what `box_evaluator` gives.
`RectLoop.box_of` works in integers and must give what `rect_box_of` gives.
`contains_point` decides point membership in an enclosure's closed cells on
the grid's integer-scaled corners (`Grid.scaled_boxes`).
"""

from fractions import Fraction

from vfblock import interval as iv
from vfblock.poly import _frac, _ring_plans
from vfblock.regions import piece_point


def contains_point(enc, point) -> bool:
    """Whether the exact point lies in a closed cell of the enclosure."""
    n, boxes = enc.grid.scaled_boxes(enc.cells, *point)
    x, y = (int(_frac(v) * n) for v in point)
    return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in boxes)


def box_evaluator(scalars):
    """Evaluator (ix, iy) -> lazy iterator of `s.eval_interval(ix, iy)` over
    the scalars, in order, bit for bit; scalars of one ring (else TypeError)
    share one table per axis per box, built anew for each box."""
    build, nx, ny, _ = _ring_plans(scalars)

    def evaluate(ix, iy):
        tables = (build(ix, nx), build(iy, ny))
        return (s.eval_interval(ix, iy, tables) for s in scalars)

    return evaluate


def exact_point(loop, t: Fraction) -> tuple[Fraction, Fraction]:
    """The point of a `RectLoop` at parameter t in [0, 1], in exact arithmetic."""
    prev = Fraction(0)
    for piece, b in zip(loop.pieces(), loop.breaks):
        if t <= b:
            return piece_point(piece, (t - prev) / (b - prev))
        prev = b
    raise ValueError(f"parameter {t} outside [0, 1]")


def rect_box_of(loop, t0: float, t1: float):
    """`RectLoop.box_of` in `Fraction`s: the endpoints of the arc and the
    vertices strictly between them, each bound rounded by `iv.make`."""
    pts = [exact_point(loop, Fraction(t0)), exact_point(loop, Fraction(t1))]
    pts += [loop.vertices[(e + 1) % 4] for e, b in enumerate(loop.breaks)
            if t0 < b < t1]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    return ((iv.make(min(xs))[0], iv.make(max(xs))[1]),
            (iv.make(min(ys))[0], iv.make(max(ys))[1]))
