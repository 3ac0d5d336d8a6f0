"""Reference boxes: fresh axis tables for every box, the quadtree one cell
at a time, and rectangle arc boxes in exact arithmetic.

`certify.winding_stats` reads memoised per-arc tables (`_Curve.tables_of`)
and must give what `box_evaluator` gives.  The quadtree reads shared
per-column and per-row tables (`poly.cell_test`) and must give what
`zero_enclosure_reference` gives with `cell_evaluator`: the exact natural
extension (`exact_evaluator`) for Poly2 scalars, the float one otherwise.
Run with `float_evaluator` on Poly2 scalars, the reference is the float
descent that the exact one refines.
`RectLoop.box_of` works in integers and must give what `rect_box_of` gives.
`contains_point` decides point membership in an enclosure's closed cells on
the grid's integer-scaled corners (`Grid.scaled_boxes`).
"""

from fractions import Fraction

from vfblock import interval as iv
from vfblock.certify import _root_box
from vfblock.config import default_max_depth
from vfblock.errors import DepthLimitExceeded
from vfblock.poly import Poly2, _frac, _ring_plans
from vfblock.regions import box_intersects_closure, piece_point


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


def float_evaluator(scalars):
    """Evaluator (x0, y0, x1, y1) -> `box_evaluator`'s enclosures over the
    exact box rounded outward to floats: the float cell test."""
    evaluate = box_evaluator(scalars)

    def on_box(box):
        x0, y0, x1, y1 = box
        return evaluate((iv.make(x0)[0], iv.make(x1)[1]), (iv.make(y0)[0], iv.make(y1)[1]))

    return on_box


def _power_range(lo: Fraction, hi: Fraction, k: int):
    """The exact (min, max) of x^k over [lo, hi]: an extreme of x^k on an
    interval lies at an endpoint or at the critical point 0."""
    values = [lo ** k, hi ** k] + ([Fraction(0)] if lo < 0 < hi and k else [])
    return min(values), max(values)


def exact_evaluator(scalars):
    """Evaluator (x0, y0, x1, y1) -> lazy iterator, per Poly2 scalar, of the
    exact natural extension in Fractions: the sum of c * (x^i * y^j) over
    its monomials, each product of ranges by the four-product rule."""
    def on_box(box):
        x0, y0, x1, y1 = box
        for s in scalars:
            lo = hi = Fraction(0)
            for (i, j), c in s.monomials().items():
                (a0, a1), (b0, b1) = _power_range(x0, x1, i), _power_range(y0, y1, j)
                products = [c * a * b for a in (a0, a1) for b in (b0, b1)]
                lo, hi = lo + min(products), hi + max(products)
            yield lo, hi

    return on_box


def cell_evaluator(scalars):
    """The quadtree's cell test: exact for Poly2 scalars, float otherwise."""
    exact = all(isinstance(s, Poly2) for s in scalars)
    return (exact_evaluator if exact else float_evaluator)(scalars)


def zero_enclosure_reference(scalars, region, resolution, max_depth=None, centred=True,
                             evaluator=cell_evaluator):
    """Reference quadtree: one `evaluator(scalars)` call per cell on the
    cell's exact box.  With `centred`, Poly2 scalars on a grid of depth > 0
    whose root box has a nonzero centre c are tested as s.translate(c) on the
    cell shifted by -c at every depth, and as themselves on the cell at the
    final depth; without it, as themselves at every depth.  Returns the cells
    and the certificate counters."""
    resolution = Fraction(resolution)
    if max_depth is None:
        max_depth = default_max_depth()
    x0, y0, x1, _ = _root_box(region)
    side = x1 - x0
    depth = 0
    while 2 * side * side > resolution * resolution * 4 ** depth:
        depth += 1
    c = (x0 + side / 2, y0 + side / 2)
    natural = evaluator(scalars)
    shift = (centred and depth > 0 and c != (0, 0)
             and all(isinstance(s, Poly2) for s in scalars))
    evaluate = evaluator([s.translate(*c) for s in scalars]) if shift else natural
    cx, cy = c if shift else (0, 0)

    def admits_zero(on_box, *box):
        return all(iv.contains_zero(v) for v in on_box(box))

    examined = discarded_geom = discarded_iv = depth_used = 0
    kept = []
    stack = [(0, 0, 0)]
    while stack:
        i, j, d = stack.pop()
        examined += 1
        depth_used = max(depth_used, d)
        w = side / 2 ** d
        bx, by = x0 + i * w, y0 + j * w
        if not box_intersects_closure(region, (bx, by, bx + w, by + w)):
            discarded_geom += 1
            continue
        if not admits_zero(evaluate, bx - cx, by - cy, bx + w - cx, by + w - cy):
            discarded_iv += 1
            continue
        if d == depth:
            if shift and not admits_zero(natural, bx, by, bx + w, by + w):
                discarded_iv += 1
            else:
                kept.append((i, j))
            continue
        if d >= max_depth:
            raise DepthLimitExceeded(f"resolution {resolution} unreachable")
        i, j, d = 2 * i, 2 * j, d + 1
        stack += [(i, j, d), (i + 1, j, d), (i, j + 1, d), (i + 1, j + 1, d)]
    kept.sort()
    return kept, examined, discarded_geom, discarded_iv, depth_used


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
