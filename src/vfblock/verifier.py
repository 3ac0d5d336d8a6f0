"""Mechanical verification of the main theorems on concrete scenarios.

Each verifier certifies the hypotheses and then checks the conclusion against
certified enclosures.  A ConclusionFailed overall status with every hypothesis
certified would contradict a proved theorem; it is reported with maximal
diagnostics and drives a nonzero exit code through the CLI.  Overlapping
enclosures never prove intersection by themselves: conclusions of the form
"the zero sets meet" pass on overlap (consistency), while disjointness of the
certified outer enclosures is a proof of empty intersection.

Every question about K (is X k-flat on it, do Z(Y) or Z(g) meet it) is
answered by one descent near K's cells on K's grid, `_near_k`, so with a
certified block each theorem runs one quadtree over all of closure(U).

MAIN runs as LIEALG's one-element case, g = span{Y}, through one pipeline,
`_verify_meets_k`; only the theorem's own hypotheses differ, so MAIN builds no
structure constants.  Known zeros outside closure(U) are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from itertools import islice, takewhile

from .certify import (Block, ZeroEnclosure, certify_block, components,
                      meeting_cells, restrict_block, zero_enclosure,
                      zero_enclosure_scalars)
from .config import DEFAULT_RESOLUTION, DEFAULT_TOL
from .errors import CertificationFailed, VfblockError
from .fields import PlanarField, jet_order, partials_by_order
from .flows import flowbox_build
from .index import block_index
from .liealg import (LieAlgebraPresentation, algebra_tracks, common_zero_set,
                     structure_constants, supersolvable_flag)
from .linefield import angle_mod_pi, flowbox_line_field
from .poly import _frac, _frac_str
from .regions import (Region, annulus, box_intersects_closure, box_max_dist_sq,
                      box_min_dist_sq, disk, disk_like_within)
from .tracking import polish_zero, tracks_symbolic

MAIN = "MAIN"
MAINBIS = "MAINBIS"
LIEALG = "LIEALG"

PASS, INCONCLUSIVE, FAIL, ERROR = "pass", "inconclusive", "fail", "error"
NOT_IMPLEMENTED = "not_implemented"     # reported in a check, never ranked
# The verdict ladder, mildest first, with each verdict's exit code: a report,
# or a batch of them, exits with the code of its worst verdict.
EXIT_CODE = {PASS: 0, INCONCLUSIVE: 3, FAIL: 1, ERROR: 2}
STATUS_VERDICT = {"Pass": PASS, "Inconclusive": INCONCLUSIVE,
                  "HypothesisFailed": FAIL, "ConclusionFailed": FAIL}


def worst(verdicts) -> str:
    """The verdict of `verdicts` highest on the ladder; PASS if there is none."""
    return max(verdicts, key=list(EXIT_CODE).index, default=PASS)


@dataclass
class CheckRecord:
    name: str
    verdict: str
    data: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "verdict": self.verdict, "data": self.data}


@dataclass
class TheoremReport:
    theorem: str
    hypothesis_checks: list[CheckRecord]
    conclusion_checks: list[CheckRecord]

    @property
    def overall(self) -> dict:
        hyp, concl = self.hypothesis_checks, self.conclusion_checks
        for checks, verdict, status in ((hyp, FAIL, "HypothesisFailed"),
                                        (hyp, INCONCLUSIVE, "Inconclusive"),
                                        (concl, FAIL, "ConclusionFailed"),
                                        (concl, INCONCLUSIVE, "Inconclusive")):
            for c in checks:
                if c.verdict == verdict:
                    return {"status": status, "name": c.name}
        return {"status": "Pass"}

    @property
    def verdict(self) -> str:
        return STATUS_VERDICT[self.overall["status"]]

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.verdict]

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [c.to_json() for c in self.hypothesis_checks],
            "conclusions": [c.to_json() for c in self.conclusion_checks],
            "overall": self.overall,
        }


def kflat_locus_enclosure(field: PlanarField, region: Region, k: int,
                          resolution, near: ZeroEnclosure | None = None) -> ZeroEnclosure:
    """Enclosure of the set where every jet of the field through order k
    vanishes; empty means the field is nowhere k-flat on closure(U).  Orders
    stop at the first all-zero one: a zero scalar never discards a cell."""
    scalars = [d for comp in (field.p, field.q)
               for order in takewhile(any, islice(partials_by_order(comp), k + 1))
               for d in order]
    return zero_enclosure_scalars(scalars, region, resolution, near=near)


def _check_not_kflat(field: PlanarField, region: Region, k: int, resolution,
                     known_zeros, block: Block | None) -> CheckRecord:
    """Every k-flat point of X in closure(U) is a zero of X, so it lies in
    K's cells: the locus is enclosed near K (over all of closure(U) without a
    certified block), and an exact zero of X found there is tested for
    flatness like a known zero."""
    name = f"X not {k}-flat on K"
    data = {}
    for z in known_zeros:
        jo = jet_order(field, z, k)
        data.setdefault("orders_at_known_zeros", []).append(jo.to_json())
        if jo.is_flat:
            data["flat_witness"] = [str(_frac(z[0])), str(_frac(z[1]))]
            return CheckRecord(name, FAIL, data)
    try:
        locus, _, zero = _near_k(
            lambda near: kflat_locus_enclosure(field, region, k, resolution, near),
            (), field, region, block, ())
    except VfblockError as e:
        data["error"] = str(e)
        return CheckRecord(name, INCONCLUSIVE, data)
    data["kflat_locus_boxes"] = len(locus.cells)
    if locus.is_empty:
        return CheckRecord(name, PASS, data)
    if zero is not None and jet_order(field, zero, k).is_flat:
        data["flat_witness"] = zero
        return CheckRecord(name, FAIL, data)
    return CheckRecord(name, INCONCLUSIVE, data)


def _check_tracking(y_field: PlanarField, x_field: PlanarField) -> CheckRecord:
    name = "Y tracks X"
    try:
        cert = tracks_symbolic(y_field, x_field)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    return CheckRecord(name, PASS if cert.verdict else FAIL,
                       {"certificate": cert.to_json()})


def _check_essential_block(field: PlanarField, region: Region, resolution):
    """The record, the certified block (or None) and its index result."""
    name = "K is an essential X-block"
    try:
        block = certify_block(field, region, resolution)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)}), None, None
    result = block_index(block)
    record = CheckRecord(name, PASS if result.essential else FAIL,
                         {"index": result.to_json(),
                          "enclosure_boxes": len(block.enclosure.cells)})
    return record, block, result


def _verified_exact_zero(field: PlanarField, point) -> bool:
    try:
        vx, vy = field.eval_exact(_frac(point[0]), _frac(point[1]))
    except Exception:
        return False
    return not (vx or vy)


def _common_zero_witness(x_field: PlanarField, fields, region: Region,
                         known_zeros, centers):
    """An exact rational point of Z(X) n cl(U) where every field of `fields`
    vanishes too, if one can be pinned: a known zero (in closure(U) and an
    exact zero of X, as the k-flat check's `jet_order` raises on any other),
    or a zero of X polished from one of the centres and rounded to a small
    denominator."""
    for z in known_zeros:
        zf = (_frac(z[0]), _frac(z[1]))
        if all(_verified_exact_zero(f, zf) for f in fields):
            return zf
    for c in centers:
        p = polish_zero(x_field, c)
        for den in (1, 2, 4, 8, 16, 1024):
            zr = (Fraction(p[0]).limit_denominator(den),
                  Fraction(p[1]).limit_denominator(den))
            if region.contains_point_closed(zr) and all(
                    _verified_exact_zero(f, zr) for f in (x_field, *fields)):
                return zr
    return None


def _near_k(enclose, fields, x_field, region, block, known_zeros):
    """The one descent for a question about K.  `enclose(near)` encloses a
    zero set on K's grid, with `near` K's enclosure, so only the cells within
    one cell of K's are kept (`near` is None without a certified block, and
    the set is enclosed over all of closure(U)).  Returns that enclosure,
    whether it meets K's cells (is nonempty, without a block) and, if it
    does, an exact common zero of X and `fields` in closure(U) as JSON, or
    None."""
    near = None if block is None else block.enclosure
    enc = enclose(near)
    cells = list(islice(enc.cells if near is None else meeting_cells(near, enc), 8))
    if not cells:
        return enc, False, None
    w = _common_zero_witness(x_field, fields, region, known_zeros, enc.grid.centers(cells))
    return enc, True, w and [_frac_str(w[0]), _frac_str(w[1])]


def _zeros_meet_k(enclose, fields, x_field, region, resolution, block, known_zeros):
    """The conclusion of every theorem about K: `_near_k` for the common zeros
    of `fields`, enclosed by `enclose(region, resolution, near)`.  Raises
    VfblockError without a certified block."""
    if block is None:
        raise CertificationFailed("no certified block")
    return _near_k(lambda near: enclose(region, resolution, near), fields,
                   x_field, region, block, known_zeros)


# per theorem: the conclusion's name and the keys of its cell count and enclosure
_CONCLUSION = {MAIN: ("Z(Y) n K is nonempty", "y_zero_boxes", None),
               LIEALG: ("Z(g) n K is nonempty", "zg_boxes", "zg_enclosure")}


def _verify_meets_k(theorem, hypotheses, enclose, fields, x_field: PlanarField,
                    region: Region, k, resolution, known_zeros) -> TheoremReport:
    """The one path of MAIN and LIEALG.  Hypotheses: essential block, X
    nowhere k-flat on K, then the theorem's own `hypotheses()`.  Conclusion:
    the common zeros of `fields` (see `_zeros_meet_k`) meet K."""
    known_zeros = [z for z in known_zeros if region.contains_point_closed(z)]
    essential, block, _ = _check_essential_block(x_field, region, resolution)
    hyp = [essential,
           _check_not_kflat(x_field, region, k, resolution, known_zeros, block),
           *hypotheses()]
    name, boxes_key, enclosure_key = _CONCLUSION[theorem]
    try:
        enc, overlap, witness = _zeros_meet_k(enclose, fields, x_field, region,
                                              resolution, block, known_zeros)
    except VfblockError as e:
        return TheoremReport(theorem, hyp, [CheckRecord(name, INCONCLUSIVE,
                                                        {"error": str(e)})])
    data = {boxes_key: len(enc.cells), "k_boxes": len(block.enclosure.cells),
            "enclosures_overlap": overlap}
    if enclosure_key is not None:
        data[enclosure_key] = enc.to_json() if len(enc.cells) <= 64 else None
    if witness is not None:
        data["witness"] = witness
    # certified disjoint outer enclosures prove the intersection empty
    concl = CheckRecord(name, PASS if overlap else FAIL, data)
    return TheoremReport(theorem, hyp, [concl])


def verify_main(x_field: PlanarField, y_field: PlanarField, region: Region,
                k: int = 1, resolution=DEFAULT_RESOLUTION, known_zeros=()) -> TheoremReport:
    """Hypotheses: essential block, nowhere k-flat on K, Y tracks X.
    Conclusion: Z(Y) meets K."""
    return _verify_meets_k(MAIN, lambda: [_check_tracking(y_field, x_field)],
                           partial(zero_enclosure, y_field), [y_field],
                           x_field, region, k, resolution, known_zeros)


def _check_zy_disjoint_from_k(x_field, y_field, region, block, resolution,
                              known_zeros) -> CheckRecord:
    name = "Z(Y) n K is empty"
    try:
        y_enc, overlap, witness = _zeros_meet_k(partial(zero_enclosure, y_field),
                                                [y_field], x_field, region,
                                                resolution, block, known_zeros)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    data = {"y_zero_boxes": len(y_enc.cells)}
    if not overlap:
        return CheckRecord(name, PASS, data)
    if witness is not None:
        data["witness"] = witness
        return CheckRecord(name, FAIL, data)
    data["note"] = "enclosures overlap at this resolution; no exact witness found"
    return CheckRecord(name, INCONCLUSIVE, data)


def _flowbox_control_check(x_field: PlanarField, y_field: PlanarField, block: Block,
                           order: int, tol: float) -> CheckRecord:
    """Per-flowbox controlling line fields, on 4 base points spread over K:
    deviation of X from the pulled-back direction, continuity across the
    rectified axis, and pairwise consistency of overlapping flowboxes."""
    name = "X controlled by flowbox line fields"
    bases = [polish_zero(x_field, c) for c in block.enclosure.spread_centers(4)]
    if not bases:
        return CheckRecord(name, INCONCLUSIVE, {"error": "empty zero enclosure"})
    res = float(block.enclosure.resolution)
    half = min(0.1, 8 * res)
    window = 0.5
    boxes = []
    try:
        for base in bases:
            fb = flowbox_build(y_field, base, half, window, tol=1e-12)
            boxes.append((fb, *flowbox_line_field(fb, x_field, order)))
        data = _flowbox_deviations(x_field, boxes)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    worst = max(data["max_deviation"], data["axis_continuity"],
                data["overlap_deviation"])
    data["order"] = order
    return CheckRecord(name, PASS if worst < tol else FAIL, data)


def _flowbox_deviations(x_field: PlanarField, boxes) -> dict:
    """The three sampled deviations of `_flowbox_control_check` over the
    built (flowbox, line, chart_dir) triples."""
    threshold = 1e-9
    max_dev = 0.0
    for fb, _, chart_dir in boxes:
        for i in range(5):
            t = fb.time_window * 0.8 * (2 * i / 4 - 1)
            for j in range(5):
                s = fb.half_length * 0.8 * (2 * j / 4 - 1)
                pt, ycol, vcol = fb.frame(t, s)
                vx, vy = x_field.eval_float(*pt)
                if math.hypot(vx, vy) <= threshold:
                    continue
                d = chart_dir(t, s)
                direction = (ycol[0] * d[0] + vcol[0] * d[1],
                             ycol[1] * d[0] + vcol[1] * d[1])
                max_dev = max(max_dev, angle_mod_pi((vx, vy), direction))
    # continuity of the chart direction across the axis
    axis_dev = 0.0
    for fb, _, chart_dir in boxes:
        for i in range(5):
            t = fb.time_window * 0.8 * (2 * i / 4 - 1)
            d0 = chart_dir(t, 0.0)
            for s in (2e-4, -2e-4):
                ds = chart_dir(t, s)
                axis_dev = max(axis_dev, angle_mod_pi(d0, ds))
    # overlap consistency between consecutive flowboxes
    overlap_dev = 0.0
    overlaps = 0
    for (fb_a, line_a, _), (fb_b, line_b, _) in zip(boxes, boxes[1:] + boxes[:1]):
        if fb_a is fb_b:
            continue
        for i in range(5):
            t = fb_a.time_window * 0.9 * (2 * i / 4 - 1)
            pt = fb_a.forward(t, 0.33 * fb_a.half_length)
            if fb_b.inverse(pt) is None:
                continue
            overlaps += 1
            try:
                overlap_dev = max(overlap_dev, angle_mod_pi(line_a(*pt), line_b(*pt)))
            except ValueError:
                continue
    return {"max_deviation": max_dev, "axis_continuity": axis_dev,
            "overlap_deviation": overlap_dev, "overlap_points": overlaps,
            "flowboxes": len(boxes)}


def _component_indices_check(block: Block, comps, resolution) -> CheckRecord:
    """Index of each K-component (`components(block.enclosure)`) through an
    isolating sub-annulus (or sub-disk) built around its box cluster."""
    name = "index zero at each component"
    if not comps:
        return CheckRecord(name, INCONCLUSIVE, {"error": "empty enclosure"})
    resolution = _frac(resolution)
    pad = 4 * resolution
    grid = block.enclosure.grid
    m, sx, sy, h = grid.scaling()
    indices = []
    for comp in comps:
        k = len(comp.cells)
        si, sj = sum(i for i, _ in comp.cells), sum(j for _, j in comp.cells)
        cx = Fraction(2 * k * sx + h * (2 * si + k), 2 * k * m)
        cy = Fraction(2 * k * sy + h * (2 * sj + k), 2 * k * m)
        center = (cx.limit_denominator(64), cy.limit_denominator(64))
        n, boxes = grid.scaled_boxes(comp.cells, *center)
        boxes = list(boxes)
        c = (int(center[0] * n), int(center[1] * n))
        min_dsq = Fraction(min(box_min_dist_sq(b, c) for b in boxes), n * n)
        max_dsq = Fraction(max(box_max_dist_sq(b, c) for b in boxes), n * n)
        r_hi = Fraction(math.nextafter(math.sqrt(float(max_dsq)), math.inf)) + pad
        r_lo = Fraction(math.sqrt(float(min_dsq))) - pad
        if comp.loop_like and r_lo > 0:
            sub = annulus(center, r_lo, r_hi)
        else:
            sub = disk(center, r_hi)
        if not disk_like_within(sub, block.region):
            return CheckRecord(name, INCONCLUSIVE, {"error": "sub-region leaves closure(U)"})
        others = [cell for o in comps if o is not comp for cell in o.cells]
        n, boxes = grid.scaled_boxes(others, *sub.params)
        scaled = sub.scaled(n)
        if any(box_intersects_closure(scaled, b) for b in boxes):
            return CheckRecord(name, INCONCLUSIVE,
                               {"error": "sub-region cannot separate components"})
        try:
            sub_block = restrict_block(block, sub)
            idx = block_index(sub_block)
        except VfblockError as e:
            return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
        indices.append(idx.index)
    data = {"component_indices": indices}
    return CheckRecord(name, PASS if all(i == 0 for i in indices) else FAIL, data)


def verify_mainbis(x_field: PlanarField, y_field: PlanarField, region: Region,
                   k: int = 1, resolution=DEFAULT_RESOLUTION, tol: float = DEFAULT_TOL,
                   known_zeros=()) -> TheoremReport:
    """Hypotheses: nowhere k-flat on K, tracking, Z(Y) disjoint from K,
    isolating U.  Conclusions: index 0, circle components (heuristic), flowbox
    line-field control, per-component index 0; the zero-free approximation
    conclusion is reported not-implemented."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    known_zeros = [z for z in known_zeros if region.contains_point_closed(z)]
    essential, block, idx = _check_essential_block(x_field, region, resolution)
    hyp = [_check_not_kflat(x_field, region, k, resolution, known_zeros, block),
           _check_tracking(y_field, x_field),
           _check_zy_disjoint_from_k(x_field, y_field, region, block, resolution,
                                     known_zeros)]
    iso = "U is isolating for (X, K)"
    concl = []
    if block is None:
        hyp.append(CheckRecord(iso, INCONCLUSIVE, essential.data))
        for nm in ("(i) index of K is zero", "(ii) components are embedded circles",
                   "(iii) X controlled by flowbox line fields",
                   "(iv) index zero at each component"):
            concl.append(CheckRecord(nm, INCONCLUSIVE, {"error": "no certified block"}))
    else:
        hyp.append(CheckRecord(iso, PASS,
                               {"boundary_margin": _frac_str(block.boundary.margin)}))
        concl.append(CheckRecord("(i) index of K is zero",
                                 PASS if idx.index == 0 else FAIL,
                                 {"index": idx.to_json()}))
        comps = components(block.enclosure)
        loops = [c.loop_like for c in comps]
        concl.append(CheckRecord(
            "(ii) components are embedded circles",
            PASS if comps and all(loops) else (FAIL if comps else INCONCLUSIVE),
            {"components": len(comps), "loop_like": loops, "certified": False}))
        order = (known_zeros and jet_order(x_field, known_zeros[0], k).order) or 1
        cc = _flowbox_control_check(x_field, y_field, block, order, tol)
        concl.append(CheckRecord("(iii) " + cc.name, cc.verdict, cc.data))
        ci = _component_indices_check(block, comps, resolution)
        concl.append(CheckRecord("(iv) " + ci.name, ci.verdict, ci.data))
    concl.append(CheckRecord(
        "(v) zero-free approximation in U", NOT_IMPLEMENTED,
        {"note": "proof cites external results; reported as not implemented"}))
    return TheoremReport(MAINBIS, hyp, concl)


def _check_algebra(algebra: LieAlgebraPresentation,
                   x_field: PlanarField) -> list[CheckRecord]:
    """LIEALG's own hypotheses: the algebra is supersolvable and tracks X."""
    name_ss, name_tr = "algebra is supersolvable", "algebra tracks X"
    if not algebra.closed:
        return [CheckRecord(name_ss, FAIL,
                            {"error": f"not closed, witness {algebra.witness}"}),
                CheckRecord(name_tr, INCONCLUSIVE, {"error": "algebra not closed"})]
    try:
        flag = supersolvable_flag(algebra)
        ss = CheckRecord(name_ss, PASS if flag.status == "flag" else FAIL,
                         {"flag": flag.to_json()})
    except VfblockError as e:
        ss = CheckRecord(name_ss, INCONCLUSIVE, {"error": str(e)})
    tr = algebra_tracks(algebra, x_field)
    return [ss, CheckRecord(name_tr, PASS if tr.verdict else FAIL, tr.to_json())]


def verify_liealg(algebra, x_field: PlanarField, region: Region, k: int = 1,
                  resolution=DEFAULT_RESOLUTION, known_zeros=()) -> TheoremReport:
    """Hypotheses: essential block, nowhere k-flat on K, a supersolvable algebra
    tracking X.  Conclusion: the common zero set of the algebra meets K."""
    if not isinstance(algebra, LieAlgebraPresentation):
        algebra = structure_constants(list(algebra))
    return _verify_meets_k(LIEALG, lambda: _check_algebra(algebra, x_field),
                           partial(common_zero_set, algebra), algebra.basis,
                           x_field, region, k, resolution, known_zeros)
