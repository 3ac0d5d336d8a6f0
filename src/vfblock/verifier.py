"""Mechanical verification of the main theorems on concrete scenarios.

Each verifier certifies the hypotheses and then checks the conclusion against
certified enclosures.  A ConclusionFailed overall status with every hypothesis
certified would contradict a proved theorem; it is reported with maximal
diagnostics and drives a nonzero exit code through the CLI.  Overlapping
enclosures never prove intersection by themselves: conclusions of the form
"the zero sets meet" pass on overlap (consistency), while disjointness of the
certified outer enclosures is a proof of empty intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import islice

from .certify import (Block, ZeroEnclosure, certify_block, components,
                      enclosures_overlap, meeting_cells, restrict_block,
                      zero_enclosure, zero_enclosure_scalars)
from .config import DEFAULTS
from .errors import CertificationFailed, VfblockError
from .fields import PlanarField, jet_order, partials_by_order
from .flows import flowbox_build
from .index import block_index
from .liealg import (LieAlgebraPresentation, algebra_tracks, common_zero_set,
                     structure_constants, supersolvable_flag)
from .linefield import angle_mod_pi, flowbox_line_field
from .poly import _frac, _frac_str
from .regions import (Region, annulus, box_intersects_closure, box_max_dist_sq,
                      box_min_dist_sq, disk)
from .tracking import polish_zero, tracks_symbolic

MAIN = "MAIN"
MAINBIS = "MAINBIS"
LIEALG = "LIEALG"

PASS, FAIL, INCONCLUSIVE, NOT_IMPLEMENTED = "pass", "fail", "inconclusive", "not_implemented"


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
        for c in self.hypothesis_checks:
            if c.verdict == FAIL:
                return {"status": "HypothesisFailed", "name": c.name}
        for c in self.hypothesis_checks:
            if c.verdict == INCONCLUSIVE:
                return {"status": "Inconclusive", "name": c.name}
        for c in self.conclusion_checks:
            if c.verdict == FAIL:
                return {"status": "ConclusionFailed", "name": c.name}
        for c in self.conclusion_checks:
            if c.verdict == INCONCLUSIVE:
                return {"status": "Inconclusive", "name": c.name}
        return {"status": "Pass"}

    @property
    def exit_code(self) -> int:
        status = self.overall["status"]
        if status == "Pass":
            return 0
        if status in ("HypothesisFailed", "ConclusionFailed"):
            return 1
        return 3

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [c.to_json() for c in self.hypothesis_checks],
            "conclusions": [c.to_json() for c in self.conclusion_checks],
            "overall": self.overall,
        }


def kflat_locus_enclosure(field: PlanarField, region: Region, k: int,
                          resolution) -> ZeroEnclosure:
    """Enclosure of the set where every jet of the field through order k
    vanishes; empty means the field is nowhere k-flat on closure(U)."""
    scalars = [d for comp in (field.p, field.q)
               for order in islice(partials_by_order(comp), k + 1) for d in order]
    return zero_enclosure_scalars(scalars, region, resolution)


def _check_not_kflat(field: PlanarField, region: Region, k: int, resolution,
                     known_zeros) -> CheckRecord:
    name = f"X not {k}-flat on K"
    data = {}
    for z in known_zeros:
        jo = jet_order(field, z, k)
        data.setdefault("orders_at_known_zeros", []).append(jo.to_json())
        if jo.is_flat:
            data["flat_witness"] = [str(_frac(z[0])), str(_frac(z[1]))]
            return CheckRecord(name, FAIL, data)
    try:
        # an empty locus at any resolution is already a certificate; a coarse
        # pass keeps this check cheap
        locus = kflat_locus_enclosure(field, region, k,
                                      max(_frac(resolution), Fraction(1, 16)))
    except VfblockError as e:
        data["error"] = str(e)
        return CheckRecord(name, INCONCLUSIVE, data)
    data["kflat_locus_boxes"] = len(locus.cells)
    if locus.is_empty:
        return CheckRecord(name, PASS, data)
    return CheckRecord(name, INCONCLUSIVE, data)


def _check_tracking(y_field: PlanarField, x_field: PlanarField,
                    name: str = "Y tracks X") -> CheckRecord:
    try:
        cert = tracks_symbolic(y_field, x_field)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    return CheckRecord(name, PASS if cert.verdict else FAIL,
                       {"certificate": cert.to_json()})


def _certify_block_checked(field: PlanarField, region: Region, resolution):
    try:
        return certify_block(field, region, resolution), None
    except VfblockError as e:
        return None, str(e)


def _check_essential_block(field: PlanarField, region: Region, resolution):
    name = "K is an essential X-block"
    block, err = _certify_block_checked(field, region, resolution)
    if block is None:
        return CheckRecord(name, INCONCLUSIVE, {"error": err}), None, None
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
    for v in (vx, vy):
        if hasattr(v, "is_zero"):
            if not v.is_zero():
                return False
        elif v != 0:
            return False
    return True


def _common_zero_witness(x_field: PlanarField, y_field: PlanarField, region: Region,
                         known_zeros, centers):
    """An exact rational point of Z(X) n Z(Y) n cl(U), if one can be pinned."""
    for z in known_zeros:
        zf = (_frac(z[0]), _frac(z[1]))
        if region.contains_point_closed(zf) and _verified_exact_zero(y_field, zf):
            return zf
    for c in centers:
        p = polish_zero(x_field, c)
        for den in (1, 2, 4, 8, 16, 1024):
            zr = (Fraction(p[0]).limit_denominator(den),
                  Fraction(p[1]).limit_denominator(den))
            if (region.contains_point_closed(zr)
                    and _verified_exact_zero(x_field, zr)
                    and _verified_exact_zero(y_field, zr)):
                return zr
    return None


def _zy_meets_k(x_field, y_field, region, block, resolution, known_zeros):
    """Z(Y) enclosed on the grid of K's enclosure, only within one cell of
    K's cells (the cells that can meet them): that cell count, whether the
    two overlap and, on overlap, an exact common zero as JSON (or None).
    Raises VfblockError without a block or an enclosure of Z(Y)."""
    if block is None:
        raise CertificationFailed("no certified block")
    k_enc = block.enclosure
    y_enc = zero_enclosure(y_field, region, resolution, near=k_enc)
    centers = k_enc.grid.centers(islice(meeting_cells(k_enc, y_enc), 8))
    if not centers:
        return len(y_enc.cells), False, None
    w = _common_zero_witness(x_field, y_field, region, known_zeros, centers)
    return len(y_enc.cells), True, w and [_frac_str(w[0]), _frac_str(w[1])]


def verify_main(x_field: PlanarField, y_field: PlanarField, region: Region,
                k: int = 1, resolution=None, known_zeros=()) -> TheoremReport:
    """Hypotheses: essential block, nowhere k-flat on K, Y tracks X.
    Conclusion: Z(Y) meets K."""
    if resolution is None:
        resolution = DEFAULTS.default_resolution
    hyp = []
    essential, block, _ = _check_essential_block(x_field, region, resolution)
    hyp.append(essential)
    hyp.append(_check_not_kflat(x_field, region, k, resolution, known_zeros))
    hyp.append(_check_tracking(y_field, x_field))
    name = "Z(Y) n K is nonempty"
    try:
        y_boxes, overlap, witness = _zy_meets_k(x_field, y_field, region, block,
                                                resolution, known_zeros)
    except VfblockError as e:
        concl = CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
        return TheoremReport(MAIN, hyp, [concl])
    data = {"y_zero_boxes": y_boxes, "k_boxes": len(block.enclosure.cells),
            "enclosures_overlap": overlap}
    if witness is not None:
        data["witness"] = witness
    # certified disjoint outer enclosures prove Z(Y) n K is empty
    concl = CheckRecord(name, PASS if overlap else FAIL, data)
    return TheoremReport(MAIN, hyp, [concl])


def _check_zy_disjoint_from_k(x_field, y_field, region, block, resolution,
                              known_zeros) -> CheckRecord:
    name = "Z(Y) n K is empty"
    try:
        y_boxes, overlap, witness = _zy_meets_k(x_field, y_field, region, block,
                                                resolution, known_zeros)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    data = {"y_zero_boxes": y_boxes}
    if not overlap:
        return CheckRecord(name, PASS, data)
    if witness is not None:
        data["witness"] = witness
        return CheckRecord(name, FAIL, data)
    data["note"] = "enclosures overlap at this resolution; no exact witness found"
    return CheckRecord(name, INCONCLUSIVE, data)


def _spread_base_points(x_field: PlanarField, block: Block, n: int):
    return [polish_zero(x_field, c) for c in block.enclosure.spread_centers(n)]


def _flowbox_control_check(x_field: PlanarField, y_field: PlanarField, block: Block,
                           order: int, tol: float, n_base: int = 4) -> CheckRecord:
    """Per-flowbox controlling line fields: deviation of X from the pulled-back
    direction, continuity across the rectified axis, and pairwise consistency
    of overlapping flowboxes."""
    name = "X controlled by flowbox line fields"
    bases = _spread_base_points(x_field, block, n_base)
    if not bases:
        return CheckRecord(name, INCONCLUSIVE, {"error": "empty zero enclosure"})
    res = float(block.enclosure.resolution)
    half = min(0.1, 8 * res)
    window = 0.5
    boxes = []
    try:
        for base in bases:
            fb = flowbox_build(y_field, base, half, window, tol=1e-12)
            lam = flowbox_line_field(fb, x_field, order)
            boxes.append((fb, lam))
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    try:
        data = _flowbox_deviations(x_field, boxes)
    except VfblockError as e:
        return CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
    worst = max(data["max_deviation"], data["axis_continuity"],
                data["overlap_deviation"])
    data["order"] = order
    return CheckRecord(name, PASS if worst < tol else FAIL, data)


def _flowbox_deviations(x_field: PlanarField, boxes) -> dict:
    """The three sampled deviations of `_flowbox_control_check` over the
    built (flowbox, line field) pairs."""
    threshold = 1e-9
    max_dev = 0.0
    for fb, lam in boxes:
        chart_dir = lam.meta["chart_dir"]
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
    for fb, lam in boxes:
        chart_dir = lam.meta["chart_dir"]
        for i in range(5):
            t = fb.time_window * 0.8 * (2 * i / 4 - 1)
            d0 = chart_dir(t, 0.0)
            for s in (2e-4, -2e-4):
                ds = chart_dir(t, s)
                axis_dev = max(axis_dev, angle_mod_pi(d0, ds))
    # overlap consistency between consecutive flowboxes
    overlap_dev = 0.0
    overlaps = 0
    for (fb_a, lam_a), (fb_b, lam_b) in zip(boxes, boxes[1:] + boxes[:1]):
        if fb_a is fb_b:
            continue
        for i in range(5):
            t = fb_a.time_window * 0.9 * (2 * i / 4 - 1)
            pt = fb_a.forward(t, 0.33 * fb_a.half_length)
            if fb_b.inverse(pt) is None:
                continue
            overlaps += 1
            try:
                overlap_dev = max(overlap_dev, angle_mod_pi(lam_a(*pt), lam_b(*pt)))
            except ValueError:
                continue
    return {"max_deviation": max_dev, "axis_continuity": axis_dev,
            "overlap_deviation": overlap_dev, "overlap_points": overlaps,
            "flowboxes": len(boxes)}


def _component_indices_check(x_field: PlanarField, block: Block,
                             comps, resolution) -> CheckRecord:
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
                   k: int = 1, resolution=None, tol: float = 1e-6,
                   known_zeros=(), n_flowboxes: int = 4) -> TheoremReport:
    """Hypotheses: nowhere k-flat on K, tracking, Z(Y) disjoint from K,
    isolating U.  Conclusions: index 0, circle components (heuristic), flowbox
    line-field control, per-component index 0; the zero-free approximation
    conclusion is reported not-implemented."""
    if n_flowboxes < 1:
        raise ValueError(f"n_flowboxes must be at least 1, got {n_flowboxes}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if resolution is None:
        resolution = DEFAULTS.default_resolution
    hyp = []
    block, err = _certify_block_checked(x_field, region, resolution)
    hyp.append(_check_not_kflat(x_field, region, k, resolution, known_zeros))
    hyp.append(_check_tracking(y_field, x_field))
    hyp.append(_check_zy_disjoint_from_k(x_field, y_field, region, block,
                                         resolution, known_zeros))
    iso = CheckRecord("U is isolating for (X, K)",
                      PASS if block is not None else INCONCLUSIVE,
                      {} if block is None else
                      {"boundary_margin": _frac_str(block.boundary_margin)})
    if block is None:
        iso.data["error"] = err
    hyp.append(iso)
    concl = []
    if block is None:
        for nm in ("(i) index of K is zero", "(ii) components are embedded circles",
                   "(iii) X controlled by flowbox line fields",
                   "(iv) index zero at each component"):
            concl.append(CheckRecord(nm, INCONCLUSIVE, {"error": "no certified block"}))
    else:
        idx = block_index(block)
        concl.append(CheckRecord("(i) index of K is zero",
                                 PASS if idx.index == 0 else FAIL,
                                 {"index": idx.to_json()}))
        comps = components(block.enclosure)
        loops = [c.loop_like for c in comps]
        concl.append(CheckRecord(
            "(ii) components are embedded circles",
            PASS if comps and all(loops) else (FAIL if comps else INCONCLUSIVE),
            {"components": len(comps), "loop_like": loops, "certified": False}))
        order = 1
        if known_zeros:
            jo = jet_order(x_field, known_zeros[0], k)
            if jo.order is not None:
                order = jo.order
        cc = _flowbox_control_check(x_field, y_field, block, order, tol, n_flowboxes)
        concl.append(CheckRecord("(iii) " + cc.name, cc.verdict, cc.data))
        ci = _component_indices_check(x_field, block, comps, resolution)
        concl.append(CheckRecord("(iv) " + ci.name, ci.verdict, ci.data))
    concl.append(CheckRecord(
        "(v) zero-free approximation in U", NOT_IMPLEMENTED,
        {"note": "proof cites external results; reported as not implemented"}))
    return TheoremReport(MAINBIS, hyp, concl)


def verify_liealg(algebra, x_field: PlanarField, region: Region, k: int = 1,
                  resolution=None, known_zeros=()) -> TheoremReport:
    """Hypotheses: essential block, nowhere k-flat on K, a supersolvable algebra
    tracking X.  Conclusion: the common zero set of the algebra meets K."""
    if resolution is None:
        resolution = DEFAULTS.default_resolution
    if not isinstance(algebra, LieAlgebraPresentation):
        algebra = structure_constants(list(algebra))
    hyp = []
    essential, block, _ = _check_essential_block(x_field, region, resolution)
    hyp.append(essential)
    hyp.append(_check_not_kflat(x_field, region, k, resolution, known_zeros))
    name_ss = "algebra is supersolvable"
    if not algebra.closed:
        hyp.append(CheckRecord(name_ss, FAIL,
                               {"error": f"not closed, witness {algebra.witness}"}))
    else:
        try:
            flag = supersolvable_flag(algebra)
            hyp.append(CheckRecord(name_ss, PASS if flag.status == "flag" else FAIL,
                                   {"flag": flag.to_json()}))
        except VfblockError as e:
            hyp.append(CheckRecord(name_ss, INCONCLUSIVE, {"error": str(e)}))
    name_tr = "algebra tracks X"
    if not algebra.closed:
        hyp.append(CheckRecord(name_tr, INCONCLUSIVE, {"error": "algebra not closed"}))
    else:
        tr = algebra_tracks(algebra, x_field)
        hyp.append(CheckRecord(name_tr, PASS if tr.verdict else FAIL, tr.to_json()))
    name = "Z(g) n K is nonempty"
    try:
        if block is None:
            raise CertificationFailed("no certified block")
        zg = common_zero_set(algebra, region, resolution)
    except VfblockError as e:
        concl = CheckRecord(name, INCONCLUSIVE, {"error": str(e)})
        return TheoremReport(LIEALG, hyp, [concl])
    overlap = enclosures_overlap(zg, block.enclosure)
    data = {"zg_boxes": len(zg.cells), "k_boxes": len(block.enclosure.cells),
            "enclosures_overlap": overlap,
            "zg_enclosure": zg.to_json() if len(zg.cells) <= 64 else None}
    concl = CheckRecord(name, PASS if overlap else FAIL, data)
    return TheoremReport(LIEALG, hyp, [concl])
