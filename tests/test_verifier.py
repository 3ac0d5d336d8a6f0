"""Theorem verifiers on the spec scenarios, plus the falsification harness."""

import inspect
import json
import math
import pathlib
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock import certify, liealg, verifier
from vfblock.certify import certify_block, zero_enclosure_scalars
from vfblock.corpus import falsification_run, random_tracking_scenario
from vfblock.errors import EscapeError, StepUnderflow, VfblockError
from vfblock.fields import jet_order, partials_by_order, plane_field
from vfblock.flows import Flowbox
from vfblock.poly import Poly2, X, Y
from vfblock.regions import annulus, disk
from vfblock.tracking import tracks_symbolic
from vfblock.verifier import (kflat_locus_enclosure, verify_liealg, verify_main,
                              verify_mainbis)
import random


def _uppertri():
    return [plane_field(X, Poly2.zero()), plane_field(Y, Poly2.zero()),
            plane_field(Poly2.zero(), Y)]


def _e2():
    return [plane_field(Poly2.const(1), Poly2.zero()),
            plane_field(Poly2.zero(), Poly2.const(1)),
            plane_field(-Y, X)]


def test_main_pass(euler, rotation, unit_disk):
    report = verify_main(euler, rotation, unit_disk, k=1,
                         resolution=Fraction(1, 16), known_zeros=[(0, 0)])
    assert report.overall == {"status": "Pass"}
    assert report.exit_code == 0
    concl = report.conclusion_checks[0]
    assert concl.data["enclosures_overlap"]
    assert concl.data.get("witness") == ["0", "0"]


def test_main_tracking_fails(euler, const_east, unit_disk):
    report = verify_main(euler, const_east, unit_disk, k=1,
                         resolution=Fraction(1, 16), known_zeros=[(0, 0)])
    assert report.overall == {"status": "HypothesisFailed", "name": "Y tracks X"}
    assert report.exit_code == 1


def test_main_not_essential(circle_field, rotation, std_annulus):
    report = verify_main(circle_field, rotation, std_annulus, k=1,
                         resolution=Fraction(1, 32))
    assert report.overall["status"] == "HypothesisFailed"
    assert report.overall["name"] == "K is an essential X-block"
    # consistent with Z(Y) disjoint from K: the conclusion check observed it
    concl = report.conclusion_checks[0]
    assert concl.verdict == "fail" and not concl.data["enclosures_overlap"]


def test_mainbis_pass(circle_field, rotation, std_annulus):
    report = verify_mainbis(circle_field, rotation, std_annulus, k=1,
                            resolution=Fraction(1, 64), tol=1e-6,
                            known_zeros=[(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert report.overall == {"status": "Pass"}
    by_name = {c.name: c for c in report.conclusion_checks}
    idx = by_name["(i) index of K is zero"]
    assert idx.data["index"]["index"] == 0
    circles = by_name["(ii) components are embedded circles"]
    assert circles.data["loop_like"] == [True]
    assert circles.data["certified"] is False
    control = by_name["(iii) X controlled by flowbox line fields"]
    assert control.data["max_deviation"] < 1e-6
    assert control.data["axis_continuity"] < 1e-6
    assert control.data["overlap_deviation"] < 1e-6
    comp = by_name["(iv) index zero at each component"]
    assert comp.data["component_indices"] == [0]
    assert by_name["(v) zero-free approximation in U"].verdict == "not_implemented"


def test_mainbis_zy_meets_k(circle_field, rotation):
    # growing the region to contain the origin pulls Z(Y) into K
    report = verify_mainbis(circle_field, rotation, disk((0, 0), Fraction(3, 2)),
                            k=1, resolution=Fraction(1, 32))
    assert report.overall == {"status": "HypothesisFailed",
                              "name": "Z(Y) n K is empty"}
    rec = [c for c in report.hypothesis_checks if c.name == "Z(Y) n K is empty"][0]
    assert rec.data["witness"] == ["0", "0"]


def _off_centre_mainbis(cx, cy):
    """MAINBIS for X = (1 - |z - c|^2) R and Y = R, R the rotation about c,
    on the annulus 1/2 < |z - c| < 3/2."""
    u, v = X - cx, Y - cy
    rho = 1 - u * u - v * v
    return verify_mainbis(plane_field(rho * -v, rho * u), plane_field(-v, u),
                          annulus((cx, cy), Fraction(1, 2), Fraction(3, 2)),
                          k=1, resolution=Fraction(1, 64), tol=1e-6,
                          known_zeros=[(cx + 1, cy), (cx, cy + 1),
                                       (cx - 1, cy), (cx, cy - 1)])


def test_mainbis_off_centre_annulus_passes():
    # the flowbox inverse here returns t ~ 3e-18, below the integrator's step
    # floor; a final sliver that short must not count as a collapsed step
    report = _off_centre_mainbis(Fraction(-2, 5), Fraction(-3, 10))
    assert report.overall == {"status": "Pass"}
    assert report.exit_code == 0


GOLDEN_OFF_CENTRE = pathlib.Path(__file__).parent / "data" / "mainbis_off_centre_report.json"


def test_mainbis_off_centre_report_is_pinned():
    # byte for byte, the floats of the sampled flowbox check included: frame
    # memoisation, the shared float and interval power tables and the Euler
    # hole test must reproduce the plain evaluation's results exactly
    report = _off_centre_mainbis(Fraction(3, 10), Fraction(2, 5))
    assert json.dumps(report.to_json(), indent=1) + "\n" == GOLDEN_OFF_CENTRE.read_text()


def test_mainbis_two_zero_circles_each_have_index_zero(rotation):
    # X = (1 - r^2)(4 - r^2) R vanishes on the circles r = 1 and r = 2, so K
    # has two loop-like components and (iv) certifies each on its own
    r2 = X * X + Y * Y
    rho = (1 - r2) * (4 - r2)
    report = verify_mainbis(plane_field(rho * -Y, rho * X), rotation,
                            annulus((0, 0), Fraction(1, 2), Fraction(5, 2)),
                            resolution=Fraction(1, 16))
    assert report.overall == {"status": "Pass"}
    by_name = {c.name: c for c in report.conclusion_checks}
    circles = by_name["(ii) components are embedded circles"].data
    assert (circles["components"], circles["loop_like"]) == (2, [True, True])
    comp = by_name["(iv) index zero at each component"]
    assert comp.verdict == "pass" and comp.data["component_indices"] == [0, 0]


def test_mainbis_iv_sub_annulus_must_stay_in_closure_of_u(rotation):
    # K's cells clear the frontier r = 17/16 by the 2 * resolution collar, but
    # the sub-annulus padded by 4 * resolution around them reaches r ~ 1.079:
    # a zero of X there would lie outside K yet count in the component's index
    rho = 1 - X * X - Y * Y
    report = verify_mainbis(plane_field(rho * -Y, rho * X), rotation,
                            annulus((0, 0), Fraction(1, 2), Fraction(17, 16)),
                            resolution=Fraction(1, 64),
                            known_zeros=[(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert report.overall == {"status": "Inconclusive",
                              "name": "(iv) index zero at each component"}
    comp = {c.name: c for c in report.conclusion_checks}["(iv) index zero at each component"]
    assert (comp.verdict, comp.data) == ("inconclusive",
                                         {"error": "sub-region leaves closure(U)"})
    assert all(c.verdict == "pass" for c in report.hypothesis_checks)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_mainbis_rejects_tol_that_is_not_finite_and_positive(circle_field, rotation,
                                                             std_annulus, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        verify_mainbis(circle_field, rotation, std_annulus, tol=tol)


@pytest.mark.parametrize("error", [StepUnderflow, EscapeError])
def test_flowbox_sampling_errors_are_inconclusive(monkeypatch, circle_field, rotation,
                                                  std_annulus, error):
    block = certify_block(circle_field, std_annulus, Fraction(1, 32))
    frame, build = Flowbox.frame, verifier.flowbox_build
    log = {"calls": [], "built": 0, "fail_at": None}

    def failing_frame(self, t, s):
        log["calls"].append(s)
        if len(log["calls"]) == log["fail_at"]:
            raise error("injected")
        return frame(self, t, s)

    def counting_build(*args, **kwargs):
        fb = build(*args, **kwargs)
        log["built"] = len(log["calls"])
        return fb

    monkeypatch.setattr(Flowbox, "frame", failing_frame)
    monkeypatch.setattr(verifier, "flowbox_build", counting_build)
    clean = verifier._flowbox_control_check(circle_field, rotation, block, 1, 1e-6)
    assert clean.verdict == "pass" and clean.data["overlap_points"] > 0
    calls = log["calls"]
    # the first call of each sampling loop: the deviation of X, the axis
    # continuity (the only samples at s = 2e-4) and the last, an overlap
    for fail_at in (log["built"] + 1, calls.index(2e-4) + 1, len(calls)):
        log.update(calls=[], fail_at=fail_at)
        cc = verifier._flowbox_control_check(circle_field, rotation, block, 1, 1e-6)
        assert (cc.verdict, cc.data) == ("inconclusive", {"error": "injected"})
    # the whole theorem reports it instead of raising
    log.update(calls=[], fail_at=len(calls))
    report = verify_mainbis(circle_field, rotation, std_annulus, k=1,
                            resolution=Fraction(1, 32), tol=1e-6,
                            known_zeros=[(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert report.overall == {"status": "Inconclusive",
                              "name": "(iii) X controlled by flowbox line fields"}


def test_mainbis_source_fails(euler, rotation, unit_disk):
    report = verify_mainbis(euler, rotation, unit_disk, k=1,
                            resolution=Fraction(1, 32), known_zeros=[(0, 0)])
    assert report.overall == {"status": "HypothesisFailed",
                              "name": "Z(Y) n K is empty"}


def test_liealg_pass(euler, unit_disk):
    report = verify_liealg(_uppertri(), euler, unit_disk, k=1,
                           resolution=Fraction(1, 64), known_zeros=[(0, 0)])
    assert report.overall == {"status": "Pass"}
    concl = report.conclusion_checks[0]
    assert concl.data["enclosures_overlap"]


def test_liealg_e2_fails(euler, unit_disk):
    report = verify_liealg(_e2(), euler, unit_disk, k=1,
                           resolution=Fraction(1, 16))
    assert report.overall == {"status": "HypothesisFailed",
                              "name": "algebra is supersolvable"}
    names = {c.name: c.verdict for c in report.hypothesis_checks}
    assert names["algebra tracks X"] == "fail"


def test_liealg_trivial_self(euler, unit_disk):
    report = verify_liealg([euler], euler, unit_disk, k=1,
                           resolution=Fraction(1, 32), known_zeros=[(0, 0)])
    assert report.overall == {"status": "Pass"}


def test_kflat_locus_empty_for_corpus(euler, circle_field, unit_disk, std_annulus):
    assert kflat_locus_enclosure(euler, unit_disk, 1, Fraction(1, 16)).is_empty
    assert kflat_locus_enclosure(circle_field, std_annulus, 1,
                                 Fraction(1, 16)).is_empty


def test_kflat_detected_at_supplied_zero():
    flat = plane_field(X ** 3, Poly2.zero())
    report = verify_main(flat, plane_field(X ** 3, Poly2.zero()).scale(2),
                         disk((0, 0), Fraction(1, 2)), k=2,
                         resolution=Fraction(1, 16), known_zeros=[(0, 0)])
    names = {c.name: c for c in report.hypothesis_checks}
    rec = names["X not 2-flat on K"]
    assert rec.verdict == "fail"
    assert rec.data["flat_witness"] == ["0", "0"]


def test_kflat_found_by_polishing_without_known_zeros():
    # the locus near K is not empty, and the zero of X polished from K's
    # cells rounds to the origin, where every jet through order 2 vanishes
    cube = plane_field(X ** 3, Y ** 3)
    report = verify_main(cube, cube.scale(2), disk((0, 0), Fraction(1, 2)), k=2,
                         resolution=Fraction(1, 16))
    rec = {c.name: c for c in report.hypothesis_checks}["X not 2-flat on K"]
    assert rec.verdict == "fail"
    assert rec.data["flat_witness"] == ["0", "0"]
    assert rec.data["kflat_locus_boxes"] > 0


def test_kflat_ignores_known_zeros_outside_closure_of_u(euler, unit_disk):
    # X = phi (x, y) with phi = (x - 2)^2 + y^2 is 1-flat at (2, 0), outside
    # the unit disk, where K is the origin alone
    phi = (X - 2) ** 2 + Y ** 2
    field = plane_field(phi * X, phi * Y)
    kwargs = dict(k=1, resolution=Fraction(1, 32))
    for zeros in ([(0, 0)], [(0, 0), (2, 0)]):
        for report in (verify_main(field, euler, unit_disk, known_zeros=zeros, **kwargs),
                       verify_liealg([euler], field, unit_disk, known_zeros=zeros,
                                     **kwargs)):
            assert report.overall == {"status": "Pass"}
            assert report.hypothesis_checks[1].data == {
                "orders_at_known_zeros": [{"k": 1, "k_flat": False, "order": 1}],
                "kflat_locus_boxes": 0}
        report = verify_mainbis(field, euler, unit_disk, known_zeros=zeros, **kwargs)
        assert report.hypothesis_checks[0].verdict == "pass"


def test_main_is_liealg_on_span_of_y():
    # a one-dimensional algebra is supersolvable, so MAIN is LIEALG on span{Y}
    rng = random.Random(0)
    for _ in range(60):
        x_field, y_field, region, zeros = random_tracking_scenario(rng)
        kwargs = dict(k=1, resolution=Fraction(1, 16), known_zeros=zeros)
        main = verify_main(x_field, y_field, region, **kwargs)
        lie = verify_liealg([y_field], x_field, region, **kwargs)
        assert main.overall["status"] == lie.overall["status"]
        for a, b in zip(main.hypothesis_checks[:2], lie.hypothesis_checks[:2]):
            assert json.dumps(a.to_json()) == json.dumps(b.to_json())
        (cm,), (cl,) = main.conclusion_checks, lie.conclusion_checks
        assert cm.verdict == cl.verdict
        for key in ("enclosures_overlap", "witness"):
            assert cm.data.get(key) == cl.data.get(key)
        assert cm.data["y_zero_boxes"] == cl.data["zg_boxes"]


def test_main_builds_no_algebra(monkeypatch, euler, rotation, unit_disk):
    def refuse(*args, **kwargs):
        raise AssertionError("MAIN entered the algebra path")

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return tracks_symbolic(*args, **kwargs)

    for module in (verifier, liealg):
        for name in ("structure_constants", "supersolvable_flag", "algebra_tracks"):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(module, "tracks_symbolic", counting)
    report = verify_main(euler, rotation, unit_disk, k=1, resolution=Fraction(1, 16),
                         known_zeros=[(0, 0)])
    assert report.overall == {"status": "Pass"}
    assert calls == [(rotation, euler)]
    # Y = 0 spans no one-dimensional algebra, yet MAIN still reports
    calls.clear()
    zero = plane_field(Poly2.zero(), Poly2.zero())
    report = verify_main(euler, zero, unit_disk, k=1, resolution=Fraction(1, 16),
                         known_zeros=[(0, 0)])
    assert report.overall == {"status": "Pass"}
    assert calls == [(zero, euler)]


def _kflat_locus_reference(field, region, k, resolution):
    """The k-flat locus as it was enclosed before it moved onto K's grid: one
    quadtree over all of closure(U) at resolution max(resolution, 1/16), of
    every partial d^(i+j) / dx^i dy^j with i + j <= k of both components."""
    scalars = []
    for comp in (field.p, field.q):
        for i in range(k + 1):
            for j in range(k + 1 - i):
                d = comp
                for _ in range(i):
                    d = d.dx()
                for _ in range(j):
                    d = d.dy()
                scalars.append(d)
    return zero_enclosure_scalars(scalars, region, max(resolution, Fraction(1, 16)))


@pytest.mark.parametrize("k", [1, 3, 4, 7])
def test_kflat_locus_stops_at_the_first_zero_order(circle_field, std_annulus, k):
    # every partial through order k, zeros past the cubic's degree included,
    # encloses the same cells with the same counters as the truncated list
    res = Fraction(1, 16)
    block = certify_block(circle_field, std_annulus, res)
    full = [d for comp in (circle_field.p, circle_field.q)
            for order in islice(partials_by_order(comp), k + 1) for d in order]
    for near in (None, block.enclosure):
        want = zero_enclosure_scalars(full, std_annulus, res, near=near)
        got = kflat_locus_enclosure(circle_field, std_annulus, k, res, near)
        assert got.cells == want.cells
        assert (got.cells_examined, got.cells_discarded_geometry,
                got.cells_discarded_interval, got.depth_used) == \
            (want.cells_examined, want.cells_discarded_geometry,
             want.cells_discarded_interval, want.depth_used)


_eighths = st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=8)


@st.composite
def _kflat_cases(draw):
    """A polynomial field vanishing at z to an order of 1 to 4 in each
    component, a disk around z, a k and a resolution."""
    z = (draw(_eighths), draw(_eighths))
    u, v = X - z[0], Y - z[1]

    def component():
        order = draw(st.integers(1, 4))
        exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
            lambda e: order <= sum(e) <= 4)
        terms = draw(st.dictionaries(exponents, st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=3))
        return sum((c * u ** i * v ** j for (i, j), c in terms.items()), Poly2.zero())

    field = plane_field(component(), component())
    r = draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))))
    offset = (draw(_eighths) * r, draw(_eighths) * r)
    region = disk((z[0] + offset[0], z[1] + offset[1]), r)
    resolution = draw(st.sampled_from((Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))))
    return field, region, draw(st.integers(1, 3)), resolution, z


@given(_kflat_cases())
@example((plane_field(X ** 3, Y ** 3), disk((0, 0), Fraction(1, 2)), 2, Fraction(1, 16),
          (Fraction(0), Fraction(0))))
@settings(max_examples=40, deadline=None)
def test_kflat_locus_near_k_within_reference(case):
    field, region, k, resolution, z = case
    try:
        block = certify_block(field, region, resolution)
    except VfblockError:
        block = None
    ref = _kflat_locus_reference(field, region, k, resolution)
    locus = verifier.kflat_locus_enclosure(field, region, k, resolution,
                                           None if block is None else block.enclosure)
    # one root box: the near-K grid refines the reference's, and each of its
    # cells lies in a reference cell
    assert (locus.grid.x0, locus.grid.y0, locus.grid.side) == \
        (ref.grid.x0, ref.grid.y0, ref.grid.side)
    shift = locus.grid.depth - ref.grid.depth
    assert shift >= 0
    ref_cells = set(ref.cells)
    assert all((i >> shift, j >> shift) in ref_cells for i, j in locus.cells)
    rec = verifier._check_not_kflat(field, region, k, resolution, (), block)
    assert rec.data["kflat_locus_boxes"] == len(locus.cells)
    if ref.is_empty:
        assert locus.is_empty and rec.verdict == "pass"
    if rec.verdict == "fail":
        w = tuple(Fraction(c) for c in rec.data["flat_witness"])
        assert region.contains_point_closed(w) and jet_order(field, w, k).is_flat
    if region.contains_point_closed(z) and jet_order(field, z, k).is_flat:
        assert rec.verdict in ("fail", "inconclusive")


def test_one_full_quadtree_per_theorem(monkeypatch, euler, rotation, circle_field,
                                       unit_disk, std_annulus):
    # with a certified block, K's enclosure is the only quadtree over all of
    # closure(U), and every enclosure of the theorem lies on K's grid
    calls = []
    signature = inspect.signature(zero_enclosure_scalars)

    def counting(*args, **kwargs):
        enc = zero_enclosure_scalars(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments.get("near"), enc.grid))
        return enc

    for module in (certify, verifier, liealg):
        monkeypatch.setattr(module, "zero_enclosure_scalars", counting)
    runs = [
        lambda: verify_main(euler, rotation, unit_disk, k=1, resolution=Fraction(1, 16),
                            known_zeros=[(0, 0)]),
        lambda: verify_mainbis(circle_field, rotation, std_annulus, k=1,
                               resolution=Fraction(1, 32),
                               known_zeros=[(1, 0), (0, 1), (-1, 0), (0, -1)]),
        lambda: verify_liealg(_uppertri(), euler, unit_disk, k=1,
                              resolution=Fraction(1, 64), known_zeros=[(0, 0)]),
    ]
    for run in runs:
        calls.clear()
        assert run().overall == {"status": "Pass"}
        assert len(calls) == 3
        assert [near is None for near, _ in calls].count(True) == 1
        assert len({grid for _, grid in calls}) == 1


def test_liealg_witness():
    # from a known zero
    euler = plane_field(X, Y)
    report = verify_liealg(_uppertri(), euler, disk((0, 0), 1), k=1,
                           resolution=Fraction(1, 64), known_zeros=[(0, 0)])
    assert report.conclusion_checks[0].data["witness"] == ["0", "0"]
    # polished from K's cells: the upper-triangular algebra moved to (1/2, -1/4)
    u, v = X - Fraction(1, 2), Y + Fraction(1, 4)
    moved = [plane_field(u, Poly2.zero()), plane_field(v, Poly2.zero()),
             plane_field(Poly2.zero(), v)]
    report = verify_liealg(moved, plane_field(u, v), disk((0, 0), 1), k=1,
                           resolution=Fraction(1, 32))
    assert report.overall == {"status": "Pass"}
    assert report.conclusion_checks[0].data["witness"] == ["1/2", "-1/4"]
    # Z(g) is the lines x = +-sqrt(2)/1000: they meet K's cells around the
    # origin, but the known zero of X there is no zero of g, and no exact
    # common zero exists
    g = [plane_field(X ** 2 - Fraction(2, 10 ** 6), Poly2.zero())]
    report = verify_liealg(g, euler, disk((0, 0), 1), k=1, resolution=Fraction(1, 32),
                           known_zeros=[(0, 0)])
    concl = report.conclusion_checks[0]
    assert concl.verdict == "pass" and concl.data["enclosures_overlap"]
    assert "witness" not in concl.data


def test_report_json_roundtrip(euler, rotation, unit_disk):
    report = verify_main(euler, rotation, unit_disk, k=1,
                         resolution=Fraction(1, 16), known_zeros=[(0, 0)])
    encoded = json.dumps(report.to_json(), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["overall"] == {"status": "Pass"}
    assert len(decoded["hypotheses"]) == 3


def test_report_determinism(circle_field, rotation, std_annulus):
    kwargs = dict(k=1, resolution=Fraction(1, 32),
                  known_zeros=[(1, 0), (0, 1), (-1, 0), (0, -1)])
    a = verify_mainbis(circle_field, rotation, std_annulus, **kwargs)
    b = verify_mainbis(circle_field, rotation, std_annulus, **kwargs)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_random_tracking_scenarios_track():
    rng = random.Random(42)
    for _ in range(25):
        x_field, y_field, _, _ = random_tracking_scenario(rng)
        assert tracks_symbolic(y_field, x_field).verdict


def test_falsification_no_conclusion_failures():
    summary = falsification_run(60, seed=7)
    assert summary.conclusion_failures == 0
    assert summary.passes == 60
