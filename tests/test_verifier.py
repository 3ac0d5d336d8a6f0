"""Theorem verifiers on the spec scenarios, plus the falsification harness."""

import json
from fractions import Fraction

from vfblock.corpus import falsification_run, random_tracking_scenario
from vfblock.fields import plane_field
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


def test_mainbis_off_centre_annulus_passes():
    # the flowbox inverse here returns t ~ 3e-18, below the integrator's step
    # floor; a final sliver that short must not count as a collapsed step
    cx, cy = Fraction(-2, 5), Fraction(-3, 10)
    u, v = X - cx, Y - cy
    rho = 1 - u * u - v * v
    report = verify_mainbis(plane_field(rho * -v, rho * u), plane_field(-v, u),
                            annulus((cx, cy), Fraction(1, 2), Fraction(3, 2)),
                            k=1, resolution=Fraction(1, 64), tol=1e-6,
                            known_zeros=[(cx + 1, cy), (cx, cy + 1),
                                         (cx - 1, cy), (cx, cy - 1)])
    assert report.overall == {"status": "Pass"}
    assert report.exit_code == 0


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
