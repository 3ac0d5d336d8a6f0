"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; a criterion that fails its assertions is reported by pytest as
FAILED on the same test id.
"""

import math
import random
from fractions import Fraction

from vfblock.certify import certify_block, components
from vfblock.corpus import falsification_run
from vfblock.fields import plane_field, torus_field
from vfblock.index import (block_index, homotopy_invariance_check,
                           lift_double_cover, min_norm_on_boundary, wedge_check)
from vfblock.liealg import (solvability, structure_constants, supersolvable_flag)
from vfblock.poly import Poly2, X, Y
from vfblock.regions import Circle, annulus, disk
from vfblock.tracking import component_order_check, tracks_symbolic
from vfblock.trig import TrigPoly2
from vfblock.verifier import verify_liealg, verify_mainbis
from fraction_reference import bracket_reference, subspace_basis, vector_in_span
from homotopy_reference import region_index


def _line(num: int, text: str):
    print(f"ACCEPTANCE {num:02d}: {text}: PASS")


def _oracle_winding(field, curve, n=100000):
    total = 0.0
    prev = field.eval_float(*curve.point(0.0))
    first = prev
    for i in range(1, n + 1):
        cur = first if i == n else field.eval_float(*curve.point(i / n))
        total += math.atan2(prev[0] * cur[1] - prev[1] * cur[0],
                            prev[0] * cur[0] + prev[1] * cur[1])
        prev = cur
    return round(total / (2 * math.pi))


EULER = plane_field(X, Y)
SADDLE = plane_field(X, -Y)
DIPOLE = plane_field(X ** 2 - Y ** 2, 2 * X * Y)
ROTATION = plane_field(-Y, X)
CIRCLE_FIELD = plane_field((1 - X ** 2 - Y ** 2) * (-Y), (1 - X ** 2 - Y ** 2) * X)
SADDLE_PAIR = plane_field(X ** 2 - 1, X * Y)
UNIT_DISK = disk((0, 0), 1)
STD_ANNULUS = annulus((0, 0), Fraction(1, 2), Fraction(3, 2))
CIRCLE_ZEROS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_c01_index_correctness():
    circle = Circle((0, 0), 1, ccw=True)
    for field, expected in ((EULER, 1), (SADDLE, -1), (DIPOLE, 2)):
        oracle = _oracle_winding(field, circle, 100000)
        blk = certify_block(field, UNIT_DISK, Fraction(1, 32))
        computed = block_index(blk).index
        assert computed == oracle == expected
    _line(1, "block indices 1 / -1 / 2 match the dense-sampling oracle exactly")


def test_c02_mainbis_pipeline():
    cert = tracks_symbolic(ROTATION, CIRCLE_FIELD)
    assert cert.mode == "symbolic" and cert.verdict
    report = verify_mainbis(CIRCLE_FIELD, ROTATION, STD_ANNULUS, k=1,
                            resolution=Fraction(1, 64), tol=1e-6,
                            known_zeros=CIRCLE_ZEROS)
    assert report.overall == {"status": "Pass"}
    hyp = {c.name: c for c in report.hypothesis_checks}
    assert hyp["Z(Y) n K is empty"].verdict == "pass"
    concl = {c.name: c for c in report.conclusion_checks}
    assert concl["(i) index of K is zero"].data["index"]["index"] == 0
    assert concl["(ii) components are embedded circles"].data["loop_like"] == [True]
    control = concl["(iii) X controlled by flowbox line fields"]
    assert control.verdict == "pass"
    assert max(control.data["max_deviation"], control.data["axis_continuity"],
               control.data["overlap_deviation"]) < 1e-6
    assert concl["(iv) index zero at each component"].data["component_indices"] == [0]
    _line(2, "annulus MAINbis pipeline: tracking, disjointness, (i)-(iv)")


def test_c03_stability():
    delta = min_norm_on_boundary(EULER, UNIT_DISK, tol=Fraction(1, 200)).margin
    assert delta >= Fraction(99, 100)
    rng = random.Random(2024)
    for _ in range(100):
        terms_p, terms_q = {}, {}
        for i in range(4):
            for j in range(4 - i):
                terms_p[(i, j)] = Fraction(rng.randint(-10, 10), 20)
                terms_q[(i, j)] = Fraction(rng.randint(-10, 10), 20)
        sup = sum(abs(c) for c in terms_p.values()) + \
            sum(abs(c) for c in terms_q.values())
        if sup == 0:
            continue
        scale = delta / (2 * sup) * Fraction(9, 10)
        pert = plane_field(Poly2(terms_p) * scale, Poly2(terms_q) * scale)
        assert region_index(EULER + pert, UNIT_DISK).index == 1
    verdict = homotopy_invariance_check(EULER, plane_field(2 * X + Y, X + 2 * Y),
                                        UNIT_DISK, 11)
    assert verdict.status == "invariant" and verdict.index == 1
    degenerate = homotopy_invariance_check(EULER, plane_field(-X, -Y),
                                           UNIT_DISK, 10)
    assert degenerate.status == "degenerate"
    _line(3, "delta >= 0.99, 100 perturbations keep index 1, homotopies verdict")


def test_c04_wedge():
    rho = 1 + X ** 2 + Y ** 2
    verdict = wedge_check(EULER, plane_field(rho * X, rho * Y), UNIT_DISK)
    assert verdict.status == "equal" and verdict.index == 1
    _line(4, "wedge identity IndicesEqual(1) for the conformally scaled pair")


def test_c05_double_cover():
    blk = certify_block(SADDLE_PAIR, STD_ANNULUS, Fraction(1, 32))
    assert block_index(blk).index == 2
    _, lifted = lift_double_cover(SADDLE_PAIR, STD_ANNULUS)
    assert lifted.index == 4
    _, lifted_zero = lift_double_cover(plane_field(Poly2.const(1), Poly2.zero()),
                                       STD_ANNULUS)
    assert lifted_zero.index == 0
    _line(5, "double cover doubles: 2 -> 4 and 0 -> 0")


def test_c06_tracking_invariance():
    # tracking makes Y's flow keep Z(X) and carry orders along: no flow is run
    assert tracks_symbolic(ROTATION, CIRCLE_FIELD).verdict
    orders = component_order_check(CIRCLE_FIELD, CIRCLE_ZEROS, 1)
    assert orders.verdict
    assert all(o.order == 1 for o in orders.orders)
    _line(6, "rotation tracks the circle field exactly; exact order 1 at 4 zeros on the circle")


def test_c07_lie_algebra_suite():
    e2 = structure_constants([plane_field(Poly2.const(1), Poly2.zero()),
                              plane_field(Poly2.zero(), Poly2.const(1)),
                              ROTATION])
    assert solvability(e2).status == "solvable"
    assert supersolvable_flag(e2).status == "no_real_flag"
    sl2 = structure_constants([plane_field(Poly2.const(1), Poly2.zero()),
                               plane_field(X, Poly2.zero()),
                               plane_field(X ** 2, Poly2.zero())])
    assert solvability(sl2).status == "not_solvable"
    assert supersolvable_flag(sl2).status == "not_solvable"
    ut = structure_constants([plane_field(X, Poly2.zero()),
                              plane_field(Y, Poly2.zero()),
                              plane_field(Poly2.zero(), Y)])
    flag = supersolvable_flag(ut)
    assert flag.status == "flag"
    for depth in range(1, len(flag.chain) + 1):
        sub = subspace_basis([list(v) for v in flag.chain[:depth]])
        assert len(sub) == depth
        for i in range(ut.dim):
            e = [Fraction(1) if d == i else Fraction(0) for d in range(ut.dim)]
            for u in sub:
                assert vector_in_span(sub, bracket_reference(ut, e, u))
    for g in (e2, sl2, ut):
        assert g.antisymmetry_holds()
        assert g.jacobi_holds()
    _line(7, "e(2) solvable/no real flag, sl(2) not solvable, flag verified")


def test_c08_liealg_theorem():
    ut_basis = [plane_field(X, Poly2.zero()), plane_field(Y, Poly2.zero()),
                plane_field(Poly2.zero(), Y)]
    report = verify_liealg(ut_basis, EULER, UNIT_DISK, k=1,
                           resolution=Fraction(1, 64), known_zeros=[(0, 0)])
    assert report.overall == {"status": "Pass"}
    concl = report.conclusion_checks[0]
    enc = concl.data["zg_enclosure"]
    assert enc is not None and enc["boxes"]
    for b in enc["boxes"]:
        for corner in ((b["x0"], b["y0"]), (b["x1"], b["y1"])):
            assert math.hypot(float(Fraction(corner[0])),
                              float(Fraction(corner[1]))) <= 2 ** -5
    _line(8, "upper-triangular algebra theorem passes with enclosure near 0")


def test_c09_torus_global():
    sin_field = torus_field(TrigPoly2.term(1, 0, "sc", 1),
                            TrigPoly2.term(0, 1, "cs", 1))
    centers = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
               (Fraction(1, 2), Fraction(1, 2))]
    indices = []
    for c in centers:
        blk = certify_block(sin_field, disk(c, Fraction(1, 8)), Fraction(1, 64))
        indices.append(block_index(blk).index)
    assert sorted(indices) == [-1, -1, 1, 1]
    assert sum(indices) == 0  # Euler characteristic of the torus
    _line(9, "four torus blocks with indices (+1, +1, -1, -1) summing to 0")


def test_c10_falsification_harness():
    summary = falsification_run(200, seed=0)
    assert summary.runs == 200
    assert summary.conclusion_failures == 0
    assert summary.passes == 200
    _line(10, "200 randomized tracking scenarios, zero ConclusionFailed")
