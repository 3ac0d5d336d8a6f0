"""Winding numbers and index identities, checked against a dense-sampling oracle."""

import math
import os
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from homotopy_reference import (homotopy_check_reference, region_index,
                                sampled_homotopy_check, wedge_check_reference)
from lift_reference import (lift_double_cover_reference, lifted_reference,
                            sampled_lipschitz_reference)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vfblock import index, upoly
from vfblock.certify import BoundaryPass, certify_block
from vfblock.config import ENV_MAX_DEPTH, default_max_depth
from vfblock.errors import (BoundaryZero, CertificationFailed, ContradictionError,
                            PreconditionFailed, VfblockError)
from vfblock.fields import PlanarField, plane_field, torus_field
from vfblock.index import (HomotopyVerdict, _dependent_on_boundary, block_index,
                           homotopy_invariance_check, interval_lipschitz,
                           joint_boundary_pass, lift_double_cover,
                           make_double_cover_lift, min_norm_on_boundary, wedge_check,
                           winding_stats)
from vfblock.poly import Poly2, X, Y, float_plan, restrict
from vfblock.regions import Circle, _Curve, annulus, disk, rectangle
from vfblock.trig import COS, SIN, PiNumber, TrigPoly2
from vfblock.verifier import verify_main


def _angle_steps(evalf, curve, n):
    steps = []
    prev = evalf(*curve.point(0.0))
    first = prev
    for i in range(1, n + 1):
        cur = first if i == n else evalf(*curve.point(i / n))
        steps.append(math.atan2(prev[0] * cur[1] - prev[1] * cur[0],
                                prev[0] * cur[0] + prev[1] * cur[1]))
        prev = cur
    return steps


def oracle_winding(evalf, curve, n=100000):
    """Independent degree oracle: dense uniform accumulation of angle steps."""
    return round(sum(_angle_steps(evalf, curve, n)) / (2 * math.pi))


UNIT_CIRCLE = Circle((0, 0), 1, ccw=True)


@pytest.mark.parametrize("components,expected", [
    ((X, Y), 1),
    ((X, -Y), -1),
    ((X ** 2 - Y ** 2, 2 * X * Y), 2),
    ((Poly2.const(1), Poly2.zero()), 0),
])
def test_winding_examples_against_oracle(components, expected):
    field = plane_field(*components)
    assert oracle_winding(field.eval_float, UNIT_CIRCLE) == expected
    assert winding_stats(field, UNIT_CIRCLE).winding == expected


def test_winding_reparametrization_invariance(dipole):
    # a finer subdivision and the reversed orientation t -> -t
    coarse = winding_stats(dipole, UNIT_CIRCLE, tol=1)
    fine = winding_stats(dipole, UNIT_CIRCLE, tol=Fraction(1, 1000))
    reverse = winding_stats(dipole, Circle((0, 0), 1, ccw=False))
    assert fine.samples > coarse.samples
    assert coarse.winding == fine.winding == -reverse.winding == 2


def test_winding_boundary_zero_raises(monkeypatch, euler):
    # the circle passes through the zero of X at the origin
    monkeypatch.setenv(ENV_MAX_DEPTH, "12")
    with pytest.raises(BoundaryZero):
        winding_stats(euler, Circle((1, 0), 1, ccw=True))


def test_winding_tol_outside_unit_interval_rejected(dipole):
    # tol = 2 would square to the same slack factor as tol = 0
    with pytest.raises(ValueError):
        winding_stats(dipole, UNIT_CIRCLE, tol=2)


_coef = st.integers(-3, 3)
_rational = st.fractions(min_value=-1, max_value=1, max_denominator=8)
_radius = st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8)


@st.composite
def _fields_and_regions(draw):
    """A random field with a zero at the centre c of a random region around c
    (the hole of an annulus), so that nonzero degrees are common."""
    kind = draw(st.sampled_from(("disk", "rect", "annulus", "torus_disk")))
    if kind == "torus_disk":
        # frequencies <= 1 and a quarter-period centre keep the value at c exact
        c = tuple(Fraction(draw(st.integers(0, 3)), 4) for _ in "xy")

        def trig():
            t = sum((TrigPoly2.term(m, n, basis, draw(_coef)) for m in range(2)
                     for n in range(2) for basis in ("cc", "cs", "sc", "ss")),
                    TrigPoly2.zero())
            return t - TrigPoly2.const(t.eval_exact(*c).as_fraction())
        return torus_field(trig(), trig()), disk(c, draw(_radius) / 4)
    c = (draw(_rational), draw(_rational))

    def poly():
        p = Poly2({(i, j): Fraction(draw(_coef)) for i in range(3) for j in range(3 - i)})
        return p - Poly2.const(p.eval_exact(*c))
    field = plane_field(poly(), poly())
    r = draw(_radius)
    if kind == "disk":
        return field, disk(c, r)
    if kind == "annulus":
        return field, annulus(c, r, r + draw(_radius))
    return field, rectangle(c[0] - r, c[1] - draw(_radius), c[0] + draw(_radius), c[1] + r)


@given(_fields_and_regions())
@settings(max_examples=60, deadline=None)
def test_leaf_degree_matches_oracle(case):
    field, region = case
    assume(not field.is_zero())
    for curve in region.boundary_curves():
        try:
            with mock.patch.dict(os.environ, {ENV_MAX_DEPTH: "16"}):
                stats = winding_stats(field, curve, tol=1)
        except BoundaryZero:
            assume(False)
        steps = _angle_steps(field.eval_float, curve, 1500)
        assume(max(map(abs, steps)) < math.pi / 4)   # the oracle is dense enough
        assert stats.winding == round(sum(steps) / (2 * math.pi))


def test_block_indices(euler, saddle, dipole, circle_field, saddle_pair_field,
                       unit_disk, std_annulus):
    cases = [
        (euler, unit_disk, 1, True),
        (saddle, unit_disk, -1, True),
        (dipole, unit_disk, 2, True),
        (circle_field, std_annulus, 0, False),
        (saddle_pair_field, std_annulus, 2, True),
    ]
    for field, region, expected, essential in cases:
        blk = certify_block(field, region, Fraction(1, 32))
        result = block_index(blk)
        assert result.index == expected
        assert result.essential is essential
        assert result.certified
        assert result.samples == blk.boundary.arcs > 0


def test_index_additivity(saddle_pair_field, std_annulus):
    total = block_index(certify_block(saddle_pair_field, std_annulus,
                                      Fraction(1, 32))).index
    parts = 0
    for center in ((1, 0), (-1, 0)):
        blk = certify_block(saddle_pair_field, disk(center, Fraction(1, 4)),
                            Fraction(1, 32))
        parts += block_index(blk).index
    assert total == parts == 2


def test_nondegenerate_linear_law():
    rng = random.Random(3)
    for _ in range(25):
        while True:
            a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
            det = a * d - b * c
            if det != 0:
                break
        field = plane_field(a * X + b * Y, c * X + d * Y)
        blk = certify_block(field, disk((0, 0), Fraction(1, 2)), Fraction(1, 32))
        assert block_index(blk).index == (1 if det > 0 else -1)


def test_stability_a_nonzero_index_forces_zeros(euler, dipole, unit_disk):
    for field in (euler, dipole):
        blk = certify_block(field, unit_disk, Fraction(1, 32))
        if block_index(blk).index != 0:
            assert not blk.enclosure.is_empty


def test_perturbation_bound_contract(euler, unit_disk):
    delta = min_norm_on_boundary(euler, unit_disk, tol=Fraction(1, 200)).margin
    assert delta >= Fraction(99, 100)
    rng = random.Random(11)
    for _ in range(100):
        terms = {}
        for i in range(3):
            for j in range(3 - i):
                terms[(i, j)] = Fraction(rng.randint(-20, 20), 40)
        pert = Poly2(terms)
        pert2 = Poly2({k: Fraction(rng.randint(-20, 20), 40)
                       for k in terms})
        sup = sum(abs(c) for c in pert.monomials().values()) + \
            sum(abs(c) for c in pert2.monomials().values())
        if sup == 0:
            continue
        scale = delta / (2 * sup) * Fraction(9, 10)
        perturbed = euler + plane_field(pert * scale, pert2 * scale)
        result = region_index(perturbed, unit_disk)
        assert result.index == 1


def test_perturbation_explicit_shift(euler, unit_disk):
    delta = min_norm_on_boundary(euler, unit_disk, tol=Fraction(1, 200)).margin
    shifted = euler + plane_field(Poly2.const(delta / 2), Poly2.zero())
    assert region_index(shifted, unit_disk).index == 1


def test_homotopy_invariant_linear(euler, unit_disk):
    target = plane_field(2 * X + Y, X + 2 * Y)
    verdict = homotopy_invariance_check(euler, target, unit_disk, 11)
    assert verdict.status == "invariant" and verdict.index == 1


def test_homotopy_degenerate_midpoint(euler, unit_disk):
    verdict = homotopy_invariance_check(euler, plane_field(-X, -Y), unit_disk, 10)
    assert verdict.status == "degenerate"
    assert verdict.t == Fraction(1, 2)


def test_homotopy_zero_between_samples_is_degenerate(euler, unit_disk):
    """X_1/2 of Euler -> -Euler is identically zero, but no sample of three
    steps lands on it: the verdict is degenerate, with no t to name."""
    assert sampled_homotopy_check(euler, -euler, unit_disk, 3).status == "invariant"
    verdict = homotopy_invariance_check(euler, -euler, unit_disk, 3)
    assert verdict == HomotopyVerdict("degenerate")
    assert verdict.to_json() == {"status": "degenerate"}


@pytest.mark.parametrize("depth", [None, "12", "40"])
def test_refused_segment_visits_a_few_arcs_per_depth(monkeypatch, euler, depth):
    """Depth first, the segment Euler -> -Euler is refused on the first arc's
    leftmost descendants: one joint pass makes at most two `tables_of`
    visits per depth, on every region."""
    if depth is not None:
        monkeypatch.setenv(ENV_MAX_DEPTH, depth)
    visits = []
    tables_of = _Curve.tables_of
    monkeypatch.setattr(_Curve, "tables_of", lambda c, *a: (
        visits.append(a[:2]), tables_of(c, *a))[1])
    regions = (disk((0, 0), 1), rectangle(-1, -2, 3, 1), annulus((1, 0), 1, 2))
    for region in regions:
        visits.clear()
        assert joint_boundary_pass((euler, -euler), region, segment=True) is None
        assert 0 < len(visits) <= 2 * default_max_depth()
    assert homotopy_invariance_check(euler, -euler, regions[0], 4) == \
        HomotopyVerdict("degenerate", t=Fraction(1, 2))


def test_homotopy_constant(euler, unit_disk):
    verdict = homotopy_invariance_check(euler, euler, unit_disk, 4)
    assert verdict.status == "invariant" and verdict.index == 1


@pytest.mark.parametrize("steps", [2.5, 4.0, Fraction(4), True, "4"])
def test_homotopy_steps_must_be_an_int(euler, unit_disk, steps):
    with pytest.raises(ValueError, match="steps must be an int"):
        homotopy_invariance_check(euler, euler, unit_disk, steps)


def test_homotopy_rejects_mixed_surfaces(euler, torus_sin, unit_disk):
    with pytest.raises(ValueError, match="different surfaces"):
        homotopy_invariance_check(euler, torus_sin, unit_disk, 4)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _homotopy_ends(draw):
    """(x0, x1, negated) on one surface; x1 is -x0, x0 plus a field (keys
    shared, some cancel), or a field of its own."""
    if draw(st.booleans()):
        surface = "plane"

        def comp():
            return Poly2({(i, j): draw(_small) for i in range(3) for j in range(3 - i)
                          if draw(st.booleans())})
    else:
        surface = "torus"

        def comp():
            return TrigPoly2({(draw(st.integers(-2, 2)), draw(st.integers(0, 2)),
                               draw(st.sampled_from((COS, SIN))),
                               draw(st.sampled_from((COS, SIN)))):
                              PiNumber({k: draw(_small) for k in draw(st.sets(st.integers(0, 2)))})
                              for _ in range(draw(st.integers(0, 4)))})

    def field():
        return PlanarField(surface, comp(), comp(), draw(st.integers(1, 3)))

    x0 = field()
    how = draw(st.sampled_from(("negated", "shifted", "free")))
    x1 = -x0 if how == "negated" else x0 + field() if how == "shifted" else field()
    return x0, x1, how == "negated"


def _term_order(s):
    """Keys and coefficients in term-map order, a PiNumber's terms in theirs."""
    return [(key, list(c._m.items()) if isinstance(c, PiNumber) else c)
            for key, c in s._m.items()]


@given(_homotopy_ends(), st.integers(2, 8))
@example((plane_field(X, Y), plane_field(-X, -Y), True), 4)
@example((torus_field(TrigPoly2.term(1, 0, "sc", 1), TrigPoly2.term(0, 1, "cs", 1)),
          torus_field(-TrigPoly2.term(1, 0, "sc", 1), -TrigPoly2.term(0, 1, "cs", 1)),
          True), 6)
@settings(max_examples=200, deadline=None)
def test_homotopy_step_fields_are_the_convex_combination(ends, steps):
    """The field the locator checks at step t is x0.scale(1 - t) + x1.scale(t),
    with its k, its terms in term-map order and its interval plan bit for
    bit; t = 0 and t = 1 included.  The joint pass is patched to
    refuse and the boundary passes are stubbed, so the locator reaches
    every step field up to the first zero one, and names no t past it."""
    x0, x1, negated = ends
    seen = []

    def boundary_pass(field, region, tol=None):
        seen.append(field)
        return BoundaryPass(Fraction(1), 0, 1)

    with mock.patch.object(index, "joint_boundary_pass", lambda *_, **__: None), \
            mock.patch.object(index, "min_norm_on_boundary", boundary_pass):
        verdict = homotopy_invariance_check(x0, x1, disk((0, 0), 1), steps)
    want = [x0.scale(1 - Fraction(i, steps)) + x1.scale(Fraction(i, steps))
            for i in range(steps + 1)]
    assert verdict.status == "degenerate"
    if verdict.t is None:
        assert len(seen) == len(want) and not any(w.is_zero() for w in want)
    else:
        assert want[len(seen)].is_zero() and verdict.t == Fraction(len(seen), steps)
    for got, ref in zip(seen, want):
        assert got.k == ref.k == min(x0.k, x1.k)
        for a, b in ((got.p, ref.p), (got.q, ref.q)):
            assert _term_order(a) == _term_order(b)
            assert repr(a._plan()) == repr(b._plan())
    if negated and steps % 2 == 0 and not x0.is_zero():
        assert verdict == HomotopyVerdict("degenerate", t=Fraction(1, 2))


@st.composite
def _planar_regions(draw):
    c = (draw(_small), draw(_small))
    size = st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8)
    kind = draw(st.sampled_from(("disk", "annulus", "rect")))
    if kind == "disk":
        return disk(c, draw(size))
    if kind == "annulus":
        r_in = draw(size)
        return annulus(c, r_in, r_in + draw(size))
    return rectangle(c[0], c[1], c[0] + draw(size), c[1] + draw(size))


def _sampled_or_none(x0, x1, region, steps):
    try:
        return sampled_homotopy_check(x0, x1, region, steps)
    except ContradictionError:     # samples that pass with different indices
        return None


@given(_homotopy_ends(), _planar_regions(), st.integers(2, 8))
@example((plane_field(X, Y), plane_field(2 * X + Y, X + 2 * Y), False),
         rectangle(-1, -1, 1, 1), 8)
@example((plane_field(X, Y), plane_field(-Y, X), False), annulus((0, 0), 1, 2), 3)
@example((plane_field(X, Y), plane_field(Y, -X), False), disk((0, 0), 1), 5)
@settings(max_examples=150, deadline=None)
def test_segment_certificate_against_sampled_loop(ends, region, steps):
    """Wherever the joint pass certifies the segment on every boundary curve,
    the sampled loop of `homotopy_reference` returns `invariant` with the
    index of the check; negated ends are always refused.  Where it refuses,
    the check names the sampled loop's first failing t, or no t when every
    sample passes."""
    x0, x1, negated = ends
    with mock.patch.dict(os.environ, {ENV_MAX_DEPTH: "12"}):
        clear = joint_boundary_pass((x0, x1), region, segment=True) is not None
        verdict = homotopy_invariance_check(x0, x1, region, steps)
        sampled = _sampled_or_none(x0, x1, region, steps)
    if negated:
        assert not clear
    if clear:
        assert verdict.status == "invariant" and sampled == verdict
    elif sampled is not None and sampled.t is not None:
        assert verdict == sampled
    else:
        assert verdict == HomotopyVerdict("degenerate")


@st.composite
def _check_pairs(draw):
    """(x0, x1, region, steps): x0 and the region of `_fields_and_regions`
    (planar disks, annuli, rectangles, torus disks), x1 of x0's ring: x0
    times a weight >= 1, x0 turned by a rotation-scaling, x0 plus a
    constant, -x0, or -c x0, whose step field at t = 1 / (1 + c) is zero
    (x1 itself for c = 0)."""
    x0, region = draw(_fields_and_regions())
    const = Poly2.const if x0.surface == "plane" else TrigPoly2.const
    how = draw(st.sampled_from(("weighted", "turned", "shifted", "negated", "zero_step")))
    if how == "weighted":
        weight = 1 + X * X if x0.surface == "plane" else 2 + TrigPoly2.term(1, 1, "cc", 1)
        x1 = x0.times_scalar_poly(weight)
    elif how == "turned":
        b = draw(_rational)
        x1 = replace(x0, p=x0.p - x0.q * b, q=x0.q + x0.p * b)
    elif how == "shifted":
        x1 = x0 + replace(x0, p=const(draw(_rational)), q=const(draw(_rational)))
    elif how == "negated":
        x1 = -x0
    else:
        x1 = x0.scale(-draw(st.sampled_from((0, Fraction(1, 3), Fraction(1, 2), 2, 3))))
    return x0, x1, region, draw(st.integers(2, 8))


@given(_check_pairs())
@example((plane_field(X, Y), plane_field(-X, -Y), disk((0, 0), 1), 4))
@example((plane_field(X, Y), plane_field(-2 * X, -2 * Y), rectangle(-1, -1, 1, 1), 3))
@example((plane_field(X, Y), plane_field(Poly2.zero(), Poly2.zero()),
          annulus((0, 0), 1, 2), 2))
@example((plane_field(X * X - 1, X * Y), plane_field(X * X - 1 - Y, X * Y + X),
          annulus((0, 0), Fraction(1, 2), Fraction(3, 2)), 8))
@example((torus_field(TrigPoly2.term(1, 0, "sc", 1), TrigPoly2.term(0, 1, "cs", 1)),
          torus_field(-TrigPoly2.term(1, 0, "sc", 1), -TrigPoly2.term(0, 1, "cs", 1)),
          disk((0, 0), Fraction(1, 8)), 6))
@settings(max_examples=150, deadline=None)
def test_checks_match_separate_passes(case):
    """`homotopy_invariance_check` and `wedge_check`, one joint pass per curve,
    give the verdicts (status, index, t or witness) of `homotopy_reference`'s
    checks, which run the segment pass and one `min_norm_on_boundary` per
    field, and raise what they raise."""
    x0, x1, region, steps = case
    with mock.patch.dict(os.environ, {ENV_MAX_DEPTH: "12"}):
        assert _outcome(lambda: homotopy_invariance_check(x0, x1, region, steps)) == \
            _outcome(lambda: homotopy_check_reference(x0, x1, region, steps))
        assert _outcome(lambda: wedge_check(x0, x1, region)) == \
            _outcome(lambda: wedge_check_reference(x0, x1, region))
        passes = joint_boundary_pass((x0, x1), region)
        if passes is not None:      # each field's pass, bit for bit
            assert repr(passes) == repr([min_norm_on_boundary(x, region, tol=1)
                                         for x in (x0, x1)])


def test_wedge_examples(euler, const_east, unit_disk):
    rho = 1 + X ** 2 + Y ** 2
    scaled = plane_field(rho * X, rho * Y)
    v = wedge_check(euler, scaled, unit_disk)
    assert v.status == "equal" and v.index == 1
    v2 = wedge_check(euler, plane_field(-X, -Y), unit_disk)
    assert v2.status == "equal" and v2.index == 1
    v3 = wedge_check(euler, const_east, unit_disk)
    assert v3.status == "not_dependent"
    assert v3.witness is not None
    x, y = v3.witness
    det = euler.p.eval_exact(x, y) * const_east.q.eval_exact(x, y) - \
        euler.q.eval_exact(x, y) * const_east.p.eval_exact(x, y)
    assert det != 0


def test_wedge_not_isolating(euler):
    # boundary passes through the zero of Y' = Y = euler
    v = wedge_check(euler, euler.scale(2), disk((1, 0), 1))
    assert v.status == "not_isolating"


def test_wedge_torus_dependent_fields(torus_sin):
    # det(Y, 2Y) is identically zero: dependent at once, on a disk and a rectangle
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    for region in (disk((half, half), eighth),
                   rectangle(half - eighth, half - eighth, half + eighth, half + eighth)):
        v = wedge_check(torus_sin, torus_sin.scale(2), region)
        assert v.status == "equal" and v.index == 1


def test_wedge_torus_nonzero_det_is_refused(torus_sin):
    swapped = torus_field(torus_sin.q, torus_sin.p)
    with pytest.raises(PreconditionFailed, match="identically zero"):
        wedge_check(torus_sin, swapped, disk((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 8)))


# exact boundary dependence: one restriction per curve piece ------------------


def _on_boundary(region, point) -> bool:
    x, y = point
    if region.kind == "rect":
        x0, y0, x1, y1 = region.corners
        return (x0 <= x <= x1 and y in (y0, y1)) or (y0 <= y <= y1 and x in (x0, x1))
    (cx, cy), radii = region.center, (region.r, region.r_in, region.r_out)
    return (x - cx) ** 2 + (y - cy) ** 2 in {r * r for r in radii if r is not None}


def _vanishing_factor(curve):
    """A polynomial that vanishes on the whole curve."""
    if isinstance(curve, Circle):
        (cx, cy), r = curve.center, curve.r
        return (X - cx) ** 2 + (Y - cy) ** 2 - r * r
    x0, y0, x1, y1 = curve.corners
    return (X - x0) * (X - x1) * (Y - y0) * (Y - y1)


@st.composite
def _dets_and_regions(draw):
    """A random det over a random disk, annulus or rectangle; often a multiple
    of the vanishing factors of some of the boundary curves."""
    kind = draw(st.sampled_from(("disk", "annulus", "rect")))
    c, r = (draw(_rational), draw(_rational)), draw(_radius)
    if kind == "disk":
        region = disk(c, r)
    elif kind == "annulus":
        region = annulus(c, r, r + draw(_radius))
    else:
        region = rectangle(c[0], c[1], c[0] + r, c[1] + draw(_radius))
    det = Poly2({(i, j): draw(_rational) for i in range(3) for j in range(3 - i)
                 if draw(st.booleans())})
    for curve in region.boundary_curves():
        if draw(st.booleans()):
            det = det * _vanishing_factor(curve)
    return det, region


@given(_dets_and_regions())
@settings(max_examples=200, deadline=None)
def test_dependence_matches_the_restrictions(case):
    det, region = case
    curves = region.boundary_curves()
    dependent, witness = _dependent_on_boundary(det, curves)
    zero = all(upoly.is_zero(restrict(det, *piece))
               for curve in curves for piece in curve.pieces())
    assert dependent == zero
    if dependent:
        assert witness is None
    else:
        assert _on_boundary(region, witness) and det.eval_exact(*witness) != 0


@pytest.mark.parametrize("det,region,witness", [
    # zero on the outer circle, listed first: the witness is on the inner one
    (X ** 2 + Y ** 2 - 4, annulus((0, 0), 1, 2), (1, 0)),
    # zero on the bottom edge, the first piece: the witness is on the right edge
    (Y - Fraction(1, 3), rectangle(0, Fraction(1, 3), 1, 1), (1, Fraction(2, 3))),
    # y restricts to 2 r t, zero at t = 0: the witness is at t = 1/2
    (Y, disk((0, 0), 5), (3, 4)),
])
def test_dependence_witness_examples(det, region, witness):
    assert _dependent_on_boundary(det, region.boundary_curves()) == (False, witness)


_CUBIC_MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]
_cubic = st.lists(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8)),
                  min_size=10, max_size=10).map(
    lambda cs: Poly2(dict(zip(_CUBIC_MONOMIALS, cs))))


@given(_cubic, _cubic, _rational, _rational, _radius, _radius)
@settings(max_examples=200, deadline=None)
def test_interval_lipschitz_bounds_the_jacobian(p, q, x0, y0, w, h):
    field = plane_field(p, q)
    x1, y1 = x0 + w, y0 + h
    bound = Fraction(interval_lipschitz(field, (x0, y0, x1, y1)))
    for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1), ((x0 + x1) / 2, (y0 + y1) / 2)):
        assert bound ** 2 >= sum(d.eval_exact(x, y) ** 2 for d in field.jacobian())


def test_double_cover_doubling(saddle_pair_field, circle_field, const_east,
                               std_annulus):
    for field, base_expected in ((saddle_pair_field, 2), (const_east, 0),
                                 (circle_field, 0)):
        lifted_eval, lifted = lift_double_cover(field, std_annulus)
        assert lifted.index == 2 * base_expected
        assert not lifted.certified
        # |lift| >= |X|/2 on the boundary circles: half the certified margin
        base = min_norm_on_boundary(field, std_annulus)
        assert base.index == base_expected
        assert lifted.boundary_margin == base.margin / 2
        # oracle on the lifted evaluator
        outer = Circle((0, 0), Fraction(3, 2), ccw=True)
        inner = Circle((0, 0), Fraction(1, 2), ccw=False)
        assert (oracle_winding(lifted_eval, outer, 20000)
                + oracle_winding(lifted_eval, inner, 20000)) == 2 * base_expected


def _outcome(run):
    """repr of run()'s result, or the type and message of what it raised."""
    try:
        return repr(run())
    except (ArithmeticError, VfblockError) as e:
        return (type(e).__name__, str(e))


_lift_point = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.5, 1e200)),
                        st.floats(-4.0, 4.0))


@given(_cubic, _cubic, st.lists(st.tuples(_lift_point, _lift_point), min_size=1,
                                max_size=8))
@example(X ** 2 - 1, X * Y, [(0.0, -0.0), (1e200, 0.5), (-0.0, 1.0)])
@settings(max_examples=100, deadline=None)
def test_double_cover_lift_matches_eval_float(p, q, points):
    field = plane_field(p, q)
    fast, plain = make_double_cover_lift(field)[0], lifted_reference(field.eval_float)
    for u, v in points:
        assert _outcome(lambda: fast(u, v)) == _outcome(lambda: plain(u, v))


_cover_radii = st.sets(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1),
                                        Fraction(3, 2), Fraction(5, 2)]),
                       min_size=2, max_size=2).map(sorted)


@given(_cubic, _cubic, _cover_radii)
@example(X ** 3 - 1, X * Y, [Fraction(1, 2), Fraction(10 ** 110)])   # x ** 3 overflows
@settings(max_examples=60, deadline=None)
def test_compiled_lift_matches_reference_loops(p, q, radii):
    """The compiled sweep, and the check around it, against the plain loops of
    `lift_reference`: the Lipschitz floats on circles of both orientations,
    then the whole check's IndexResult or error on the annulus between them,
    all by repr.  A smaller winding budget keeps the reference's sample loops
    short; a refusal by the budget still compares the sample count.  The
    compiled code is named `<lift>` in profiles."""
    field = plane_field(p, q)
    lift, sweep = make_double_cover_lift(field)
    assert lift.__code__.co_filename == sweep.__code__.co_filename == "<lift>"
    reference = lifted_reference(float_plan((field.p, field.q)))
    for r in radii:
        for ccw in (True, False):
            curve = Circle((0, 0), r, ccw)
            assert (_outcome(lambda: index.sampled_lipschitz(sweep, curve))
                    == _outcome(lambda: sampled_lipschitz_reference(reference, curve)))
    region = annulus((0, 0), *radii)
    with mock.patch.object(index, "_WINDING_BUDGET", 1 << 14):
        assert (_outcome(lambda: lift_double_cover(field, region)[1])
                == _outcome(lambda: lift_double_cover_reference(field, region)))


def test_torus_lift_matches_reference_loops(torus_sin):
    # a TrigPoly2 field has no float plan: the compiled lift reads X pointwise
    region = annulus((0, 0), Fraction(1, 16), Fraction(1, 8))
    lift, sweep = make_double_cover_lift(torus_sin)
    reference = lifted_reference(torus_sin.eval_float)
    assert repr(lift(0.1, -0.03)) == repr(reference(0.1, -0.03))
    for curve in region.boundary_curves():
        assert (repr(index.sampled_lipschitz(sweep, curve))
                == repr(sampled_lipschitz_reference(reference, curve)))
    result = lift_double_cover(torus_sin, region)[1]
    assert repr(result) == repr(lift_double_cover_reference(torus_sin, region))


def test_float_overflow_on_the_boundary_is_refused_not_raised():
    """x ** 3 overflows a float at the midpoints that the margin pass samples
    on the outer circle: the pass refuses with a BoundaryZero naming the
    overflow, so the lift is refused and the theorem check that needs the
    block is inconclusive, not crashed by a bare OverflowError."""
    field = plane_field(X ** 3 - 1, X * Y)
    region = annulus((0, 0), Fraction(1, 2), Fraction(10 ** 110))
    with pytest.raises(BoundaryZero, match="overflows a float"):
        winding_stats(field, region.boundary_curves()[0], tol=Fraction(1, 2))
    assert min_norm_on_boundary(field, region) is None
    with pytest.raises(CertificationFailed, match="not certified nonvanishing"):
        lift_double_cover(field, region)
    report = verify_main(field, plane_field(X, Y), region)
    assert report.hypothesis_checks[0].to_json() == {
        "name": "K is an essential X-block", "verdict": "inconclusive",
        "data": {"error": "no positive boundary margin could be certified"}}


def test_double_cover_takes_the_blocks_boundary_pass(saddle_pair_field, circle_field,
                                                     std_annulus):
    block = certify_block(saddle_pair_field, std_annulus, Fraction(1, 16))
    own = lift_double_cover(saddle_pair_field, std_annulus)[1]
    assert lift_double_cover(saddle_pair_field, std_annulus, block)[1] == own
    with pytest.raises(ValueError):
        lift_double_cover(circle_field, std_annulus, block)


def test_double_cover_requires_origin_centered(saddle_pair_field):
    with pytest.raises(ValueError):
        lift_double_cover(saddle_pair_field, annulus((1, 0), 1, 2))


def test_double_cover_corpus_identity(std_annulus):
    # doubling holds for every corpus field certified nonvanishing on the boundary
    fields = [
        plane_field(X, Y),
        plane_field(X ** 2 - Y ** 2, 2 * X * Y),
        plane_field(X - Y, X + Y),
    ]
    for f in fields:
        try:
            lift_double_cover(f, std_annulus)
        except ContradictionError as e:  # pragma: no cover - would be a real bug
            pytest.fail(f"doubling identity failed: {e}")
