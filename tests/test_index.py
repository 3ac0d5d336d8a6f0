"""Winding numbers and index identities, checked against a dense-sampling oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vfblock.certify import certify_block
from vfblock.errors import BoundaryZero, ContradictionError
from vfblock.fields import plane_field, torus_field
from vfblock.index import (block_index, homotopy_invariance_check,
                           lift_double_cover, min_norm_on_boundary,
                           perturbation_bound, region_index, wedge_check,
                           winding_stats)
from vfblock.poly import Poly2, X, Y
from vfblock.regions import Circle, annulus, disk, rectangle
from vfblock.trig import TrigPoly2


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


def test_winding_boundary_zero_raises(euler):
    # the circle passes through the zero of X at the origin
    with pytest.raises(BoundaryZero):
        winding_stats(euler, Circle((1, 0), 1, ccw=True), max_depth=12)


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
            stats = winding_stats(field, curve, tol=1, max_depth=16)
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
        assert result.samples == blk.arcs > 0


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
    blk = certify_block(euler, unit_disk, Fraction(1, 32), tol=Fraction(1, 200))
    delta = perturbation_bound(blk)
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
    blk = certify_block(euler, unit_disk, Fraction(1, 32), tol=Fraction(1, 200))
    delta = perturbation_bound(blk)
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


def test_homotopy_constant(euler, unit_disk):
    verdict = homotopy_invariance_check(euler, euler, unit_disk, 4)
    assert verdict.status == "invariant" and verdict.index == 1


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
