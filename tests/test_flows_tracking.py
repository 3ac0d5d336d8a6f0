"""Flow integration, flowboxes, tracking certificates and invariance checks."""

import math
import random
from fractions import Fraction

import pytest

from vfblock.certify import certify_block
from vfblock.errors import (EscapeError, PreconditionFailed, ZeroAtBasePoint)
from vfblock.fields import plane_field
from vfblock.flows import flow_integrate, flowbox_build
from vfblock.poly import Poly2, X, Y
from vfblock.regions import annulus, disk
from vfblock.tracking import (component_order_check, numeric_order_estimate,
                              order_invariance_check, polish_zero,
                              tracking_residual, tracks_symbolic,
                              zero_invariance_check)


def test_flow_rotation(rotation):
    q = flow_integrate(rotation, (1, 0), math.pi / 2)
    assert math.hypot(q[0] - 0, q[1] - 1) < 1e-9


def test_flow_translation(const_east):
    assert flow_integrate(const_east, (3.25, -2.0), 1.0) == pytest.approx((4.25, -2.0))


def test_flow_span_below_step_floor(rotation):
    assert flow_integrate(rotation, (1, 0), 3e-18) == pytest.approx((1.0, 3e-18))


def test_flow_exponential(euler):
    q = flow_integrate(euler, (1, 0), math.log(2))
    assert abs(q[0] - 2) < 1e-9 and q[1] == 0


def test_flow_composition_property(rotation):
    rng = random.Random(5)
    for _ in range(10):
        p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
        q1 = flow_integrate(rotation, flow_integrate(rotation, p, t, 1e-11), s, 1e-11)
        q2 = flow_integrate(rotation, p, s + t, 1e-11)
        assert math.hypot(q1[0] - q2[0], q1[1] - q2[1]) < 1e-9


def test_flow_escape(euler):
    with pytest.raises(EscapeError):
        flow_integrate(euler, (1, 0), 10.0, bbox=(-100, -100, 100, 100))


def test_flowbox_identity_chart(const_east):
    fb = flowbox_build(const_east, (0, 0), 0.5, 0.5)
    assert fb.forward(0.3, 0.2) == pytest.approx((0.3, 0.2))
    other = plane_field(X * Y, X + Y)
    pushed = fb.pushforward(other)
    assert pushed(0.3, 0.2) == pytest.approx((0.06, 0.5))


def test_flowbox_polar_chart(rotation):
    fb = flowbox_build(rotation, (1, 0), 0.15, 0.5)
    pushed = fb.pushforward(rotation)
    worst = 0.0
    for i in range(10):
        t = fb.time_window * (2 * i / 9 - 1)
        for j in range(10):
            s = fb.half_length * (2 * j / 9 - 1)
            a, b = pushed(t, s)
            worst = max(worst, abs(a - 1), abs(b))
    assert worst < 1e-6


def test_flowbox_zero_base(euler):
    with pytest.raises(ZeroAtBasePoint):
        flowbox_build(euler, (0, 0), 0.1, 0.1)


def test_flowbox_inverse_roundtrip(rotation):
    fb = flowbox_build(rotation, (1, 0), 0.15, 0.5)
    t, s = fb.inverse(fb.forward(0.21, -0.07))
    assert (t, s) == pytest.approx((0.21, -0.07), abs=1e-8)
    assert fb.inverse((0.0, 0.0)) is None  # far outside the window


def test_tracks_symbolic_examples(euler, rotation, circle_field, const_east):
    assert tracks_symbolic(rotation, euler).verdict
    assert tracks_symbolic(rotation, circle_field).verdict
    assert not tracks_symbolic(const_east, euler).verdict
    cert = tracks_symbolic(rotation, euler)
    assert cert.to_json() == {"mode": "symbolic", "verdict": True, "residual": "0"}


def test_tracking_gx_family(euler):
    # [gX, X] = -(X . grad g) X is parallel to X for every polynomial g
    rng = random.Random(9)
    for _ in range(20):
        terms = {}
        for i in range(3):
            for j in range(3 - i):
                if rng.random() < 0.7:
                    terms[(i, j)] = Fraction(rng.randint(-3, 3))
        g = Poly2(terms)
        base = plane_field(X + Y ** 2, Y - X ** 2)  # arbitrary nonzero X
        y_field = base.times_scalar_poly(g)
        assert tracks_symbolic(y_field, base).verdict


def test_tracking_linear_in_y(euler, rotation):
    # if Y and Y' track X then aY + bY' tracks X
    rng = random.Random(13)
    scaled = euler.times_scalar_poly(X ** 2 + Y ** 2 + 1)
    for _ in range(10):
        a = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        b = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        combo = rotation.scale(a) + scaled.scale(b)
        assert tracks_symbolic(combo, euler).verdict


def test_tracking_residual(circle_field, rotation, euler, const_east, std_annulus,
                           unit_disk):
    assert tracking_residual(rotation, circle_field, std_annulus, 1000) < 1e-12
    assert tracking_residual(const_east, euler, unit_disk, 1000) > 0.1
    assert tracking_residual(euler, euler, unit_disk, 100) == 0.0


def test_residual_splits_corpus(circle_field, rotation, euler, const_east,
                                std_annulus, unit_disk):
    # tracking pairs flatline; certified non-tracking pairs exceed 1e-3
    tracking = [(rotation, circle_field, std_annulus), (rotation, euler, unit_disk),
                (euler.times_scalar_poly(X ** 2 + 1), euler, unit_disk)]
    non_tracking = [(const_east, euler, unit_disk),
                    (const_east, circle_field, std_annulus),
                    (plane_field(Y, Poly2.zero()), circle_field, std_annulus)]
    for y_field, x_field, region in tracking:
        assert tracks_symbolic(y_field, x_field).verdict
        assert tracking_residual(y_field, x_field, region, 500) < 1e-10
    for y_field, x_field, region in non_tracking:
        assert not tracks_symbolic(y_field, x_field).verdict
        assert tracking_residual(y_field, x_field, region, 500) > 1e-3


def test_zero_invariance_annulus(circle_field, rotation, std_annulus):
    blk = certify_block(circle_field, std_annulus, Fraction(1, 64))
    report = zero_invariance_check(circle_field, rotation, blk,
                                   t_max=1.0, n_points=8, tol=1e-8)
    assert report.verdict
    assert report.max_defect < report.tolerance


def test_zero_invariance_fixed_origin(euler, rotation, unit_disk):
    blk = certify_block(euler, unit_disk, Fraction(1, 32))
    report = zero_invariance_check(euler, rotation, blk, t_max=2.0, n_points=2)
    assert report.verdict


def test_zero_invariance_refuses_non_tracking(euler, const_east, unit_disk):
    blk = certify_block(euler, unit_disk, Fraction(1, 32))
    with pytest.raises(PreconditionFailed):
        zero_invariance_check(euler, const_east, blk)


def test_polish_zero_converges(circle_field):
    p = polish_zero(circle_field, (1.02, 0.03))
    assert abs(math.hypot(*p) - 1) < 1e-10


def test_numeric_order_estimates(euler, dipole):
    assert numeric_order_estimate(euler, (0.0, 0.0), 2) == 1
    assert numeric_order_estimate(dipole, (0.0, 0.0), 3) == 2


def test_order_invariance_annulus(circle_field, rotation):
    report = order_invariance_check(circle_field, rotation, (1, 0), math.pi / 2, 1)
    assert report.verdict
    assert report.order_at_p.order == 1
    assert report.order_at_q == 1
    # the flowed point lands on (0, 1), which is an exact rational zero
    assert report.exact_order_at_q is not None
    assert report.exact_order_at_q.order == 1


def test_order_invariance_fixed_point(euler, rotation):
    report = order_invariance_check(euler, rotation, (0, 0), 0.7, 1)
    assert report.verdict


def test_component_order_check(circle_field):
    report = component_order_check(
        circle_field, [(1, 0), (0, 1), (-1, 0), (0, -1)], 1)
    assert report.verdict
    assert [o.order for o in report.orders] == [1, 1, 1, 1]
