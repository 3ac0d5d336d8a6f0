"""Flow integration, flowboxes, tracking certificates and exact order checks."""

import math
import random
from fractions import Fraction

import pytest

from vfblock.errors import EscapeError, ZeroAtBasePoint
from vfblock.fields import PlanarField, lie_bracket, plane_field
from vfblock.flows import flow_integrate, flowbox_build
from vfblock.poly import Poly2, X, Y, float_plan, generated_plan
from vfblock.regions import Region
from vfblock.tracking import component_order_check, polish_zero, tracks_symbolic


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


def test_one_float_plan_per_field(monkeypatch):
    # every window a flowbox tries shares one variational plan, and every
    # polish of the same field one Jacobian plan
    from vfblock import fields
    builds = []

    def counted(*args):
        builds.append("jacobian")
        return float_plan(*args)

    def counted_generated(*args):
        builds.append("variational")
        return generated_plan(*args)

    monkeypatch.setattr(fields, "float_plan", counted)
    monkeypatch.setattr(fields, "generated_plan", counted_generated)
    field = plane_field(-Y + X * X, X)
    first = flowbox_build(field, (1, 0), 0.15, 0.5)
    again = flowbox_build(field, (1, 0), 0.15, 0.5)
    assert first.forward(0.1, 0.05) == again.forward(0.1, 0.05)
    assert polish_zero(field, (0.1, 0.1)) == polish_zero(field, (0.1, 0.1))
    assert builds == ["variational", "jacobian"]
    # each kind of generated code under its own name in profiles
    assert field.variational_plan.__code__.co_filename == "<variational_plan>"
    assert field.jacobian_plan.__code__.co_filename == "<jacobian_plan>"
    assert float_plan([field.p]).__code__.co_filename == "<float_plan>"
    assert field.jacobian_plan(0.5, -0.25) == [c.eval_float(0.5, -0.25) for c in
                                               (field.p, field.q, *field.jacobian())]


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


def tracking_residual(y_field: PlanarField, x_field: PlanarField, region: Region,
                      n_samples: int, seed: int = 0) -> float:
    """Numeric cross-check: max normalized parallelism defect of [Y,X] with X
    over sampled points where |X| is above 1e-9."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    bracket = lie_bracket(y_field, x_field)
    rng = random.Random(seed)
    x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
    worst = 0.0
    used = 0
    while used < n_samples:
        px = rng.uniform(x0, x1)
        py = rng.uniform(y0, y1)
        if not region.contains_point_closed((Fraction(px).limit_denominator(1 << 30),
                                             Fraction(py).limit_denominator(1 << 30))):
            continue
        used += 1
        vx, vy = x_field.eval_float(px, py)
        nx = math.hypot(vx, vy)
        if nx <= 1e-9:
            continue
        bx, by = bracket.eval_float(px, py)
        nb = math.hypot(bx, by)
        defect = abs(bx * vy - by * vx) / (nb * nx + 1e-300)
        worst = max(worst, defect)
    return worst


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


def test_polish_zero_converges(circle_field):
    p = polish_zero(circle_field, (1.02, 0.03))
    assert abs(math.hypot(*p) - 1) < 1e-10


def test_component_order_check(circle_field):
    report = component_order_check(
        circle_field, [(1, 0), (0, 1), (-1, 0), (0, -1)], 1)
    assert report.verdict
    assert [o.order for o in report.orders] == [1, 1, 1, 1]
