"""`flows.integrate` against the tableau loop it unrolls, the generated
variational right-hand side against the closure it replaces, and runs and
flowbox frames served from trails against fresh runs, bit for bit.

Every returned float is compared by `repr` (so -0.0 and NaN count), and a
raised exception by its type and message."""

import time
from array import array
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flow_reference import integrate_reference, variational_reference
from vfblock import flows
from vfblock.errors import EscapeError
from vfblock.fields import plane_field
from vfblock.flows import DEFAULT_BBOX, Flowbox, _start_step, field_rhs, integrate
from vfblock.linefield import flowbox_line_field
from vfblock.poly import Poly2, X, Y

_coeff = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def component_st(draw):
    """A Poly2 of degree at most 3, sometimes zero or a constant."""
    kind = draw(st.sampled_from(("zero", "const", "poly")))
    if kind == "zero":
        return Poly2.zero()
    if kind == "const":
        return Poly2.const(draw(_coeff.filter(bool)))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, 3))
        terms[(i, draw(st.integers(0, 3 - i)))] = draw(_coeff)
    return Poly2(terms)


_start = st.floats(-0.5, 0.5)
_t = st.one_of(st.sampled_from((0.0, -0.0, 3e-18, -3e-18, 5e-15, -5e-15)),
               st.floats(-3.0, 3.0))
_bbox = st.sampled_from((None, DEFAULT_BBOX, (-0.6, -0.6, 0.6, 0.6)))


def _outcome(integrator, *args):
    try:
        return [repr(v) for v in integrator(*args)]
    except Exception as e:      # the error itself is part of the result
        return (type(e).__name__, str(e))


@given(component_st(), component_st(), st.booleans(),
       st.tuples(_start, _start, _start, _start), _t,
       st.floats(1e-12, 1e-6), _bbox)
@settings(max_examples=300, deadline=None)
@example(X, Y, False, (0.5, 0.0, 0.0, 0.0), 1.0, 1e-10,
         (-0.6, -0.6, 0.6, 0.6))                       # leaves the small bbox
@example(-Y, X, True, (0.5, 0.0, 0.0, 1.0), 3e-18, 1e-10, None)  # span below h_min
@example(Poly2.zero(), Poly2.zero(), False, (0.1, -0.0, 0.0, 0.0), -0.5, 1e-8,
         DEFAULT_BBOX)                                 # a zero field keeps -0.0
@example(X ** 3, Poly2.const(1), False, (0.5, 0.0, 0.0, 0.0), 3.0, 1e-12,
         None)                                         # blows up: StepUnderflow at t = 2
@example(X, Y, True, (0.5, 0.0, 1.0, 0.0), 1.0, 1e-10,
         (-0.6, -0.6, 0.6, 0.6))                       # 4-D: leaves the small bbox
@example(X ** 3, Poly2.const(1), False, (10.0, 0.0, 0.0, 0.0), 3.0, 1e-12,
         None)                                         # a stage raises OverflowError
@example(X ** 3, Poly2.const(1), True, (10.0, 0.0, 1.0, 0.0), 3.0, 1e-12,
         None)                                         # 4-D: a stage raises OverflowError
def test_integrate_matches_reference(p, q, variational, start, t, tol, bbox):
    field = plane_field(p, q)
    if variational:
        rhs, ref, y0 = field.variational_plan, variational_reference(field), start
    else:
        rhs, y0 = field_rhs(field), start[:2]
        ref = rhs
    got = _outcome(integrate, rhs, y0, t, tol, bbox)
    assert got == _outcome(integrate_reference, ref, y0, t, tol, bbox)
    assert got == _outcome(integrate, ref, y0, t, tol, bbox)


_coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0, 1e155, -1e200)),
                   st.floats(allow_nan=True, allow_infinity=True))


@given(component_st(), component_st(), st.tuples(_coord, _coord, _coord, _coord))
@settings(max_examples=300, deadline=None)
@example(X ** 3, Y ** 2, (1e155, 0.5, 1.0, -1.0))      # x**3 overflows
@example(X * Y, Poly2.zero(), (-0.0, 0.0, -0.0, 0.0))  # signed zeros
def test_variational_plan_matches_closure(p, q, state):
    field = plane_field(p, q)
    assert _outcome(field.variational_plan, state) == \
        _outcome(variational_reference(field), state)


def test_torus_variational_plan_is_the_closure(torus_sin):
    # TrigPoly2 components have no generated plan: a closure over
    # `jacobian_plan`, built once per field, gives the reference's floats
    rhs, ref = torus_sin.variational_plan, variational_reference(torus_sin)
    assert rhs is torus_sin.variational_plan
    for state in ((0.1, 0.2, 1.0, 0.0), (2.5, -1.25, -0.5, 0.75), (-0.0, 3.0, 0.0, -0.0)):
        assert _outcome(rhs, state) == _outcome(ref, state)
    start = (0.3, 0.4, 0.0, 1.0)
    assert _outcome(integrate, rhs, start, 0.7, 1e-10, None) == \
        _outcome(integrate_reference, ref, start, 0.7, 1e-10, None)


def test_bbox_needs_two_coordinates():
    # a bbox bounds the first two coordinates: a 1-D state is refused up front
    message = "a bbox needs a state of dimension >= 2, got 1"
    for integrator in (integrate, integrate_reference):
        with pytest.raises(ValueError, match=message):
            integrator(lambda y: (y[0],), (1.0,), 1.0, 1e-10)
        with pytest.raises(ValueError, match=message):
            integrator(lambda y: (y[0],), (1.0,), 0.0, 1e-10, (-1, -1, 1, 1))
    assert _outcome(integrate, lambda y: (y[0],), (1.0,), 1.0, 1e-10, None) == \
        _outcome(integrate_reference, lambda y: (y[0],), (1.0,), 1.0, 1e-10, None)


# Trails: runs from one start point resume each other's step sequence.  Every
# request below is compared with a fresh run, by `repr` of every float and by
# each error's type and message.

class _GuardedField:
    """The plane field (p, q), whose variational right-hand side raises
    ValueError on a state with a coordinate past 1e3.  A run that blows up
    then ends soon, in a StepUnderflow (the error hits a stage) or in that
    error, instead of creeping through the 200,000-step budget."""

    def __init__(self, p, q):
        field = plane_field(p, q)
        self.plan, self.eval_float = field.variational_plan, field.eval_float

    def variational_plan(self, y):
        if max(map(abs, y)) > 1e3:
            raise ValueError("state past 1e3")
        return self.plan(y)


_target = st.one_of(
    st.sampled_from((0.05, 0.1, 0.25, 0.5, 1.0, 1.5, -0.05, -0.25, -0.5, -1.0, -2.0)),
    st.floats(-2.5, 2.5))
_zero_or = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-0.5, 0.5))


@given(component_st(), component_st(), st.tuples(_zero_or, _zero_or, _zero_or, _zero_or),
       st.lists(_target, min_size=1, max_size=8), st.floats(1e-12, 1e-6))
@settings(max_examples=200, deadline=None)
@example(X ** 3, Poly2.const(1), (2.0, 0.0, 1.0, 0.0), [0.3, 0.2, 0.5, 0.15, 0.5],
         1e-12)                                         # blows up at t = 1/8: StepUnderflow
@example(-X ** 3, Poly2.zero(), (2.0, -0.0, 1.0, -0.0), [-0.5, -0.2, -0.3, -0.3],
         1e-12)                                         # blows up backwards
@example(-Y, X, (-0.0, 0.0, -0.0, 1.0), [0.5, 0.25, 1.0, 0.75, 0.05, 1.5, 0.5],
         1e-10)                                         # below 0.1, above 1 and repeated
@example(Poly2.zero(), Poly2.zero(), (-0.0, 0.0, 0.0, -0.0), [0.5, 0.3, -0.4], 1e-8)
def test_trails_match_fresh_runs(p, q, start, targets, tol):
    rhs = _GuardedField(p, q).variational_plan
    trails = {}
    for t in targets:
        key = (t > 0, *_start_step(t))
        trail = trails.setdefault(key, array("d"))
        got = _outcome(integrate, rhs, start, t, tol, None, trail)
        assert got == _outcome(integrate, rhs, start, t, tol, None)


def _fresh_frame(fb, t, s):
    """`Flowbox.frame` with neither memo nor trail."""
    x0, y0 = fb._transversal(s)
    if t == 0.0:
        pt, v = (x0, y0), fb.normal
    else:
        x, y, vx, vy = integrate(fb.field.variational_plan, (x0, y0, *fb.normal),
                                 t, fb.tol, DEFAULT_BBOX)
        pt, v = (x, y), (vx, vy)
    return pt, fb.field.eval_float(*pt), v


def _frame_outcome(frame, t, s):
    try:
        return [repr(v) for part in frame(t, s) for v in part]
    except Exception as e:      # the error itself is part of the result
        return (type(e).__name__, str(e))


_chart_t = st.one_of(st.sampled_from((0.0, -0.0, 0.05, 0.2, 0.4, 0.5, -0.2, -0.4, 1.5)),
                     st.floats(-2.0, 2.0))
_chart_s = st.one_of(st.sampled_from((0.0, -0.0, 1e-4, -1e-4, 0.05, -0.05)),
                     st.floats(-0.1, 0.1))
_normal = st.sampled_from(((1.0, 0.0), (-0.0, 1.0), (0.6, -0.8), (-0.8, -0.6)))


@given(component_st(), component_st(), st.tuples(_zero_or, _zero_or), _normal,
       st.lists(st.tuples(_chart_t, _chart_s), min_size=1, max_size=10),
       st.floats(1e-12, 1e-6))
@settings(max_examples=200, deadline=None)
@example(-Y, X, (-0.0, 0.5), (1.0, 0.0),
         [(0.25, 0.0), (0.5, 0.0), (0.25, -0.0), (0.5, -0.0), (-0.5, 0.05), (-0.25, 0.05),
          (0.3, 0.0), (0.5, 0.0)], 1e-12)               # signed zeros on the transversal
@example(X ** 3, Poly2.const(1), (2.0, 0.0), (1.0, 0.0),
         [(0.5, 0.0), (0.2, 0.0), (0.1, 0.0)], 1e-12)   # StepUnderflow, not cached
@example(Poly2.zero(), Poly2.zero(), (-0.0, 0.5), (1.0, 0.0),
         [(-0.5, 0.0), (-0.5, -0.0), (-0.25, -0.0), (0.0, 0.0), (0.0, -0.0)],
         1e-10)                                         # x stays 0.0 or -0.0 for t <= 0
def test_frames_match_fresh_runs(p, q, base, normal, requests, tol):
    # any request order, Newton-like arbitrary (t, s) included
    fb = Flowbox(_GuardedField(p, q), base, (normal[1], -normal[0]), normal, 1.0, 0.1, 0.5, tol)
    for t, s in requests:
        assert _frame_outcome(fb.frame, t, s) == _frame_outcome(partial(_fresh_frame, fb), t, s)


class _Wall:
    """x' = 1 up to a wall at x = 0.6 that no stage may pass: the steps
    shrink by 0.2 as they near it until one falls below h_min, so the
    `StepUnderflow` of a run depends on the h_min of its target."""

    @staticmethod
    def variational_plan(y):
        if y[0] > 0.6:
            raise ValueError("past the wall")
        return (1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def eval_float(x, y):
        return (1.0, 0.0)


def test_frames_keep_each_targets_underflow_floor():
    # t = 1.1 steps on past h = 2.6e-14, where t = 4.0 (h_min 4e-14) stops:
    # a trail shared across h_min would give 4.0 the message of 1.1
    fb = Flowbox(_Wall(), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 1.0, 0.1, 0.5, 1e-10)
    outcomes = []
    for t in (0.7, 0.65, 1.1, 4.0, 1.1, 0.9, -1.1, -4.0):
        outcomes.append(_frame_outcome(fb.frame, t, 0.0))
        assert outcomes[-1] == _frame_outcome(partial(_fresh_frame, fb), t, 0.0)
    assert outcomes[2:4] == [("StepUnderflow", "step collapsed to 5.24288e-15 at t=0.6"),
                             ("StepUnderflow", "step collapsed to 2.62144e-14 at t=0.6")]


def test_runaway_frame_fails_fast():
    # with no bbox this variational run spent the 200,000-step budget (over
    # 2 s) before StepUnderflow; inside DEFAULT_BBOX it escapes in about 25 ms,
    # and the margin scan reads the escape as a fold, so the window shrinks
    p = (Fraction(-15, 8) - 2 * Y ** 2 - Fraction(1, 3) * X * Y
         + Fraction(11, 6) * X ** 2 * Y + Fraction(6, 5) * X ** 3)
    q = Fraction(11, 7) * X - X ** 2 - Fraction(1, 2) * X ** 3
    fb = Flowbox(plane_field(p, q), (0.0, -0.0), (0.0, -1.0), (1.0, 0.0), 1.0, 0.1, 1.5,
                 9.3e-7)
    start = time.perf_counter()
    with pytest.raises(EscapeError, match="left the bounding box"):
        fb.frame(1.5, 0.0)
    assert time.perf_counter() - start < 0.5
    assert flows._injectivity_margin(fb) == 0.0


def test_each_frame_is_one_integrate_call(monkeypatch, circle_field):
    # the frames of a flowbox check: one call through the module global
    # `flows.integrate` per integrated frame, and trails of floats only
    calls = []
    real = flows.integrate

    def spy(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "integrate", spy)
    fb = flows.flowbox_build(plane_field(-Y, X), (0.6, 0.8), 0.1, 0.5, tol=1e-12)
    _, chart_dir = flowbox_line_field(fb, circle_field, 1)
    for t in (0.4, -0.2, 0.2, -0.4, 0.45, 0.1):
        for s in (0.0, 0.05, -0.05):
            chart_dir(t, s)
    assert fb.inverse(fb.forward(0.3, 0.02)) is not None
    integrated = [key[0] for key in fb._frames if key[0] != 0.0]
    assert sorted(calls) == sorted(integrated) and len(calls) > 40
    assert len(fb._trails) < len(calls)
    for key, trail in fb._trails.items():
        assert type(trail) is array and trail.typecode == "d" and len(trail) % 7 == 0
        assert not any(callable(part) for part in key)
