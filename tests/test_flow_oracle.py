"""`flows.integrate` against the tableau loop it unrolls, and the generated
variational right-hand side against the closure it replaces, bit for bit.

Every returned float is compared by `repr` (so -0.0 and NaN count), and a
raised exception by its type and message."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flow_reference import integrate_reference, variational_reference
from vfblock.fields import plane_field
from vfblock.flows import DEFAULT_BBOX, field_rhs, integrate
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
