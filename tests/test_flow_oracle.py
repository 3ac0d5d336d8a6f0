"""`flows.integrate` against the tableau loop it unrolls, bit for bit.

Every returned float is compared by `repr` (so -0.0 and NaN count), and a
raised exception by its type and message."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flow_reference import integrate_reference
from vfblock.fields import plane_field
from vfblock.flows import DEFAULT_BBOX, field_rhs, integrate, variational_rhs
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
        rhs, y0 = variational_rhs(field), start
    else:
        rhs, y0 = field_rhs(field), start[:2]
    assert _outcome(integrate, rhs, y0, t, tol, bbox) == \
        _outcome(integrate_reference, rhs, y0, t, tol, bbox)
