"""PiNumber on integer numerators over one denominator, and TrigPoly2 on top of
it, against the Fraction dicts of `fraction_reference`.

Every operation must give the reference's values in the reference's term
order: the keys of a torus polynomial, and the powers of pi within each
coefficient.  Each PiNumber is in canonical form: int numerators, none zero,
over a positive int denominator that shares no factor with them, and
denominator 1 for zero; a TrigPoly2 sits over 1.  The interval plans and the
float values, which read n / d and `iv.ratio(n, d)`, must give the bits of the
reference's `float(Fraction)` and `make_reference(Fraction)`.
"""

import math
from fractions import Fraction

from fraction_reference import (pi_add, pi_float, pi_interval, pi_mul, pi_neg, pi_of,
                                pi_to_json, trig_add, trig_diff, trig_eval_float,
                                trig_from_json, trig_mul, trig_neg, trig_of, trig_plan,
                                trig_scale, trig_sub, trig_to_json)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_poly_integer import rational_st

from vfblock.trig import COS, SIN, PiNumber, TrigPoly2


pi_coeffs_st = st.dictionaries(st.integers(0, 3), rational_st(), max_size=3)


@st.composite
def torus_terms_st(draw):
    """Raw terms {(m, n, bx, by): Q[pi] coefficients}: negative frequencies
    and sin at frequency 0 included, which the constructor normalizes."""
    key = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                    st.sampled_from((COS, SIN)), st.sampled_from((COS, SIN)))
    return draw(st.dictionaries(key, pi_coeffs_st, max_size=5))


def _pi_canonical(c: PiNumber):
    assert type(c._d) is int and c._d > 0
    assert all(type(v) is int and v for v in c._m.values())
    assert math.gcd(c._d, *c._m.values()) == 1


def _pi_same(c: PiNumber, ref: dict):
    """Equal values in the same order of pi powers, in canonical form."""
    assert list(c._c.items()) == list(ref.items())
    _pi_canonical(c)


def _bits(values):
    return [x.hex() for x in values]


def _trig_same(p: TrigPoly2, ref: dict):
    """Equal keys and coefficients in the same order, the interval plan and
    the float forms bit for bit."""
    assert p._d == 1 and list(p._m) == list(ref)
    for c, rc in zip(p._m.values(), ref.values()):
        _pi_same(c, rc)
    (mi, mj, terms), (ri, rj, rterms) = p._plan(), trig_plan(ref)
    assert (mi, mj) == (ri, rj)
    assert [(i, j, *_bits(c)) for i, j, *c in terms] == \
        [(i, j, *_bits(c)) for i, j, *c in rterms]
    assert _bits(float(c) for c in p._m.values()) == _bits(pi_float(c) for c in ref.values())


@given(pi_coeffs_st, pi_coeffs_st, rational_st())
@settings(max_examples=150, deadline=None)
@example({0: "1/2"}, {1: 2}, 0)
@example({0: round(math.pi * 2 ** 60), 1: -2 ** 60}, {}, 3)
def test_pi_number_matches_reference(ca, cb, q):
    a, b, q = PiNumber(ca), PiNumber(cb), Fraction(q)
    ra, rb, rq = pi_of(ca), pi_of(cb), pi_of({0: q})
    _pi_same(a, ra)
    _pi_same(a + b, pi_add(ra, rb))
    _pi_same(a - b, pi_add(ra, pi_neg(rb)))
    _pi_same(-a, pi_neg(ra))
    _pi_same(a * b, pi_mul(ra, rb))
    _pi_same(a * q, pi_mul(ra, rq))
    _pi_same(q * a, pi_mul(ra, rq))
    _pi_same(a * int(q), pi_mul(ra, pi_of({0: int(q)})))
    _pi_same(a + q, pi_add(ra, rq))
    _pi_same((a + b) - b, pi_add(pi_add(ra, rb), pi_neg(rb)))
    assert a.to_json() == pi_to_json(ra)
    _pi_same(PiNumber.from_json(a.to_json()), dict(sorted(ra.items())))
    assert a.as_fraction() == (ra.get(0, Fraction(0)) if set(ra) <= {0} else None)
    assert float(a).hex() == pi_float(ra).hex()
    assert _bits(a.interval()) == _bits(pi_interval(ra))
    for zero in (a - a, a * 0, PiNumber(), PiNumber({2: 0})):
        assert zero._d == 1 and zero._m == {} and zero == 0


@given(torus_terms_st(), torus_terms_st(), pi_coeffs_st, rational_st(),
       st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=150, deadline=None)
@example({(1, 0, SIN, COS): {0: 1}}, {(0, 1, COS, SIN): {0: 1}}, {}, 0, 0.25, -0.5)
@example({(0, 0, COS, COS): {0: "1/2"}}, {(1, 1, COS, COS): {1: 3}}, {1: 1}, "6/4", 0.1, 0.3)
def test_torus_polynomial_matches_reference(ta, tb, c, q, x, y):
    a = TrigPoly2({k: PiNumber(v) for k, v in ta.items()})
    b = TrigPoly2({k: PiNumber(v) for k, v in tb.items()})
    ra = trig_of({k: pi_of(v) for k, v in ta.items()})
    rb = trig_of({k: pi_of(v) for k, v in tb.items()})
    pc, rc, q = PiNumber(c), pi_of(c), Fraction(q)
    _trig_same(a, ra)
    _trig_same(a + b, trig_add(ra, rb))
    _trig_same(a - b, trig_sub(ra, rb))
    _trig_same(-a, trig_neg(ra))
    _trig_same((a + b) - b, trig_sub(trig_add(ra, rb), rb))
    _trig_same(a * b, trig_mul(ra, rb))
    _trig_same(a * a, trig_mul(ra, ra))
    _trig_same(a * pc, trig_scale(ra, rc))
    _trig_same(q * a, trig_scale(ra, pi_of({0: q})))
    _trig_same(a * q, trig_scale(ra, pi_of({0: q})))
    _trig_same(a * int(q), trig_scale(ra, pi_of({0: int(q)})))
    _trig_same(a + q, trig_add(ra, trig_of({(0, 0, COS, COS): pi_of({0: q})})))
    _trig_same(a.dx(), trig_diff(ra, 0))
    _trig_same(a.dy(), trig_diff(ra, 1))
    _trig_same((a * b).dx().dy(), trig_diff(trig_diff(trig_mul(ra, rb), 0), 1))
    assert a.to_json() == trig_to_json(ra)
    _trig_same(TrigPoly2.from_json(a.to_json()), trig_from_json(trig_to_json(ra)))
    for p, rp in ((a, ra), (a * b, trig_mul(ra, rb)), (a.dx(), trig_diff(ra, 0))):
        assert p.eval_float(x, y).hex() == trig_eval_float(rp, x, y).hex()
        assert p.eval_float(x, y).hex() == p.eval_float(x, y).hex()    # from the cache
    for zero in (a - a, a * 0, a * PiNumber(), TrigPoly2(), TrigPoly2({(0, 0, SIN, COS): 1})):
        assert zero._d == 1 and zero._m == {} and not zero
