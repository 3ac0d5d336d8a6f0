"""The sign-case interval product and the cached evaluation plans against a
reference natural extension: the four-product rule (min and max of all
endpoint products), evaluated term by term as written.  Every result must
match the reference bit for bit, the sign of a zero included."""

import math
from fractions import Fraction

import pytest
from box_reference import box_evaluator
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock import interval as iv
from vfblock.poly import Poly2, X, Y, _powers, cell_test, float_plan
from vfblock.trig import COS, SIN, PiNumber, TrigPoly2, factors

_INF = math.inf


def mul_ref(a, b):
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    return (iv.down(min(p1, p2, p3, p4)), iv.up(max(p1, p2, p3, p4)))


def pow_ref(a, n):
    if n == 0:
        return (1.0, 1.0)
    if n == 1:
        return a
    if n % 2 == 0 and a[0] < 0.0 <= a[1]:
        m = max(-a[0], a[1])
        hi = 1.0
        for _ in range(n):
            hi = iv.up(hi * m)
        return (0.0, hi)
    r = a
    for _ in range(n - 1):
        r = mul_ref(r, a)
    return r


def poly_ref(p: Poly2, ix, iy):
    terms = [(i, j, iv.make(c)) for (i, j), c in sorted(p.monomials().items())]
    if not terms:
        return (0.0, 0.0)
    powers = []
    for a, top in ((ix, max(t[0] for t in terms)), (iy, max(t[1] for t in terms))):
        chain = [(1.0, 1.0)]
        for _ in range(top):
            chain.append(mul_ref(chain[-1], a))
        for n in range(2, top + 1, 2):
            chain[n] = pow_ref(a, n)
        powers.append(chain)
    xp, yp = powers
    total = (0.0, 0.0)
    for i, j, c in terms:
        total = iv.add(total, mul_ref(c, mul_ref(xp[i], yp[j])))
    return total


def pi_ref(c: PiNumber):
    total = (0.0, 0.0)
    for k, v in c._m.items():
        total = iv.add(total, mul_ref(iv.make(v), pow_ref(iv.PI, k)))
    return total


def trig_ref(p: TrigPoly2, ix, iy):
    total = (0.0, 0.0)
    for (m, n, bx, by), c in p.terms().items():
        ax = mul_ref(mul_ref(iv.TWO_PI, (float(m), float(m))), ix)
        ay = mul_ref(mul_ref(iv.TWO_PI, (float(n), float(n))), iy)
        fx = iv.cos_iv(ax) if bx == COS else iv.sin_iv(ax)
        fy = iv.cos_iv(ay) if by == COS else iv.sin_iv(ay)
        total = iv.add(total, mul_ref(pi_ref(c), mul_ref(fx, fy)))
    return total


def bits(a):
    return tuple(x.hex() for x in a)


# Endpoints: signed zeros and small integers often, so that boxes touch,
# straddle or sit on 0, and point intervals come up.
_SPECIAL = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 5e-324, -5e-324))


def interval_st(endpoint):
    return st.tuples(st.one_of(_SPECIAL, endpoint), st.one_of(_SPECIAL, endpoint)).map(
        lambda t: (min(t), max(t)) if t[0] != t[1] else (t[0], t[0]))


finite_iv = interval_st(st.floats(allow_nan=False, allow_infinity=False))
moderate_iv = interval_st(st.floats(-3.0, 3.0))
coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def poly_st(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, 5))
        j = draw(st.integers(0, 5 - i))
        terms[(i, j)] = draw(coeff_st)
    return Poly2(terms)


@st.composite
def trig_st(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
               draw(st.sampled_from((COS, SIN))), draw(st.sampled_from((COS, SIN))))
        terms[key] = PiNumber({k: draw(coeff_st) for k in draw(st.sets(st.integers(0, 2)))})
    p = TrigPoly2(terms)
    return p.dx() + p if draw(st.booleans()) else p


@given(finite_iv, finite_iv)
@settings(max_examples=400, deadline=None)
@example((0.0, 1.0), (-1.0, -0.0))
@example((-0.0, -0.0), (-3.0, 2.0))
@example((-2.0, 3.0), (-5.0, 7.0))
def test_mul_matches_four_product_rule(a, b):
    assert bits(iv.mul(a, b)) == bits(mul_ref(a, b))


@given(interval_st(st.floats(-1e30, 1e30)), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_pow_int_matches_reference(a, n):
    assert bits(iv.pow_int(a, n)) == bits(pow_ref(a, n))


@given(poly_st(), moderate_iv, moderate_iv)
@settings(max_examples=300, deadline=None)
@example(-(1 - (X - Fraction(3, 10)) ** 2 - (Y - Fraction(2, 5)) ** 2) * (Y - Fraction(2, 5)),
         (-0.0, 0.0), (-0.5, 0.25))
@example(Poly2({(0, 0): Fraction(-1, 3)}), (1.0, 1.0), (-0.0, -0.0))
def test_poly_eval_interval_matches_reference(p, ix, iy):
    assert bits(p.eval_interval(ix, iy)) == bits(poly_ref(p, ix, iy))
    assert bits(p.eval_interval(ix, iy)) == bits(poly_ref(p, ix, iy))   # cached plan


@given(st.lists(poly_st(), min_size=1, max_size=4) | st.lists(trig_st(), min_size=1, max_size=4),
       moderate_iv, moderate_iv)
@settings(max_examples=200, deadline=None)
def test_shared_power_tables_match_plain_eval_interval(polys, ix, iy):
    """Poly2 lists share `_powers` tables, TrigPoly2 lists `factors` tables."""
    plain = [bits(p.eval_interval(ix, iy)) for p in polys]
    assert [bits(v) for v in box_evaluator(polys)(ix, iy)] == plain
    # a table longer than any polynomial needs gives the same bits: a Poly2
    # here has degree 5 at most, a TrigPoly2 reads entry 2 * 3 + 1 at most
    build = _powers if isinstance(polys[0], Poly2) else factors
    tables = (build(ix, 9), build(iy, 9))
    assert [bits(p.eval_interval(ix, iy, tables)) for p in polys] == plain


_SPECIAL_POINT = st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, 1e200, -1e200))


def _floats_or_overflow(evaluate, x, y):
    """Every float by repr (the sign of a zero counts), or the error raised."""
    try:
        return [repr(v) for v in evaluate(x, y)]
    except OverflowError as e:
        return ("overflow", str(e))


THIRD = Fraction(1, 3)
_point_st = st.one_of(_SPECIAL_POINT, st.floats(-4.0, 4.0), st.floats(allow_nan=False))


@given(st.lists(poly_st(), min_size=1, max_size=6), _point_st, _point_st)
@settings(max_examples=100, deadline=None)
@example([X ** 2 * Y, Y], 1e200, 0.5)        # x**2 overflows: both raise
@example([X ** 3 - Y, Poly2.zero()], -0.0, -0.0)
@example([Poly2.zero()], 0.5, -0.0)          # the zero polynomial alone
@example([X, -Y], -0.0, 0.0)                 # one term is -0.0; the sum from 0.0 is not
@example([X ** 3 + X, Y ** 4 * X - 2], -1.5, 0.75)    # exponent gaps: no x**2, y**2
@example([THIRD * X + Y, THIRD * X - Y ** 2, THIRD * X], 0.1, -0.0)  # shared coefficients
@example([X * Y - 1, X ** 2], -1e200, 1e-200)  # x*y is finite, x**2 overflows
@example([Y ** 3 - X], 0.5, 1e200)           # y**3 overflows
@example([X, Y * 5], 1e200, -1e200)          # degree 1 near 1e200: no error
@example([(1 + X - THIRD * Y) ** 12], 0.3, -0.7)  # 91 terms: more than one line of code
def test_float_plan_matches_eval_float(polys, x, y):
    plain = _floats_or_overflow(lambda a, b: [p.eval_float(a, b) for p in polys], x, y)
    assert _floats_or_overflow(float_plan(polys), x, y) == plain


def test_mixed_scalars_keep_their_own_paths():
    """Interval tables belong to one ring, so a mixed list has no shared
    evaluator; the float plan keeps each entry's own eval_float."""
    p = X ** 2 - Y
    t = TrigPoly2.term(1, 0, "sc", 1)
    with pytest.raises(TypeError):
        box_evaluator([p, t])
    with pytest.raises(TypeError):
        cell_test([t, p], 1)
    assert float_plan([p, t])(0.3, 0.7) == [p.eval_float(0.3, 0.7), t.eval_float(0.3, 0.7)]


@given(trig_st(), moderate_iv, moderate_iv)
@settings(max_examples=200, deadline=None)
def test_trig_eval_interval_matches_reference(p, ix, iy):
    assert bits(p.eval_interval(ix, iy)) == bits(trig_ref(p, ix, iy))
    assert bits(p.eval_interval(ix, iy)) == bits(trig_ref(p, ix, iy))   # cached plan


def test_trig_plan_follows_every_construction():
    s = TrigPoly2.term(1, 0, "sc", 1)
    c = TrigPoly2.term(0, 1, "cs", Fraction(-2, 3))
    # a Q[pi] coefficient near 0 whose interval, about +-2048, straddles 0
    near_zero = PiNumber({0: round(math.pi * 2 ** 60), 1: -2 ** 60})
    lo, hi = near_zero.interval()
    assert lo < 0.0 < hi
    box = ((0.1, 0.2), (-0.3, 0.05))
    # on the box, near_zero multiplies factor products >= 0 (s), of both
    # signs (cos 4 pi x cos 2 pi y) and <= 0 (cos 6 pi x)
    for p in (s + c, -s, s * c, s * PiNumber({1: 2}), s.dx(), c.dy(), 3 * c,
              TrigPoly2.from_json((s - c).to_json()), s * near_zero + c,
              TrigPoly2.term(2, 1, "cc", near_zero) - c * near_zero,
              TrigPoly2.term(3, 0, "cc", near_zero)):
        assert bits(p.eval_interval(*box)) == bits(trig_ref(p, *box))


def test_zero_times_infinite_bound_keeps_the_zero():
    # 0 <= x <= 1 times y <= -1: the product is <= 0 and unbounded below;
    # the four-product rule forms 0 * -inf = NaN and loses both bounds
    lo, hi = iv.mul((0.0, 1.0), (-_INF, -1.0))
    assert lo == -_INF and 0.0 <= hi <= 5e-324
    assert math.isnan(mul_ref((0.0, 1.0), (-_INF, -1.0))[0])


def test_overflowing_box_is_not_discarded():
    # x^2 y^3 vanishes on x = 0, inside this box; y^3 overflows to -inf
    p = Poly2({(2, 3): 1})
    box = ((-1.0, 1.0), (-1e120, -1e110))
    assert iv.contains_zero(p.eval_interval(*box))


def test_nan_bound_never_excludes_zero():
    assert iv.contains_zero((math.nan, math.nan))
    assert iv.contains_zero((math.nan, 1.0))
    assert iv.contains_zero((-1.0, math.nan))
    assert not iv.contains_zero((0.5, math.nan))
    assert not iv.contains_zero((math.nan, -0.5))
