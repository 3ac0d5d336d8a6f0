"""Root questions of the integer upoly against the Fraction reference and sympy."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from vfblock import upoly

_X = sympy.Symbol("x")

_coef = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6))
_nonzero = _coef.filter(lambda c: c != 0)
_point = st.fractions(-4, 4, max_denominator=4)


def _sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      _X, domain="QQ")


def _sympy_rational_roots(p):
    out = []
    for f, m in _sympy(p).factor_list()[1]:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            out.append((Fraction(int((-b / a).p), int((-b / a).q)), m))
    return sorted(out)


def _rational(x):
    return None if x is None else sympy.Rational(x.numerator, x.denominator)


def _sympy_count(p, lo, hi):
    """sympy counts distinct roots in [lo, hi]; upoly counts them in (lo, hi]."""
    sp = _sympy(p)
    closed = sp.count_roots(_rational(lo), _rational(hi))
    return closed - (lo is not None and sp.eval(_rational(lo)) == 0)


def _check(p, q, lo, hi):
    """Rational roots, the count in (lo, hi] and gcd(p, q) agree with the
    Fraction reference and sympy; returns the rational roots."""
    roots = upoly.rational_roots(p)
    assert roots == ref.rational_roots(p)
    assert all(type(r) is Fraction for r, _ in roots)
    count = upoly.count_real_roots(p, lo, hi)
    assert count == ref.count_real_roots(p, lo, hi)
    g = upoly.gcd(p, q)
    assert g == ref.gcd(p, q) and all(type(c) is Fraction for c in g)
    if len(upoly.trim([Fraction(c) for c in p])) > 1:
        assert roots == _sympy_rational_roots(p)
        assert count == _sympy_count(p, lo, hi)
        if g:
            assert g == [Fraction(int(c.p), int(c.q))
                         for c in reversed(_sympy(p).gcd(_sympy(q)).monic().all_coeffs())]
    return roots


def _interval(points):
    lo, hi = sorted(points)
    return st.sampled_from([(None, None), (lo, None), (None, hi), (lo, hi), (hi, hi)])


@given(st.lists(_coef, max_size=9), st.lists(_coef, max_size=5), st.booleans(),
       st.tuples(_point, _point).flatmap(_interval))
@example([1, 0, 1], [], False, (None, None))
@example([-2, 0, 1], [0, 1], True, (Fraction(-1), Fraction(1)))
@settings(max_examples=80, deadline=None)
def test_random_polynomials_match_references(p, q, shared, interval):
    _check(p, upoly.mul(q, p) if shared else q, *interval)


@st.composite
def _factored(draw):
    """lead * prod (b x - a)^m * prod (x^2 + c)^m with the rational roots it
    is built with: zero roots, multiple roots, leading coefficients other
    than 1 and quadratics with irrational, complex or rational roots."""
    p = [Fraction(draw(_nonzero))]
    want: dict[Fraction, int] = {}
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(1, 3))
        if draw(st.booleans()):
            a, b = draw(st.integers(-5, 5)), draw(st.integers(1, 4))
            factor, rats = [-a, b], [Fraction(a, b)]
        else:
            c = draw(st.integers(-9, 9))
            k = next((k for k in range(4) if k * k == -c), None)
            factor, rats = [c, 0, 1], ([] if k is None else [Fraction(k), Fraction(-k)])
        for _ in range(m):
            p = upoly.mul(p, [Fraction(v) for v in factor])
        for r in rats:
            want[r] = want.get(r, 0) + m
    return p, sorted(want.items())


def _with_interval(case):
    """Endpoints drawn from the exact rational roots and a few other points."""
    ends = st.sampled_from([r for r, _ in case[1]] + [Fraction(-5), Fraction(1, 3), Fraction(5)])
    return st.tuples(st.just(case), st.tuples(ends, ends).flatmap(_interval))


@given(_factored().flatmap(_with_interval))
@example(((upoly.mul([0, 0, 1], [-2, 0, 1]), [(Fraction(0), 2)]), (Fraction(0), Fraction(2))))
@settings(max_examples=80, deadline=None)
def test_factored_polynomials_match_references(case):
    (p, want), interval = case
    assert _check(p, upoly.derivative(p), *interval) == want
