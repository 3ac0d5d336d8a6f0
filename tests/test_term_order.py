"""Term-map insertion order of TrigPoly2, PiNumber and Poly2 results, and the
truthiness they share.

Interval and float evaluation of TrigPoly2 and PiNumber sum their terms in
insertion order, so that order decides the bits of every torus margin.  The
expected lists were recorded once and pin it: sums, products, derivatives,
constructor normalization, and keys that cancel and later reappear.
"""

from fractions import Fraction as F

import pytest

from vfblock.poly import Poly2
from vfblock.trig import COS, SIN, PiNumber, TrigPoly2


def _cases():
    pi = PiNumber({1: 1})
    one = PiNumber.of(1)
    # four raw keys normalize to (1, 1, COS, COS): it cancels, then reappears last
    t0 = TrigPoly2({(1, 1, COS, COS): 1, (2, 0, COS, COS): 1, (-1, 1, COS, COS): -1,
                    (0, 1, SIN, COS): 7, (0, 1, COS, COS): 2, (1, -1, COS, COS): 3,
                    (-2, 1, SIN, SIN): F(1, 2), (3, 0, COS, SIN): 4})
    a = TrigPoly2({(1, 0, SIN, COS): 1, (0, 1, COS, SIN): F(-2, 3), (1, 1, COS, COS): pi})
    b = TrigPoly2({(2, 0, COS, COS): 1, (1, 0, SIN, COS): -1, (0, 1, COS, COS): F(1, 2),
                   (1, 0, COS, COS): pi})
    return {
        "trig_init": t0,
        "trig_add": a + b,
        "trig_add_reappears": (a + b) + TrigPoly2({(1, 0, SIN, COS): 5}),
        "trig_sub": b - a,
        "trig_mul": a * b,
        "trig_mul_self": (a + b) * (a - b),
        "trig_scalar": a * (one + pi),
        "trig_dx": (a * b).dx(),
        "trig_dy": (a * b).dy(),
        "trig_dxdy": t0.dx().dy() + t0.dy().dx(),
        "pi_add": (one + pi * pi) + (pi - one),
        "pi_add_reappears": ((one + pi) - one) + one,
        "pi_mul": (one + pi) * (one - pi),
        "pi_mul_wide": (pi * pi + F(1, 3) * pi + 2) * (pi - F(1, 2) + pi * pi * pi),
        "poly_add": (Poly2({(2, 0): 1, (0, 1): -1, (1, 1): 3})
                     + Poly2({(0, 1): 1, (3, 0): 2, (0, 0): 5})),
        "poly_mul": (Poly2({(1, 0): 1, (0, 1): -1, (0, 0): 2})
                     * Poly2({(1, 0): 1, (0, 1): 1, (2, 2): F(1, 3)})),
        "poly_translate": Poly2({(2, 1): 1, (0, 2): -3, (1, 0): F(1, 2)}).translate(F(1, 2), -1),
    }


def _order(v):
    if isinstance(v, PiNumber):
        return [(k, str(c)) for k, c in v._c.items()]
    if isinstance(v, Poly2):
        return [(k, str(c)) for k, c in v.monomials().items()]
    return [(k, _order(c)) for k, c in v.terms().items()]


EXPECTED = {'trig_init': [((2, 0, 0, 0), [(0, '1')]),
                          ((0, 1, 0, 0), [(0, '2')]),
                          ((1, 1, 0, 0), [(0, '3')]),
                          ((2, 1, 1, 1), [(0, '-1/2')])],
            'trig_add': [((0, 1, 0, 1), [(0, '-2/3')]),
                         ((1, 1, 0, 0), [(1, '1')]),
                         ((2, 0, 0, 0), [(0, '1')]),
                         ((0, 1, 0, 0), [(0, '1/2')]),
                         ((1, 0, 0, 0), [(1, '1')])],
            'trig_add_reappears': [((0, 1, 0, 1), [(0, '-2/3')]),
                                   ((1, 1, 0, 0), [(1, '1')]),
                                   ((2, 0, 0, 0), [(0, '1')]),
                                   ((0, 1, 0, 0), [(0, '1/2')]),
                                   ((1, 0, 0, 0), [(1, '1')]),
                                   ((1, 0, 1, 0), [(0, '5')])],
            'trig_sub': [((2, 0, 0, 0), [(0, '1')]),
                         ((1, 0, 1, 0), [(0, '-2')]),
                         ((0, 1, 0, 0), [(0, '1/2')]),
                         ((1, 0, 0, 0), [(1, '1')]),
                         ((0, 1, 0, 1), [(0, '2/3')]),
                         ((1, 1, 0, 0), [(1, '-1')])],
            'trig_mul': [((3, 0, 1, 0), [(0, '1/2')]),
                         ((1, 0, 1, 0), [(0, '-1/2')]),
                         ((0, 0, 0, 0), [(0, '-1/2')]),
                         ((2, 0, 0, 0), [(0, '1/2')]),
                         ((1, 1, 1, 0), [(0, '1/2')]),
                         ((2, 0, 1, 0), [(1, '1/2')]),
                         ((2, 1, 0, 1), [(0, '-2/3')]),
                         ((1, 1, 1, 1), [(0, '2/3')]),
                         ((0, 2, 0, 1), [(0, '-1/6')]),
                         ((1, 1, 0, 1), [(1, '-2/3')]),
                         ((1, 1, 0, 0), [(1, '1/2')]),
                         ((3, 1, 0, 0), [(1, '1/2')]),
                         ((2, 1, 1, 0), [(1, '-1/2')]),
                         ((1, 0, 0, 0), [(1, '1/4')]),
                         ((1, 2, 0, 0), [(1, '1/4')]),
                         ((0, 1, 0, 0), [(2, '1/2')]),
                         ((2, 1, 0, 0), [(2, '1/2')])],
            'trig_mul_self': [((1, 1, 1, 1), [(0, '-4/3')]),
                              ((0, 0, 0, 0), [(0, '-29/72'), (2, '-1/4')]),
                              ((0, 2, 0, 0), [(0, '-25/72'), (2, '1/4')]),
                              ((1, 2, 0, 1), [(1, '-2/3')]),
                              ((2, 1, 1, 0), [(1, '1')]),
                              ((2, 2, 0, 0), [(2, '1/4')]),
                              ((1, 0, 0, 0), [(1, '-1')]),
                              ((2, 1, 0, 0), [(0, '-1')]),
                              ((3, 0, 1, 0), [(0, '1')]),
                              ((1, 0, 1, 0), [(0, '-1')]),
                              ((4, 0, 0, 0), [(0, '-1/2')]),
                              ((3, 0, 0, 0), [(1, '-1')]),
                              ((1, 1, 1, 0), [(0, '1')]),
                              ((1, 1, 0, 0), [(1, '-1')]),
                              ((2, 0, 1, 0), [(1, '1')]),
                              ((2, 0, 0, 0), [(2, '-1/4')])],
            'trig_scalar': [((1, 0, 1, 0), [(0, '1'), (1, '1')]),
                            ((0, 1, 0, 1), [(0, '-2/3'), (1, '-2/3')]),
                            ((1, 1, 0, 0), [(1, '1'), (2, '1')])],
            'trig_dx': [((3, 0, 0, 0), [(1, '3')]),
                        ((1, 0, 0, 0), [(1, '-1')]),
                        ((2, 0, 1, 0), [(1, '-2')]),
                        ((1, 1, 0, 0), [(1, '1')]),
                        ((2, 0, 0, 0), [(2, '2')]),
                        ((2, 1, 1, 1), [(1, '8/3')]),
                        ((1, 1, 0, 1), [(1, '4/3')]),
                        ((1, 1, 1, 1), [(2, '4/3')]),
                        ((1, 1, 1, 0), [(2, '-1')]),
                        ((3, 1, 1, 0), [(2, '-3')]),
                        ((2, 1, 0, 0), [(2, '-2')]),
                        ((1, 0, 1, 0), [(2, '-1/2')]),
                        ((1, 2, 1, 0), [(2, '-1/2')]),
                        ((2, 1, 1, 0), [(3, '-2')])],
            'trig_dy': [((1, 1, 1, 1), [(1, '-1')]),
                        ((2, 1, 0, 0), [(1, '-4/3')]),
                        ((1, 1, 1, 0), [(1, '4/3')]),
                        ((0, 2, 0, 0), [(1, '-2/3')]),
                        ((1, 1, 0, 0), [(2, '-4/3')]),
                        ((1, 1, 0, 1), [(2, '-1')]),
                        ((3, 1, 0, 1), [(2, '-1')]),
                        ((2, 1, 1, 1), [(2, '1')]),
                        ((1, 2, 0, 1), [(2, '-1')]),
                        ((0, 1, 0, 1), [(3, '-1')]),
                        ((2, 1, 0, 1), [(3, '-1')])],
            'trig_dxdy': [((1, 1, 1, 1), [(2, '24')]), ((2, 1, 0, 0), [(2, '-8')])],
            'pi_add': [(2, '1'), (1, '1')],
            'pi_add_reappears': [(1, '1'), (0, '1')],
            'pi_mul': [(0, '1'), (2, '-1')],
            'pi_mul_wide': [(3, '3'), (2, '-1/6'), (5, '1'), (1, '11/6'), (4, '1/3'), (0, '-1')],
            'poly_add': [((2, 0), '1'), ((1, 1), '3'), ((3, 0), '2'), ((0, 0), '5')],
            'poly_mul': [((2, 0), '1'),
                         ((3, 2), '1/3'),
                         ((0, 2), '-1'),
                         ((2, 3), '-1/3'),
                         ((1, 0), '2'),
                         ((0, 1), '2'),
                         ((2, 2), '2/3')],
            'poly_translate': [((0, 0), '-3'),
                               ((0, 1), '25/4'),
                               ((1, 0), '-1/2'),
                               ((1, 1), '1'),
                               ((2, 0), '-1'),
                               ((2, 1), '1'),
                               ((0, 2), '-3')]}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_term_order_is_pinned(name):
    assert _order(_cases()[name]) == EXPECTED[name]


@pytest.mark.parametrize("cls, nonzero", [
    (Poly2, Poly2({(1, 0): 1})),
    (TrigPoly2, TrigPoly2({(1, 0, SIN, COS): 1})),
    (PiNumber, PiNumber({1: 1})),
])
def test_term_map_is_falsy_exactly_when_zero(cls, nonzero):
    zero = cls.zero()
    assert not zero
    assert not (nonzero - nonzero)
    assert nonzero
