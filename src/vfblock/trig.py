"""Exact trigonometric polynomials on the flat torus (period 1 per axis).

Terms are products of cos/sin at integer frequencies; products reduce by the
product-to-sum identities, so the ring is closed.  Differentiation introduces
factors of 2*pi, so coefficients live in Q[pi] (PiNumber); pi being
transcendental makes exact zero tests trivial: all rational coefficients must
vanish.  Exact point evaluation is available at quarter-period rational
points, where every angle is a multiple of pi/2.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import interval as iv
from .errors import InexactTrigEvaluation
from .poly import TermMap, _frac, _frac_str, _sum_terms, add_term

COS, SIN = 0, 1
_BASIS_STR = {COS: "c", SIN: "s"}
_STR_BASIS = {"c": COS, "s": SIN}

# cos((pi/2)t), sin((pi/2)t) for t mod 4
_COS_QUARTER = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))
_SIN_QUARTER = (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))


class PiNumber(TermMap):
    """A polynomial in pi with rational coefficients: sum c_k * pi**k, a term
    map k -> c_k."""

    __slots__ = ()
    _SCALARS = (int, Fraction)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _frac(v)
                if v != 0:
                    c[int(k)] = v
        self._m = c
        self._hash = None

    _c = property(lambda self: self._m)     # read-only alias of the term map

    @classmethod
    def const(cls, c) -> "PiNumber":
        return cls({0: c})

    @classmethod
    def of(cls, x) -> "PiNumber":
        if isinstance(x, PiNumber):
            return x
        return cls.const(x)

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if a pi power is present."""
        if not self._m:
            return Fraction(0)
        if set(self._m) == {0}:
            return self._m[0]
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        c: dict[int, Fraction] = {}
        for k1, v1 in self._m.items():
            for k2, v2 in other._m.items():
                add_term(c, k1 + k2, v1 * v2)
        return self._of(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, self._SCALARS):
            other = self.const(other)
        return TermMap.__eq__(self, other)

    __hash__ = TermMap.__hash__

    def __float__(self):
        return sum(float(v) * math.pi ** k for k, v in self._m.items())

    def interval(self):
        total = (0.0, 0.0)
        for k, v in self._m.items():
            total = iv.add(total, iv.mul(iv.make(v), iv.pow_int(iv.PI, k)))
        return total

    def to_json(self):
        f = self.as_fraction()
        if f is not None:
            return _frac_str(f)
        return {f"pi{k}": _frac_str(v) for k, v in sorted(self._m.items())}

    @classmethod
    def from_json(cls, data) -> "PiNumber":
        if not isinstance(data, dict):
            return cls({0: Fraction(data)})
        return cls({int(k[2:]): Fraction(v) for k, v in data.items()})

    def __repr__(self):
        if not self._m:
            return "0"
        return " + ".join(
            f"{v}" + ("" if k == 0 else f"*pi^{k}") for k, v in sorted(self._m.items())
        )


def _norm_axis(m: int, basis: int, sign: int):
    """Normalize a 1-D factor to nonnegative frequency; returns None if it is 0."""
    if m < 0:
        m = -m
        if basis == SIN:
            sign = -sign
    if m == 0 and basis == SIN:
        return None
    return m, basis, sign


def _axis_product(m1, b1, m2, b2):
    """Product of two 1-D trig factors as [(freq, basis, rational factor)]."""
    half = Fraction(1, 2)
    if b1 == COS and b2 == COS:
        raw = [(m1 - m2, COS, half), (m1 + m2, COS, half)]
    elif b1 == SIN and b2 == SIN:
        raw = [(m1 - m2, COS, half), (m1 + m2, COS, -half)]
    elif b1 == SIN and b2 == COS:
        raw = [(m1 + m2, SIN, half), (m1 - m2, SIN, half)]
    else:  # cos * sin
        raw = [(m1 + m2, SIN, half), (m1 - m2, SIN, -half)]
    out = []
    for m, b, f in raw:
        norm = _norm_axis(m, b, 1)
        if norm is None:
            if b == COS:
                out.append((0, COS, f))
            continue
        mm, bb, sg = norm
        out.append((mm, bb, f * sg))
    return out


def factors(a, n: int) -> list:
    """The axis table of TrigPoly2 plans through entry n: entry 2f + b
    encloses cos (b = COS) or sin (b = SIN) of 2 pi f t over the interval a.
    Like `poly._powers`, entry k does not depend on n."""
    out = []
    for f in range(n // 2 + 1):
        arg = iv.mul4(*iv.mul(iv.TWO_PI, (float(f), float(f))), *a)
        out += iv.cos_iv(arg), iv.sin_iv(arg)
    return out[:n + 1]


def cell_factors(lo: int, hi: int, n: int, count: int) -> list:
    """`factors` of [lo / n, hi / n] rounded outward: a scaled grid cell's."""
    return factors((iv.ratio(lo, n)[0], iv.ratio(hi, n)[1]), count)


class TrigPoly2(TermMap):
    """Trig polynomial on the torus; term map (m, n, bx, by) -> PiNumber."""

    __slots__ = ("_plan_cache",)
    _SCALARS = (int, Fraction, PiNumber)
    axis_table = staticmethod(factors)      # entry 2m + bx of a plan's x table
    cell_table = staticmethod(cell_factors)

    def __init__(self, terms=None):
        t: dict[tuple[int, int, int, int], PiNumber] = {}
        if terms:
            for (m, n, bx, by), c in terms.items():
                c = PiNumber.of(c)
                if not c:
                    continue
                nx = _norm_axis(int(m), int(bx), 1)
                if nx is None:
                    continue
                ny = _norm_axis(int(n), int(by), 1)
                if ny is None:
                    continue
                add_term(t, (nx[0], ny[0], nx[1], ny[1]), c if nx[2] == ny[2] else -c)
        self._m = t
        self._plan_cache = None
        self._hash = None

    @classmethod
    def const(cls, c) -> "TrigPoly2":
        return cls({(0, 0, COS, COS): PiNumber.of(c)})

    @classmethod
    def term(cls, m: int, n: int, basis: str, c) -> "TrigPoly2":
        """basis is two letters from {c, s}: x-factor then y-factor."""
        bx, by = _STR_BASIS[basis[0]], _STR_BASIS[basis[1]]
        return cls({(m, n, bx, by): PiNumber.of(c)})

    def terms(self):
        return dict(self._m)

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            c = PiNumber.of(other)
            if not c:
                return self.zero()
            return self._of({k: v * c for k, v in self._m.items()})
        other = self._coerce(other)
        acc: dict[tuple[int, int, int, int], PiNumber] = {}
        for (m1, n1, bx1, by1), c1 in self._m.items():
            for (m2, n2, bx2, by2), c2 in other._m.items():
                c = c1 * c2
                for mx, bx, fx in _axis_product(m1, bx1, m2, bx2):
                    for ny, by, fy in _axis_product(n1, by1, n2, by2):
                        add_term(acc, (mx, ny, bx, by), c * (fx * fy))
        return self._of(acc)

    __rmul__ = __mul__

    # calculus -----------------------------------------------------------

    def _diff(self, axis: int) -> "TrigPoly2":
        """d/dx (axis 0) or d/dy (axis 1): at frequency f, cos(2 pi f t) turns
        into -2 pi f sin(2 pi f t) and sin into 2 pi f cos."""
        t: dict[tuple[int, int, int, int], PiNumber] = {}
        for key, c in self._m.items():
            f, basis = key[axis], key[2 + axis]
            if f == 0:
                continue
            new = list(key)
            new[2 + axis] = SIN if basis == COS else COS
            factor = PiNumber({1: Fraction(-2 * f if basis == COS else 2 * f)})
            add_term(t, tuple(new), c * factor)
        return self._of(t)

    def dx(self) -> "TrigPoly2":
        return self._diff(0)

    def dy(self) -> "TrigPoly2":
        return self._diff(1)

    # evaluation ---------------------------------------------------------

    @staticmethod
    def _quarter(freq: int, coord: Fraction, basis: int) -> Fraction:
        t = 4 * freq * coord
        if t.denominator != 1:
            raise InexactTrigEvaluation(
                f"angle 2*pi*{freq}*{coord} is not a multiple of pi/2"
            )
        t = int(t) % 4
        return _COS_QUARTER[t] if basis == COS else _SIN_QUARTER[t]

    def eval_exact(self, x, y) -> PiNumber:
        """Exact value at a quarter-period rational point (else raises)."""
        x, y = _frac(x), _frac(y)
        total = PiNumber()
        for (m, n, bx, by), c in self._m.items():
            fx = self._quarter(m, x, bx)
            fy = self._quarter(n, y, by)
            f = fx * fy
            if f:
                total = total + c * f
        return total

    def eval_float(self, x: float, y: float) -> float:
        total = 0.0
        for (m, n, bx, by), c in self._m.items():
            ax = 2.0 * math.pi * m * x
            ay = 2.0 * math.pi * n * y
            fx = math.cos(ax) if bx == COS else math.sin(ax)
            fy = math.cos(ay) if by == COS else math.sin(ay)
            total += float(c) * fx * fy
        return total

    def _plan(self):
        """(largest x index, largest y index, [(2m + bx, 2n + by, c_lo,
        c_hi)] in term-map order): the interval evaluation plan, built once."""
        if self._plan_cache is None:
            terms = [(2 * m + bx, 2 * n + by, *c.interval())
                     for (m, n, bx, by), c in self._m.items()]
            self._plan_cache = (max((t[0] for t in terms), default=0),
                                max((t[1] for t in terms), default=0), terms)
        return self._plan_cache

    def eval_interval(self, ix, iy, tables=None):
        """Sound enclosure of the range over the box ix x iy: the sum of
        c * (f(2 pi m x) * g(2 pi n y)) in term-map order.  `tables` is a pair
        of `factors` tables of ix and iy at least as long as this polynomial
        needs; entry k does not depend on the length, so a table shared
        between polynomials gives the same bits."""
        max_i, max_j, terms = self._plan()
        return _sum_terms(terms, *(tables or (factors(ix, max_i), factors(iy, max_j))))

    # serialization ------------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for (m, n, bx, by), c in sorted(self._m.items()):
            out.append(
                {
                    "m": m,
                    "n": n,
                    "basis": _BASIS_STR[bx] + _BASIS_STR[by],
                    "c": c.to_json(),
                }
            )
        return out

    @classmethod
    def from_json(cls, data) -> "TrigPoly2":
        terms = {}
        for t in data:
            bx, by = _STR_BASIS[t["basis"][0]], _STR_BASIS[t["basis"][1]]
            terms[(t["m"], t["n"], bx, by)] = PiNumber.from_json(t["c"])
        return cls(terms)

    def __repr__(self):
        if not self._m:
            return "TrigPoly2(0)"
        parts = []
        for (m, n, bx, by), c in sorted(self._m.items()):
            fx = "" if m == 0 and bx == COS else f"{_BASIS_STR[bx]}({m}x)"
            fy = "" if n == 0 and by == COS else f"{_BASIS_STR[by]}({n}y)"
            parts.append(f"({c!r}){fx}{fy}")
        return "TrigPoly2(" + " + ".join(parts) + ")"
