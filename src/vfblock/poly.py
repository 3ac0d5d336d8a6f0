"""Exact bivariate polynomials over Q with sparse monomial maps.

Poly2 is the coefficient-level workhorse: brackets, translations and
divisibility tests all happen here, exactly.  Float and interval evaluation
forms are cached per instance for the numeric paths.  `TermMap` and
`add_term` are the sparse term-map core that trig.TrigPoly2 and trig.PiNumber
share with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from . import interval as iv
from . import upoly
from .errors import InsufficientPower


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def add_term(m: dict, key, c) -> None:
    """m[key] += c, dropping the key when the sum is 0; a new key goes last."""
    s = m.get(key)
    s = c if s is None else s + c
    if s:
        m[key] = s
    else:
        m.pop(key, None)


class TermMap:
    """Sparse map `_m` from term keys to nonzero coefficients, with its
    additive structure.  Subclasses define `const` and `_SCALARS`, the
    coefficient types that coerce to a constant."""

    __slots__ = ("_m", "_hash")
    _SCALARS: tuple = ()

    @classmethod
    def _of(cls, m):
        """Wrap an already normalized term map."""
        out = cls()
        out._m = m
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, cls):
            return other
        if isinstance(other, cls._SCALARS):
            return cls.const(other)
        raise TypeError(f"cannot coerce {other!r}")

    def __add__(self, other):
        other = self._coerce(other)
        m = dict(self._m)
        for k, c in other._m.items():
            add_term(m, k, c)
        return self._of(m)

    __radd__ = __add__

    def __neg__(self):
        return self._of({k: -c for k, c in self._m.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __eq__(self, other):
        return isinstance(other, type(self)) and self._m == other._m

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._m.items()))
        return self._hash

    def is_zero(self) -> bool:
        return not self._m


class Poly2(TermMap):
    """Polynomial in x, y; monomial map (i, j) -> nonzero Fraction."""

    __slots__ = ("_float_terms", "_plan_cache")
    _SCALARS = (int, Fraction)

    def __init__(self, monomials=None):
        m = {}
        if monomials:
            for (i, j), c in monomials.items():
                c = _frac(c)
                if c != 0:
                    if i < 0 or j < 0:
                        raise ValueError("negative exponent")
                    m[(int(i), int(j))] = c
        self._m = m
        self._float_terms = None
        self._plan_cache = None
        self._hash = None

    # construction -------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): _frac(c)})

    @classmethod
    def variable(cls, name: str) -> "Poly2":
        if name == "x":
            return cls({(1, 0): Fraction(1)})
        if name == "y":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(name)

    def monomials(self):
        return dict(self._m)

    # ring structure -----------------------------------------------------

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            c = _frac(other)
            if c == 0:
                return self.zero()
            return self._of({k: v * c for k, v in self._m.items()})
        other = self._coerce(other)
        m: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._m.items():
            for (i2, j2), c2 in other._m.items():
                add_term(m, (i1 + i2, j1 + j2), c1 * c2)
        return self._of(m)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._m:
            return -1
        return max(i + j for i, j in self._m)

    @property
    def min_total_degree(self) -> int:
        """Lowest total degree of a stored monomial; -1 for the zero polynomial."""
        if not self._m:
            return -1
        return min(i + j for i, j in self._m)

    def dx(self) -> "Poly2":
        return self._of({(i - 1, j): c * i for (i, j), c in self._m.items() if i > 0})

    def dy(self) -> "Poly2":
        return self._of({(i, j - 1): c * j for (i, j), c in self._m.items() if j > 0})

    def translate(self, ax, ay) -> "Poly2":
        """Substitute x -> x + ax, y -> y + ay exactly."""
        ax, ay = _frac(ax), _frac(ay)
        m: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._m.items():
            for p in range(i + 1):
                cx = c * math.comb(i, p) * ax ** (i - p)
                if cx == 0:
                    continue
                for q in range(j + 1):
                    cc = cx * math.comb(j, q) * ay ** (j - q)
                    if cc:
                        add_term(m, (p, q), cc)
        return self._of(m)

    def divide_y_power(self, l: int) -> "Poly2":
        """Exact quotient by y**l; raises InsufficientPower if not divisible."""
        if l < 0:
            raise ValueError("negative power")
        for (i, j) in self._m:
            if j < l:
                raise InsufficientPower(f"monomial x^{i} y^{j} has y-exponent < {l}")
        return self._of({(i, j - l): c for (i, j), c in self._m.items()})

    def substitute_y(self, value) -> list[Fraction]:
        """Univariate polynomial in x obtained by fixing y = value (exact)."""
        value = _frac(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self._m.items():
            cc = c * value ** j
            if cc:
                out[i] = out.get(i, Fraction(0)) + cc
        coeffs = [Fraction(0)] * (max(out) + 1 if out else 0)
        for i, c in out.items():
            coeffs[i] = c
        return upoly.trim(coeffs)

    # evaluation ---------------------------------------------------------

    def eval_exact(self, x, y) -> Fraction:
        x, y = _frac(x), _frac(y)
        total = Fraction(0)
        for (i, j), c in self._m.items():
            total += c * x ** i * y ** j
        return total

    def _floats(self):
        if self._float_terms is None:
            self._float_terms = [(i, j, float(c)) for (i, j), c in sorted(self._m.items())]
        return self._float_terms

    def eval_float(self, x: float, y: float) -> float:
        total = 0.0
        for i, j, c in self._floats():
            total += c * x ** i * y ** j
        return total

    def _plan(self):
        """(largest x exponent, largest y exponent, [(i, j, c_lo, c_hi)] in
        sorted monomial order): the interval evaluation plan, built once."""
        if self._plan_cache is None:
            terms = [(i, j, *iv.make(c)) for (i, j), c in sorted(self._m.items())]
            self._plan_cache = (max((t[0] for t in terms), default=0),
                                max((t[1] for t in terms), default=0), terms)
        return self._plan_cache

    def eval_interval(self, ix, iy, powers=None):
        """Sound enclosure of the range over the box ix x iy: the natural
        extension, sum of c * (x^i * y^j) in sorted monomial order.  `powers`
        is a pair of `_powers` tables of ix and iy at least as long as this
        polynomial needs; entry k does not depend on the length, so a table
        shared between polynomials gives the same bits."""
        max_i, max_j, terms = self._plan()
        xp, yp = powers or (_powers(ix, max_i), _powers(iy, max_j))
        return _sum_terms(terms, xp, yp)

    # serialization ------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "j": j, "c": _frac_str(c)}
            for (i, j), c in sorted(self._m.items())
        ]

    @classmethod
    def from_json(cls, data) -> "Poly2":
        return cls({(t["i"], t["j"]): Fraction(t["c"]) for t in data})

    def __repr__(self):
        if not self._m:
            return "Poly2(0)"
        parts = []
        for (i, j), c in sorted(self._m.items()):
            mono = "".join(s for s in (f"x^{i}" if i else "", f"y^{j}" if j else "") if s)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly2(" + " + ".join(parts) + ")"


def _powers(a, n: int) -> list:
    """[a^0, ..., a^n]: a chain of products from (1, 1); every even power
    is then replaced by iv.pow_int, which is tight for a box around 0."""
    a0, a1 = a
    lo = hi = 1.0
    out = [(lo, hi)]
    for _ in range(n):
        lo, hi = iv.mul4(lo, hi, a0, a1)
        out.append((lo, hi))
    for k in range(2, n + 1, 2):
        out[k] = iv.pow_int(a, k)
    return out


def _sum_terms(terms, xp, yp):
    """The one term loop of the natural extension: the sum of c * (x^i * y^j)
    over a plan's terms, in order, from power tables xp and yp.  Both
    products are those of `iv.mul4`, its sign cases written out: the same
    float operations in the same order, so the same bits."""
    nextafter = math.nextafter
    inf = math.inf
    lo = hi = 0.0
    for i, j, c0, c1 in terms:
        a0, a1 = xp[i]
        b0, b1 = yp[j]
        if a0 >= 0.0:
            if b0 >= 0.0:
                m0, m1 = a0 * b0, a1 * b1
            elif b1 <= 0.0:
                m0, m1 = a1 * b0, a0 * b1
            else:
                m0, m1 = a1 * b0, a1 * b1
        elif a1 <= 0.0:
            if b0 >= 0.0:
                m0, m1 = a0 * b1, a1 * b0
            elif b1 <= 0.0:
                m0, m1 = a1 * b1, a0 * b0
            else:
                m0, m1 = a0 * b1, a0 * b0
        elif b0 >= 0.0:
            m0, m1 = a0 * b1, a1 * b1
        elif b1 <= 0.0:
            m0, m1 = a1 * b0, a0 * b0
        else:
            m0, m1 = min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1)
        m0 = nextafter(m0, -inf)
        m1 = nextafter(m1, inf)
        if c0 >= 0.0:
            if m0 >= 0.0:
                t0, t1 = c0 * m0, c1 * m1
            elif m1 <= 0.0:
                t0, t1 = c1 * m0, c0 * m1
            else:
                t0, t1 = c1 * m0, c1 * m1
        elif m0 >= 0.0:         # c1 <= 0: iv.make of a nonzero rational has one sign
            t0, t1 = c0 * m1, c1 * m0
        elif m1 <= 0.0:
            t0, t1 = c1 * m1, c0 * m0
        else:
            t0, t1 = c0 * m1, c0 * m0
        lo = nextafter(lo + nextafter(t0, -inf), -inf)
        hi = nextafter(hi + nextafter(t1, inf), inf)
    return (lo, hi)


def box_evaluator(scalars):
    """Evaluator (ix, iy) -> lazy iterator of `s.eval_interval(ix, iy)` over
    the scalars, in order.  When every scalar is a Poly2 they share one table
    of interval powers per box; TrigPoly2 scalars keep their own path."""
    if not all(isinstance(s, Poly2) for s in scalars):
        return lambda ix, iy: (s.eval_interval(ix, iy) for s in scalars)
    nx = max((s._plan()[0] for s in scalars), default=0)
    ny = max((s._plan()[1] for s in scalars), default=0)

    def evaluate(ix, iy):
        powers = (_powers(ix, nx), _powers(iy, ny))
        return (s.eval_interval(ix, iy, powers) for s in scalars)

    return evaluate


def cell_test(scalars):
    """(x_table, y_table, test) for the cells of one grid.  `x_table(ix)` and
    `y_table(iy)` build what a grid column with x-interval ix, or a row with
    y-interval iy, needs: a `_powers` table when every scalar is a Poly2,
    else the interval itself.  `test(xt, yt)` walks the scalars in order and
    returns False at the first whose enclosure over the cell excludes 0; each
    enclosure has the bits of `s.eval_interval(ix, iy)`."""
    if not all(isinstance(s, Poly2) for s in scalars):
        kernels = [s.eval_interval for s in scalars]
        x_table = y_table = lambda a: a
    else:
        plans = [s._plan() for s in scalars]
        nx = max((p[0] for p in plans), default=0)
        ny = max((p[1] for p in plans), default=0)
        kernels = [partial(_sum_terms, p[2]) for p in plans]
        x_table = partial(_powers, n=nx)
        y_table = partial(_powers, n=ny)

    def test(xt, yt):
        for kernel in kernels:
            lo, hi = kernel(xt, yt)
            if lo > 0.0 or hi < 0.0:
                return False
        return True

    return x_table, y_table, test


def float_plan(polys):
    """Evaluator (x, y) -> [p.eval_float(x, y) for p in polys], bit for bit,
    from one table of x**i and y**j per point when every entry is a Poly2;
    TrigPoly2 entries keep their own path."""
    if not all(isinstance(p, Poly2) for p in polys):
        return lambda x, y: [p.eval_float(x, y) for p in polys]
    terms = [p._floats() for p in polys]
    nx = max((t[0] for ts in terms for t in ts), default=0)
    ny = max((t[1] for ts in terms for t in ts), default=0)

    def evaluate(x, y):
        xp = [x ** i for i in range(nx + 1)]
        yp = [y ** j for j in range(ny + 1)]
        out = []
        for ts in terms:
            total = 0.0
            for i, j, c in ts:
                total += c * xp[i] * yp[j]
            out.append(total)
        return out

    return evaluate


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


X = Poly2.variable("x")
Y = Poly2.variable("y")
ONE = Poly2.const(1)


def restrict_to_circle(p: Poly2, cx, cy, r) -> list[Fraction]:
    """Numerator of p restricted to the circle |q - c| = r, in the half-angle
    parameter s; identically zero iff p vanishes on the whole circle.

    Uses x = cx + r(1-s^2)/(1+s^2), y = cy + 2rs/(1+s^2), cleared by (1+s^2)^deg.
    """
    cx, cy, r = _frac(cx), _frac(cy), _frac(r)
    d = max(p.degree, 0)
    one_s2 = [Fraction(1), Fraction(0), Fraction(1)]          # 1 + s^2
    ax = upoly.add(scale_u(one_s2, cx), [r, Fraction(0), -r])  # cx(1+s^2) + r(1-s^2)
    ay = upoly.add(scale_u(one_s2, cy), [Fraction(0), 2 * r])  # cy(1+s^2) + 2rs
    out: list[Fraction] = []
    for (i, j), c in p.monomials().items():
        term = [c]
        for _ in range(i):
            term = upoly.mul(term, ax)
        for _ in range(j):
            term = upoly.mul(term, ay)
        for _ in range(d - i - j):
            term = upoly.mul(term, one_s2)
        out = upoly.add(out, term)
    return out


def scale_u(p, c):
    return upoly.scale(p, _frac(c))


def restrict_to_segment(p: Poly2, a, b) -> list[Fraction]:
    """p along the segment a -> b as a univariate polynomial in t over [0, 1]."""
    ax, ay = _frac(a[0]), _frac(a[1])
    bx, by = _frac(b[0]), _frac(b[1])
    xt = [ax, bx - ax]
    yt = [ay, by - ay]
    out: list[Fraction] = []
    for (i, j), c in p.monomials().items():
        term = [c]
        for _ in range(i):
            term = upoly.mul(term, xt)
        for _ in range(j):
            term = upoly.mul(term, yt)
        out = upoly.add(out, term)
    return out
