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
from functools import lru_cache, partial

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
    additive structure; it is falsy exactly when it is zero.  Subclasses define `const` and `_SCALARS`, the
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

    def __bool__(self) -> bool:
        return bool(self._m)


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
    when every entry is a Poly2; TrigPoly2 entries keep their own path.

    The plan is compiled once into straight-line code that computes each
    x**e and y**e with e >= 2 once per point, then the same floats as
    eval_float in the same order: every sum starts at 0.0 and adds
    c * x**i * y**j over the sorted monomials, a factor x**0 or y**0 dropped
    (c * 1.0 is c).  Coefficients reach the code by name through its globals,
    so no value is written into the source.  `test_float_plan_matches_eval_float`
    pins every result, and every OverflowError, against eval_float by repr."""
    if not all(isinstance(p, Poly2) for p in polys):
        return lambda x, y: [p.eval_float(x, y) for p in polys]
    coeffs, powers, lines = {}, set(), []
    for n, p in enumerate(polys):
        parts = ["0.0"]
        for i, j, c in p._floats():
            term = f"c{len(coeffs)}"
            coeffs[term] = c
            for v, e in (("x", i), ("y", j)):
                if e > 1:
                    powers.add((v, e))
                    term += f" * {v}{e}"
                elif e:
                    term += f" * {v}"
            parts.append(term)
        for k in range(0, len(parts), 64):     # a chain per line: no deep ASTs
            lines.append(f"r{n} = " + " + ".join([f"r{n}"] * (k > 0) + parts[k:k + 64]))
    body = [f"{v}{e} = {v} ** {e}" for v, e in sorted(powers)] + lines
    body.append(f"return [{', '.join(f'r{n}' for n in range(len(polys)))}]")
    exec(_compile_plan("def evaluate(x, y):\n" + "".join(f"    {b}\n" for b in body)), coeffs)
    return coeffs["evaluate"]


@lru_cache(maxsize=256)
def _compile_plan(source):
    """Plans with one monomial pattern share one source and so one code object."""
    return compile(source, "<float_plan>", "exec")


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


X = Poly2.variable("x")
Y = Poly2.variable("y")
ONE = Poly2.const(1)


def restrict(p: Poly2, x, y, w) -> list[Fraction]:
    """w^d p(x/w, y/w), d = deg p: p along the exact curve piece (x, y, w) of
    `regions`, zero exactly when p vanishes on the whole piece."""
    d = max(p.degree, 0)
    xp, yp, wp = ([[Fraction(1)]] for _ in range(3))
    for table, v in ((xp, x), (yp, y), (wp, w)):
        for _ in range(d):
            table.append(upoly.mul(table[-1], v))
    out: list[Fraction] = []
    for (i, j), c in p.monomials().items():
        out = upoly.add(out, upoly.scale(upoly.mul(upoly.mul(xp[i], yp[j]), wp[d - i - j]), c))
    return out
