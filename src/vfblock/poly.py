"""Exact bivariate polynomials over Q with sparse monomial maps.

Poly2 is the coefficient-level workhorse: brackets, translations and
divisibility tests all happen here, exactly, on integer numerators over one
positive denominator.  Float and interval evaluation forms are cached per
instance for the numeric paths.  `TermMap` and `add_term` are the sparse
term-map core that trig.TrigPoly2 and trig.PiNumber share with it.
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
    """Sparse map `_m` from term keys to nonzero coefficients over the
    positive denominator `_d`, with its additive structure; it is falsy
    exactly when it is zero.  `Poly2` and `trig.PiNumber` keep int numerators
    in lowest terms over `_d` (1 for zero); `trig.TrigPoly2` keeps `PiNumber`
    coefficients over 1.  Subclasses define `const` and `_SCALARS`, the
    coefficient types that coerce to a constant.  The float and plan slots
    are caches of the evaluation forms, built on first use."""

    __slots__ = ("_m", "_d", "_hash", "_float_terms", "_plan_cache")
    _SCALARS: tuple = ()

    def _set(self, m, d=1):
        """Set the map to numerators m over d, its caches empty."""
        self._m, self._d = m, d
        self._hash = self._float_terms = self._plan_cache = None

    def _set_fractions(self, m):
        """Set the map from nonzero Fractions: reduced, they share no factor
        with the lcm of their denominators, so their numerators over it are
        in lowest terms."""
        d = math.lcm(*(c.denominator for c in m.values()))
        self._set({k: c.numerator * (d // c.denominator) for k, c in m.items()}, d)

    @classmethod
    def _of(cls, m, d=1):
        """Wrap numerators m over d > 0, divided by their common gcd."""
        if d != 1:
            g = math.gcd(d, *m.values())
            if g != 1:
                m, d = {k: c // g for k, c in m.items()}, d // g
        out = cls.__new__(cls)
        out._set(m, d)
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
        """The one sum of the three rings: both sides over the common
        denominator, then `add_term` in order."""
        other = self._coerce(other)
        g = math.gcd(self._d, other._d)
        s, t = other._d // g, self._d // g
        m = dict(self._m) if s == 1 else {k: c * s for k, c in self._m.items()}
        terms = other._m.items() if t == 1 else [(k, c * t) for k, c in other._m.items()]
        for k, c in terms:
            add_term(m, k, c)
        return self._of(m, self._d * s)

    __radd__ = __add__

    def __neg__(self):
        return self._of({k: -c for k, c in self._m.items()}, self._d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __eq__(self, other):
        return isinstance(other, type(self)) and self._d == other._d and self._m == other._m

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._d, frozenset(self._m.items())))
        return self._hash

    def _scaled(self, q):
        """self * q for an int or Fraction q, on int numerators."""
        if not q:
            return self.zero()
        n = q.numerator
        return self._of({k: c * n for k, c in self._m.items()}, self._d * q.denominator)

    def is_zero(self) -> bool:
        return not self._m

    def __bool__(self) -> bool:
        return bool(self._m)


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


class Poly2(TermMap):
    """Polynomial in x, y: monomial map (i, j) -> nonzero int numerator over
    the int denominator `_d` > 0, with gcd(`_d`, every numerator) = 1."""

    __slots__ = ()
    _SCALARS = (int, Fraction)
    axis_table = staticmethod(_powers)      # entry i of a plan's x table is x^i

    def __init__(self, monomials=None):
        m = {}
        if monomials:
            for (i, j), c in monomials.items():
                c = _frac(c)
                if c != 0:
                    if i < 0 or j < 0:
                        raise ValueError("negative exponent")
                    m[(int(i), int(j))] = c
        self._set_fractions(m)

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
        d = self._d
        return {k: Fraction(c, d) for k, c in self._m.items()}

    def _extent(self):
        """(largest x exponent, largest y exponent), 0 for the zero polynomial."""
        return (max((i for i, _ in self._m), default=0),
                max((j for _, j in self._m), default=0))

    # ring structure -----------------------------------------------------

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            return self._scaled(other)
        other = self._coerce(other)
        m: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._m.items():
            for (i2, j2), c2 in other._m.items():
                add_term(m, (i1 + i2, j1 + j2), c1 * c2)
        return self._of(m, self._d * other._d)

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
        return self._of({(i - 1, j): c * i for (i, j), c in self._m.items() if i > 0}, self._d)

    def dy(self) -> "Poly2":
        return self._of({(i, j - 1): c * j for (i, j), c in self._m.items() if j > 0}, self._d)

    def translate(self, ax, ay) -> "Poly2":
        """Substitute x -> x + ax, y -> y + ay exactly.  With ax = a/b and
        ay = e/f, on numerators scaled by b^I f^J, I and J the largest x and
        y exponents: ax^k becomes a^k b^(I-k), ay^k becomes e^k f^(J-k)."""
        (a, b), (e, f) = _frac(ax).as_integer_ratio(), _frac(ay).as_integer_ratio()
        ni, nj = self._extent()
        px = [a ** k * b ** (ni - k) for k in range(ni + 1)]
        py = [e ** k * f ** (nj - k) for k in range(nj + 1)]
        m: dict[tuple[int, int], int] = {}
        for (i, j), c in self._m.items():
            for p in range(i + 1):
                cx = c * math.comb(i, p) * px[i - p]
                if cx == 0:
                    continue
                for q in range(j + 1):
                    cc = cx * math.comb(j, q) * py[j - q]
                    if cc:
                        add_term(m, (p, q), cc)
        return self._of(m, self._d * b ** ni * f ** nj)

    def divide_y_power(self, l: int) -> "Poly2":
        """Exact quotient by y**l; raises InsufficientPower if not divisible."""
        if l < 0:
            raise ValueError("negative power")
        for (i, j) in self._m:
            if j < l:
                raise InsufficientPower(f"monomial x^{i} y^{j} has y-exponent < {l}")
        return self._of({(i, j - l): c for (i, j), c in self._m.items()}, self._d)

    # evaluation ---------------------------------------------------------

    def eval_exact(self, x, y) -> Fraction:
        """p(x, y) summed on integers, with x = a/b and y = e/f scaled as in
        `translate`."""
        (a, b), (e, f) = _frac(x).as_integer_ratio(), _frac(y).as_integer_ratio()
        ni, nj = self._extent()
        total = sum(c * a ** i * b ** (ni - i) * e ** j * f ** (nj - j)
                    for (i, j), c in self._m.items())
        return Fraction(total, self._d * b ** ni * f ** nj)

    def _floats(self):
        """[(i, j, float)] in sorted monomial order: n / d is correctly
        rounded, so it is float(Fraction(n, d))."""
        if self._float_terms is None:
            d = self._d
            self._float_terms = [(i, j, c / d) for (i, j), c in sorted(self._m.items())]
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
            d = self._d
            terms = [(i, j, *iv.ratio(c, d)) for (i, j), c in sorted(self._m.items())]
            self._plan_cache = (*self._extent(), terms)
        return self._plan_cache

    def eval_interval(self, ix, iy, tables=None):
        """Sound enclosure of the range over the box ix x iy: the natural
        extension, sum of c * (x^i * y^j) in sorted monomial order.  `tables`
        is a pair of `_powers` tables of ix and iy at least as long as this
        polynomial needs; entry k does not depend on the length, so a table
        shared between polynomials gives the same bits."""
        max_i, max_j, terms = self._plan()
        return _sum_terms(terms, *(tables or (_powers(ix, max_i), _powers(iy, max_j))))

    # serialization ------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "j": j, "c": _frac_str(c)}
            for (i, j), c in sorted(self.monomials().items())
        ]

    @classmethod
    def from_json(cls, data) -> "Poly2":
        return cls({(t["i"], t["j"]): Fraction(t["c"]) for t in data})

    def __repr__(self):
        if not self._m:
            return "Poly2(0)"
        parts = []
        for (i, j), c in sorted(self.monomials().items()):
            mono = "".join(s for s in (f"x^{i}" if i else "", f"y^{j}" if j else "") if s)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly2(" + " + ".join(parts) + ")"


def _sum_terms(terms, xp, yp):
    """The one term loop of the natural extension, for both rings: the sum of
    c * (xp[i] * yp[j]) over a plan's terms, in order, from axis tables xp and
    yp.  Both products are those of `iv.mul4`, its sign cases written out: the
    same float operations in the same order, so the same bits."""
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
        elif c1 <= 0.0:
            if m0 >= 0.0:
                t0, t1 = c0 * m1, c1 * m0
            elif m1 <= 0.0:
                t0, t1 = c1 * m1, c0 * m0
            else:
                t0, t1 = c0 * m1, c0 * m0
        elif m0 >= 0.0:         # c straddles 0: a Q[pi] coefficient can, a rational cannot
            t0, t1 = c0 * m1, c1 * m1
        elif m1 <= 0.0:
            t0, t1 = c1 * m0, c0 * m0
        else:
            t0, t1 = min(c0 * m1, c1 * m0), max(c0 * m0, c1 * m1)
        lo = nextafter(lo + nextafter(t0, -inf), -inf)
        hi = nextafter(hi + nextafter(t1, inf), inf)
    return (lo, hi)


def _ring_plans(scalars):
    """(build, nx, ny, plans) of scalars of one ring (else TypeError): its
    `axis_table`, the largest x and y table index a plan reads, the plans."""
    build, *others = {s.axis_table for s in scalars} or {_powers}
    if others:
        raise TypeError("the scalars mix coefficient rings")
    plans = [s._plan() for s in scalars]
    return (build, max((p[0] for p in plans), default=0),
            max((p[1] for p in plans), default=0), plans)


def _int_powers(lo: int, hi: int, n: int, count: int) -> list:
    """[X^0, ..., X^count], each the exact (min, max) over the integer
    interval [lo, hi], X = n x (n is not read): odd powers, and all powers on
    one side of 0, are monotone; an even power across 0 is [0, max]."""
    out = [(1, 1)]
    a = b = 1
    for k in range(1, count + 1):
        a *= lo
        b *= hi
        out.append((a, b) if k & 1 or lo >= 0 else (b, a) if hi <= 0 else (0, max(a, b)))
    return out


def _monomial_range(terms, xp, yp):
    """The exact range of the sum of c * (xp[i] * yp[j]) over terms
    (i, j, c), from integer axis tables; each product of two ranges takes
    its endpoints by the signs of its factors (Moore's nine cases)."""
    lo = hi = 0
    for i, j, c in terms:
        a0, a1 = xp[i]
        b0, b1 = yp[j]
        if a0 >= 0:
            m0, m1 = (a0 if b0 >= 0 else a1) * b0, (a1 if b1 >= 0 else a0) * b1
        elif a1 <= 0:
            m0, m1 = (a0 if b1 >= 0 else a1) * b1, (a1 if b0 >= 0 else a0) * b0
        elif b0 >= 0:
            m0, m1 = a0 * b1, a1 * b1
        elif b1 <= 0:
            m0, m1 = a1 * b0, a0 * b0
        else:
            m0, m1 = min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1)
        if c > 0:
            lo, hi = lo + c * m0, hi + c * m1
        else:
            lo, hi = lo + c * m1, hi + c * m0
    return lo, hi


def cell_test(scalars, n: int):
    """(build, nx, ny, test, compiled) for the cells of one grid scaled by n,
    scalars of one ring.  A column whose scaled x-interval is [lo, hi], or
    such a row, reaches `test(xt, yt)` as the table build(lo, hi, n, nx), or
    ny, or longer.  `test` returns False at the first scalar whose enclosure
    over the cell excludes 0; it only reads the tables, so callers may share
    them.  `compiled()` builds a test with the same verdicts.
    Poly2 scalars of largest degree D run in integers: d n^D p(X / n, Y / n),
    the sum of m n^(D - i - j) X^i Y^j over p's numerators m, has p's sign,
    and `_monomial_range` on `_int_powers` tables is its exact natural
    extension, compiled by `_corner_kernel`.  Other rings keep their
    `cell_table` and `_sum_terms`, with the bits of `s.eval_interval` on the
    cell's outward-rounded box; their `compiled()` is `test`."""
    if all(isinstance(s, Poly2) for s in scalars):
        build = _int_powers
        nx = max((i for s in scalars for i, _ in s._m), default=0)
        ny = max((j for s in scalars for _, j in s._m), default=0)
        top = max((i + j for s in scalars for i, j in s._m), default=0)
        terms = [[(i, j, m * n ** (top - i - j)) for (i, j), m in s._m.items()]
                 for s in scalars]
        kernels = [partial(_monomial_range, t) for t in terms]

        def compiled():
            ordered = [sorted(t) for t in terms]    # one pattern per monomial set
            pattern = tuple(tuple((i, j, c > 0) for i, j, c in t) for t in ordered)
            return _corner_kernel(pattern)(tuple(c for t in ordered for *_, c in t), test)
    else:
        _, nx, ny, plans = _ring_plans(scalars)
        build = scalars[0].cell_table
        kernels = [partial(_sum_terms, p[2]) for p in plans]
        compiled = lambda: test   # noqa: E731

    def test(xt, yt):
        for kernel in kernels:
            lo, hi = kernel(xt, yt)
            if lo > 0 or hi < 0:
                return False
        return True

    return build, nx, ny, test, compiled


@lru_cache(maxsize=32)
def _corner_kernel(pattern):
    """make(c, fallback): straight-line `cell_test` code for one pattern, per
    scalar its terms (i, j, c > 0); the coefficients arrive as the tuple c, so
    no value is written into the source.  On a cell whose column and row each
    lie on one side of 0, X^i < 0 only for odd i left of 0, and the end of
    c X^i Y^j sought takes X^i's upper corner exactly when Y^j < 0 xor that
    end is the monomial's largest (the lower end for c < 0), Y^j's likewise:
    `_monomial_range`'s integers.  Cells that cross an axis with an odd
    exponent, such as the root cell, go to `fallback`."""
    names = [[f"c{k}_{t}" for t in range(len(terms))] for k, terms in enumerate(pattern)]
    axes = [sorted({t[a] for terms in pattern for t in terms if t[a]}) for a in (0, 1)]
    odd = [any(e % 2 for e in axis) for axis in axes]

    def end(k, neg_x, neg_y, upper):
        parts = [name + (f" * x{'lh'[(neg_y and j % 2 == 1) != (pos == upper)]}{i}" if i else "")
                 + (f" * y{'lh'[(neg_x and i % 2 == 1) != (pos == upper)]}{j}" if j else "")
                 for name, (i, j, pos) in zip(names[k], pattern[k])]
        return " + ".join(f"({' + '.join(parts[g:g + 64])})"     # no deep ASTs
                          for g in range(0, len(parts), 64)) or "0"

    body = [f"{v}l{e}, {v}h{e} = {v}t[{e}]" for v, axis, o in zip("xy", axes, odd)
            for e in sorted({1, *axis} if o else axis)]
    for neg_x in (False, True)[:1 + odd[0]]:
        if odd[0]:
            body.append("if xh1 <= 0:" if neg_x else "if xl1 >= 0:")
        for neg_y in (False, True)[:1 + odd[1]]:
            if odd[1]:
                body.append("    " * odd[0] + ("if yh1 <= 0:" if neg_y else "if yl1 >= 0:"))
            pad = "    " * (odd[0] + odd[1])
            body += [f"{pad}if {end(k, neg_x, neg_y, False)} > 0 or "
                     f"{end(k, neg_x, neg_y, True)} < 0: return False" for k in range(len(pattern))]
            body.append(pad + "return True")
    body.append("return fallback(xt, yt)")
    unpack = "".join(f"{name}, " for row in names for name in row)
    source = ("def make(c, fallback):\n" + (f"    {unpack}= c\n" if unpack else "")
              + "    def test(xt, yt):\n" + "".join(f"        {b}\n" for b in body)
              + "    return test\n")
    env = {}
    exec(compile(source, "<cell_test>", "exec"), env)
    return env["make"]


def float_plan(polys, filename="<float_plan>"):
    """Evaluator (x, y) -> [p.eval_float(x, y) for p in polys], bit for bit,
    when every entry is a Poly2; TrigPoly2 entries keep their own path.

    The plan is compiled once into straight-line code that computes each
    x**e and y**e with e >= 2 once per point, then the same floats as
    eval_float in the same order: every sum starts at 0.0 and adds
    c * x**i * y**j over the sorted monomials, a factor x**0 or y**0 dropped
    (c * 1.0 is c).  Coefficients reach the code by name through its globals,
    so no value is written into the source.  `test_float_plan_matches_eval_float`
    pins every result, and every OverflowError, against eval_float by repr.
    The code is compiled under `filename`, which names it in profiles."""
    if not all(isinstance(p, Poly2) for p in polys):
        return lambda x, y: [p.eval_float(x, y) for p in polys]
    return generated_plan(polys, f"[{', '.join(f'r{n}' for n in range(len(polys)))}]",
                          "x, y", filename)


def generated_plan(polys, result, state, filename):
    """`float_plan`'s code for Poly2 entries, r{n} = polys[n].eval_float(x, y),
    returning the expression `result` of them; it takes x and y, or one tuple
    that it unpacks into the names `state` (x and y first), compiled under
    `filename`."""
    coeffs, lines = plan_lines(polys)
    params, body = ("x, y", []) if state == "x, y" else ("s", [f"{state} = s"])
    body += lines + [f"return {result}"]
    source = f"def evaluate({params}):\n" + "".join(f"    {b}\n" for b in body)
    exec(_compile_plan(source, filename), coeffs)
    return coeffs["evaluate"]


def plan_lines(polys):
    """({name: coefficient}, lines): `float_plan`'s body over x and y, the
    powers x**e, y**e (e >= 2), then r{n}; the dict binds the names as globals."""
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
    return coeffs, [f"{v}{e} = {v} ** {e}" for v, e in sorted(powers)] + lines


@lru_cache(maxsize=256)
def _compile_plan(source, filename):
    """Plans with one monomial pattern share one source and so one code object;
    `filename` names the kind of code (`<float_plan>`, `<lift>`, ...) in
    tracebacks and profiles, and is part of the key."""
    return compile(source, filename, "exec")


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


X = Poly2.variable("x")
Y = Poly2.variable("y")
ONE = Poly2.const(1)


def restrict(p: Poly2, x, y, w) -> list[Fraction]:
    """w^d p(x/w, y/w), d = deg p: p along the exact curve piece (x, y, w) of
    `regions`, zero exactly when p vanishes on the whole piece.  The tables
    and the sum run on integers: the piece times e, the lcm of its
    denominators, against p's numerators; one division by p._d e^d ends it."""
    d = max(p.degree, 0)
    e = math.lcm(*(c.denominator for v in (x, y, w) for c in v))
    xp, yp, wp = ([[1]] for _ in range(3))
    for table, v in ((xp, x), (yp, y), (wp, w)):
        v = [c.numerator * (e // c.denominator) for c in v]
        for _ in range(d):
            table.append(upoly.mul(table[-1], v))
    out: list[int] = []
    for (i, j), c in p._m.items():
        term = upoly.mul(upoly.mul(xp[i], yp[j]), wp[d - i - j])
        out += [0] * (len(term) - len(out))
        for k, t in enumerate(term):
            out[k] += c * t
    den = p._d * e ** d
    return [Fraction(c, den) for c in upoly.trim(out)]
