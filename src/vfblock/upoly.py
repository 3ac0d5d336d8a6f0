"""Univariate polynomials as ascending coefficient lists.

The arithmetic (mul, evaluate, derivative) works on any exact numbers; `mul`
on ints builds the integer tables of `poly.restrict`.  The root questions (gcd,
count_real_roots, rational_roots) take ints or Fractions and work on the
primitive integer list with the same roots: p times the lcm of its
denominators, divided by its content, leading coefficient positive.

One pseudo-remainder routine, `_signed_rem`, builds the remainder sequence that
serves Sturm counts, the gcd and the squarefree part.  Each step multiplies by
a positive factor dividing |lc|^(delta+1) and the result is divided by its
content, so every member is a positive multiple of the Sturm chain over Q and
every sign-variation count is unchanged (Collins, JACM 1967; Basu, Pollack and
Roy, ch. 8).  The sign of p at a rational a/b is that of the integer
b^n p(a/b), found by Horner's rule; rational roots are deflated by exact
division in Z[x].
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def deg(p) -> int:
    return len(p) - 1


def is_zero(p) -> bool:
    return not p


def mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def evaluate(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim([c * i for i, c in enumerate(p)][1:])


def _primitive(p) -> list[int]:
    p = trim(list(p))
    if not p:
        return []
    d = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (d // c.denominator) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [-c // g for c in ints]


def quotient(p: list[int], g: list[int]) -> list[int]:
    """p / g in Z[x], for a primitive g that divides p over Q (by Gauss's lemma
    the quotient then has integer coefficients)."""
    r = list(p)
    n = len(g) - 1
    q = [0] * (len(p) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n] // g[-1]
        q[k] = c
        if c:
            for i, gi in enumerate(g):
                r[k + i] -= c * gi
    return q


def _signed_rem(a: list[int], b: list[int]) -> list[int]:
    """-(a mod b) times a positive rational, as a primitive integer list."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    while len(r) > n:
        c = r.pop()
        if c:
            g = math.gcd(lb, c)
            m, f = abs(lb) // g, c // g if lb > 0 else -c // g
            if m != 1:
                r = [x * m for x in r]
            k = len(r) - n
            for i in range(n):
                r[k + i] -= f * b[i]
    trim(r)
    g = math.gcd(*r)
    return [-x // g for x in r]


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b and their signed remainders down to the last nonzero one, which is
    gcd(a, b); with b = a' this is the Sturm chain of a up to positive
    factors."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _signed_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)
    return seq


def gcd(p, q):
    """Monic gcd over Q (zero polynomial for a pair of zeros)."""
    a, b = _primitive(p), _primitive(q)
    if len(a) < len(b):
        a, b = b, a
    if b:
        a = _remainder_sequence(a, b)[-1]
    return [Fraction(c, a[-1]) for c in a]


def _value(p: list[int], a: int, b: int) -> int:
    """b^n p(a/b) for p of degree n: for b > 0 it has the sign of p(a/b)."""
    acc, bk = p[-1], 1
    for c in reversed(p[:-1]):
        bk *= b
        acc = acc * a + c * bk
    return acc


def _variations(chain, x, end: int) -> int:
    """Sign variations of the chain at x, or at end * infinity for x None."""
    if x is None:
        signs = [p[-1] if end > 0 or len(p) % 2 else -p[-1] for p in chain]
    else:
        signs = [_value(p, x.numerator, x.denominator) for p in chain]
    signs = [s for s in signs if s]
    return sum((s < 0) != (t < 0) for s, t in zip(signs, signs[1:]))


def count_real_roots(p, lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi]; endpoints None mean +-infinity."""
    p = _primitive(p)
    if len(p) < 2:
        return 0
    chain = _remainder_sequence(p, _primitive(derivative(p)))
    if len(chain[-1]) > 1:
        # multiple roots: the chain of the squarefree part p / gcd(p, p')
        p = quotient(p, _primitive(chain[-1]))
        chain = _remainder_sequence(p, _primitive(derivative(p)))
    return _variations(chain, lo, -1) - _variations(chain, hi, 1)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots(p) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, via the rational root theorem:
    a root a/b in lowest terms of a primitive integer polynomial has a | c_0
    and b | c_n."""
    p = _primitive(p)
    if len(p) < 2:
        return []
    roots: list[tuple[Fraction, int]] = []
    m = next(i for i, c in enumerate(p) if c)
    if m:
        roots.append((Fraction(0), m))
        p = p[m:]
    for num in _divisors(p[0]):
        for den in _divisors(p[-1]):
            if len(p) < 2:
                return sorted(roots)
            if math.gcd(num, den) > 1:
                continue
            for a in (num, -num):
                mult = 0
                while len(p) > 1 and _value(p, a, den) == 0:
                    p = quotient(p, [-a, den])
                    mult += 1
                if mult:
                    roots.append((Fraction(a, den), mult))
    return sorted(roots)
