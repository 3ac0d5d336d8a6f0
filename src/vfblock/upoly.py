"""Univariate polynomials over Q as ascending coefficient lists.

Small exact toolkit: arithmetic, gcd, Sturm chains and rational roots.  Used
for boundary restrictions (wedge dependence tests), factor nonvanishing
certificates and characteristic polynomials of adjoint maps.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def deg(p) -> int:
    return len(p) - 1


def is_zero(p) -> bool:
    return not p


def add(p, q):
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


def scale(p, c: Fraction):
    if c == 0:
        return []
    return [ci * c for ci in p]


def mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
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


def divmod_poly(p, q):
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = deg(q)
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quot[k] = c
        for i, qc in enumerate(q):
            rem[k + i] -= c * qc
        trim(rem)
    return trim(quot), rem


def gcd(p, q):
    """Monic gcd over Q (zero polynomial for a pair of zeros)."""
    a, b = trim(list(p)), trim(list(q))
    while b:
        a, b = b, divmod_poly(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(p):
    if deg(p) <= 0:
        return list(p)
    g = gcd(p, derivative(p))
    if deg(g) <= 0:
        return list(p)
    return divmod_poly(p, g)[0]


def sturm_chain(p):
    chain = [trim(list(p)), derivative(p)]
    while not is_zero(chain[-1]) and deg(chain[-1]) > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        chain.append(neg(rem))
    if is_zero(chain[-1]):
        chain.pop()
    return chain


def _sign_at(p, x) -> int:
    # x is a Fraction, or the strings "-inf"/"+inf"
    if is_zero(p):
        return 0
    if x == "+inf":
        return 1 if p[-1] > 0 else -1
    if x == "-inf":
        s = 1 if p[-1] > 0 else -1
        return s if deg(p) % 2 == 0 else -s
    v = evaluate(p, x)
    return (v > 0) - (v < 0)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi]; endpoints None mean +-infinity."""
    sf = squarefree_part(p)
    if deg(sf) <= 0:
        return 0
    chain = sturm_chain(sf)
    a = "-inf" if lo is None else lo
    b = "+inf" if hi is None else hi
    return _variations(chain, a) - _variations(chain, b)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_roots(p) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, via the rational root theorem."""
    p = trim(list(p))
    if deg(p) <= 0:
        return []
    roots: list[tuple[Fraction, int]] = []
    # strip x^m
    m = 0
    while p and p[0] == 0:
        p = p[1:]
        m += 1
    if m:
        roots.append((Fraction(0), m))
    if deg(p) <= 0:
        return roots
    denom_lcm = 1
    for c in p:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ip = [int(c * denom_lcm) for c in p]
    g = 0
    for c in ip:
        g = math.gcd(g, c)
    if g > 1:
        ip = [c // g for c in ip]
    for num in _divisors(ip[0]):
        for den in _divisors(ip[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if evaluate(p, cand) == 0:
                    mult = 0
                    while evaluate(p, cand) == 0:
                        p, _ = divmod_poly(p, [-cand, Fraction(1)])
                        mult += 1
                    roots.append((cand, mult))
                if deg(p) <= 0:
                    return sorted(roots)
    return sorted(roots)
