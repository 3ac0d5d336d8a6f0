"""Entry-by-entry Fraction references for the integer code in vfblock.

Gauss-Jordan, span solves, Sturm chains, gcds and rational roots computed
over Q the textbook way.  `vfblock.exactlin` and `vfblock.upoly` work on
integers instead and must agree with these exactly; so must
`vfblock.interval.make` with `make_reference`.
"""

import math
from fractions import Fraction

from vfblock.upoly import deg, derivative, evaluate, trim


def rref_reference(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_in_span(basis, target):
    """Coordinates of target in the row span of basis, or None."""
    if not basis:
        return None if any(t != 0 for t in target) else []
    n = len(basis)
    m, pivots = rref_reference([[basis[k][d] for k in range(n)] + [target[d]]
                                for d in range(len(target))])
    if n in pivots:
        return None
    coords = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        coords[c] = row[-1]
    return coords


def vector_in_span(basis, vec) -> bool:
    return solve_in_span(basis, vec) is not None


def divmod_poly(p, q):
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = deg(q)
    while len(rem) - 1 >= dq and rem:
        k = len(rem) - 1 - dq
        c = rem[-1] / q[-1]
        quot[k] = c
        for i, qc in enumerate(q):
            rem[k + i] -= c * qc
        trim(rem)
    return trim(quot), rem


def gcd(p, q):
    """Monic gcd over Q by Euclid's algorithm."""
    a, b = trim(list(p)), trim(list(q))
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def squarefree_part(p):
    g = gcd(p, derivative(p))
    return divmod_poly(p, g)[0] if deg(g) > 0 else list(p)


def sturm_chain(p):
    chain = [trim(list(p)), derivative(p)]
    while chain[-1] and deg(chain[-1]) > 0:
        chain.append([-c for c in divmod_poly(chain[-2], chain[-1])[1]])
    if not chain[-1]:
        chain.pop()
    return chain


def _variations(chain, x) -> int:
    # x is a Fraction, or the strings "-inf"/"+inf"
    signs = []
    for p in chain:
        if x == "+inf":
            v = p[-1]
        elif x == "-inf":
            v = p[-1] if deg(p) % 2 == 0 else -p[-1]
        else:
            v = evaluate(p, x)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi]; endpoints None mean +-infinity."""
    p = trim(list(p))
    if deg(p) <= 0:
        return 0
    chain = sturm_chain(squarefree_part(p))
    return (_variations(chain, "-inf" if lo is None else lo)
            - _variations(chain, "+inf" if hi is None else hi))


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots(p) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, each candidate num/den of the
    rational root theorem tested by Fraction Horner."""
    p = trim([Fraction(c) for c in p])
    if deg(p) <= 0:
        return []
    roots = []
    m = 0
    while p[0] == 0:
        p = p[1:]
        m += 1
    if m:
        roots.append((Fraction(0), m))
    d = math.lcm(*(c.denominator for c in p))
    ip = [int(c * d) for c in p]
    for num in _divisors(ip[0]):
        for den in _divisors(ip[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                mult = 0
                while deg(p) > 0 and evaluate(p, cand) == 0:
                    p = divmod_poly(p, [-cand, Fraction(1)])[0]
                    mult += 1
                if mult:
                    roots.append((cand, mult))
    return sorted(roots)


def make_reference(x) -> tuple[float, float]:
    """Float interval around an exact number: float(x), widened by one ulp on
    each side where Fraction(float(x)) misses x."""
    if isinstance(x, float):
        return (x, x)
    f = float(x)
    exact = Fraction(f)
    lo = f if exact <= x else math.nextafter(f, -math.inf)
    hi = f if exact >= x else math.nextafter(f, math.inf)
    return (lo, hi)
