"""Entry-by-entry Fraction references for the integer code in vfblock.

Gauss-Jordan, span solves, Sturm chains, gcds and rational roots computed
over Q the textbook way.  `vfblock.exactlin` and `vfblock.upoly` work on
integers instead and must agree with these exactly.  `rref`, `subspace_basis`
and `in_rref_span` are Fraction views of the integer elimination, for tests
that state spans over Q.  `vfblock.liealg`'s derived series and ideal-chain
re-check run on the integer structure tensor and must agree with
`derived_depth_reference` and `verify_ideal_chain_reference`, which bracket
the Fraction structure constants.  So must `vfblock.interval.make` with
`make_reference`, `vfblock.poly.restrict` along the curves' pieces with
`restrict_to_circle` and `restrict_to_segment`, and
`vfblock.liealg.supersolvable_flag` with `supersolvable_flag_reference`, the
flag search on Fraction structure constants that it replaced, and its integer
pick with `pick_candidate_reference`.  The references read a presentation's
constants through its Fraction view `structure`; `presentation` builds one
from Fraction constants.  Every `Poly2` operation must agree with its `poly_*`
function here, which runs on a Fraction per monomial as `Poly2` did before it
stored integer numerators.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from vfblock import exactlin as xl
from vfblock import upoly
from vfblock.errors import NumericalAmbiguity
from vfblock.liealg import (FlagResult, LieAlgebraPresentation, _coefficient_row,
                            _require_closed)
from vfblock.poly import Poly2, _frac
from vfblock.upoly import deg, derivative, evaluate, trim


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def rref(rows):
    """Reduced row echelon form through the integer elimination: each row
    times the lcm of its denominators, then each pivot row divided by its
    pivot.  Returns (Fraction matrix, pivot column list)."""
    m = []
    for row in rows:
        d = math.lcm(*(Fraction(v).denominator for v in row))
        m.append([int(Fraction(v) * d) for v in row])
    pivots = xl._rref_int(m)
    zero = Fraction(0)
    out = [[Fraction(a, row[c]) if a else zero for a in row] for row, c in zip(m, pivots)]
    return out + [[zero] * len(row) for row in m[len(pivots):]], pivots


def subspace_basis(vectors):
    """A canonical (rref) basis of the span of the given vectors."""
    m, pivots = rref(vectors)
    return m[: len(pivots)]


def in_rref_span(rows, pivots, vec) -> bool:
    """Is vec in the span of rows, given as rref rows with their pivot
    columns?  Coordinates must be vec's pivot entries, so subtracting them
    leaves zero exactly when it is."""
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            vec = [a - f * b if b else a for a, b in zip(vec, row)]
    return not any(vec)


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


def kernel_reference(rows):
    """The kernel basis read off the rref: 1 at each free column."""
    m, pivots = rref_reference(rows)
    out = []
    for fcol in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[fcol] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = -row[fcol]
        out.append(v)
    return out


def span_reference(vectors):
    m, pivots = rref_reference(vectors)
    return m[: len(pivots)]


def intersect_reference(a_basis, b_basis):
    """The rref basis of span(a) and span(b)'s intersection."""
    if not a_basis or not b_basis:
        return []
    na, dim = len(a_basis), len(a_basis[0])
    rows = [[a_basis[k][d] for k in range(na)] + [-v[d] for v in b_basis]
            for d in range(dim)]
    out = []
    for combo in kernel_reference(rows):
        vec = [sum((combo[k] * a_basis[k][d] for k in range(na)), Fraction(0))
               for d in range(dim)]
        if any(vec):
            out.append(vec)
    return span_reference(out) if out else []


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


def add_u(p, q):
    """p + q on Fraction coefficient lists, trimmed."""
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def scale_u(p, c):
    c = _frac(c)
    return [ci * c for ci in p] if c else []


def restrict_to_circle(p: Poly2, cx, cy, r) -> list[Fraction]:
    """Numerator of p restricted to the circle |q - c| = r, in the half-angle
    parameter s; identically zero iff p vanishes on the whole circle.

    Uses x = cx + r(1-s^2)/(1+s^2), y = cy + 2rs/(1+s^2), cleared by (1+s^2)^deg.
    """
    cx, cy, r = _frac(cx), _frac(cy), _frac(r)
    d = max(p.degree, 0)
    one_s2 = [Fraction(1), Fraction(0), Fraction(1)]          # 1 + s^2
    ax = add_u(scale_u(one_s2, cx), [r, Fraction(0), -r])  # cx(1+s^2) + r(1-s^2)
    ay = add_u(scale_u(one_s2, cy), [Fraction(0), 2 * r])  # cy(1+s^2) + 2rs
    out: list[Fraction] = []
    for (i, j), c in p.monomials().items():
        term = [c]
        for _ in range(i):
            term = upoly.mul(term, ax)
        for _ in range(j):
            term = upoly.mul(term, ay)
        for _ in range(d - i - j):
            term = upoly.mul(term, one_s2)
        out = add_u(out, term)
    return out


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
        out = add_u(out, term)
    return out


# Poly2 on Fraction dicts {(i, j): nonzero Fraction}: every sum and product
# goes through _add_term, so the dict order is the term order Poly2 keeps.

def _add_term(m, key, c):
    s = m.get(key)
    s = c if s is None else s + c
    if s:
        m[key] = s
    else:
        m.pop(key, None)


def poly_of(monomials):
    """The dict that Poly2(monomials) stands for."""
    m = {}
    for (i, j), c in monomials.items():
        c = _frac(c)
        if c:
            m[(int(i), int(j))] = c
    return m


def poly_add(a, b):
    m = dict(a)
    for k, c in b.items():
        _add_term(m, k, c)
    return m


def poly_neg(a):
    return {k: -c for k, c in a.items()}


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_scale(a, c):
    c = _frac(c)
    return {k: v * c for k, v in a.items()} if c else {}


def poly_mul(a, b):
    m = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            _add_term(m, (i1 + i2, j1 + j2), c1 * c2)
    return m


def poly_pow(a, n):
    """Square and multiply from the constant 1, as Poly2.__pow__ does."""
    out, base = {(0, 0): Fraction(1)}, a
    while n:
        if n & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base)
        n >>= 1
    return out


def poly_dx(a):
    return {(i - 1, j): c * i for (i, j), c in a.items() if i > 0}


def poly_dy(a):
    return {(i, j - 1): c * j for (i, j), c in a.items() if j > 0}


def poly_translate(a, ax, ay):
    ax, ay = _frac(ax), _frac(ay)
    m = {}
    for (i, j), c in a.items():
        for p in range(i + 1):
            cx = c * math.comb(i, p) * ax ** (i - p)
            if cx == 0:
                continue
            for q in range(j + 1):
                cc = cx * math.comb(j, q) * ay ** (j - q)
                if cc:
                    _add_term(m, (p, q), cc)
    return m


def poly_divide_y_power(a, l):
    """The quotient by y^l, or None when some y exponent is below l."""
    if any(j < l for _, j in a):
        return None
    return {(i, j - l): c for (i, j), c in a.items()}


def poly_eval(a, x, y):
    x, y = _frac(x), _frac(y)
    return sum((c * x ** i * y ** j for (i, j), c in a.items()), Fraction(0))


def poly_restrict(a, x, y, w):
    """w^d a(x/w, y/w), d the degree, term by term on Fraction lists."""
    d = max((i + j for i, j in a), default=0)
    xp, yp, wp = ([[Fraction(1)]] for _ in range(3))
    for table, v in ((xp, x), (yp, y), (wp, w)):
        for _ in range(d):
            table.append(upoly.mul(table[-1], [_frac(c) for c in v]))
    out = []
    for (i, j), c in a.items():
        out = add_u(out, scale_u(upoly.mul(upoly.mul(xp[i], yp[j]), wp[d - i - j]), c))
    return out


# The flag search on Fraction structure constants: a characteristic polynomial
# and eigenspaces per map and quotient level, Fraction kernels and
# intersections, the quotient presentation built from Fraction brackets, the
# derived series and the ideal-chain re-check.

def coefficient_vector(f, keys) -> list[Fraction]:
    """The coefficient vector of the field f at keys, as Fractions."""
    row, s = _coefficient_row(f, keys)
    return [Fraction(v, s) for v in row]


def tensor_reference(structure):
    """(D, T): the Fraction constants as integers T = D c over D > 0, the lcm
    of their denominators."""
    den = math.lcm(*(c.denominator for plane in structure for row in plane for c in row))
    return den, [[[int(c * den) for c in row] for row in plane] for plane in structure]


def presentation(structure) -> LieAlgebraPresentation:
    """The closed presentation with the Fraction constants c[i][j][k]."""
    return LieAlgebraPresentation([None] * len(structure), tensor_reference(structure), True)


@dataclass
class FractionPresentation:
    """Fraction constants alone: the quotients of the reference flag search."""
    structure: list

    @property
    def dim(self) -> int:
        return len(self.structure)


def adjoint_reference(g, i: int):
    """Matrix of ad(b_i): v -> [b_i, v] in basis coordinates."""
    n = g.dim
    return [[g.structure[i][j][k] for j in range(n)] for k in range(n)]


def pick_candidate_reference(candidates):
    """The Fraction pick the flag search made: the least lead, then the least
    str of each entry over the lead; returned over its lead."""
    def key(vec):
        lead = next(i for i, v in enumerate(vec) if v != 0)
        norm = [v / vec[lead] for v in vec]
        return (lead, norm)

    normed = []
    for v in candidates:
        lead, norm = key(v)
        normed.append((lead, norm))
    normed.sort(key=lambda t: (t[0], [str(x) for x in t[1]]))
    return normed[0][1]


def bracket_reference(g, u, v):
    """[u, v] from the Fraction structure constants, term by term."""
    n = g.dim
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * g.structure[i][j][k]
    return out


def derived_depth_reference(g):
    """The derived series' length on Fraction rref bases, None when it
    stalls (not solvable)."""
    space, depth = identity(g.dim), 0
    while space:
        gens = [bracket_reference(g, u, v) for a, u in enumerate(space) for v in space[a + 1:]]
        nxt = span_reference(gens) if gens else []
        if len(nxt) == len(space):
            return None
        space, depth = nxt, depth + 1
    return depth


def verify_ideal_chain_reference(g, chain):
    """Each prefix row-reduced from scratch, each [e_i, c_d] tested by a
    Fraction span reduction."""
    n = g.dim
    for depth in range(1, len(chain) + 1):
        sub, pivots = rref_reference([list(v) for v in chain[:depth]])
        if len(pivots) != depth:
            raise NumericalAmbiguity("flag chain lost a dimension")
        for e in identity(n):
            if not in_rref_span(sub, pivots, bracket_reference(g, e, chain[depth - 1])):
                raise NumericalAmbiguity(f"chain member of dim {depth} is not an ideal")


def real_rational_eigenvalues(mat):
    """(rational eigenvalues, whether irrational real eigenvalues exist) of
    the Fraction matrix mat, from p_B of B = d A (see exactlin.charpoly)."""
    d, cp = xl.charpoly(mat)
    roots = upoly.rational_roots(cp)
    for r, mult in roots:
        for _ in range(mult):
            cp = upoly.quotient(cp, [-r.numerator, 1])
    left = len(cp) - 1
    irrational = left % 2 == 1 or (left > 0 and upoly.count_real_roots(cp) > 0)
    return [r / d for r, _ in roots], irrational


def common_eigendirections(ads, space, ambiguous_flag):
    """All joint eigendirections of the Fraction maps ads inside space;
    irrational real eigenvalues of a reached map append to ambiguous_flag."""
    eigenspaces = {}

    def search(i, sub):
        if i == len(ads):
            return list(sub)
        if i not in eigenspaces:
            mat, n = ads[i], len(ads[i])
            eigs, irrational = real_rational_eigenvalues(mat)
            if irrational:
                ambiguous_flag.append(True)
            eigenspaces[i] = [kernel_reference([[mat[r][c] - (lam if r == c else 0)
                                                 for c in range(n)] for r in range(n)])
                              for lam in eigs]
        candidates = []
        for ker in eigenspaces[i]:
            inter = intersect_reference(sub, ker)
            if inter:
                candidates.extend(search(i + 1, inter))
        return candidates

    return search(0, space) if space else []


def quotient_reference(g, v, lift):
    """Quotient presentation by the 1-dim ideal span(v), with updated lift rows."""
    n = g.dim
    lead = next(i for i, c in enumerate(v) if c != 0)
    comp_idx = [i for i in range(n) if i != lead]

    def project(w):
        f = w[lead] / v[lead]
        return [w[i] - f * v[i] for i in comp_idx]

    m = len(comp_idx)
    basis_vecs = [[Fraction(int(k == i)) for k in range(n)] for i in comp_idx]
    structure = [[project(bracket_reference(g, basis_vecs[a], basis_vecs[b])) for b in range(m)]
                 for a in range(m)]
    return FractionPresentation(structure), [lift[i] for i in comp_idx]


def supersolvable_flag_reference(g: LieAlgebraPresentation) -> FlagResult:
    _require_closed(g)
    if derived_depth_reference(g) is None:
        return FlagResult("not_solvable")
    n = g.dim
    lift = identity(n)
    chain = []
    current = g
    while len(chain) < n:
        dim = current.dim
        if dim == 1:
            chain.append(lift[0])
            break
        ads = [adjoint_reference(current, i) for i in range(dim)]
        ambiguous = []
        cands = common_eigendirections(ads, identity(dim), ambiguous)
        if not cands:
            if ambiguous:
                raise NumericalAmbiguity(
                    "adjoint maps have irrational real eigenvalues; "
                    "no exactly verifiable one-dimensional ideal found"
                )
            return FlagResult("no_real_flag")
        v = pick_candidate_reference(cands)
        lead = next(k for k, c in enumerate(v) if c)
        for ad in ads:
            w = [sum(a * b for a, b in zip(row, v) if b) for row in ad]
            if any(a * v[lead] != w[lead] * b for a, b in zip(w, v)):
                raise NumericalAmbiguity("candidate failed exact ideal verification")
        orig = [Fraction(0)] * n
        for c, row in zip(v, lift):
            if c:
                for d in range(n):
                    orig[d] += c * row[d]
        chain.append(orig)
        current, lift = quotient_reference(current, v, lift)
    full_chain = tuple(chain)
    verify_ideal_chain_reference(g, full_chain)
    return FlagResult("flag", full_chain)
