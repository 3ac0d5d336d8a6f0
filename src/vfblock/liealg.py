"""Finite-dimensional Lie algebras of vector fields.

Closure and structure constants are computed symbolically and exactly, and
held as one integer tensor T = D c, D > 0 the lcm of the denominators of the
constants c.  Everything reads T: brackets, the antisymmetry and Jacobi
checks, the derived series (on integer rows, as a span's dimension does not
depend on the scale), the flag search and its ideal-chain re-check.  The
Fraction constants c = T / D are a view for the JSON report.
Supersolvability is operationalized as a complete flag of ideals, found by an
exact nested common-eigenvector search.  A rational eigenvector of a rational
matrix forces a rational eigenvalue, so exact kernels decide every verifiable
case; Sturm counts detect irrational real eigenvalues, which surface as
NumericalAmbiguity only when no exact candidate exists, and only from maps the
search reaches.  The search runs over Z, on an integer multiple of each
quotient level's structure tensor (whose ad maps have the same eigenvectors),
and picks each ideal as a primitive integer vector; only the reported chain
is built from Fractions.  A basis element's spectrum is computed once, and
each quotient keeps it less the eigenvalue on the ideal divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import exactlin as xl
from . import upoly
from .certify import ZeroEnclosure, zero_enclosure_scalars
from .errors import (ContradictionError, DependentBasisError, NotClosedError,
                     NumericalAmbiguity)
from .fields import PlanarField
from .poly import Poly2, _frac_str
from .regions import Region
from .tracking import tracks_symbolic


def _coefficient_keys(fields) -> list:
    keys = set()
    for f in fields:
        keys.update(("P", k) for k in f.p._m)
        keys.update(("Q", k) for k in f.q._m)
    return sorted(keys)


def _numerators(comp) -> tuple[dict, int]:
    """(numerators, denominator) of a Poly2, or of a TrigPoly2 whose
    coefficients are all rational."""
    if isinstance(comp, Poly2):
        return comp._m, comp._d
    values = {k: v.as_fraction() for k, v in comp._m.items()}
    if None in values.values():
        raise NotClosedError("bracket left the rational coefficient span")
    d = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (d // v.denominator) for k, v in values.items()}, d


def _coefficient_row(f: PlanarField, keys) -> tuple[list[int], int]:
    """(s v, s): the coefficient vector v of f at keys as integers over s,
    the lcm of the two components' denominators."""
    (mp, dp), (mq, dq) = _numerators(f.p), _numerators(f.q)
    s = math.lcm(dp, dq)
    sp, sq = s // dp, s // dq
    return [mp.get(k, 0) * sp if c == "P" else mq.get(k, 0) * sq for c, k in keys], s


@dataclass
class LieAlgebraPresentation:
    basis: list[PlanarField]
    # (D, T): [b_i, b_j] = sum_k T[i][j][k] / D b_k, with D > 0 the lcm of the
    # constants' denominators; shared, so callers must not mutate it
    tensor: tuple[int, list]
    closed: bool
    witness: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def structure(self) -> list:
        """The constants c[i][j][k] = T[i][j][k] / D as Fractions, for the
        JSON report only."""
        den, t = self.tensor
        return [[[Fraction(x, den) for x in row] for row in plane] for plane in t]

    def _bracket_int(self, u, v):
        """D [u, v] for integer coordinate vectors u and v."""
        t = self.tensor[1]
        out = [0] * self.dim
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        c = a * b
                        out = [o + c * x for o, x in zip(out, t[i][j])]
        return out

    def antisymmetry_holds(self) -> bool:
        t = self.tensor[1]
        return all(x == -y for i, plane in enumerate(t) for j, row in enumerate(plane)
                   for x, y in zip(row, t[j][i]))

    def jacobi_holds(self) -> bool:
        n, br = self.dim, self._bracket_int
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        return not any(
            any(map(sum, zip(br(e[i], br(e[j], e[k])), br(e[j], br(e[k], e[i])),
                             br(e[k], br(e[i], e[j])))))
            for i in range(n) for j in range(n) for k in range(n))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "closed": self.closed,
            "witness": list(self.witness) if self.witness else None,
            "structure_constants": [
                [[_frac_str(c) for c in row] for row in plane]
                for plane in self.structure
            ],
        }


def structure_constants(basis: list[PlanarField]) -> LieAlgebraPresentation:
    """Exact structure constants; closed=False with a witness bracket when the
    span is not bracket-closed.  Raises DependentBasisError on dependent input."""
    from .fields import lie_bracket

    if not basis:
        raise ValueError("empty basis")
    n = len(basis)
    brackets = {}
    all_fields = list(basis)
    for i in range(n):
        for j in range(i + 1, n):
            b = lie_bracket(basis[i], basis[j])
            brackets[(i, j)] = b
            all_fields.append(b)
    keys = _coefficient_keys(all_fields)
    nk = len(keys)
    # Gauss-Jordan once, on the integer rows s_i [V_i | e_i]: they have the
    # row space and so the rref of [V | I], whose rows are R = E V with E in
    # the last n columns.  Times L, the lcm of the pivots, R stays integer.  A
    # target t / s is in the span iff L t = sum_r t[pivot_r] L R_r on the
    # first nk columns; its coordinates are then sum_r t[pivot_r] E_r / s.
    rows = []
    for i, f in enumerate(basis):
        row, s = _coefficient_row(f, keys)
        rows.append(row + [s if k == i else 0 for k in range(n)])
    pivots = xl._rref_int(rows)
    if pivots[-1] >= nk:
        raise DependentBasisError("basis fields are linearly dependent")
    lcm = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
    red = [[a * (lcm // row[c]) for a in row] for row, c in zip(rows, pivots)]
    closed = True
    witness = None
    numerators = {}     # (i, j): (integer coordinates, their denominator)
    for (i, j), b in brackets.items():
        target, s = _coefficient_row(b, keys)
        w = [0] * (nk + n)
        for row, p in zip(red, pivots):
            if target[p]:
                w = [a + target[p] * v for a, v in zip(w, row)]
        if any(lcm * t != a for t, a in zip(target, w)):
            closed = False
            if witness is None:
                witness = (i, j)
            continue
        numerators[i, j] = w[nk:], lcm * s
    # the reduced denominators of a bracket's coordinates a / m have the lcm
    # m / gcd(m, a, ...)
    den = math.lcm(*(m // math.gcd(m, *w) for w, m in numerators.values()))
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), (w, m) in numerators.items():
        t[i][j], t[j][i] = [a * den // m for a in w], [-a * den // m for a in w]
    return LieAlgebraPresentation(list(basis), (den, t), closed, witness)


def _require_closed(g: LieAlgebraPresentation):
    if not g.closed:
        raise NotClosedError(
            f"algebra is not bracket-closed (witness bracket {g.witness})",
            witness=g.witness,
        )


@dataclass(frozen=True)
class SolvabilityResult:
    status: str  # "solvable" | "not_solvable"
    depth: int | None = None


def _derived_subspace(g: LieAlgebraPresentation, space):
    """Row-reduced integer rows spanning [space, space]."""
    gens = [w for a, u in enumerate(space) for v in space[a + 1:]
            if any(w := g._bracket_int(u, v))]
    return gens[:len(xl._rref_int(gens))]


def solvability(g: LieAlgebraPresentation) -> SolvabilityResult:
    """Derived series on the integer structure tensor, exactly."""
    _require_closed(g)
    space = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]
    depth = 0
    while space:
        nxt = _derived_subspace(g, space)
        if len(nxt) == len(space):
            return SolvabilityResult("not_solvable")
        space = nxt
        depth += 1
        if not space:
            return SolvabilityResult("solvable", depth)
    return SolvabilityResult("solvable", depth)


@dataclass(frozen=True)
class FlagResult:
    status: str  # "flag" | "no_real_flag" | "not_solvable"
    chain: tuple = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "chain": [[_frac_str(c) for c in vec] for vec in self.chain],
        }


def _spectrum(mat):
    """({eigenvalue: multiplicity} over the rational eigenvalues, whether
    irrational real eigenvalues exist) of the integer matrix mat.  Its
    eigenvalues are s times those of the primitive matrix mat / s, s the
    content signed like the first nonzero entry, whose monic integer
    characteristic polynomial has integer rational roots.  What is left of it
    once they are divided out decides the second: it has a real root if its
    degree is odd, and otherwise exactly when its Sturm count is positive."""
    flat = [v for row in mat for v in row if v]
    s = math.gcd(*flat) if flat else 1
    s = s if not flat or flat[0] > 0 else -s
    _, cp = xl.charpoly([[v // s for v in row] for row in mat])
    roots = upoly.rational_roots(cp)
    for r, mult in roots:
        for _ in range(mult):
            cp = upoly.quotient(cp, [-r.numerator, 1])
    left = len(cp) - 1
    irrational = left % 2 == 1 or (left > 0 and upoly.count_real_roots(cp) > 0)
    return {r.numerator * s: mult for r, mult in roots}, irrational


def _flag_candidates(ads, spectra, ambiguous_flag):
    """All joint eigendirections of the integer adjoint maps, by nested exact
    eigenspace intersections.  A map's eigenspaces come from its spectrum in
    spectra (filled in when missing) once a branch of dimension two or more
    reaches it; a branch span(u) asks each later map only whether u is an
    eigenvector.  With no candidate left, only a reached map with irrational
    real eigenvalues makes the search ambiguous."""
    n = len(ads)
    eigenspaces = {}
    reached = set()

    def spectrum(i):
        if spectra[i] is None:
            spectra[i] = _spectrum(ads[i])
        return spectra[i]

    def search(i, sub):
        if len(sub) == 1:
            u = sub[0]
            lead = next(k for k, c in enumerate(u) if c)
            for j in range(i, n):
                reached.add(j)
                w = [sum(a * b for a, b in zip(row, u) if b) for row in ads[j]]
                if any(a * u[lead] != w[lead] * b for a, b in zip(w, u)):
                    return []
            return [u]
        if i == n:
            return list(sub)
        reached.add(i)
        if i not in eigenspaces:
            eigenspaces[i] = [xl.kernel([[v - lam if r == c else v for c, v in enumerate(row)]
                                         for r, row in enumerate(ads[i])])
                              for lam in spectrum(i)[0]]
        candidates = []
        for ker in eigenspaces[i]:
            inter = xl.intersect_subspaces(sub, ker) if i else ker
            if inter:
                candidates.extend(search(i + 1, inter))
        return candidates

    candidates = search(0, [[int(r == c) for c in range(n)] for r in range(n)])
    # search reaches itself through its closure: break that cycle, so the maps
    # and eigenspaces it holds are freed now, not at the next gc collection
    del search
    if not candidates and any(spectrum(i)[1] for i in sorted(reached)):
        ambiguous_flag.append(True)
    return candidates


def _ratio_str(a: int, b: int) -> str:
    """str(Fraction(a, b)) for b > 0."""
    g = math.gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


def _pick_candidate(candidates):
    """The integer candidate direction with the least lead, then the least
    str of each entry over the lead, as a primitive vector with a positive
    lead."""
    def primitive(u):
        lead = next(k for k, c in enumerate(u) if c)
        g = math.gcd(*u) if u[lead] > 0 else -math.gcd(*u)
        return lead, [c // g for c in u]

    def key(pair):
        lead, v = pair
        return lead, [_ratio_str(c, v[lead]) for c in v]

    return min(map(primitive, candidates), key=key)[1]


def _quotient(t, v, lead, spectra, lams):
    """Integer tensor of the quotient by span(v), v an integer ideal vector:
    on the complement of lead, T' = v[lead] T - T[.][.][lead] v, divided by
    its content c.  The map induced by ad_b has characteristic polynomial
    p_b(t) / (t - lam_b), scaled by v[lead] / c with the tensor, so each known
    spectrum loses lam_b and is rescaled."""
    comp = [i for i in range(len(t)) if i != lead]
    vl = v[lead]
    q = [[[vl * row[k] - row[lead] * v[k] for k in comp] for row in (plane[b] for b in comp)]
         for plane in (t[a] for a in comp)]
    c = math.gcd(*(x for plane in q for row in plane for x in row)) or 1
    if c > 1:
        q = [[[x // c for x in row] for row in plane] for plane in q]

    def carry(i):
        eigs, irrational = spectra[i]
        if not eigs.get(lams[i]):
            raise ContradictionError(f"ideal eigenvalue {lams[i]} is not in its map's spectrum")
        eigs = {**eigs, lams[i]: eigs[lams[i]] - 1}
        return {lam * vl // c: m for lam, m in eigs.items() if m}, irrational

    return q, [spectra[i] and carry(i) for i in comp]


def supersolvable_flag(g: LieAlgebraPresentation) -> FlagResult:
    """Search for a complete flag of ideals; verdicts are exact except that
    irrational real eigenvalues can make the search ambiguous."""
    _require_closed(g)
    if solvability(g).status == "not_solvable":
        return FlagResult("not_solvable")
    n = g.dim
    # work in coordinates: the current quotient's basis is e_k, k in keep
    keep = list(range(n))
    members: list[list[int]] = []  # primitive, with positive leads
    # the integer structure tensor; one spectrum per basis element, carried
    # down the quotients
    t = g.tensor[1]
    spectra = [None] * n
    while len(members) < n:
        dim = len(t)
        if dim == 1:
            members.append([int(d == keep[0]) for d in range(n)])
            break
        ads = [[[t[i][j][k] for j in range(dim)] for k in range(dim)] for i in range(dim)]
        ambiguous: list[bool] = []
        cands = _flag_candidates(ads, spectra, ambiguous)
        if not cands:
            if ambiguous:
                raise NumericalAmbiguity(
                    "adjoint maps have irrational real eigenvalues; "
                    "no exactly verifiable one-dimensional ideal found"
                )
            return FlagResult("no_real_flag")
        v = _pick_candidate(cands)
        # exact re-verification: [b_i, v] in span(v) for all i, i.e. each
        # w = ad_i v is lam_i = w[lead] / v[lead] times v
        lead = next(k for k, c in enumerate(v) if c)
        lams = []
        for ad in ads:
            w = [sum(a * b for a, b in zip(row, v) if b) for row in ad]
            if any(a * v[lead] != w[lead] * b for a, b in zip(w, v)):
                raise NumericalAmbiguity("candidate failed exact ideal verification")
            lams.append(w[lead] // v[lead])
        # lift to original coordinates
        orig = [0] * n
        for c, d in zip(v, keep):
            orig[d] = c
        members.append(orig)
        t, spectra = _quotient(t, v, lead, spectra, lams)
        del keep[lead]
    _verify_ideal_chain(g, members)
    chain = []
    for u in members:     # reported over Q, each member over its lead entry
        head = next(filter(None, u))
        chain.append([Fraction(c, head) for c in u])
    return FlagResult("flag", tuple(chain))


def _verify_ideal_chain(g: LieAlgebraPresentation, chain):
    """Ideal verification of every prefix of a chain of integer vectors, from
    the integer tensor and the chain alone.  Once P_{d-1} is verified,
    P_d = P_{d-1} + span(c_d) is an ideal iff [e_i, c_d] lies in P_d for every
    basis vector e_i, since [e_i, P_{d-1}] lies in P_{d-1}: so each basis
    vector is bracketed once with each member and reduced by the prefix's
    integer echelon rows, which grow by one reduced member per depth."""
    n = g.dim
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, pivots = [], []
    for depth, u in enumerate(chain, 1):
        w = xl.residual(rows, pivots, u)
        if not any(w):
            raise NumericalAmbiguity("flag chain lost a dimension")
        rows.append(w)
        pivots.append(next(k for k, a in enumerate(w) if a))
        for i in range(n):
            if any(xl.residual(rows, pivots, g._bracket_int(e[i], u))):
                raise NumericalAmbiguity(
                    f"chain member of dim {depth} is not an ideal"
                )


@dataclass(frozen=True)
class AlgebraTrackingResult:
    verdict: bool
    certificates: tuple

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "per_basis": [c.to_json() for c in self.certificates]}


def algebra_tracks(g: LieAlgebraPresentation, x_field: PlanarField) -> AlgebraTrackingResult:
    """Tracking of X by every basis field; linearity extends it to the algebra."""
    _require_closed(g)
    certs = tuple(tracks_symbolic(b, x_field) for b in g.basis)
    return AlgebraTrackingResult(all(c.verdict for c in certs), certs)


def common_zero_set(g: LieAlgebraPresentation, region: Region, resolution,
                    near: ZeroEnclosure | None = None) -> ZeroEnclosure:
    """Certified enclosure of the intersection of the basis fields' zero sets
    (only within one cell of `near`'s cells, when it is given)."""
    scalars = [s for b in g.basis for s in (b.p, b.q)]
    return zero_enclosure_scalars(scalars, region, resolution, near=near)
