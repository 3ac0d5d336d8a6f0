"""Finite-dimensional Lie algebras of vector fields.

Closure and structure constants are computed symbolically and exactly;
solvability runs the derived series on the structure tensor; supersolvability
is operationalized as a complete flag of ideals, found by an exact nested
common-eigenvector search.  A rational eigenvector of a rational matrix forces
a rational eigenvalue, so exact kernels decide every verifiable case; Sturm
counts detect irrational real eigenvalues, which surface as NumericalAmbiguity
only when no exact candidate exists.  Per quotient level, each adjoint's
eigenspaces are computed once, when the search first reaches that map, and
only maps the search reaches can make it ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import exactlin as xl
from . import upoly
from .certify import ZeroEnclosure, zero_enclosure_scalars
from .errors import DependentBasisError, NotClosedError, NumericalAmbiguity
from .fields import PlanarField
from .poly import _frac_str
from .regions import Region
from .tracking import tracks_symbolic


def _coefficient_keys(fields) -> list:
    keys = set()
    for f in fields:
        if hasattr(f.p, "monomials"):
            keys.update(("P", k) for k in f.p.monomials())
            keys.update(("Q", k) for k in f.q.monomials())
        else:
            keys.update(("P", k) for k in f.p.terms())
            keys.update(("Q", k) for k in f.q.terms())
    return sorted(keys)


def _coefficient_vector(f: PlanarField, keys) -> list[Fraction]:
    if hasattr(f.p, "monomials"):
        mp, mq = f.p.monomials(), f.q.monomials()
        getter = lambda comp, k: comp.get(k, Fraction(0))
    else:
        mp, mq = f.p.terms(), f.q.terms()

        def getter(comp, k):
            v = comp.get(k)
            if v is None:
                return Fraction(0)
            fr = v.as_fraction()
            if fr is None:
                raise NotClosedError("bracket left the rational coefficient span")
            return fr
    return [getter(mp if c == "P" else mq, k) for c, k in keys]


@dataclass
class LieAlgebraPresentation:
    basis: list[PlanarField]
    structure: list  # c[i][j][k] Fractions with [b_i, b_j] = sum_k c[i][j][k] b_k
    closed: bool
    witness: tuple | None = None
    bracket_table: dict = dc_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def adjoint(self, i: int):
        """Matrix of ad(b_i): v -> [b_i, v] in basis coordinates."""
        n = self.dim
        return [[self.structure[i][j][k] for j in range(n)] for k in range(n)]

    def bracket_coords(self, u, v):
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if u[i] == 0:
                continue
            for j in range(n):
                if v[j] == 0:
                    continue
                c = u[i] * v[j]
                row = self.structure[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] += c * row[k]
        return out

    def antisymmetry_holds(self) -> bool:
        n = self.dim
        return all(
            self.structure[i][j][k] == -self.structure[j][i][k]
            for i in range(n) for j in range(n) for k in range(n)
        )

    def jacobi_holds(self) -> bool:
        n = self.dim
        basis_vecs = xl.identity(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    t1 = self.bracket_coords(basis_vecs[i],
                                             self.bracket_coords(basis_vecs[j], basis_vecs[k]))
                    t2 = self.bracket_coords(basis_vecs[j],
                                             self.bracket_coords(basis_vecs[k], basis_vecs[i]))
                    t3 = self.bracket_coords(basis_vecs[k],
                                             self.bracket_coords(basis_vecs[i], basis_vecs[j]))
                    if any(a + b + c != 0 for a, b, c in zip(t1, t2, t3)):
                        return False
        return True

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
    # rref of [V | I] once: its rows are R = E V with E in the last n columns,
    # and a target t in the row span of R has coordinates sum_r t[pivot_r] E_r
    red, pivots = xl.rref([_coefficient_vector(f, keys) + [int(k == i) for k in range(n)]
                           for i, f in enumerate(basis)])
    if pivots[-1] >= nk:
        raise DependentBasisError("basis fields are linearly dependent")
    span = [row[:nk] for row in red]
    structure = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    closed = True
    witness = None
    table = {}
    for (i, j), b in brackets.items():
        target = _coefficient_vector(b, keys)
        if not xl.in_rref_span(span, pivots, target):
            closed = False
            if witness is None:
                witness = (i, j)
            continue
        coords = [sum((target[p] * row[nk + k] for row, p in zip(red, pivots) if target[p]),
                      Fraction(0)) for k in range(n)]
        table[(i, j)] = coords
        for k in range(n):
            structure[i][j][k] = coords[k]
            structure[j][i][k] = -coords[k]
    return LieAlgebraPresentation(list(basis), structure, closed, witness, table)


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

    def to_json(self) -> dict:
        return {"status": self.status, "depth": self.depth}


def _derived_subspace(g: LieAlgebraPresentation, space):
    gens = []
    for a in range(len(space)):
        for b in range(a + 1, len(space)):
            w = g.bracket_coords(space[a], space[b])
            if any(v != 0 for v in w):
                gens.append(w)
    return xl.subspace_basis(gens) if gens else []


def solvability(g: LieAlgebraPresentation) -> SolvabilityResult:
    """Derived series on the structure constants, exactly."""
    _require_closed(g)
    space = xl.identity(g.dim)
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


def _real_rational_eigenvalues(mat):
    """(rational eigenvalues, whether irrational real eigenvalues exist).
    The eigenvalues of A are the roots of the monic integer p_B of B = d A,
    which are integers, divided by d.  What is left of p_B once its rational
    roots are divided out decides the second: it has a real root if its degree
    is odd, and otherwise exactly when its Sturm count is positive."""
    d, cp = xl.charpoly(mat)
    roots = upoly.rational_roots(cp)
    for r, mult in roots:
        for _ in range(mult):
            cp = upoly.quotient(cp, [-r.numerator, 1])
    left = len(cp) - 1
    irrational = left % 2 == 1 or (left > 0 and upoly.count_real_roots(cp) > 0)
    return [r / d for r, _ in roots], irrational


def _common_eigendirections(ads, space, ambiguous_flag):
    """All joint eigendirections of the adjoint maps inside the subspace,
    found by nested exact eigenspace intersections.  Each map's kernels of
    ad - lambda, one per rational eigenvalue, are computed the first time the
    search reaches it; later branches only intersect.  Only reached maps can
    flag irrational eigenvalues: a map behind dead branches decides nothing."""
    eigenspaces = {}

    def search(i, sub):
        if i == len(ads):
            return list(sub)
        if i not in eigenspaces:
            mat, n = ads[i], len(ads[i])
            eigs, irrational = _real_rational_eigenvalues(mat)
            if irrational:
                ambiguous_flag.append(True)
            eigenspaces[i] = [xl.kernel([[mat[r][c] - (lam if r == c else 0)
                                          for c in range(n)] for r in range(n)])
                              for lam in eigs]
        candidates = []
        for ker in eigenspaces[i]:
            inter = xl.intersect_subspaces(sub, ker)
            if inter:
                candidates.extend(search(i + 1, inter))
        return candidates

    return search(0, space) if space else []


def _pick_candidate(candidates):
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


def supersolvable_flag(g: LieAlgebraPresentation) -> FlagResult:
    """Search for a complete flag of ideals; verdicts are exact except that
    irrational real eigenvalues can make the search ambiguous."""
    _require_closed(g)
    if solvability(g).status == "not_solvable":
        return FlagResult("not_solvable")
    n = g.dim
    # work in coordinates; lift chain vectors back to the original basis
    lift = xl.identity(n)  # rows: current-quotient basis in original coords
    chain: list[list[Fraction]] = []
    current = g
    while len(chain) < n:
        dim = current.dim
        if dim == 1:
            vec = lift[0]
            chain.append(vec)
            break
        ads = [current.adjoint(i) for i in range(dim)]
        ambiguous: list[bool] = []
        cands = _common_eigendirections(ads, xl.identity(dim), ambiguous)
        if not cands:
            if ambiguous:
                raise NumericalAmbiguity(
                    "adjoint maps have irrational real eigenvalues; "
                    "no exactly verifiable one-dimensional ideal found"
                )
            return FlagResult("no_real_flag")
        v = _pick_candidate(cands)
        # exact re-verification: [b_i, v] in span(v) for all i, i.e. each
        # w = ad_i v is w[lead] / v[lead] times v
        lead = next(k for k, c in enumerate(v) if c)
        for ad in ads:
            w = [sum(a * b for a, b in zip(row, v) if b) for row in ad]
            if any(a * v[lead] != w[lead] * b for a, b in zip(w, v)):
                raise NumericalAmbiguity("candidate failed exact ideal verification")
        # lift to original coordinates
        orig = [Fraction(0)] * n
        for c, row in zip(v, lift):
            if c:
                for d in range(n):
                    orig[d] += c * row[d]
        chain.append(orig)
        current, lift = _quotient(current, v, lift)
    full_chain = tuple(chain)
    _verify_ideal_chain(g, full_chain)
    return FlagResult("flag", full_chain)


def _quotient(g: LieAlgebraPresentation, v, lift):
    """Quotient presentation by the 1-dim ideal span(v), with updated lift rows."""
    n = g.dim
    lead = next(i for i, c in enumerate(v) if c != 0)
    comp_idx = [i for i in range(n) if i != lead]

    def project(w):
        # reduce w modulo v, then drop the lead coordinate
        f = w[lead] / v[lead]
        return [w[i] - f * v[i] for i in comp_idx]

    m = len(comp_idx)
    basis_vecs = []
    for i in comp_idx:
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        basis_vecs.append(e)
    structure = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            w = g.bracket_coords(basis_vecs[a], basis_vecs[b])
            pw = project(w)
            for k in range(m):
                structure[a][b][k] = pw[k]
    new_lift = [lift[i] for i in comp_idx]
    q = LieAlgebraPresentation([None] * m, structure, True)
    return q, new_lift


def _verify_ideal_chain(g: LieAlgebraPresentation, chain):
    """Ideal verification of every chain prefix, recomputed from the chain
    alone.  Once P_{d-1} is verified, P_d = P_{d-1} + span(c_d) is an ideal
    iff [e_i, c_d] lies in P_d for every basis vector e_i, since [e_i, P_{d-1}]
    lies in P_{d-1}: so each basis vector is bracketed once with each member
    and reduced against the row-reduced prefix."""
    n = g.dim
    for depth in range(1, len(chain) + 1):
        sub, pivots = xl.rref([list(v) for v in chain[:depth]])
        if len(pivots) != depth:
            raise NumericalAmbiguity("flag chain lost a dimension")
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            if not xl.in_rref_span(sub, pivots, g.bracket_coords(e, chain[depth - 1])):
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


def common_zero_set(g: LieAlgebraPresentation, region: Region,
                    resolution) -> ZeroEnclosure:
    """Certified enclosure of the intersection of the basis fields' zero sets."""
    scalars = []
    for b in g.basis:
        scalars.append(b.p)
        scalars.append(b.q)
    return zero_enclosure_scalars(scalars, region, resolution)
