"""Lie algebras of vector fields: closure, series, flags, common zeros."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock.certify import zero_enclosure
from vfblock.errors import (ContradictionError, DependentBasisError, NotClosedError,
                            NumericalAmbiguity, VfblockError)
from vfblock.exactlin import _rref_int, charpoly, intersect_subspaces, kernel, residual
from vfblock.fields import lie_bracket, plane_field
from vfblock.liealg import (FlagResult, SolvabilityResult, _coefficient_keys,
                            _flag_candidates, _pick_candidate, _quotient, _spectrum,
                            _verify_ideal_chain,
                            algebra_tracks, common_zero_set, solvability,
                            structure_constants, supersolvable_flag)
from vfblock.poly import Poly2, X, Y
from vfblock.regions import disk
from vfblock.verifier import verify_liealg

from box_reference import contains_point
from fraction_reference import (bracket_reference, coefficient_vector, count_real_roots,
                                derived_depth_reference, identity, in_rref_span,
                                intersect_reference, kernel_reference,
                                pick_candidate_reference, presentation, rational_roots,
                                rref, rref_reference, solve_in_span, span_reference,
                                subspace_basis, supersolvable_flag_reference,
                                tensor_reference, verify_ideal_chain_reference,
                                vector_in_span)


def _e2():
    return [plane_field(Poly2.const(1), Poly2.zero()),
            plane_field(Poly2.zero(), Poly2.const(1)),
            plane_field(-Y, X)]


def _uppertri():
    return [plane_field(X, Poly2.zero()), plane_field(Y, Poly2.zero()),
            plane_field(Poly2.zero(), Y)]


def _sl2_line():
    return [plane_field(Poly2.const(1), Poly2.zero()),
            plane_field(X, Poly2.zero()),
            plane_field(X ** 2, Poly2.zero())]


_BASIS_CHANGE = tuple(Fraction(c) for c in ("-2", "-1", "-1/2", "1/2", "1", "2"))


def _seeded_solvable_basis(n, rng):
    """x d/dx, y d/dy and y^k d/dx (k = 1..n) after a seeded rational
    unitriangular change of basis: a solvable algebra of dimension n + 2."""
    base = ([plane_field(X, Poly2.zero()), plane_field(Poly2.zero(), Y)]
            + [plane_field(Y ** k, Poly2.zero()) for k in range(1, n + 1)])
    out = []
    for i, f in enumerate(base):
        for g in base[i + 1:]:
            f = f + g.scale(rng.choice(_BASIS_CHANGE))
        out.append(f)
    return out


def test_exact_linear_algebra_helpers():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert len(rref(m)[1]) == 1
    assert kernel([[1, 2], [2, 4]]) == [[-2, 1]]
    # charpoly of [[0, -1], [1, 0]] is t^2 + 1
    j = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    assert charpoly(j) == (1, [1, 0, 1])


def _ints(rows):
    """Each row times the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        d = math.lcm(*(Fraction(v).denominator for v in row))
        out.append([int(v * d) for v in row])
    return out


def _by_lead(rows):
    """Integer rows divided by their first nonzero entry: rref rows."""
    return [[Fraction(v, next(c for c in row if c)) for v in row] for row in rows]


def _by_free(rows):
    """Integer kernel rows divided by their free column's entry, which is
    their last nonzero one."""
    return [[Fraction(v, next(c for c in reversed(row) if c)) for v in row] for row in rows]


def _primitive_ints(rows):
    return all(type(v) is int for row in rows for v in row) and all(
        math.gcd(*row) == 1 for row in rows)


def test_exact_helpers_return_fractions_on_int_input():
    f = Fraction
    m = rref([[2, 1], [4, 3]])[0]
    assert m == [[f(1), f(0)], [f(0), f(1)]] and _all_fractions(m)
    ker, inter = kernel([[2, 4]]), intersect_subspaces([[2, 0], [0, 4]], [[1, 1]])
    assert ker == [[-2, 1]] and inter == [[1, 1]]
    assert _by_free(ker) + _by_lead(inter) == [[f(-2), f(1)], [f(1), f(1)]]
    assert _primitive_ints(ker + inter)


_mixed = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 7, 12])))


@st.composite
def _matrix(draw, ncols):
    """Rows of int and Fraction entries, some zero, some combinations of
    earlier rows, so that rank deficiency is common."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("free", "free", "zero", "combo")))
        if kind == "zero":
            rows.append([draw(st.sampled_from((0, Fraction(0)))) for _ in range(ncols)])
        elif kind == "combo" and rows:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(_mixed), draw(_mixed)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(_mixed, min_size=ncols, max_size=ncols)))
    return rows


_matrix_pair = st.integers(1, 6).flatmap(lambda n: st.tuples(_matrix(n), _matrix(n)))


def _all_fractions(rows):
    return all(type(v) is Fraction for row in rows for v in row)


@given(_matrix_pair)
@example(([[0]], [[5]]))
@example(([[1, 2, 3]], [[2, 4, 6]]))
@example(([[1], [2], [0]], [[Fraction(1, 3)]]))
@settings(max_examples=200, deadline=None)
def test_integer_elimination_matches_fraction_reference(case):
    a, b = case
    m, pivots = rref(a)
    assert (m, pivots) == rref_reference(a)
    assert _all_fractions(m) and len(m) == len(a)
    sm, spivots = sympy.Matrix(a).rref()
    assert list(spivots) == pivots
    assert m == [[Fraction(int(sm[i, j].p), int(sm[i, j].q)) for j in range(sm.cols)]
                 for i in range(sm.rows)]
    ker = kernel(_ints(a))
    assert _by_free(ker) == kernel_reference(a) and _primitive_ints(ker)
    assert all(next(v for v in reversed(row) if v) > 0 for row in ker)
    span = subspace_basis(a)
    assert span == span_reference(a) and _all_fractions(span)
    inter = intersect_subspaces(_ints(a), _ints(b))
    assert _by_lead(inter) == intersect_reference(a, b) and _primitive_ints(inter)
    assert all(next(v for v in row if v) > 0 for row in inter)


def _structure_reference(basis):
    """The per-bracket span solve: (structure, closed, witness)."""
    n = len(basis)
    brackets = {(i, j): lie_bracket(basis[i], basis[j])
                for i in range(n) for j in range(i + 1, n)}
    keys = _coefficient_keys(list(basis) + list(brackets.values()))
    vecs = [coefficient_vector(f, keys) for f in basis]
    if len(rref_reference(vecs)[1]) < n:
        raise DependentBasisError("basis fields are linearly dependent")
    structure = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    closed, witness = True, None
    for (i, j), b in brackets.items():
        coords = solve_in_span(vecs, coefficient_vector(b, keys))
        if coords is None:
            closed = False
            witness = witness or (i, j)
            continue
        for k in range(n):
            structure[i][j][k] = coords[k]
            structure[j][i][k] = -coords[k]
    return structure, closed, witness


_monomials = (Poly2.const(1), X, Y, X * X, X * Y, Y * Y)


@st.composite
def _bases(draw):
    """Random quadratic fields (rarely closed), seeded solvable algebras
    (closed), either one possibly with a combination of its fields appended
    (dependent)."""
    if draw(st.booleans()):
        basis = _seeded_solvable_basis(draw(st.integers(1, 3)),
                                       random.Random(draw(st.integers(0, 1000))))
    else:
        def poly():
            return sum((draw(_mixed) * mono for mono in _monomials
                        if draw(st.integers(0, 2)) == 0), Poly2.zero())
        basis = [plane_field(poly(), poly()) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(basis) - 1))
        basis.append(basis[i].scale(draw(_mixed)) + basis[-1])
    return basis


@given(_bases())
@example([plane_field(Poly2.zero(), Poly2.zero())])
@settings(max_examples=80, deadline=None)
def test_structure_constants_match_per_bracket_solve(basis):
    try:
        want = _structure_reference(basis)
    except DependentBasisError:
        with pytest.raises(DependentBasisError):
            structure_constants(basis)
        return
    g = structure_constants(basis)
    # the tensor built from the solve's integers is the one the Fractions give
    assert g.tensor == tensor_reference(want[0])
    assert (g.structure, g.closed, g.witness) == want
    assert all(type(v) is Fraction for plane in g.structure for row in plane for v in row)


def _det(mat):
    """Determinant by exact Fraction elimination."""
    m = [list(row) for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


_entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7, 12]))


@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[Fraction(0)] * 5 for _ in range(5)])
@settings(max_examples=60, deadline=None)
def test_charpoly_is_det_t_minus_a(mat):
    n = len(mat)
    d, cb = charpoly(mat)
    assert d == math.lcm(1, *(v.denominator for row in mat for v in row))
    assert len(cb) == n + 1 and cb[n] == 1 and all(type(c) is int for c in cb)
    cp = _charpoly_reference(mat)
    for t in range(n + 1):
        value = sum(c * t ** j for j, c in enumerate(cp))
        assert value == _det([[(t if i == j else 0) - mat[i][j] for j in range(n)]
                              for i in range(n)])


def _charpoly_reference(mat):
    """det(tI - A) over Q from charpoly's (d, p_B): p_A(t) = d^-n p_B(d t)."""
    d, cb = charpoly(mat)
    return [Fraction(c, d ** (len(mat) - j)) for j, c in enumerate(cb)]


def _eigen_reference(mat):
    """Rational roots and a Sturm count of det(tI - A) in Fractions."""
    cp = _charpoly_reference(mat)
    rats = [r for r, _ in rational_roots(cp)]
    return rats, count_real_roots(cp) > len(rats)


def _eigenvalues(mat):
    """_spectrum of the Fraction matrix A through the integer matrix d A:
    (the rational eigenvalues of A, in order, whether irrational real
    eigenvalues exist), with the multiplicities checked against the
    reference's."""
    d = math.lcm(1, *(v.denominator for row in mat for v in row))
    eigs, irrational = _spectrum([[int(v * d) for v in row] for row in mat])
    assert {Fraction(lam, d): m for lam, m in eigs.items()} == dict(
        rational_roots(_charpoly_reference(mat)))
    return [Fraction(lam, d) for lam in sorted(eigs)], irrational


def _companion(*c):
    """Companion matrix of t^n + c[n-1] t^(n-1) + ... + c[0]."""
    n = len(c)
    return [[int(i == j + 1) for j in range(n - 1)] + [-c[i]] for i in range(n)]


@pytest.mark.parametrize("mat, want", [
    (_companion(1, 0), ([], False)),                       # t^2 + 1: no real root
    (_companion(-2, 0), ([], True)),                       # t^2 - 2: real irrational roots
    (_companion(-2, 0, 0), ([], True)),                    # t^3 - 2: odd degree
    (_companion(4, 0, -4, 0), ([], True)),                 # (t^2 - 2)^2: repeated
    ([[Fraction(3, 2), 0, 0], [0, Fraction(3, 2), 0], [0, 0, 0]],
     ([Fraction(0), Fraction(3, 2)], False)),              # d = 2, multiplicity 2
    (_companion(-1, 1, -1), ([Fraction(1)], False)),       # (t - 1)(t^2 + 1)
    (_companion(0, -2, 0), ([Fraction(0)], True)),         # t (t^2 - 2)
], ids=["t2+1", "t2-2", "t3-2", "(t2-2)^2", "diag(3/2,3/2,0)", "(t-1)(t2+1)", "t(t2-2)"])
def test_eigenvalue_cofactor_branches(mat, want):
    mat = [[Fraction(v) for v in row] for row in mat]
    assert _eigenvalues(mat) == want == _eigen_reference(mat)


# Both sides find rational root candidates by trial division up to
# sqrt|det(d A)|, so entries stay small enough for that to be quick.
_small_entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))


@st.composite
def _eigen_matrix(draw):
    """Dense rational matrices, and triangular ones (rational eigenvalues,
    often repeated) with a companion block [[0, a], [1, 0]] on top (roots
    +-sqrt(a), real, complex or rational)."""
    n = draw(st.integers(0, 7))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(_small_entries, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    diag = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)])
    mat = [[draw(diag) if i == j else draw(_small_entries) if j > i else Fraction(0)
            for j in range(n)] for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        mat[0][0], mat[1][0] = Fraction(0), Fraction(1)
        mat[0][1], mat[1][1] = draw(st.sampled_from([2, -1, 4, 3])), Fraction(0)
    return mat


@given(_eigen_matrix())
@settings(max_examples=80, deadline=None)
def test_eigenvalues_match_fraction_reference(mat):
    assert _eigenvalues(mat) == _eigen_reference(mat)


def test_eigen_search_ignores_maps_it_never_reaches():
    # diag(1, 2) and [[1, 1], [1, 1]] share no eigendirection, so every branch
    # dies at the second map; the third has eigenvalues +-sqrt(2) but is never
    # reached and must not make the search ambiguous
    ads = [[[1, 0], [0, 2]],
           [[1, 1], [1, 1]],
           [[0, 2], [1, 0]]]
    ambiguous = []
    assert _flag_candidates(ads, [None] * 3, ambiguous) == []
    assert ambiguous == []


def test_abelian_pair(euler):
    g = structure_constants([euler, plane_field(Y, Poly2.zero())])
    assert g.closed
    assert all(c == 0 for plane in g.structure for row in plane for c in row)


def test_e2_structure():
    g = structure_constants(_e2())
    assert g.closed
    assert g.antisymmetry_holds()
    assert g.jacobi_holds()
    # [d_x, r] = d_y and [d_y, r] = -d_x
    assert g.structure[0][2] == [Fraction(0), Fraction(1), Fraction(0)]
    assert g.structure[1][2] == [Fraction(-1), Fraction(0), Fraction(0)]


def test_not_closed_witness():
    g = structure_constants([plane_field(Poly2.const(1), Poly2.zero()),
                             plane_field(X ** 2, Poly2.zero())])
    assert not g.closed
    assert g.witness == (0, 1)
    with pytest.raises(NotClosedError):
        solvability(g)


def test_dependent_basis(euler):
    with pytest.raises(DependentBasisError):
        structure_constants([euler, euler.scale(2)])


def test_solvability_cases(euler):
    assert solvability(structure_constants(_e2())).depth == 2
    assert solvability(structure_constants(_sl2_line())).status == "not_solvable"
    abelian = structure_constants([plane_field(Poly2.const(1), Poly2.zero()),
                                   plane_field(Poly2.zero(), Poly2.const(1))])
    assert solvability(abelian).depth == 1


def test_supersolvable_flags():
    ut = structure_constants(_uppertri())
    flag = supersolvable_flag(ut)
    assert flag.status == "flag"
    assert len(flag.chain) == 3
    assert supersolvable_flag(structure_constants(_e2())).status == "no_real_flag"
    assert supersolvable_flag(structure_constants(_sl2_line())).status == "not_solvable"
    abelian = structure_constants([plane_field(Poly2.const(1), Poly2.zero()),
                                   plane_field(Poly2.zero(), Poly2.const(1))])
    assert supersolvable_flag(abelian).status == "flag"


def test_flag_members_are_ideals_reverified():
    g = structure_constants(_uppertri())
    flag = supersolvable_flag(g)
    n = g.dim
    for depth in range(1, len(flag.chain) + 1):
        sub = subspace_basis([list(v) for v in flag.chain[:depth]])
        assert len(sub) == depth
        for i in range(n):
            e = [Fraction(1) if d == i else Fraction(0) for d in range(n)]
            for u in sub:
                assert vector_in_span(sub, bracket_reference(g, e, u))


small_frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.lists(st.lists(small_frac, min_size=n, max_size=n), min_size=1, max_size=4),
           st.lists(small_frac, min_size=n, max_size=n),
           st.lists(st.sampled_from((0, 1, -2)), min_size=4, max_size=4))))
@settings(max_examples=150, deadline=None)
def test_rref_span_reduction_matches_span_solve(case):
    vectors, stray, weights = case
    m, pivots = rref(vectors)
    inside = [sum((w * v[d] for w, v in zip(weights, vectors)), Fraction(0))
              for d in range(len(stray))]
    rows = _ints(vectors)
    int_pivots = _rref_int(rows)
    for w in (stray, inside):
        assert in_rref_span(m, pivots, w) == vector_in_span(vectors, w)
        assert (not any(residual(rows, int_pivots, _ints([w])[0]))) == \
            vector_in_span(vectors, w)
    assert in_rref_span(m, pivots, inside)


def _verify_chain(g, chain):
    """`_verify_ideal_chain` on a chain of rational vectors, each taken as
    integers."""
    _verify_ideal_chain(g, _ints(chain))


def test_ideal_chain_check_rejects_non_ideals():
    g = structure_constants(_uppertri())    # x d/dx, y d/dx, y d/dy
    e = identity(3)
    _verify_chain(g, [e[1], e[0], e[2]])
    _verify_chain(g, supersolvable_flag(g).chain)
    with pytest.raises(NumericalAmbiguity, match="dim 1 is not an ideal"):
        _verify_chain(g, [e[0], e[1], e[2]])
    with pytest.raises(NumericalAmbiguity, match="lost a dimension"):
        _verify_chain(g, [e[1], e[1], e[2]])


def test_supersolvable_implies_solvable_on_corpus():
    for basis in (_uppertri(),
                  [plane_field(Poly2.const(1), Poly2.zero()),
                   plane_field(Poly2.zero(), Poly2.const(1))]):
        g = structure_constants(basis)
        if supersolvable_flag(g).status == "flag":
            assert solvability(g).status == "solvable"


def test_algebra_tracking(euler):
    ut = structure_constants(_uppertri())
    res = algebra_tracks(ut, euler)
    assert res.verdict
    assert all(c.verdict for c in res.certificates)
    pair = structure_constants([euler, plane_field(Y, Poly2.zero())])
    assert algebra_tracks(pair, euler).verdict
    e2 = structure_constants(_e2())
    res2 = algebra_tracks(e2, euler)
    assert not res2.verdict
    # the rotation tracks E, the translations do not
    assert [c.verdict for c in res2.certificates] == [False, False, True]


def test_common_zero_sets(euler, unit_disk):
    pair = structure_constants([euler, plane_field(Y, Poly2.zero())])
    enc = common_zero_set(pair, unit_disk, Fraction(1, 64))
    assert enc.boxes
    assert all(max(abs(float(b[0])), abs(float(b[2])),
                   abs(float(b[1])), abs(float(b[3]))) < 2 ** -5 for b in enc.boxes)
    ut = structure_constants(_uppertri())
    enc2 = common_zero_set(ut, unit_disk, Fraction(1, 64))
    assert enc2.boxes and contains_point(enc2, (0, 0))
    only_east = structure_constants([plane_field(Poly2.const(1), Poly2.zero())])
    assert common_zero_set(only_east, unit_disk, Fraction(1, 64)).is_empty


def test_common_zeros_contained_in_each_basis_enclosure(euler, unit_disk):
    ut = structure_constants(_uppertri())
    joint = common_zero_set(ut, unit_disk, Fraction(1, 32))
    for b_field in ut.basis:
        single = zero_enclosure(b_field, unit_disk, Fraction(1, 32))
        for box in joint.boxes:
            assert any(sb[0] <= box[0] and sb[1] <= box[1]
                       and sb[2] >= box[2] and sb[3] >= box[3]
                       for sb in single.boxes)


def test_structure_constants_roundtrip_brackets():
    from vfblock.fields import lie_bracket
    g = structure_constants(_e2())
    for i, j in ((i, j) for i in range(g.dim) for j in range(i + 1, g.dim)):
        coords = g.structure[i][j]
        rebuilt = None
        for k, c in enumerate(coords):
            term = g.basis[k].scale(c)
            rebuilt = term if rebuilt is None else rebuilt + term
        direct = lie_bracket(g.basis[i], g.basis[j])
        assert (rebuilt - direct).is_zero()


def test_liealg_reports_are_pinned(euler, unit_disk):
    """Structure constants and LIEALG reports of 15 seeded solvable algebras
    (3 seeds, dimensions 3-7) against the Euler field on the unit disk."""
    out = []
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for n in range(1, 6):
            g = structure_constants(_seeded_solvable_basis(n, rng))
            report = verify_liealg(g, euler, unit_disk, k=1,
                                   resolution=Fraction(1, 64), known_zeros=[(0, 0)])
            out.append({"structure": g.to_json(), "report": report.to_json()})
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "f262853ace424db469c38507345629830e2fdd6f1b2714a97711693a8733fd8f"


def test_liealg_never_builds_the_fraction_view(euler, unit_disk):
    # the integer tensor is the one representation the checks read; the
    # Fraction constants are built only for the JSON report
    rng = random.Random(0)
    for n, status in ((1, "Pass"), (3, "HypothesisFailed")):
        g = structure_constants(_seeded_solvable_basis(n, rng))
        report = verify_liealg(g, euler, unit_disk, k=1, resolution=Fraction(1, 64),
                               known_zeros=[(0, 0)])
        assert report.overall["status"] == status
        assert report.hypothesis_checks[2].data["flag"]["status"] == "flag"
        assert "structure" not in vars(g)
    assert not any(hasattr(g, name) for name in ("bracket_table", "adjoint", "bracket_coords"))
    den, t = g.tensor
    assert g.to_json()["structure_constants"] == [
        [[str(Fraction(x, den)) for x in row] for row in plane] for plane in t]


def test_ideal_chain_checks_each_new_member():
    # d/dx, d/dy, x d/dx + y d/dy: span(d/dx) is an ideal, but adding the
    # dilation D is not, since [d/dy, D] = d/dy; d/dx, d/dy, D is a flag
    g = structure_constants([plane_field(Poly2.const(1), Poly2.zero()),
                             plane_field(Poly2.zero(), Poly2.const(1)),
                             plane_field(X, Y)])
    dx, dy, dil = ([Fraction(int(i == k)) for i in range(3)] for k in range(3))
    _verify_chain(g, (dx, dy, dil))
    _verify_chain(g, (dx,))
    with pytest.raises(NumericalAmbiguity, match="chain member of dim 2 is not an ideal"):
        _verify_chain(g, (dx, dil, dy))
    with pytest.raises(NumericalAmbiguity, match="chain member of dim 1 is not an ideal"):
        _verify_chain(g, (dil, dx, dy))


def test_flag_candidate_is_reverified(monkeypatch):
    # x d/dx, y d/dx, y d/dy: span(y d/dx) is an ideal, span(x d/dx) is not,
    # since [y d/dx, x d/dx] = y d/dx; the search itself picks x d/dx + y d/dy
    import vfblock.liealg as liealg
    g = structure_constants(_uppertri())
    pick = liealg._pick_candidate

    def first_pick(v):
        return lambda cands: v if len(cands[0]) == 3 else pick(cands)

    assert supersolvable_flag(g).chain[0] == [1, 0, 1]
    monkeypatch.setattr(liealg, "_pick_candidate", first_pick([0, 1, 0]))
    assert supersolvable_flag(g).chain[0] == [0, 1, 0]
    monkeypatch.setattr(liealg, "_pick_candidate", first_pick([1, 0, 0]))
    with pytest.raises(NumericalAmbiguity, match="exact ideal verification"):
        supersolvable_flag(g)


def _primitive_lead_positive(v):
    lead = next(c for c in v if c)
    return lead > 0 and math.gcd(*v) == 1


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.tuples(st.lists(st.integers(-12, 12), min_size=n, max_size=n).filter(any),
                     st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=3)),
           min_size=1, max_size=5)))
@example([([-2, 1], [1]), ([3, 1], [1])])      # 1, -1/2 against 1, 1/3
@example([([1, 9], [1]), ([1, 10], [-3])])      # "10" sorts before "9"
@example([([0, 0, 2], [1, -1]), ([0, 4, 4], [-1, 2])])
@settings(max_examples=200, deadline=None)
def test_integer_pick_matches_fraction_pick(directions):
    # each direction enters as several nonzero multiples, negative leads and
    # non-primitive vectors included; the pick must be the direction the
    # Fraction pick chose, primitive, with a positive lead
    cands = [[m * c for c in d] for d, multiples in directions for m in multiples]
    got = _pick_candidate(cands)
    want = pick_candidate_reference([[Fraction(c) for c in u] for u in cands])
    assert _primitive_lead_positive(got)
    assert got == _ints([want])[0]


# The integer flag search against the Fraction search it replaced -----------

def _sqrt2_line():
    """d/dx, d/dy and 2y d/dx + x d/dy, whose adjoint has eigenvalues
    0 and +-sqrt(2): no rational common eigenvector, and a reached map with
    irrational real eigenvalues."""
    return [plane_field(Poly2.const(1), Poly2.zero()),
            plane_field(Poly2.zero(), Poly2.const(1)),
            plane_field(2 * Y, X)]


def _abelian():
    return [plane_field(Poly2.const(1), Poly2.zero()),
            plane_field(Poly2.zero(), Poly2.const(1)),
            plane_field(Y, Poly2.zero())]


def _split_rotation(s_at):
    """span(r, s) acting on W1 = Q(i) (r by i, s by 0) and W2 = Q(sqrt2, i)
    (r by i, s by sqrt2), with basis r, x1, x2 of Q(i) and y1..y4 = 1, sqrt2,
    i, i sqrt2 of W2, and s put at position s_at.  No rational vector is a
    common eigenvector.  ad_r's only rational eigenspace is span(r, s); ad_x1 cuts
    it to span(s), and ad_y1 s = -y2 ends that branch.  ad_s has eigenvalues
    +-sqrt(2) and is reached exactly when it comes before y1."""
    names = ["r", "x1", "x2", "y1", "y2", "y3", "y4"]
    names.insert(s_at, "s")
    acts = {("r", "x1"): ("x2", 1), ("r", "x2"): ("x1", -1),
            ("r", "y1"): ("y3", 1), ("r", "y2"): ("y4", 1),
            ("r", "y3"): ("y1", -1), ("r", "y4"): ("y2", -1),
            ("s", "y1"): ("y2", 1), ("s", "y2"): ("y1", 2),
            ("s", "y3"): ("y4", 1), ("s", "y4"): ("y3", 2)}
    at = {name: i for i, name in enumerate(names)}
    c = [[[Fraction(0)] * 8 for _ in range(8)] for _ in range(8)]
    for (a, b), (k, v) in acts.items():
        c[at[a]][at[b]][at[k]] = Fraction(v)
        c[at[b]][at[a]][at[k]] = Fraction(-v)
    return presentation(c)


def _matrix_algebra(mats):
    """Presentation of the span of the independent, commutator-closed square
    matrices mats, with [A, B] = AB - BA."""
    k = len(mats[0])
    flat = [[v for row in m for v in row] for m in mats]
    structure = [[solve_in_span(flat, [sum(a[i][h] * b[h][j] - b[i][h] * a[h][j]
                                           for h in range(k))
                                       for i in range(k) for j in range(k)])
                  for b in mats] for a in mats]
    return presentation(structure)


@st.composite
def _triangular_algebra(draw):
    """The strictly upper triangular k x k matrices plus a random span of
    diagonal ones, a/q with one denominator q up to 12 (a subalgebra, as it
    holds [b, b]), after a random unitriangular change of basis with small
    integer scales, in random order.  One q keeps the entries small: trial
    division for rational roots costs sqrt(|c_0|) on either side."""
    k = draw(st.integers(2, 3))
    unit = [[[Fraction(int((r, c) == (i, j))) for c in range(k)] for r in range(k)]
            for i in range(k) for j in range(i + 1, k)]
    entry = st.builds(Fraction, st.integers(-6, 6), st.just(draw(st.integers(1, 12))))
    diagonal = [[[draw(entry) if r == c else Fraction(0) for c in range(k)] for r in range(k)]
                for _ in range(draw(st.integers(0, k)))]
    basis = []
    for m in unit + diagonal:
        flat = [[v for row in b for v in row] for b in basis + [m]]
        if len(rref_reference(flat)[1]) > len(basis):
            basis.append(m)
    mixed = []
    for i, m in enumerate(basis):
        scale = draw(st.sampled_from((1, -1, 2, 3)))
        out = [[v * scale for v in row] for row in m]
        for later in basis[i + 1:]:
            c = draw(st.sampled_from((0, 0, 1, -1, 2)))
            out = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(out, later)]
        mixed.append(out)
    return _matrix_algebra(draw(st.permutations(mixed)))


@st.composite
def _shuffled_benchmark_algebra(draw):
    basis = _seeded_solvable_basis(draw(st.integers(1, 5)),
                                   random.Random(draw(st.integers(0, 10 ** 6))))
    return structure_constants(draw(st.permutations(basis)))


def _assert_same_flag(g):
    try:
        want = supersolvable_flag_reference(g)
    except VfblockError as e:
        with pytest.raises(VfblockError) as got:
            supersolvable_flag(g)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    got = supersolvable_flag(g)
    assert got == want
    assert all(type(c) is Fraction for vec in got.chain for c in vec)
    return got


@given(st.one_of(_shuffled_benchmark_algebra(), _triangular_algebra()))
@example(structure_constants(_e2()))
@example(structure_constants(_sqrt2_line()))
@example(structure_constants(_sl2_line()))
@example(structure_constants(_abelian()))
@example(_split_rotation(7))
@example(_split_rotation(3))
@settings(max_examples=60, deadline=None)
def test_flag_search_matches_fraction_reference(g):
    _assert_same_flag(g)


def _chain_outcome(check, g, chain):
    """None when check accepts the chain, else its NumericalAmbiguity message."""
    try:
        check(g, chain)
    except NumericalAmbiguity as e:
        return str(e)
    return None


def _spans_ideal(g, v):
    return all(vector_in_span([v], bracket_reference(g, e, v)) for e in identity(g.dim))


@given(st.one_of(_shuffled_benchmark_algebra(), _triangular_algebra()), st.data())
@example(structure_constants(_uppertri()), None)
@settings(max_examples=60, deadline=None)
def test_integer_tensor_matches_fraction_structure(g, data):
    den, t = g.tensor
    assert den > 0 and all(type(x) is int for plane in t for row in plane for x in row)
    assert [[[Fraction(x, den) for x in row] for row in plane] for plane in t] == g.structure
    depth = derived_depth_reference(g)
    assert solvability(g) == (SolvabilityResult("not_solvable") if depth is None
                              else SolvabilityResult("solvable", depth))
    flag = supersolvable_flag(g)
    assert flag.status == "flag"
    chain, n = list(flag.chain), g.dim
    assert _chain_outcome(_verify_chain, g, chain) is None
    if data is None:
        return
    mutants = []
    if n >= 2:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mutants.append(chain[:])
        mutants[0][i], mutants[0][j] = chain[j], chain[i]
    k = data.draw(st.integers(0, n - 1))
    v = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    non_ideal = not _spans_ideal(g, v)
    if non_ideal:
        mutants.append(chain[:k] + [v] + chain[k + 1:])
    for mutant in mutants:
        got = _chain_outcome(_verify_chain, g, mutant)
        assert got == _chain_outcome(verify_ideal_chain_reference, g, mutant)
    if non_ideal and k == 0:
        assert got == "chain member of dim 1 is not an ideal"


def test_one_vector_branches_decide_ambiguity():
    # s last: the span(s) branch dies at y1, and no reached map has
    # irrational real eigenvalues
    assert _assert_same_flag(_split_rotation(7)) == FlagResult("no_real_flag")
    # s before y1: the span(s) branch reaches ad_s, whose spectrum is only
    # computed once no candidate is left
    with pytest.raises(NumericalAmbiguity, match="irrational real eigenvalues"):
        supersolvable_flag(_split_rotation(3))
    _assert_same_flag(_split_rotation(3))
    with pytest.raises(NumericalAmbiguity, match="irrational real eigenvalues"):
        supersolvable_flag(structure_constants(_sqrt2_line()))
    assert supersolvable_flag(structure_constants(_abelian())).status == "flag"


def test_spectra_pass_small_integers_to_rational_roots(monkeypatch):
    import vfblock.upoly as upoly
    seen = []
    rational_roots_of = upoly.rational_roots
    monkeypatch.setattr(upoly, "rational_roots",
                        lambda p: seen.append(list(p)) or rational_roots_of(p))
    m = [[1, 2, 0], [0, 0, 2], [0, 1, 0]]     # eigenvalues 1 and +-sqrt(2)
    eigs, irrational = _spectrum(m)
    assert (eigs, irrational) == ({1: 1}, True)
    primitive = seen[:]
    for k in (2, 6, 64, -3):
        seen.clear()
        assert _spectrum([[k * v for v in row] for row in m]) == ({k: 1}, True)
        assert seen == primitive
    # the constant term trial division sees (the lowest nonzero coefficient)
    # over the flag searches of the pinned reports' 15 algebras stays at most
    # that of the Fraction search, which took p_B of d A at every level
    seen.clear()
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for n in range(1, 6):
            supersolvable_flag(structure_constants(_seeded_solvable_basis(n, rng)))
    assert max(abs(next(c for c in p if c)) for p in seen) <= 3_932_160


def test_quotient_carries_spectra_less_the_ideal_eigenvalue():
    # x d/dx, y d/dx, y d/dy as integers; span(y d/dx) is an ideal on which
    # ad_x acts by -1 and ad_(y d/dy) by 1.  The quotient is abelian, so its
    # content is 0 and its spectra are {0: 2}.
    g = structure_constants(_uppertri())
    t = [[[int(c) for c in row] for row in plane] for plane in g.structure]
    spectra = [_spectrum([[t[i][j][k] for j in range(3)] for k in range(3)]) for i in range(3)]
    assert spectra[0] == ({-1: 1, 0: 2}, False) and spectra[2] == ({0: 2, 1: 1}, False)
    q, carried = _quotient(t, [0, 1, 0], 1, spectra, [-1, 0, 1])
    assert q == [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert carried == [({0: 2}, False), ({0: 2}, False)]
    assert _quotient(t, [0, 1, 0], 1, [None] * 3, [-1, 0, 1])[1] == [None, None]
    with pytest.raises(ContradictionError, match="ideal eigenvalue 1 is not in"):
        _quotient(t, [0, 1, 0], 1, spectra, [1, 0, 1])
