"""Lie algebras of vector fields: closure, series, flags, common zeros."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfblock.certify import zero_enclosure
from vfblock.errors import DependentBasisError, NotClosedError, NumericalAmbiguity
from vfblock.exactlin import (charpoly, identity, in_rref_span, kernel, rank, rref,
                              vector_in_span)
from vfblock.fields import plane_field
from vfblock.liealg import (_common_eigendirections, _verify_ideal_chain,
                            algebra_tracks, common_zero_set, solvability,
                            structure_constants, supersolvable_flag)
from vfblock.poly import Poly2, X, Y
from vfblock.regions import disk


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


def test_exact_linear_algebra_helpers():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(m) == 1
    assert kernel(m) == [[Fraction(-2), Fraction(1)]]
    # charpoly of [[0, -1], [1, 0]] is t^2 + 1
    j = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    assert charpoly(j) == [Fraction(1), Fraction(0), Fraction(1)]


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
    cp = charpoly(mat)
    assert len(cp) == n + 1 and cp[n] == 1
    for t in range(n + 1):
        value = sum(c * t ** j for j, c in enumerate(cp))
        assert value == _det([[(t if i == j else 0) - mat[i][j] for j in range(n)]
                              for i in range(n)])


def test_eigen_search_ignores_maps_it_never_reaches():
    # diag(1, 2) and [[1, 1], [1, 1]] share no eigendirection, so every branch
    # dies at the second map; the third has eigenvalues +-sqrt(2) but is never
    # reached and must not make the search ambiguous
    f = Fraction
    ads = [[[f(1), f(0)], [f(0), f(2)]],
           [[f(1), f(1)], [f(1), f(1)]],
           [[f(0), f(2)], [f(1), f(0)]]]
    ambiguous = []
    assert _common_eigendirections(ads, identity(2), ambiguous) == []
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
    from vfblock.exactlin import subspace_basis, vector_in_span
    n = g.dim
    for depth in range(1, len(flag.chain) + 1):
        sub = subspace_basis([list(v) for v in flag.chain[:depth]])
        assert len(sub) == depth
        for i in range(n):
            e = [Fraction(1) if d == i else Fraction(0) for d in range(n)]
            for u in sub:
                assert vector_in_span(sub, g.bracket_coords(e, u))


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
    for w in (stray, inside):
        assert in_rref_span(m, pivots, w) == vector_in_span(vectors, w)
    assert in_rref_span(m, pivots, inside)


def test_ideal_chain_check_rejects_non_ideals():
    g = structure_constants(_uppertri())    # x d/dx, y d/dx, y d/dy
    e = identity(3)
    _verify_ideal_chain(g, [e[1], e[0], e[2]])
    _verify_ideal_chain(g, supersolvable_flag(g).chain)
    with pytest.raises(NumericalAmbiguity, match="dim 1 is not an ideal"):
        _verify_ideal_chain(g, [e[0], e[1], e[2]])
    with pytest.raises(NumericalAmbiguity, match="lost a dimension"):
        _verify_ideal_chain(g, [e[1], e[1], e[2]])


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
    assert enc2.boxes and enc2.contains_point((0, 0))
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
    for (i, j), coords in g.bracket_table.items():
        rebuilt = None
        for k, c in enumerate(coords):
            term = g.basis[k].scale(c)
            rebuilt = term if rebuilt is None else rebuilt + term
        direct = lie_bracket(g.basis[i], g.basis[j])
        assert (rebuilt - direct).is_zero()
