"""Exact linear algebra over Q: rref, kernels, subspaces, charpoly.

Matrices are lists of rows of ints or Fractions.  Elimination is fraction-free
Gauss-Jordan (after Bareiss) on integer rows: rows are scaled by the lcm of
their denominators, and each row operation pv*row - f*prow ends by dividing by
the new row's content.  Scaling rows keeps the row space and the rref of a
matrix is unique, so dividing each pivot row by its pivot at the end gives
exactly the Fractions that elimination over Q would.  rref and subspace_basis
return Fraction rows.  kernel and intersect_subspaces take integer rows and
return primitive integer rows: an intersection's rows are its rref rows times
their pivots, and a kernel vector is the Fraction one (1 at its free column,
which is its last nonzero entry) times a positive integer.  charpoly scales
the matrix to ints as well and returns integer coefficients with the scale.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContradictionError


def _int_rows(rows):
    """Each row times the lcm of its denominators: integer rows with the same
    row space."""
    out = []
    for row in rows:
        dens = [v.denominator for v in row]
        d = math.lcm(*dens)
        out.append([v.numerator * (d // e) for v, e in zip(row, dens)])
    return out


def _rref_int(m):
    """Gauss-Jordan on the integer rows m, in place; returns the pivot columns.
    Pivot rows come first, in pivot order, and zero rows last; row r is rref
    row r times its pivot m[r][pivots[r]]."""
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                g = math.gcd(prow[c], f)
                pv, f = prow[c] // g, f // g
                row = [pv * a - f * b for a, b in zip(m[i], prow)]
                g = math.gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = _int_rows(rows)
    pivots = _rref_int(m)
    zero = Fraction(0)
    out = [[Fraction(a, row[c]) if a else zero for a in row] for row, c in zip(m, pivots)]
    return out + [[zero] * len(row) for row in m[len(pivots):]], pivots


def _primitive(vec, k):
    """vec divided by its content, with vec[k] made positive."""
    g = math.gcd(*vec) if vec[k] > 0 else -math.gcd(*vec)
    return [a // g for a in vec] if g != 1 else vec


def _null_vector(m, pivots, f):
    """The kernel vector of the integer rref rows m (pivot columns pivots) for
    the free column f, as a primitive integer vector positive at f."""
    lcm = math.lcm(*(row[c] for row, c in zip(m, pivots) if row[f]))
    v = [0] * len(m[0])
    v[f] = lcm
    for row, c in zip(m, pivots):
        if row[f]:
            v[c] = -row[f] * (lcm // row[c])
    return _primitive(v, f)


def kernel(rows):
    """Basis of the right kernel of the integer matrix: one primitive vector
    per free column."""
    if not rows:
        return []
    m = [list(row) for row in rows]
    pivots = _rref_int(m)
    return [_null_vector(m, pivots, f) for f in range(len(m[0])) if f not in pivots]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def charpoly(mat):
    """(d, p_B): d the lcm of A's denominators and p_B = det(tI - B) the
    monic characteristic polynomial of the integer matrix B = d A, as
    ascending ints.  That of A is p_A(t) = d^-n p_B(d t), i.e. coefficient j
    is c_j / d^(n-j), and its roots are those of p_B divided by d.
    Faddeev-LeVerrier: the recurrence M_1 = I, c_(n-k) = -tr(B M_k) / k,
    M_(k+1) = B M_k + c_(n-k) I gives the integer coefficients of p_B, so
    every trace divides exactly (else ContradictionError) and the run stays in
    ints."""
    n = len(mat)
    d = math.lcm(1, *(v.denominator for row in mat for v in row))
    # B's nonzero entries by row: row i of B M is the sum of b_ij M[j]
    b = [[(j, v.numerator * (d // v.denominator)) for j, v in enumerate(row) if v]
         for row in mat]
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        bm = []
        for row in b:
            acc = [0] * n
            for j, v in row:
                acc = [a + v * x for a, x in zip(acc, m[j])]
            bm.append(acc)
        c, rem = divmod(-sum(bm[i][i] for i in range(n)), k)
        if rem:
            raise ContradictionError(f"Faddeev-LeVerrier trace not divisible by {k}")
        coeffs[n - k] = c
        for i in range(n):
            bm[i][i] += c
        m = bm
    return d, coeffs


def subspace_basis(vectors):
    """A canonical (rref) basis of the span of the given vectors."""
    m, pivots = rref(vectors)
    return [row for row in m[: len(pivots)]]


def intersect_subspaces(a_basis, b_basis):
    """Basis of the intersection of two subspaces given by integer spanning
    sets: its rref rows times their pivots, primitive."""
    if not a_basis or not b_basis:
        return []
    na = len(a_basis)
    # a kernel vector (u, w) of [A^T | -B^T] pins the vector A^T u of the
    # intersection; read one integer kernel vector off each free column
    cols = list(zip(*a_basis))
    m = [list(ca) + [-v for v in cb] for ca, cb in zip(cols, zip(*b_basis))]
    pivots = _rref_int(m)
    out = []
    for f in (c for c in range(na + len(b_basis)) if c not in pivots):
        u = _null_vector(m, pivots, f)[:na]
        vec = [sum(uk * v for uk, v in zip(u, col) if uk) for col in cols]
        if any(vec):
            out.append(vec)
    pivots = _rref_int(out)
    return [_primitive(row, c) for row, c in zip(out, pivots)]


def in_rref_span(rows, pivots, vec) -> bool:
    """Is vec in the span of rows, given as rref rows with their pivot
    columns?  Coordinates must be vec's pivot entries, so subtracting them
    leaves zero exactly when it is."""
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            vec = [a - f * b if b else a for a, b in zip(vec, row)]
    return not any(vec)
