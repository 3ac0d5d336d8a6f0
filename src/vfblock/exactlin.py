"""Exact linear algebra over Z: integer row reduction, kernels, subspaces,
charpoly.

Matrices are lists of integer rows.  Elimination is fraction-free
Gauss-Jordan (after Bareiss): each row operation pv*row - f*prow ends by
dividing by the new row's content.  Scaling rows keeps the row space, so row
r of the result is the rref row r times its pivot.  kernel and
intersect_subspaces return primitive integer rows: an intersection's rows are
its rref rows times their pivots, and a kernel vector is the Fraction one (1
at its free column, which is its last nonzero entry) times a positive
integer.  residual reduces a vector by such rows, so a span test needs no
Fraction either.  charpoly scales a rational matrix to ints and returns
integer coefficients with the scale.
"""

from __future__ import annotations

import math

from .errors import ContradictionError


def _eliminate(row, prow, c):
    """pv row - f prow, with column c cleared by the pivot row prow, divided
    by its content."""
    g = math.gcd(prow[c], row[c])
    pv, f = prow[c] // g, row[c] // g
    out = [pv * a - f * b for a, b in zip(row, prow)]
    g = math.gcd(*out)
    return [a // g for a in out] if g > 1 else out


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
            if i != r and m[i][c]:
                m[i] = _eliminate(m[i], prow, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


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


def residual(rows, pivots, vec):
    """vec reduced by the integer rows with their pivot columns, each row zero
    at the pivots of the rows before it: zero exactly when vec is in their
    span."""
    for row, c in zip(rows, pivots):
        if vec[c]:
            vec = _eliminate(vec, row, c)
    return vec
