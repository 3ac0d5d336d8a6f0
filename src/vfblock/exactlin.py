"""Exact linear algebra over Q: rref, kernels, span solves, charpoly.

Matrices are lists of rows of Fractions.  Sizes here are tiny (algebra
dimensions and coefficient supports), so plain Gaussian elimination is plenty;
charpoly, the flag search's hot path, rescales to integers and runs on ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContradictionError


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve_in_span(basis, target):
    """Coordinates of target in the row span of basis, or None.

    basis: list of vectors; target: vector of the same length."""
    if not basis:
        return None if any(t != 0 for t in target) else []
    n = len(basis)
    dim = len(target)
    # augmented system: basis^T * c = target
    aug = [[basis[k][d] for k in range(n)] + [target[d]] for d in range(dim)]
    m, pivots = rref(aug)
    if n in pivots:
        return None
    coords = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        coords[c] = row[-1]
    return coords


def kernel(rows):
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = -row[fcol]
        out.append(v)
    return out


def mat_vec(mat, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def charpoly(mat):
    """Monic characteristic polynomial det(tI - A), ascending Fraction
    coefficients, by Faddeev-LeVerrier on B = d A, d the lcm of A's
    denominators.  The recurrence M_1 = I, c_(n-k) = -tr(B M_k) / k,
    M_(k+1) = B M_k + c_(n-k) I gives the integer coefficients of p_B, so
    every trace divides exactly (else ContradictionError) and the run stays in
    ints; then p_A(t) = d^-n p_B(d t), i.e. coefficient j is c_j / d^(n-j)."""
    n = len(mat)
    d = math.lcm(1, *(v.denominator for row in mat for v in row))
    b = [[v.numerator * (d // v.denominator) for v in row] for row in mat]
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        bm = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in b]
        c, rem = divmod(-sum(bm[i][i] for i in range(n)), k)
        if rem:
            raise ContradictionError(f"Faddeev-LeVerrier trace not divisible by {k}")
        coeffs[n - k] = c
        for i in range(n):
            bm[i][i] += c
        m = bm
    return [Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs)]


def subspace_basis(vectors):
    """A canonical (rref) basis of the span of the given vectors."""
    m, pivots = rref(vectors)
    return [row for row in m[: len(pivots)]]


def intersect_subspaces(a_basis, b_basis):
    """Basis of the intersection of two subspaces given by spanning sets."""
    if not a_basis or not b_basis:
        return []
    dim = len(a_basis[0])
    # a combo (u, w) with A^T u = B^T w pins a vector of the intersection
    na = len(a_basis)
    rows = [[a_basis[k][d] for k in range(na)]
            + [-b_basis[k][d] for k in range(len(b_basis))] for d in range(dim)]
    out = []
    for combo in kernel(rows):
        vec = [Fraction(0)] * dim
        for k in range(na):
            if combo[k]:
                for d in range(dim):
                    vec[d] += combo[k] * a_basis[k][d]
        if any(v != 0 for v in vec):
            out.append(vec)
    return subspace_basis(out) if out else []


def vector_in_span(basis, vec) -> bool:
    return solve_in_span(basis, vec) is not None


def in_rref_span(rows, pivots, vec) -> bool:
    """Is vec in the span of rows, given as rref rows with their pivot
    columns?  Coordinates must be vec's pivot entries, so subtracting them
    leaves zero exactly when it is."""
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)
