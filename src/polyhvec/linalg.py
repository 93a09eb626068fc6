"""Exact linear algebra over the integers.

Everything here works on small dense matrices given as lists of rows.
Determinants use Bareiss elimination, whose divisions are all exact;
rank and pivot selection use integer cross-elimination with gcd
reduction; linear systems against a unimodular matrix are solved
through its integer inverse, computed by Bareiss-style Gauss-Jordan
elimination.  Every intermediate value is an integer, and no floating
point appears anywhere.
"""

from __future__ import annotations

import math


def mat_det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _reduce_row(row):
    g = 0
    for v in row:
        g = math.gcd(g, v)
    if g > 1:
        return [v // g for v in row]
    return list(row)


def _eliminate(rows):
    """Integer row echelon; returns (pivot row indices, pivot column indices)."""
    work = [_reduce_row(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivot_rows = []
    pivot_cols = []
    used = set()
    for col in range(ncols):
        pivot = None
        for i, row in enumerate(work):
            if i not in used and row[col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used.add(pivot)
        pivot_rows.append(pivot)
        pivot_cols.append(col)
        prow = work[pivot]
        for i, row in enumerate(work):
            if i in used or row[col] == 0:
                continue
            factor = row[col]
            work[i] = _reduce_row(
                [a * prow[col] - factor * b for a, b in zip(row, prow)]
            )
    return pivot_rows, pivot_cols


def mat_rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    pivot_rows, _ = _eliminate(rows)
    return len(pivot_rows)


def pivot_rows(rows) -> list[int]:
    """Row indices forming an invertible square submatrix.

    Requires the matrix to have full column rank; raises ValueError
    otherwise.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    chosen, cols = _eliminate(rows)
    if len(cols) != ncols:
        raise ValueError(f"matrix has column rank {len(cols)} < {ncols}")
    return chosen


class LinearSolver:
    """Exact solves against a fixed unimodular square matrix.

    The constructor computes the integer inverse once, by Gauss-Jordan
    elimination of [A | I] with Bareiss's exact divisions; it raises ValueError
    unless the matrix is square with determinant +1 or -1.  Each solve is
    then one integer matrix-vector product.
    """

    def __init__(self, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("solver needs a square matrix")
        work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
        prev = 1
        for k in range(n):
            pivot = next((i for i in range(k, n) if work[i][k]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            work[k], work[pivot] = work[pivot], work[k]
            prow = work[k]
            p = prow[k]
            for i in range(n):
                if i != k:
                    row = work[i]
                    c = row[k]
                    # exact division: every entry is a minor of [A | I]
                    work[i] = [(p * a - c * b) // prev for a, b in zip(row, prow)]
            prev = p
        # prev is now +-det; the left half is prev * I, the right prev * inverse
        if n and abs(prev) != 1:
            raise ValueError(f"matrix is not unimodular: |det| = {abs(prev)}")
        self._inverse = [[prev * v for v in row[n:]] for row in work]

    def solve(self, b) -> list[int]:
        b = list(b)
        if len(b) != len(self._inverse):
            raise ValueError("right-hand side has wrong length")
        return [sum(a * v for a, v in zip(row, b) if a) for row in self._inverse]
