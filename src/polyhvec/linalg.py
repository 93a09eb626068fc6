"""Exact linear algebra over the integers.

Everything here works on small dense matrices given as lists of rows,
and everything runs on one kernel: fraction-free (Bareiss) Gauss-Jordan
elimination, whose divisions are all exact because every entry it keeps
is a minor of the input.  Determinant, rank and pivot rows read its
result; linear systems against a unimodular matrix are solved through
its integer inverse, the kernel run on [A | I].  Every intermediate
value is an integer, and no floating point appears anywhere.
"""

from __future__ import annotations


def _gauss_jordan(rows):
    """Bareiss Gauss-Jordan elimination of an integer matrix.

    Columns are taken left to right and skipped when no remaining row
    has a nonzero entry there; rows are swapped to bring a pivot up.
    Returns (reduced rows, original indices of the pivot rows in pivot
    order, sign of the row permutation, last pivot).  After k pivots the
    pivot rows hold last * I in the pivot columns, and last is the k x k
    minor of the pivot rows and columns.  Raises ValueError on ragged rows.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    if any(len(r) != ncols for r in work):
        raise ValueError("matrix rows have unequal lengths")
    order = list(range(len(work)))
    sign, prev, k = 1, 1, 0
    for col in range(ncols):
        if k == len(work):
            break
        pivot = next((i for i in range(k, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            order[k], order[pivot] = order[pivot], order[k]
            sign = -sign
        prow = work[k]
        p = prow[col]
        for i, row in enumerate(work):
            if i != k:
                c = row[col]
                # exact division: every entry is a minor of the input
                work[i] = [(p * a - c * b) // prev for a, b in zip(row, prow)]
        prev = p
        k += 1
    return work, order[:k], sign, prev


def mat_det(rows) -> int:
    """Determinant of a square integer matrix."""
    work, chosen, sign, last = _gauss_jordan(rows)
    if work and len(work[0]) != len(work):
        raise ValueError("determinant needs a square matrix")
    return sign * last if len(chosen) == len(work) else 0


def mat_rank(rows) -> int:
    return len(_gauss_jordan(rows)[1])


def pivot_rows(rows) -> list[int]:
    """Row indices forming an invertible square submatrix.

    Requires the matrix to have full column rank; raises ValueError
    otherwise.
    """
    work, chosen, _, _ = _gauss_jordan(rows)
    ncols = len(work[0]) if work else 0
    if len(chosen) != ncols:
        raise ValueError(f"matrix has column rank {len(chosen)} < {ncols}")
    return chosen


class LinearSolver:
    """Exact solves against a fixed unimodular square matrix.

    The constructor computes the integer inverse once, by the kernel on
    [A | I]; it raises ValueError unless the matrix is square with
    determinant +1 or -1.  Each solve is then one integer matrix-vector
    product.
    """

    def __init__(self, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("solver needs a square matrix")
        work, _, _, last = _gauss_jordan(
            [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
        )
        # A is singular iff some pivot falls in the right half, which leaves
        # a zero on the left diagonal; otherwise the left half is last * I,
        # last is +-det, and the right half is last * inverse
        if any(not work[i][i] for i in range(n)):
            raise ValueError("matrix is singular")
        if n and abs(last) != 1:
            raise ValueError(f"matrix is not unimodular: |det| = {abs(last)}")
        self._inverse = [[last * v for v in row[n:]] for row in work]

    def solve(self, b) -> list[int]:
        b = list(b)
        if len(b) != len(self._inverse):
            raise ValueError("right-hand side has wrong length")
        return [sum(a * v for a, v in zip(row, b) if a) for row in self._inverse]
