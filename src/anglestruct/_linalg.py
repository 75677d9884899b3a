"""Exact linear algebra over Fraction matrices.

Plain Gaussian elimination; everything stays rational. Matrices are lists
(or tuples) of row tuples. Sizes here are small (at most a few hundred
columns), so no attempt is made at sparsity or pivoting heuristics beyond
picking the first nonzero.
"""

from __future__ import annotations

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])
