"""Exact echelon form of sparse integer matrices, and the one
fraction-free elimination step behind it and behind the simplex.

A matrix is a sequence of rows, each a dict of its nonzero int entries
by column; absent columns are zero.  Elimination reduces each row
against the pivot rows found so far, leading column first, and consumes
it: the dicts given may be updated in place or kept as pivot rows.  The
elimination is fraction-free: a caller with rational rows scales each to
ints first, which keeps the row space, and every pivot row is primitive
with a positive leading entry.  The size of the echelon form is the
rank.  `normal_coords` runs it once per compatibility system, over the
quad-only residuals left once the triangle columns are projected along
the vertex-link forest.  `lp_core`'s tableau rows are dicts of the same
kind, and its pivots take the same two steps, `_eliminate` and
`_primitive`.
"""

from __future__ import annotations

from math import gcd


def _primitive(row: dict, lead: int) -> dict:
    """row divided by the gcd of its entries, positive at column lead;
    row itself when that divisor is 1."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict, pivot: dict, lead: int) -> dict:
    """q*row - f*pivot, with q and f the entries of pivot and row at
    column lead over their gcd, so that entry cancels; zero entries are
    dropped.  q > 0 when pivot is positive at lead.  row is updated in
    place when q == 1."""
    g = gcd(pivot[lead], row[lead])
    q, f = pivot[lead] // g, row[lead] // g
    if q != 1:
        row = {c: v * q for c, v in row.items()}
    for c, v in pivot.items():
        w = row.get(c, 0) - f * v
        if w:
            row[c] = w
        else:
            del row[c]
    return row


def echelon(rows) -> dict:
    """An echelon form of the matrix whose rows, dicts of nonzero ints,
    are given, as leading column -> pivot row, each a dict of its nonzero
    int entries, all in columns >= the leading one, primitive and
    positive there.  The pivot rows span the row space.  The rows are
    consumed: each may be updated in place or kept as a pivot row."""
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(row, lead)
                break
            row = _eliminate(row, pivot, lead)
    return pivots
