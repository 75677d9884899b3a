"""Exact rank of sparse rational matrices.

A matrix is a sequence of rows, each a sequence of (column, coefficient)
pairs; absent columns are zero.  The compatibility equations have at
most four nonzeros per row, so elimination keeps each row as a dict of
its nonzero entries and reduces it against the pivot rows found so far,
leading column first.  Everything stays rational.
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows) -> int:
    """The rank of the matrix whose sparse rows are given."""
    pivots = {}  # leading column -> reduced row with a 1 in that column
    for pairs in rows:
        row = {c: Fraction(v) for c, v in pairs if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = {c: v / row[lead] for c, v in row.items()}
                break
            f = row[lead]
            for c, v in pivots[lead].items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)
