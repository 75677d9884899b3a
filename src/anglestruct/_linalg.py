"""Exact echelon form of sparse rational matrices.

A matrix is a sequence of rows, each a sequence of (column, coefficient)
pairs; absent columns are zero.  The compatibility equations have at
most four nonzeros per row, so elimination keeps each row as a dict of
its nonzero entries and reduces it against the pivot rows found so far,
leading column first.  The elimination is fraction-free: each row is
scaled to integers over the lcm of its denominators, which keeps the
row space, and every pivot row is primitive with a positive leading
entry.
"""

from __future__ import annotations

from math import gcd, lcm


def echelon(rows) -> dict:
    """An echelon form of the matrix whose sparse rows are given, as
    leading column -> pivot row, each a dict of its nonzero int entries,
    all in columns >= the leading one, primitive and positive there.  The
    pivot rows span the row space; coefficients are ints or Fractions."""
    pivots = {}
    for pairs in rows:
        entries = [(c, v) for c, v in pairs if v]
        den = lcm(*(v.denominator for _, v in entries))
        row = {c: v.numerator * (den // v.denominator) for c, v in entries}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                if row[lead] < 0:
                    g = -g
                pivots[lead] = {c: v // g for c, v in row.items()}
                break
            g = gcd(pivot[lead], row[lead])
            p, f = pivot[lead] // g, row[lead] // g
            if p != 1:
                row = {c: v * p for c, v in row.items()}
            for c, v in pivot.items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    del row[c]
    return pivots


def rank(rows) -> int:
    """The rank of the matrix whose sparse rows are given: the size of
    its echelon form."""
    return len(echelon(rows))
