import random
from fractions import Fraction
from math import gcd, lcm

from anglestruct._linalg import echelon
from oracles import _rank, nullspace


def rand_matrix(rng, rows, cols, lo=-5, hi=5, den=1):
    """Entries n/d with lo <= n <= hi and 1 <= d <= den."""
    def entry():
        n = rng.randint(lo, hi)
        return Fraction(n, rng.randint(1, den)) if den > 1 else Fraction(n)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def int_row(pairs) -> dict:
    """The nonzero (column, value) pairs of a rational row as echelon
    takes them: a dict of ints, over the lcm of their denominators,
    which keeps the row space."""
    pairs = [(c, Fraction(v)) for c, v in pairs if v]
    den = lcm(*(v.denominator for _, v in pairs))
    return {c: int(v * den) for c, v in pairs}


def sparse(matrix):
    return [int_row(enumerate(row)) for row in matrix]


def test_rank_on_known_sparse_matrix():
    # the second row reduces to a single entry in column 2; the third is
    # the sum of the first two, and the empty fourth row is zero
    rows = [[(0, 1), (1, 2), (2, 3)],
            [(0, 2), (1, 4), (2, 7)],
            [(0, 3), (1, 6), (2, 10)],
            []]
    assert len(echelon(map(int_row, rows))) == 2
    assert len(echelon([])) == 0
    assert len(echelon(map(int_row, [[(3, Fraction(1, 2))], [(3, -1)]]))) == 1


def test_rank_matches_pivot_count_and_transpose():
    # integer entries first, then rational ones, which sparse scales to
    # integers over the lcm of each row's denominators
    rng = random.Random(7)
    for den in (1, 4):
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), den=den)
            if den > 1 and rng.random() < 0.5:
                # a rational combination of two rows keeps the rank below
                # full
                a, b = Fraction(rng.randint(1, 5), 3), Fraction(-2, 7)
                m.append([a * x + b * y for x, y in zip(m[0], m[-1])])
            r = len(echelon(sparse(m)))
            mt = [list(col) for col in zip(*m)]
            assert r == len(echelon(sparse(mt))) == _rank(m)
            assert r <= min(len(m), len(m[0]))


def test_echelon_pivot_rows_are_primitive_and_span_the_rows():
    # every pivot row has its leading column as key and as its lowest
    # nonzero column, no zero entry, gcd 1 and a positive lead; the rows
    # lie in the row space and there are rank-many of them
    rng = random.Random(5)
    for den in (1, 4):
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), den=den)
            pivots = echelon(sparse(m))
            for lead, row in pivots.items():
                assert min(row) == lead
                assert all(type(v) is int and v for v in row.values())
                assert gcd(*row.values()) == 1 and row[lead] > 0
            dense = [[Fraction(row.get(c, 0)) for c in range(len(m[0]))]
                     for row in pivots.values()]
            assert _rank(m + dense) == _rank(m) == len(pivots)


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        basis = nullspace(m)
        assert len(basis) == len(m[0]) - len(echelon(sparse(m)))
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        # basis vectors are independent: stack them and check rank
        if basis:
            assert len(echelon(sparse(basis))) == len(basis)
