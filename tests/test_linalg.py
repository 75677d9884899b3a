import random
from fractions import Fraction

from anglestruct._linalg import rank, rref
from oracles import nullspace


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_on_known_matrix():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(7)]]
    rows, pivots = rref(m)
    assert pivots == [0, 2]
    assert rows[0] == [Fraction(1), Fraction(2), Fraction(0)]
    assert rows[1] == [Fraction(0), Fraction(0), Fraction(1)]


def test_rank_matches_pivot_count_and_transpose():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rank(m)
        mt = [list(col) for col in zip(*m)]
        assert r == rank(mt)
        assert r <= min(len(m), len(m[0]))


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        basis = nullspace(m)
        assert len(basis) == len(m[0]) - rank(m)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        # basis vectors are independent: stack them and check rank
        if basis:
            assert rank([list(v) for v in basis]) == len(basis)

