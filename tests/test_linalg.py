import random
from fractions import Fraction

from anglestruct._linalg import rank
from oracles import _rank, nullspace


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
            for _ in range(rows)]


def sparse(matrix):
    return [[(c, v) for c, v in enumerate(row) if v] for row in matrix]


def test_rank_on_known_sparse_matrix():
    # the second row reduces to a single entry in column 2; the third is
    # the sum of the first two, and the empty fourth row is zero
    rows = [[(0, 1), (1, 2), (2, 3)],
            [(0, 2), (1, 4), (2, 7)],
            [(0, 3), (1, 6), (2, 10)],
            []]
    assert rank(rows) == 2
    assert rank([]) == 0
    assert rank([[(3, Fraction(1, 2))], [(3, -1)]]) == 1


def test_rank_matches_pivot_count_and_transpose():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rank(sparse(m))
        mt = [list(col) for col in zip(*m)]
        assert r == rank(sparse(mt)) == _rank(m)
        assert r <= min(len(m), len(m[0]))


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        basis = nullspace(m)
        assert len(basis) == len(m[0]) - rank(sparse(m))
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        # basis vectors are independent: stack them and check rank
        if basis:
            assert rank(sparse(basis)) == len(basis)
