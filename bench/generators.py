"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives the
same gluing tables, angles, targets and normal coordinates, and so the
same input files byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from anglestruct import (
    AngleAssignment,
    AreaCurvature,
    Triangulation,
    build_edge_classes,
    insert_flat_tetrahedron,
    parse_triangulation,
)
from anglestruct.fixtures import FIG8_TABLE

# Flat pattern of an inserted tetrahedron: pi on the diagonal pair
# (tet-edges 0 and 5), 0 elsewhere.
FLAT_PATTERN = (Fraction(1), Fraction(0), Fraction(0),
                Fraction(0), Fraction(0), Fraction(1))


def random_closed_table(rng: random.Random, n: int,
                        name: str = "") -> Triangulation:
    """Pair the 4n face slots at random, each pair glued by a random
    permutation carrying one face to the other."""
    slots = [(i, f) for i in range(n) for f in range(4)]
    rng.shuffle(slots)
    gluings = {}
    for (i, f), (j, g) in zip(slots[0::2], slots[1::2]):
        images = [w for w in range(4) if w != g]
        rng.shuffle(images)
        perm = [0] * 4
        perm[f] = g
        for v, w in zip((v for v in range(4) if v != f), images):
            perm[v] = w
        gluings[(i, f)] = (j, g, tuple(perm))
    return Triangulation(n, gluings, name=name)


def random_angles(rng: random.Random, n: int, lo: int, hi: int,
                  denominator: int = 36) -> AngleAssignment:
    """6n angles k/denominator with k drawn uniformly from lo..hi."""
    return AngleAssignment.from_vector(
        n, [Fraction(rng.randint(lo, hi), denominator)
            for _ in range(6 * n)])


def infeasible_target(t: Triangulation, ac: AreaCurvature) -> AreaCurvature:
    """The same areas with curvature 2 (2 pi) on every edge class: the
    edge rows then ask for angle sum 0 while every corner row asks for a
    positive sum, so no semi assignment exists."""
    return AreaCurvature.of(ac.area, [2] * len(build_edge_classes(t)))


def stacked_flat_table(k: int) -> Triangulation:
    """fig8 with k stacked flat tetrahedra, by the fig8-flat2 recipe.

    The first insert goes between faces (0,0) and (1,0) of fig8 with
    matching (0,1,3,2); every further insert goes between host face
    (0,0) and face 3 of the newest insert with matching (3,0,2,1).
    k = 2 is the fixture fig8-flat2.
    """
    if k < 1:
        raise ValueError("need at least one flat tetrahedron")
    t = parse_triangulation(FIG8_TABLE, name="fig8")
    t, flat = insert_flat_tetrahedron(t, (0, 0), (1, 0), (0, 1, 3, 2))
    for _ in range(k - 1):
        t, flat = insert_flat_tetrahedron(t, (0, 0), (flat.tet, 3),
                                          (3, 0, 2, 1))
    return t


def stacked_flat_angles(rng: random.Random, k: int) -> AngleAssignment:
    """Seeded host angles k/36, k in 1..11, so every host triangle has
    negative area, followed by the flat pattern on each insert."""
    vec = [Fraction(rng.randint(1, 11), 36) for _ in range(12)]
    for _ in range(k):
        vec.extend(FLAT_PATTERN)
    return AngleAssignment.from_vector(2 + k, vec)


def random_weights(rng: random.Random, count: int):
    """Small signed rationals, never all zero."""
    while True:
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(count))
        if any(w):
            return w
