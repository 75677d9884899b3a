"""Decisions on manifold-shaped tables: walks of 2-3 moves from fig8.

Every table of a walk (oracles.two_three_walk) triangulates the
figure-eight knot complement: one vertex whose link is a torus, and as
many edge classes as tetrahedra, where random tables have few.  On each,
a target realized by angles k/36, k in 1..12, is met in both modes, and
so is one realized by a second such draw; with one triangle area moved
it is refused in both, since around a torus link the areas and
curvatures are tied by vertex Gauss-Bonnet: the vector 1 on every
corner row and -2 on every edge row, signed by the move, refutes the
moved target, and each returned certificate verifies.
certify holds, or fails with a witness in the solution space, and the
canonical basis has a vector per tetrahedron and per edge class.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import oracles
from anglestruct import (AngleAssignment, AreaCurvature, Certificate, Fails,
                         angle_linear_system, certify_condition2,
                         find_angle_structure, find_semi_angle_structure,
                         is_in_solution_space, realized_area_curvature,
                         verify_certificate)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decisions_on_two_three_walks_from_fig8(seed):
    rng = random.Random(seed)
    # The second draws come from their own generator, so the walk and
    # the moves are those of the first.
    draws = random.Random(-seed)
    for t in oracles.two_three_walk(rng, 10):
        n, m = t.tet_count, len(t.edge_classes)
        assert m == n and len(t.vertex_classes) == 1
        alpha = AngleAssignment.from_vector(
            n, [F(rng.randint(1, 12), 36) for _ in range(6 * n)])
        ac = realized_area_curvature(alpha, t)
        second = realized_area_curvature(AngleAssignment.from_vector(
            n, [F(draws.randint(1, 12), 36) for _ in range(6 * n)]), t)
        for finder in (find_semi_angle_structure, find_angle_structure):
            assert isinstance(finder(t, ac), AngleAssignment)
            found = finder(t, second)
            assert isinstance(found, AngleAssignment)
            assert realized_area_curvature(found, t) == second

        area = list(ac.area)
        step = rng.choice((-1, 1))
        area[rng.randrange(4 * n)] += F(step, 36)
        moved = AreaCurvature.of(area, ac.curvature)
        for mode, finder in (("semi", find_semi_angle_structure),
                             ("strict", find_angle_structure)):
            res = finder(t, moved)
            assert isinstance(res, Certificate)
            system = angle_linear_system(t, moved, mode)
            caps = [0] * (system.row_count - 4 * n - m)
            gauss_bonnet = [step] * (4 * n) + [-2 * step] * m + caps
            assert verify_certificate(system, res.y)
            assert verify_certificate(system, gauss_bonnet)

        held = certify_condition2(t, alpha)
        if isinstance(held, Fails):
            assert is_in_solution_space(t.compatibility_system,
                                        held.witness)
        basis = t.solution_basis
        assert len(basis.w_sigma) + len(basis.w_edge) == n + m
