"""Every internal-error guard fires, with its own class and message.

These guards check the package's own answers, so no input reaches them
while the code is right.  Each test hands a guard a corrupted value by
monkeypatching the one producer it checks, the LP, the witness, the
basis vectors, the rank, the edge tally, the census, the safe range,
the deformed angles or their sums, and asserts the guard's error.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from anglestruct import existence, normal_coords, perturbation
from anglestruct.angle_structures import AreaCurvature
from anglestruct.existence import ExistenceError, certify_condition2
from anglestruct.fixtures import FIG8_TABLE, fixture
from anglestruct.lp_core import Unbounded
from anglestruct.normal_coords import (BasisVerificationError,
                                       CompatibilitySystem, NormalCoordinate,
                                       decompose, is_in_solution_space,
                                       solution_space_basis)
from anglestruct.perturbation import (PerturbationError, apply_theorem3,
                                      build_perturbation,
                                      max_perturbation_parameter)
from anglestruct.triangulation import parse_triangulation


def _raises(error, message):
    return pytest.raises(error, match="^%s$" % re.escape(message))


# existence.certify_condition2


def test_an_unbounded_quad_slice_program_is_an_internal_error(monkeypatch):
    fx = fixture("fig8")
    monkeypatch.setattr(existence, "minimize_linear",
                        lambda *args, **kwargs: Unbounded(ray=(1,) * 6))
    with _raises(ExistenceError,
                 "internal error: quad-slice program unbounded"):
        certify_condition2(fx.triangulation, fx.angles)


def test_a_witness_off_the_solution_space_is_an_internal_error(monkeypatch):
    fx = fixture("fig8-qzero")
    t = fx.triangulation
    off = NormalCoordinate.from_vector(t.tet_count,
                                       [1] + [0] * (7 * t.tet_count - 1))
    assert not is_in_solution_space(t.compatibility_system, off)
    monkeypatch.setattr(existence, "_from_slice", lambda sys, quads: off)
    with _raises(ExistenceError, "internal error: quad-slice witness left "
                 "the solution space"):
        certify_condition2(t, fx.angles)


# normal_coords.solution_space_basis and decompose


def _fresh_fig8():
    """fig8 with no basis cached yet."""
    return parse_triangulation(FIG8_TABLE, name="fig8")


def _corrupt_disk_vectors(monkeypatch, change):
    """Make _disk_vector hand back change(its int entries) instead."""
    real = normal_coords._disk_vector

    def corrupted(n, tris, quads=()):
        return NormalCoordinate._of_scaled(
            1, change(list(real(n, tris, quads)._scaled[1])))
    monkeypatch.setattr(normal_coords, "_disk_vector", corrupted)


def test_a_basis_vector_off_the_solution_space_is_refused(monkeypatch):
    def bump(nums):
        nums[0] += 1
        return nums
    _corrupt_disk_vectors(monkeypatch, bump)
    with _raises(BasisVerificationError,
                 "tetrahedral vector 0 is not in the solution space"):
        solution_space_basis(_fresh_fig8())


def test_a_basis_vector_with_wrong_edge_coefficients_is_refused(
        monkeypatch):
    # Doubled, every vector stays in the solution space, and the
    # tetrahedral ones keep their zero edge coefficients.
    _corrupt_disk_vectors(monkeypatch, lambda nums: [2 * x for x in nums])
    with _raises(BasisVerificationError,
                 "edge vector 0 has wrong edge coefficients"):
        solution_space_basis(_fresh_fig8())


def test_a_rank_off_by_one_is_refused(monkeypatch):
    rank = CompatibilitySystem.rank
    monkeypatch.setattr(CompatibilitySystem, "rank",
                        property(lambda sys: rank.fget(sys) + 1))
    with _raises(BasisVerificationError,
                 "solution space dimension differs from n+m"):
        solution_space_basis(_fresh_fig8())


def test_a_decomposition_that_misses_the_coordinate_is_refused(monkeypatch):
    t = fixture("fig8").triangulation
    s = t.solution_basis.w_edge[0]
    real = normal_coords._edge_sums

    def off_by_one(nums, edge_classes):
        v, ints = real(nums, edge_classes)
        return v, [ints[0] + 1] + ints[1:]
    monkeypatch.setattr(normal_coords, "_edge_sums", off_by_one)
    with _raises(BasisVerificationError,
                 "decomposition failed to recover the coordinate"):
        decompose(t, s)


# perturbation.build_perturbation, max_perturbation_parameter and
# apply_theorem3


def test_a_census_off_by_one_gives_a_nonzero_coefficient_sum(monkeypatch):
    fx = fixture("fig8-flat1")
    census = perturbation.edge_angle_census(fx.angles, fx.triangulation)
    j = next(j for j, (m1, n1, k1) in enumerate(census)
             if (m1 or n1) and 3 * n1 != m1)
    off = tuple((m1, n1, k1 + (i == j)) for i, (m1, n1, k1)
                in enumerate(census))
    monkeypatch.setattr(perturbation, "edge_angle_census",
                        lambda alpha, t: off)
    with _raises(PerturbationError, "internal error: nonzero coefficient "
                 "sum on edge class %d" % j):
        build_perturbation(fx.angles, fx.triangulation)


def test_no_positive_range_is_an_internal_error(monkeypatch):
    fx = fixture("fig8-flat1")
    fam = build_perturbation(fx.angles, fx.triangulation)
    monkeypatch.setattr(perturbation, "_least_bound", lambda fam: (0, 1))
    with _raises(PerturbationError,
                 "internal error: no positive perturbation range"):
        max_perturbation_parameter(fam)


def test_a_deformed_assignment_that_is_not_strict_is_refused(monkeypatch):
    fx = fixture("fig8-flat1")
    monkeypatch.setattr(perturbation.PerturbationFamily, "at",
                        lambda fam, t: fam.base)
    with _raises(PerturbationError,
                 "internal error: perturbed assignment is not strict"):
        apply_theorem3(fx.angles, fx.triangulation)


def test_a_deformed_assignment_with_a_nonnegative_area_is_refused(
        monkeypatch):
    fx = fixture("fig8-flat1")
    real = perturbation.realized_area_curvature

    def zero_first_area(alpha, t):
        ac = real(alpha, t)
        return AreaCurvature(area=(Fraction(0),) + ac.area[1:],
                             curvature=ac.curvature)
    monkeypatch.setattr(perturbation, "realized_area_curvature",
                        zero_first_area)
    with _raises(PerturbationError, "internal error: perturbed assignment "
                 "has a nonnegative area"):
        apply_theorem3(fx.angles, fx.triangulation)


def test_a_changed_edge_sum_after_the_deformation_is_refused(monkeypatch):
    fx = fixture("fig8-flat1")
    real = perturbation._angle_sums

    def shift_deformed(alpha, t):
        den, corner, edge = real(alpha, t)
        if alpha is fx.angles:
            return den, corner, edge
        return den, corner, edge[:1] + [edge[1] + 1] + edge[2:]
    monkeypatch.setattr(perturbation, "_angle_sums", shift_deformed)
    with _raises(PerturbationError,
                 "internal error: curvature changed on edge class 1"):
        apply_theorem3(fx.angles, fx.triangulation)
