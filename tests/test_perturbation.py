"""Tests for the flat-to-strict angle deformation.

The frozen constants below (censuses, coefficient values, safe ranges)
were derived by direct enumeration over the fixture tables; the safe
range is cross-checked against an oracle that rebuilds every affine
bound from two sampled assignments instead of the stored coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from anglestruct.angle_structures import (
    AngleAssignment,
    classify,
    realized_area_curvature,
)
from anglestruct.existence import find_angle_structure
from anglestruct.fixtures import fixture
from anglestruct.perturbation import (
    PerturbationError,
    apply_theorem3,
    build_perturbation,
    edge_angle_census,
    max_perturbation_parameter,
)
from anglestruct.triangulation import build_edge_classes


def flat_alone_assignment() -> AngleAssignment:
    # pi on the opposite edge pair (0, 5), zero on the other four edges
    vec = [Fraction(1), Fraction(0), Fraction(0),
           Fraction(0), Fraction(0), Fraction(1)]
    return AngleAssignment.from_vector(1, vec)


def areas(alpha, t) -> tuple:
    """alpha's 4n triangle areas on t, tet-major."""
    return realized_area_curvature(alpha, t).area


def oracle_t_max(fam, t) -> Fraction:
    """Rebuild the safe range from evaluated assignments only.

    Every constraint (each angle in (0, pi), each triangle area below
    zero) is affine in t, so sampling the family at t = 0 and t = 1
    recovers each constraint's slope without touching the stored
    coefficients.
    """
    base = fam.at(Fraction(0))
    probe = fam.at(Fraction(1))
    bounds = []
    for a0, a1 in zip(base.angles, probe.angles):
        slope = a1 - a0
        if slope > 0:
            bounds.append((1 - a0) / slope)
        elif slope < 0:
            bounds.append(a0 / -slope)
    for f0, f1 in zip(areas(base, t), areas(probe, t)):
        slope = f1 - f0
        if slope > 0:
            bounds.append(-f0 / slope)
    return min(bounds) if bounds else Fraction(1)


def test_census_fig8_uniform_is_all_interior():
    fx = fixture("fig8")
    cen = edge_angle_census(fx.angles, fx.triangulation)
    assert cen == ((0, 0, 6), (0, 0, 6))


@pytest.mark.parametrize("name,entries", [
    ("fig8-flat1", ((2, 0, 6), (2, 2, 6))),
    ("fig8-flat2", ((4, 0, 6), (4, 4, 6))),
])
def test_census_flat_fixtures(name, entries):
    fx = fixture(name)
    assert edge_angle_census(fx.angles, fx.triangulation) == entries


def test_census_counts_sum_to_valence():
    for name in ("fig8", "fig8-flat1", "fig8-flat2", "one-tet"):
        fx = fixture(name)
        cen = edge_angle_census(fx.angles, fx.triangulation)
        classes = build_edge_classes(fx.triangulation)
        assert len(cen) == len(classes)
        for (m1, n1, k1), cls in zip(cen, classes):
            assert m1 + n1 + k1 == len(cls.corners)


def test_census_flat_tetrahedron_alone():
    fx = fixture("one-tet")
    cen = edge_angle_census(flat_alone_assignment(), fx.triangulation)
    assert cen == ((0, 1, 0), (1, 0, 0), (1, 0, 0),
                   (1, 0, 0), (1, 0, 0), (0, 1, 0))


def test_census_rejects_generalized_and_size_mismatch():
    fx = fixture("fig8")
    bad = AngleAssignment.from_vector(2, [Fraction(-1, 6)] + [Fraction(1, 3)] * 11)
    with pytest.raises(PerturbationError, match="not semi"):
        edge_angle_census(bad, fx.triangulation)
    small = AngleAssignment.from_vector(1, [Fraction(1, 3)] * 6)
    with pytest.raises(PerturbationError, match="size does not match"):
        edge_angle_census(small, fx.triangulation)


def test_build_rejects_flat_tetrahedron_alone():
    fx = fixture("one-tet")
    with pytest.raises(PerturbationError,
                       match=r"edge class 0 has a zero or pi angle but no "
                             r"angle in \(0, pi\)"):
        build_perturbation(flat_alone_assignment(), fx.triangulation)


def test_build_coefficients_flat1():
    fx = fixture("fig8-flat1")
    fam = build_perturbation(fx.angles, fx.triangulation)
    classes = build_edge_classes(fx.triangulation)
    # class 0 holds two of the inserted tet's zero angles among six
    # interior ones; class 1 adds the pi pair on top of that
    by_class = []
    for cls in classes:
        per_corner = []
        for i, k in cls.corners:
            per_corner.append((fx.angles.angles[6 * i + k],
                               fam.coeffs[6 * i + k]))
        by_class.append(per_corner)
    for angle, coeff in by_class[0]:
        assert coeff == (Fraction(1) if angle == 0 else Fraction(-1, 3))
    for angle, coeff in by_class[1]:
        if angle == 0:
            assert coeff == 1
        elif angle == 1:
            assert coeff == -3
        else:
            assert coeff == Fraction(2, 3)


def test_build_coefficients_flat2_interior_values():
    fx = fixture("fig8-flat2")
    fam = build_perturbation(fx.angles, fx.triangulation)
    classes = build_edge_classes(fx.triangulation)
    interior = []
    for cls in classes:
        vals = {fam.coeffs[6 * i + k] for i, k in cls.corners
                if 0 < fx.angles.angles[6 * i + k] < 1}
        interior.append(vals)
    # -(4 - 0)/6 and -(4 - 12)/6 from the two censuses
    assert interior == [{Fraction(-2, 3)}, {Fraction(4, 3)}]


def test_coefficients_sum_to_zero_per_edge_class():
    for name in ("fig8", "fig8-flat1", "fig8-flat2"):
        fx = fixture(name)
        fam = build_perturbation(fx.angles, fx.triangulation)
        for cls in build_edge_classes(fx.triangulation):
            total = sum((fam.coeffs[6 * i + k] for i, k in cls.corners),
                        Fraction(0))
            assert total == 0


def test_family_at_zero_is_the_base():
    fx = fixture("fig8-flat1")
    fam = build_perturbation(fx.angles, fx.triangulation)
    assert fam.at(Fraction(0)) == fx.angles


def test_curvature_preserved_along_the_family():
    fx = fixture("fig8-flat2")
    fam = build_perturbation(fx.angles, fx.triangulation)
    classes = build_edge_classes(fx.triangulation)
    base = realized_area_curvature(fx.angles, fx.triangulation).curvature
    for t in (Fraction(1, 100), Fraction(1, 8), Fraction(3, 4), Fraction(5)):
        moved = realized_area_curvature(fam.at(t), fx.triangulation)
        for cls in classes:
            assert moved.curvature[cls.index] == base[cls.index]


def test_flat_triangle_area_slope_is_minus_one():
    fx = fixture("fig8-flat1")
    fam = build_perturbation(fx.angles, fx.triangulation)
    # corners of the inserted tetrahedron: two zero coefficients +1 and
    # one pi coefficient -3 meet at every corner; areas are affine in t,
    # so the slope is the area at 1 minus the area at 0
    at1, at0 = (areas(fam.at(s), fx.triangulation) for s in (1, 0))
    for corner in range(4):
        assert at1[4 * 2 + corner] - at0[4 * 2 + corner] == -1


def test_triangle_area_slope_matches_sampled_areas():
    fx = fixture("fig8-flat2")
    fam = build_perturbation(fx.angles, fx.triangulation)
    t = Fraction(1, 7)
    base, at0, at1, moved = (areas(alpha, fx.triangulation) for alpha in
                             (fx.angles, fam.at(0), fam.at(1), fam.at(t)))
    assert len(moved) == 4 * fx.triangulation.tet_count
    for c, area in enumerate(moved):
        assert area == base[c] + (at1[c] - at0[c]) * t


@pytest.mark.parametrize("name,t_max", [
    ("fig8-flat1", Fraction(1, 3)),
    ("fig8-flat2", Fraction(1, 4)),
])
def test_max_parameter_frozen_values(name, t_max):
    fx = fixture(name)
    fam = build_perturbation(fx.angles, fx.triangulation)
    assert max_perturbation_parameter(fam) == t_max
    assert oracle_t_max(fam, fx.triangulation) == t_max


def test_max_parameter_constant_family_defaults_to_one():
    fx = fixture("fig8")
    fam = build_perturbation(fx.angles, fx.triangulation)
    assert set(fam.coeffs) == {Fraction(0)}
    assert max_perturbation_parameter(fam) == 1
    assert oracle_t_max(fam, fx.triangulation) == 1


def test_sampling_inside_at_and_beyond_the_safe_range():
    for name in ("fig8-flat1", "fig8-flat2"):
        fx = fixture(name)
        fam = build_perturbation(fx.angles, fx.triangulation)
        t_max = max_perturbation_parameter(fam)
        inside = fam.at(t_max / 2)
        assert classify(inside) == "strict"
        areas = realized_area_curvature(inside, fx.triangulation).area
        assert all(a < 0 for a in areas)
        # the binding constraint on both flat fixtures is a pi angle
        # reaching zero, so the endpoint is semi and past it the family
        # leaves the admissible set
        assert classify(fam.at(t_max)) == "semi"
        assert classify(fam.at(2 * t_max)) == "generalized"


def test_apply_rejects_non_flat_input():
    fx = fixture("fig8")
    with pytest.raises(PerturbationError, match="not a flat pair"):
        apply_theorem3(fx.angles, fx.triangulation)


@pytest.mark.parametrize("name,t_star", [
    ("fig8-flat1", Fraction(1, 6)),
    ("fig8-flat2", Fraction(1, 8)),
])
def test_apply_postconditions(name, t_star):
    fx = fixture(name)
    res = apply_theorem3(fx.angles, fx.triangulation)
    new, ac = res.assignment, res.realized
    assert res.t_max == 2 * t_star
    assert res.family == build_perturbation(fx.angles, fx.triangulation)
    assert classify(new) == "strict"
    assert all(a < 0 for a in ac.area)
    assert ac == realized_area_curvature(new, fx.triangulation)
    before = realized_area_curvature(fx.angles, fx.triangulation)
    assert ac.curvature == before.curvature
    # flat triangles land at area exactly -t*
    for tet in range(2, fx.triangulation.tet_count):
        for corner in range(4):
            assert ac.area[4 * tet + corner] == -t_star


def test_apply_output_target_is_strictly_realizable():
    fx = fixture("fig8-flat1")
    ac = apply_theorem3(fx.angles, fx.triangulation).realized
    found = find_angle_structure(fx.triangulation, ac)
    assert isinstance(found, AngleAssignment)
    assert classify(found) == "strict"
    assert realized_area_curvature(found, fx.triangulation) == ac


def test_apply_is_deterministic():
    fx = fixture("fig8-flat2")
    first = apply_theorem3(fx.angles, fx.triangulation)
    second = apply_theorem3(fx.angles, fx.triangulation)
    assert first == second
