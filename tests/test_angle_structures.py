import random
from fractions import Fraction

import pytest

from anglestruct import (AngleAssignment, AngleStructureError, AreaCurvature,
                         NormalCoordinateError, ac_from_json, ac_to_json,
                         angles_to_json, area_of_quad, area_of_triangle,
                         build_edge_classes, chi_area_curvature,
                         chi_via_lemma2, classify, combine, fixture,
                         is_flat_pair, realized_area_curvature,
                         solution_space_basis, z_functional)
from anglestruct._rational import unscaled
from anglestruct.angle_structures import angle_vector_from_json

F = Fraction


def constant_assignment(n, value):
    return AngleAssignment.from_vector(n, [F(value)] * (6 * n))


def rand_assignment(rng, n, lo=0, hi=1):
    vals = [F(rng.randint(lo * 12, hi * 12), 12) for _ in range(6 * n)]
    return AngleAssignment.from_vector(n, vals)


def test_area_formulas_on_constants():
    alpha = constant_assignment(2, F(1, 3))
    for i in range(2):
        for l in range(4):
            assert area_of_triangle(alpha, i, l) == 0
        for p in range(3):
            assert area_of_quad(alpha, i, p) == F(-2, 3)
    half = constant_assignment(2, F(1, 2))
    assert area_of_triangle(half, 0, 0) == F(1, 2)
    assert area_of_quad(half, 0, 0) == 0
    zero = constant_assignment(2, 0)
    assert area_of_triangle(zero, 1, 2) == -1
    assert area_of_quad(zero, 1, 1) == -2


def test_tet_area_sum_identity_on_random_angles():
    # four triangle areas plus three quad areas = 4*(sum of six) - 10,
    # because each angle sits in two triangles and in two of the quads
    rng = random.Random(5)
    for _ in range(50):
        alpha = rand_assignment(rng, 2)
        for i in range(2):
            six = sum(alpha.angles[6 * i + k] for k in range(6))
            total = sum(area_of_triangle(alpha, i, l) for l in range(4)) + \
                sum(area_of_quad(alpha, i, p) for p in range(3))
            assert total == 4 * six - 10


def test_curvature_values_on_fig8():
    fig8 = fixture("fig8").triangulation
    ecs = build_edge_classes(fig8)
    third = constant_assignment(2, F(1, 3))
    assert [realized_area_curvature(third, fig8).curvature[e.index]
            for e in ecs] == [0, 0]
    zero = constant_assignment(2, 0)
    assert [realized_area_curvature(zero, fig8).curvature[e.index]
            for e in ecs] == [2, 2]


def test_boundary_edges_use_the_half_turn_target():
    one = fixture("one-tet").triangulation
    ecs = build_edge_classes(one)
    alpha = constant_assignment(1, F(1, 4))
    assert all(e.is_boundary for e in ecs)
    assert all(realized_area_curvature(alpha, one).curvature[e.index]
               == F(3, 4) for e in ecs)


def test_realized_area_curvature_frozen_for_flat1():
    fx = fixture("fig8-flat1")
    ac = realized_area_curvature(fx.angles, fx.triangulation)
    assert sorted(ac.area) == [F(-1, 2)] * 8 + [F(0)] * 4
    assert ac.curvature == (1, -1)


def test_classify():
    strict = constant_assignment(2, F(1, 3))
    assert classify(strict) == "strict"
    semi = AngleAssignment.from_vector(2, [F(0)] + [F(1, 3)] * 11)
    assert classify(semi) == "semi"
    over = AngleAssignment.from_vector(2, [F(7, 6)] + [F(1, 3)] * 11)
    assert classify(over) == "generalized"
    neg = AngleAssignment.from_vector(2, [F(-1, 6)] + [F(1, 3)] * 11)
    assert classify(neg) == "generalized"


def test_is_flat_pair():
    fx1 = fixture("fig8-flat1")
    assert is_flat_pair(fx1.angles, fx1.triangulation)
    all_third = fixture("fig8").angles
    assert not is_flat_pair(all_third, fixture("fig8").triangulation)
    bad = AngleAssignment.from_vector(2, [F(-1, 6)] + [F(1, 3)] * 11)
    with pytest.raises(AngleStructureError):
        is_flat_pair(bad, fixture("fig8").triangulation)


@pytest.mark.parametrize("n", (1, 3))
def test_curvature_refuses_a_size_mismatch(n):
    # One tet would index past the angles; three would answer 0 from
    # the first two and leave the third unread.
    fig8 = fixture("fig8").triangulation
    alpha = constant_assignment(n, F(1, 3))
    with pytest.raises(AngleStructureError, match="size does not match"):
        realized_area_curvature(alpha, fig8)


@pytest.mark.parametrize("tet", (2, 5, -1))
def test_areas_refuse_a_tet_past_the_assignment(tet):
    alpha = constant_assignment(2, F(1, 3))
    with pytest.raises(AngleStructureError, match="not among the 2"):
        area_of_triangle(alpha, tet, 0)
    with pytest.raises(AngleStructureError, match="not among the 2"):
        area_of_quad(alpha, tet, 0)


@pytest.mark.parametrize("quad", (-1, 3))
def test_area_of_quad_refuses_a_quad_type_outside_0_to_2(quad):
    # -1 would read quad 2's area, 3 would index past the tetrahedron.
    alpha = constant_assignment(2, F(1, 3))
    with pytest.raises(AngleStructureError,
                       match="quad type %d is not among 0..2" % quad):
        area_of_quad(alpha, 0, quad)


@pytest.mark.parametrize("corner", (-1, 4))
def test_area_of_triangle_refuses_a_corner_outside_0_to_3(corner):
    # -1 would read corner 3's area, 4 would index past the tetrahedron.
    alpha = constant_assignment(2, F(1, 3))
    with pytest.raises(AngleStructureError,
                       match="corner %d is not among 0..3" % corner):
        area_of_triangle(alpha, 0, corner)


@pytest.mark.parametrize("other", ("one-tet", "fig8-flat1"))
def test_z_functional_refuses_another_triangulations_edge_class(other):
    # one-tet's first class would read fig8's crossing weights and answer
    # for an edge fig8 does not have; the 3-tet table's last class would
    # index past them.
    fig8 = fixture("fig8").triangulation
    foreign = fixture(other).triangulation.edge_classes
    s = solution_space_basis(fig8).w_edge[0]
    for e in (foreign[0], foreign[-1]):
        with pytest.raises(NormalCoordinateError,
                           match="is not an edge class of the triangulation"):
            z_functional(fig8, s, e)


def test_chi_evaluators_agree_on_seeded_solution_vectors():
    rng = random.Random(17)
    fig8 = fixture("fig8").triangulation
    basis = solution_space_basis(fig8)
    third = constant_assignment(2, F(1, 3))
    ac = realized_area_curvature(third, fig8)
    for _ in range(30):
        omega = tuple(F(rng.randint(-8, 8), rng.randint(1, 5))
                      for _ in basis.w_sigma)
        z = tuple(F(rng.randint(-8, 8), rng.randint(1, 5))
                  for _ in basis.w_edge)
        s = combine(basis, omega, z)
        assert chi_area_curvature(fig8, s, ac) == chi_via_lemma2(fig8, s, third)


def test_chi_evaluators_reject_bad_inputs():
    from anglestruct import NormalCoordinate
    fig8 = fixture("fig8").triangulation
    third = constant_assignment(2, F(1, 3))
    ac = realized_area_curvature(third, fig8)
    outside = NormalCoordinate(quads=(F(1),) + (F(0),) * 5,
                               tris=(F(0),) * 8)
    with pytest.raises(AngleStructureError):
        chi_area_curvature(fig8, outside, ac)
    with pytest.raises(AngleStructureError):
        chi_via_lemma2(fig8, outside, third)
    generalized = AngleAssignment.from_vector(2, [F(-1, 6)] + [F(1, 3)] * 11)
    basis = solution_space_basis(fig8)
    s = combine(basis, (F(1), F(0)), (F(0), F(0)))
    with pytest.raises(AngleStructureError):
        chi_via_lemma2(fig8, s, generalized)
    for wrong in (AreaCurvature.of(ac.area[:4], ac.curvature),
                  AreaCurvature.of(ac.area, ac.curvature + (F(0),))):
        with pytest.raises(AngleStructureError,
                           match="area-curvature size does not match"):
            chi_area_curvature(fig8, s, wrong)


def test_chi_via_lemma2_refuses_a_size_mismatch():
    # A 1-tet assignment would index past its angles; a 3-tet one would
    # pair its first two tets' quad areas with s and answer a number.
    fig8 = fixture("fig8").triangulation
    s = combine(solution_space_basis(fig8), [0, 1], [1, 0])
    for n in (1, 3):
        with pytest.raises(AngleStructureError, match="size does not match"):
            chi_via_lemma2(fig8, s, constant_assignment(n, F(1, 3)))


def test_json_round_trips_are_exact():
    rng = random.Random(23)
    alpha = rand_assignment(rng, 2)
    assert AngleAssignment.from_vector(
        2, unscaled(*angle_vector_from_json(angles_to_json(alpha)))) == alpha
    ac = AreaCurvature(area=tuple(F(rng.randint(-5, 5), 7) for _ in range(8)),
                       curvature=(F(1, 3), F(-2, 5)))
    assert ac_from_json(ac_to_json(ac)) == ac
    # serialized values are strings of exact fractions
    blob = angles_to_json(alpha)
    assert all(isinstance(v, str) and "/" in v for v in blob["angles"])


def test_assignment_accessors():
    alpha = AngleAssignment.from_vector(2, list(range(12)))
    assert alpha.tet_count == 2
    with pytest.raises(AngleStructureError):
        AngleAssignment.from_vector(2, [F(1)] * 7)
    # 13 angles would read as 2 tets, pass fig8's size check and index
    # past the angles; they are refused as a coordinate refuses a split
    # that is not 3n and 4n.
    with pytest.raises(AngleStructureError, match="13 angles are not 6n"):
        AngleAssignment(angles=[F(1, 3)] * 13)
