import random
from fractions import Fraction

import pytest

from oracles import scaled
from anglestruct import (AngleAssignment, NormalCoordinate, Triangulation,
                         area_of_quad, build_edge_classes,
                         build_vertex_classes, chi_star,
                         combine, compatibility_system, decompose, fixture,
                         fixture_names, is_ideal_triangulation,
                         is_in_solution_space, solution_space_basis,
                         z_functional)
from anglestruct.normal_coords import (_QUAD_AT, NormalCoordinateError,
                                       quad_type_at_arc)
from anglestruct.triangulation import EDGE_INDEX


def vertex_link_coordinate(t):
    return NormalCoordinate(quads=(Fraction(0),) * (3 * t.tet_count),
                            tris=(Fraction(1),) * (4 * t.tet_count))


def rand_omega_z(rng, n, m, lo=-6, hi=6):
    omega = tuple(Fraction(rng.randint(lo, hi), rng.randint(1, 4))
                  for _ in range(n))
    z = tuple(Fraction(rng.randint(lo, hi), rng.randint(1, 4))
              for _ in range(m))
    return omega, z


def test_quad_type_at_arc_names_the_separated_edge_pair():
    # compatibility_system reads the same quad types from the 4x4 table
    # built at import, which has no entry at a face's own vertex.
    for face in range(4):
        assert _QUAD_AT[face][face] is None
        for vertex in range(4):
            if vertex == face:
                continue
            k = EDGE_INDEX[(vertex, face)]
            assert quad_type_at_arc(face, vertex) == min(k, 5 - k)
            assert _QUAD_AT[face][vertex] == min(k, 5 - k)


def test_quad_edges_are_the_four_edges_missed_by_the_pair():
    # A quad's area sums the angles on the four edges it crosses: all but
    # the pair p, 5 - p it separates.
    rng = random.Random(3)
    alpha = AngleAssignment.from_vector(2, [
        Fraction(rng.randint(0, 12), 12) for _ in range(12)])
    for i in range(2):
        for p in range(3):
            crossed = set(range(6)) - {p, 5 - p}
            assert area_of_quad(alpha, i, p) == \
                sum(alpha.angles[6 * i + k] for k in crossed) - 2


def test_compatibility_rows_are_two_on_two_off():
    # each matching equation pairs two disk types on each side of a face
    # arc; a self-glued tet can cancel the shared quad term, leaving two
    fig8 = fixture("fig8").triangulation
    for row in compatibility_system(fig8).matrix:
        assert sorted(v for v in row if v != 0) == [-1, -1, 1, 1]
    for name, twos in (("fig8-flat1", 1), ("fig8-flat2", 2)):
        sys = compatibility_system(fixture(name).triangulation)
        shapes = [tuple(sorted(v for v in row if v != 0))
                  for row in sys.matrix]
        assert all(s in ((-1, -1, 1, 1), (-1, 1)) for s in shapes)
        assert shapes.count((-1, 1)) == twos


def test_compatibility_dimensions():
    fig8 = fixture("fig8").triangulation
    sys = compatibility_system(fig8)
    assert (len(sys.matrix), len(sys.matrix[0])) == (12, 14)
    flat1 = fixture("fig8-flat1").triangulation
    sys1 = compatibility_system(flat1)
    assert (len(sys1.matrix), len(sys1.matrix[0])) == (18, 21)


def unit(t, column):
    """The coordinate that is 1 on one disk type and 0 elsewhere."""
    vec = [0] * (7 * t.tet_count)
    vec[column] = 1
    return NormalCoordinate.from_vector(t.tet_count, vec)


def test_chi_star_disk_weights():
    # Columns are the 3n quads, then the 4n triangles, tet-major.
    fig8 = fixture("fig8").triangulation
    assert chi_star(fig8, unit(fig8, 6 + 0)) == 0              # tri 0, 0
    assert chi_star(fig8, unit(fig8, 3 + 2)) == Fraction(-1, 3)  # quad 1, 2
    one = fixture("one-tet").triangulation
    assert chi_star(one, unit(one, 3 + 3)) == 1                # tri 0, 3
    assert chi_star(one, unit(one, 0)) == 1                    # quad 0, 0


def test_basis_solutions_and_their_chi_star():
    fig8 = fixture("fig8").triangulation
    sys = compatibility_system(fig8)
    basis = solution_space_basis(fig8)
    assert len(basis.w_sigma) == 2 and len(basis.w_edge) == 2
    for w in basis.w_sigma + basis.w_edge:
        assert is_in_solution_space(sys, w)
    assert [chi_star(fig8, w) for w in basis.w_sigma] == [1, 1]
    assert [chi_star(fig8, w) for w in basis.w_edge] == [2, 2]


def test_z_functional_is_dual_to_the_edge_solutions():
    fig8 = fixture("fig8").triangulation
    basis = solution_space_basis(fig8)
    ecs = build_edge_classes(fig8)
    for j, w in enumerate(basis.w_edge):
        assert [z_functional(fig8, w, e) for e in ecs] == \
            [1 if k == j else 0 for k in range(len(ecs))]
    for w in basis.w_sigma:
        assert all(z_functional(fig8, w, e) == 0 for e in ecs)


def test_z_functional_rejects_coordinates_outside_the_space():
    fig8 = fixture("fig8").triangulation
    bad = NormalCoordinate(quads=(Fraction(1),) + (Fraction(0),) * 5,
                           tris=(Fraction(0),) * 8)
    for e in build_edge_classes(fig8):
        with pytest.raises(NormalCoordinateError):
            z_functional(fig8, bad, e)


def test_vertex_link_is_in_the_solution_space_with_frozen_decomposition():
    fig8 = fixture("fig8").triangulation
    link = vertex_link_coordinate(fig8)
    assert is_in_solution_space(compatibility_system(fig8), link)
    assert chi_star(fig8, link) == 0
    omega, z = decompose(fig8, link)
    assert omega == (-2, -2) and z == (1, 1)


def test_chi_star_of_vertex_links_equals_link_euler_everywhere():
    for name in fixture_names():
        t = fixture(name).triangulation
        total = sum(v.link_euler for v in build_vertex_classes(t))
        assert chi_star(t, vertex_link_coordinate(t)) == total, name


def test_combine_decompose_round_trip():
    rng = random.Random(41)
    for name in ("fig8", "fig8-flat1"):
        t = fixture(name).triangulation
        basis = solution_space_basis(t)
        sys = compatibility_system(t)
        n, m = len(basis.w_sigma), len(basis.w_edge)
        for _ in range(25):
            omega, z = rand_omega_z(rng, n, m)
            s = combine(basis, omega, z)
            assert is_in_solution_space(sys, s)
            assert decompose(t, s, basis) == (omega, z)


def test_is_in_solution_space_rejects_perturbed_vectors():
    fig8 = fixture("fig8").triangulation
    sys = compatibility_system(fig8)
    basis = solution_space_basis(fig8)
    w = basis.w_sigma[0]
    bumped = NormalCoordinate(
        quads=(w.quads[0] + 1,) + tuple(w.quads[1:]), tris=w.tris)
    assert not is_in_solution_space(sys, bumped)
    with pytest.raises(NormalCoordinateError,
                       match="coordinate has 21 entries, system has 14 "
                             "columns"):
        is_in_solution_space(sys, NormalCoordinate.zero(3))


def test_solution_space_basis_on_one_tet():
    # Four boundary faces, no gluing: the basis is built and verified on
    # the one path every table takes, one tetrahedral vector and one edge
    # vector per edge, each with edge coefficients delta.
    one = fixture("one-tet").triangulation
    basis = solution_space_basis(one)
    sys = compatibility_system(one)
    assert (len(basis.w_sigma), len(basis.w_edge)) == (1, 6)
    for w in basis.w_sigma + basis.w_edge:
        assert is_in_solution_space(sys, w)
    assert [[z_functional(one, w, e) for e in one.edge_classes]
            for w in basis.w_edge] == \
        [[int(j == k) for k in range(6)] for j in range(6)]
    assert all(z_functional(one, basis.w_sigma[0], e) == 0
               for e in one.edge_classes)


def test_solution_space_basis_on_a_closed_table_that_is_not_ideal():
    # One tet, faces glued in pairs, one vertex whose link is a sphere:
    # no boundary face, so the basis is built and verified, though the
    # table is not ideal.
    t = Triangulation(1, {(0, 0): (0, 1, (1, 2, 3, 0)),
                          (0, 2): (0, 3, (2, 0, 3, 1))})
    assert not t.boundary_faces() and not is_ideal_triangulation(t)
    assert [(v.link_euler, v.link_closed) for v in t.vertex_classes] == \
        [(2, True)]
    basis = solution_space_basis(t)
    sys = compatibility_system(t)
    assert (len(basis.w_sigma), len(basis.w_edge)) == \
        (1, len(t.edge_classes)) == (1, 2)
    for w in basis.w_sigma + basis.w_edge:
        assert is_in_solution_space(sys, w)
    assert [[z_functional(t, w, e) for e in t.edge_classes]
            for w in basis.w_edge] == [[1, 0], [0, 1]]
    assert all(z_functional(t, basis.w_sigma[0], e) == 0
               for e in t.edge_classes)


def test_decompose_rejects_vectors_outside_the_space():
    fig8 = fixture("fig8").triangulation
    bad = NormalCoordinate(quads=(Fraction(1),) + (Fraction(0),) * 5,
                           tris=(Fraction(0),) * 8)
    with pytest.raises(ValueError):
        decompose(fig8, bad)


def test_decompose_refuses_another_triangulations_basis():
    # fig8-flat1's basis has 3 tetrahedral vectors for fig8's 2 tets,
    # which would index past fig8's coordinate.
    fig8 = fixture("fig8").triangulation
    s = combine(solution_space_basis(fig8), [1, 2], [0, 1])
    other = solution_space_basis(fixture("fig8-flat1").triangulation)
    with pytest.raises(NormalCoordinateError,
                       match="basis has 3 tetrahedral and 2 edge vectors, "
                             "not 2 and 2"):
        decompose(fig8, s, other)


def test_normal_coordinate_arithmetic():
    # combine adds the scaled basis vectors entry by entry.
    fig8 = fixture("fig8").triangulation
    basis = solution_space_basis(fig8)
    omega, z = (Fraction(1, 2), Fraction(-3)), (Fraction(2, 3), Fraction(0))
    s = combine(basis, omega, z)
    vecs = [w.quads + w.tris for w in basis.w_sigma + basis.w_edge]
    assert s.quads + s.tris == tuple(
        sum(c * w[col] for c, w in zip(omega + z, vecs))
        for col in range(14))
    w = basis.w_edge[0]
    assert s.quads[2] == Fraction(-1, 2) + Fraction(2, 3) * w.quads[2]
    assert s.tris[4 + 3] == Fraction(-3) + Fraction(2, 3) * w.tris[4 + 3]


def test_chi_star_refuses_a_coordinate_of_another_size():
    fig8 = fixture("fig8").triangulation
    with pytest.raises(NormalCoordinateError, match="has 21 entries"):
        chi_star(fig8, NormalCoordinate.zero(3))


def test_exact_entries_are_kept():
    # ints and Fractions are the exact entries; from_vector keeps both
    # as ints over the lcm of denominators, and reads back Fractions.
    s = NormalCoordinate.from_vector(1, [0, 1, Fraction(1, 2),
                                         Fraction(-2, 3), 0, 0, 1])
    assert all(type(v) is Fraction for v in s.quads + s.tris)
    assert s._scaled == (6, (0, 6, 3, -4, 0, 0, 6))
    fig8 = fixture("fig8").triangulation
    basis = solution_space_basis(fig8)
    assert combine(basis, [1, 0], [0, Fraction(1, 2)]) == \
        combine(basis, [Fraction(1), 0], [0, Fraction(2, 4)])


def test_coordinates_built_from_ints_keep_the_scaled_form():
    # The basis vectors and combine's result are built as ints over one
    # denominator; the form they keep is scaled's, at its least
    # denominator, whatever denominator the sum was taken over.
    s = NormalCoordinate._of_scaled(12, [0, 12, 6, -8, 0, 0, 12])
    assert s._scaled == (6, (0, 6, 3, -4, 0, 0, 6))
    assert s == NormalCoordinate.from_vector(1, [0, 1, Fraction(1, 2),
                                                 Fraction(-2, 3), 0, 0, 1])
    fig8 = fixture("fig8").triangulation
    basis = solution_space_basis(fig8)
    for w in basis.w_sigma + basis.w_edge:
        assert w._scaled == scaled(w.quads + w.tris) and w._scaled[0] == 1
    for omega, z in (((Fraction(1, 2), Fraction(1, 2)), (0, 0)),
                     ((Fraction(1, 6), 0), (Fraction(-1, 4), Fraction(1, 3))),
                     ((0, 0), (0, 0))):
        s = combine(basis, omega, z)
        assert s._scaled == scaled(s.quads + s.tris)
        assert decompose(fig8, s, basis) == (omega, z)


@pytest.mark.parametrize("omega,z,name,got,want", [
    ([1], [0, 0], "omega", 1, 4),
    ([1, 0, 0, 0, 0], [0, 0], "omega", 5, 4),
    ([1, 0, 0, 0], [0], "z", 1, 2),
    ([1, 0, 0, 0], [0, 0, 1], "z", 3, 2),
])
def test_combine_refuses_weights_of_the_wrong_length(omega, z, name, got,
                                                     want):
    basis = solution_space_basis(fixture("fig8-flat2").triangulation)
    with pytest.raises(NormalCoordinateError,
                       match="combine %s has %d weights for %d vectors"
                       % (name, got, want)):
        combine(basis, omega, z)


def test_normal_coordinate_refuses_a_split_other_than_3n_and_4n():
    with pytest.raises(NormalCoordinateError,
                       match="5 quads and 9 triangles are not 3n and 4n"):
        NormalCoordinate(quads=(Fraction(0),) * 5, tris=(Fraction(0),) * 9)
    with pytest.raises(NormalCoordinateError):
        NormalCoordinate(quads=(Fraction(0),) * 6, tris=(Fraction(0),) * 9)
    with pytest.raises(NormalCoordinateError,
                       match="expected 14 coordinates, got 13"):
        NormalCoordinate.from_vector(2, [0] * 13)


def test_z_functional_refuses_an_edge_of_another_triangulation():
    fig8 = fixture("fig8").triangulation
    link = vertex_link_coordinate(fig8)
    other = build_edge_classes(fixture("fig8-flat2").triangulation)[0]
    for e in (0, other):
        with pytest.raises(NormalCoordinateError,
                           match="not an edge class of the triangulation"):
            z_functional(fig8, link, e)
