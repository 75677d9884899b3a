"""Property tests over generated gluing tables of 1-4 tetrahedra.

Each table pairs the 4n face slots at random and glues each pair by a
random permutation carrying one face to the other, so folded edges,
self-glued tetrahedra and non-manifold vertex links all occur.  Up to
two of the pairs are then left unglued, which gives boundary faces.
Every table checks its edge classes, vertex links and orientability
against oracles that read the gluings directly, the corner order of
each edge class against a step-by-step walk, and the angle system
against a dense build, cell by cell.  The finders, which solve the
smaller system over opposite-edge pairs, must agree with the full one on
every table, in both modes and with and without caps: each refutation
verifies as a certificate over the full rows, and each assignment
realizes its target.  One-tetrahedron tables also check the semi and
strict solvers against brute-force enumeration.  Every table, boundary
faces included, checks the quad-slice certification, which projects the
triangle columns away, against the unprojected program with each
triangle column split in two, and the canonical basis: it verifies,
decompose undoes combine, and chi^(A,k) equals its Lemma 2 form.  The
angle systems of every table, in both modes, and the quad-slice program, from
the slice's known point, are also solved over the Fraction tableau,
which must take the same pivots and give the same results.
Every table also checks the integer normal-coordinate kernels
(membership, crossing weights, edge coefficients, z and chi*) against
their Fraction formulas, on a point of the solution space and on a
point bumped off it, chi^(A,k) on the first against its defining sum,
and the quad-area tally against the oracle's.  A second test checks, on
each table, the finders' re-verification of an assignment, which sums
scaled angles against int targets, against the Fraction sums and
bounds it stands for, and that LinearSystem.of gives one system, with
one answer, from ints and from equal Fractions.  A third checks, on
closed tables, tables with boundary and tables with a folded edge, of
up to 8 tetrahedra, that each edge class is stored as the least of all
its readings, and that it lists each corner mult times, mult 1 or 2,
and 2 exactly on the tet-edges the union-find oracle finds folded.  A
fourth checks the int decompose, membership and Theorem 3 against their
Fraction oracles on fig8 with 1 to 6 stacked
flat tetrahedra and on closed tables, folded edges included: a combined
point and that point bumped at one disk type, and a flat pair built
from strict host tetrahedra and flat ones.  A fifth checks, on closed
tables and tables with boundary of up to 8 tetrahedra, on every fixture
and on two hand-built tables, that the vertex-link forest's projection
gives the quad rows and rank of a generic elimination with the triangle
columns first, and that the int witness it sets along the forest equals
that elimination's Fraction back-substitution.  A sixth checks the
table-driven membership and edge tally against their oracles on
tables with boundary faces, with folded edges and on one tet with no
face glued, whose arc table is empty, and a seventh z, the tally and
decompose on the two one-tet tables with a single edge class, one of
them folded.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from oracles import scaled
from anglestruct import (AngleAssignment, AreaCurvature, ExistenceError,
                         Fails, LinearSystem, NormalCoordinate, Solution,
                         Triangulation,
                         angle_linear_system, build_edge_classes,
                         certify_condition2, chi_area_curvature,
                         chi_star, chi_via_lemma2, classify, combine,
                         compatibility_system, decompose,
                         find_angle_structure, find_semi_angle_structure,
                         fixture, fixture_names, insert_flat_tetrahedron,
                         is_flat_pair, is_in_solution_space, is_orientable,
                         realized_area_curvature, solution_space_basis,
                         solve_feasibility_nonneg, solve_feasibility_strict,
                         verify_certificate, z_functional)
from anglestruct import existence
from anglestruct.angle_structures import _quad_areas
from anglestruct.normal_coords import (_CROSSING, NormalCoordinateError,
                                       _edge_sums, _from_slice, _quad_slice)
from anglestruct.perturbation import (PerturbationError, apply_theorem3,
                                      max_perturbation_parameter)


@st.composite
def gluing_tables(draw, tets=st.integers(1, 4),
                  unglued_pairs=st.integers(0, 2)):
    n = draw(tets)
    slots = draw(st.permutations([(i, f) for i in range(n)
                                  for f in range(4)]))
    unglued = 2 * draw(unglued_pairs)
    gluings = {}
    for (i, f), (j, g) in zip(slots[unglued::2], slots[unglued + 1::2]):
        images = draw(st.permutations([w for w in range(4) if w != g]))
        perm = [g] * 4
        for v, w in zip((v for v in range(4) if v != f), images):
            perm[v] = w
        gluings[(i, f)] = (j, g, tuple(perm))
    return Triangulation(n, gluings)


# Up to 8 tetrahedra, for longer edge cycles than the tables above.
TABLE_KINDS = {
    "closed": gluing_tables(st.integers(1, 8), st.just(0)),
    "boundary": gluing_tables(st.integers(1, 8), st.integers(1, 3)),
    "folded": gluing_tables(st.integers(1, 8)).filter(
        oracles.has_folded_edge),
}


@pytest.mark.parametrize("kind", TABLE_KINDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_edge_classes_are_their_least_readings(kind, data):
    t = data.draw(TABLE_KINDS[kind])
    assert [(e.index, e.corners, e.is_boundary)
            for e in build_edge_classes(t)] == [
        (n, corners, boundary) for n, (corners, boundary)
        in enumerate(oracles.least_edge_readings(t))]


@pytest.mark.parametrize("kind", TABLE_KINDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_class_lists_each_corner_mult_times(kind, data):
    # A walk meets a corner again only reversed, and then every corner of
    # its class: a class is folded all through, mult 2, or not at all,
    # as the union-find oracle of folded tet-edges finds it.
    t = data.draw(TABLE_KINDS[kind])
    folded = oracles.folded_tet_edges(t)
    for e in t.edge_classes:
        assert e.mult in (1, 2)
        assert set(Counter(e.corners).values()) == {e.mult}
        assert {c in folded for c in e.corners} == {e.mult == 2}


def _check_projection(t, more_quads):
    # The vertex-link forest's projection must give, row for row and in
    # the order found, the quad-led rows of the generic elimination with
    # the triangle columns first, and its rank.  On the slice's known
    # point, whose witness lies in the solution space, and on any
    # rational quads, _from_slice, given their scaled form, must give the
    # coordinate the Fraction back-substitution over that elimination
    # gives, with its scaled form kept.
    csys = t.compatibility_system
    rows, _, point = _quad_slice(csys)
    assert ([dict(row) for row in rows[:-1]], csys.rank) == \
        oracles.quad_rows(csys)
    for quads in (point, more_quads):
        w = _from_slice(csys, scaled(quads))
        assert w == oracles.from_slice(csys, quads)
        assert w._scaled == scaled(w.quads + w.tris)
    assert is_in_solution_space(csys, _from_slice(csys, scaled(point)))


@pytest.mark.parametrize("kind", ["closed", "boundary"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_slice_witness_in_ints_equals_the_fraction_one(kind, data):
    t = data.draw(TABLE_KINDS[kind])
    _check_projection(t, data.draw(rationals(3 * t.tet_count)))


# One tet with face 0 glued to face 1 by 1023: the arcs at vertices 2
# and 3 have both triangles in one column.  Two tets glued only along
# face 0: corners (0, 0) and (1, 0) touch no arc.
HAND_BUILT = {
    "self-glued": Triangulation(1, {(0, 0): (0, 1, (1, 0, 2, 3))}),
    "one-face": Triangulation(2, {(0, 0): (1, 0, (0, 1, 2, 3))}),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT) + list(fixture_names()))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_projection_equals_the_triangles_first_elimination(name, data):
    t = HAND_BUILT[name] if name in HAND_BUILT \
        else fixture(name).triangulation
    _check_projection(t, data.draw(rationals(3 * t.tet_count)))


def rationals(count):
    return st.lists(st.builds(Fraction, st.integers(-6, 6),
                              st.integers(1, 4)),
                    min_size=count, max_size=count).map(tuple)


def _check_tally(t, s):
    # The crossing columns the tally table gathers, tet-edge by
    # tet-edge, and the edge tally summed over them, against the
    # Fraction formulas.
    n = t.tet_count
    den, nums = s._scaled
    assert [Fraction(sum(nums[3 * n + 4 * i + u] for u in ends) +
                     sum(nums[3 * i + p] for p in quads), den)
            for i in range(n) for ends, quads in _CROSSING] == \
        [oracles.crossing_weight(s, i, k) for i in range(n) for k in range(6)]
    v, ints = _edge_sums(nums, t._edge_tally)
    assert [Fraction(x, 2 * v * den) for x in ints] == \
        [oracles.edge_coefficient(s, e) for e in t.edge_classes]


# One tet with no face glued: the compatibility system has no arc.
UNGLUED = Triangulation(1)


@pytest.mark.parametrize("kind", ["unglued", "boundary", "folded"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_kernels_equal_the_fraction_oracles(kind, data):
    # Membership, over the arc table, and the edge tally, over the table
    # t keeps, against the oracles on a point of the solution space and
    # on that point bumped at one disk type; z at each class, which
    # reads that class's row of the table alone.  An unglued tet has an
    # empty arc table, where every coordinate is a member.
    t = UNGLUED if kind == "unglued" else data.draw(TABLE_KINDS[kind])
    n = t.tet_count
    csys = t.compatibility_system
    assert len(csys.arcs) == 3 * len(t.glued_pairs())
    null = oracles.nullspace(csys.matrix) if csys.arcs else \
        [[int(c == d) for c in range(7 * n)] for d in range(7 * n)]
    weights = data.draw(rationals(len(null)))
    inside = NormalCoordinate.from_vector(n, [
        sum((w * v[c] for w, v in zip(weights, null)), Fraction(0))
        for c in range(7 * n)])
    bumped = list(inside.quads + inside.tris)
    bumped[data.draw(st.integers(0, 7 * n - 1))] += 1
    outside = NormalCoordinate.from_vector(n, bumped)
    assert is_in_solution_space(csys, inside)
    for s in (inside, outside):
        assert is_in_solution_space(csys, s) == \
            oracles.in_solution_space(t, s)
        _check_tally(t, s)
    for e in t.edge_classes:
        assert z_functional(t, inside, e) == \
            oracles.edge_coefficient(inside, e)


# One tet, faces glued in pairs, all six tet-edges in one edge class:
# of valence 6, and folded, of valence 12.
ONE_CLASS = {
    "valence-6": Triangulation(1, {(0, 3): (0, 0, (1, 3, 2, 0)),
                                   (0, 2): (0, 1, (2, 0, 1, 3))}),
    "folded": Triangulation(1, {(0, 0): (0, 1, (1, 2, 0, 3)),
                                (0, 3): (0, 2, (3, 0, 1, 2))}),
}


@pytest.mark.parametrize("name", sorted(ONE_CLASS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_z_on_the_one_edge_class(name, data):
    # The tally has one row, which z reads as the whole table; its
    # edge vector has z = 1, and a combined point the oracle's z.
    t = ONE_CLASS[name]
    (e,) = t.edge_classes
    assert (e.valence, e.mult) == ((6, 1) if name == "valence-6" else (12, 2))
    basis = t.solution_basis
    assert z_functional(t, basis.w_edge[0], e) == 1
    assert z_functional(t, basis.w_sigma[0], e) == 0
    omega, z = data.draw(rationals(1)), data.draw(rationals(1))
    s = combine(basis, omega, z)
    assert z_functional(t, s, e) == oracles.edge_coefficient(s, e) == z[0]
    assert decompose(t, s) == (omega, z)
    _check_tally(t, s)


# No shrink phase: each shrink candidate reruns the whole body, oracles
# included, so shrinking a failing table takes minutes; the first
# failing table is reported as drawn.
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_combinatorics_basis_and_chi_on_generated_tables(data):
    t = data.draw(gluing_tables())
    n = t.tet_count
    # A folded edge passes a corner twice and counts it twice.
    folded = [c for e in t.edge_classes for c in set(e.corners)
              if e.corners.count(c) == 2]
    assert sum(e.valence for e in t.edge_classes) == 6 * n + len(folded)
    assert bool(folded) == oracles.has_folded_edge(t)
    assert sorted(tuple(sorted(set(e.corners))) for e in t.edge_classes) \
        == oracles.union_find_edge_partition(t)
    corners = sorted(c for v in t.vertex_classes for c in v.corners)
    assert corners == [(i, v) for i in range(n) for v in range(4)]
    for v in t.vertex_classes:
        assert v.link_euler == oracles.link_euler_oracle(t, v.corners)
        assert v.link_orientable == \
            oracles.link_orientable_oracle(t, v.corners)
        assert v.link_closed == all(t.gluing(i, f) is not None
                                    for i, l in v.corners
                                    for f in range(4) if f != l)
    assert is_orientable(t) == oracles.orientable_oracle(t)
    for e in t.edge_classes:
        assert oracles.is_edge_walk(t, e)

    csys = t.compatibility_system
    assert csys == compatibility_system(t)
    rows = oracles.compatibility_rows(csys)
    assert len(rows) == 3 * len(t.glued_pairs())
    for row, dense in zip(rows, csys.matrix):
        assert dict(row) == {c: v for c, v in enumerate(dense) if v}
    assert csys.rank == oracles._rank(csys.matrix)
    # -W_sigma_0 / 3 lies in the quad slice, so the slice is never empty.
    third = NormalCoordinate(
        quads=(Fraction(1, 3),) * 3 + (Fraction(0),) * (3 * n - 3),
        tris=(Fraction(-1, 3),) * 4 + (Fraction(0),) * (4 * n - 4))
    assert is_in_solution_space(csys, third)
    assert min(third.quads) >= 0 and sum(third.quads) == 1
    # The integer kernels against the Fraction formulas, on a rational
    # point of the solution space and on that point bumped at one disk
    # type, boundary faces and folded edges included.
    null = oracles.nullspace(csys.matrix)
    weights = data.draw(rationals(len(null)))
    inside = NormalCoordinate.from_vector(n, [
        sum((w * v[c] for w, v in zip(weights, null)), Fraction(0))
        for c in range(7 * n)])
    bumped = list(inside.quads + inside.tris)
    bumped[data.draw(st.integers(0, 7 * n - 1))] += data.draw(
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
    outside = NormalCoordinate.from_vector(n, bumped)
    assert oracles.in_solution_space(t, inside)
    for s in (inside, outside):
        assert is_in_solution_space(csys, s) == \
            oracles.in_solution_space(t, s)
        _check_tally(t, s)
        assert chi_star(t, s) == oracles.chi_star(t, s)
    assert [z_functional(t, inside, e) for e in t.edge_classes] == \
        [oracles.edge_coefficient(inside, e) for e in t.edge_classes]
    # The angle system's sparse rows against a dense build, once without
    # and once with the cap rows that a positive area adds.
    area = data.draw(rationals(4 * n))
    curvature = data.draw(rationals(len(t.edge_classes)))
    # chi^(A,k) at the point of the solution space against the sum it
    # stands for, half the triangle pairing plus z_j kappa_j, folded
    # edges and boundary edges included.
    assert chi_area_curvature(t, inside, AreaCurvature.of(area, curvature)) \
        == sum(y * a for y, a in zip(inside.tris, area)) / 2 + sum(
            oracles.edge_coefficient(inside, e) * curvature[e.index]
            for e in t.edge_classes)
    # Each is also solved, and the integer tableau must take the pivots
    # of the Fraction one.
    targets = [AreaCurvature.of(target, curvature) for target in
               ([-abs(a) for a in area], [abs(a) + 1 for a in area])]
    feasible = {}
    with oracles.same_pivots() as statuses:
        for ac in targets:
            for mode, solve in (("semi", solve_feasibility_nonneg),
                                ("strict", solve_feasibility_strict)):
                sys = angle_linear_system(t, ac, mode)
                assert (sys.coeffs, sys.rhs, sys.signs) == \
                    oracles.angle_system_dense(t, ac, mode)
                feasible[ac, mode] = isinstance(solve(sys), Solution)
    assert len(statuses) == 4
    # The finders solve the pair system, also on both tableaus, and must
    # agree with the full system: a refutation is a certificate over its
    # rows, and an assignment realizes the target.  The data realized by
    # strict angles, often with a positive area, is realizable in both
    # modes.
    realized = realized_area_curvature(AngleAssignment.from_vector(
        n, [Fraction(a, 36) for a in data.draw(
            st.lists(st.integers(1, 35), min_size=6 * n, max_size=6 * n))]),
        t)
    feasible[realized, "semi"] = feasible[realized, "strict"] = True
    with oracles.same_pivots() as statuses:
        for ac in (*targets, realized):
            for mode, find in (("semi", find_semi_angle_structure),
                               ("strict", find_angle_structure)):
                res = find(t, ac)
                assert isinstance(res, AngleAssignment) == feasible[ac, mode]
                if isinstance(res, AngleAssignment):
                    assert realized_area_curvature(res, t) == ac
                    assert classify(res) in (
                        ("strict",) if mode == "strict"
                        else ("semi", "strict"))
                else:
                    assert verify_certificate(
                        angle_linear_system(t, ac, mode), res.y)
    # A target that breaks the summed Gauss-Bonnet identity on a closed
    # table is refused in closed form, with no LP; a realized one never.
    assert not oracles.breaks_summed_identity(t, realized)
    assert len(statuses) == 2 * sum(
        not oracles.breaks_summed_identity(t, ac) for ac in (*targets,
                                                             realized))

    if n == 1:
        # Brute force enumerates bases, so it stays at one tetrahedron.
        # Angles in [0, 1/3] give areas <= 0; curvature 2 on every edge
        # then gives a target no semi assignment realizes.
        thirds = data.draw(st.lists(st.integers(0, 12), min_size=6,
                                    max_size=6))
        ac = realized_area_curvature(AngleAssignment.from_vector(
            1, [Fraction(a, 36) for a in thirds]), t)
        for target in (ac, AreaCurvature.of(ac.area,
                                            [2] * len(t.edge_classes))):
            semi = find_semi_angle_structure(t, target)
            strict = find_angle_structure(t, target)
            assert isinstance(semi, AngleAssignment) == oracles.bf_feasible(
                angle_linear_system(t, target, "semi"))
            assert isinstance(strict, AngleAssignment) == \
                oracles.bf_strict_feasible(
                    angle_linear_system(t, target, "strict"))

    angles = data.draw(st.lists(st.integers(0, 36), min_size=6 * n,
                                max_size=6 * n))
    alpha = AngleAssignment.from_vector(n, [Fraction(a, 36)
                                            for a in angles])
    den, areas = _quad_areas(alpha)
    assert [Fraction(a, den) for a in areas] == oracles.quad_areas(alpha, n)
    # certify_condition2 projects the triangle columns away; the oracle
    # keeps them, each split into a nonnegative pair.  Its one LP starts
    # from the slice's known point on both tableaus, which must take the
    # same phase-1 pivots over that point's support and the same phase-2
    # pivots.
    with oracles.same_pivots() as statuses:
        cert = certify_condition2(t, alpha)
    assert len(statuses) == 1
    raw_max = oracles.quad_slice_max(t, alpha)
    assert isinstance(cert, Fails) == (raw_max >= 0)
    assert cert.optimum == raw_max / 2
    if isinstance(cert, Fails):
        w = cert.witness
        assert is_in_solution_space(t.compatibility_system, w)
        assert all(v >= 0 for v in w.quads) and sum(w.quads) == 1
        assert sum(a * v for a, v in zip(oracles.quad_areas(alpha, n),
                                         w.quads)) == raw_max

    # The basis holds on every table, folded edges and boundary faces
    # included.
    basis = solution_space_basis(t)
    omega = data.draw(rationals(n))
    z = data.draw(rationals(len(t.edge_classes)))
    s = combine(basis, omega, z)
    assert decompose(t, s, basis) == (omega, z)
    ac = realized_area_curvature(alpha, t)
    assert chi_area_curvature(t, s, ac) == chi_via_lemma2(t, s, alpha)


@settings(max_examples=50, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_int_checks_and_int_systems_agree_with_fractions(data):
    # The finders' re-verification sums scaled angles against the int
    # targets: it must accept exactly the assignments whose realized data,
    # summed as Fractions, is the target and whose angles lie in the
    # mode's bounds, for a realizing assignment and for one with an angle
    # moved, against the realized target and against one with an entry
    # moved.  realized_area_curvature and classify, which read the same
    # scaled angles, must agree with those Fraction sums and bounds, and
    # so must is_flat_pair on semi assignments, which compares the same
    # int corner sums with den.  A third assignment has each tet either
    # alpha's scaled by 1/3 (corner sums at most pi) or with one opposite
    # pair at pi and the rest at 0 (every corner (0, 0, pi)) or that pair
    # at 0 and the rest at pi/2 (every corner (0, pi/2, pi/2)).
    t = data.draw(gluing_tables())
    n = t.tet_count
    m = len(t.edge_classes)
    alpha = AngleAssignment.from_vector(n, [
        Fraction(a, 36) for a in data.draw(
            st.lists(st.integers(0, 36), min_size=6 * n, max_size=6 * n))])
    bump = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)).map(
        lambda v: v * data.draw(st.sampled_from((-1, 1))))
    angles = list(alpha.angles)
    angles[data.draw(st.integers(0, 6 * n - 1))] += data.draw(bump)
    moved = AngleAssignment.from_vector(n, angles)
    realized = realized_area_curvature(alpha, t)
    data_moved = list(realized.area + realized.curvature)
    data_moved[data.draw(st.integers(0, 4 * n + m - 1))] += data.draw(bump)
    shapes = [None] + [(p, on, off) for p in range(3)
                       for on, off in ((1, 0), (0, Fraction(1, 2)))]
    tets = data.draw(st.lists(st.sampled_from(shapes),
                              min_size=n, max_size=n))
    flat = AngleAssignment.from_vector(n, [
        a / 3 if shape is None else
        shape[1] if k in (shape[0], 5 - shape[0]) else shape[2]
        for i, shape in enumerate(tets)
        for k, a in enumerate(alpha.angles[6 * i:6 * i + 6])])
    within = {"semi": lambda a: 0 <= a <= 1, "strict": lambda a: 0 < a < 1}
    for beta in (alpha, moved, flat):
        area, curvature = oracles.realized_data(t, beta)
        assert realized_area_curvature(beta, t) == \
            AreaCurvature.of(area, curvature)
        assert classify(beta) == next(
            (mode for mode in ("strict", "semi")
             if all(map(within[mode], beta.angles))), "generalized")
        if all(map(within["semi"], beta.angles)):
            assert is_flat_pair(beta, t) == oracles.flat_pair(t, beta)
    for ac in (realized, AreaCurvature.of(data_moved[:4 * n],
                                          data_moved[4 * n:])):
        targets = existence._targets(t, ac)
        for mode in within:
            for beta in (alpha, moved):
                area, curvature = oracles.realized_data(t, beta)
                expect = (area, curvature) == \
                    (list(ac.area), list(ac.curvature)) and \
                    all(map(within[mode], beta.angles))
                try:
                    existence._check_realization(t, targets, beta, mode)
                except ExistenceError as err:
                    assert "failed re-verification" in str(err)
                    assert not expect
                else:
                    assert expect
    # LinearSystem.of holds one int form: the angle system, built from
    # ints over the targets' denominator, equals the system given as the
    # equal Fractions and as its int rows with the rhs written over a
    # multiple of that denominator, and the solvers answer the
    # Fraction-built one as they answer it.
    for mode, solve in (("semi", solve_feasibility_nonneg),
                        ("strict", solve_feasibility_strict)):
        sys = angle_linear_system(t, realized, mode)
        den, rows = sys.scaled_rows
        bden, b = sys.scaled_rhs
        assert den == 1
        k = data.draw(st.integers(2, 5))
        built = LinearSystem.of([[(c, Fraction(v)) for c, v in row]
                                 for row in rows],
                                [Fraction(v, bden) for v in b], sys.signs)
        over_k = [Fraction(k * v, k * bden) for v in b]
        for other in (built, LinearSystem.of(rows, over_k, sys.signs)):
            assert other == sys
            assert (oracles.fraction_rows(other), other.rhs) == \
                (oracles.fraction_rows(sys), sys.rhs)
        assert solve(built) == solve(sys)


def stacked_flat_table(k: int) -> Triangulation:
    """fig8 with k flat tetrahedra stacked by the fig8-flat2 recipe."""
    t, flat = insert_flat_tetrahedron(fixture("fig8").triangulation,
                                      (0, 0), (1, 0), (0, 1, 3, 2))
    for _ in range(k - 1):
        t, flat = insert_flat_tetrahedron(t, (0, 0), (flat.tet, 3),
                                          (3, 0, 2, 1))
    return t


KERNEL_TABLES = {"flat%d" % k: st.just(k).map(stacked_flat_table)
                 for k in range(1, 7)}
KERNEL_TABLES["closed"] = gluing_tables(st.integers(1, 4), st.just(0))


@pytest.mark.parametrize("kind", KERNEL_TABLES)
@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_int_decompose_membership_and_theorem3_agree_with_fractions(kind,
                                                                    data):
    # Membership and decompose, on a combined point and on that point
    # bumped at one disk type, which leaves the solution space; the
    # scaled form a combination keeps is the one scaled would give.
    t = data.draw(KERNEL_TABLES[kind])
    n = t.tet_count
    basis = solution_space_basis(t)
    omega = data.draw(rationals(n))
    z = data.draw(rationals(len(basis.w_edge)))
    s = combine(basis, omega, z)
    assert list(s.quads + s.tris) == oracles.combine(basis, omega, z)
    assert s._scaled == scaled(s.quads + s.tris)
    bumped = list(s.quads + s.tris)
    bumped[data.draw(st.integers(0, 7 * n - 1))] += data.draw(
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
    outside = NormalCoordinate.from_vector(n, bumped)
    for x in (s, outside):
        member = oracles.in_solution_space(t, x)
        assert is_in_solution_space(t.compatibility_system, x) == member
        try:
            got = decompose(t, x, basis)
        except NormalCoordinateError:
            got = None
        assert got == oracles.decompose(t, x, basis)
    assert decompose(t, s, basis) == (omega, z)
    # Theorem 3 on a flat pair: each host tetrahedron has angles in
    # [1/36, 11/36], so every corner has negative area, and each flat one
    # has pi on one opposite pair and 0 elsewhere.  On a closed table the
    # flat ones are drawn, and an edge class may have no angle in (0, pi).
    if kind == "closed":
        flat = [i for i in range(n) if data.draw(st.booleans())]
    else:
        flat = range(2, n)
    pairs = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    host = data.draw(st.lists(st.integers(1, 11), min_size=6 * n,
                              max_size=6 * n))
    alpha = AngleAssignment.from_vector(n, [
        Fraction(k in (pairs[i], 5 - pairs[i])) if i in flat
        else Fraction(host[6 * i + k], 36)
        for i in range(n) for k in range(6)])
    assert oracles.flat_pair(t, alpha)
    expect = oracles.theorem3(t, alpha)
    try:
        res = apply_theorem3(alpha, t)
    except PerturbationError as err:
        assert expect is None and "no angle in (0, pi)" in str(err)
        return
    coeffs, t_max, angles = expect
    assert res.family.coeffs == tuple(coeffs)
    assert res.t_max == max_perturbation_parameter(res.family) == t_max
    assert res.assignment.angles == tuple(angles)
    assert res.assignment._scaled == scaled(angles)
