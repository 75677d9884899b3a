import random
from fractions import Fraction

import pytest

import oracles
from oracles import scaled
from anglestruct import (AngleAssignment, AreaCurvature, Certificate,
                         ExistenceError, Fails, Holds, Triangulation,
                         angle_linear_system, build_edge_classes,
                         certify_condition2, check_corollary2,
                         chi_area_curvature, chi_star, chi_via_lemma2,
                         classify, find_angle_structure,
                         find_semi_angle_structure, fixture, fixture_names,
                         identity_4_9, parse_triangulation,
                         realized_area_curvature, verify_certificate)
from anglestruct import existence, lp_core
from anglestruct.fixtures import FIG8_TABLE
from anglestruct.lp_core import (NONNEG, STRICT_POS, Infeasible, LinearSystem,
                                 LPError, Solution)

F = Fraction


def zero_ac(t):
    n = t.tet_count
    m = len(build_edge_classes(t))
    return AreaCurvature(area=(F(0),) * (4 * n), curvature=(F(0),) * m)


def test_angle_system_shape_and_targets_on_fig8():
    fig8 = fixture("fig8").triangulation
    asys = angle_linear_system(fig8, zero_ac(fig8), "semi")
    assert (len(asys.coeffs), len(asys.coeffs[0])) == (10, 12)
    # corner targets: zero triangle area lifts to a half-turn; interior
    # edge targets: zero curvature lifts to a full turn
    assert asys.rhs[:8] == (F(1),) * 8
    assert asys.rhs[8:] == (F(2),) * 2
    for j in range(12):
        col = [asys.coeffs[r][j] for r in range(10)]
        assert sum(col) == 3 and set(col) <= {F(0), F(1)}
        assert sum(col[:8]) == 2 and sum(col[8:]) == 1


def test_angle_system_boundary_edge_targets():
    one = fixture("one-tet").triangulation
    asys = angle_linear_system(one, zero_ac(one), "semi")
    # all six edge classes are boundary, so the edge targets sit at a
    # half-turn rather than a full turn
    assert asys.rhs[4:] == (F(1),) * 6
    a_flat = AreaCurvature(area=(F(-1, 2),) * 4,
                           curvature=(F(1, 4),) * 6)
    asys2 = angle_linear_system(one, a_flat, "semi")
    assert asys2.rhs[:4] == (F(1, 2),) * 4
    assert asys2.rhs[4:] == (F(3, 4),) * 6


def test_angle_system_rejects_mismatched_dimensions():
    fig8 = fixture("fig8").triangulation
    with pytest.raises(ExistenceError):
        angle_linear_system(fig8, AreaCurvature(area=(F(0),) * 3,
                                                curvature=(F(0),) * 2),
                            "semi")


def test_angle_linear_system_modes_and_capping():
    fig8 = fixture("fig8").triangulation
    plain = angle_linear_system(fig8, zero_ac(fig8), "semi")
    assert plain.col_count == 12 and set(plain.signs) == {NONNEG}
    strict = angle_linear_system(fig8, zero_ac(fig8), "strict")
    assert set(strict.signs) == {STRICT_POS}
    # positive areas force explicit per-angle caps, doubling the columns
    pos = AreaCurvature(area=(F(1, 2),) * 8, curvature=(F(0),) * 2)
    capped = angle_linear_system(fig8, pos, "semi")
    assert capped.col_count == 24
    assert len(capped.coeffs) == 10 + 12
    with pytest.raises(ExistenceError):
        angle_linear_system(fig8, zero_ac(fig8), "maybe")


def test_an_unknown_mode_is_refused_where_it_would_become_a_sign():
    # The targets are the same in both modes; _system, which turns the
    # mode into the columns' sign, refuses any other, capped or not.
    fig8 = fixture("fig8").triangulation
    pos = AreaCurvature(area=(F(1, 2),) * 8, curvature=(F(0),) * 2)
    for ac in (zero_ac(fig8), pos):
        with pytest.raises(ExistenceError,
                           match=r"^unknown solve mode 'bogus'$"):
            angle_linear_system(fig8, ac, "bogus")


def test_find_semi_and_strict_on_fig8_zero_target():
    fig8 = fixture("fig8").triangulation
    ac = zero_ac(fig8)
    semi = find_semi_angle_structure(fig8, ac)
    assert isinstance(semi, AngleAssignment)
    assert classify(semi) in ("semi", "strict")
    assert realized_area_curvature(semi, fig8) == ac
    strict = find_angle_structure(fig8, ac)
    assert isinstance(strict, AngleAssignment)
    assert classify(strict) == "strict"
    assert realized_area_curvature(strict, fig8) == ac
    # the all-third assignment shows the polytope really contains the
    # textbook point; the solver need not return it
    third = AngleAssignment.from_vector(2, [F(1, 3)] * 12)
    assert realized_area_curvature(third, fig8) == ac


def test_find_rejects_impossible_curvature_with_certificates():
    fx = fixture("fig8-infeasible")
    t, ac = fx.triangulation, fx.ac
    semi = find_semi_angle_structure(t, ac)
    assert isinstance(semi, Certificate)
    assert verify_certificate(angle_linear_system(t, ac, "semi"), semi.y)
    strict = find_angle_structure(t, ac)
    assert isinstance(strict, Certificate)
    assert verify_certificate(angle_linear_system(t, ac, "strict"),
                              strict.y)


def test_flat_fixture_target_has_both_kinds_of_realization():
    # the stored flat assignment realizes the target with 0 and half-turn
    # angles, but the same target also has a strict realization: the zero
    # triangle areas only pin corner sums, not individual angles
    fx = fixture("fig8-flat1")
    t, ac = fx.triangulation, fx.ac
    assert classify(fx.angles) == "semi"
    assert realized_area_curvature(fx.angles, t) == ac
    semi = find_semi_angle_structure(t, ac)
    assert isinstance(semi, AngleAssignment)
    assert realized_area_curvature(semi, t) == ac
    strict = find_angle_structure(t, ac)
    assert isinstance(strict, AngleAssignment)
    assert classify(strict) == "strict"
    assert realized_area_curvature(strict, t) == ac


@pytest.mark.parametrize("name, refused, corners",
                         (("fig8-flat1", 4, 12), ("fig8-flat2", 8, 16),
                          ("fig8-qzero", 8, 8)))
def test_fixture_targets_need_no_per_corner_link_rule(name, refused,
                                                      corners):
    # A rule asking each corner at a torus link for area 0, and each at a
    # link of negative Euler characteristic for area below 0, would
    # refuse these corners.  The paper sets no such rule: the stored
    # angles realize the fixture's own target, and the semi finder
    # realizes it too.
    fx = fixture(name)
    t, ac = fx.triangulation, fx.ac
    assert realized_area_curvature(fx.angles, t) == ac
    euler = {c: cls.link_euler for cls in t.vertex_classes
             for c in cls.corners}
    off = [c for c, a in enumerate(ac.area)
           if (a != 0 if euler[divmod(c, 4)] == 0 else a >= 0)]
    assert (len(off), len(ac.area)) == (refused, corners)
    semi = find_semi_angle_structure(t, ac)
    assert isinstance(semi, AngleAssignment)
    assert realized_area_curvature(semi, t) == ac


def test_positive_area_targets_are_still_decided():
    # a target beyond the usual hypothesis: every triangle area +1/2,
    # realizable only with some angle above a half-turn, and the capped
    # system still answers exactly
    fig8 = fixture("fig8").triangulation
    ac = AreaCurvature(area=(F(1, 2),) * 8, curvature=(F(0),) * 2)
    res = find_semi_angle_structure(fig8, ac)
    if isinstance(res, AngleAssignment):
        assert realized_area_curvature(res, fig8) == ac
        assert all(0 <= v <= 1 for v in res.angles)
    else:
        assert verify_certificate(
            angle_linear_system(fig8, ac, "semi"), res.y)


def test_finders_solve_one_column_per_opposite_edge_pair(monkeypatch):
    # n + m rows over 3n pair columns; a positive area adds 3n cap rows
    # and 3n slack columns.  fig8 has n = m = 2, one-tet n = 1, m = 6.
    from anglestruct import existence
    shapes = []
    for name in ("solve_feasibility_nonneg", "solve_feasibility_strict"):
        def spy(sys, solve=getattr(existence, name)):
            shapes.append((sys.row_count, sys.col_count, set(sys.signs)))
            return solve(sys)
        monkeypatch.setattr(existence, name, spy)
    fig8 = fixture("fig8").triangulation
    one = fixture("one-tet").triangulation
    # Areas of both signs summing to 0 keep fig8's summed Gauss-Bonnet
    # identity, so the capped target reaches the LP.
    pos = AreaCurvature(area=(F(1, 2), F(-1, 2)) * 4, curvature=(F(0),) * 2)
    for t, ac in ((fig8, zero_ac(fig8)), (fig8, pos), (one, zero_ac(one))):
        find_semi_angle_structure(t, ac)
        find_angle_structure(t, ac)
    assert shapes == [(4, 6, {NONNEG}), (4, 6, {STRICT_POS}),
                      (10, 12, {NONNEG}), (10, 12, {STRICT_POS}),
                      (7, 3, {NONNEG}), (7, 3, {STRICT_POS})]


def _pair_x(alpha):
    """The pair-system point of an assignment that realizes the target:
    each opposite pair's smaller angle."""
    a = alpha.angles
    return tuple(min(a[6 * i + k], a[6 * i + 5 - k])
                 for i in range(alpha.tet_count) for k in range(3))


def test_assignment_off_the_target_fails_reverification(monkeypatch):
    # A finder's x nudged off the target, with every angle still in
    # (0, pi), is caught by the corner and edge sums alone.
    fig8 = fixture("fig8").triangulation
    third = fixture("fig8").angles
    x = list(_pair_x(third))
    x[0] += F(1, 100)
    for name in ("solve_feasibility_nonneg", "solve_feasibility_strict"):
        monkeypatch.setattr(existence, name, lambda sys: Solution(x=tuple(x)))
    for finder in (find_semi_angle_structure, find_angle_structure):
        with pytest.raises(ExistenceError,
                           match="solver output failed re-verification"):
            finder(fig8, zero_ac(fig8))


def test_strict_answer_with_a_zero_angle_fails_reverification(monkeypatch):
    # fig8-flat1's stored angles realize its target, 0 and pi included:
    # the sums pass, and only the strict bounds refuse them.
    fx = fixture("fig8-flat1")
    x = _pair_x(fx.angles)
    assert min(x) == 0
    monkeypatch.setattr(existence, "solve_feasibility_strict",
                        lambda sys: Solution(x=x))
    with pytest.raises(ExistenceError,
                       match="solver output failed re-verification"):
        find_angle_structure(fx.triangulation, fx.ac)
    monkeypatch.setattr(existence, "solve_feasibility_nonneg",
                        lambda sys: Solution(x=x))
    assert find_semi_angle_structure(fx.triangulation, fx.ac) == fx.angles


def test_corrupted_pair_certificate_fails_on_the_lifted_system(monkeypatch):
    # The pair system's refutation, negated after lp_core verified it, is
    # lifted and refused by the check on angle_linear_system's rows.  The
    # table has boundary faces, so the target reaches the LP: every edge
    # target 1 - 2 is negative.
    t = fixture("one-tet").triangulation
    ac = AreaCurvature(area=(F(0),) * 4, curvature=(F(2),) * 6)
    for mode, name in (("semi", "solve_feasibility_nonneg"),
                       ("strict", "solve_feasibility_strict")):
        def corrupted(sys, solve=getattr(lp_core, name)):
            res = solve(sys)
            assert isinstance(res, Infeasible)
            y = tuple(-v for v in res.certificate.y)
            return Infeasible(certificate=Certificate(y=y))
        monkeypatch.setattr(existence, name, corrupted)
        finder = find_angle_structure if mode == "strict" \
            else find_semi_angle_structure
        with pytest.raises(LPError,
                           match="emitted certificate failed verification"):
            finder(t, ac)


def _degenerate_fig8_target():
    fig8 = fixture("fig8").triangulation
    alpha = AngleAssignment.from_vector(
        2, [F(0), F(0), F(0), F(1, 2), F(1, 2), F(1, 2)] + [F(1, 3)] * 6)
    return fig8, realized_area_curvature(alpha, fig8)


def _wide_fig8_target():
    # Corner targets 2, 2, 0, 0 in tet 0 and 0, 0, 2, 2 in tet 1 give
    # opposite pairs that differ by 2 and -2, more than the caps allow,
    # so the tight side is the first of the pair in one tet and the
    # second in the other.
    return fixture("fig8").triangulation, AreaCurvature.of(
        [1, 1, -1, -1, -1, -1, 1, 1], [0, 0])


# Each refused target: (triangulation, area-curvature) and the modes
# in which no assignment realizes it.
REFUSED = {
    "fig8-infeasible": (lambda: (fixture("fig8-infeasible").triangulation,
                                 fixture("fig8-infeasible").ac),
                        ("semi", "strict")),
    "one-tet-curvature": (lambda: (fixture("one-tet").triangulation,
                                   AreaCurvature.of([0] * 4, [2] * 6)),
                          ("semi", "strict")),
    "zero-corner-sum": (_degenerate_fig8_target, ("strict",)),
    "capped-wide": (_wide_fig8_target, ("semi", "strict")),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_lifted_certificates_verify_on_the_full_system(name):
    build, modes = REFUSED[name]
    t, ac = build()
    for mode in modes:
        finder = find_angle_structure if mode == "strict" \
            else find_semi_angle_structure
        cert = finder(t, ac)
        assert isinstance(cert, Certificate)
        full = angle_linear_system(t, ac, mode)
        assert len(cert.y) == full.row_count
        assert verify_certificate(full, cert.y)


def _reduction_cases():
    """(table, target) pairs on oracles.random_table draws of 1-6
    tetrahedra, closed or with boundary faces: targets realized by
    angles in [pi/36, pi/3], every area <= 0, or in [pi/36, 35 pi/36],
    some area > 0, each as drawn and with one area moved up and another
    down by one step, which keeps the summed identity.  With every area
    <= 0 the least area is the one moved up, to 0, so that the moved
    target stays uncapped."""
    rng = random.Random(50)
    cases = []
    for j in range(16):
        n = rng.randint(1, 6)
        t = oracles.random_table(rng, n, rng.randint(1, 2) if j % 2 else 0)
        for hi in (12, 35):
            ac = realized_area_curvature(AngleAssignment.from_vector(n, [
                F(rng.randint(1, hi), 36) for _ in range(6 * n)]), t)
            area = list(ac.area)
            up, down = rng.sample(range(4 * n), 2)
            step = F(rng.randint(1, 12), rng.randint(1, 4))
            if hi == 12:
                up = min(range(4 * n), key=area.__getitem__)
                down = (up + 1 + rng.randrange(4 * n - 1)) % (4 * n)
                step = -area[up]
            area[up] += step
            area[down] -= step
            cases += [(t, ac), (t, AreaCurvature.of(area, ac.curvature))]
    return cases


def _pair_certificate(t, y):
    """The pair-row vector (z, w, g) that existence._lifted lifted to y:
    each z_i is the sum of tet i's four corner multipliers, w is y's
    edge part, and g_{3i + k} sits on one of its pair's two cap rows,
    the other 0."""
    n, m = t.tet_count, len(t.edge_classes)
    z = [sum(y[4 * i:4 * i + 4]) for i in range(n)]
    caps = y[4 * n + m:]
    g = [caps[6 * i + k] + caps[6 * i + 5 - k]
         for i in range(n) for k in range(3)] if caps else []
    return (*z, *y[4 * n:4 * n + m], *g)


def _skipped_terms(t, pair_y):
    """Per tetrahedron, the two terms the map back to the pair rows takes
    off z_i: the edge multipliers of its corners on tet-edges 2 and 3,
    and the multiplier of its third pair's cap row."""
    n, m = t.tet_count, len(t.edge_classes)
    w, g = pair_y[n:n + m], pair_y[n + m:]
    edge = [F(0)] * n
    for cls, wj in zip(t.edge_classes, w):
        for i, k in cls.corners:
            if k in (2, 3):
                edge[i] += wj
    return edge, [g[3 * i + 2] if g else F(0) for i in range(n)]


def test_the_third_pair_column_lies_in_its_tet_row_alone():
    # Each non-tet row has tet i's third pair replaced by tet row i, so
    # column 3i + 2 is in tet row i alone, with entry 1: the slack start
    # seats it there.
    for t, ac in _reduction_cases():
        targets = existence._targets(t, ac)
        n = t.tet_count
        for mode in ("semi", "strict"):
            rows = existence._pair_system(t, targets, mode)[0].scaled_rows[1]
            for i in range(n):
                assert [(r, dict(row)[3 * i + 2])
                        for r, row in enumerate(rows)
                        if 3 * i + 2 in dict(row)] == [(i, 1)]


def test_the_reduced_pair_system_decides_as_the_unreduced_one():
    # Each finder's verdict is the unreduced pair system's, built by the
    # oracle from the edge tallies, and each refusal's pair-row vector,
    # read off the lifted certificate, verifies on that system.
    seen = set()
    for t, ac in _reduction_cases():
        assert not oracles.breaks_summed_identity(t, ac)
        capped = any(a > 0 for a in ac.area)
        for mode, find, name in FINDERS:
            unreduced = oracles.pair_system(t, ac, mode)
            expect = getattr(lp_core, name)(unreduced)
            res = find(t, ac)
            assert isinstance(res, Certificate) == \
                isinstance(expect, Infeasible)
            if isinstance(res, Certificate):
                assert oracles.verify_certificate(
                    unreduced, _pair_certificate(t, res.y))
            else:
                assert realized_area_curvature(res, t) == ac
            seen.add((type(res), capped, bool(t.boundary_faces()), mode))
    assert len(seen) == 16


@pytest.mark.parametrize("skip", ["edge", "cap"])
def test_a_map_back_that_skips_a_term_is_caught(monkeypatch, skip):
    # A mutant map back to the pair rows leaves out the edge term, or the
    # third pair's cap term, of each z_i: it is run as _lifted given the
    # reduced certificate with those terms added back to z.  Wherever
    # its pair-row vector fails on the unreduced pair system, the check
    # on angle_linear_system's rows must refuse its lift too.  A cap
    # multiplier is <= 0, so leaving it out only lowers z_i, and that is
    # caught where it takes y.b to 0 or below.
    lifted, caught = existence._lifted, 0
    for t, ac in _reduction_cases():
        n = t.tet_count
        for mode, find, _ in FINDERS:
            res = find(t, ac)
            if not isinstance(res, Certificate):
                continue
            pair_y = _pair_certificate(t, res.y)
            terms = _skipped_terms(t, pair_y)[skip == "cap"]
            mutant = [*(v + d for v, d in zip(pair_y, terms)), *pair_y[n:]]
            if oracles.verify_certificate(oracles.pair_system(t, ac, mode),
                                          mutant):
                continue

            def mutated(t, targets, mode, shift, y, terms=terms):
                den, ints = y
                return lifted(t, targets, mode, shift, scaled(
                    [F(v, den) + d for v, d in zip(ints, terms)] +
                    [F(v, den) for v in ints[len(terms):]]))
            monkeypatch.setattr(existence, "_lifted", mutated)
            with pytest.raises(LPError, match="failed verification"):
                find(t, ac)
            monkeypatch.undo()
            caught += 1
    assert caught


def _summed_cases(seed: int, unglued: int):
    """(table, realized target) pairs on oracles.random_table draws of 1-6
    tetrahedra, unglued face pairs left as boundary faces: each table
    once with angles in [pi/36, pi/3], every area <= 0, and once with
    angles in [pi/36, 35 pi/36], some area > 0, so capped."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        n = rng.randint(1, 6)
        t = oracles.random_table(rng, n, min(unglued, n))
        for hi in (12, 35):
            alpha = AngleAssignment.from_vector(n, [
                F(rng.randint(1, hi), 36) for _ in range(6 * n)])
            cases.append((t, realized_area_curvature(alpha, t)))
    closed = [t for t, _ in cases if not t.boundary_faces()]
    if not unglued:
        cases += [(t, realized_area_curvature(AngleAssignment.from_vector(
            t.tet_count, [F(rng.randint(1, 35), 36)
                          for _ in range(6 * t.tet_count)]), t))
            for t in random_tables(rng, 4, oracles.has_folded_edge)]
        assert len(closed) == 24
    else:
        assert not closed
    assert {any(a > 0 for a in ac.area) for _, ac in cases} == {True, False}
    return cases


def _moved(rng, t, ac):
    """ac with one area or one curvature moved by a nonzero step."""
    area, curvature = list(ac.area), list(ac.curvature)
    step = F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
    values = rng.choice([area, curvature])
    values[rng.randrange(len(values))] += step
    return AreaCurvature.of(area, curvature)


FINDERS = (("semi", find_semi_angle_structure, "solve_feasibility_nonneg"),
           ("strict", find_angle_structure, "solve_feasibility_strict"))


def _lp_calls(monkeypatch):
    """The count of pair-system LPs the finders run, once spied on."""
    calls = []
    for _, _, name in FINDERS:
        def spy(sys, solve=getattr(lp_core, name)):
            calls.append(sys)
            return solve(sys)
        monkeypatch.setattr(existence, name, spy)
    return calls


def test_a_realized_target_never_takes_the_summed_refusal(monkeypatch):
    # Realized data keep the summed Gauss-Bonnet identity, folded edges
    # included, so each reaches the LP and is realized in both modes.
    calls = _lp_calls(monkeypatch)
    cases = _summed_cases(46, 0) + _summed_cases(47, 1)
    for t, ac in cases:
        assert not oracles.breaks_summed_identity(t, ac)
        for mode, find, _ in FINDERS:
            assert existence._summed_refusal(
                t, existence._targets(t, ac), mode) is None
            res = find(t, ac)
            assert isinstance(res, AngleAssignment)
            assert realized_area_curvature(res, t) == ac
    assert len(calls) == 2 * len(cases)


def test_a_moved_target_is_refused_in_closed_form(monkeypatch):
    # Moving one area or one curvature of a realized target on a closed
    # table breaks the identity.  The finders then refuse it with no LP,
    # by 1 on each corner row, -2 on each edge row (-1 on a folded one)
    # and 0 on each cap row, signed so that y.b > 0; the certificate
    # verifies on the paper's system in both modes, and the pair system's
    # LP refuses the target too.
    calls = _lp_calls(monkeypatch)
    rng = random.Random(48)
    signs, folded, capped = set(), set(), set()
    for t, ac in _summed_cases(46, 0):
        moved = _moved(rng, t, ac)
        assert oracles.breaks_summed_identity(t, moved)
        y = oracles.summed_certificate(t, moved)
        targets = existence._targets(t, moved)
        for mode, find, name in FINDERS:
            cert = find(t, moved)
            assert cert == Certificate(y=y)
            assert existence._summed_refusal(t, targets, mode) == cert
            assert verify_certificate(angle_linear_system(t, moved, mode),
                                      cert.y)
            pair = existence._pair_system(t, targets, mode)[0]
            assert isinstance(getattr(lp_core, name)(pair), Infeasible)
        signs.add(y[0])
        folded.add(oracles.has_folded_edge(t))
        capped.add(any(a > 0 for a in moved.area))
    assert calls == []
    assert signs == {1, -1} and folded == capped == {True, False}


def test_a_table_with_boundary_faces_never_takes_the_summed_refusal(
        monkeypatch):
    # The identity is stated on closed tables alone: with boundary faces
    # a realized target and a moved one both go to the LP.
    calls = _lp_calls(monkeypatch)
    rng = random.Random(49)
    cases = _summed_cases(47, 2)
    for t, ac in cases:
        moved = _moved(rng, t, ac)
        for mode, find, _ in FINDERS:
            assert existence._summed_refusal(
                t, existence._targets(t, moved), mode) is None
            res = find(t, moved)
            if isinstance(res, Certificate):
                assert verify_certificate(
                    angle_linear_system(t, moved, mode), res.y)
            else:
                assert realized_area_curvature(res, t) == moved
    assert len(calls) == 2 * len(cases)


def test_certify_condition2_on_fig8():
    fig8 = fixture("fig8").triangulation
    third = fixture("fig8").angles
    res = certify_condition2(fig8, third)
    assert isinstance(res, Holds)
    assert res.optimum == F(-1, 3)


def test_certify_condition2_fails_on_zero_area_quads():
    fx = fixture("fig8-qzero")
    res = certify_condition2(fx.triangulation, fx.angles)
    assert isinstance(res, Fails)
    assert res.optimum == 0
    w = res.witness
    assert all(q >= 0 for q in w.quads) and any(q > 0 for q in w.quads)
    from anglestruct import compatibility_system, is_in_solution_space
    assert is_in_solution_space(compatibility_system(fx.triangulation), w)


def test_certify_condition2_optimum_is_chi_star_minus_chi_at_the_witness():
    # By Lemma 2, chi^(A,k)(s) = chi*(s) - half the quad-area pairing, so
    # the reported optimum, half the maximal pairing, is chi*(w) -
    # chi^(A,k)(w) at the witness w, for the data alpha realizes.  fig8
    # has a canonical basis; one angle pair of tet 0 at 0 leaves a quad of
    # area 2, and fig8-qzero's quads have area 0.
    fig8 = fixture("fig8").triangulation
    wide = AngleAssignment.from_vector(
        2, [F(0), F(1), F(1), F(1), F(1), F(0)] + [F(1, 3)] * 6)
    qzero = fixture("fig8-qzero")
    optima = []
    for t, alpha in ((fig8, wide), (qzero.triangulation, qzero.angles)):
        res = certify_condition2(t, alpha)
        assert isinstance(res, Fails)
        w = res.witness
        realized = realized_area_curvature(alpha, t)
        assert res.optimum == chi_star(t, w) - \
            chi_area_curvature(t, w, realized)
        assert res.optimum == chi_star(t, w) - chi_via_lemma2(t, w, alpha)
        optima.append(res.optimum)
    assert optima[0] > 0 and optima[1] == 0


def test_certify_condition2_rejects_generalized_assignments():
    fig8 = fixture("fig8").triangulation
    bad = AngleAssignment.from_vector(2, [F(-1, 6)] + [F(1, 3)] * 11)
    with pytest.raises(ExistenceError):
        certify_condition2(fig8, bad)
    with pytest.raises(ExistenceError, match="assignment size does not match"):
        certify_condition2(fig8, fixture("one-tet").angles)


def test_certify_condition2_prices_phase_1_over_tet_0_quads(monkeypatch):
    # The slice's known point is 1/3 on tet 0's three quads, so phase 1
    # prices those three columns alone, in at most three pivots here;
    # phase 2 prices every quad.  No loop prices every column up to the
    # artificials' end.  Counted, not timed, on the fixtures (fig8's
    # angles on fig8-infeasible, which has none) and on a closed table
    # of 32 tetrahedra.
    rng = random.Random(1)
    cases = [(fx.triangulation, fx.angles or fixture("fig8").angles)
             for fx in map(fixture, fixture_names())]
    cases.append((oracles.random_table(rng, 32), AngleAssignment.from_vector(
        32, [F(rng.randint(1, 12), 36) for _ in range(6 * 32)])))
    loop, pivot = lp_core._pivot_loop, lp_core._pivot
    calls, pivots = [], []

    def counted(rows, basis, cols, end):
        before = len(pivots)
        enter = loop(rows, basis, cols, end)
        calls.append((cols, end, len(pivots) - before))
        return enter

    def logged(*args):
        pivots.append(args[-1])
        pivot(*args)

    monkeypatch.setattr(lp_core, "_pivot_loop", counted)
    monkeypatch.setattr(lp_core, "_pivot", logged)
    for t, alpha in cases:
        calls.clear()
        certify_condition2(t, alpha)
        assert len(calls) == 2, t.name
        (first, _, made), (second, _, _) = calls
        assert first == {0, 1, 2} and made <= 3, (t.name, calls)
        assert second == range(3 * t.tet_count), t.name
        assert all(cols != range(end) for cols, end, _ in calls), t.name
    assert len(cases) == 7


def test_certify_condition2_never_vacuous_on_fixtures():
    # every tet contributes a quad-positive solution class, so the slice
    # is never empty on a real gluing table
    for name in ("fig8", "fig8-flat1", "fig8-flat2", "fig8-qzero"):
        fx = fixture(name)
        res = certify_condition2(fx.triangulation, fx.angles)
        if isinstance(res, Holds):
            assert res.optimum is not None


def test_check_corollary2_agreement_on_fixture_targets():
    fig8 = fixture("fig8")
    rep = check_corollary2(fig8.triangulation, fig8.ac)
    assert rep.reason == "ok" and isinstance(rep.strict_result,
                                             AngleAssignment)
    assert isinstance(rep.condition2_result, Holds)

    flat1 = fixture("fig8-flat1")
    rep1 = check_corollary2(flat1.triangulation, flat1.ac)
    assert rep1.reason == "ok"
    assert isinstance(rep1.strict_result, AngleAssignment)
    assert isinstance(rep1.condition2_result, Holds)

    infeasible = fixture("fig8-infeasible")
    rep2 = check_corollary2(infeasible.triangulation, infeasible.ac)
    assert rep2.reason != "ok" and "no semi" in rep2.reason


def test_check_corollary2_refuses_positive_area_hypothesis():
    fig8 = fixture("fig8").triangulation
    ac = AreaCurvature(area=(F(1, 2),) * 8, curvature=(F(0),) * 2)
    rep = check_corollary2(fig8, ac)
    assert rep.reason != "ok" and "area" in rep.reason


def test_identity_sides_trivial_and_frozen_counterexample():
    fig8 = fixture("fig8").triangulation
    third = fixture("fig8").angles
    n, m = 2, 2
    zero_h, zero_z, zero_w = (F(0),) * 8, (F(0),) * m, (F(0),) * n
    assert identity_4_9(fig8, third, zero_h, zero_z, zero_w) == (0, 0)
    # a pure tet-solution weight with no dual data splits the two sides:
    # the mismatch equals (3 - angle sum of the tet) per unit of omega
    lhs, rhs = identity_4_9(fig8, third, zero_h, zero_z, (F(1), F(0)))
    assert (lhs, rhs) == (0, 1)
    # an assignment whose tet angle sums are 3 closes the gap for free omega
    half = AngleAssignment.from_vector(2, [F(1, 2)] * 12)
    lhs2, rhs2 = identity_4_9(fig8, half, zero_h, zero_z, (F(1), F(0)))
    assert lhs2 == rhs2 == 0


def test_identity_and_decompose_build_the_basis_once_per_table(
        monkeypatch):
    # The verified basis is kept on the triangulation, as its
    # compatibility system is: repeated identity_4_9 calls and
    # decompose's default read t.solution_basis.
    from anglestruct import decompose, normal_coords
    build = normal_coords.solution_space_basis
    built = []

    def counted(t):
        built.append(t.name)
        return build(t)

    monkeypatch.setattr(normal_coords, "solution_space_basis", counted)
    fig8 = parse_triangulation(FIG8_TABLE, name="fig8")
    third = fixture("fig8").angles
    for w in range(3):
        identity_4_9(fig8, third, (F(0),) * 8, (F(0),) * 2, (F(w), F(0)))
    s = normal_coords.combine(fig8.solution_basis, (F(1), F(2)), (F(3), F(4)))
    assert decompose(fig8, s) == ((1, 2), (3, 4))
    assert built == ["fig8"]


def rand_vec(rng, size):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(size))


def random_tables(rng, count, keep, unglued=0):
    """count tables of 1-4 tetrahedra that keep accepts: the 4n face
    slots paired at random, the first unglued pairs left as boundary
    faces and each other pair glued by a random permutation carrying one
    face to the other."""
    tables = []
    while len(tables) < count:
        n = rng.randint(1, 4)
        t = oracles.random_table(rng, n, min(unglued, n))
        if keep(t):
            tables.append(t)
    return tables


def test_identity_holds_with_omega_matched_to_h():
    # On the fixtures, on closed tables with a folded edge, where the
    # correction counts a folded corner once with twice its z, and on
    # tables with one or two unglued face pairs, where a boundary class
    # has target 1 - kappa, under semi angles drawn in steps of pi/36.
    rng = random.Random(49)
    cases = [(fixture(name).triangulation, fixture(name).angles)
             for name in ("fig8", "fig8-flat1", "one-tet")]
    tables = random_tables(random.Random(34), 8, oracles.has_folded_edge)
    boundary = random.Random(35)
    tables += [t for unglued in (1, 2) for t in random_tables(
        boundary, 4, lambda t: True, unglued)]
    assert sum(bool(t.boundary_faces()) for t in tables) == 8
    for t in tables:
        cases.append((t, AngleAssignment.from_vector(t.tet_count, [
            F(rng.randint(0, 36), 36) for _ in range(6 * t.tet_count)])))
    for t, alpha in cases:
        n = t.tet_count
        m = len(build_edge_classes(t))
        for _ in range(50):
            h = rand_vec(rng, 4 * n)
            z = rand_vec(rng, m)
            omega = tuple(sum(h[4 * i + l] for l in range(4))
                          for i in range(n))
            lhs, rhs = identity_4_9(t, alpha, h, z, omega)
            assert lhs == rhs


def test_identity_residual_formula_for_free_omega():
    # for arbitrary omega the two sides differ by exactly
    # sum_i (3 - angle sum of tet i) * (omega_i - sum_l h_i^l)
    rng = random.Random(50)
    fig8 = fixture("fig8").triangulation
    third = fixture("fig8").angles
    for _ in range(50):
        h = rand_vec(rng, 8)
        z = rand_vec(rng, 2)
        omega = rand_vec(rng, 2)
        lhs, rhs = identity_4_9(fig8, third, h, z, omega)
        residual = sum(
            (3 - sum(third.angles[6 * i + k] for k in range(6))) *
            (omega[i] - sum(h[4 * i + l] for l in range(4)))
            for i in range(2))
        assert rhs - lhs == residual


def test_identity_rejects_bad_shapes_and_generalized_angles():
    fig8 = fixture("fig8").triangulation
    third = fixture("fig8").angles
    with pytest.raises(ExistenceError):
        identity_4_9(fig8, third, (F(0),) * 7, (F(0),) * 2, (F(0),) * 2)
    bad = AngleAssignment.from_vector(2, [F(-1, 6)] + [F(1, 3)] * 11)
    with pytest.raises(ExistenceError):
        identity_4_9(fig8, bad, (F(0),) * 8, (F(0),) * 2, (F(0),) * 2)
    # An assignment on another number of tets, or h, z, omega of the
    # wrong sizes, is refused before the basis is built, as at every
    # other entry point of existence.
    for n in (1, 3):
        other = AngleAssignment.from_vector(n, [F(1, 3)] * (6 * n))
        with pytest.raises(ExistenceError, match="size does not match"):
            identity_4_9(fig8, other, (F(0),) * 8, (F(0),) * 2, (F(0),) * 2)
    one = fixture("one-tet")
    with pytest.raises(ExistenceError, match="sizes do not match"):
        identity_4_9(one.triangulation, one.angles, (), (), ())
    # With h, z, omega of the right sizes and omega matched to h, one-tet,
    # all four faces boundary, gives equal sides.
    m = len(one.triangulation.edge_classes)
    h = (F(1), F(-2), F(3), F(1, 2))
    lhs, rhs = identity_4_9(one.triangulation, one.angles, h,
                            tuple(F(j, 3) for j in range(m)), (sum(h),))
    assert lhs == rhs


def test_strict_implies_negative_quad_areas():
    # with non-positive triangle areas, strict positivity forces every
    # quad strictly into the negative
    from anglestruct import area_of_quad
    rng = random.Random(53)
    fig8 = fixture("fig8").triangulation
    found = 0
    while found < 20:
        vals = [F(rng.randint(1, 11), 36) for _ in range(12)]
        alpha = AngleAssignment.from_vector(2, vals)
        ac = realized_area_curvature(alpha, fig8)
        if any(a > 0 for a in ac.area):
            continue
        found += 1
        res = find_angle_structure(fig8, ac)
        assert isinstance(res, AngleAssignment)
        for i in range(2):
            for p in range(3):
                assert area_of_quad(res, i, p) < 0


def test_sampled_agreement_between_strict_existence_and_condition2():
    # strictly positive samples keep every corner and edge target positive,
    # staying clear of the degenerate boundary probed in the next test
    rng = random.Random(59)
    fig8 = fixture("fig8").triangulation
    for _ in range(25):
        vals = [F(rng.randint(1, 12), 36) for _ in range(12)]
        alpha = AngleAssignment.from_vector(2, vals)
        ac = realized_area_curvature(alpha, fig8)
        if any(a > 0 for a in ac.area):
            continue
        rep = check_corollary2(fig8, ac)
        assert rep.reason == "ok"
        assert isinstance(rep.strict_result, AngleAssignment) == \
            isinstance(rep.condition2_result, Holds)


def test_degenerate_zero_corner_target_breaks_agreement_loudly():
    # a triangle area of exactly minus one half-turn forces its corner sum
    # to zero, so no strict assignment can realize the target, yet the
    # quad-slice functional stays strictly negative: the two sides of the
    # equivalence genuinely part ways on this boundary case, and the
    # checker is required to fail hard rather than smooth it over
    fig8 = fixture("fig8").triangulation
    vals = [F(0), F(0), F(0), F(1, 2), F(1, 2), F(1, 2)] + [F(1, 3)] * 6
    alpha = AngleAssignment.from_vector(2, vals)
    assert classify(alpha) == "semi"
    ac = realized_area_curvature(alpha, fig8)
    assert min(ac.area) == -1 and all(a <= 0 for a in ac.area)

    semi = find_semi_angle_structure(fig8, ac)
    assert isinstance(semi, AngleAssignment)
    strict = find_angle_structure(fig8, ac)
    assert isinstance(strict, Certificate)
    assert verify_certificate(angle_linear_system(fig8, ac, "strict"),
                              strict.y)
    res = certify_condition2(fig8, alpha)
    assert isinstance(res, Holds) and res.optimum == F(-1, 3)

    with pytest.raises(ExistenceError, match="equivalence violated"):
        check_corollary2(fig8, ac)


@pytest.mark.xfail(strict=True, raises=ExistenceError,
                   reason="Corollary 2's hypothesis does not yet exclude "
                          "forced-zero angles")
def test_check_corollary2_agrees_on_semi_data_with_a_zero_angle():
    # Two tetrahedra with two folded tet-edges, (0, 2) and (1, 0), as
    # oracles.folded_tet_edges finds them; the strict side is refuted by
    # a verified certificate while the quad slice gives Holds(-47/72).
    t = parse_triangulation("tets 2\nglue 0 0 0 3 3120\nglue 0 1 1 3 0321\n"
                            "glue 0 2 1 2 1320\nglue 1 0 1 1 1230\n")
    alpha = AngleAssignment.from_vector(2, [F(v) for v in (
        "1/36 1/12 0 5/18 5/18 7/36 5/18 1/3 1/18 1/36 5/18 1/18").split()])
    rep = check_corollary2(t, realized_area_curvature(alpha, t))
    assert rep.reason != "ok" or \
        isinstance(rep.strict_result, AngleAssignment) == \
        isinstance(rep.condition2_result, Holds)


def _int_form_tables():
    """Closed tables and tables with boundary faces of 1-6 tetrahedra,
    from oracles.random_table; folded edges among them."""
    rng = random.Random(42)
    tables = [oracles.random_table(rng, rng.randint(1, 6),
                                   rng.randint(1, 2) if j % 2 else 0)
              for j in range(14)]
    assert any(oracles.has_folded_edge(t) for t in tables)
    assert any(t.boundary_faces for t in tables)
    return rng, tables


def test_built_systems_are_the_form_of_gives(monkeypatch):
    # The angle, pair and quad-slice systems are built straight in
    # lp_core's int form, past LinearSystem.of's gate.  Each must be the
    # system of() gives over the same rows, given the long way: the dense
    # angle system, the pair rows as shuffled unit pairs that of() must
    # add up, and the echelon rows in their dict order.
    rng, tables = _int_form_tables()
    slices, entries = [], set()
    for t in tables:
        n, m = t.tet_count, len(t.edge_classes)
        area = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4 * n)]
        curvature = [F(rng.randint(-6, 6), rng.randint(1, 6))
                     for _ in range(m)]
        area[0] = abs(area[0]) + F(1, 3)
        for ac in (AreaCurvature.of([-abs(a) for a in area], curvature),
                   AreaCurvature.of(area, curvature)):
            targets = existence._targets(t, ac)
            for mode in ("semi", "strict"):
                coeffs, rhs, signs = oracles.angle_system_dense(t, ac, mode)
                assert angle_linear_system(t, ac, mode) == LinearSystem.of(
                    [[(c, v) for c, v in enumerate(row) if v]
                     for row in coeffs], rhs, signs)
                pair = existence._pair_system(t, targets, mode)[0]
                assert pair.scaled_rows[0] == 1
                units = []
                for row in pair.scaled_rows[1]:
                    entries.update(v for _, v in row)
                    units.append([(c, 1 if v > 0 else -1)
                                  for c, v in row for _ in range(abs(v))])
                    rng.shuffle(units[-1])
                bden, b = pair.scaled_rhs
                assert pair == LinearSystem.of(
                    units, [F(v, bden) for v in b], pair.signs)
        built = []

        def minimize(objective, sys, start=None):
            built.append(sys)
            return lp_core.minimize_linear(objective, sys, start)

        alpha = AngleAssignment.from_vector(
            n, [F(rng.randint(0, 12), 36) for _ in range(6 * n)])
        monkeypatch.setattr(existence, "minimize_linear", minimize)
        certify_condition2(t, alpha)
        csys = t.compatibility_system
        rows = [list(row.items()) for row in csys._projection[1].values()]
        rows.append([(c, 1) for c in range(3 * n)])
        assert built == [LinearSystem.of(
            rows, [0] * (len(rows) - 1) + [1], [NONNEG] * (3 * n))]
        slices.append(len(rows))
    # A folded edge puts 2 or more on a pair column, and some slice has
    # echelon rows beside the row that sums the quads to 1.
    assert {1, 2} <= entries and max(slices) > 1


def test_a_found_assignment_keeps_a_true_scaled_form():
    # A solve reads its assignment out of the pair solution's ints and
    # keeps that form as the assignment's _scaled: it must be the form
    # the angles give, and the assignment one built from the angles.
    _, tables = _int_form_tables()
    rng = random.Random(7)
    cases = [(fx.triangulation, realized_area_curvature(fx.angles,
                                                        fx.triangulation))
             for fx in map(fixture, fixture_names()) if fx.angles is not None]
    cases += [(t, realized_area_curvature(AngleAssignment.from_vector(
        t.tet_count, [F(rng.randint(1, 35), 36)
                      for _ in range(6 * t.tet_count)]), t)) for t in tables]
    found = 0
    for t, ac in cases:
        for finder in (find_semi_angle_structure, find_angle_structure):
            alpha = finder(t, ac)
            if isinstance(alpha, AngleAssignment):
                found += 1
                assert alpha._scaled == scaled(alpha.angles)
                again = AngleAssignment(angles=alpha.angles)
                assert alpha == again and hash(alpha) == hash(again)
    assert found >= 2 * len(tables)
