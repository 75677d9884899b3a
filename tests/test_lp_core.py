import random
from fractions import Fraction

import pytest

import oracles
from oracles import scaled
from anglestruct import (AngleAssignment, Infeasible, LinearSystem,
                         Optimum, Solution, Unbounded, find_angle_structure,
                         find_semi_angle_structure, fixture, minimize_linear,
                         realized_area_curvature, solve_feasibility_nonneg,
                         solve_feasibility_strict, verify_certificate)
from anglestruct.existence import angle_linear_system
from anglestruct import lp_core
from anglestruct.lp_core import NONNEG, STRICT_POS, Certificate, LPError

F = Fraction


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def check_solution(sys, x):
    for row, b in zip(sys.coeffs, sys.rhs):
        assert sum(c * v for c, v in zip(row, x)) == b
    for v, sg in zip(x, sys.signs):
        if sg == NONNEG:
            assert v >= 0
        elif sg == STRICT_POS:
            assert v > 0


def test_feasibility_simple_cases():
    sys = oracles.dense_system([[1, 1]], [1], [NONNEG, NONNEG])
    res = solve_feasibility_nonneg(sys)
    assert isinstance(res, Solution)
    check_solution(sys, res.x)

    sys2 = oracles.dense_system([[1, 1]], [-1], [NONNEG, NONNEG])
    res2 = solve_feasibility_nonneg(sys2)
    assert isinstance(res2, Infeasible)
    y = res2.certificate.y
    assert verify_certificate(sys2, y)
    # the canonical refutation: both columns weighted down, y.b positive
    assert sum(yi * bi for yi, bi in zip(y, sys2.rhs)) > 0


def test_feasibility_on_the_two_tet_angle_system():
    fx = fixture("fig8")
    sys = angle_linear_system(fx.triangulation, fx.ac, "semi")
    res = solve_feasibility_nonneg(sys)
    assert isinstance(res, Solution)
    check_solution(sys, res.x)
    # the all-third assignment is one known inhabitant of this polytope
    known = [F(1, 3)] * 12
    for row, b in zip(sys.coeffs, sys.rhs):
        assert sum(c * v for c, v in zip(row, known)) == b


def test_strict_feasibility_simple_cases():
    sys = oracles.dense_system([[1, 1]], [1], [STRICT_POS, STRICT_POS])
    res = solve_feasibility_strict(sys)
    assert isinstance(res, Solution)
    assert res.x == (F(1, 2), F(1, 2))
    check_solution(sys, res.x)

    sys2 = oracles.dense_system([[1, 0], [0, 1], [1, 1]], [1, -1, 0],
                                [STRICT_POS, STRICT_POS])
    res2 = solve_feasibility_strict(sys2)
    assert isinstance(res2, Infeasible)
    assert verify_certificate(sys2, res2.certificate.y)


def test_strict_feasibility_boundary_of_cone():
    # force one angle to zero by prescribing its triangle target at the
    # horn: with one corner target dropped to 0, only a semi solution on
    # the cone boundary survives
    sys = oracles.dense_system([[1, 1, 0], [0, 0, 1], [1, 1, 1]],
                               [1, 0, 1],
                               [STRICT_POS, STRICT_POS, STRICT_POS])
    res = solve_feasibility_strict(sys)
    assert isinstance(res, Infeasible)
    assert verify_certificate(sys, res.certificate.y)


def test_minimize_examples():
    sys = oracles.dense_system([[1, 1]], [1], [NONNEG, NONNEG])
    res = minimize_linear([F(1), F(0)], sys)
    assert isinstance(res, Optimum) and res.value == 0
    assert res.x[0] == 0 and res.x[1] == 1

    res2 = minimize_linear([F(-1), F(0)], sys)
    assert isinstance(res2, Optimum) and res2.value == -1
    assert res2.x[0] == 1

    infeasible = oracles.dense_system([[1, 1], [1, 1]], [1, 2],
                                      [NONNEG, NONNEG])
    res4 = minimize_linear([F(1), F(1)], infeasible)
    assert isinstance(res4, Infeasible)
    assert verify_certificate(infeasible, res4.certificate.y)

    for objective in ([F(1)], [F(1)] * 3):
        with pytest.raises(LPError, match="objective length does not "
                                          "match column count"):
            minimize_linear(objective, sys)


def test_verify_certificate_rejects_junk():
    sys = oracles.dense_system([[1, 1]], [-1], [NONNEG, NONNEG])
    strict = oracles.dense_system([[1, 1]], [-1], [STRICT_POS, STRICT_POS])
    assert not verify_certificate(sys, [F(0)])
    assert not verify_certificate(strict, [F(0)])
    assert not verify_certificate(sys, [F(1)])  # A^T y > 0
    good = solve_feasibility_nonneg(sys).certificate.y
    assert verify_certificate(sys, good)
    # a certificate of the wrong shape is simply not valid
    assert not verify_certificate(sys, [F(1), F(1)])


def test_a_certificate_answers_its_own_systems_question():
    # A = [1], b = [0]: x = 0 solves it with x >= 0, and y = -1, with
    # A^T y = -1 and y.b = 0, cuts off only x > 0.  With two columns the
    # negative entry must fall on a strict-pos one: x = (0, 1) solves
    # x0 = 0 with x1 > 0, and nothing solves x0 + x1 = 0 with x1 > 0.
    nonneg = LinearSystem.of([[(0, 1)]], [0], [NONNEG])
    strict = LinearSystem.of([[(0, 1)]], [0], [STRICT_POS])
    assert solve_feasibility_nonneg(nonneg) == Solution(x=(F(0),))
    assert not verify_certificate(nonneg, [-1])
    assert verify_certificate(strict, [-1])
    refused = solve_feasibility_strict(strict)
    assert isinstance(refused, Infeasible)
    assert verify_certificate(strict, refused.certificate.y)
    assert not verify_certificate(nonneg, refused.certificate.y)
    mixed = [NONNEG, STRICT_POS]
    assert not verify_certificate(LinearSystem.of([[(0, 1)]], [0], mixed),
                                  [-1])
    assert verify_certificate(LinearSystem.of([[(0, 1), (1, 1)]], [0],
                                              mixed), [-1])
    for y in ([0], [1], [-1, 0]):
        assert not verify_certificate(strict, y)


def test_signs_are_validated():
    for sign in ("sometimes", "free"):
        with pytest.raises(LPError):
            oracles.dense_system([[1, 1]], [1], [NONNEG, sign])
    with pytest.raises(LPError):
        oracles.dense_system([[1, 1]], [1, 2], [NONNEG, NONNEG])
    sys = oracles.dense_system([[1, 1]], [1], [STRICT_POS, NONNEG])
    with pytest.raises(LPError):
        solve_feasibility_nonneg(sys)
    with pytest.raises(LPError):
        solve_feasibility_strict(sys)
    with pytest.raises(LPError):
        minimize_linear([F(1), F(0)], sys)
    # Read as nonneg, both strict-pos columns would give the optimum
    # (0, 1), a point outside the open set.
    both = oracles.dense_system([[1, 1]], [1], [STRICT_POS, STRICT_POS])
    with pytest.raises(LPError):
        minimize_linear([F(1), F(0)], both)


def test_linear_system_rows_are_sorted_nonzero_pairs():
    sys = LinearSystem.of(
        [[(2, 1), (0, F(1, 2)), (2, 1)], [(1, 3), (1, -3), (2, 0)], []],
        [1, 0, 0], [NONNEG] * 3)
    # repeated pairs add up, and zero sums and zero pairs are dropped
    assert oracles.fraction_rows(sys) == (((0, F(1, 2)), (2, F(2))), (), ())
    zero = (F(0),) * 3
    assert sys.coeffs == ((F(1, 2), F(0), F(2)), zero, zero)
    assert sys.coeffs is sys.coeffs
    assert oracles.dense_system(sys.coeffs, sys.rhs, sys.signs) == sys
    for column in (3, -1, 1.0):
        with pytest.raises(LPError):
            LinearSystem.of([[(0, 1), (column, 1)]], [1], [NONNEG] * 3)
    # A bool is an int subclass, but no column index, as it is no value.
    with pytest.raises(LPError, match="no column True"):
        LinearSystem.of([[(True, 1)]], [1], [NONNEG] * 2)
    # two halves on one column sum to 1 over den 2, which the gcd
    # reduces to den 1
    halves = LinearSystem.of([[(0, F(1, 2)), (0, F(1, 2))]], [1], [NONNEG])
    assert halves == LinearSystem.of([[(0, 1)]], [1], [NONNEG])
    assert halves.scaled_rows == (1, (((0, 1),),))


def test_coeffs_view_equals_the_dense_rows():
    rng = random.Random(2025)
    for _ in range(20):
        cols = rng.randint(1, 5)
        dense = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(cols))
                      for _ in range(rng.randint(1, 4)))
        sys = oracles.dense_system(dense, [0] * len(dense), [NONNEG] * cols)
        assert sys.coeffs == dense
        assert all(v for row in oracles.fraction_rows(sys) for _, v in row)


def test_determinism():
    sys = oracles.dense_system(
        [[1, 2, -1, 0], [0, 1, 1, -2]], [3, 1],
        [NONNEG, NONNEG, NONNEG, NONNEG])
    first = solve_feasibility_nonneg(sys)
    for _ in range(5):
        again = solve_feasibility_nonneg(sys)
        assert again.x == first.x
    obj = [F(1), F(-1), F(2), F(0)]
    opt = minimize_linear(obj, sys)
    for _ in range(5):
        assert minimize_linear(obj, sys).x == opt.x


def rand_system(rng, rows, cols):
    coeffs = [[F(rng.randint(-3, 3)) for _ in range(cols)]
              for _ in range(rows)]
    rhs = [F(rng.randint(-4, 4)) for _ in range(rows)]
    return oracles.dense_system(coeffs, rhs, [NONNEG] * cols)


def test_feasibility_agrees_with_brute_force_on_small_systems():
    rng = random.Random(2026)
    for trial in range(120):
        sys = rand_system(rng, rng.randint(1, 3), rng.randint(1, 5))
        res = solve_feasibility_nonneg(sys)
        expect = oracles.bf_feasible(sys)
        assert isinstance(res, Solution) == expect, (trial, sys)
        if isinstance(res, Solution):
            check_solution(sys, res.x)
        else:
            assert verify_certificate(sys, res.certificate.y)


def test_minimize_agrees_with_brute_force_on_small_systems():
    rng = random.Random(2027)
    for trial in range(100):
        cols = rng.randint(1, 5)
        sys = rand_system(rng, rng.randint(1, 3), cols)
        obj = [F(rng.randint(-3, 3)) for _ in range(cols)]
        res = minimize_linear(obj, sys)
        status, value = oracles.bf_minimize(obj, sys)
        if status == "infeasible":
            assert isinstance(res, Infeasible), (trial, sys)
        elif status == "unbounded":
            assert isinstance(res, Unbounded), (trial, sys)
            ray = res.ray
            for row in sys.coeffs:
                assert dot(row, ray) == 0, (trial, sys)
            assert all(v >= 0 for v in ray), (trial, sys)
            assert dot(obj, ray) < 0, (trial, sys)
        else:
            assert isinstance(res, Optimum), (trial, sys)
            assert res.value == value == dot(obj, res.x), (trial, sys)
            check_solution(sys, res.x)


def test_strict_agrees_with_brute_force_on_bounded_systems():
    # bounded strict systems: append a simplex-style normalization row so
    # the brute-force oracle's no-ray requirement holds by construction
    rng = random.Random(2028)
    done = 0
    while done < 60:
        cols = rng.randint(2, 5)
        rows = rng.randint(1, 2)
        coeffs = [[F(rng.randint(-2, 2)) for _ in range(cols)]
                  for _ in range(rows)]
        rhs = [F(rng.randint(-2, 2)) for _ in range(rows)]
        coeffs.append([F(1)] * cols)
        rhs.append(F(rng.randint(1, 3)))
        sys = oracles.dense_system(coeffs, rhs, [STRICT_POS] * cols)
        res = solve_feasibility_strict(sys)
        expect = oracles.bf_strict_feasible(sys)
        assert isinstance(res, Solution) == expect, sys
        if isinstance(res, Solution):
            check_solution(sys, res.x)
        else:
            assert verify_certificate(sys, res.certificate.y)
        done += 1


def rand_rational_system(rng, rows, cols):
    coeffs = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
              for _ in range(rows)]
    rhs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows)]
    return oracles.dense_system(coeffs, rhs, [NONNEG] * cols)


def test_integer_tableau_takes_the_fraction_simplex_pivots():
    # Nonneg columns and negative-rhs rows, with integer and with rational
    # entries and costs; each system is also solved as a strict one,
    # which runs the margin program.
    rng = random.Random(2029)
    with oracles.same_pivots() as statuses:
        for trial in range(160):
            build = rand_system if trial % 2 else rand_rational_system
            cols = rng.randint(1, 6)
            sys = build(rng, rng.randint(1, 4), cols)
            obj = [F(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(cols)]
            solve_feasibility_nonneg(sys)
            minimize_linear(obj, sys)
            solve_feasibility_strict(LinearSystem.of(
                oracles.fraction_rows(sys), sys.rhs, [STRICT_POS] * cols))
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}
    assert len(statuses) == 3 * 160


def test_slack_start_agrees_with_brute_force_on_singleton_columns(
        monkeypatch):
    # Each system has columns that one row alone holds, of either sign and
    # with rational entries, so some rows start with such a column basic
    # and some, scaled to a nonnegative rhs, cannot.  Feasibility and
    # minimization must reach brute force's verdict, each certificate
    # verifies, and the integer tableau takes the Fraction one's pivots.
    rng = random.Random(2030)
    started = []
    tableau = lp_core._tableau

    def spy(a, b, cost, slack):
        rows, basis, scale = tableau(a, b, cost, slack)
        started.append(sum(c < len(cost[1]) for c in basis))
        return rows, basis, scale

    monkeypatch.setattr(lp_core, "_tableau", spy)
    with oracles.same_pivots() as statuses:
        for trial in range(120):
            k = rng.randint(1, 3)
            dense = rand_rational_system(rng, k, rng.randint(0, 3))
            coeffs = [list(row) for row in dense.coeffs]
            for _ in range(rng.randint(1, 3)):
                r = rng.randrange(k)
                for i, row in enumerate(coeffs):
                    row.append(F(rng.choice([-3, -1, 1, 2]),
                                 rng.randint(1, 3)) if i == r else F(0))
            cols = len(coeffs[0])
            sys = oracles.dense_system(coeffs, dense.rhs, [NONNEG] * cols)
            res = solve_feasibility_nonneg(sys)
            assert isinstance(res, Solution) == oracles.bf_feasible(sys)
            if isinstance(res, Solution):
                check_solution(sys, res.x)
            else:
                assert verify_certificate(sys, res.certificate.y)
            obj = [F(rng.randint(-3, 3)) for _ in range(cols)]
            res = minimize_linear(obj, sys)
            status, value = oracles.bf_minimize(obj, sys)
            assert type(res) is {"infeasible": Infeasible,
                                 "unbounded": Unbounded,
                                 "optimal": Optimum}[status], (trial, sys)
            if status == "infeasible":
                assert verify_certificate(sys, res.certificate.y)
            elif status == "optimal":
                assert res.value == value == dot(obj, res.x)
                check_solution(sys, res.x)
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}
    assert 0 < started.count(0) < len(started) == 2 * 120


def _finder_pivots(monkeypatch, start: bool, n: int, hi: int) -> list:
    """The pivots of the semi and the strict finder on a random closed
    table of n tetrahedra, angles k pi/36 with k in 1..hi drawn after
    it, and the data they realize."""
    rng = random.Random(1)
    t = oracles.random_table(rng, n)
    alpha = AngleAssignment.from_vector(n, [F(rng.randint(1, hi), 36)
                                            for _ in range(6 * n)])
    ac = realized_area_curvature(alpha, t)
    assert any(a > 0 for a in ac.area) == (hi > 12)
    tableau, pivot, pivots = lp_core._tableau, lp_core._pivot, []
    monkeypatch.setattr(lp_core, "_tableau",
                        lambda a, b, cost, slack: tableau(a, b, cost, start))

    def counted(*args):
        pivots[-1] += 1
        pivot(*args)

    monkeypatch.setattr(lp_core, "_pivot", counted)
    for find in (find_semi_angle_structure, find_angle_structure):
        pivots.append(0)
        assert realized_area_curvature(find(t, ac), t) == ac
    monkeypatch.undo()
    return pivots


def test_the_slack_start_cuts_the_capped_pivots(monkeypatch):
    # Each of the 3n cap rows starts with its slack basic, unless its rhs
    # is negative, and each strict solve's epsilon <= 1 row too, where
    # the all-artificial start paid a phase-1 pivot for each.  Each tet
    # row starts with its third pair basic, which only it holds.  Some
    # angles exceed pi/3, so some areas are positive: n = 32, capped.
    assert _finder_pivots(monkeypatch, True, 32, 30) == [19, 22]
    assert _finder_pivots(monkeypatch, False, 32, 30) == [172, 177]


def test_the_slack_start_leaves_the_edge_rows_to_phase_1(monkeypatch):
    # Uncapped, the tet rows are all the slack start can seat: angles up
    # to pi/3 make every area nonpositive.  On n = 128 the finders then
    # take a handful of pivots, where the all-artificial start pays more
    # than one per row.
    assert _finder_pivots(monkeypatch, True, 128, 12) == [6, 8]
    assert _finder_pivots(monkeypatch, False, 128, 12) == [190, 194]


def test_answers_keep_the_scaled_form_they_were_read_out_of():
    # A solve's Solution and Certificate keep the (den, ints) form lp_core
    # read them out of, and existence reads it in place of their
    # Fractions: it must be the form scaled() gives their entries, and
    # the answer equal to, and hash as, one built from those entries.
    # One built by hand keeps that form from its constructor's gate.
    rng = random.Random(2031)
    kept = set()
    for trial in range(120):
        build = rand_system if trial % 2 else rand_rational_system
        cols = rng.randint(1, 6)
        sys = build(rng, rng.randint(1, 4), cols)
        strict = LinearSystem.of(oracles.fraction_rows(sys), sys.rhs,
                                 [STRICT_POS] * cols)
        for res in (solve_feasibility_nonneg(sys),
                    solve_feasibility_strict(strict)):
            if isinstance(res, Solution):
                kept.add("x")
                again = Solution(x=res.x)
                assert res._scaled == scaled(res.x)
            else:
                kept.add("y")
                res, again = res.certificate, Certificate(y=res.certificate.y)
                assert res._scaled == scaled(res.y)
            assert res == again and hash(res) == hash(again)
    assert kept == {"x", "y"}
    assert Solution(x=(F(1, 2), 3))._scaled == (2, (1, 6))
    assert Certificate(y=(F(-2, 3), F(0)))._scaled == (3, (-2, 0))


def test_integer_certificate_check_agrees_with_the_fraction_one():
    # Rational coefficients and rhs with unlike denominators, each checked
    # against the solver's own refutations, their negations, 0, and
    # random vectors, on the system, its strict copy and copies with
    # random column signs; the case y.b = 0 with a negative strict-pos
    # column shows on the solved strict systems, and a mixed copy accepts
    # such a y exactly when one of its negative columns is strict-pos.
    rng, flips = random.Random(2030), random.Random(2031)
    verdicts, between = set(), set()
    for _ in range(200):
        cols = rng.randint(1, 5)
        sys = rand_rational_system(rng, rng.randint(1, 4), cols)
        copies = [LinearSystem.of(oracles.fraction_rows(sys), sys.rhs, signs)
                  for signs in [[NONNEG] * cols, [STRICT_POS] * cols] + [
                      [flips.choice((NONNEG, STRICT_POS)) for _ in range(cols)]
                      for _ in range(4)]]
        nonneg, strict = copies[:2]
        k = sys.row_count
        ys = [(F(0),) * k,
              tuple(F(rng.randint(-5, 5), rng.randint(1, 6))
                    for _ in range(k))]
        for res in (solve_feasibility_nonneg(nonneg),
                    solve_feasibility_strict(strict)):
            if isinstance(res, Infeasible):
                ys += [res.certificate.y,
                       tuple(-v for v in res.certificate.y)]
        for y in ys:
            split = verify_certificate(nonneg, y) != \
                verify_certificate(strict, y)
            for s in copies:
                expect = oracles.verify_certificate(s, y)
                assert verify_certificate(s, y) == expect, (s, y)
                kind = "mixed" if len(set(s.signs)) == 2 else s.signs[0]
                verdicts.add((kind, expect))
                if split and kind == "mixed":
                    between.add(expect)
    assert len(verdicts) == 6
    # a y that only the strict copy accepts is accepted by some mixed
    # pattern and refused by another
    assert between == {True, False}


def test_pivot_that_is_not_a_unit():
    # Phase 1 enters x0 on 3/2: row 0's ints are 3, 2 over 2, so the
    # pivot row is rescaled to denominator 3 and row 1 to 3 times its own.
    sys = oracles.dense_system([[F(3, 2), 1, 0], [1, 1, 1]], [3, 4],
                               [NONNEG] * 3)
    obj = [F(-1), F(0), F(0)]
    res = minimize_linear(obj, sys)
    assert oracles.bf_minimize(obj, sys) == ("optimal", F(-2))
    assert res == Optimum(value=F(-2), x=(F(2), F(0), F(2)))


def test_objective_denominators_differ_from_the_row_denominators():
    # After phase 1, x0 is basic in a row over denominator 2 (2/3 over
    # 2/3 leaves x1/2); its cost 1/2 then prices x1 at -1/4, so the
    # phase-2 row is over 4, not over lcm(2, 2).
    sys = oracles.dense_system([[F(2, 3), F(1, 3)]], [F(1, 3)],
                               [NONNEG, NONNEG])
    obj = [F(1, 2), F(0)]
    with oracles.same_pivots() as statuses:
        res = minimize_linear(obj, sys)
    assert statuses == ["optimal"]
    assert oracles.bf_minimize(obj, sys) == ("optimal", F(0))
    assert res == Optimum(value=F(0), x=(F(0), F(1)))


def test_updated_row_is_reduced_by_its_gcd():
    # min -x0 - x1 on 2 x0 + x1 = 3.  Phase 2 starts with x0 basic, row
    # 0 being 2, 1 | 1 | 3 over its entry 2 at x0, and the objective row
    # 0, -1 | 1 | 3 over 2, held in its identity column 4.  x1 enters on
    # the pivot 1, and the objective row becomes 2, 0 | 2 | 6 over 2,
    # which is reduced to 1, 0 | 1 | 3 over 1.  Zero entries are absent.
    rows = [{0: 2, 1: 1, 2: 1, 3: 3}, {1: -1, 2: 1, 3: 3, 4: 2}]
    basis = [0, 4]
    lp_core._pivot(rows, basis, 0, 1)
    assert (rows, basis) == ([{0: 2, 1: 1, 2: 1, 3: 3},
                              {0: 1, 2: 1, 3: 3, 4: 1}], [1, 4])
    sys = oracles.dense_system([[2, 1]], [3], [NONNEG] * 2)
    obj = [F(-1), F(-1)]
    assert oracles.bf_minimize(obj, sys) == ("optimal", F(-3))
    assert minimize_linear(obj, sys) == Optimum(value=F(-3),
                                                x=(F(0), F(3)))
    bad = oracles.dense_system([[2, 1, 0], [4, 2, 1]], [3, 5],
                               [NONNEG] * 3)
    res = solve_feasibility_nonneg(bad)
    assert not oracles.bf_feasible(bad)
    assert res == Infeasible(certificate=Certificate(y=(F(1), F(-1, 2))))
    assert oracles.fraction_simplex(oracles.fraction_rows(bad), bad.rhs,
                                    [F(0)] * 3)["farkas"] == (F(1), F(-1, 2))
    assert verify_certificate(bad, res.certificate.y)


def test_a_start_off_the_polyhedron_is_refused():
    # x0 + x1 = 1 and x1 + x2 = 1: (1/2, 1/2, 1/2) lies on it, and each
    # start below fails one of the three exact checks.
    sys = oracles.dense_system([[1, 1, 0], [0, 1, 1]], [1, 1],
                               [NONNEG] * 3)
    obj = [F(1), F(0), F(0)]
    for start, why in (([F(1, 2)] * 2, "start length does not match"),
                       ([F(1, 2)] * 4, "start length does not match"),
                       ([2, -1, 2], "start has a negative entry"),
                       ([1, 0, 0], "start does not solve the system"),
                       ([F(1, 2), F(1, 2), F(1, 3)],
                        "start does not solve the system")):
        with pytest.raises(LPError, match=why):
            minimize_linear(obj, sys, start=start)
    res = minimize_linear(obj, sys, start=[F(1, 2)] * 3)
    assert oracles.bf_minimize(obj, sys) == ("optimal", res.value)
    assert res == Optimum(value=F(0), x=(F(0), F(1), F(0)))


def test_a_start_whose_support_is_dependent_is_taken():
    # (1, 1, 2) solves x0 + x2 = 3, x1 - x2 = -1, and its support is
    # dependent: column 2 is column 0 minus column 1.  Phase 1 priced
    # over that support ends at residue 0, and phase 2 reaches the
    # optimum the simplex finds with no start.
    sys = oracles.dense_system([[1, 0, 1], [0, 1, -1]], [3, -1],
                               [NONNEG] * 3)
    obj = [F(1)] * 3
    with oracles.same_pivots() as statuses:
        res = minimize_linear(obj, sys, start=[1, 1, 2])
    assert statuses == ["optimal"]
    assert oracles.bf_minimize(obj, sys) == ("optimal", F(3))
    assert res == minimize_linear(obj, sys) == Optimum(
        value=F(3), x=(F(2), F(0), F(1)))


def test_a_residue_left_by_a_start_is_an_internal_error(monkeypatch):
    # (1, 0, 0) is off x0 + x1 = 1, x1 + x2 = 1, so the exact check
    # refuses it.  Let through, phase 1 over its support {0} leaves row
    # 1's artificial basic at 1, which no certificate can stand for.
    sys = oracles.dense_system([[1, 1, 0], [0, 1, 1]], [1, 1],
                               [NONNEG] * 3)
    with pytest.raises(LPError, match="start does not solve the system"):
        minimize_linear([F(0)] * 3, sys, start=[1, 0, 0])
    monkeypatch.setattr(lp_core, "_checked_start",
                        lambda sys, start: (1, tuple(start)))
    with pytest.raises(LPError, match="internal error: phase 1 over the "
                                      "start's support left a residue"):
        minimize_linear([F(0)] * 3, sys, start=[1, 0, 0])


def test_a_start_with_a_dependent_support_column_reaches_the_optimum():
    # Columns 0 and 1 are equal.  Phase 1, priced over the support
    # {0, 1}, enters x0 in row 0 and ends at residue 0 with x1 priced at
    # 0; the leftover artificial of row 1 is pivoted out on x2.  Phase 2
    # then trades x0 for the cheaper x1.
    sys = oracles.dense_system([[1, 1, 1], [1, 1, 0]], [1, 1], [NONNEG] * 3)
    obj = [F(2), F(1), F(0)]
    pivots = []
    with oracles.same_pivots() as statuses:
        pivot = lp_core._pivot
        lp_core._pivot = lambda rows, basis, r, j: (
            pivots.append((r, j)), pivot(rows, basis, r, j))
        try:
            res = minimize_linear(obj, sys, start=[F(1, 2), F(1, 2), 0])
        finally:
            lp_core._pivot = pivot
    assert statuses == ["optimal"]
    assert pivots == [(0, 0), (1, 2), (0, 1)]
    assert oracles.bf_minimize(obj, sys) == ("optimal", F(1))
    assert res == Optimum(value=F(1), x=(F(0), F(1), F(0)))


def test_minimize_from_a_feasible_start_agrees_with_brute_force():
    # The first 80 starts are the feasibility solver's own basic
    # solutions, so their supports are independent.  The next 80 are
    # midpoints of two different basic feasible solutions u and v: no
    # vertex, and a dependent support, since u - v is a nonzero kernel
    # vector on it.  Phase 1 over each support must take its start, and
    # both tableaus must take the same phase-1 and phase-2 pivots.
    rng = random.Random(2032)
    cases = []
    while len(cases) < 160:
        cols = rng.randint(1, 5)
        build = rand_system if len(cases) % 2 else rand_rational_system
        sys = build(rng, rng.randint(1, 3), cols)
        if len(cases) < 80:
            feasible = solve_feasibility_nonneg(sys)
            if not isinstance(feasible, Solution):
                continue
            start = feasible.x
        else:
            vertices = [x for x in oracles._basic_solutions(sys.coeffs,
                                                            list(sys.rhs))
                        if all(v >= 0 for v in x)]
            if len(vertices) < 2:
                continue
            u, v = rng.sample(vertices, 2)
            start = [(a + b) / 2 for a, b in zip(u, v)]
        cases.append((sys, start, [F(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(cols)]))
    with oracles.same_pivots() as statuses:
        for sys, start, obj in cases:
            res = minimize_linear(obj, sys, start=start)
            status, value = oracles.bf_minimize(obj, sys)
            if status == "unbounded":
                assert isinstance(res, Unbounded), sys
            else:
                assert isinstance(res, Optimum), sys
                assert res.value == value == dot(obj, res.x), sys
                check_solution(sys, res.x)
    assert set(statuses) == {"optimal", "unbounded"}
    assert len(statuses) == 160
