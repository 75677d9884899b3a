"""Acceptance suite: one test per shipped guarantee, exact arithmetic.

Every check here is end to end: inputs go through the same entry points
a user would call (CLI commands or the public solver API), results are
re-verified with the independent oracles in oracles.py, and each test
prints a single pass line naming its guarantee (visible with -s; the
test name itself carries the verdict under -v).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from anglestruct import (
    Certificate,
    Optimum,
    Solution,
    Unbounded,
    minimize_linear,
    solve_feasibility_nonneg,
    solve_feasibility_strict,
    verify_certificate,
)
from anglestruct._rational import unscaled
from anglestruct.angle_structures import (
    AngleAssignment,
    AreaCurvature,
    angle_vector_from_json,
    classify,
    realized_area_curvature,
)
from anglestruct.cli import main
from anglestruct.existence import (
    Holds,
    angle_linear_system,
    check_corollary2,
    find_angle_structure,
    find_semi_angle_structure,
)
from anglestruct.fixtures import fixture, fixture_names
from anglestruct.lp_core import NONNEG, STRICT_POS
from anglestruct.normal_coords import (
    NormalCoordinate,
    chi_area_curvature,
    chi_star,
    chi_via_lemma2,
)
from anglestruct.perturbation import apply_theorem3
from anglestruct.triangulation import build_vertex_classes

F = Fraction

SAMPLED_FIXTURES = ("fig8", "one-tet", "fig8-flat1", "fig8-flat2")


def corner_sum(alpha, tet, vertex):
    # independent corner sum: the three tet-edges meeting the vertex
    return sum((alpha.angles[6 * tet + k] for k in range(6)
                if vertex in oracles.EDGE_VERTICES[k]), F(0))


def quad_area(alpha, tet, p):
    # crossed edges of quad type p: everything but the pair (p, 5 - p)
    return sum((alpha.angles[6 * tet + k] for k in range(6)
                if k not in (p, 5 - p)), F(0)) - 2


def positive_sample(rng, n) -> AngleAssignment:
    # strictly positive angles capped at pi/3 keep every corner sum at
    # or below pi, so every realized triangle area is <= 0
    vec = [F(rng.randint(1, 12), 36) for _ in range(6 * n)]
    return AngleAssignment.from_vector(n, vec)


def solution_space_samples(t, rng, count):
    from anglestruct.normal_coords import compatibility_system
    matrix = [list(row) for row in compatibility_system(t).matrix]
    width = 7 * t.tet_count
    if matrix:
        basis = oracles.nullspace(matrix)
    else:
        basis = [[F(i == j) for j in range(width)] for i in range(width)]
    for _ in range(count):
        vec = [F(0)] * width
        for b in basis:
            c = F(rng.randint(-8, 8), rng.randint(1, 5))
            vec = [v + c * bv for v, bv in zip(vec, b)]
        yield NormalCoordinate.from_vector(t.tet_count, vec)


def write_fixture_files(capsys, tmp_path, name):
    assert main(["fixtures", name, str(tmp_path)]) == 0
    capsys.readouterr()
    return {
        "tri": str(tmp_path / ("%s.tri" % name)),
        "angles": str(tmp_path / ("%s.angles.json" % name)),
        "ac": str(tmp_path / ("%s.ac.json" % name)),
    }


def test_criterion_1_figure_eight_strict_pipeline(capsys, tmp_path):
    start = time.monotonic()
    paths = write_fixture_files(capsys, tmp_path, "fig8")
    code = main(["solve", paths["tri"], paths["ac"],
                 "--mode", "strict", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "assignment"
    t = fixture("fig8").triangulation
    alpha = AngleAssignment.from_vector(
        t.tet_count, unscaled(*angle_vector_from_json(rep["assignment"])))
    assert all(0 < a < 1 for a in alpha.angles)
    for tet in range(2):
        for vertex in range(4):
            assert corner_sum(alpha, tet, vertex) == 1
    for cls in oracles.union_find_edge_partition(t):
        assert sum(alpha.angles[6 * i + k] for i, k in cls) == 2
    realized = realized_area_curvature(alpha, t)
    assert realized.area == (F(0),) * 8
    assert realized.curvature == (F(0),) * 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("criterion 1 PASS: figure-eight strict solve re-verified "
          "exactly in %.2fs" % elapsed)


def test_criterion_2_chi_functional_identity():
    start = time.monotonic()
    checked = 0
    for idx, name in enumerate(SAMPLED_FIXTURES):
        fx = fixture(name)
        t, alpha = fx.triangulation, fx.angles
        ac = realized_area_curvature(alpha, t)
        rng = random.Random(100 + idx)
        for s in solution_space_samples(t, rng, 100):
            assert chi_area_curvature(t, s, ac) == chi_via_lemma2(t, s, alpha)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 400
    assert elapsed < 10.0
    print("criterion 2 PASS: both Euler evaluators agree on %d sampled "
          "coordinates in %.2fs" % (checked, elapsed))


def test_criterion_3_equivalence_on_sampled_targets():
    rng = random.Random(2026)
    total = 0
    for name in SAMPLED_FIXTURES:
        t = fixture(name).triangulation
        for _ in range(50):
            alpha = positive_sample(rng, t.tet_count)
            ac = realized_area_curvature(alpha, t)
            assert all(a <= 0 for a in ac.area)
            # raises with both outcomes attached on any disagreement
            rep = check_corollary2(t, ac)
            assert rep.reason == "ok"
            assert isinstance(rep.strict_result, AngleAssignment) == \
                isinstance(rep.condition2_result, Holds)
            total += 1
    print("criterion 3 PASS: strict existence and the quad-slice "
          "certification agree on all %d sampled targets" % total)


def test_criterion_4_farkas_soundness():
    verified = 0

    def check_cert(sys, cert):
        nonlocal verified
        assert verify_certificate(sys, cert.y)
        verified += 1

    # pipeline certificates from unrealizable targets
    infeasible = fixture("fig8-infeasible")
    t = infeasible.triangulation
    for mode, finder in (("semi", find_semi_angle_structure),
                         ("strict", find_angle_structure)):
        cert = finder(t, infeasible.ac)
        assert not isinstance(cert, AngleAssignment)
        sys_ = angle_linear_system(t, infeasible.ac, mode)
        check_cert(sys_, cert)

    # a target with a zero corner sum: semi exists, strict provably not
    fig8 = fixture("fig8").triangulation
    degenerate = AngleAssignment.from_vector(
        2, [F(0), F(0), F(0), F(1, 2), F(1, 2), F(1, 2)] + [F(1, 3)] * 6)
    ac = realized_area_curvature(degenerate, fig8)
    cert = find_angle_structure(fig8, ac)
    assert not isinstance(cert, AngleAssignment)
    strict_sys = angle_linear_system(fig8, ac, "strict")
    check_cert(strict_sys, cert)
    # the full angle system has 12 variables: brute force must agree
    assert not oracles.bf_strict_feasible(strict_sys)
    assert oracles.bf_feasible(angle_linear_system(fig8, ac, "semi"))

    # boundary fixture with an unrealizable curvature
    onetet = fixture("one-tet").triangulation
    bad = AreaCurvature.of([0] * 4, [2] * 6)
    for mode in ("semi", "strict"):
        sys_ = angle_linear_system(onetet, bad, mode)
        finder = (find_semi_angle_structure if mode == "semi"
                  else find_angle_structure)
        cert = finder(onetet, bad)
        assert not isinstance(cert, AngleAssignment)
        check_cert(sys_, cert)
        assert not oracles.bf_feasible(sys_)

    # the realizable figure-eight systems, 12 variables each
    zero = AreaCurvature.of([0] * 8, [0] * 2)
    assert oracles.bf_feasible(angle_linear_system(fig8, zero, "semi"))
    assert oracles.bf_strict_feasible(angle_linear_system(fig8, zero,
                                                          "strict"))
    assert isinstance(find_angle_structure(fig8, zero), AngleAssignment)

    # seeded random systems, all within the brute-force size bound
    rng = random.Random(4242)
    for _ in range(40):
        cols = rng.randint(1, 5)
        rows = rng.randint(1, 3)
        sys_ = oracles.dense_system(
            [[F(rng.randint(-3, 3)) for _ in range(cols)]
             for _ in range(rows)],
            [F(rng.randint(-4, 4)) for _ in range(rows)],
            [NONNEG] * cols)
        res = solve_feasibility_nonneg(sys_)
        assert isinstance(res, Solution) == oracles.bf_feasible(sys_)
        if isinstance(res, Certificate):
            check_cert(sys_, res)
    for _ in range(25):
        cols = rng.randint(1, 5)
        rows = rng.randint(1, 3)
        sys_ = oracles.dense_system(
            [[F(rng.randint(-3, 3)) for _ in range(cols)]
             for _ in range(rows)],
            [F(rng.randint(-4, 4)) for _ in range(rows)],
            [NONNEG] * cols)
        obj = [F(rng.randint(-3, 3)) for _ in range(cols)]
        res = minimize_linear(obj, sys_)
        status, value = oracles.bf_minimize(obj, sys_)
        if status == "optimal":
            assert isinstance(res, Optimum) and res.value == value
        elif status == "unbounded":
            assert isinstance(res, Unbounded)
        else:
            assert isinstance(res, Certificate)
            check_cert(sys_, res)
    for _ in range(15):
        cols = rng.randint(2, 5)
        coeffs = [[F(rng.randint(-2, 2)) for _ in range(cols)]]
        rhs = [F(rng.randint(-2, 2))]
        coeffs.append([F(1)] * cols)
        rhs.append(F(rng.randint(1, 3)))
        sys_ = oracles.dense_system(coeffs, rhs, [STRICT_POS] * cols)
        res = solve_feasibility_strict(sys_)
        assert isinstance(res, Solution) == \
            oracles.bf_strict_feasible(sys_)
        if isinstance(res, Certificate):
            check_cert(sys_, res)
    assert verified >= 5
    print("criterion 4 PASS: %d emitted certificates verified; solver "
          "outcomes match brute-force enumeration on every small system"
          % verified)


def test_criterion_5_flat_to_strict_perturbation():
    start = time.monotonic()
    for name, t_star in (("fig8-flat1", F(1, 6)), ("fig8-flat2", F(1, 8))):
        fx = fixture(name)
        res = apply_theorem3(fx.angles, fx.triangulation)
        new, after = res.assignment, res.realized
        assert classify(new) == "strict"
        assert all(a < 0 for a in after.area)
        before = realized_area_curvature(fx.angles, fx.triangulation)
        assert after.curvature == before.curvature
        for tet in range(2, fx.triangulation.tet_count):
            for corner in range(4):
                assert corner_sum(new, tet, corner) - 1 == -t_star
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("criterion 5 PASS: both flat fixtures perturb to strict "
          "assignments with negative areas and exact curvatures in %.2fs"
          % elapsed)


def test_criterion_6_strict_solutions_have_negative_quad_areas():
    checked = 0
    rng = random.Random(66)
    for name in SAMPLED_FIXTURES:
        t = fixture(name).triangulation
        found = 0
        for _ in range(30):
            alpha = positive_sample(rng, t.tet_count)
            ac = realized_area_curvature(alpha, t)
            res = find_angle_structure(t, ac)
            if not isinstance(res, AngleAssignment):
                continue
            found += 1
            for tet in range(t.tet_count):
                for p in range(3):
                    assert quad_area(res, tet, p) < 0
            checked += 1
        assert found > 0
    for name in ("fig8-flat1", "fig8-flat2"):
        fx = fixture(name)
        new = apply_theorem3(fx.angles, fx.triangulation).assignment
        for tet in range(fx.triangulation.tet_count):
            for p in range(3):
                assert quad_area(new, tet, p) < 0
        checked += 1
    print("criterion 6 PASS: every strict assignment with nonpositive "
          "triangle areas has strictly negative quad areas (%d assignments)"
          % checked)


def test_criterion_7_chi_star_equals_link_euler_characteristic():
    checked = 0
    for name in fixture_names():
        t = fixture(name).triangulation
        for v in build_vertex_classes(t):
            tris = [F(0)] * (4 * t.tet_count)
            for i, vert in v.corners:
                tris[4 * i + vert] = F(1)
            s = NormalCoordinate(quads=(F(0),) * (3 * t.tet_count),
                                 tris=tuple(tris))
            expected = oracles.link_euler_oracle(t, v.corners)
            assert chi_star(t, s) == expected
            assert v.link_euler == expected
            checked += 1
    print("criterion 7 PASS: chi* of every vertex-linking class matches "
          "the independently assembled link surface (%d classes)" % checked)


def test_criterion_8_byte_identical_cli_reruns(capsys, tmp_path):
    fig8 = write_fixture_files(capsys, tmp_path, "fig8")
    flat1 = write_fixture_files(capsys, tmp_path, "fig8-flat1")
    script = shutil.which("anglestruct")
    if script:
        base = [script]
    else:
        base = [sys.executable, "-c",
                "import sys; from anglestruct.cli import main; "
                "sys.exit(main(sys.argv[1:]))"]
    commands = [
        ["solve", fig8["tri"], fig8["ac"], "--mode", "strict", "--json"],
        ["certify", fig8["tri"], fig8["angles"], "--json"],
        ["perturb", flat1["tri"], flat1["angles"], "--json"],
    ]
    for argv in commands:
        first = subprocess.run(base + argv, capture_output=True)
        second = subprocess.run(base + argv, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
        json.loads(first.stdout)
    print("criterion 8 PASS: separate CLI processes emit byte-identical "
          "verdict JSON on reruns")
