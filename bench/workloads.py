"""The benchmark workloads: seeded set-up, the op sequence, and checks.

Set-up builds each workload's inputs through the library and writes
them as the files a user would pass to the CLI.  Every op then goes
through the user surface: ``anglestruct.cli.main([..., "--json"])``, or
for the chi evaluators the public library calls.  Each op has a check
that re-derives its answer from outside the solver.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from anglestruct import (
    AngleAssignment,
    AreaCurvature,
    BasisVerificationError,
    ac_to_json,
    angle_linear_system,
    angles_to_json,
    chi_area_curvature,
    chi_via_lemma2,
    combine,
    compatibility_system,
    decompose,
    format_triangulation,
    realized_area_curvature,
    solution_space_basis,
)
from anglestruct import cli

import generators


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    # Returns None when the output is right, a KnownDefect, or a reason.
    check: Callable[[object], object]


@dataclass(frozen=True)
class KnownDefect:
    """An outcome that matches a defect already recorded for the
    package; it is reported on its own and not counted as a failure."""
    reason: str


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv) + ["--json"])
    return CliResult(code, out.getvalue())


class Workdir:
    """Writes input files under one directory, by base name."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def write_json(self, name: str, obj) -> str:
        return self.write(name, json.dumps(obj, sort_keys=True, indent=2)
                          + "\n")


# --- checks -----------------------------------------------------------


def _report(out):
    """The parsed JSON report, or a failure reason string."""
    if isinstance(out, BaseException):
        return "raised %s: %s" % (type(out).__name__, out)
    if out.code != 0:
        return "exit code %d" % out.code
    try:
        return json.loads(out.stdout)
    except ValueError as err:
        return "report is not JSON: %s" % err


def _fractions(items):
    return [Fraction(v) for v in items]


def _union_find_count(items, pairs) -> dict:
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in items}


def _oriented_edge_classes(t) -> dict:
    """Class of each oriented tet-edge (tet, u, v), by plain union-find
    over the gluings."""
    items = [(i, u, v) for i in range(t.tet_count)
             for u in range(4) for v in range(4) if u != v]
    pairs = []
    for (i, f), (j, g), perm in t.glued_pairs():
        for u in range(4):
            for v in range(4):
                if u != v and f not in (u, v):
                    pairs.append(((i, u, v), (j, perm[u], perm[v])))
    return _union_find_count(items, pairs)


def edge_class_count(t) -> int:
    cls = _oriented_edge_classes(t)
    merged = _union_find_count(
        list(cls.values()),
        [(cls[(i, u, v)], cls[(i, v, u)]) for (i, u, v) in cls])
    return len(set(merged.values()))


def has_folded_edge(t) -> bool:
    """Whether some edge class passes the same tet-edge twice, i.e. a
    tet-edge is identified with itself reversed."""
    cls = _oriented_edge_classes(t)
    return any(cls[(i, u, v)] == cls[(i, v, u)] for (i, u, v) in cls)


def vertex_class_count(t) -> int:
    items = [(i, v) for i in range(t.tet_count) for v in range(4)]
    pairs = [((i, v), (j, perm[v]))
             for (i, f), (j, g), perm in t.glued_pairs()
             for v in range(4) if v != f]
    return len(set(_union_find_count(items, pairs).values()))


# The checks derive their expected values when they run, between ops and
# with tracing paused, so that neither the timed set-up nor the traced
# layers include the benchmark's own oracles.


def check_validate(t):
    n = t.tet_count

    def check(out):
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        edges, vertices = edge_class_count(t), vertex_class_count(t)
        if rep["tet_count"] != n or rep["boundary_face_count"] != 0:
            return "wrong tetrahedron or boundary face count"
        valences = [e["valence"] for e in rep["edge_classes"]]
        if len(valences) != edges:
            return "%d edge classes, expected %d" % (len(valences), edges)
        if not 6 * n <= sum(valences) <= 12 * n:
            return "valence sum %d outside [6n, 12n]" % sum(valences)
        corners = [v["corner_count"] for v in rep["vertex_classes"]]
        if len(corners) != vertices or sum(corners) != 4 * n:
            return "vertex classes do not partition the 4n corners"
        return None
    return check


def check_analyze(t):
    n = t.tet_count

    def check(out):
        if isinstance(out, BasisVerificationError) and has_folded_edge(t):
            return KnownDefect(
                "analyze raises BasisVerificationError on a table with a "
                "folded edge class (ROADMAP item 4): %s" % out)
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        m = edge_class_count(t)
        comp = rep["compatibility"]
        if comp["rows"] != 6 * n or comp["columns"] != 7 * n:
            return "compatibility system is not 6n x 7n"
        if comp["solution_space_dim"] != n + m:
            return "solution space dimension %d, expected n + m = %d" % (
                comp["solution_space_dim"], n + m)
        for entry in rep["vertex_linking_classes"]:
            if Fraction(entry["chi_star"]) != entry["link_euler"]:
                return "chi* of vertex class %d differs from its link " \
                       "euler characteristic" % entry["vertex_class"]
        if rep.get("canonical_basis") != {"tetrahedral": n, "edge": m}:
            return "canonical basis is not n tetrahedral + m edge vectors"
        return None
    return check


def _within(angles, mode) -> bool:
    if mode == "strict":
        return all(0 < a < 1 for a in angles)
    return all(0 <= a <= 1 for a in angles)


def check_assignment(t, ac: AreaCurvature, mode: str):
    """The report must carry an assignment of the mode that realizes ac."""
    def check(out):
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        if rep.get("result") != "assignment":
            return "expected an assignment, got %r" % rep.get("result")
        angles = _fractions(rep["assignment"]["angles"])
        if not _within(angles, mode):
            return "assignment is not %s" % mode
        alpha = AngleAssignment.from_vector(t.tet_count, angles)
        if realized_area_curvature(alpha, t) != ac:
            return "assignment does not realize the target"
        return None
    return check


def farkas_reason(t, ac: AreaCurvature, mode: str, y):
    """Recompute the Farkas sign conditions on the solver's own system."""
    system = angle_linear_system(t, ac, mode)
    if len(y) != system.row_count:
        return "certificate has %d entries for %d rows" % (
            len(y), system.row_count)
    ydotb = sum(a * b for a, b in zip(y, system.rhs))
    aty = [sum(y[i] * system.coeffs[i][j] for i in range(len(y)) if y[i])
           for j in range(system.col_count)]
    if any(w > 0 for w in aty):
        return "A^T y has a positive entry"
    if mode == "semi" and not ydotb > 0:
        return "y.b is not positive"
    if mode == "strict" and not (ydotb > 0 or
                                 (ydotb == 0 and any(w < 0 for w in aty))):
        return "certificate does not cut the open cone"
    return None


def check_certificate(t, ac: AreaCurvature, mode: str):
    def check(out):
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        if rep.get("result") != "certificate":
            return "expected a certificate, got %r" % rep.get("result")
        if rep["certificate"]["verified"] is not True:
            return "solver did not verify its certificate"
        return farkas_reason(t, ac, mode, _fractions(rep["certificate"]["y"]))
    return check


def _quad_areas(alpha: AngleAssignment):
    """Quad areas per tetrahedron: angle sum over the four crossed
    tet-edges minus 2, i.e. -2 + total - opposite pair."""
    out = []
    for i in range(alpha.tet_count):
        a = alpha.angles[6 * i:6 * i + 6]
        total = sum(a)
        out.append([total - a[p] - a[5 - p] - 2 for p in range(3)])
    return out


def check_certify_holds(alpha: AngleAssignment):
    """Every quad area is negative, so the slice maximum (half of it) lies
    between the best tetrahedral vector's value and the largest quad
    area; the slice is never empty on a closed table."""
    def check(out):
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        areas = _quad_areas(alpha)
        upper = max(max(row) for row in areas) / 2
        lower = max(sum(row) / 3 for row in areas) / 2
        if rep.get("result") != "holds" or rep.get("vacuous"):
            return "expected a non-vacuous 'holds', got %r" % rep.get("result")
        opt = Fraction(rep["optimum"])
        if not lower <= opt <= upper < 0:
            return "optimum %s outside [%s, %s]" % (opt, lower, upper)
        return None
    return check


def check_certify_fails(t):
    """All quad areas vanish at angles 1/2, so the optimum is 0 and the
    witness must lie in the normalized quad slice."""
    def check(out):
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        if rep.get("result") != "fails" or Fraction(rep["optimum"]) != 0:
            return "expected 'fails' with optimum 0"
        quads = _fractions(rep["witness"]["quads"])
        vec = quads + _fractions(rep["witness"]["tris"])
        if any(q < 0 for q in quads) or sum(quads) != 1:
            return "witness quads are not a point of the slice"
        if any(sum(a * b for a, b in zip(row, vec) if a)
               for row in compatibility_system(t).matrix):
            return "witness violates a compatibility row"
        return None
    return check


# --- workloads ----------------------------------------------------------


def _write_inputs(wd: Workdir, stem: str, t, **vectors):
    paths = {"tri": wd.write(stem + ".tri", format_triangulation(t))}
    for key, obj in vectors.items():
        paths[key] = wd.write_json("%s.%s.json" % (stem, key), obj)
    return paths


# One table's solve or certify time varies by a factor of two or more
# with the seed, so the closed workloads run many small tables: the sum
# over 48 tables varies with the seed about a seventh as much as one
# table, over 64 about an eighth.  The capped solve on target pos is
# heavy-tailed (0.7 to 2.8 s at n = 8), so it runs only on the smallest
# tables.
CLOSED_SOLVE_SIZES = (4, 6, 8) * 16
POS_SIZE = 4
CLOSED_CERTIFY_SIZES = (4,) * 64


def setup_closed_solve(seed: int, wd: Workdir):
    rng = random.Random(seed)
    ops = []
    for index, n in enumerate(CLOSED_SOLVE_SIZES):
        stem = "t%02d-n%d" % (index, n)
        t = generators.random_closed_table(rng, n, name=stem)
        neg = realized_area_curvature(
            generators.random_angles(rng, n, 1, 12), t)
        targets = {"neg": neg, "bad": generators.infeasible_target(t, neg)}
        if n == POS_SIZE:
            targets["pos"] = realized_area_curvature(
                generators.random_angles(rng, n, 6, 30), t)
        paths = _write_inputs(wd, stem, t, **{
            key: ac_to_json(ac) for key, ac in targets.items()})
        ops.append(Op("validate", stem + " validate",
                      _cli(["validate", paths["tri"]]), check_validate(t)))
        for key, ac in targets.items():
            for mode in ("semi", "strict"):
                checker = check_certificate if key == "bad" \
                    else check_assignment
                ops.append(Op(
                    "solve", "%s solve %s %s" % (stem, mode, key),
                    _cli(["solve", paths["tri"], paths[key],
                          "--mode", mode]),
                    checker(t, ac, mode)))
    return ops


def setup_closed_certify(seed: int, wd: Workdir):
    rng = random.Random(seed)
    ops = []
    for index, n in enumerate(CLOSED_CERTIFY_SIZES):
        stem = "t%02d-n%d" % (index, n)
        t = generators.random_closed_table(rng, n, name=stem)
        neg = generators.random_angles(rng, n, 1, 12)
        half = AngleAssignment.from_vector(n, [Fraction(1, 2)] * (6 * n))
        paths = _write_inputs(wd, stem, t, neg=angles_to_json(neg),
                              half=angles_to_json(half))
        ops.append(Op("validate", stem + " validate",
                      _cli(["validate", paths["tri"]]), check_validate(t)))
        ops.append(Op("analyze", stem + " analyze",
                      _cli(["analyze", paths["tri"]]), check_analyze(t)))
        ops.append(Op("certify", stem + " certify neg",
                      _cli(["certify", paths["tri"], paths["neg"]]),
                      check_certify_holds(neg)))
        ops.append(Op("certify", stem + " certify half",
                      _cli(["certify", paths["tri"], paths["half"]]),
                      check_certify_fails(t)))
    return ops


CHI_SAMPLES = 12
FLAT_SIZES = (2, 3, 4, 5, 6)


def setup_flat_stack(seed: int, wd: Workdir):
    rng = random.Random(seed)
    ops = []
    chi_ops = []
    for k in FLAT_SIZES:
        stem = "flat%d" % k
        t = generators.stacked_flat_table(k)
        alpha = generators.stacked_flat_angles(rng, k)
        ac = realized_area_curvature(alpha, t)
        basis = solution_space_basis(t)
        paths = _write_inputs(wd, stem, t, angles=angles_to_json(alpha))
        perturbed = os.path.join(wd.root, stem + ".perturbed.json")
        ops.append(Op("validate", stem + " validate",
                      _cli(["validate", paths["tri"]]), check_validate(t)))
        ops.append(Op("analyze", stem + " analyze",
                      _cli(["analyze", paths["tri"]]), check_analyze(t)))
        ops.append(Op("perturb", stem + " perturb",
                      _cli(["perturb", paths["tri"], paths["angles"]]),
                      _check_perturb(t, ac, wd, perturbed)))
        ops.append(Op("solve", stem + " solve strict perturbed",
                      _cli(["solve", paths["tri"], perturbed,
                            "--mode", "strict"]),
                      _check_perturbed_solve(t, perturbed)))
        for j in range(CHI_SAMPLES):
            omega = generators.random_weights(rng, len(basis.w_sigma))
            z = generators.random_weights(rng, len(basis.w_edge))
            s = combine(basis, omega, z)
            chi_ops.append(Op("chi", "%s chi %d" % (stem, j),
                              _chi(t, s, ac, alpha, basis),
                              _check_chi(omega, z)))
    return ops + chi_ops


def _check_perturb(t, before: AreaCurvature, wd: Workdir, out_path: str):
    """The perturbed assignment is strict, has negative areas, keeps every
    curvature, and is written out as the next solve's target."""
    def check(out):
        if os.path.exists(out_path):
            os.remove(out_path)
        rep = _report(out)
        if isinstance(rep, str):
            return rep
        angles = _fractions(rep["assignment"]["angles"])
        if not _within(angles, "strict"):
            return "perturbed assignment is not strict"
        after = realized_area_curvature(
            AngleAssignment.from_vector(t.tet_count, angles), t)
        if any(a >= 0 for a in after.area):
            return "perturbed assignment has a nonnegative area"
        if after.curvature != before.curvature:
            return "perturbation changed a curvature"
        if Fraction(rep["t_star"]) * 2 != Fraction(rep["t_max"]) or \
                Fraction(rep["t_max"]) <= 0:
            return "t* is not half of a positive t_max"
        if rep["after"] != ac_to_json(after):
            return "reported realized data differ from the assignment's"
        wd.write_json(os.path.basename(out_path), rep["after"])
        return None
    return check


def _check_perturbed_solve(t, path: str):
    def check(out):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        ac = AreaCurvature.of(_fractions(data["area"]),
                              _fractions(data["curvature"]))
        return check_assignment(t, ac, "strict")(out)
    return check


def _chi(t, s, ac, alpha, basis):
    def call():
        return (chi_area_curvature(t, s, ac), chi_via_lemma2(t, s, alpha),
                decompose(t, s, basis))
    return call


def _check_chi(omega, z):
    def check(out):
        if isinstance(out, BaseException):
            return "raised %s: %s" % (type(out).__name__, out)
        direct, lemma2, weights = out
        if direct != lemma2:
            return "chi evaluators disagree: %s vs %s" % (direct, lemma2)
        if weights != (omega, z):
            return "decompose does not return the weights"
        return None
    return check


def _cli(argv):
    return lambda: run_cli(argv)


# Each set-up builds the workload's inputs in a work directory and
# returns the op sequence that reads them.
SETUPS = {
    "closed-solve": setup_closed_solve,
    "closed-certify": setup_closed_certify,
    "flat-stack": setup_flat_stack,
}
