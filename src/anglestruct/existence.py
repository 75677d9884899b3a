"""Deciding angle structures with prescribed area-curvature data.

The decision problem is linear: stack one row per tetrahedron corner
(its three angles must sum to the prescribed triangle area plus pi) and
one row per edge class (the angles around the edge must sum to the total
angle 2*pi or pi minus the prescribed curvature), then ask for a
nonnegative or strictly positive solution.  Both answers come with proof:
an assignment is re-verified against the targets and the mode, and a
refusal carries a Farkas certificate checked by recomputation.

Before any LP, a target on a closed table is tested against the summed
Gauss-Bonnet identity that every realization meets, sum_c A_c +
sum_e (2 / mult_e) kappa_e = sum_e 4 / mult_e - 4n; one that breaks it
is refused in closed form, by a certificate over angle_linear_system's
rows that the sum itself gives.

The solvers run a smaller system with the same solutions.  A
tetrahedron's four corner rows fix the difference of each pair of
opposite angles, so one variable per pair, shifted by the offset the
prescribed areas force, leaves one row per tetrahedron: 3n columns and
n + m rows in place of 6n and 4n + m.  Its other rows are written with
each tetrahedron's third pair replaced by what its tet row says it is,
so that pair's column is in its tet row alone and lp_core's slack start
seats it there: phase 1 repairs only the edge rows.  A refusal of that
system is mapped back to the rows as derived, lifted to a Farkas vector
over angle_linear_system's rows, the paper's system, and verified there
too.

From the targets to the verdict the finders work in ints.  The targets
are scaled once, to ints over one denominator, and both systems are
built in lp_core's int form, their rhs those ints.  The pair solution
becomes angles over one denominator, kept by the assignment as its
scaled form, which is re-verified: each corner and edge sum against its
target, with no AreaCurvature built.  A refusal is lifted over the pair
certificate's scaled ints.  Past lp_core's answers no Fraction is
built: the angles and the lifted y keep their ints, their Fractions
built when first read.

The second deliverable is the certification of the quad-cone condition:
whether every compatible normal class with nonnegative, not-all-zero
quad part has negative total quad area against the semi assignment.
That is one exact LP over the normalized quad slice, its triangle part
projected away; `normal_coords` gives the slice's rows and turns an
optimal quad part back into a coordinate, and the objective is the
assignment's quad areas as ints.  Whether the condition holds exactly
when a strict structure with nonpositive triangle areas exists is what
check_corollary2 tests; as coded it does not: on some tables a verified
certificate refutes strict existence while the condition holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional

from ._rational import exact
from ._record import Record
from .angle_structures import (
    AngleAssignment,
    AreaCurvature,
    _angle_sums,
    _check_semi,
    _quad_areas,
    classify,
    realized_area_curvature,
)
from .lp_core import (
    NONNEG,
    STRICT_POS,
    Certificate,
    Infeasible,
    LinearSystem,
    Optimum,
    _verified,
    minimize_linear,
    solve_feasibility_nonneg,
    solve_feasibility_strict,
)
from .normal_coords import (
    NormalCoordinate,
    _from_slice,
    _quad_slice,
    chi_area_curvature,
    chi_star,
    combine,
    is_in_solution_space,
)
from .triangulation import EDGE_VERTICES, EDGES_AT_VERTEX, Triangulation


class ExistenceError(ValueError):
    """Raised for dimension mismatches, violated preconditions, or a
    detected violation of the strict/condition-2 equivalence."""


def _targets(t: Triangulation, ac: AreaCurvature):
    """(den, corner, edge, capped): the corner targets a_i^l = A + 1 and
    the edge targets b_j = 2 (1 on the boundary) - kappa as ints over one
    denominator, and whether a positive area needs caps."""
    edge_classes = t.edge_classes
    den, area, curvature = ac._parts()
    if len(area) != 4 * t.tet_count or len(curvature) != len(edge_classes):
        raise ExistenceError("area-curvature size does not match")
    corner = [a + den for a in area]
    edge = [(1 if cls.is_boundary else 2) * den - curvature[cls.index]
            for cls in edge_classes]
    return den, corner, edge, any(a > 0 for a in area)


def _check_realization(t: Triangulation, targets, alpha: AngleAssignment,
                       mode: str) -> AngleAssignment:
    """alpha, once its angle sums at each corner and around each edge
    class meet the targets and its angles lie in the mode's bounds.

    The sums are _angle_sums' ints, over alpha's den d, and the targets
    are _targets' ints over theirs, den: a sum s meets a target b exactly
    when s * den == b * d.  So this is the check that alpha realizes the
    data, in ints and with no AreaCurvature built."""
    den, corner, edge = targets[:3]
    d, corner_sums, edge_sums = _angle_sums(alpha, t)
    kind = classify(alpha)
    ok = kind == "strict" if mode == "strict" else kind in ("semi", "strict")
    if not ok or any(s * den != b * d for s, b in
                     zip(corner_sums + edge_sums, corner + edge)):
        raise ExistenceError(
            "internal error: solver output failed re-verification")
    return alpha


def angle_linear_system(t: Triangulation, ac: AreaCurvature,
                        mode: str) -> LinearSystem:
    """The linear system B x = (a, b) of the paper, in the given mode.

    Columns: the 6n tet-edge angles.  Rows: 4n corner rows (one per
    tetrahedron corner, 1 on the three tet-edges at that corner) followed
    by m edge rows (entry = how often the tet-edge occurs around that
    edge class).  Right-hand side: the corner targets a_i^l =
    A(triangle) + pi followed by the edge targets b_j = 2*pi - kappa
    (interior) or pi - kappa (boundary), in units of pi throughout.

    With every triangle area <= 0 the corner rows already bound each
    angle by pi, so that system suffices; otherwise per-angle cap rows
    x + slack = 1 are appended and the slacks share the sign constraint
    of the angles.  The finders solve the smaller pair system below; every
    refutation they return is a Farkas vector over this system's rows.
    Built in lp_core's int form: the targets are ints over their den.
    """
    return _angle_system(t, _targets(t, ac), mode)


def _angle_system(t: Triangulation, targets, mode: str) -> LinearSystem:
    """angle_linear_system over _targets' targets for the same data."""
    den, corner, edge, capped = targets
    n = t.tet_count
    rows = [tuple((6 * i + k, 1) for k in EDGES_AT_VERTEX[l])
            for i in range(n) for l in range(4)]
    rows += [_tally(6 * i + k for i, k in cls.corners)
             for cls in t.edge_classes]
    rhs = corner + edge
    if capped:
        rows += [((p, 1), (6 * n + p, 1)) for p in range(6 * n)]
        rhs += [den] * (6 * n)
    return _system(rows, rhs, 12 * n if capped else 6 * n, mode, den)


def _tally(columns) -> tuple:
    """The int row of listed columns: a column listed twice counts 2."""
    row = {}
    for c in columns:
        row[c] = row.get(c, 0) + 1
    return tuple(sorted(row.items()))


def _system(rows, rhs, width: int, mode: str, den: int):
    """Int rows and rhs over den, over width columns, as a LinearSystem
    whose columns all carry the mode's sign, its one statement of what is
    asked: the one place a mode becomes a sign, and so where an unknown
    one fails."""
    sign = {"semi": NONNEG, "strict": STRICT_POS}.get(mode)
    if sign is None:
        raise ExistenceError("unknown solve mode %r" % (mode,))
    return LinearSystem._of_ints(rows, rhs, [sign] * width, rhs_den=den)


def _pair_system(t: Triangulation, targets, mode: str):
    """The angle system over one column per pair of opposite tet-edges,
    and the 6n shifts, as ints over a denominator, that take its
    solutions back to angles; targets are _targets' for the same data.

    A tetrahedron's four corner rows fix the difference of each opposite
    pair: x_k - x_{5-k} = d_k, the corner targets at the ends of edge k
    minus those at the ends of edge 5 - k, halved.  So x_k = y + max(0,
    d_k) and x_{5-k} = y + max(0, -d_k), and x >= 0 (> 0) exactly when
    y >= 0 (> 0).  Columns 3i + k, k < 3, are tet i's pairs.  Rows: one
    per tetrahedron, its three pairs summing to r_i, the corner target
    at vertex 0 minus the shifts on the edges there; the m edge rows in
    the pair columns, less their shifts; and when capped, y + slack = 1
    - |d| per pair, since the larger angle of the pair is y + |d|.
    Every number is an int over twice the targets' denominator, so d is
    too, and those ints are the rhs, in lp_core's int form.

    Every row but the tet rows is written with tet i's third pair,
    y_{3i+2} (tet-edges 2 and 3), replaced by r_i - y_{3i} - y_{3i+1},
    which tet row i says it is: c corners of tet i on edges 2 or 3 put
    -c on columns 3i and 3i + 1 of an edge row and take c r_i off its
    rhs, and the cap row of pair (i, 2) reads -y_{3i} - y_{3i+1} +
    slack = 1 - |d| - r_i.  The solutions are the same.  Column 3i + 2
    is then in tet row i alone, so lp_core's slack start makes it basic
    there, and phase 1 has only the edge rows, and the cap rows whose
    rhs that made negative, to repair.
    """
    den, corner, edge, capped = targets
    n = t.tet_count
    den *= 2
    shift, r, rows = [], [], []
    for i in range(n):
        c = corner[4 * i:4 * i + 4]
        shift += [max(c[u] + c[v] - c[a] - c[b], 0) for (u, v), (a, b)
                  in zip(EDGE_VERTICES, reversed(EDGE_VERTICES))]
        rows.append(((3 * i, 1), (3 * i + 1, 1), (3 * i + 2, 1)))
        r.append(2 * c[0] - sum(shift[6 * i:6 * i + 3]))
    rhs = list(r)
    for cls, b in zip(t.edge_classes, edge):
        row = {}
        b *= 2
        for i, k in cls.corners:
            b -= shift[6 * i + k]
            if k in (2, 3):
                row[3 * i] = row.get(3 * i, 0) - 1
                row[3 * i + 1] = row.get(3 * i + 1, 0) - 1
                b -= r[i]
            else:
                p = 3 * i + min(k, 5 - k)
                row[p] = row.get(p, 0) + 1
        rows.append(tuple(sorted((c, a) for c, a in row.items() if a)))
        rhs.append(b)
    if capped:
        for i in range(n):
            p, s = 3 * i, 3 * (n + i)
            caps = [den - shift[6 * i + k] - shift[6 * i + 5 - k]
                    for k in range(3)]
            rows += [((p, 1), (s, 1)), ((p + 1, 1), (s + 1, 1)),
                     ((p, -1), (p + 1, -1), (s + 2, 1))]
            rhs += [caps[0], caps[1], caps[2] - r[i]]
    sys = _system(rows, rhs, 6 * n if capped else 3 * n, mode, den)
    return sys, den, shift


def _lifted(t: Triangulation, targets, mode: str, shift, y):
    """The reduced pair system's Farkas vector y = (z, w, g), a (den,
    ints) form, as one over angle_linear_system's rows for the targets,
    verified there.

    First y is mapped back to the pair rows as derived, before y_{3i+2}
    was replaced: a reduced row that took c r_i off its rhs is that row
    less c times tet row i, so the tet multiplier z_i loses w_e for each
    corner (i, k) of class e with k in {2, 3}, and g_{3i+2}.  The
    products with the rows and the rhs are unchanged, so the vector
    refutes the pair system as it refuted the reduced one.

    The edge multipliers w stay, and u = E^T w is what they put on each
    tet-edge column.  On each pair's tight side, the side with the
    positive shift (side k when d = 0), the corner multipliers h are
    chosen so that the full column is 0: the two corners at that edge sum
    to E = -u - g, and the cap multiplier g goes on that side's cap row.
    The other side's two corners sum to z_i - E, which makes its full
    column the pair's column z_i + u_k + u_{5-k} + g <= 0, and the slack
    columns are g and 0.  Six edge sums whose opposite pairs all add up
    to z_i come from h_v = (sum of the three at v - z_i) / 2.  Then y.b
    is the pair system's y.b, so the refutation carries over, strictness
    included: a negative pair or slack column stays a negative column.
    The lift is taken over y's ints, over den; h is over 2 den, so w and
    g are doubled to join it, and the lifted vector keeps those ints.
    """
    n = t.tet_count
    m = len(t.edge_classes)
    den, ints = y
    z, w, g = list(ints[:n]), ints[n:n + m], ints[n + m:]
    u = [0] * (6 * n)
    for cls, wj in zip(t.edge_classes, w):
        if wj:
            for i, k in cls.corners:
                u[6 * i + k] += wj
                if k in (2, 3):
                    z[i] -= wj
    h = []
    caps = [0] * (6 * n if g else 0)
    for i in range(n):
        if g:
            z[i] -= g[3 * i + 2]
        sums = [0] * 6
        for k in range(3):
            tight = 5 - k if shift[6 * i + 5 - k] else k
            sums[tight] = -u[6 * i + tight] - (g[3 * i + k] if g else 0)
            sums[5 - tight] = z[i] - sums[tight]
            if g:
                caps[6 * i + tight] = 2 * g[3 * i + k]
        h += [sum(sums[k] for k in EDGES_AT_VERTEX[v]) - z[i]
              for v in range(4)]
    return _verified(_angle_system(t, targets, mode),
                     (2 * den, (*h, *(2 * v for v in w), *caps)))


def _summed_refusal(t: Triangulation, targets, mode: str):
    """A certificate over angle_linear_system's rows when the targets
    break the summed Gauss-Bonnet identity, else None.

    Only on a table with no boundary face, so no boundary edge class.
    y is 1 on each corner row, -2 / mult on each edge row, mult the
    class's fold multiplicity (`EdgeClass.mult`, 1 or 2), and 0 on the
    cap rows: an angle column meets two corner rows and its class's row
    mult times, so A^T y = 0, and y.b = 0 for every realization.  That
    is the identity sum_c A_c + sum_e (2 / mult_e) kappa_e =
    sum_e 4 / mult_e - 4n, in units of pi.  When y.b is not 0,
    y or -y refutes both modes, with y.b > 0."""
    _, corner, edge, capped = targets
    if any(cls.is_boundary for cls in t.edge_classes):
        return None
    weights = [-2 // cls.mult for cls in t.edge_classes]
    yb = sum(corner) + sum(map(mul, weights, edge))
    if not yb:
        return None
    sign = 1 if yb > 0 else -1
    y = [sign] * len(corner) + [sign * w for w in weights]
    if capped:
        y += [0] * (6 * t.tet_count)
    return _verified(_angle_system(t, targets, mode), (1, y))


def _decide(t: Triangulation, ac: AreaCurvature, mode: str):
    targets = _targets(t, ac)
    refusal = _summed_refusal(t, targets, mode)
    if refusal is not None:
        return refusal
    sys, den, shift = _pair_system(t, targets, mode)
    if mode == "strict":
        res = solve_feasibility_strict(sys)
    else:
        res = solve_feasibility_nonneg(sys)
    if isinstance(res, Infeasible):
        return _lifted(t, targets, mode, shift, res.certificate._scaled)
    d, xs = res._scaled
    lcd = lcm(d, den)
    fx, fs = lcd // d, lcd // den
    alpha = AngleAssignment._of_scaled(lcd, [
        xs[3 * i + min(k, 5 - k)] * fx + shift[6 * i + k] * fs
        for i in range(t.tet_count) for k in range(6)])
    return _check_realization(t, targets, alpha, mode)


def find_semi_angle_structure(t: Triangulation, ac: AreaCurvature):
    """A semi assignment (angles in [0, pi]) realizing ac, or a Farkas
    certificate over angle_linear_system's semi rows that none exists.

    A target that breaks the summed Gauss-Bonnet identity is refused
    first, with no LP.  Else solved over the pair system (3n columns,
    n + m rows, plus 3n caps and slacks when an area is positive); a
    refutation is lifted to the full system and verified there, an
    assignment re-verified."""
    return _decide(t, ac, "semi")


def find_angle_structure(t: Triangulation, ac: AreaCurvature):
    """A strict assignment (angles in (0, pi)) realizing ac, or a
    strict-mode Farkas certificate over angle_linear_system's strict
    rows, decided as the semi finder does, by margin maximization over
    the pair system."""
    return _decide(t, ac, "strict")


class Holds(Record):
    """The quad-slice maximum is negative: no compatible class with
    nonnegative quad part has nonnegative total quad area."""
    optimum: Fraction


class Fails(Record):
    """Refuted by a compatible class with nonnegative quad part summing
    to 1 and nonnegative total quad area."""
    optimum: Fraction
    witness: NormalCoordinate


def certify_condition2(t: Triangulation, alpha: AngleAssignment):
    """Maximize the quad-area pairing over the normalized quad slice.

    The program: maximize sum_q area(q) x_q over all coordinates in the
    solution space with quad part >= 0 summing to 1, triangle part free.
    Holds when the maximum is negative.  The reported optimum is half the
    raw maximum, the exact gap chi*(s) - chi^(A,k)(s) at the optimizer s,
    for the data alpha realizes: by Lemma 2 (chi_via_lemma2), chi^(A,k)
    is chi* minus half the quad-area pairing.

    The triangle part is projected away along the vertex-link forest:
    the LP runs on normal_coords' _quad_slice, the quad rows that
    projection leaves, and _from_slice sets a witness's triangle weights
    along the forest in ints.  The objective is the quad areas as ints
    over their den, which leaves the pivots and the optimizer alone.
    The slice holds the quad part of -W_sigma_0 / 3 (1/3 on tet 0's
    quads, -1/3 on its triangles), and the LP starts from that point,
    checked exactly, with phase 1 priced over that point's three quads.
    """
    _check_semi(alpha, t, ExistenceError)
    rows, rhs, point = _quad_slice(t.compatibility_system)
    den, areas = _quad_areas(alpha)
    res = minimize_linear([-a for a in areas], LinearSystem._of_ints(
        rows, rhs, [NONNEG] * len(areas)), start=point)
    if not isinstance(res, Optimum):
        raise ExistenceError("internal error: quad-slice program %s"
                             % type(res).__name__.lower())
    raw_max = -res.value / den
    optimum = raw_max / 2
    if raw_max < 0:
        return Holds(optimum=optimum)
    witness = _from_slice(t.compatibility_system, res._scaled)
    if not is_in_solution_space(t.compatibility_system, witness):
        raise ExistenceError(
            "internal error: quad-slice witness left the solution space")
    return Fails(optimum=optimum, witness=witness)


class EquivalenceReport(Record):
    """Both sides of Corollary 2 on one input, or why its hypothesis
    fails: reason is "ok" when it holds, and then the strict result is
    an assignment exactly when the condition-2 result holds."""
    reason: str
    semi: Optional[AngleAssignment] = None
    strict_result: object = None
    condition2_result: object = None


def check_corollary2(t: Triangulation, ac: AreaCurvature) -> EquivalenceReport:
    """Run both sides of the equivalence and insist they agree.

    Hypothesis: all triangle areas <= 0 and some semi assignment realizes
    the data.  Under it, a strict assignment should exist exactly when the
    quad-slice certification holds; any disagreement between the two
    pipelines is raised as a hard error with both outcomes attached.  As
    coded it does not hold: generated tables with semi but no strict
    assignment can still certify, and raise (ROADMAP item 2).
    """
    if any(a > 0 for a in ac.area):
        return EquivalenceReport(reason="a triangle area is positive")
    semi_res = find_semi_angle_structure(t, ac)
    if isinstance(semi_res, Certificate):
        return EquivalenceReport(
            reason="no semi assignment realizes the data",
            strict_result=semi_res)
    strict_res = find_angle_structure(t, ac)
    cond2 = certify_condition2(t, semi_res)
    strict_exists = isinstance(strict_res, AngleAssignment)
    if strict_exists != isinstance(cond2, Holds):
        raise ExistenceError(
            "equivalence violated: strict existence is %s but the "
            "quad-slice certification returned %r" % (strict_exists, cond2))
    return EquivalenceReport(reason="ok", semi=semi_res,
                             strict_result=strict_res, condition2_result=cond2)


def identity_4_9(t: Triangulation, alpha: AngleAssignment, h, z, omega):
    """Evaluate both sides of the dual pairing identity, exactly.

    For s built from the canonical basis as sum omega_i W_sigma_i +
    sum z_j W_e_j, the left side is the pairing (h, z).(a, b) with the
    solvers' own targets from _targets: a_i^l = A + 1, and b_j =
    2 - kappa_j on an interior class and 1 - kappa_j on a boundary
    class.  The right side is chi*(s) - chi^(A,k)(s) plus half the
    edge-incidence correction: over each class's distinct corners,
    (mult * z_j + h at the two corner endpoints) times (the two corner
    targets minus 2*pi), mult being the class's fold multiplicity, 2 at
    a folded corner, which z counts once.  Both sides are returned for
    the caller to compare; no equality is assumed here.
    """
    _check_semi(alpha, t, ExistenceError)
    n = t.tet_count
    m = len(t.edge_classes)
    h = exact("identity_4_9 h", h, ExistenceError)
    z = exact("identity_4_9 z", z, ExistenceError)
    omega = exact("identity_4_9 omega", omega, ExistenceError)
    if len(h) != 4 * n or len(z) != m or len(omega) != n:
        raise ExistenceError("h, z, omega sizes do not match")
    ac = realized_area_curvature(alpha, t)
    den, corner, edge, _ = _targets(t, ac)
    a = [Fraction(x, den) for x in corner]
    lhs = Fraction(sum(x * y for x, y in zip(h + z, corner + edge)), den)
    s = combine(t.solution_basis, omega, z)
    correction = Fraction(0)
    for cls in t.edge_classes:
        for i, k in set(cls.corners):
            l1, l2 = EDGE_VERTICES[k]
            correction += (cls.mult * z[cls.index] + h[4 * i + l1] +
                           h[4 * i + l2]) * (a[4 * i + l1] + a[4 * i + l2] - 2)
    rhs = chi_star(t, s) - chi_area_curvature(t, s, ac) + correction / 2
    return (lhs, rhs)
