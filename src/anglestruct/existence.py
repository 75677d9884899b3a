"""Deciding angle structures with prescribed area-curvature data.

The decision problem is linear: stack one row per tetrahedron corner
(its three angles must sum to the prescribed triangle area plus pi) and
one row per edge class (the angles around the edge must sum to the total
angle 2*pi or pi minus the prescribed curvature), then ask for a
nonnegative or strictly positive solution.  Both answers come with proof:
an assignment is re-verified against the realized area-curvature data,
and a refusal carries a Farkas certificate checked by recomputation.

The second deliverable is the certification of the quad-cone condition:
a strict structure with nonpositive triangle areas exists if and only if
every compatible normal class with nonnegative, not-all-zero quad part
has negative total quad area against the semi assignment.  That is one
exact LP over the normalized quad slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .angle_structures import (
    AngleAssignment,
    AreaCurvature,
    area_of_quad,
    chi_area_curvature,
    classify,
    realized_area_curvature,
)
from .lp_core import (
    FREE,
    NONNEG,
    STRICT_POS,
    Certificate,
    Infeasible,
    LinearSystem,
    NotStrict,
    Optimum,
    Solution,
    StrictSolution,
    Unbounded,
    minimize_linear,
    solve_feasibility_nonneg,
    solve_feasibility_strict,
)
from .normal_coords import (
    NormalCoordinate,
    chi_star,
    combine,
    solution_space_basis,
)
from .triangulation import EDGE_VERTICES, EDGES_AT_VERTEX, Triangulation


class ExistenceError(ValueError):
    """Raised for dimension mismatches, violated preconditions, or a
    detected violation of the strict/condition-2 equivalence."""


@dataclass(frozen=True)
class AngleSystem:
    """The linear system B x = ab over the 6n tet-edge angles.

    Rows: 4n corner rows (one per tetrahedron corner, 1 on the three
    tet-edges at that corner) followed by m edge rows (entry = how often
    the tet-edge occurs around that edge class).  Right-hand side: the
    corner targets a_i^l = A(triangle) + pi followed by the edge targets
    b_j = 2*pi - kappa (interior) or pi - kappa (boundary), in units of
    pi throughout.
    """
    tet_count: int
    edge_count: int
    matrix: tuple
    ab: tuple


def build_angle_system(t: Triangulation, ac: AreaCurvature) -> AngleSystem:
    n = t.tet_count
    edge_classes = t.edge_classes
    m = len(edge_classes)
    if len(ac.area) != 4 * n or len(ac.curvature) != m:
        raise ExistenceError("area-curvature size does not match")
    width = 6 * n
    matrix = []
    ab = []
    for i in range(n):
        for l in range(4):
            row = [Fraction(0)] * width
            for k in EDGES_AT_VERTEX[l]:
                row[6 * i + k] = Fraction(1)
            matrix.append(tuple(row))
            ab.append(ac.area[4 * i + l] + 1)
    for cls in edge_classes:
        row = [Fraction(0)] * width
        for i, k in cls.corners:
            row[6 * i + k] += Fraction(1)
        matrix.append(tuple(row))
        base = Fraction(1) if cls.is_boundary else Fraction(2)
        ab.append(base - ac.curvature[cls.index])
    return AngleSystem(tet_count=n, edge_count=m, matrix=tuple(matrix),
                       ab=tuple(ab))


def _capped(asys: AngleSystem):
    """Append per-angle rows x_e + slack = 1 bounding every angle by pi."""
    width = 6 * asys.tet_count
    matrix = [row + tuple([Fraction(0)] * width) for row in asys.matrix]
    rhs = list(asys.ab)
    for e in range(width):
        row = [Fraction(0)] * (2 * width)
        row[e] = Fraction(1)
        row[width + e] = Fraction(1)
        matrix.append(tuple(row))
        rhs.append(Fraction(1))
    return matrix, rhs


def _check_realization(t, ac, x, mode: str) -> AngleAssignment:
    alpha = AngleAssignment.from_vector(t.tet_count, x)
    realized = realized_area_curvature(alpha, t)
    kind = classify(alpha)
    ok = kind == "strict" if mode == "strict" else kind in ("semi", "strict")
    if realized.area != ac.area or realized.curvature != ac.curvature or \
            not ok:
        raise ExistenceError(
            "internal error: solver output failed re-verification")
    return alpha


def angle_linear_system(t: Triangulation, ac: AreaCurvature,
                        mode: str) -> LinearSystem:
    """The exact linear system the solvers run for the given mode.

    With every triangle area <= 0 the corner rows already bound each
    angle by pi, so the plain system suffices; otherwise per-angle cap
    rows x + slack = 1 are appended and the slacks share the sign
    constraint of the angles.
    """
    if mode not in ("semi", "strict"):
        raise ExistenceError("unknown solve mode %r" % (mode,))
    asys = build_angle_system(t, ac)
    width = 6 * t.tet_count
    sign = STRICT_POS if mode == "strict" else NONNEG
    if all(a <= 0 for a in ac.area):
        return LinearSystem.of(asys.matrix, asys.ab, [sign] * width)
    matrix, rhs = _capped(asys)
    return LinearSystem.of(matrix, rhs, [sign] * (2 * width))


def find_semi_angle_structure(t: Triangulation, ac: AreaCurvature):
    """A semi assignment (angles in [0, pi]) realizing ac, or a Farkas
    certificate that none exists."""
    sys = angle_linear_system(t, ac, "semi")
    res = solve_feasibility_nonneg(sys)
    if isinstance(res, Infeasible):
        return res.certificate
    return _check_realization(t, ac, res.x[:6 * t.tet_count], "semi")


def find_angle_structure(t: Triangulation, ac: AreaCurvature):
    """A strict assignment (angles in (0, pi)) realizing ac, or a
    strict-mode Farkas certificate, decided by margin maximization."""
    sys = angle_linear_system(t, ac, "strict")
    res = solve_feasibility_strict(sys)
    if isinstance(res, NotStrict):
        return res.certificate
    return _check_realization(t, ac, res.x[:6 * t.tet_count], "strict")


@dataclass(frozen=True)
class Holds:
    """The quad-slice maximum is negative (or the slice is empty,
    flagged vacuous): no compatible class can stop a strict upgrade."""
    optimum: Optional[Fraction]
    vacuous: bool = False


@dataclass(frozen=True)
class Fails:
    """Refuted by a compatible class with nonnegative quad part summing
    to 1 and nonnegative total quad area."""
    optimum: Fraction
    witness: NormalCoordinate


def certify_condition2(t: Triangulation, alpha: AngleAssignment):
    """Maximize the quad-area pairing over the normalized quad slice.

    The program: maximize sum_q area(q) x_q over all coordinates in the
    solution space with quad part >= 0 summing to 1, triangle part free.
    Holds when the maximum is negative.  The reported optimum is half the
    raw maximum, the exact gap chi^(A,k)(s) - chi*(s) at the optimizer.
    """
    if classify(alpha) == "generalized":
        raise ExistenceError("assignment is not semi")
    if alpha.tet_count != t.tet_count:
        raise ExistenceError("assignment size does not match")
    n = t.tet_count
    rows = list(t.compatibility_system.matrix)
    rhs = [Fraction(0)] * len(rows)
    slice_row = [Fraction(1)] * (3 * n) + [Fraction(0)] * (4 * n)
    rows.append(tuple(slice_row))
    rhs.append(Fraction(1))
    signs = [NONNEG] * (3 * n) + [FREE] * (4 * n)
    objective = [-area_of_quad(alpha, i, p)
                 for i in range(n) for p in range(3)]
    objective += [Fraction(0)] * (4 * n)
    res = minimize_linear(objective, LinearSystem.of(rows, rhs, signs))
    if isinstance(res, Infeasible):
        return Holds(optimum=None, vacuous=True)
    if isinstance(res, Unbounded):
        raise ExistenceError(
            "internal error: quad-slice program unbounded")
    raw_max = -res.value
    optimum = raw_max / 2
    if raw_max < 0:
        return Holds(optimum=optimum)
    witness = NormalCoordinate.from_vector(n, res.x)
    return Fails(optimum=optimum, witness=witness)


@dataclass(frozen=True)
class EquivalenceReport:
    hypothesis_met: bool
    reason: str
    semi: Optional[AngleAssignment] = None
    strict_exists: Optional[bool] = None
    condition2_holds: Optional[bool] = None
    strict_result: object = None
    condition2_result: object = None


def check_corollary2(t: Triangulation, ac: AreaCurvature) -> EquivalenceReport:
    """Run both sides of the equivalence and insist they agree.

    Hypothesis: all triangle areas <= 0 and some semi assignment realizes
    the data.  Under it, a strict assignment exists exactly when the
    quad-slice certification holds; any disagreement between the two
    pipelines is raised as a hard error with both outcomes attached.
    """
    if any(a > 0 for a in ac.area):
        return EquivalenceReport(
            hypothesis_met=False, reason="a triangle area is positive")
    semi_res = find_semi_angle_structure(t, ac)
    if isinstance(semi_res, Certificate):
        return EquivalenceReport(
            hypothesis_met=False,
            reason="no semi assignment realizes the data",
            strict_result=semi_res)
    strict_res = find_angle_structure(t, ac)
    cond2 = certify_condition2(t, semi_res)
    strict_exists = isinstance(strict_res, AngleAssignment)
    cond2_holds = isinstance(cond2, Holds)
    if strict_exists != cond2_holds:
        raise ExistenceError(
            "equivalence violated: strict existence is %s but the "
            "quad-slice certification returned %r" % (strict_exists, cond2))
    return EquivalenceReport(
        hypothesis_met=True, reason="ok", semi=semi_res,
        strict_exists=strict_exists, condition2_holds=cond2_holds,
        strict_result=strict_res, condition2_result=cond2)


def identity_4_9(t: Triangulation, alpha: AngleAssignment, h, z, omega):
    """Evaluate both sides of the dual pairing identity, exactly.

    For s built from the canonical basis as sum omega_i W_sigma_i +
    sum z_j W_e_j, the left side is the pairing (h, z).(a, b) and the
    right side is chi*(s) - chi^(A,k)(s) plus half the edge-incidence
    correction sum of (z_j + h at the two corner endpoints) times
    (the two corner targets minus 2*pi).  Both sides are returned for
    the caller to compare; no equality is assumed here.
    """
    if classify(alpha) == "generalized":
        raise ExistenceError("assignment is not semi")
    n = t.tet_count
    basis = solution_space_basis(t)
    m = len(basis.edge_classes)
    h = tuple(Fraction(v) for v in h)
    z = tuple(Fraction(v) for v in z)
    omega = tuple(Fraction(v) for v in omega)
    if len(h) != 4 * n or len(z) != m or len(omega) != n:
        raise ExistenceError("h, z, omega sizes do not match")
    ac = realized_area_curvature(alpha, t)
    a = [ac.area[c] + 1 for c in range(4 * n)]
    b = [2 - ac.curvature[j] for j in range(m)]
    lhs = sum((h[c] * a[c] for c in range(4 * n)), Fraction(0)) + \
        sum((z[j] * b[j] for j in range(m)), Fraction(0))
    s = combine(basis, omega, z)
    correction = Fraction(0)
    for cls in basis.edge_classes:
        for i, k in cls.corners:
            l1, l2 = EDGE_VERTICES[k]
            correction += (z[cls.index] + h[4 * i + l1] + h[4 * i + l2]) * \
                (a[4 * i + l1] + a[4 * i + l2] - 2)
    rhs = chi_star(t, s) - chi_area_curvature(t, s, ac) + correction / 2
    return (lhs, rhs)
