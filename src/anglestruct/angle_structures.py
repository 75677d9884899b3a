"""Angle assignments and their realized area-curvature data.

Angles live on tetrahedron edges, one value per (tet, tet-edge), and are
carried as exact rationals in units of pi: the stored value 1/3 means an
angle of pi/3.  A normal triangle's combinatorial area is its corner
angle sum minus pi; a quad's is the sum over the four edges it crosses
minus 2*pi.  An edge's curvature is 2*pi (interior) or pi (boundary)
minus the angles gathered around it, counted with multiplicity.

Both evaluators of the area-curvature functional chi^(A,k) live here: the
direct weighted sum over a normal coordinate, and the decomposed form
that replaces the curvature data with quad areas of a realizing
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._rational import format_rational, parse_rational
from .normal_coords import (
    QUAD_EDGES,
    NormalCoordinate,
    _edge_coefficient,
    chi_star,
    is_in_solution_space,
)
from .triangulation import EDGES_AT_VERTEX, Triangulation


class AngleStructureError(ValueError):
    """Raised for dimension mismatches or violated preconditions."""


@dataclass(frozen=True)
class AngleAssignment:
    """6n dihedral angles in units of pi, tet-major, edges 0..5."""
    angles: tuple

    @classmethod
    def from_vector(cls, tet_count: int, vec):
        vec = tuple(Fraction(v) for v in vec)
        if len(vec) != 6 * tet_count:
            raise AngleStructureError(
                "expected %d angles, got %d" % (6 * tet_count, len(vec)))
        return cls(angles=vec)

    @property
    def tet_count(self) -> int:
        return len(self.angles) // 6

    def angle(self, tet: int, edge: int) -> Fraction:
        return self.angles[6 * tet + edge]


@dataclass(frozen=True)
class AreaCurvature:
    """Prescribed or realized data: 4n triangle areas, m edge curvatures."""
    area: tuple
    curvature: tuple

    @classmethod
    def of(cls, area, curvature):
        return cls(area=tuple(Fraction(v) for v in area),
                   curvature=tuple(Fraction(v) for v in curvature))


def area_of_triangle(alpha: AngleAssignment, tet: int,
                     corner: int) -> Fraction:
    """Corner angle sum minus pi for the triangle cutting off a vertex."""
    return sum(alpha.angle(tet, k)
               for k in EDGES_AT_VERTEX[corner]) - 1


def area_of_quad(alpha: AngleAssignment, tet: int, quad: int) -> Fraction:
    """Angle sum over the four crossed edges minus 2*pi."""
    return sum(alpha.angle(tet, k) for k in QUAD_EDGES[quad]) - 2


def curvature(alpha: AngleAssignment, t: Triangulation, e) -> Fraction:
    """2*pi (interior) or pi (boundary) minus the angles around the edge."""
    base = Fraction(1) if e.is_boundary else Fraction(2)
    return base - sum(alpha.angle(i, k) for i, k in e.corners)


def realized_area_curvature(alpha: AngleAssignment,
                            t: Triangulation) -> AreaCurvature:
    if alpha.tet_count != t.tet_count:
        raise AngleStructureError("assignment size does not match")
    area = tuple(area_of_triangle(alpha, i, l)
                 for i in range(t.tet_count) for l in range(4))
    curv = tuple(curvature(alpha, t, e) for e in t.edge_classes)
    return AreaCurvature(area=area, curvature=curv)


def classify(alpha: AngleAssignment) -> str:
    """'strict' for angles in (0,pi), 'semi' for [0,pi], else 'generalized'."""
    if all(0 < a < 1 for a in alpha.angles):
        return "strict"
    if all(0 <= a <= 1 for a in alpha.angles):
        return "semi"
    return "generalized"


@dataclass(frozen=True)
class VertexConditionEntry:
    tet: int
    vertex: int
    corner_sum: Fraction
    link_euler: int
    status: str  # "pass" | "fail" | "skipped"


def check_vertex_link_conditions(alpha: AngleAssignment, t: Triangulation):
    """Per-corner angle-sum conditions driven by the vertex link topology.

    At a vertex whose link has Euler characteristic 0 the three angles at
    each of its corners must sum to exactly pi; at a negative-Euler link
    the sum must stay below pi.  Positive-Euler links carry no condition
    and are reported as skipped.
    """
    euler_at = {}
    for cls in t.vertex_classes:
        for corner in cls.corners:
            euler_at[corner] = cls.link_euler
    report = []
    for i in range(t.tet_count):
        for v in range(4):
            total = sum(alpha.angle(i, k) for k in EDGES_AT_VERTEX[v])
            euler = euler_at[(i, v)]
            if euler == 0:
                status = "pass" if total == 1 else "fail"
            elif euler < 0:
                status = "pass" if total < 1 else "fail"
            else:
                status = "skipped"
            report.append(VertexConditionEntry(
                tet=i, vertex=v, corner_sum=total, link_euler=euler,
                status=status))
    return tuple(report)


def is_flat_pair(alpha: AngleAssignment, t: Triangulation) -> bool:
    """Whether every triangle is exactly (0,0,pi)-angled or has area < 0.

    This is the flatness shape the perturbation step consumes: area zero
    is allowed only in the fully degenerate pattern.
    """
    if classify(alpha) == "generalized":
        raise AngleStructureError("assignment is not semi")
    for i in range(t.tet_count):
        for l in range(4):
            angles = sorted(alpha.angle(i, k) for k in EDGES_AT_VERTEX[l])
            if angles == [Fraction(0), Fraction(0), Fraction(1)]:
                continue
            if area_of_triangle(alpha, i, l) < 0:
                continue
            return False
    return True


def _rationals_field(data: dict, key: str) -> list:
    """The list of "p/q" strings under key, parsed; other JSON types,
    including a bare string, are rejected rather than coerced."""
    items = data[key]
    if not isinstance(items, list) or \
            not all(isinstance(v, str) for v in items):
        raise AngleStructureError(
            'field "%s" must be a list of rational strings' % key)
    try:
        return [parse_rational(v) for v in items]
    except ValueError as err:
        raise AngleStructureError('field "%s": %s' % (key, err))


def angles_to_json(alpha: AngleAssignment) -> dict:
    return {"angles": [format_rational(a) for a in alpha.angles]}


def angles_from_json(data: dict) -> AngleAssignment:
    if not isinstance(data, dict) or "angles" not in data:
        raise AngleStructureError('expected an object with an "angles" key')
    vec = _rationals_field(data, "angles")
    if len(vec) % 6 != 0:
        raise AngleStructureError("angle count must be a multiple of 6")
    return AngleAssignment.from_vector(len(vec) // 6, vec)


def ac_to_json(ac: AreaCurvature) -> dict:
    return {"area": [format_rational(a) for a in ac.area],
            "curvature": [format_rational(k) for k in ac.curvature]}


def ac_from_json(data: dict) -> AreaCurvature:
    if not isinstance(data, dict) or "area" not in data or \
            "curvature" not in data:
        raise AngleStructureError(
            'expected an object with "area" and "curvature" keys')
    return AreaCurvature.of(_rationals_field(data, "area"),
                            _rationals_field(data, "curvature"))


def chi_area_curvature(t: Triangulation, s: NormalCoordinate,
                       ac: AreaCurvature) -> Fraction:
    """The area-curvature functional evaluated directly on a coordinate.

    (1/2pi) (sum_t y_t A_t + sum_j 2 z_j(s) kappa_j); with areas and
    curvatures in units of pi the pi factors cancel and the value is an
    exact rational.
    """
    edge_classes = t.edge_classes
    if len(ac.area) != 4 * t.tet_count or len(ac.curvature) != len(
            edge_classes):
        raise AngleStructureError("area-curvature size does not match")
    if not is_in_solution_space(t.compatibility_system, s):
        raise AngleStructureError("coordinate is not in the solution space")
    total = Fraction(0)
    for i in range(t.tet_count):
        for l in range(4):
            total += s.tri(i, l) * ac.area[4 * i + l] / 2
    for cls in edge_classes:
        kappa = ac.curvature[cls.index]
        if kappa != 0:
            total += _edge_coefficient(s, cls) * kappa
    return total


def chi_via_lemma2(t: Triangulation, s: NormalCoordinate,
                   alpha: AngleAssignment) -> Fraction:
    """The same functional computed as chi_star minus half the quad-area
    pairing with a realizing semi assignment."""
    if classify(alpha) == "generalized":
        raise AngleStructureError("assignment is not semi")
    if not is_in_solution_space(t.compatibility_system, s):
        raise AngleStructureError("coordinate is not in the solution space")
    total = chi_star(t, s)
    for i in range(t.tet_count):
        for p in range(3):
            x = s.quad(i, p)
            if x != 0:
                total -= area_of_quad(alpha, i, p) * x / 2
    return total
