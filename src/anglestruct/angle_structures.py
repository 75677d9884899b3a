"""Angle assignments and their realized area-curvature data.

Angles live on tetrahedron edges, one value per (tet, tet-edge), and are
carried as exact rationals in units of pi: the stored value 1/3 means an
angle of pi/3.  A normal triangle's combinatorial area is its corner
angle sum minus pi; a quad's is the sum over the four edges it crosses
minus 2*pi.  An edge's curvature is 2*pi (interior) or pi (boundary)
minus the angles gathered around it, counted with multiplicity.

Both records are `_rational.ScaledVector`s: however built, each keeps
its (den, ints) form alone, its Fractions built when first read.  Angles
alone are known here; `normal_coords` pairs them with normal
coordinates, reading the corner, edge and quad tallies kept here.
"""

from __future__ import annotations

from ._rational import (ScaledVector, exact_scaled, format_vector,
                        parse_scaled)
from ._record import Record
from .triangulation import EDGES_AT_VERTEX, Triangulation


class AngleStructureError(ValueError):
    """Raised for dimension mismatches or violated preconditions."""


class AngleAssignment(Record, ScaledVector):
    """6n dihedral angles in units of pi, tet-major, edges 0..5."""
    angles: tuple
    _vector = {"angles": 1}
    _error = AngleStructureError

    def __post_init__(self):
        super().__post_init__()
        if len(self._scaled[1]) % 6:
            raise AngleStructureError(
                "%d angles are not 6n" % len(self._scaled[1]))

    @classmethod
    def from_vector(cls, tet_count: int, vec):
        den, ints = exact_scaled("AngleAssignment.from_vector", vec,
                                 AngleStructureError)
        if len(ints) != 6 * tet_count:
            raise AngleStructureError(
                "expected %d angles, got %d" % (6 * tet_count, len(ints)))
        return cls._of_scaled(den, ints)

    @property
    def tet_count(self) -> int:
        return len(self._scaled[1]) // 6


class AreaCurvature(Record, ScaledVector):
    """Prescribed or realized data: 4n triangle areas, m edge curvatures."""
    area: tuple
    curvature: tuple
    _vector = {"area": None, "curvature": None}  # 4n to m: kept as _cut
    _error = AngleStructureError

    @classmethod
    def of(cls, area, curvature):
        """The record of area and curvature: a second name for the
        constructor, kept because `bench/` builds its targets by it."""
        return cls(area, curvature)


def _quad_areas(alpha: AngleAssignment) -> tuple:
    """(den, ints): alpha's 3n quad areas over its den.  Quad p crosses
    every edge of its tetrahedron but the pair p, 5 - p."""
    den, a = alpha._scaled
    return den, [sum(a[i:i + 6]) - a[i + p] - a[i + 5 - p] - 2 * den
                 for i in range(0, len(a), 6) for p in range(3)]


def _check_size(alpha: AngleAssignment, t: Triangulation,
                error=AngleStructureError) -> None:
    if alpha.tet_count != t.tet_count:
        raise error("assignment size does not match")


def _check_semi(alpha: AngleAssignment, t: Triangulation,
                error=AngleStructureError) -> None:
    """Refuse, with error, an assignment of another size or not semi."""
    _check_size(alpha, t, error)
    if classify(alpha) == "generalized":
        raise error("assignment is not semi")


def _corner_sums(ints) -> list:
    """The 4n corner sums, tet-major, of 6n per-tet-edge ints."""
    return [ints[i + j] + ints[i + k] + ints[i + l]
            for i in range(0, len(ints), 6) for j, k, l in EDGES_AT_VERTEX]


def _angle_ints(alpha: AngleAssignment) -> tuple:
    """(den, ints, corner): alpha's scaled angles and 4n corner sums."""
    den, a = alpha._scaled
    return den, a, _corner_sums(a)


def _angle_sums(alpha: AngleAssignment, t: Triangulation) -> tuple:
    """(den, corner, edge): alpha's 4n corner sums, tet-major, and its m
    edge-class sums, with multiplicity, as ints over the den of its
    scaled angles: the realized data and the checks read these."""
    _check_size(alpha, t)
    den, a, corner = _angle_ints(alpha)
    edge = [sum(a[6 * i + k] for i, k in cls.corners)
            for cls in t.edge_classes]
    return den, corner, edge


def realized_area_curvature(alpha: AngleAssignment,
                            t: Triangulation) -> AreaCurvature:
    den, corner, edge = _angle_sums(alpha, t)
    return AreaCurvature._of_scaled(den, [s - den for s in corner] + [
        (1 if cls.is_boundary else 2) * den - s
        for cls, s in zip(t.edge_classes, edge)], _cut=len(corner))


def classify(alpha: AngleAssignment) -> str:
    """'strict' for angles in (0,pi), 'semi' for [0,pi], else 'generalized'."""
    den, ints = alpha._scaled
    if all(0 < a < den for a in ints):
        return "strict"
    if all(0 <= a <= den for a in ints):
        return "semi"
    return "generalized"


def is_flat_pair(alpha: AngleAssignment, t: Triangulation) -> bool:
    """Whether every triangle is exactly (0,0,pi)-angled or has area < 0.

    This is the flatness shape the perturbation step consumes: area zero
    is allowed only in the fully degenerate pattern.  At a semi corner
    whose angles sum to pi, a pi angle leaves the other two at zero.
    """
    _check_semi(alpha, t)
    den, a, corner = _angle_ints(alpha)
    return all(total < den or (total == den and den in (
        a[6 * (c // 4) + k] for k in EDGES_AT_VERTEX[c % 4]))
        for c, total in enumerate(corner))


def _rationals_field(data: dict, key: str) -> tuple:
    """The list of "p/q" strings under key as (den, ints); other JSON
    types, including a bare string, are rejected rather than coerced."""
    items = data[key]
    if not isinstance(items, list) or \
            not all(isinstance(v, str) for v in items):
        raise AngleStructureError(
            'field "%s" must be a list of rational strings' % key)
    try:
        return parse_scaled(items)
    except ValueError as err:
        raise AngleStructureError('field "%s": %s' % (key, err))


# A record's JSON is its vector fields by name, as "p/q" strings.
angles_to_json = ac_to_json = format_vector


def angle_vector_from_json(data: dict) -> tuple:
    """The "angles" field as (den, ints), whatever its length."""
    if not isinstance(data, dict) or "angles" not in data:
        raise AngleStructureError('expected an object with an "angles" key')
    return _rationals_field(data, "angles")


def ac_from_json(data: dict) -> AreaCurvature:
    if not isinstance(data, dict) or "area" not in data or \
            "curvature" not in data:
        raise AngleStructureError(
            'expected an object with "area" and "curvature" keys')
    da, area = _rationals_field(data, "area")
    dk, curvature = _rationals_field(data, "curvature")
    return AreaCurvature._of_scaled(da * dk, [v * dk for v in area] + [
        v * da for v in curvature], _cut=len(area))
