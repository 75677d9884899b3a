"""Built-in example inputs exercising every pipeline branch.

Each fixture bundles a gluing table with, where meaningful, a canonical
angle assignment and an area-curvature target:

- fig8: the standard 2-tetrahedron ideal triangulation of the
  figure-eight knot complement; all angles pi/3 realize (A, kappa) =
  (0, 0).
- one-tet: a single unglued tetrahedron, the smallest case with
  boundary faces and disk vertex links.
- fig8-flat1: fig8 with a flat tetrahedron inserted along the face pair
  ((0,0), (1,0)); host angles pi/6, flat pattern (pi on the diagonal
  edge pair, 0 elsewhere) on the new tetrahedron.  A flat pair: every
  host triangle has area -1/2, every flat triangle is (0,0,pi).
- fig8-flat2: fig8-flat1 with a second flat tetrahedron inserted along
  ((0,0), (2,3)); two stacked flat tetrahedra.
- fig8-qzero: fig8 with all angles pi/2; every quad area vanishes, so
  the quad-slice certification fails with a witness.
- fig8-infeasible: fig8 with the unrealizable target A = 0,
  kappa = 2 pi on both edges (the edge rows demand angle sum zero while
  the corner rows demand positive sums), yielding Farkas certificates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import Record
from .angle_structures import (
    AngleAssignment,
    AreaCurvature,
    realized_area_curvature,
)
from .triangulation import (
    Triangulation,
    insert_flat_tetrahedron,
    parse_triangulation,
)

FIG8_TABLE = """\
# figure-eight knot complement, 2 ideal tetrahedra
tets 2
glue 0 0 1 0 0123
glue 0 1 1 2 1203
glue 0 2 1 3 1032
glue 0 3 1 1 3021
"""

ONE_TET_TABLE = """\
# a single tetrahedron, all four faces boundary
tets 1
"""

_FLAT_PATTERN = (Fraction(1), Fraction(0), Fraction(0),
                 Fraction(0), Fraction(0), Fraction(1))


class FixtureError(ValueError):
    """Raised for unknown fixture names."""


class Fixture(Record):
    """A named triangulation, its angles if it has any, and its target."""
    name: str
    description: str
    triangulation: Triangulation
    angles: Optional[AngleAssignment]
    ac: Optional[AreaCurvature]


# name -> (description, gluing table, how many of _FLAT_INSERTS to
# stack on it, angle vector or None); the target is the realized data
# of the angles, or fig8-infeasible's A = 0, kappa = 2 without them.
_FIXTURES = {
    "fig8": ("figure-eight knot complement; all-pi/3 realizes "
             "(A, kappa) = (0, 0)",
             FIG8_TABLE, 0, (Fraction(1, 3),) * 12),
    "one-tet": ("a single unglued tetrahedron (boundary everywhere)",
                ONE_TET_TABLE, 0, (Fraction(1, 3),) * 6),
    "fig8-flat1": ("fig8 with one flat tetrahedron inserted; flat semi "
                   "assignment (hosts pi/6, flat pattern on the insert)",
                   FIG8_TABLE, 1, (Fraction(1, 6),) * 12 + _FLAT_PATTERN),
    "fig8-flat2": ("fig8 with two stacked flat tetrahedra; flat semi "
                   "assignment",
                   FIG8_TABLE, 2,
                   (Fraction(1, 6),) * 12 + _FLAT_PATTERN * 2),
    "fig8-qzero": ("fig8 with all angles pi/2: every quad area is zero, "
                   "so the quad-slice certification fails with a witness",
                   FIG8_TABLE, 0, (Fraction(1, 2),) * 12),
    "fig8-infeasible": ("fig8 with target A = 0, kappa = 2 pi on both "
                        "edges; no semi assignment exists and the "
                        "solvers emit certificates",
                        FIG8_TABLE, 0, None),
}

# insert_flat_tetrahedron's (face, face, matching) for each flat insert
# in stacking order; the second goes on face 3 of the first, tet 2.
_FLAT_INSERTS = (((0, 0), (1, 0), (0, 1, 3, 2)),
                 ((0, 0), (2, 3), (3, 0, 2, 1)))


def fixture_names() -> tuple:
    return tuple(_FIXTURES)


def fixture(name: str) -> Fixture:
    if name not in _FIXTURES:
        raise FixtureError("unknown fixture %r; known: %s"
                           % (name, ", ".join(_FIXTURES)))
    description, table, flats, angles = _FIXTURES[name]
    t = parse_triangulation(table, name=name)
    for face, other, matching in _FLAT_INSERTS[:flats]:
        t, _ = insert_flat_tetrahedron(t, face, other, matching)
    if angles is None:
        return Fixture(name, description, t, None,
                       AreaCurvature((0,) * 8, (2,) * 2))
    alpha = AngleAssignment.from_vector(t.tet_count, angles)
    return Fixture(name, description, t, alpha,
                   realized_area_curvature(alpha, t))
