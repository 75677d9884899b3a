"""Normal disk types, compatibility equations, and the solution space.

A tetrahedron carries 7 normal disk types: 4 triangles (one cutting off
each vertex) and 3 quadrilaterals (one separating each opposite edge
pair).  A normal coordinate assigns a rational number to every disk type,
quads first, tet-major.  Coordinates whose disk counts match across every
interior face form the solution space C(M,T); that matching is one linear
equation per (interior face, normal arc type) pair.

The module also evaluates the generalized Euler characteristic chi_star,
the per-edge coefficient functional z, and builds a verified basis of the
solution space consisting of one tetrahedral vector per tetrahedron and
one edge vector per edge class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _linalg
from .triangulation import (
    EDGE_INDEX,
    EDGE_VERTICES,
    FACE_VERTICES,
    Triangulation,
    build_edge_classes,  # noqa: F401  (bench/test_bench.py reads it here)
)

# The four tet-edges a quad of type p crosses: all but the pair (p, 5-p)
# it separates.
QUAD_EDGES = tuple(
    tuple(k for k in range(6) if k not in (p, 5 - p)) for p in range(3)
)


def quad_type_at_arc(face: int, vertex: int) -> int:
    """The quad type whose arc in the given face cuts off the given vertex.

    That quad separates the tet-edge joining the vertex to the face's
    opposite label, so its type is the edge pair containing that edge.
    """
    k = EDGE_INDEX[(vertex, face)]
    return min(k, 5 - k)


class NormalCoordinateError(ValueError):
    """Raised for dimension mismatches or non-solution inputs."""


@dataclass(frozen=True)
class NormalCoordinate:
    """A rational weight per normal disk type of one triangulation."""
    quads: tuple
    tris: tuple

    @classmethod
    def zero(cls, tet_count: int):
        return cls(quads=(Fraction(0),) * (3 * tet_count),
                   tris=(Fraction(0),) * (4 * tet_count))

    @classmethod
    def from_vector(cls, tet_count: int, vec):
        vec = tuple(Fraction(v) for v in vec)
        if len(vec) != 7 * tet_count:
            raise NormalCoordinateError(
                "expected %d coordinates, got %d" % (7 * tet_count, len(vec)))
        return cls(quads=vec[:3 * tet_count], tris=vec[3 * tet_count:])

    @property
    def vector(self):
        return self.quads + self.tris

    def quad(self, tet: int, p: int) -> Fraction:
        return self.quads[3 * tet + p]

    def tri(self, tet: int, l: int) -> Fraction:
        return self.tris[4 * tet + l]

    def scale(self, c):
        c = Fraction(c)
        return NormalCoordinate(quads=tuple(c * v for v in self.quads),
                                tris=tuple(c * v for v in self.tris))

    def add(self, other):
        return NormalCoordinate(
            quads=tuple(a + b for a, b in zip(self.quads, other.quads)),
            tris=tuple(a + b for a, b in zip(self.tris, other.tris)))


@dataclass(frozen=True)
class CompatibilitySystem:
    """The disk-matching equations: one row per interior face arc type.

    A row is the (column, coefficient) pairs of its nonzero entries, and
    is empty when they all cancel.  ``matrix`` is the dense view of the
    rows; ``rank`` is computed on first use and kept.
    """
    columns: int
    rows: tuple

    @property
    def matrix(self) -> tuple:
        """The rows as dense tuples of length ``columns``."""
        return tuple(
            tuple(entries.get(c, Fraction(0)) for c in range(self.columns))
            for entries in map(dict, self.rows))

    @cached_property
    def rank(self) -> int:
        return _linalg.rank(self.rows)


def compatibility_system(t: Triangulation) -> CompatibilitySystem:
    """Build the matching equations across every interior face.

    For the arc cutting off vertex v inside glued face (i,f) ~ (j,g,perm),
    the disks crossing it on each side are one quad and one triangle; the
    row equates the two sides.  When a face is glued to a face of the same
    tetrahedron the two sides may hit the same column and entries cancel.
    ``t.compatibility_system`` keeps the one built for t.
    """
    n = t.tet_count
    rows = []
    for (i, f), (j, g), perm in t.glued_pairs():
        for v in FACE_VERTICES[f]:
            row = defaultdict(int)
            row[3 * i + quad_type_at_arc(f, v)] += 1
            row[3 * n + 4 * i + v] += 1
            row[3 * j + quad_type_at_arc(g, perm[v])] -= 1
            row[3 * n + 4 * j + perm[v]] -= 1
            rows.append(tuple((c, Fraction(a))
                              for c, a in sorted(row.items()) if a))
    return CompatibilitySystem(columns=7 * n, rows=tuple(rows))


def is_in_solution_space(sys: CompatibilitySystem,
                         s: NormalCoordinate) -> bool:
    vec = s.vector
    if len(vec) != sys.columns:
        raise NormalCoordinateError(
            "coordinate has %d entries, system has %d columns"
            % (len(vec), sys.columns))
    return all(sum(a * vec[c] for c, a in row) == 0 for row in sys.rows)


def chi_star_disk(t: Triangulation, disk) -> Fraction:
    """The chi_star weight of one disk type: chi_star of the coordinate
    that is 1 on that disk type and 0 elsewhere.

    ``disk`` is ("tri", tet, vertex) or ("quad", tet, type).
    """
    kind, i, which = disk
    n = t.tet_count
    if kind == "quad":
        column = 3 * i + which
    elif kind == "tri":
        column = 3 * n + 4 * i + which
    else:
        raise NormalCoordinateError("unknown disk kind %r" % (kind,))
    unit = [Fraction(0)] * (7 * n)
    unit[column] = Fraction(1)
    return chi_star(t, NormalCoordinate.from_vector(n, unit))


def chi_star(t: Triangulation, s: NormalCoordinate) -> Fraction:
    """The generalized Euler characteristic: linear in the coordinate.

    V - E + F, counted disk by disk.  A disk's point on a tet-edge is
    shared by the valence-many corners of that edge class, its arcs in
    glued faces are shared with the disk beyond the face, and its arcs in
    boundary faces are its own.  So a triangle weighs -(1 + b)/2 and a
    quad -(2 + b)/2, b being its number of boundary arcs, plus 1/valence
    for each tet-edge it crosses.  For an embedded surface the total is
    the surface's Euler characteristic.
    """
    total = Fraction(0)
    for i in range(t.tet_count):
        for k in range(6):
            valence = t.edge_class_of[(i, k)].valence
            total += _crossing_weight(s, i, k) * Fraction(1, valence)
        boundary = [f for f in range(4) if t.gluing(i, f) is None]
        for p in range(3):
            total -= s.quad(i, p) * Fraction(2 + len(boundary), 2)
        for l in range(4):
            b = sum(1 for f in boundary if f != l)
            total -= s.tri(i, l) * Fraction(1 + b, 2)
    return total


def _crossing_weight(s: NormalCoordinate, i: int, k: int) -> Fraction:
    """The total weight of the disk types of tetrahedron i that cross
    tet-edge k: the triangles at its two ends and the two quads that do
    not separate it."""
    u, v = EDGE_VERTICES[k]
    pair = min(k, 5 - k)
    return s.tri(i, u) + s.tri(i, v) + \
        sum(s.quad(i, p) for p in range(3) if p != pair)


def z_functional(t: Triangulation, s: NormalCoordinate, e) -> Fraction:
    """The edge coefficient of s at edge class e.

    Averages, over the corners identified to e (with multiplicity), the
    crossing weight of that tet-edge.  For an embedded surface this is
    half the number of intersections with e.
    """
    if not is_in_solution_space(t.compatibility_system, s):
        raise NormalCoordinateError(
            "coordinate is not in the solution space")
    return _edge_coefficient(s, e)


def _edge_coefficient(s: NormalCoordinate, e) -> Fraction:
    """z_functional without the solution-space check, for callers that
    have already made it."""
    return sum((_crossing_weight(s, i, k) for i, k in e.corners),
               Fraction(0)) / (2 * e.valence)


class BasisVerificationError(RuntimeError):
    """The constructed solution-space basis failed an exactness check."""


@dataclass(frozen=True)
class SolutionBasis:
    """A verified basis of the solution space for an ideal triangulation.

    ``w_sigma[i]`` is supported on tetrahedron i alone: +1 on its four
    triangles, -1 on its three quads.  ``w_edge[j]`` weights each triangle
    by how many of its corner's tet-edges lie in edge class j and each
    quad by minus the number of its separated pair in class j; the edge
    coefficients of w_edge[j] under z_functional are exactly delta_jk.
    """
    w_sigma: tuple
    w_edge: tuple
    edge_classes: tuple


def _tetrahedral_vector(n: int, i: int) -> NormalCoordinate:
    quads = [Fraction(0)] * (3 * n)
    tris = [Fraction(0)] * (4 * n)
    for p in range(3):
        quads[3 * i + p] = Fraction(-1)
    for l in range(4):
        tris[4 * i + l] = Fraction(1)
    return NormalCoordinate(quads=tuple(quads), tris=tuple(tris))


def _edge_vector(n: int, cls) -> NormalCoordinate:
    quads = [Fraction(0)] * (3 * n)
    tris = [Fraction(0)] * (4 * n)
    for i, k in cls.corners:
        u, v = EDGE_VERTICES[k]
        tris[4 * i + u] += 1
        tris[4 * i + v] += 1
        quads[3 * i + min(k, 5 - k)] -= 1
    return NormalCoordinate(quads=tuple(quads), tris=tuple(tris))


def solution_space_basis(t: Triangulation) -> SolutionBasis:
    """Construct and exhaustively verify the tetrahedra-and-edges basis.

    Requires a triangulation without boundary faces.  Verification checks
    membership of every vector in the solution space, the delta property
    of the edge vectors under z_functional, vanishing of z on the
    tetrahedral vectors, linear independence, and that the count n+m
    matches the solution space dimension; any failure raises
    BasisVerificationError rather than returning a bad basis.
    """
    if t.boundary_faces():
        raise BasisVerificationError(
            "basis requires a triangulation without boundary faces")
    n = t.tet_count
    edge_classes = t.edge_classes
    m = len(edge_classes)
    sys = t.compatibility_system
    w_sigma = tuple(_tetrahedral_vector(n, i) for i in range(n))
    w_edge = tuple(_edge_vector(n, cls) for cls in edge_classes)

    for name, vecs in (("tetrahedral", w_sigma), ("edge", w_edge)):
        for idx, w in enumerate(vecs):
            if not is_in_solution_space(sys, w):
                raise BasisVerificationError(
                    "%s vector %d is not in the solution space" % (name, idx))
    for w in w_sigma:
        for cls in edge_classes:
            if _edge_coefficient(w, cls) != 0:
                raise BasisVerificationError(
                    "tetrahedral vector has nonzero edge coefficient")
    for j, w in enumerate(w_edge):
        for cls in edge_classes:
            want = Fraction(1) if cls.index == j else Fraction(0)
            if _edge_coefficient(w, cls) != want:
                raise BasisVerificationError(
                    "edge vector %d has wrong coefficient at edge %d"
                    % (j, cls.index))
    stacked = [enumerate(w.vector) for w in w_sigma + w_edge]
    if _linalg.rank(stacked) != n + m:
        raise BasisVerificationError("basis vectors are dependent")
    if sys.columns - sys.rank != n + m:
        raise BasisVerificationError(
            "solution space dimension differs from n+m")
    return SolutionBasis(w_sigma=w_sigma, w_edge=w_edge,
                         edge_classes=edge_classes)


def combine(basis: SolutionBasis, omega, z) -> NormalCoordinate:
    """The solution-space element with tetrahedral weights omega and edge
    weights z."""
    n = len(basis.w_sigma)
    s = NormalCoordinate.zero(n)
    for w, c in zip(basis.w_sigma, omega):
        if c != 0:
            s = s.add(w.scale(c))
    for w, c in zip(basis.w_edge, z):
        if c != 0:
            s = s.add(w.scale(c))
    return s


def decompose(t: Triangulation, s: NormalCoordinate,
              basis: SolutionBasis = None):
    """The unique (omega, z) with s = sum omega_i w_sigma_i + sum z_j w_edge_j.

    The edge weights are the edge coefficients of s; the tetrahedral
    weights come from the residual, which is then checked to vanish
    exactly.
    """
    if basis is None:
        basis = solution_space_basis(t)
    if not is_in_solution_space(t.compatibility_system, s):
        raise NormalCoordinateError(
            "coordinate is not in the solution space")
    z = tuple(_edge_coefficient(s, cls) for cls in basis.edge_classes)
    residual = s
    for w, c in zip(basis.w_edge, z):
        if c != 0:
            residual = residual.add(w.scale(-c))
    omega = tuple(residual.tri(i, 0) for i in range(t.tet_count))
    check = combine(basis, omega, z)
    if check.vector != s.vector:
        raise BasisVerificationError(
            "decomposition failed to recover the coordinate")
    return omega, z
