"""Normal disk types, compatibility equations, and the solution space.

A tetrahedron carries 7 normal disk types: 4 triangles (one cutting off
each vertex) and 3 quadrilaterals (one separating each opposite edge
pair).  A normal coordinate assigns a rational number to every disk type,
quads first, tet-major.  Coordinates whose disk counts match across every
interior face form the solution space C(M,T); that matching is one linear
equation per (interior face, normal arc type) pair, with int coefficients
0, +-1 or +-2.

The module, the one that knows this layout, also evaluates chi_star,
the per-edge coefficient functional z and both forms of chi^(A,k), and
builds a verified basis of the solution space: one tetrahedral vector
per tetrahedron and one edge vector per edge class.

Coordinates are exact: `_rational.exact` refuses anything but an int or
a Fraction, a float above all, where it enters.  The kernels run on
ints over the lcm of a coordinate's denominators, kept from its build
when it is built from ints.  Membership compares both sides of each arc,
one pass gives the 6n crossing weights (for each tet-edge, the weight of
its tetrahedron's disks that cross it), and combine and decompose sum
scaled vectors over one denominator.  Fractions are built for results,
and a coordinate's when first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from ._linalg import echelon
from ._rational import ScaledVector, exact, exact_scaled
from ._record import Record
from .angle_structures import (
    AngleAssignment,
    AngleStructureError,
    AreaCurvature,
    _check_semi,
    _quad_areas,
)
from .triangulation import (
    EDGE_INDEX,
    EDGE_VERTICES,
    FACE_VERTICES,
    Triangulation,
    build_edge_classes,  # noqa: F401  (bench/test_bench.py reads it here)
)


def quad_type_at_arc(face: int, vertex: int) -> int:
    """The quad type whose arc in the given face cuts off the given vertex.

    That quad separates the tet-edge joining the vertex to the face's
    opposite label, so its type is the edge pair containing that edge.
    """
    k = EDGE_INDEX[(vertex, face)]
    return min(k, 5 - k)


# _QUAD_AT[f][v] is quad_type_at_arc(f, v), read as a 4x4 table; a face
# has no arc at its own opposite vertex, so _QUAD_AT[f][f] is None.
_QUAD_AT = [[quad_type_at_arc(f, v) if v != f else None for v in range(4)]
            for f in range(4)]


class NormalCoordinateError(ValueError):
    """Raised for dimension mismatches, inexact entries or non-solution
    inputs."""


class NormalCoordinate(Record, ScaledVector):
    """A rational weight per normal disk type: 3n quads, 4n triangles."""
    quads: tuple
    tris: tuple
    _vector = {"quads": 3, "tris": 4}
    _error = NormalCoordinateError

    def __post_init__(self):
        if 4 * len(self.quads) != 3 * len(self.tris):
            raise NormalCoordinateError(
                "%d quads and %d triangles are not 3n and 4n"
                % (len(self.quads), len(self.tris)))

    @classmethod
    def zero(cls, tet_count: int):
        return cls.from_vector(tet_count, [0] * (7 * tet_count))

    @classmethod
    def from_vector(cls, tet_count: int, vec):
        vec = exact("NormalCoordinate.from_vector", vec,
                    NormalCoordinateError)
        if len(vec) != 7 * tet_count:
            raise NormalCoordinateError(
                "expected %d coordinates, got %d" % (7 * tet_count, len(vec)))
        return cls(quads=vec[:3 * tet_count], tris=vec[3 * tet_count:])


class CompatibilitySystem(Record):
    """The disk-matching equations: one per interior face arc type.

    An arc is the columns (quad, triangle) on one side of the face, then
    on the other, whose weights must match.  ``matrix`` is a dense view
    of their rows for readers outside the package.

    An arc's triangle part joins two corners of one vertex link, so the
    triangle weights are fixed by the quads up to one weight per link
    component.  ``_projection``, kept, projects them away along a
    spanning forest of the link graph: (forest, quad_rows).  A
    union-find in arc order sorts each arc into a tree or a cycle arc.
    The forest maps the child corner of each tree arc to (parent, qc,
    qp), the child's weight being the parent's minus quad qc plus quad
    qp; it is rooted at each component's largest corner, and lists
    parents before children.  A cycle arc's residual, its quads minus
    the signed quads of the tree arcs on the forest path between its two
    corners, is a row over the quads alone; quad_rows is
    `_linalg.echelon` of those residuals in arc order, each handed over
    as the dict of its nonzero ints.  This is, row for row, what
    eliminating the triangle columns first gives: each arc is reduced by
    exactly the tree arcs on that path, with coefficients +-1, and a
    largest corner never leads.  ``rank`` is the tree arcs
    plus the quad pivots.
    """
    columns: int
    arcs: tuple

    @property
    def matrix(self) -> tuple:
        """One dense row of length ``columns`` per arc: +1 at one side's
        quad and triangle, -1 at the other's; where a face is glued to
        its own tetrahedron both sides may hit one column, which reads 0."""
        return tuple(tuple((c in (q, tri)) - (c in (q2, tri2))
                           for c in range(self.columns))
                     for q, tri, q2, tri2 in self.arcs)

    @cached_property
    def _projection(self) -> tuple:
        quads = 3 * self.columns // 7
        up = list(range(self.columns))

        def root(c):
            while up[c] != c:
                up[c] = up[up[c]]
                c = up[c]
            return c

        links = {c: [] for c in range(quads, self.columns)}
        cycles = []
        for q, tri, q2, tri2 in self.arcs:
            a, b = root(tri), root(tri2)
            if a == b:
                cycles.append((q, tri, q2, tri2))
            else:
                up[a] = b
                links[tri].append((tri2, q, q2))
                links[tri2].append((tri, q2, q))
        forest, depth = {}, {}
        for top in reversed(links):
            if top in depth:
                continue
            depth[top] = 0
            stack = [top]
            while stack:
                parent = stack.pop()
                for child, qp, qc in links[parent]:
                    if child not in depth:
                        depth[child] = depth[parent] + 1
                        forest[child] = (parent, qc, qp)
                        stack.append(child)
        residuals = []
        for q, a, q2, b in cycles:
            row = {q: 1}
            row[q2] = row.get(q2, 0) - 1
            while a != b:
                # Up from the deeper end: a's weight enters the row with
                # +1, b's with -1.
                if depth[a] >= depth[b]:
                    a, qc, qp = forest[a]
                    sign = 1
                else:
                    b, qc, qp = forest[b]
                    sign = -1
                row[qc] = row.get(qc, 0) - sign
                row[qp] = row.get(qp, 0) + sign
            residuals.append({c: v for c, v in row.items() if v})
        return forest, echelon(residuals)

    @property
    def rank(self) -> int:
        forest, quad_rows = self._projection
        return len(forest) + len(quad_rows)


def compatibility_system(t: Triangulation) -> CompatibilitySystem:
    """Build the matching equations across every interior face.

    For the arc cutting off vertex v inside glued face (i,f) ~ (j,g,perm),
    the disks crossing it on each side are one quad and one triangle; the
    equation equates the two sides, each side's quad type read from the
    _QUAD_AT table.  When a face is glued to a face of the same
    tetrahedron the two sides may hit the same column and entries
    cancel.  ``t.compatibility_system`` keeps the one built for t.
    """
    n = t.tet_count
    arcs = []
    for (i, f), (j, g), perm in t.glued_pairs():
        here, there = _QUAD_AT[f], _QUAD_AT[g]
        for v in FACE_VERTICES[f]:
            w = perm[v]
            arcs.append((3 * i + here[v], 3 * n + 4 * i + v,
                         3 * j + there[w], 3 * n + 4 * j + w))
    return CompatibilitySystem(columns=7 * n, arcs=tuple(arcs))


def is_in_solution_space(sys: CompatibilitySystem,
                         s: NormalCoordinate) -> bool:
    nums = s._scaled[1]
    if len(nums) != sys.columns:
        raise NormalCoordinateError(
            "coordinate has %d entries, system has %d columns"
            % (len(nums), sys.columns))
    return all(nums[q] + nums[tri] == nums[q2] + nums[tri2]
               for q, tri, q2, tri2 in sys.arcs)


def _check_member(t: Triangulation, s: NormalCoordinate,
                  error=NormalCoordinateError) -> None:
    if not is_in_solution_space(t.compatibility_system, s):
        raise error("coordinate is not in the solution space")


def _quad_slice(sys: CompatibilitySystem) -> tuple:
    """(rows, rhs, point) over the 3n quads: the projection's quad rows,
    in the order found, each as its sorted (column, int) pairs, and the
    quads summing to 1; and a point of that slice, 1/3 on tet 0's quads
    and 0 elsewhere, the quad part of -W_sigma_0 / 3, which lies in every
    solution space."""
    quads = 3 * sys.columns // 7
    rows = [tuple(sorted(row.items())) for row in sys._projection[1].values()]
    rows.append(tuple((c, 1) for c in range(quads)))
    third = Fraction(1, 3)
    return (rows, [0] * (len(rows) - 1) + [1],
            [third] * 3 + [0] * (quads - 3))


def _from_slice(sys: CompatibilitySystem, quads) -> NormalCoordinate:
    """The coordinate with the quads of the (den, ints) form quads, its
    triangles set along the projection's forest, 0 at each root: a
    child's weight is its parent's minus the child-side quad plus the
    parent-side one.

    Set in ints over the quads' denominator, with no division."""
    den, nums = quads
    x = list(nums) + [0] * (sys.columns - len(nums))
    for child, (parent, qc, qp) in sys._projection[0].items():
        x[child] = x[parent] - x[qc] + x[qp]
    return NormalCoordinate._of_scaled(den, x)


def _crossing_weights(nums) -> list:
    """The crossing weights of a scaled coordinate: entry 6i + k is the
    weight of the disk types of tetrahedron i that cross its tet-edge k,
    the triangles at the edge's two ends and the two quads that do not
    separate it, over the coordinate's denominator."""
    n = len(nums) // 7
    out = []
    for i in range(n):
        q0, q1, q2 = nums[3 * i:3 * i + 3]
        t0, t1, t2, t3 = nums[3 * n + 4 * i:3 * n + 4 * i + 4]
        # Tet-edges 01, 02, 03, 12, 13, 23; quad p separates edges p and
        # 5 - p.
        out += (t0 + t1 + q1 + q2, t0 + t2 + q0 + q2, t0 + t3 + q0 + q1,
                t1 + t2 + q0 + q1, t1 + t3 + q0 + q2, t2 + t3 + q1 + q2)
    return out


def _edge_sums(nums, edge_classes) -> tuple:
    """(v, ints), the one edge tally of a scaled coordinate: v is the lcm
    of the valences, and ints[e] is class e's crossing weights summed
    over its distinct corners, times v / valence, so z_e is ints[e] /
    (2 v den).  A folded class lists each corner twice; matching an
    angle's coefficient in chi^(A,k), directly and through Lemma 2,
    gives mult * z_e = w / 2 at a corner of crossing weight w, so each
    distinct corner counts once."""
    w = _crossing_weights(nums)
    v = lcm(*(e.valence for e in edge_classes))
    return v, [v // e.valence * sum(w[6 * i + k] for i, k in e.corners)
               // e.mult for e in edge_classes]


def chi_star(t: Triangulation, s: NormalCoordinate) -> Fraction:
    """The generalized Euler characteristic: linear in the coordinate.

    V - E + F, counted disk by disk.  A disk's point on a tet-edge is
    shared by the valence-many corners of that edge class, its arcs in
    glued faces are shared with the disk beyond the face, and its arcs in
    boundary faces are its own.  So a triangle weighs -(1 + b)/2 and a
    quad -(2 + b)/2, b being its number of boundary arcs, plus 1/valence
    for each tet-edge it crosses.  For an embedded surface the total is
    the surface's Euler characteristic.

    The edge term is the edge tally of `_edge_sums`, the one z reads: a
    folded corner, listed twice, is one tet-edge and is counted once.
    """
    n = t.tet_count
    den, nums = s._scaled
    if len(nums) != 7 * n:
        raise NormalCoordinateError(
            "coordinate has %d entries, triangulation needs %d"
            % (len(nums), 7 * n))
    v, edges = _edge_sums(nums, t.edge_classes)
    # Boundary face (i, f) is an arc of each tet-i disk but triangle f.
    disks = 2 * sum(nums[:3 * n]) + sum(nums[3 * n:])
    for i, f in t.boundary_faces():
        tris = nums[3 * n + 4 * i:3 * n + 4 * i + 4]
        disks += sum(nums[3 * i:3 * i + 3]) + sum(tris) - tris[f]
    return Fraction(2 * sum(edges) - v * disks, 2 * den * v)


def z_functional(t: Triangulation, s: NormalCoordinate, e) -> Fraction:
    """The edge coefficient of s at edge class e.

    The crossing weights of e's distinct corners over twice e's valence,
    as `_edge_sums` tallies them.  For an embedded surface this is half
    the number of intersections with e.
    """
    if e not in t.edge_classes:
        raise NormalCoordinateError(
            "%r is not an edge class of the triangulation" % (e,))
    _check_member(t, s)
    den, nums = s._scaled
    v, (total,) = _edge_sums(nums, (e,))
    return Fraction(total, 2 * v * den)


def chi_area_curvature(t: Triangulation, s: NormalCoordinate,
                       ac: AreaCurvature) -> Fraction:
    """The area-curvature functional evaluated directly on a coordinate.

    (1/2pi) (sum_t y_t A_t + sum_j 2 z_j(s) kappa_j); with areas and
    curvatures in units of pi the pi factors cancel and the value is an
    exact rational, summed as one int over the edge tally's denominator.
    """
    n, edge_classes = t.tet_count, t.edge_classes
    aden, area, curvature = ac._parts()
    if len(area) != 4 * n or len(curvature) != len(edge_classes):
        raise AngleStructureError("area-curvature size does not match")
    _check_member(t, s, AngleStructureError)
    den, nums = s._scaled
    v, edges = _edge_sums(nums, edge_classes)
    total = v * sum(map(mul, nums[3 * n:], area)) + sum(
        map(mul, curvature, edges))
    return Fraction(total, 2 * den * aden * v)


def chi_via_lemma2(t: Triangulation, s: NormalCoordinate,
                   alpha: AngleAssignment) -> Fraction:
    """The same functional computed as chi_star minus half the quad-area
    pairing with a realizing semi assignment."""
    _check_semi(alpha, t)
    _check_member(t, s, AngleStructureError)
    den, nums = s._scaled
    aden, areas = _quad_areas(alpha)
    pairing = sum(map(mul, nums[:3 * t.tet_count], areas))
    return chi_star(t, s) - Fraction(pairing, 2 * den * aden)


class BasisVerificationError(RuntimeError):
    """The constructed solution-space basis failed an exactness check."""


class SolutionBasis(Record):
    """A verified basis of a triangulation's solution space, boundary
    faces allowed; its vertex links need not be those of an ideal one.

    ``w_sigma[i]`` is supported on tetrahedron i alone: +1 on its four
    triangles, -1 on its three quads.  ``w_edge[j]`` weights each triangle
    by how many of its corner's tet-edges lie in t.edge_classes[j] and
    each quad by minus the number of its separated pair in class j; the
    edge coefficients of w_edge[j] under z_functional, which counts a
    folded corner once, are exactly delta_jk.
    """
    w_sigma: tuple
    w_edge: tuple


def _disk_vector(n: int, tris, quads=()) -> NormalCoordinate:
    """The int coordinate adding 1 at each (tet, vertex) triangle and -1
    at each (tet, quad type) quad."""
    vec = [0] * (7 * n)
    for i, l in tris:
        vec[3 * n + 4 * i + l] += 1
    for i, p in quads:
        vec[3 * i + p] -= 1
    return NormalCoordinate._of_scaled(1, vec)


def _vertex_linking_coordinate(t: Triangulation, vclass) -> NormalCoordinate:
    """1 on each triangle at a corner of the vertex class, 0 elsewhere."""
    return _disk_vector(t.tet_count, vclass.corners)


def solution_space_basis(t: Triangulation) -> SolutionBasis:
    """Construct and exhaustively verify the tetrahedra-and-edges basis.

    Every table takes this one path, boundary faces included: an
    unglued face adds no row.  Verification checks each vector's
    membership in the solution space and its m edge coefficients, read
    off one edge tally: 0 on a tetrahedral vector, delta_jk on edge
    vector j (together these imply linear independence); then that the
    count n+m matches the solution space dimension.  Any failure raises
    BasisVerificationError rather than returning a bad basis.
    ``t.solution_basis`` keeps the one built for t.
    """
    n = t.tet_count
    edge_classes = t.edge_classes
    m = len(edge_classes)
    sys = t.compatibility_system
    w_sigma = tuple(_disk_vector(n, [(i, l) for l in range(4)],
                                 [(i, p) for p in range(3)])
                    for i in range(n))
    w_edge = tuple(_disk_vector(n, [(i, u) for i, k in cls.corners
                                    for u in EDGE_VERTICES[k]],
                                [(i, min(k, 5 - k)) for i, k in cls.corners])
                   for cls in edge_classes)

    # Edge coefficient k is ints[k] / (2 v den): delta at k = j - n.
    for j, w in enumerate(w_sigma + w_edge):
        name = ("tetrahedral vector %d" % j if j < n
                else "edge vector %d" % (j - n))
        if not is_in_solution_space(sys, w):
            raise BasisVerificationError(
                "%s is not in the solution space" % name)
        den, nums = w._scaled
        v, ints = _edge_sums(nums, edge_classes)
        if ints != [2 * v * den * (k == j - n) for k in range(m)]:
            raise BasisVerificationError(
                "%s has wrong edge coefficients" % name)
    # Independent: z reads off edge weights; tet vectors have disjoint support.
    if sys.columns - sys.rank != n + m:
        raise BasisVerificationError(
            "solution space dimension differs from n+m")
    return SolutionBasis(w_sigma=w_sigma, w_edge=w_edge)


def _combination(terms, size: int) -> tuple:
    """(den, ints): the sum of x / d times w over (d, x, w) terms, read
    off each coordinate w's scaled form, over one denominator."""
    den = lcm(*(d * w._scaled[0] for d, _, w in terms))
    total = [0] * size
    for d, x, w in terms:
        wden, nums = w._scaled
        f = x * (den // (d * wden))
        for col, y in enumerate(nums):
            if y:
                total[col] += f * y
    return den, total


def combine(basis: SolutionBasis, omega, z) -> NormalCoordinate:
    """The solution-space element with tetrahedral weights omega and edge
    weights z.

    Summed as ints, and each distinct entry is one Fraction.
    """
    terms = []
    for vecs, weights, name in ((basis.w_sigma, omega, "omega"),
                                (basis.w_edge, z, "z")):
        den, nums = exact_scaled("combine " + name, weights,
                                 NormalCoordinateError)
        if len(nums) != len(vecs):
            raise NormalCoordinateError(
                "combine %s has %d weights for %d vectors"
                % (name, len(nums), len(vecs)))
        terms += ((den, x, w) for x, w in zip(nums, vecs) if x)
    return NormalCoordinate._of_scaled(
        *_combination(terms, 7 * len(basis.w_sigma)))


def decompose(t: Triangulation, s: NormalCoordinate,
              basis: SolutionBasis = None):
    """The unique (omega, z) with s = sum omega_i w_sigma_i + sum z_j w_edge_j.

    The edge weights are the edge coefficients of s; the tetrahedral
    weights come from the residual s - sum z_j w_edge_j, read at each
    tetrahedron's first triangle.  s is then checked to be recombined
    exactly, all of it in ints.  basis defaults to t.solution_basis.
    """
    if basis is None:
        basis = t.solution_basis
    if (len(basis.w_sigma), len(basis.w_edge)) != \
            (t.tet_count, len(t.edge_classes)):
        raise NormalCoordinateError(
            "basis has %d tetrahedral and %d edge vectors, not %d and %d"
            % (len(basis.w_sigma), len(basis.w_edge), t.tet_count,
               len(t.edge_classes)))
    _check_member(t, s)
    den, nums = s._scaled
    v, z = _edge_sums(nums, t.edge_classes)
    zden = 2 * den * v
    z_terms = [(zden, x, w) for x, w in zip(z, basis.w_edge) if x]
    oden, residual = _combination(
        [(1, 1, s)] + [(d, -x, w) for d, x, w in z_terms], len(nums))
    omega = residual[3 * t.tet_count::4]
    check_den, check = _combination(z_terms + [
        (oden, x, w) for x, w in zip(omega, basis.w_sigma) if x], len(nums))
    if any(a * den != b * check_den for a, b in zip(check, nums)):
        raise BasisVerificationError(
            "decomposition failed to recover the coordinate")
    return (tuple(Fraction(x, oden) for x in omega),
            tuple(Fraction(x, zden) for x in z))
