"""Triangulated compact pseudo 3-manifolds given by face gluing tables.

A triangulation is a disjoint union of n tetrahedra together with a pairing
of some of their faces by affine maps.  Vertices of each tetrahedron carry
labels 0..3, face f is the face opposite vertex f, and a gluing identifies
face f of tetrahedron i with face g of tetrahedron j via the affine map
induced by a vertex permutation.  The quotient is allowed to be non-manifold
away from the open tetrahedra: an edge may be folded onto itself and vertex
links may be arbitrary surfaces, closed or bounded.

Everything downstream (normal coordinates, angle assignments) consumes the
combinatorics computed here: edge classes with their ordered corner cycles,
and vertex classes with the Euler characteristic of their links.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

# Tet-edge k is the vertex pair EDGE_VERTICES[k].  Pairs are listed in
# lexicographic order, which makes edges k and 5-k opposite (disjoint).
EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

EDGE_INDEX = {}
for _k, (_u, _v) in enumerate(EDGE_VERTICES):
    EDGE_INDEX[(_u, _v)] = _k
    EDGE_INDEX[(_v, _u)] = _k

# Face f consists of the three vertices other than f.
FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# The three tet-edges meeting each vertex, and the two faces containing
# each tet-edge.
EDGES_AT_VERTEX = tuple(
    tuple(k for k in range(6) if v in EDGE_VERTICES[k]) for v in range(4)
)
FACES_AT_EDGE = tuple(
    tuple(f for f in range(4) if f not in EDGE_VERTICES[k]) for k in range(6)
)


def compose(p, q):
    """The permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(4))


def inverse(p):
    inv = [0, 0, 0, 0]
    for i in range(4):
        inv[p[i]] = i
    return tuple(inv)


def perm_parity(p) -> int:
    """+1 for an even permutation of (0,1,2,3), -1 for an odd one."""
    sign = 1
    for i, j in combinations(range(4), 2):
        if p[i] > p[j]:
            sign = -sign
    return sign


class TriangulationError(ValueError):
    """Raised for malformed gluing tables or invalid gluing data."""


def _check_perm(perm):
    if len(perm) != 4 or sorted(perm) != [0, 1, 2, 3]:
        raise TriangulationError("not a permutation of 0123: %r" % (perm,))


def _glue(table, tet_count, i, f, j, g, perm):
    """Record face (i, f) glued to (j, g) by perm in table, both ways,
    once the faces, perm and the involution on table are checked."""
    for tet, face in ((i, f), (j, g)):
        if not (0 <= tet < tet_count):
            raise TriangulationError(
                "tetrahedron index %d out of range" % tet)
        if not (0 <= face < 4):
            raise TriangulationError("face index %d out of range" % face)
    _check_perm(perm)
    if perm[f] != g:
        raise TriangulationError(
            "permutation %r does not carry face %d to face %d"
            % (perm, f, g))
    if (i, f) == (j, g):
        raise TriangulationError("face (%d,%d) glued to itself" % (i, f))
    for src, dst in (((i, f), (j, g, perm)),
                     ((j, g), (i, f, inverse(perm)))):
        if table.get(src, dst) != dst:
            raise TriangulationError(
                "non-involutive gluing at face (%d,%d)" % src)
        table[src] = dst


class Triangulation:
    """An immutable gluing table plus lookups derived from it.

    ``gluings`` maps (tet, face) to (tet, face, perm) where perm is the
    4-tuple of vertex images.  Both directions of every gluing pair are
    stored; the constructor accepts either one direction or both and
    checks that the result is a fixed-point-free involution on the glued
    face slots.

    Edge classes, vertex classes and the compatibility system are
    computed on first use and kept; the package reads them from here.
    """

    def __init__(self, tet_count: int, gluings=None, name: str = ""):
        if tet_count < 1:
            raise TriangulationError("need at least one tetrahedron")
        self.tet_count = tet_count
        self.name = name
        table = {}
        for (i, f), (j, g, perm) in dict(gluings or {}).items():
            _glue(table, tet_count, i, f, j, g, tuple(perm))
        self._gluing = table

    @cached_property
    def edge_classes(self):
        """The edge classes, as build_edge_classes returns them."""
        return build_edge_classes(self)

    @cached_property
    def vertex_classes(self):
        """The vertex classes, as build_vertex_classes returns them."""
        return build_vertex_classes(self)

    @cached_property
    def compatibility_system(self):
        """The system normal_coords.compatibility_system builds."""
        # Imported here: normal_coords imports this module.
        from .normal_coords import compatibility_system
        return compatibility_system(self)

    @cached_property
    def edge_class_of(self):
        """Map each (tet, tet-edge) corner to its EdgeClass."""
        return {corner: cls for cls in self.edge_classes
                for corner in cls.corners}

    def gluing(self, tet: int, face: int):
        """(tet, face, perm) on the far side, or None for a boundary face."""
        return self._gluing.get((tet, face))

    def glued_pairs(self):
        """Each gluing once, as ((i,f),(j,g),perm) with the lesser side first."""
        out = []
        for (i, f), (j, g, perm) in sorted(self._gluing.items()):
            if (i, f) <= (j, g):
                out.append(((i, f), (j, g), perm))
        return tuple(out)

    def boundary_faces(self):
        return tuple((i, f) for i in range(self.tet_count)
                     for f in range(4) if (i, f) not in self._gluing)

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.tet_count == other.tet_count
                and self._gluing == other._gluing)

    def __repr__(self):
        return "Triangulation(%d tets, %d boundary faces%s)" % (
            self.tet_count, len(self.boundary_faces()),
            ", %r" % self.name if self.name else "")


def parse_triangulation(text: str, name: str = "") -> Triangulation:
    """Parse the plain-text gluing table format.

    The first non-comment line is ``tets N``; every further line reads
    ``glue I F J G P`` where P is four characters over 0123 giving the
    vertex permutation.  ``#`` starts a comment.  Unglued faces are
    boundary faces.  Errors carry the offending line number.
    """
    tet_count = None
    gluings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if tet_count is None:
                if fields[0] != "tets" or len(fields) != 2:
                    raise TriangulationError("expected 'tets N' header")
                try:
                    tet_count = int(fields[1])
                except ValueError:
                    raise TriangulationError(
                        "bad tetrahedron count %r" % (fields[1],))
                if tet_count < 1:
                    raise TriangulationError("need at least one tetrahedron")
                continue
            if fields[0] != "glue" or len(fields) != 6:
                raise TriangulationError("expected 'glue I F J G P'")
            try:
                i, f, j, g = (int(x) for x in fields[1:5])
            except ValueError:
                raise TriangulationError("bad index")
            p = fields[5]
            if len(p) != 4 or set(p) != {"0", "1", "2", "3"}:
                raise TriangulationError("bad permutation %r" % (p,))
            _glue(gluings, tet_count, i, f, j, g, tuple(int(c) for c in p))
        except TriangulationError as err:
            raise TriangulationError("line %d: %s" % (lineno, err))
    if tet_count is None:
        raise TriangulationError("missing 'tets N' header")
    return Triangulation(tet_count, gluings, name=name)


def format_triangulation(t: Triangulation) -> str:
    lines = ["tets %d" % t.tet_count]
    for (i, f), (j, g), perm in t.glued_pairs():
        lines.append("glue %d %d %d %d %s"
                     % (i, f, j, g, "".join(str(x) for x in perm)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EdgeClass:
    """One edge of the quotient complex.

    ``corners`` lists the (tet, tet-edge) wedges around the edge in cyclic
    (or path, for boundary edges) order.  A wedge appears twice when a
    gluing folds the edge onto itself reversing its ends, so the valence
    counts corners with multiplicity.
    """
    index: int
    corners: tuple
    is_boundary: bool

    @property
    def valence(self) -> int:
        return len(self.corners)


def _edge_step(t, tet, oriented, exit_face):
    """Cross the gluing at exit_face, following an oriented tet-edge.

    Returns (tet', oriented', enter_face', exit_face') on the far side, or
    None when exit_face is a boundary face.
    """
    glu = t.gluing(tet, exit_face)
    if glu is None:
        return None
    j, g, perm = glu
    u, v = oriented
    u2, v2 = perm[u], perm[v]
    f1, f2 = FACES_AT_EDGE[EDGE_INDEX[(u2, v2)]]
    return j, (u2, v2), g, (f2 if f1 == g else f1)


def _canonical_cycle(corners):
    best = None
    seqs = (corners, corners[::-1])
    for seq in seqs:
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


def build_edge_classes(t: Triangulation):
    """Edge classes of the quotient, ordered by their least corner.

    Corners are grouped by walking around each edge through the face
    gluings.  An edge whose walk reaches an unglued face slot is a
    boundary edge (the walk is a path); otherwise the walk closes up into
    a cycle.  Walking, rather than plain union-find over corners, keeps
    the corner order and counts a wedge twice when the edge is folded
    onto itself, which is what the angle sums around the edge need.
    """
    raw = []
    done_open_slots = set()
    on_path = set()
    for i in range(t.tet_count):
        for k in range(6):
            for f in FACES_AT_EDGE[k]:
                if t.gluing(i, f) is not None or (i, k, f) in done_open_slots:
                    continue
                done_open_slots.add((i, k, f))
                f1, f2 = FACES_AT_EDGE[k]
                cur = (i, EDGE_VERTICES[k], f, f2 if f1 == f else f1)
                corners = [(i, k)]
                while True:
                    nxt = _edge_step(t, cur[0], cur[1], cur[3])
                    if nxt is None:
                        done_open_slots.add(
                            (cur[0], EDGE_INDEX[cur[1]], cur[3]))
                        break
                    cur = nxt
                    corners.append((cur[0], EDGE_INDEX[cur[1]]))
                on_path.update(corners)
                corners = tuple(corners)
                raw.append((min(corners), True,
                            min(corners, corners[::-1])))
    seen = set(on_path)
    for i in range(t.tet_count):
        for k in range(6):
            if (i, k) in seen:
                continue
            f1, f2 = FACES_AT_EDGE[k]
            start = (i, EDGE_VERTICES[k], f1)
            cur = (i, EDGE_VERTICES[k], f1, f2)
            corners = []
            while True:
                corners.append((cur[0], EDGE_INDEX[cur[1]]))
                nxt = _edge_step(t, cur[0], cur[1], cur[3])
                if nxt is None:
                    raise TriangulationError(
                        "internal: edge cycle hit a boundary face")
                cur = nxt
                if (cur[0], cur[1], cur[2]) == start:
                    break
            seen.update(corners)
            corners = _canonical_cycle(tuple(corners))
            raw.append((min(corners), False, corners))
    raw.sort()
    return tuple(EdgeClass(index=n, corners=corners, is_boundary=bdry)
                 for n, (_, bdry, corners) in enumerate(raw))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x, p = p, self.parent[p]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class VertexClass:
    """One vertex of the quotient with the combinatorics of its link.

    The link surface is assembled from one triangle per (tet, vertex)
    corner, with sides matched across the face gluings.  ``link_euler``
    is V - E + F of that surface and ``link_closed`` records whether all
    triangle sides found partners.
    """
    index: int
    corners: tuple
    link_euler: int
    link_closed: bool
    link_orientable: bool


def _link_direction(v, a, b):
    """Direction of the link-triangle side {a,b} at vertex v.

    The corner triangle at v has its three link vertices labelled by the
    opposite tet vertices; the reference orientation is their ascending
    cyclic order.
    """
    w = [x for x in range(4) if x != v]
    succ = {w[0]: w[1], w[1]: w[2], w[2]: w[0]}
    return (a, b) if succ[a] == b else (b, a)


def build_vertex_classes(t: Triangulation):
    """Vertex classes of the quotient, ordered by their least corner."""
    uf = _UnionFind()
    ends = _UnionFind()
    for i in range(t.tet_count):
        for v in range(4):
            uf.find((i, v))
        for k in range(6):
            for v in EDGE_VERTICES[k]:
                ends.find((i, k, v))
    for (i, f), (j, g), perm in t.glued_pairs():
        for v in FACE_VERTICES[f]:
            uf.union((i, v), (j, perm[v]))
        for u, v in combinations(FACE_VERTICES[f], 2):
            k = EDGE_INDEX[(u, v)]
            k2 = EDGE_INDEX[(perm[u], perm[v])]
            ends.union((i, k, u), (j, k2, perm[u]))
            ends.union((i, k, v), (j, k2, perm[v]))

    groups = {}
    for i in range(t.tet_count):
        for v in range(4):
            groups.setdefault(uf.find((i, v)), []).append((i, v))
    ordered = sorted(groups.values())
    class_of = {}
    for n, corners in enumerate(ordered):
        for c in corners:
            class_of[c] = n

    # Link vertices: one per class of edge ends, attributed to the vertex
    # class of the end's vertex.
    v_count = [0] * len(ordered)
    end_roots = set()
    for i in range(t.tet_count):
        for k in range(6):
            for v in EDGE_VERTICES[k]:
                root = ends.find((i, k, v))
                if root not in end_roots:
                    end_roots.add(root)
                    v_count[class_of[(root[0], root[2])]] += 1

    # Link edges: each matched pair of triangle sides gives one edge, each
    # unmatched side one boundary edge.
    e_count = [0] * len(ordered)
    closed = [True] * len(ordered)
    for i in range(t.tet_count):
        for v in range(4):
            n = class_of[(i, v)]
            for f in range(4):
                if f == v:
                    continue
                if t.gluing(i, f) is None:
                    e_count[n] += 2  # counted once; doubled below
                    closed[n] = False
                else:
                    e_count[n] += 1
    e_count = [x // 2 for x in e_count]

    orientable = _link_orientability(t, class_of, len(ordered))
    return tuple(
        VertexClass(index=n, corners=tuple(corners),
                    link_euler=v_count[n] - e_count[n] + len(corners),
                    link_closed=closed[n], link_orientable=orientable[n])
        for n, corners in enumerate(ordered))


def _link_orientability(t, class_of, n_classes):
    """Two-color the link triangles; a parity clash means non-orientable."""
    adj = {}
    for (i, f), (j, g), perm in t.glued_pairs():
        for v in FACE_VERTICES[f]:
            a, b = (x for x in FACE_VERTICES[f] if x != v)
            p, q = _link_direction(v, a, b)
            r, s = _link_direction(perm[v], perm[a], perm[b])
            rel = 1 if (perm[p], perm[q]) == (s, r) else -1
            adj.setdefault((i, v), []).append(((j, perm[v]), rel))
            adj.setdefault((j, perm[v]), []).append(((i, v), rel))
    orientable = [True] * n_classes
    sign = {}
    for i in range(t.tet_count):
        for v in range(4):
            if (i, v) in sign:
                continue
            sign[(i, v)] = 1
            stack = [(i, v)]
            while stack:
                cur = stack.pop()
                for other, rel in adj.get(cur, ()):
                    want = sign[cur] * rel
                    if other not in sign:
                        sign[other] = want
                        stack.append(other)
                    elif sign[other] != want:
                        orientable[class_of[cur]] = False
    return orientable


def is_orientable(t: Triangulation) -> bool:
    """Whether the tetrahedra admit orientations all gluings reverse.

    A gluing between coherently oriented tetrahedra is compatible exactly
    when its vertex permutation is odd.
    """
    sign = {}
    for start in range(t.tet_count):
        if start in sign:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for f in range(4):
                glu = t.gluing(i, f)
                if glu is None:
                    continue
                j, _, perm = glu
                want = sign[i] * (-perm_parity(perm))
                if j not in sign:
                    sign[j] = want
                    stack.append(j)
                elif sign[j] != want:
                    return False
    return True


def is_ideal_triangulation(t: Triangulation):
    """Whether every vertex link is a closed surface of non-positive Euler
    characteristic, together with a per-vertex report.

    Returns (flag, report) where report lists one (vertex index, link_euler,
    link_closed) triple per vertex class.
    """
    report = tuple((c.index, c.link_euler, c.link_closed)
                   for c in t.vertex_classes)
    flag = all(closed and euler <= 0 for _, euler, closed in report)
    return flag, report


@dataclass(frozen=True)
class FlatTetrahedron:
    """Bookkeeping for a tetrahedron inserted in a squashed-flat position.

    ``diagonal`` names the opposite tet-edge pair that runs along the two
    creases of the squashed tetrahedron; a flat assignment puts angle pi
    on those two edges and 0 on the remaining four.
    """
    tet: int
    diagonal: tuple


# Internal self-gluing of the inserted tetrahedron: face 0 onto face 1 by
# the 4-cycle sending 0,1,3,2 around.  With faces 3 and 2 reserved for the
# host faces this routes every edge of the new tetrahedron into a chain
# that meets the host, so no edge class consists of new-tetrahedron
# corners alone.
_FLAT_INTERNAL_PERM = (1, 3, 0, 2)
# Vertex correspondence from face 3 to face 2 induced by that self-gluing.
_FLAT_TWIST = (1, 0, 3, 2)


def insert_flat_tetrahedron(t: Triangulation, face_a, face_b, matching):
    """Insert a squashed tetrahedron between two faces.

    ``face_a`` and ``face_b`` must currently be glued to each other, or
    must both be boundary faces.  The new tetrahedron takes over the
    contact: face_a glues onto its face 3, face_b onto its face 2, and
    its remaining two faces are glued to each other.  ``matching`` is the
    vertex permutation that the composite passage from face_a through the
    flat tetrahedron to face_b realizes; passing the old gluing
    permutation reproduces the old edge identifications exactly, while a
    different matching reroutes them.

    Returns the enlarged triangulation together with a FlatTetrahedron
    record naming the new tetrahedron and its diagonal edge pair.
    """
    (i, fa), (j, fb) = face_a, face_b
    if face_a == face_b:
        raise TriangulationError("cannot insert at a single face")
    matching = tuple(matching)
    _check_perm(matching)
    if matching[fa] != fb:
        raise TriangulationError(
            "matching %r does not carry face %d to face %d"
            % (matching, fa, fb))
    glu_a = t.gluing(i, fa)
    glu_b = t.gluing(j, fb)
    both_boundary = glu_a is None and glu_b is None
    glued_to_each_other = glu_a is not None and glu_a[:2] == (j, fb)
    if not (both_boundary or glued_to_each_other):
        raise TriangulationError(
            "faces (%d,%d) and (%d,%d) are neither glued to each other "
            "nor both boundary" % (i, fa, j, fb))

    tau = t.tet_count
    rho1 = [None] * 4
    for pos, v in enumerate(sorted(FACE_VERTICES[fa])):
        rho1[v] = pos
    rho1[fa] = 3
    rho1 = tuple(rho1)
    rho2 = compose(_FLAT_TWIST, compose(rho1, inverse(matching)))

    gluings = dict(t._gluing)
    gluings.pop((i, fa), None)
    gluings.pop((j, fb), None)
    gluings[(i, fa)] = (tau, 3, rho1)
    gluings[(j, fb)] = (tau, 2, rho2)
    gluings[(tau, 0)] = (tau, 1, _FLAT_INTERNAL_PERM)
    new_t = Triangulation(tau + 1, gluings, name=t.name)
    return new_t, FlatTetrahedron(tet=tau, diagonal=(0, 5))
