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

from functools import cached_property
from itertools import combinations, permutations

from ._record import Record

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
# _EDGE_AT[u][v] is EDGE_INDEX[(u, v)], read as a 4x4 table.
_EDGE_AT = [[EDGE_INDEX.get((u, v)) for v in range(4)] for u in range(4)]


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


# The 24 permutations of 0123, looked up rather than worked out per call:
# each one's inverse and parity, and each by its four-character spelling.
_INVERSE = {p: inverse(p) for p in permutations(range(4))}
_PARITY = {p: perm_parity(p) for p in _INVERSE}
_SPELLED = {"".join(map(str, p)): p for p in _INVERSE}


class TriangulationError(ValueError):
    """Raised for malformed gluing tables or invalid gluing data."""


def _perm(p):
    """The tuple of p's entries, once checked to be a permutation of 0123.
    A bool or a float hashes like an int, so each entry's type is checked,
    as _check_slot checks each index's."""
    try:
        perm = tuple(p)
    except TypeError:
        perm = p  # no sequence: refused below, by name
    if type(perm) is not tuple or not all(type(x) is int for x in perm) \
            or perm not in _INVERSE:
        raise TriangulationError("not a permutation of 0123: %r" % (perm,))
    return perm


def _check_slot(tet_count, tet, face):
    if type(tet) is not int or not (0 <= tet < tet_count):
        raise TriangulationError("tetrahedron index %r out of range" % (tet,))
    if type(face) is not int or not (0 <= face < 4):
        raise TriangulationError("face index %r out of range" % (face,))


def _glue(table, tet_count, i, f, j, g, perm):
    """Record face (i, f) glued to (j, g) by perm, a key of _INVERSE, in
    table, both ways, once the faces and the involution on table are
    checked."""
    _check_slot(tet_count, i, f)
    _check_slot(tet_count, j, g)
    if perm[f] != g:
        raise TriangulationError(
            "permutation %r does not carry face %d to face %d"
            % (perm, f, g))
    if (i, f) == (j, g):
        raise TriangulationError("face (%d,%d) glued to itself" % (i, f))
    for src, dst in (((i, f), (j, g, perm)),
                     ((j, g), (i, f, _INVERSE[perm]))):
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
    face slots.  Two triangulations are equal, and hash equal, when their
    tet counts and tables are; the name is not compared.

    Edge classes, vertex classes, the boundary faces, the compatibility
    system, the edge tally and the solution-space basis are computed on
    first use and kept; the package reads them from here.
    """

    def __init__(self, tet_count: int, gluings=None, name: str = ""):
        if type(tet_count) is not int:
            raise TriangulationError("bad tetrahedron count %r" % (tet_count,))
        if tet_count < 1:
            raise TriangulationError("need at least one tetrahedron")
        self.tet_count = tet_count
        self.name = name
        table = {}
        try:
            entries = dict(gluings or {}).items()
        except (TypeError, ValueError):
            raise TriangulationError("malformed gluing table %r"
                                     % (gluings,)) from None
        for key, value in entries:
            try:
                (i, f), (j, g, perm) = key, value
            except (TypeError, ValueError):
                raise TriangulationError("malformed gluing entry %r: %r"
                                         % (key, value)) from None
            _glue(table, tet_count, i, f, j, g, _perm(perm))
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
    def solution_basis(self):
        """The verified basis normal_coords.solution_space_basis builds."""
        from .normal_coords import solution_space_basis
        return solution_space_basis(self)

    @cached_property
    def _edge_tally(self):
        """The table normal_coords._tally_table builds."""
        from .normal_coords import _tally_table
        return _tally_table(self)

    def gluing(self, tet: int, face: int):
        """(tet, face, perm) on the far side, or None for a boundary face;
        a missing slot or a non-int index raises TriangulationError."""
        _check_slot(self.tet_count, tet, face)
        return self._gluing.get((tet, face))

    @cached_property
    def _glued_pairs(self):  # complete once built, so sorted once
        return tuple(((i, f), (j, g), perm)
                     for (i, f), (j, g, perm) in sorted(self._gluing.items())
                     if (i, f) <= (j, g))

    def glued_pairs(self):
        """Each gluing once, as ((i,f),(j,g),perm) with the lesser side first."""
        return self._glued_pairs

    @cached_property
    def _boundary_faces(self):  # complete once built, as _glued_pairs
        return tuple((i, f) for i in range(self.tet_count)
                     for f in range(4) if (i, f) not in self._gluing)

    def boundary_faces(self):
        """The unglued face slots (i, f), in order."""
        return self._boundary_faces

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.tet_count == other.tet_count
                and self._gluing == other._gluing)

    def __hash__(self):
        # Not kept: parse_triangulation fills the table after __init__.
        return hash((self.tet_count, frozenset(self._gluing.items())))

    def __repr__(self):
        return "Triangulation(%d tets, %d boundary faces%s)" % (
            self.tet_count, len(self.boundary_faces()),
            ", %r" % self.name if self.name else "")


# The largest tetrahedron count a gluing table may declare: at about
# 13 KB each, a short header cannot ask for gigabytes.
MAX_TETS = 10000


def _is_digits(field: str) -> bool:
    """Whether field is ASCII digits alone, as int() would not check."""
    return field.isascii() and field.isdigit()


def parse_triangulation(text: str, name: str = "") -> Triangulation:
    """Parse the plain-text gluing table format.

    The first non-comment line is ``tets N``; every further line reads
    ``glue I F J G P`` where P is four characters over 0123 giving the
    vertex permutation.  N, I, F, J and G are ASCII digits, with no
    sign, and N is at most MAX_TETS.  ``#`` starts a comment.  Unglued
    faces are boundary faces.  Errors carry the offending line number.
    """
    t = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if t is None:
                if fields[0] != "tets" or len(fields) != 2:
                    raise TriangulationError("expected 'tets N' header")
                if not _is_digits(fields[1]):
                    raise TriangulationError(
                        "bad tetrahedron count %r" % (fields[1],))
                tet_count = int(fields[1])
                if tet_count > MAX_TETS:
                    raise TriangulationError("tetrahedron count %d exceeds %d"
                                             % (tet_count, MAX_TETS))
                t = Triangulation(tet_count, name=name)
                continue
            if fields[0] != "glue" or len(fields) != 6:
                raise TriangulationError("expected 'glue I F J G P'")
            if not all(map(_is_digits, fields[1:5])):
                raise TriangulationError("bad index")
            i, f, j, g = (int(x) for x in fields[1:5])
            perm = _SPELLED.get(fields[5])
            if perm is None:
                raise TriangulationError("bad permutation %r" % (fields[5],))
            # Each line is checked once, into the table t keeps.
            _glue(t._gluing, tet_count, i, f, j, g, perm)
        except TriangulationError as err:
            raise TriangulationError("line %d: %s" % (lineno, err))
        except ValueError:  # past int()'s limit on digits
            raise TriangulationError("line %d: number too long" % lineno)
    if t is None:
        raise TriangulationError("missing 'tets N' header")
    return t


def format_triangulation(t: Triangulation) -> str:
    lines = ["tets %d" % t.tet_count]
    for (i, f), (j, g), perm in t.glued_pairs():
        lines.append("glue %d %d %d %d %s"
                     % (i, f, j, g, "".join(str(x) for x in perm)))
    return "\n".join(lines) + "\n"


class EdgeClass(Record):
    """One edge of the quotient complex.

    ``corners`` lists the (tet, tet-edge) wedges around the edge in cyclic
    (or path, for boundary edges) order.  A wedge appears twice when a
    gluing folds the edge onto itself reversing its ends, so the valence
    counts corners with multiplicity; z and chi* count such a wedge once.
    ``mult``, the fold multiplicity, is how many times each wedge
    appears: 2 on a folded class, 1 elsewhere.  A walk meets a wedge
    again only reversed, and then, no face being glued to itself, meets
    every wedge of the class reversed too.
    """
    index: int
    corners: tuple
    is_boundary: bool

    @property
    def valence(self) -> int:
        return len(self.corners)

    @cached_property
    def mult(self) -> int:
        return self.valence // len(set(self.corners))


def _walk(gluing, state):
    """Walk round an edge from state (tet, u, v, exit face), the edge
    running from vertex u to v, crossing the gluing table at each exit
    face.  Entered at face g, the edge exits through 6 - u - v - g, the
    one label neither an end of it nor g.

    Returns the corners met and, when the walk leaves through an unglued
    face, its last state; None when it closes up at the start state.
    """
    start = state
    i, u, v, exit_face = state
    corners = []
    while True:
        corners.append((i, _EDGE_AT[u][v]))
        glu = gluing.get((i, exit_face))
        if glu is None:
            return corners, (i, u, v, exit_face)
        i, g, perm = glu
        u, v = perm[u], perm[v]
        exit_face = 6 - u - v - g
        if (i, u, v, exit_face) == start:
            return corners, None


def build_edge_classes(t: Triangulation):
    """Edge classes of the quotient, ordered by their least corner.

    Corners are grouped by walking around each edge through the face
    gluings.  A walk that leaves through an unglued face is walked again
    from that end, so a boundary edge is the path between its two
    unglued faces; otherwise the walk closes up into a cycle.  Walking,
    rather than plain union-find over corners, keeps the corner order and
    counts a wedge twice when the edge is folded onto itself, which is
    what the angle sums around the edge need.  Each path or cycle is
    stored as the least of its readings in either direction, from any
    start for a cycle.  That least reading of a cycle starts at its
    least corner, so only the readings from each visit to that corner
    are compared: one per direction, two where a fold visits it twice.
    """
    raw = []
    seen = set()
    for i in range(t.tet_count):
        for k, (u, v) in enumerate(EDGE_VERTICES):
            if (i, k) in seen:
                continue
            corners, end = _walk(t._gluing, (i, u, v, FACES_AT_EDGE[k][1]))
            if end is not None:
                j, a, b, exit_face = end
                corners, _ = _walk(t._gluing, (j, a, b, 6 - a - b - exit_face))
            seen.update(corners)
            least = min(corners)
            readings = (corners, corners[::-1])
            if end is None:  # a cycle: from each visit to its least corner
                readings = [seq[r:] + seq[:r] for seq in readings
                            for r, c in enumerate(seq) if c == least]
            raw.append((least, end is not None, tuple(min(readings))))
    raw.sort()
    return tuple(EdgeClass(index=n, corners=corners, is_boundary=bdry)
                 for n, (_, bdry, corners) in enumerate(raw))


def _components(count, links):
    """Connected components of a signed graph on the nodes 0..count-1, in
    order of least node.

    ``links`` are (a, b, sign) triples with sign +1 or -1.  Each
    component comes back as (its ascending nodes, clash), clash being
    whether no choice of node signs s has s[b] == s[a] * sign on every
    link inside it.  A search from each least unsigned node signs its
    component through list-indexed adjacency and signs, 0 for unsigned.
    """
    adjacent = [[] for _ in range(count)]
    for a, b, sign in links:
        adjacent[a].append((b, sign))
        adjacent[b].append((a, sign))
    signs = [0] * count
    out = []
    for start in range(count):
        if signs[start]:
            continue
        signs[start] = 1
        stack, members, clash = [start], [start], False
        while stack:
            a = stack.pop()
            for b, sign in adjacent[a]:
                want = signs[a] * sign
                if not signs[b]:
                    signs[b] = want
                    stack.append(b)
                    members.append(b)
                elif signs[b] != want:
                    clash = True
        out.append((sorted(members), clash))
    return out


class VertexClass(Record):
    """One vertex of the quotient with the combinatorics of its link.

    The link surface is assembled from one triangle per (tet, vertex)
    corner, with sides matched across the face gluings.  ``link_euler``
    is V - E + F of that surface, ``link_closed`` records whether all
    triangle sides found partners, and ``link_orientable`` whether the
    triangles can be oriented so that every matched side pair is
    reversed.
    """
    index: int
    corners: tuple
    link_euler: int
    link_closed: bool
    link_orientable: bool


def build_vertex_classes(t: Triangulation):
    """Vertex classes of the quotient, ordered by their least corner.

    Corner (i, v) carries the link triangle on the other three vertices,
    oriented by their ascending cyclic order.  A gluing matches two such
    triangles along a side, and their orientations fit together (give
    that side opposite directions) exactly when
    -parity(perm) * (-1)**(v + perm[v]) is +1.  The parity is looked up
    once per glued pair, and the corners are grouped by _components as
    the int nodes 4i + v, whose order is that of the pairs (i, v).
    """
    links = []
    for (i, f), (j, g), perm in t.glued_pairs():
        sign = -_PARITY[perm]
        links += ((4 * i + v, 4 * j + perm[v],
                   -sign if (v ^ perm[v]) & 1 else sign)
                  for v in FACE_VERTICES[f])
    classes = _components(4 * t.tet_count, links)
    class_of = {c: n for n, (corners, _) in enumerate(classes)
                for c in corners}

    # Link vertices: the two ends of each edge class, or one end when a
    # fold swaps them.
    v_count = [0] * len(classes)
    for e in t.edge_classes:
        i, k = e.corners[0]
        u, w = EDGE_VERTICES[k]
        v_count[class_of[4 * i + u]] += 1
        if e.mult == 1:
            v_count[class_of[4 * i + w]] += 1

    # Link edges: a corner's triangle has three sides, one in each other
    # face of its tet.  Sides in glued faces match in pairs; a side in a
    # boundary face is a boundary edge alone and leaves the link open.
    # So E = (3F + boundary sides) / 2 for F corners, and V - E + F is
    # V - (F + boundary sides) / 2.
    sides = [0] * len(classes)
    for i, f in t.boundary_faces():
        for v in FACE_VERTICES[f]:
            sides[class_of[4 * i + v]] += 1
    return tuple(
        VertexClass(index=n, corners=tuple(divmod(c, 4) for c in corners),
                    link_euler=v_count[n] - (len(corners) + sides[n]) // 2,
                    link_closed=sides[n] == 0, link_orientable=not clash)
        for n, (corners, clash) in enumerate(classes))


def is_orientable(t: Triangulation) -> bool:
    """Whether the tetrahedra admit orientations all gluings reverse.

    A gluing between coherently oriented tetrahedra is compatible exactly
    when its vertex permutation is odd: _components groups the tets i
    by links of sign -parity, looked up per glued pair.
    """
    links = [(i, j, -_PARITY[perm])
             for (i, _), (j, _), perm in t.glued_pairs()]
    return not any(clash for _, clash in _components(t.tet_count, links))


def is_ideal_triangulation(t: Triangulation) -> bool:
    """Whether every vertex link is a closed surface of non-positive Euler
    characteristic; t.vertex_classes holds each link's data."""
    return all(c.link_closed and c.link_euler <= 0
               for c in t.vertex_classes)


class FlatTetrahedron(Record):
    """Bookkeeping for a tetrahedron inserted in a squashed-flat position.

    Its opposite tet-edges 0 and 5 run along the two creases of the
    squashed tetrahedron; a flat assignment puts angle pi on those two
    edges and 0 on the remaining four.
    """
    tet: int


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
    record naming the new tetrahedron; a face slot t lacks is refused.
    """
    try:
        (i, fa), (j, fb) = face_a, face_b
    except (TypeError, ValueError):
        raise TriangulationError("malformed faces %r and %r"
                                 % (face_a, face_b)) from None
    glu_a = t.gluing(i, fa)  # first, so that a slot t lacks is refused
    glu_b = t.gluing(j, fb)
    if face_a == face_b:
        raise TriangulationError("cannot insert at a single face")
    matching = _perm(matching)
    if matching[fa] != fb:
        raise TriangulationError(
            "matching %r does not carry face %d to face %d"
            % (matching, fa, fb))
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
    rho2 = compose(_FLAT_TWIST, compose(rho1, _INVERSE[matching]))

    gluings = dict(t._gluing)
    gluings.pop((i, fa), None)
    gluings.pop((j, fb), None)
    gluings[(i, fa)] = (tau, 3, rho1)
    gluings[(j, fb)] = (tau, 2, rho2)
    gluings[(tau, 0)] = (tau, 1, _FLAT_INTERNAL_PERM)
    new_t = Triangulation(tau + 1, gluings, name=t.name)
    return new_t, FlatTetrahedron(tet=tau)
