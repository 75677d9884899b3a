"""Independent re-derivations used as test oracles.

Nothing here calls the code paths it is meant to check: edge classes are
rebuilt by plain union-find instead of cycle walking, and their stored
readings are checked against the least of every reading of a walk that
steps one gluing at a time, from every start and both ways; first homology
comes from a Smith normal form over the dual spine with its own one-step
traversal, and linear programs are settled by exhaustive enumeration of
basic solutions instead of simplex pivoting.  The angle system is
rebuilt as dense rows, cell by cell, with folded tet-edges found by a
union-find of their own, and the pair system the finders reduce is
rebuilt as derived, no row reduced, over Fractions from the corner
targets and the edge tallies.  Orientability, of the tetrahedra and of
each vertex link, comes from a union-find over (node, +1/-1) pairs, with
each link gluing's sign read off the directions of the glued triangle
sides.  The quad-slice maximum is too large to enumerate; it reruns the
simplex on the unprojected slice program, over the full compatibility
rows with every triangle column split into a nonnegative pair, so the
solver's projection of the triangle columns is checked against a
program that never projects.  The simplex itself is kept here over
sparse rows of Fractions, so that the integer tableau can be checked to
take the same pivots, with phase 1 priced over a start's support too.
So are the normal-coordinate formulas, one Fraction at a time:
membership, crossing weights, edge coefficients, chi*, combine,
decompose and a slice witness's back-substitution, against which the
integer kernels are checked; the quad rows and rank of the compatibility
rows, by a generic elimination with the triangle columns first, against
which the vertex-link forest's projection is checked, those rows read
off the system's arcs here, as the package keeps no sparse view of
them; and the Farkas
sign conditions recomputed over Fractions, against which the integer
certificate check is.  An assignment's realized data is summed angle by
angle, and the flat-pair
test is read off those Fraction areas, against the int corner sums the
package compares.  Theorem 3's move is rebuilt over Fractions too: its
coefficients, its safe range as a plain minimum of Fraction bounds, and
the angles at half of it.  A "p/q" string is read by the file grammar's
regex, copied here, into one Fraction at a time, against which the
reader of whole lists into (den, ints) is checked.

Generated inputs are built here too, from the gluing table alone: random
tables, closed or with boundary faces; a relabelling of the tetrahedra
and of each one's vertices, with the maps that carry angles, corners
and certificates along; and walks of 2-3 moves from fig8, each move
checked against the invariants it must keep by the oracles above.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from anglestruct import (NormalCoordinate, Triangulation, lp_core,
                         parse_triangulation)
from anglestruct._linalg import echelon
from anglestruct.fixtures import FIG8_TABLE
from anglestruct.triangulation import inverse
from anglestruct.lp_core import (STRICT_POS, LinearSystem, Optimum,
                                 minimize_linear)

ZERO, ONE = Fraction(0), Fraction(1)

EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {}
for _k, (_u, _v) in enumerate(EDGE_VERTICES):
    EDGE_INDEX[(_u, _v)] = EDGE_INDEX[(_v, _u)] = _k
FACES_AT_EDGE = tuple(
    tuple(f for f in range(4) if f not in EDGE_VERTICES[k])
    for k in range(6))


# ASCII digits only, an optional sign on the numerator, q > 0 required.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """The one "p/q" string text as a Fraction; anything else raises
    ValueError with the file readers' message."""
    match = _RATIONAL.fullmatch(text.strip())
    den = int(match[2] or 1) if match else 0
    if not den:
        raise ValueError("not an exact rational: %r" % text)
    return Fraction(int(match[1]), den)


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_edge_partition(t):
    """Edge classes as a sorted partition of (tet, edge) pairs, computed
    by gluing-induced unions only."""
    uf = UnionFind()
    for i in range(t.tet_count):
        for k in range(6):
            uf.find((i, k))
    for (i, f), (j, g), perm in t.glued_pairs():
        for k in range(6):
            u, v = EDGE_VERTICES[k]
            if u == f or v == f:
                continue
            uf.union((i, k), (j, EDGE_INDEX[(perm[u], perm[v])]))
    groups = {}
    for i in range(t.tet_count):
        for k in range(6):
            groups.setdefault(uf.find((i, k)), set()).add((i, k))
    return sorted(tuple(sorted(g)) for g in groups.values())


def folded_tet_edges(t):
    """The (tet, edge) pairs glued to themselves with their ends swapped,
    by union-find over oriented tet-edges."""
    uf = UnionFind()
    for (i, f), (j, g), perm in t.glued_pairs():
        for u, v in EDGE_VERTICES:
            if f in (u, v):
                continue
            uf.union((i, u, v), (j, perm[u], perm[v]))
            uf.union((i, v, u), (j, perm[v], perm[u]))
    return {(i, k) for i in range(t.tet_count)
            for k, (u, v) in enumerate(EDGE_VERTICES)
            if uf.find((i, u, v)) == uf.find((i, v, u))}


def has_folded_edge(t) -> bool:
    """Whether some tet-edge is glued to itself with its ends swapped."""
    return bool(folded_tet_edges(t))


def angle_system_dense(t, ac, mode):
    """The angle system as dense (coeffs, rhs, signs), built cell by cell.

    A corner row is 1 on the three tet-edges through its vertex.  An edge
    row is 1 on each tet-edge of the class and 2 on a folded one, and its
    class is a boundary class when one of those tet-edges lies in an
    unglued face.  With a positive area, each angle and its slack share a
    cap row.  Only the order of the edge rows is taken from
    t.edge_classes; the folds and the boundary come from the gluings.
    """
    n = t.tet_count
    width = 6 * n
    capped = any(a > 0 for a in ac.area)
    cols = 2 * width if capped else width
    folded = folded_tet_edges(t)
    coeffs, rhs = [], []
    for i in range(n):
        for l in range(4):
            row = [Fraction(0)] * cols
            for k, ends in enumerate(EDGE_VERTICES):
                if l in ends:
                    row[6 * i + k] = Fraction(1)
            coeffs.append(tuple(row))
            rhs.append(ac.area[4 * i + l] + 1)
    for cls in t.edge_classes:
        row = [Fraction(0)] * cols
        for i, k in set(cls.corners):
            row[6 * i + k] = Fraction(2 if (i, k) in folded else 1)
        coeffs.append(tuple(row))
        boundary = any(t.gluing(i, f) is None
                       for i, k in cls.corners for f in FACES_AT_EDGE[k])
        rhs.append((1 if boundary else 2) - ac.curvature[cls.index])
    if capped:
        for e in range(width):
            row = [Fraction(0)] * cols
            row[e] = row[width + e] = Fraction(1)
            coeffs.append(tuple(row))
            rhs.append(Fraction(1))
    sign = "strict-pos" if mode == "strict" else "nonneg"
    return tuple(coeffs), tuple(rhs), (sign,) * cols


def pair_system(t, ac, mode):
    """The pair system before the finders reduce it, every row as
    derived, over Fractions.

    Column 3i + k, k < 3, is the smaller angle y of tet i's opposite
    edges k and 5 - k, the angles being y plus a shift: half the corner
    targets at the ends of one edge minus those at the ends of the
    other, where that is positive, else 0.  Rows: per tetrahedron its
    three pairs summing to the corner target at vertex 0 less the shifts
    of the edges there; per edge class the tally of its tet-edges'
    pairs, 2 on a folded one, against its target less their shifts,
    with the folds and the boundary read off the gluings; and with a
    positive area, y + slack = 1 - |d| per pair.
    """
    n = t.tet_count
    a = [x + 1 for x in ac.area]
    capped = any(x > 0 for x in ac.area)
    folded = folded_tet_edges(t)
    shift = []
    for i in range(n):
        c = a[4 * i:4 * i + 4]
        for k, (u, v) in enumerate(EDGE_VERTICES):
            p, q = EDGE_VERTICES[5 - k]
            shift.append(max((c[u] + c[v] - c[p] - c[q]) / 2, ZERO))
    rows = [[(3 * i + k, ONE) for k in range(3)] for i in range(n)]
    rhs = [a[4 * i] - sum(shift[6 * i:6 * i + 3]) for i in range(n)]
    for cls in t.edge_classes:
        row, b = [], (1 if any(
            t.gluing(i, f) is None for i, k in cls.corners
            for f in FACES_AT_EDGE[k]) else 2) - ac.curvature[cls.index]
        for i, k in set(cls.corners):
            times = 2 if (i, k) in folded else 1
            row.append((3 * i + min(k, 5 - k), Fraction(times)))
            b -= times * shift[6 * i + k]
        rows.append(row)
        rhs.append(b)
    if capped:
        for p in range(3 * n):
            i, k = divmod(p, 3)
            rows.append([(p, ONE), (3 * n + p, ONE)])
            rhs.append(1 - shift[6 * i + k] - shift[6 * i + 5 - k])
    sign = "strict-pos" if mode == "strict" else "nonneg"
    return LinearSystem.of(rows, rhs, [sign] * (6 * n if capped else 3 * n))


def smith_diagonal(mat):
    """Diagonal of the Smith normal form of an integer matrix."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if m else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] != 0 and (
                        best is None or
                        abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[r], m[bi] = m[bi], m[r]
        for row in m:
            row[c], row[bj] = row[bj], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, rows):
                if m[i][c] % m[r][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    m[r], m[i] = m[i], m[r]
                    again = True
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            for j in range(c + 1, cols):
                if m[r][j] % m[r][c] != 0:
                    q = m[r][j] // m[r][c]
                    for row in m:
                        row[j] -= q * row[c]
                    for row in m:
                        row[c], row[j] = row[j], row[c]
                    again = True
            for j in range(c + 1, cols):
                q = m[r][j] // m[r][c]
                if q:
                    for row in m:
                        row[j] -= q * row[c]
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    for i in range(len(diag) - 1):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, l
    return diag


def _step(t, tet, oriented, exit_face):
    """Cross one gluing while circling an edge: returns the next
    (tet, oriented edge, enter face, exit face) state."""
    glu = t.gluing(tet, exit_face)
    assert glu is not None
    j, g, perm = glu
    u, v = oriented
    new_oriented = (perm[u], perm[v])
    k = EDGE_INDEX[new_oriented]
    f1, f2 = FACES_AT_EDGE[k]
    new_exit = f2 if f1 == g else f1
    return (j, new_oriented, g, new_exit)


def _circle(t, state):
    """The corners met stepping round an edge from state, the last
    state, and whether the walk closed up rather than meeting an
    unglued face."""
    start, corners = state, []
    while True:
        corners.append((state[0], EDGE_INDEX[state[1]]))
        if t.gluing(state[0], state[3]) is None:
            return corners, state, False
        state = _step(t, state[0], state[1], state[3])
        if state == start:
            return corners, state, True


def least_edge_readings(t):
    """Each edge class as (its least reading, is_boundary), in order of
    least corner.  A class is circled with _step from its least corner,
    and circled again from the far end when it meets an unglued face.
    Every reading of a cycle is compared, from each of its corners and in
    both directions; a path is read from either end."""
    seen, out = set(), []
    for i in range(t.tet_count):
        for k in range(6):
            if (i, k) in seen:
                continue
            corners, end, closed = _circle(
                t, (i, EDGE_VERTICES[k]) + FACES_AT_EDGE[k])
            if not closed:
                j, oriented, enter, exit_face = end
                corners, _, _ = _circle(t, (j, oriented, exit_face, enter))
            seen.update(corners)
            readings = [corners, corners[::-1]]
            if closed:
                readings = [seq[r:] + seq[:r] for seq in readings
                            for r in range(len(seq))]
            out.append((tuple(min(readings)), not closed))
    return out


def h1_invariants(t):
    """(free rank, torsion coefficients) of first homology from the dual
    spine presentation: one generator per face pair off a spanning tree,
    one relator per edge class, abelianized and Smith-reduced.  Only
    valid for fully glued triangulations."""
    pairs = t.glued_pairs()
    if 2 * len(pairs) != 4 * t.tet_count:
        raise ValueError("dual spine oracle needs a fully glued triangulation")
    pair_index = {}
    for idx, (a, b, perm) in enumerate(pairs):
        pair_index[a] = (idx, 1)
        pair_index[b] = (idx, -1)
    tree = set()
    seen = {0}
    changed = True
    while changed:
        changed = False
        for idx, ((i, f), (j, g), perm) in enumerate(pairs):
            if (i in seen) != (j in seen):
                seen.update((i, j))
                tree.add(idx)
                changed = True
    assert len(seen) == t.tet_count
    rels = []
    for corners in union_find_edge_partition(t):
        i, k = corners[0]
        f1, f2 = FACES_AT_EDGE[k]
        start = (i, EDGE_VERTICES[k], f1)
        cur = (i, EDGE_VERTICES[k], f1, f2)
        row = [0] * len(pairs)
        while True:
            idx, sign = pair_index[(cur[0], cur[3])]
            row[idx] += sign
            cur = _step(t, cur[0], cur[1], cur[3])
            if (cur[0], cur[1], cur[2]) == start:
                break
        rels.append(row)
    free_cols = [j for j in range(len(pairs)) if j not in tree]
    red = [[row[j] for j in free_cols] for row in rels]
    if not red or not free_cols:
        return (len(free_cols), [])
    d = smith_diagonal(red)
    rank = sum(1 for x in d if x != 0)
    torsion = [x for x in d if x not in (0, 1)]
    return (len(free_cols) - rank, torsion)


def _rref(matrix):
    m = [[Fraction(v) for v in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        nonzero = [(k, v / lead) for k, v in enumerate(m[r]) if v]
        for k, v in nonzero:
            m[r][k] = v
        for i, row in enumerate(m):
            if i != r and row[c] != 0:
                f = row[c]
                for k, v in nonzero:
                    row[k] -= f * v
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _rank(matrix):
    """The rank by forward elimination, on the pivots _rref takes: in
    each column the first row at or below the current one that is
    nonzero there.  Rows below a pivot change only in its nonzeros."""
    m = [[Fraction(v) for v in row] for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        nonzero = [(k, v) for k, v in enumerate(m[r]) if v]
        for row in m[r + 1:]:
            if row[c] != 0:
                f = row[c] / m[r][c]
                for k, v in nonzero:
                    row[k] -= f * v
        r += 1
        if r == len(m):
            break
    return r


def nullspace(matrix):
    """A basis of the kernel, one vector per free column; used to sample
    the solution space independently of the package's canonical basis."""
    rows, pivots = _rref(matrix)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def _basic_solutions(coeffs, rhs):
    """Every basic solution of A x = b over all independent column
    choices of full rank, sign-unfiltered; verified against the full
    system before being yielded."""
    k = len(coeffs)
    t = len(coeffs[0]) if k else 0
    aug = [list(row) + [b] for row, b in zip(coeffs, rhs)]
    r = _rank(coeffs)
    if _rank(aug) > r:
        return
    seen = set()
    for cols in combinations(range(t), r):
        sub = [[row[c] for c in cols] + [b]
               for row, b in zip(coeffs, rhs)]
        m, pivots = _rref(sub)
        if len(cols) in pivots:
            continue  # inconsistent restriction
        x = [Fraction(0)] * t
        for pr, pc in enumerate(pivots):
            x[cols[pc]] = m[pr][len(cols)]
        if any(sum(row[j] * x[j] for j in range(t)) != b
               for row, b in zip(coeffs, rhs)):
            continue
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            yield x


def _fraction_pivot(rows, basis, r: int, j: int) -> None:
    """Pivot on (r, j) over dict rows of nonzero Fractions: the pivot
    row is divided by its entry at j, and every other row with an entry
    at j changes only in the pivot row's nonzeros; entries that cancel
    are dropped."""
    pivot = rows[r]
    piv = pivot[j]
    if piv != 1:
        for c, v in pivot.items():
            pivot[c] = v / piv
    nonzero = [(c, v) for c, v in pivot.items() if c != j]
    for i, row in enumerate(rows):
        if i != r and j in row:
            f = -row.pop(j)
            for c, v in nonzero:
                w = row.get(c)
                if w is None:
                    row[c] = f * v
                else:
                    w += f * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
    basis[r] = j


def _fraction_pivot_loop(rows, basis, cols, end: int):
    """Run Bland-rule simplex to optimality or an unbounded column.

    The objective row is rows[-1] and the constraint rows are the first
    len(basis), with their rhs at column end.  Entering variable: the
    lowest-index column in cols with negative reduced cost in the
    objective row.  Leaving variable: minimum ratio, ties broken by the
    lowest basic variable index.  Returns None at optimality, else the
    entering column of an unbounded ray.
    """
    while True:
        enter = min((j for j, v in rows[-1].items()
                     if j in cols and v.numerator < 0), default=None)
        if enter is None:
            return None
        best = None
        for r, b in enumerate(basis):
            a = rows[r].get(enter)
            if a is not None and a.numerator > 0:
                # The ratio rhs / a as p / q with q > 0, compared with the
                # best so far by cross-multiplying.
                v = rows[r].get(end, ZERO)
                p, q = v.numerator * a.denominator, v.denominator * a.numerator
                if best is None or (p * best[1], b) < (best[0] * q, best[2]):
                    best = (p, q, b, r)
        if best is None:
            return enter
        _fraction_pivot(rows, basis, best[3], enter)


def fraction_simplex(sparse, rhs, cost, cols=None):
    """lp_core._solve over a tableau of Fractions, kept to check that the
    integer tableau takes the same pivots.

    Two-phase simplex for min c.x, A x = b, x >= 0.  Each row is a dict
    of its nonzero Fractions: columns 0..t-1 real, t..t+k-1 artificial,
    t+k the rhs.  Below the k constraint rows are the phase-2 row (the
    costs) and the phase-1 row (1 on each artificial minus the sum of
    the constraint rows); every pivot updates both, so neither is ever
    priced again.

    Returns a dict with status "optimal" (x, value, dual), "unbounded"
    (ray), or "infeasible" (farkas).  The residue, the value, and the
    Farkas and dual vectors are read off the final objective row: its
    rhs entry is minus the phase's cost, and at artificial column q it
    is that column's phase cost minus y_q, where y is in the scaled row
    orientation and is unscaled back to the caller's.

    Phase 1 prices the columns in cols, every real and artificial one by
    default, and phase 2 every real column.  With no cols the start is
    the slack basis: a row holding a column that no other row holds,
    positive once the row is scaled, starts with the lowest such column
    basic, the row divided by its entry there and that column's cost
    priced out of the phase-2 row; its artificial stays, nonbasic, and
    the phase-1 row sums only the rows whose artificial is basic.
    """
    k = len(sparse)
    t = len(cost)
    end = t + k
    scale = [ONE if b >= 0 else -ONE for b in rhs]
    rows = []
    for i, (pairs, b, s) in enumerate(zip(sparse, rhs, scale)):
        row = {c: s * v for c, v in pairs if v}
        row[t + i] = ONE
        if b:
            row[end] = s * b
        rows.append(row)
    costs = {j: v for j, v in enumerate(cost) if v}
    basis = [t + i for i in range(k)]
    if cols is None:
        held = {}
        for row in rows:
            for c in row:
                held[c] = held.get(c, 0) + 1
        for i, row in enumerate(rows):
            single = [c for c, v in row.items()
                      if c < t and held[c] == 1 and v > 0]
            if single:
                j = min(single)
                piv = row[j]
                rows[i] = row = {c: v / piv for c, v in row.items()}
                basis[i] = j
                f = costs.get(j, ZERO)
                for c, v in row.items():
                    w = costs.get(c, ZERO) - f * v
                    if w:
                        costs[c] = w
                    else:
                        costs.pop(c, None)
    phase1 = dict.fromkeys(range(t, end), ONE)
    for row, b in zip(rows, basis):
        if b >= t:
            for c, v in row.items():
                phase1[c] = phase1.get(c, ZERO) - v
    rows.append(costs)
    rows.append({c: v for c, v in phase1.items() if v})
    _fraction_pivot_loop(rows, basis, range(end) if cols is None else cols,
                         end)
    obj = rows.pop()
    if obj.get(end, ZERO) < 0:
        y = [s * (1 - obj.get(t + q, ZERO)) for q, s in enumerate(scale)]
        return {"status": "infeasible", "farkas": tuple(y)}

    # Pivot leftover artificials out wherever a real column is available;
    # rows that stay artificial-basic are identically zero on real
    # columns and inert from here on.
    for r in range(k):
        if basis[r] >= t:
            piv = min((j for j in rows[r] if j < t), default=None)
            if piv is not None:
                _fraction_pivot(rows, basis, r, piv)

    enter = _fraction_pivot_loop(rows, basis, range(t), end)
    obj = rows[-1]
    if enter is not None:
        ray = [ZERO] * t
        ray[enter] = ONE
        for row, b in zip(rows, basis):
            if b < t and enter in row:
                ray[b] = -row[enter]
        return {"status": "unbounded", "ray": tuple(ray)}
    x = [ZERO] * t
    for row, b in zip(rows, basis):
        if b < t:
            x[b] = row.get(end, ZERO)
    dual = [-s * obj.get(t + q, ZERO) for q, s in enumerate(scale)]
    return {"status": "optimal", "x": tuple(x), "value": -obj.get(end, ZERO),
            "dual": tuple(dual)}


def _fractions(scaled):
    den, ints = scaled
    return tuple(Fraction(v, den) for v in ints)


def _read_out(res):
    """An integer _solve result with each (den, ints) vector read out as
    Fractions, the form fraction_simplex returns."""
    return {key: value if key in ("status", "value") else _fractions(value)
            for key, value in res.items()}


def _typed(res):
    return {key: tuple((type(v), v) for v in value)
            if isinstance(value, tuple) else (type(value), value)
            for key, value in res.items()}


@contextmanager
def same_pivots():
    """Within the block, every lp_core._solve call is also solved by
    fraction_simplex, on the same system given as Fractions and the same
    phase-1 columns.  The two must pivot on the same (row, column) pairs
    in the same order, and their result dicts must be
    identical, entry types included, once the integer side's (den, ints)
    vectors are read out as Fractions.  Yields the list of the statuses
    compared so far."""
    global _fraction_pivot
    integer, integer_pivot = lp_core._solve, lp_core._pivot
    fraction_pivot = _fraction_pivot
    statuses = []
    steps = {integer_pivot: [], fraction_pivot: []}

    def logged(pivot):
        def step(*args):
            steps[pivot].append(args[-2:])
            pivot(*args)
        return step

    def both(a, b, cost, cols=None):
        for log in steps.values():
            log.clear()
        res = integer(a, b, cost, cols)
        den, rows = a
        expect = fraction_simplex(
            [[(c, Fraction(v, den)) for c, v in row] for row in rows],
            _fractions(b), _fractions(cost), cols)
        assert _typed(_read_out(res)) == _typed(expect), res
        assert steps[integer_pivot] == steps[fraction_pivot], res
        statuses.append(res["status"])
        return res

    lp_core._solve, lp_core._pivot = both, logged(integer_pivot)
    _fraction_pivot = logged(fraction_pivot)
    try:
        yield statuses
    finally:
        lp_core._solve, lp_core._pivot = integer, integer_pivot
        _fraction_pivot = fraction_pivot


def dense_system(coeffs, rhs, signs):
    """LinearSystem.of on dense rows, one entry per sign: each row is
    passed as the (column, coefficient) pairs of its nonzero entries."""
    if any(len(row) != len(signs) for row in coeffs):
        raise ValueError("ragged dense rows")
    return LinearSystem.of(
        [[(c, v) for c, v in enumerate(row) if v] for row in coeffs],
        rhs, signs)


def breaks_summed_identity(t, ac) -> bool:
    """Whether ac breaks the summed Gauss-Bonnet identity, over Fractions:
    on a table with no boundary face whose edge classes each list their
    corners all once or all twice (mult 1 or 2), the areas plus each
    (2 / mult) kappa against the sum of 4 / mult less 4n.  False where
    the identity is not stated."""
    if t.boundary_faces():
        return False
    lhs = sum(ac.area, Fraction(0))
    rhs = Fraction(-4 * t.tet_count)
    for e in t.edge_classes:
        mults = {e.corners.count(c) for c in e.corners}
        if len(mults) != 1:
            return False
        mult = mults.pop()
        lhs += Fraction(2, mult) * ac.curvature[e.index]
        rhs += Fraction(4, mult)
    return lhs != rhs


def summed_certificate(t, ac) -> tuple:
    """The Farkas vector of a target that breaks the summed identity, as
    Fractions over angle_system_dense's rows: 1 on each corner row,
    -2 on each edge row, -1 where the gluings fold the edge, 0 on each
    cap row, negated where its product with the rhs is negative."""
    folded = folded_tet_edges(t)
    y = [Fraction(1)] * (4 * t.tet_count)
    y += [Fraction(-1 if e.corners[0] in folded else -2)
          for e in t.edge_classes]
    rhs = angle_system_dense(t, ac, "semi")[1]
    y += [Fraction(0)] * (len(rhs) - len(y))
    if sum((a * b for a, b in zip(y, rhs)), Fraction(0)) < 0:
        y = [-v for v in y]
    return tuple(y)


def fraction_rows(sys) -> tuple:
    """Each row of a LinearSystem as the sorted (column, Fraction) pairs
    of its nonzeros, read off its int form."""
    den, rows = sys.scaled_rows
    return tuple(tuple((c, Fraction(v, den)) for c, v in row)
                 for row in rows)


def compatibility_rows(sys) -> tuple:
    """Each arc of a CompatibilitySystem as the sorted (column, int)
    pairs of its nonzeros: +1 at one side's quad and triangle, -1 at the
    other's, summed where both sides hit one column."""
    out = []
    for arc in sys.arcs:
        row = {}
        for c, a in zip(arc, (1, 1, -1, -1)):
            row[c] = row.get(c, 0) + a
        out.append(tuple(sorted((c, a) for c, a in row.items() if a)))
    return tuple(out)


def verify_certificate(sys, y) -> bool:
    """The Farkas sign conditions of lp_core.verify_certificate, with
    A^T y and y.b summed as Fractions: A^T y <= 0, and y.b > 0 or y.b = 0
    with A^T y < 0 on a column the system's signs make strict-pos."""
    if len(y) != sys.row_count:
        return False
    ydotb = sum((Fraction(a) * b for a, b in zip(y, sys.rhs)), Fraction(0))
    aty = [Fraction(0)] * sys.col_count
    for a, row in zip(y, fraction_rows(sys)):
        for c, v in row:
            aty[c] += Fraction(a) * v
    if any(w > 0 for w in aty):
        return False
    strict = [w for w, s in zip(aty, sys.signs) if s == STRICT_POS]
    return ydotb > 0 or (ydotb == 0 and any(w < 0 for w in strict))


CORNER_EDGES = tuple(tuple(k for k, ends in enumerate(EDGE_VERTICES)
                           if v in ends) for v in range(4))


def realized_data(t, alpha):
    """(areas, curvatures) of an assignment, summed as Fractions angle by
    angle: each corner's three angles minus 1, and 2 (1 on a boundary
    class) minus the angles around each edge class."""
    a = alpha.angles
    area = [sum((a[6 * i + k] for k in CORNER_EDGES[v]), Fraction(0)) - 1
            for i in range(t.tet_count) for v in range(4)]
    curvature = [(1 if e.is_boundary else 2) -
                 sum((a[6 * i + k] for i, k in e.corners), Fraction(0))
                 for e in t.edge_classes]
    return area, curvature


def flat_pair(t, alpha) -> bool:
    """Whether every triangle has negative area or angles exactly
    (0, 0, 1), read from realized_data's areas and the sorted angles."""
    area, _ = realized_data(t, alpha)
    return all(a < 0 or sorted(alpha.angles[6 * (c // 4) + k]
                               for k in CORNER_EDGES[c % 4]) == [0, 0, 1]
               for c, a in enumerate(area))


def quad_areas(alpha, n):
    """Per quad type, its tetrahedron's angle total minus the opposite
    pair it does not cross, minus 2 (the angles are in units of pi)."""
    areas = []
    for i in range(n):
        a = alpha.angles[6 * i:6 * i + 6]
        total = sum(a)
        areas.extend(total - a[p] - a[5 - p] - 2 for p in range(3))
    return areas


def quad_slice_max(t, alpha):
    """The raw maximum of the quad-area pairing over the quad slice
    (solution space, quads >= 0 summing to 1, triangles free), solved on
    the full compatibility rows: each triangle column becomes a pair of
    nonnegative columns, the second negated."""
    n = t.tet_count
    rows = [list(row) + [-v for v in row[3 * n:]]
            for row in t.compatibility_system.matrix]
    rows.append([Fraction(1)] * (3 * n) + [Fraction(0)] * (8 * n))
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
    cost = [-a for a in quad_areas(alpha, n)] + [Fraction(0)] * (8 * n)
    res = minimize_linear(cost, dense_system(rows, rhs,
                                             ["nonneg"] * (11 * n)))
    if not isinstance(res, Optimum):
        raise ValueError("quad-slice program %s" % type(res).__name__)
    return -res.value


def _triangles_first_echelon(sys) -> dict:
    """`_linalg.echelon` of the compatibility rows with the columns
    rotated so that the 4n triangles come first, then the 3n quads: a
    generic elimination that knows nothing of the vertex-link forest."""
    tris = 4 * sys.columns // 7
    return echelon({(c + tris) % sys.columns: v for c, v in row}
                   for row in compatibility_rows(sys))


def quad_rows(sys) -> tuple:
    """(rows, rank): the triangles-first echelon's quad-led rows, in the
    order found, each a dict over the quad columns, and its size."""
    tris = 4 * sys.columns // 7
    pivots = _triangles_first_echelon(sys)
    return ([{c - tris: v for c, v in row.items()}
             for lead, row in pivots.items() if lead >= tris],
            len(pivots))


def from_slice(sys, quads):
    """The coordinate with the given quads, its triangles solved from the
    triangles-first echelon's triangle-led rows over Fractions, last lead
    first, each divided by its lead, and 0 on unled columns: the
    coordinate that normal_coords._from_slice sets in ints along the
    vertex-link forest."""
    tris = 4 * sys.columns // 7
    pivots = _triangles_first_echelon(sys)
    x = [Fraction(0)] * tris + list(quads)
    for lead in sorted((l for l in pivots if l < tris), reverse=True):
        row = pivots[lead]
        x[lead] = -sum((v * x[c] for c, v in row.items() if c != lead),
                       Fraction(0)) / row[lead]
    return NormalCoordinate.from_vector(sys.columns // 7, x[tris:] + x[:tris])


def in_solution_space(t, s) -> bool:
    """Membership in the solution space, one Fraction product per nonzero
    of each compatibility row."""
    vec = s.quads + s.tris
    return all(sum((Fraction(a) * vec[c] for c, a in row), Fraction(0)) == 0
               for row in compatibility_rows(t.compatibility_system))


def crossing_weight(s, i: int, k: int) -> Fraction:
    """The total weight of the disk types of tetrahedron i that cross
    tet-edge k: the triangles at its two ends and the two quads that do
    not separate it."""
    u, v = EDGE_VERTICES[k]
    pair = min(k, 5 - k)
    return s.tris[4 * i + u] + s.tris[4 * i + v] + \
        sum(s.quads[3 * i + p] for p in range(3) if p != pair)


def edge_coefficient(s, e) -> Fraction:
    """The edge coefficient z_e: the crossing weights of e's distinct
    corners over twice the valence.

    In chi^(A,k) = (1/2) sum_t y_t A_t + sum_e z_e kappa_e, the angle at
    a corner (i, k) of e, of multiplicity mult in e.corners, has
    coefficient (y_u + y_v) / 2 - mult * z_e directly, u and v being the
    tet-edge's ends, since kappa_e subtracts that angle mult times.
    Through Lemma 2, chi* minus half the quad-area pairing, it has
    coefficient (y_u + y_v) / 2 - w / 2, w the corner's crossing weight,
    since each of the two quads that cross the tet-edge counts that
    angle in its area.  So mult * z_e = w / 2.  On the solution space every
    corner of e has one crossing weight, and a folded class lists each of
    its corners exactly twice, so z_e is the sum of w over the distinct
    corners over 2 * valence."""
    return sum((crossing_weight(s, i, k) for i, k in set(e.corners)),
               Fraction(0)) / (2 * e.valence)


def chi_star(t, s) -> Fraction:
    """chi* tet-edge by tet-edge: each of the 6n tet-edges adds its
    crossing weight over its class's valence, once, and each disk type
    its share of the faces and arcs."""
    valence = {corner: e.valence for e in t.edge_classes
               for corner in e.corners}
    total = Fraction(0)
    for i in range(t.tet_count):
        for k in range(6):
            total += crossing_weight(s, i, k) * Fraction(1, valence[(i, k)])
        boundary = [f for f in range(4) if t.gluing(i, f) is None]
        for p in range(3):
            total -= s.quads[3 * i + p] * Fraction(2 + len(boundary), 2)
        for l in range(4):
            b = sum(1 for f in boundary if f != l)
            total -= s.tris[4 * i + l] * Fraction(1 + b, 2)
    return total


def combine(basis, omega, z) -> list:
    """sum omega_i W_sigma_i + sum z_j W_e_j, entry by entry, one
    Fraction product per weight and entry."""
    vecs = [w.quads + w.tris for w in basis.w_sigma + basis.w_edge]
    weights = tuple(omega) + tuple(z)
    return [sum((c * w[col] for c, w in zip(weights, vecs)), ZERO)
            for col in range(len(vecs[0]))]


def decompose(t, s, basis):
    """(omega, z) over Fractions, None off the solution space: z is the
    edge coefficients of s, and omega the residual s - sum z_j W_e_j read
    at each tetrahedron's first triangle; the pair must recombine to s."""
    if not in_solution_space(t, s):
        return None
    z = tuple(edge_coefficient(s, e) for e in t.edge_classes)
    first = [3 * t.tet_count + 4 * i for i in range(t.tet_count)]
    vec = s.quads + s.tris
    edge = [w.quads + w.tris for w in basis.w_edge]
    omega = tuple(vec[c] - sum((x * w[c] for x, w in zip(z, edge)), ZERO)
                  for c in first)
    assert combine(basis, omega, z) == list(vec)
    return omega, z


def theorem3(t, alpha):
    """(coefficients, t_max, angles at t_max / 2) of the flat-to-strict
    move, over Fractions; None when an edge class has a zero or pi angle
    but no angle in (0, 1).  Around each edge class with m1 zero, n1 pi
    and k1 other angles, a zero angle moves by 1, a pi angle by -3 and
    any other by (3 n1 - m1) / k1.  t_max is the least bound that keeps
    every moving angle in [0, 1] and every corner whose area grows at or
    below area 0; 1 when nothing binds."""
    a = alpha.angles
    coeffs = [ZERO] * len(a)
    for e in t.edge_classes:
        around = [a[6 * i + k] for i, k in e.corners]
        m1, n1 = around.count(0), around.count(1)
        k1 = len(around) - m1 - n1
        if m1 + n1 and not k1:
            return None
        for i, k in e.corners:
            x = a[6 * i + k]
            if m1 + n1:
                coeffs[6 * i + k] = ONE if x == 0 else Fraction(-3) \
                    if x == 1 else Fraction(3 * n1 - m1, k1)
    area, _ = realized_data(t, alpha)
    bounds = [(1 - x) / c if c > 0 else x / -c for x, c in zip(a, coeffs)
              if c]
    for c, f in enumerate(area):
        i, v = divmod(c, 4)
        slope = sum(coeffs[6 * i + k] for k in CORNER_EDGES[v])
        if slope > 0:
            bounds.append(-f / slope)
    t_max = min(bounds, default=ONE)
    return coeffs, t_max, [x + c * t_max / 2 for x, c in zip(a, coeffs)]


def bf_feasible(sys) -> bool:
    """Sign-constrained feasibility by basic-solution enumeration."""
    return any(all(v >= 0 for v in x)
               for x in _basic_solutions(sys.coeffs, list(sys.rhs)))


def bf_minimize(objective, sys):
    """('infeasible', None) | ('unbounded', None) | ('optimal', value)."""
    coeffs = sys.coeffs
    cost = [Fraction(v) for v in objective]
    t = len(cost)
    feas = [x for x in _basic_solutions(coeffs, list(sys.rhs))
            if all(v >= 0 for v in x)]
    if not feas:
        return ("infeasible", None)
    hom = [list(row) for row in coeffs] + [[Fraction(1)] * t]
    hrhs = [Fraction(0)] * len(coeffs) + [Fraction(1)]
    for d in _basic_solutions(hom, hrhs):
        if all(v >= 0 for v in d) and \
                sum(cost[j] * d[j] for j in range(t)) < 0:
            return ("unbounded", None)
    best = min(sum(cost[j] * x[j] for j in range(t)) for x in feas)
    return ("optimal", best)


def bf_strict_feasible(sys) -> bool:
    """Strict feasibility of a bounded all-constrained system: the
    polytope is nonempty and every coordinate is positive at some basic
    feasible point.  Raises if the recession cone is nontrivial."""
    coeffs = [list(row) for row in sys.coeffs]
    t = sys.col_count
    hom = coeffs + [[Fraction(1)] * t]
    hrhs = [Fraction(0)] * len(coeffs) + [Fraction(1)]
    for d in _basic_solutions(hom, hrhs):
        if all(v >= 0 for v in d):
            raise ValueError("oracle requires a bounded polytope")
    feas = [x for x in _basic_solutions(coeffs, list(sys.rhs))
            if all(v >= 0 for v in x)]
    if not feas:
        return False
    return all(any(x[j] > 0 for x in feas) for j in range(t))


def link_euler_oracle(t, corners) -> int:
    """V - E + F of one vertex link, assembled from scratch.

    The link surface is pieced together from one small triangle per
    tetrahedron corner in the class.  Its faces are the corners, its
    edges are the corner-face arcs glued across face identifications,
    and its vertices are the corner-edge slots identified the same way;
    both identifications come straight from the gluing table, never from
    the package's class builders.
    """
    corner_set = set(corners)
    faces = len(corner_set)
    arc_uf = UnionFind()
    slot_uf = UnionFind()
    for i, v in corner_set:
        for f in range(4):
            if f != v:
                arc_uf.find((i, v, f))
        for k in range(6):
            if v in EDGE_VERTICES[k]:
                slot_uf.find((i, v, k))
    for (i, f), (j, g), perm in t.glued_pairs():
        for v in range(4):
            if v == f:
                continue
            arc_uf.union((i, v, f), (j, perm[v], g))
            for k in range(6):
                u, w = EDGE_VERTICES[k]
                if f in (u, w) or v not in (u, w):
                    continue
                k2 = EDGE_INDEX[(perm[u], perm[w])]
                slot_uf.union((i, v, k), (j, perm[v], k2))
    arcs = {arc_uf.find((i, v, f))
            for i, v in corner_set for f in range(4) if f != v}
    verts = {slot_uf.find((i, v, k))
             for i, v in corner_set for k in range(6)
             if v in EDGE_VERTICES[k]}
    return len(verts) - len(arcs) + faces


def _signed_clashes(links):
    """The nodes of signed links (a, b, sign) whose two signs a union-find
    over (node, +1) and (node, -1) pairs joins: each link ties (a, s) to
    (b, s * sign) for both s, and a clash spreads over its component."""
    uf = UnionFind()
    for a, b, sign in links:
        for s in (1, -1):
            uf.union((a, s), (b, s * sign))
    return {a for a, _ in list(uf.parent)
            if uf.find((a, 1)) == uf.find((a, -1))}


def orientable_oracle(t) -> bool:
    """Whether the tetrahedra can be oriented so that every gluing
    reverses orientation: a gluing ties tet j's orientation to tet i's,
    flipped by an even vertex permutation."""
    links = []
    for (i, _), (j, _), perm in t.glued_pairs():
        inversions = sum(1 for a, b in combinations(range(4), 2)
                         if perm[a] > perm[b])
        links.append((i, j, 1 if inversions % 2 else -1))
    return not _signed_clashes(links)


def _link_direction(v, a, b):
    """Direction of the link-triangle side {a, b} at vertex v, with the
    triangle oriented by the ascending cyclic order of the three labels
    other than v."""
    w = [x for x in range(4) if x != v]
    succ = {w[0]: w[1], w[1]: w[2], w[2]: w[0]}
    return (a, b) if succ[a] == b else (b, a)


def link_orientable_oracle(t, corners) -> bool:
    """Whether the link of the vertex class with these corners is
    orientable.  Two link triangles matched across a gluing agree when
    the glued side's direction in one maps to the reverse of its
    direction in the other."""
    links = []
    for (i, f), (j, g), perm in t.glued_pairs():
        for v in range(4):
            if v == f:
                continue
            a, b = (x for x in range(4) if x not in (f, v))
            p, q = _link_direction(v, a, b)
            r, s = _link_direction(perm[v], perm[a], perm[b])
            agree = (perm[p], perm[q]) == (s, r)
            links.append(((i, v), (j, perm[v]), 1 if agree else -1))
    return not (_signed_clashes(links) & set(corners))


def is_edge_walk(t, cls) -> bool:
    """Whether repeated _step from some state of the first corner reads
    off the class's corners in order: from an unglued face to an unglued
    face for a boundary class, and back to that state for the others."""
    i, k = cls.corners[0]
    for oriented in (EDGE_VERTICES[k], EDGE_VERTICES[k][::-1]):
        for enter, exit_face in (FACES_AT_EDGE[k], FACES_AT_EDGE[k][::-1]):
            if cls.is_boundary and t.gluing(i, enter) is not None:
                continue
            start = cur = (i, oriented, enter, exit_face)
            walked = [(i, k)]
            while len(walked) <= len(cls.corners) and \
                    t.gluing(cur[0], cur[3]) is not None:
                cur = _step(t, cur[0], cur[1], cur[3])
                if cur == start:
                    break
                walked.append((cur[0], EDGE_INDEX[cur[1]]))
            closed = t.gluing(cur[0], cur[3]) is not None
            if tuple(walked) == cls.corners and closed != cls.is_boundary:
                return True
    return False


def random_table(rng, n: int, unglued_pairs: int = 0):
    """Pair the 4n face slots at random, each pair glued by a random
    permutation carrying one face to the other; the first 2 *
    unglued_pairs slots of the shuffle stay boundary faces."""
    slots = [(i, f) for i in range(n) for f in range(4)]
    rng.shuffle(slots)
    gluings = {}
    skip = 2 * unglued_pairs
    for (i, f), (j, g) in zip(slots[skip::2], slots[skip + 1::2]):
        images = [w for w in range(4) if w != g]
        rng.shuffle(images)
        perm = [g] * 4
        for v, w in zip((v for v in range(4) if v != f), images):
            perm[v] = w
        gluings[(i, f)] = (j, g, tuple(perm))
    return Triangulation(n, gluings)


def relabel(t, order, perms):
    """t with tet i renamed order[i] and its vertex v renamed perms[i][v],
    and where each tet-edge and each corner goes.

    A gluing (i, f) -> (j, g, p) becomes (order[i], perms[i][f]) ->
    (order[j], perms[j][g], perms[j] . p . perms[i]^-1).  Tet-edge 6i + k,
    the edge (u, v) of tet i, goes to the edge (perms[i][u], perms[i][v])
    of tet order[i], and corner 4i + v to 4 order[i] + perms[i][v]: a
    vector over either is carried along by carry()."""
    gluings = {}
    for (i, f), (j, g), p in t.glued_pairs():
        back = inverse(perms[i])
        gluings[(order[i], perms[i][f])] = (
            order[j], perms[j][g], tuple(perms[j][p[back[w]]]
                                         for w in range(4)))
    edges, corners = {}, {}
    for i, (o, pi) in enumerate(zip(order, perms)):
        for k, (u, v) in enumerate(EDGE_VERTICES):
            edges[6 * i + k] = 6 * o + EDGE_INDEX[(pi[u], pi[v])]
        for v in range(4):
            corners[4 * i + v] = 4 * o + pi[v]
    return Triangulation(t.tet_count, gluings), edges, corners


def carry(values, index_map) -> tuple:
    """values moved along index_map: entry r goes to index_map[r]."""
    out = [None] * len(values)
    for r, v in enumerate(values):
        out[index_map[r]] = v
    return tuple(out)


def two_three(t, a: int, f: int):
    """The 2-3 move on face f of tet a, glued to a tet b other than a.

    a and b give way to three tets T_k = (N, S, x_{k+1}, x_{k+2}) around
    the new edge NS, N being a's vertex f, S b's vertex opposite the face
    and x_0 x_1 x_2 the face's vertices in a, indices mod 3.  T_k's face 2
    is glued to T_{k+1}'s face 3 by 0132.  The other tets keep their
    order, and T_0 T_1 T_2 come last.  Every old face slot but the two
    sides of face f goes to a new slot with a vertex map (new -> old):
    a's face opposite x_k is T_k's face 1, b's face opposite the image
    of x_k is T_k's face 0, and every other tet's slots stay as they
    are.  Each old gluing is re-glued through the maps at both its ends,
    so faces that a and b share, or a tet shares with itself, need no
    case of their own."""
    b, g, p = t.gluing(a, f)
    if b == a:
        raise ValueError("face (%d,%d) is glued to its own tet" % (a, f))
    rest = [i for i in range(t.tet_count) if i not in (a, b)]
    slot = {(i, e): (r, e, (0, 1, 2, 3)) for r, i in enumerate(rest)
            for e in range(4)}
    m = len(rest)
    x = [v for v in range(4) if v != f]
    for k in range(3):
        x0, x1, x2 = x[k], x[(k + 1) % 3], x[(k + 2) % 3]
        slot[(a, x0)] = (m + k, 1, (f, x0, x1, x2))
        slot[(b, p[x0])] = (m + k, 0, (p[x0], g, p[x1], p[x2]))
    gluings = {(m + k, 2): (m + (k + 1) % 3, 3, (0, 1, 3, 2))
               for k in range(3)}
    for (i, e), (j, h), q in t.glued_pairs():
        if (i, e) in ((a, f), (b, g)):
            continue
        s, d, phi = slot[(i, e)]
        s2, d2, psi = slot[(j, h)]
        back = inverse(psi)
        gluings[(s, d)] = (s2, d2, tuple(back[q[phi[v]]] for v in range(4)))
    return Triangulation(t.tet_count + 1, gluings)


def _one_torus_link(t) -> bool:
    """Whether every corner lies on one vertex, whose link is a closed
    orientable torus."""
    uf = UnionFind()
    for (i, f), (j, _), perm in t.glued_pairs():
        for v in range(4):
            if v != f:
                uf.union((i, v), (j, perm[v]))
    corners = [(i, v) for i in range(t.tet_count) for v in range(4)]
    return (len({uf.find(c) for c in corners}) == 1 and
            not t.boundary_faces() and
            link_euler_oracle(t, corners) == 0 and
            link_orientable_oracle(t, corners))


def two_three_walk(rng, moves: int) -> list:
    """fig8 and the table after each of moves random 2-3 moves.  Each
    move keeps M orientable, one vertex with a closed orientable torus
    link, edge classes minus tets and first homology, all read by the
    oracles here."""
    t = parse_triangulation(FIG8_TABLE)
    walk = [t]
    excess = len(union_find_edge_partition(t)) - t.tet_count
    h1 = h1_invariants(t)
    for _ in range(moves):
        faces = [(i, f) for i in range(t.tet_count) for f in range(4)
                 if t.gluing(i, f)[0] != i]
        t = two_three(t, *rng.choice(faces))
        assert orientable_oracle(t) and _one_torus_link(t)
        assert len(union_find_edge_partition(t)) - t.tet_count == excess
        assert h1_invariants(t) == h1
        walk.append(t)
    return walk
