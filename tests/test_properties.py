"""Property tests over generated gluing tables of 1-4 tetrahedra.

Each table pairs the 4n face slots at random and glues each pair by a
random permutation carrying one face to the other, so folded edges,
self-glued tetrahedra and non-manifold vertex links all occur.  Up to
two of the pairs are then left unglued, which gives boundary faces.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from anglestruct import (AngleAssignment, BasisVerificationError,
                         Triangulation, chi_area_curvature, chi_via_lemma2,
                         combine, compatibility_system, decompose,
                         realized_area_curvature, solution_space_basis)


@st.composite
def gluing_tables(draw):
    n = draw(st.integers(1, 4))
    slots = draw(st.permutations([(i, f) for i in range(n)
                                  for f in range(4)]))
    unglued = 2 * draw(st.integers(0, 2))
    gluings = {}
    for (i, f), (j, g) in zip(slots[unglued::2], slots[unglued + 1::2]):
        images = draw(st.permutations([w for w in range(4) if w != g]))
        perm = [g] * 4
        for v, w in zip((v for v in range(4) if v != f), images):
            perm[v] = w
        gluings[(i, f)] = (j, g, tuple(perm))
    return Triangulation(n, gluings)


def rationals(count):
    return st.lists(st.builds(Fraction, st.integers(-6, 6),
                              st.integers(1, 4)),
                    min_size=count, max_size=count).map(tuple)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_combinatorics_basis_and_chi_on_generated_tables(data):
    t = data.draw(gluing_tables())
    n = t.tet_count
    # A folded edge passes a corner twice and counts it twice.
    folded = [c for e in t.edge_classes for c in set(e.corners)
              if e.corners.count(c) == 2]
    assert sum(e.valence for e in t.edge_classes) == 6 * n + len(folded)
    assert bool(folded) == oracles.has_folded_edge(t)
    assert sorted(tuple(sorted(set(e.corners))) for e in t.edge_classes) \
        == oracles.union_find_edge_partition(t)
    corners = sorted(c for v in t.vertex_classes for c in v.corners)
    assert corners == [(i, v) for i in range(n) for v in range(4)]

    csys = t.compatibility_system
    assert csys == compatibility_system(t)
    assert len(csys.rows) == 3 * len(t.glued_pairs())
    for row, dense in zip(csys.rows, csys.matrix):
        assert dict(row) == {c: v for c, v in enumerate(dense) if v}
    assert csys.rank == oracles._rank(csys.matrix)
    if t.boundary_faces():
        return

    try:
        basis = solution_space_basis(t)
    except BasisVerificationError:
        assert oracles.has_folded_edge(t)
        return
    omega = data.draw(rationals(n))
    z = data.draw(rationals(len(t.edge_classes)))
    s = combine(basis, omega, z)
    assert decompose(t, s, basis) == (omega, z)
    angles = data.draw(st.lists(st.integers(0, 36), min_size=6 * n,
                                max_size=6 * n))
    alpha = AngleAssignment.from_vector(n, [Fraction(a, 36)
                                            for a in angles])
    ac = realized_area_curvature(alpha, t)
    assert chi_area_curvature(t, s, ac) == chi_via_lemma2(t, s, alpha)
