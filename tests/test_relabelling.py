"""Every verdict is invariant under relabelling.

Renumbering the tetrahedra and each one's vertices (oracles.relabel)
changes the gluing table but not the space it glues, so no answer may
change: not the semi or strict verdict on a target carried along with
the table, refused or met (a target realized by a second draw of
angles is met in both modes), nor certify's verdict and optimum, nor
the edge and vertex classes, each matched to its image through a
corner.  Every certificate
found on the original table, its rows carried along, verifies on the
relabelled angle system, and so does every one found there.  Answers
only are compared, never pivots or certificate bytes: the simplex may
take another path through the relabelled system.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import oracles
from anglestruct import (AngleAssignment, AreaCurvature, Certificate,
                         angle_linear_system, certify_condition2,
                         find_angle_structure, find_semi_angle_structure,
                         fixture, fixture_names, realized_area_curvature,
                         verify_certificate)

FINDERS = {"semi": find_semi_angle_structure, "strict": find_angle_structure}


def _class_at(classes, width: int) -> dict:
    """Each corner's class index, keyed width * tet + corner: width is 6
    for edge classes, whose corners are tet-edges, and 4 for vertex
    classes."""
    return {width * i + k: c.index for c in classes for i, k in c.corners}


def _matched(classes, relabelled, index_map, width: int) -> list:
    """Each class's index in relabelled, found through its first corner."""
    at = _class_at(relabelled, width)
    return [at[index_map[width * i + k]]
            for i, k in (c.corners[0] for c in classes)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["closed", "boundary"])
def test_every_verdict_is_invariant_under_relabelling(kind, seed):
    # Angles in [1/36, 1/3], or from 0 on every other seed.
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    t = oracles.random_table(rng, n, rng.randint(1, 2) if kind == "boundary"
                             else 0)
    _check_relabelled(rng, t, AngleAssignment.from_vector(
        n, [F(rng.randint(seed % 2, 12), 36) for _ in range(6 * n)]))


@pytest.mark.parametrize("name", [name for name in fixture_names()
                                  if fixture(name).angles is not None])
def test_every_fixture_verdict_is_invariant_under_relabelling(name):
    # The fixtures add flat angles, 0 and pi, and certify's Fails.
    fx = fixture(name)
    _check_relabelled(random.Random(name), fx.triangulation, fx.angles)


def _check_relabelled(rng, t, alpha):
    n = t.tet_count
    order = rng.sample(range(n), n)
    perms = [tuple(rng.sample(range(4), 4)) for _ in range(n)]
    u, edges, corners = oracles.relabel(t, order, perms)

    classes = _matched(t.edge_classes, u.edge_classes, edges, 6)
    vertices = _matched(t.vertex_classes, u.vertex_classes, corners, 4)
    assert sorted(classes) == list(range(len(u.edge_classes)))
    assert sorted(vertices) == list(range(len(u.vertex_classes)))
    for e, j in zip(t.edge_classes, classes):
        assert (e.valence, e.is_boundary) == \
            (u.edge_classes[j].valence, u.edge_classes[j].is_boundary)
    for v, j in zip(t.vertex_classes, vertices):
        w = u.vertex_classes[j]
        assert (len(v.corners), v.link_euler, v.link_closed,
                v.link_orientable) == (len(w.corners), w.link_euler,
                                       w.link_closed, w.link_orientable)

    beta = AngleAssignment.from_vector(n, oracles.carry(alpha.angles, edges))
    held, moved = certify_condition2(t, alpha), certify_condition2(u, beta)
    assert type(held) is type(moved) and held.optimum == moved.optimum

    ac = realized_area_curvature(alpha, t)
    area = list(ac.area)
    area[rng.randrange(4 * n)] += F(rng.choice((-1, 1)), 36)
    # The moved curvature's class is the one through a tet-edge, and in
    # the relabelled table the one through that tet-edge's image.
    edge = rng.randrange(6 * n)
    curvature = list(ac.curvature)
    curvature[_class_at(t.edge_classes, 6)[edge]] += F(1, 36)
    # Moved to data realized by strict angles, the target stays feasible.
    second = realized_area_curvature(AngleAssignment.from_vector(
        n, [F(rng.randint(1, 12), 36) for _ in range(6 * n)]), t)
    for target in (ac, AreaCurvature.of(area, ac.curvature),
                   AreaCurvature.of(ac.area, curvature), second):
        carried = AreaCurvature.of(oracles.carry(target.area, corners),
                                   oracles.carry(target.curvature, classes))
        assert carried.curvature[_class_at(u.edge_classes, 6)[edges[edge]]] \
            == target.curvature[_class_at(t.edge_classes, 6)[edge]]
        for mode, finder in FINDERS.items():
            before, after = finder(t, target), finder(u, carried)
            assert type(before) is type(after), (mode, target)
            if target is second:
                assert isinstance(after, AngleAssignment)
                assert realized_area_curvature(after, u) == carried
            if isinstance(after, Certificate):
                # Rows: 4n corners, m edge classes, then 6n caps if any.
                m = len(classes)
                y = (oracles.carry(before.y[:4 * n], corners) +
                     oracles.carry(before.y[4 * n:4 * n + m], classes) +
                     oracles.carry(before.y[4 * n + m:], edges))
                system = angle_linear_system(u, carried, mode)
                assert verify_certificate(system, after.y)
                assert verify_certificate(system, y)
