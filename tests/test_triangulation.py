import itertools
import random
import re

import pytest

import oracles
from anglestruct import (Triangulation, TriangulationError,
                         build_edge_classes, build_vertex_classes,
                         fixture, fixture_names, format_triangulation,
                         insert_flat_tetrahedron, is_ideal_triangulation,
                         is_orientable, parse_triangulation)
from anglestruct.fixtures import FIG8_TABLE
from anglestruct.triangulation import (_INVERSE, _PARITY, _SPELLED,
                                       EDGE_VERTICES, EDGES_AT_VERTEX,
                                       MAX_TETS, compose, inverse,
                                       perm_parity)


def test_edge_tables_are_consistent():
    # the six tet edges, the opposite-edge pairing, and the three edges
    # meeting each vertex must all agree with each other
    for k, (u, v) in enumerate(EDGE_VERTICES):
        ou, ov = EDGE_VERTICES[5 - k]
        assert {u, v} | {ou, ov} == {0, 1, 2, 3}
    for vert in range(4):
        assert EDGES_AT_VERTEX[vert] == tuple(
            k for k, (u, v) in enumerate(EDGE_VERTICES) if vert in (u, v))


def test_parse_format_round_trip_on_fixtures():
    for name in fixture_names():
        t = fixture(name).triangulation
        again = parse_triangulation(format_triangulation(t))
        assert again == t and again.glued_pairs() == t.glued_pairs()
        assert again.tet_count == t.tet_count
        for i in range(t.tet_count):
            for f in range(4):
                assert again.gluing(i, f) == t.gluing(i, f)


@pytest.mark.parametrize("text,fragment", [
    ("", "missing 'tets N' header"),
    ("glue 0 0 1 0 0123", "line 1: expected 'tets N' header"),
    ("tets x", "line 1: bad tetrahedron count"),
    ("tets 1_0", "line 1: bad tetrahedron count"),
    ("tets \u0662", "line 1: bad tetrahedron count"),
    ("tets +2", "line 1: bad tetrahedron count"),
    ("tets 0", "line 1: need at least one"),
    ("tets 10001", "line 1: tetrahedron count 10001 exceeds 10000"),
    ("tets 1\nglue 0 0 0 1", "line 2: expected 'glue I F J G P'"),
    ("tets 1\nglue 0 0 0 q 0123", "line 2: bad index"),
    ("tets 1\nglue 0 0 0 0_1 1023", "line 2: bad index"),
    ("tets 1\nglue 0 0 0 1 0124", "line 2: bad permutation"),
    ("tets 2\nglue 0 0 1 0 0213\nglue 1 0 0 0 0312", "non-involutive"),
    ("tets 1\nglue 0 0 2 0 0213", "index 2 out of range"),
    ("tets 1\nglue 0 0 0 0 0213", "glued to itself"),
    ("tets 2\nglue 0 0 1 1 0123", "does not carry face 0 to face 1"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(TriangulationError) as err:
        parse_triangulation(text)
    # Each bad line is the last line of its text, and every error but
    # the missing header starts with that line's number.
    message = str(err.value)
    assert fragment in message
    assert not text or message.startswith(
        "line %d: " % len(text.splitlines()))


def test_parse_accepts_the_largest_tetrahedron_count():
    assert MAX_TETS == 10000
    assert parse_triangulation("tets 10000").tet_count == MAX_TETS


def test_edge_classes_match_union_find_on_every_fixture():
    for name in fixture_names():
        t = fixture(name).triangulation
        got = sorted(tuple(sorted(set(c.corners)))
                     for c in build_edge_classes(t))
        assert got == oracles.union_find_edge_partition(t), name


def test_edge_class_valences_and_invariants():
    expected = {
        "fig8": [6, 6],
        "one-tet": [1, 1, 1, 1, 1, 1],
        "fig8-flat1": [8, 10],
        "fig8-flat2": [10, 14],
    }
    for name, valences in expected.items():
        t = fixture(name).triangulation
        classes = build_edge_classes(t)
        assert sorted(len(c.corners) for c in classes) == valences
        # every corner of every tet appears exactly once across classes
        assert sum(len(c.corners) for c in classes) == 6 * t.tet_count
        assert all(not c.is_boundary for c in classes) or name == "one-tet"
    one = fixture("one-tet").triangulation
    assert all(c.is_boundary for c in build_edge_classes(one))


def test_vertex_classes_and_ideality():
    fig8 = fixture("fig8").triangulation
    (vc,) = build_vertex_classes(fig8)
    assert (vc.link_euler, vc.link_closed, vc.link_orientable) == (0, True, True)
    assert is_ideal_triangulation(fig8)

    one = fixture("one-tet").triangulation
    vcs = build_vertex_classes(one)
    assert [(v.link_euler, v.link_closed) for v in vcs] == [(1, False)] * 4
    assert not is_ideal_triangulation(one) and len(one.vertex_classes) == 4

    for name, euler in (("fig8-flat1", -2), ("fig8-flat2", -4)):
        t = fixture(name).triangulation
        (vc,) = build_vertex_classes(t)
        assert (vc.link_euler, vc.link_closed, vc.link_orientable) == \
            (euler, True, True)
        assert is_ideal_triangulation(t)

    # two unglued tets: eight disk links
    disjoint = Triangulation(2)
    assert sorted((v.link_euler, v.link_closed)
                  for v in build_vertex_classes(disjoint)) == \
        [(1, False)] * 8


def test_constructor_refuses_a_face_out_of_range():
    with pytest.raises(TriangulationError, match="face index 4 out of range"):
        Triangulation(1, {(0, 4): (0, 1, (0, 1, 2, 3))})


def test_equality_reads_the_gluings_alone():
    t = parse_triangulation(FIG8_TABLE, name="fig8")
    one_way = {(i, f): (j, g, perm) for (i, f), (j, g), perm
               in t.glued_pairs()}
    both_ways = dict(one_way)
    for (i, f), (j, g, perm) in one_way.items():
        both_ways[(j, g)] = (i, f, tuple(perm.index(k) for k in range(4)))
    assert len(both_ways) == 2 * len(one_way)
    assert Triangulation(2, one_way, name="a") == t
    assert Triangulation(2, both_ways, name="b") == t
    assert Triangulation(2, one_way) == Triangulation(2, both_ways)
    bad = FIG8_TABLE.replace("glue 0 0 1 0 0123", "glue 0 0 1 0 0132")
    assert bad != FIG8_TABLE
    assert parse_triangulation(bad, name="fig8") != t
    assert Triangulation(1) != Triangulation(2)
    assert t != object()
    assert t != FIG8_TABLE


def test_equal_tables_hash_equal():
    # A triangulation hashes the way it compares, by its tet count and
    # gluing table and not by its name, so equal tables built one way,
    # both ways or by parsing collapse in a set; the hash is not kept,
    # since the parser fills the table after construction.
    t = parse_triangulation(FIG8_TABLE, name="fig8")
    one_way = {(i, f): (j, g, perm) for (i, f), (j, g), perm
               in t.glued_pairs()}
    built = [t, Triangulation(2, one_way, name="a"),
             Triangulation(2, t._gluing, name="b"),
             parse_triangulation(FIG8_TABLE), fixture("fig8").triangulation]
    assert len({hash(x) for x in built}) == 1
    assert len(set(built)) == 1
    bad = FIG8_TABLE.replace("glue 0 0 1 0 0123", "glue 0 0 1 0 0132")
    assert len({t, parse_triangulation(bad), Triangulation(2),
                Triangulation(1)}) == 4
    assert len(set(map(fixture, fixture_names()))) == len(fixture_names())


def test_orientability():
    assert is_orientable(fixture("fig8").triangulation)
    assert is_orientable(fixture("one-tet").triangulation)
    # flipping the parity of one gluing in a triangulation whose dual
    # graph has cycles through it makes some cycle orientation-reversing
    bad = FIG8_TABLE.replace("glue 0 0 1 0 0123", "glue 0 0 1 0 0132")
    assert not is_orientable(parse_triangulation(bad))


def test_first_homology_pins_the_gluing_tables():
    # the dual-spine Smith oracle separates this table from any sibling
    # with the same edge valences but different topology
    assert oracles.h1_invariants(fixture("fig8").triangulation) == (1, [])
    assert oracles.h1_invariants(fixture("fig8-flat1").triangulation) == (2, [])
    assert oracles.h1_invariants(fixture("fig8-flat2").triangulation) == (3, [])


def test_insert_flat_tetrahedron_frozen_gluings():
    fig8 = fixture("fig8").triangulation
    t2, flat = insert_flat_tetrahedron(fig8, (0, 0), (1, 0), (0, 1, 3, 2))
    assert t2.tet_count == 3
    assert flat.tet == 2
    # the creases run along tet-edges 0 and 5: the stored flat angles put
    # pi there and 0 on the other four edges of the inserted tetrahedron
    flat1 = fixture("fig8-flat1").angles.angles
    assert flat1[12:18] == (1, 0, 0, 0, 0, 1)
    assert t2.gluing(0, 0) == (2, 3, (3, 0, 1, 2))
    assert t2.gluing(1, 0) == (2, 2, (2, 1, 3, 0))
    # the squashed tet folds onto itself across its two front faces
    assert t2.gluing(2, 0) == (2, 1, (1, 3, 0, 2))
    assert t2.boundary_faces() == fig8.boundary_faces() == ()
    # all other gluings are untouched
    for i in range(2):
        for f in range(1, 4):
            assert t2.gluing(i, f) == fig8.gluing(i, f)


def test_insert_flat_tetrahedron_errors():
    fig8 = fixture("fig8").triangulation
    with pytest.raises(TriangulationError,
                       match="neither glued to each other nor both boundary"):
        insert_flat_tetrahedron(fig8, (0, 1), (1, 0), (1, 0, 2, 3))
    with pytest.raises(TriangulationError, match="not a permutation"):
        insert_flat_tetrahedron(fig8, (0, 0), (1, 0), (0, 1, 2, 2))
    with pytest.raises(TriangulationError,
                       match="does not carry face 0 to face 0"):
        insert_flat_tetrahedron(fig8, (0, 0), (1, 0), (1, 2, 3, 0))
    with pytest.raises(TriangulationError,
                       match="cannot insert at a single face"):
        insert_flat_tetrahedron(fig8, (0, 0), (0, 0), (0, 1, 2, 3))
    # A face that is no (tet, face) pair, or a matching that is no
    # sequence, is refused by name, not by a bare unpacking error.
    with pytest.raises(TriangulationError, match=re.escape(
            "malformed faces 5 and (1, 0)")):
        insert_flat_tetrahedron(fig8, 5, (1, 0), (0, 1, 3, 2))
    with pytest.raises(TriangulationError, match=re.escape(
            "malformed faces (0,) and (1, 0)")):
        insert_flat_tetrahedron(fig8, (0,), (1, 0), (0, 1, 3, 2))
    with pytest.raises(TriangulationError,
                       match="not a permutation of 0123: 7$"):
        insert_flat_tetrahedron(fig8, (0, 0), (1, 0), 7)


@pytest.mark.parametrize("key,value", [
    ((0, 0), (0, 1)), ((0, 0), (0, 1, (0, 1, 2, 3), 4)),
    ((0, 0, 1), (0, 1, (1, 0, 2, 3))), (0, (0, 1, (1, 0, 2, 3))),
    ((0, 0), 5), ((0, 0), None)])
def test_malformed_gluing_entries_are_refused(key, value):
    # A gluing entry is a (tet, face) key and a (tet, face, perm) value;
    # one of another shape is refused by name, not by a bare unpack error,
    # and so is a table that is neither a mapping nor a list of pairs.
    with pytest.raises(TriangulationError, match=re.escape(
            "malformed gluing entry %r: %r" % (key, value))):
        Triangulation(2, {key: value})
    for table in (5, "ab"):
        with pytest.raises(TriangulationError, match=re.escape(
                "malformed gluing table %r" % (table,))):
            Triangulation(1, table)


def test_face_slots_that_do_not_exist_are_refused():
    fig8 = fixture("fig8").triangulation
    one = fixture("one-tet").triangulation
    with pytest.raises(TriangulationError, match="face index 4 out of range"):
        insert_flat_tetrahedron(fig8, (0, 4), (1, 0), (0, 1, 2, 3))
    with pytest.raises(TriangulationError,
                       match="face index -1 out of range"):
        insert_flat_tetrahedron(fig8, (0, -1), (1, 0), (0, 1, 2, 3))
    # tetrahedron 1 is the number the inserted one would take
    with pytest.raises(TriangulationError,
                       match="tetrahedron index 1 out of range"):
        insert_flat_tetrahedron(one, (0, 0), (1, 1), (1, 0, 2, 3))
    with pytest.raises(TriangulationError,
                       match="tetrahedron index 7 out of range"):
        fig8.gluing(7, 0)
    with pytest.raises(TriangulationError,
                       match="face index -1 out of range"):
        fig8.gluing(0, -1)
    # True and 0.0 hash like 1 and 0, so a bare lookup would answer.
    with pytest.raises(TriangulationError, match="tetrahedron index True"):
        fig8.gluing(True, 0)
    with pytest.raises(TriangulationError, match="face index 1.0"):
        fig8.gluing(0, 1.0)
    assert one.gluing(0, 3) is None


def test_insert_flat_tetrahedron_between_boundary_faces():
    one = fixture("one-tet").triangulation
    t2, flat = insert_flat_tetrahedron(one, (0, 0), (0, 1), (1, 0, 2, 3))
    assert t2.tet_count == 2 and flat.tet == 1
    assert t2.gluing(0, 0) is not None and t2.gluing(0, 1) is not None
    assert len(t2.boundary_faces()) == 2


def test_repeated_insertion_matches_the_flat2_fixture():
    t2 = fixture("fig8-flat2").triangulation
    classes = build_edge_classes(t2)
    assert sorted(len(c.corners) for c in classes) == [10, 14]
    assert is_orientable(t2) and is_ideal_triangulation(t2)


def test_random_tables_round_trip(tmp_path):
    rng = random.Random(99)
    for trial in range(10):
        n = rng.randint(1, 4)
        t = Triangulation(n)
        text = format_triangulation(t)
        assert parse_triangulation(text).tet_count == n


def test_klein_bottle_vertex_link():
    # One tetrahedron with two self-gluings: its single vertex class has
    # a closed link of Euler characteristic 0 that is not orientable.
    t = parse_triangulation("tets 1\nglue 0 0 0 2 2013\nglue 0 1 0 3 0312\n")
    (vc,) = build_vertex_classes(t)
    assert (vc.link_euler, vc.link_closed, vc.link_orientable) == \
        (0, True, False)
    assert not is_orientable(t)


@pytest.mark.parametrize("args,fragment", [
    ((1, {(0, 0): (0, 1, (True, False, 2, 3))}), "not a permutation"),
    ((1, {(0, 0): (0, 1, (1.0, 0, 2, 3))}), "not a permutation"),
    ((1, {(0, 0): (0, 1, (1, 0, 2, 3.0))}), "not a permutation"),
    ((1, {(0, 0.0): (0, 1, (1, 0, 2, 3))}), "face index 0.0"),
    ((1, {(0, 0): (0, 1.0, (1, 0, 2, 3))}), "face index 1.0"),
    ((1, {(0, True): (0, 0, (1, 0, 2, 3))}), "face index True"),
    ((1, {(0.0, 0): (0, 1, (1, 0, 2, 3))}), "tetrahedron index 0.0"),
    ((2, {(0, 0): (True, 1, (0, 1, 2, 3))}), "tetrahedron index True"),
    ((2.0,), "bad tetrahedron count 2.0"),
    ((True,), "bad tetrahedron count True"),
])
def test_constructor_refuses_entries_that_are_not_ints(args, fragment):
    # A bool or a float compares and hashes like the int it equals, so
    # each would slip past a range check or a lookup; each is refused by
    # name before it can be stored, written out or indexed with.  The
    # fixtures still round-trip (test_parse_format_round_trip_on_fixtures).
    with pytest.raises(TriangulationError, match=fragment):
        Triangulation(*args)


def test_permutation_tables_agree_with_their_definitions():
    # Each of the 24 entries is its inverse, its parity (-1 to the power
    # 4 minus its cycle count) and its spelling.
    perms = list(itertools.permutations(range(4)))
    assert sorted(_INVERSE) == sorted(_PARITY) == perms
    assert sorted(_SPELLED.values()) == perms
    for p in perms:
        assert _INVERSE[p] == inverse(p)
        assert compose(p, _INVERSE[p]) == (0, 1, 2, 3)
        seen, count = set(), 0
        for x in range(4):
            count += x not in seen
            while x not in seen:
                seen.add(x)
                x = p[x]
        assert _PARITY[p] == perm_parity(p) == (-1) ** (4 - count)
        assert _SPELLED["".join(str(x) for x in p)] == p


def test_parse_refuses_every_spelling_that_is_not_a_permutation():
    spellings = ["".join(w) for w in itertools.product("0123", repeat=4)
                 if len(set(w)) < 4]
    assert len(spellings) == 232
    for spelling in spellings + ["012", "01234", "0\u066123"]:
        with pytest.raises(TriangulationError,
                           match="^line 2: bad permutation") as err:
            parse_triangulation("tets 1\nglue 0 0 0 1 %s\n" % spelling)
        assert repr(spelling) in str(err.value)
