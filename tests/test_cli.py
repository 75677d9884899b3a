"""Command-line behavior: reports, exit codes, and determinism.

Commands run in process through main(argv); the byte-for-byte rerun
guarantee across separate processes is exercised by the acceptance
suite.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anglestruct._rational import parse_scaled, unscaled
from anglestruct import _rational, cli
from anglestruct.angle_structures import (
    AngleAssignment,
    AreaCurvature,
    ac_from_json,
    ac_to_json,
    angle_vector_from_json,
    realized_area_curvature,
)
from anglestruct.cli import main
from anglestruct.fixtures import fixture, fixture_names
from anglestruct.normal_coords import NormalCoordinate, is_in_solution_space
from anglestruct.triangulation import (TriangulationError,
                                       parse_triangulation)
from oracles import parse_rational


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(capsys, tmp_path, name):
    code, _, _ = run(capsys, ["fixtures", name, str(tmp_path)])
    assert code == 0
    return {
        "tri": str(tmp_path / ("%s.tri" % name)),
        "angles": str(tmp_path / ("%s.angles.json" % name)),
        "ac": str(tmp_path / ("%s.ac.json" % name)),
    }


def test_fixtures_list(capsys):
    code, out, err = run(capsys, ["fixtures", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["available"] == list(fixture_names())
    assert "elapsed:" in err


def test_fixtures_writes_round_trippable_files(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    fx = fixture("fig8")
    with open(paths["tri"], encoding="utf-8") as fh:
        parsed = parse_triangulation(fh.read(), name="fig8")
    assert parsed.glued_pairs() == fx.triangulation.glued_pairs()
    with open(paths["angles"], encoding="utf-8") as fh:
        assert AngleAssignment.from_vector(
            fx.triangulation.tet_count,
            unscaled(*angle_vector_from_json(json.load(fh)))) == fx.angles
    with open(paths["ac"], encoding="utf-8") as fh:
        assert ac_from_json(json.load(fh)) == fx.ac


def test_fixtures_without_angles_writes_table_and_target_only(capsys,
                                                              tmp_path):
    code, out, _ = run(capsys, ["fixtures", "fig8-infeasible",
                                str(tmp_path), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["files"] == ["fig8-infeasible.tri", "fig8-infeasible.ac.json"]


# The sha256 of every file `fixtures NAME DIR` writes, and the
# description its report gives, for each bundled fixture.
FIXTURE_GOLDEN = {
    "fig8": (
        "figure-eight knot complement; all-pi/3 realizes (A, kappa) = "
        "(0, 0)",
        {"fig8.tri": "ba0d85431d31d798e5c3965b418a6e55"
                     "2accf75bf4364eca6fe91aae02e19118",
         "fig8.angles.json": "efac24c559c7abaca461ebde3f777ae0"
                             "fe02c38e7d96779b6d57617b7e60abc3",
         "fig8.ac.json": "043dab2537998b6362768a7649c3adf4"
                         "72c82b508cd5b9d6f0476778087d59cb"}),
    "one-tet": (
        "a single unglued tetrahedron (boundary everywhere)",
        {"one-tet.tri": "01e8863187837d9e970392ff6f7e2236"
                        "466d8faab5d15f85bb25a458005716ed",
         "one-tet.angles.json": "8426e6e16b16702eaa08d530fff20da6"
                                "8d3ef94ded4fb8852b8a30dc83ec239e",
         "one-tet.ac.json": "c887019dffc5684225372c39b6d070c7"
                            "669fecfb2c0416cbe1c7a56e5edca69c"}),
    "fig8-flat1": (
        "fig8 with one flat tetrahedron inserted; flat semi assignment "
        "(hosts pi/6, flat pattern on the insert)",
        {"fig8-flat1.tri": "9cc2ac2a1bacbe3e7b5c35ceb724f2e2"
                           "9f5ef9f5a3a93c43af497784ee9c185b",
         "fig8-flat1.angles.json": "129d521f4a461f28aa5465d3a12093e5"
                                   "51158ee0025e9757f90f1009bc672e1b",
         "fig8-flat1.ac.json": "e3b437bc7bbeba492e9ee2cc15967b61"
                               "38dc19021ff32d80fa76e1db4fe8e89c"}),
    "fig8-flat2": (
        "fig8 with two stacked flat tetrahedra; flat semi assignment",
        {"fig8-flat2.tri": "16e1fcb916340832fe65603cce4523a4"
                           "a92b831d6aa0041d9cbddb6d25c03e72",
         "fig8-flat2.angles.json": "a68c955f5e99ae85b813e5f04805996f"
                                   "5bb55960df74f1abd9d3f370c526781b",
         "fig8-flat2.ac.json": "af78176b6df527256b5fc778be670cbc"
                               "73ee4c8c6daee6dac3aac46538df800a"}),
    "fig8-qzero": (
        "fig8 with all angles pi/2: every quad area is zero, so the "
        "quad-slice certification fails with a witness",
        {"fig8-qzero.tri": "ba0d85431d31d798e5c3965b418a6e55"
                           "2accf75bf4364eca6fe91aae02e19118",
         "fig8-qzero.angles.json": "022330674c3e1bd9b0096e91dcda663b"
                                   "007eeb1c320cd1693383a797fb344b11",
         "fig8-qzero.ac.json": "af41a629426921ff47facafc5e480f56"
                               "81e7b857e36fdcbcb863f07ec532b48a"}),
    "fig8-infeasible": (
        "fig8 with target A = 0, kappa = 2 pi on both edges; no semi "
        "assignment exists and the solvers emit certificates",
        {"fig8-infeasible.tri": "ba0d85431d31d798e5c3965b418a6e55"
                                "2accf75bf4364eca6fe91aae02e19118",
         "fig8-infeasible.ac.json": "2f0790cb2fbdd2fbc5b39354db70608c"
                                    "84420ebba66741d28383bb0df1fb743d"}),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_GOLDEN))
def test_fixture_files_and_descriptions_are_pinned(capsys, tmp_path, name):
    description, digests = FIXTURE_GOLDEN[name]
    code, out, _ = run(capsys, ["fixtures", name, str(tmp_path), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["description"] == description
    assert sorted(rep["files"]) == sorted(digests)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == digests


def test_fixtures_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, ["fixtures", "no-such-fixture"])
    assert code == 2
    assert "error:" in err and "unknown fixture" in err


def test_validate_summary(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["validate", paths["tri"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "v1"
    assert rep["exit_code"] == 0
    assert rep["tet_count"] == 2
    assert rep["boundary_face_count"] == 0
    assert rep["orientable"] is True
    assert rep["ideal"] is True
    assert [e["valence"] for e in rep["edge_classes"]] == [6, 6]
    assert [v["link_euler"] for v in rep["vertex_classes"]] == [0]
    assert rep["inputs"]["triangulation"]["path"] == "fig8.tri"
    assert len(rep["inputs"]["triangulation"]["sha256"]) == 64


def test_validate_human_readable_lines(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["validate", paths["tri"]])
    assert code == 0
    assert "valid triangulation: 2 tetrahedra" in out
    assert "valence 6" in out


def test_validate_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["validate", str(tmp_path / "absent.tri")])
    assert code == 1
    assert "error:" in err


def test_validate_unparseable_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tets x\n", encoding="utf-8")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert "bad tetrahedron count" in err


def test_validate_gluing_error_names_its_line(capsys, tmp_path):
    bad = tmp_path / "x.tri"
    bad.write_text("tets 2\nglue 5 0 1 0 0123\n", encoding="utf-8")
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == \
        "error: %s: line 2: tetrahedron index 5 out of range" % bad


def test_validate_refuses_a_tetrahedron_count_past_the_bound(capsys,
                                                            tmp_path):
    # 14 bytes that would ask for about 130 GB of tetrahedra.
    big = tmp_path / "big.tri"
    big.write_text("tets 10000000\n", encoding="utf-8")
    assert big.stat().st_size == 14
    # The parser is asked first: without the bound, validate would go on
    # to build the ten million tetrahedra.
    with pytest.raises(TriangulationError):
        parse_triangulation(big.read_text(encoding="utf-8"))
    code, out, err = run(capsys, ["validate", str(big)])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[0] == \
        "error: %s: line 1: tetrahedron count 10000000 exceeds 10000" % big


@pytest.mark.parametrize("text,line,message", [
    ("tets 1_0\n", 1, "bad tetrahedron count '1_0'"),
    ("tets 1\nglue 0 0 0 \u0661 1023\n", 2, "bad index"),
    # int() refuses more than 4300 digits with a plain ValueError
    pytest.param("tets %s\n" % ("9" * 5000), 1, "number too long",
                 id="tets-5000-digits"),
    pytest.param("tets 1\nglue 0 0 %s 0 1023\n" % ("9" * 5000), 2,
                 "number too long", id="glue-5000-digits"),
])
def test_validate_rejects_non_ascii_digit_numbers(capsys, tmp_path, text,
                                                   line, message):
    bad = tmp_path / "digits.tri"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == \
        "error: %s: line %d: %s" % (bad, line, message)


def test_validate_non_utf8_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "binary.tri"
    bad.write_bytes(b"\xff\xfe\x00tets")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert "not a UTF-8 text file" in err


def test_analyze_report(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["analyze", paths["tri"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["compatibility"] == {"rows": 12, "columns": 14,
                                    "solution_space_dim": 4}
    assert rep["canonical_basis_available"] is True
    assert rep["canonical_basis"] == {"tetrahedral": 2, "edge": 2}
    assert rep["vertex_linking_classes"] == [
        {"chi_star": "0/1", "link_euler": 0, "vertex_class": 0}]


def test_analyze_with_boundary_builds_canonical_basis(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "one-tet")
    code, out, _ = run(capsys, ["analyze", paths["tri"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["canonical_basis_available"] is True
    assert rep["canonical_basis"] == {"tetrahedral": 1, "edge": 6}
    assert len(rep["vertex_linking_classes"]) == 4
    for entry in rep["vertex_linking_classes"]:
        assert entry["chi_star"] == "1/1"
        assert entry["link_euler"] == 1


def test_analyze_builds_the_basis_on_a_folded_table(capsys, tmp_path):
    # One tetrahedron, faces glued in two pairs, one edge class folded
    # onto itself: z counts its corners once, so the basis verifies.
    tri = tmp_path / "folded.tri"
    tri.write_text("tets 1\nglue 0 0 0 3 3120\nglue 0 1 0 2 0231\n",
                   encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", str(tri), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["canonical_basis"] == {"tetrahedral": 1, "edge": 2}
    assert rep["compatibility"]["solution_space_dim"] == 3


def test_each_command_derives_only_what_its_report_reads(capsys, tmp_path,
                                                         monkeypatch):
    # Counted, not timed, on fig8: certify checks an angle vector's size
    # from the tetrahedron count alone and walks no edge class; validate
    # and analyze walk them once.  Each sorts the glued pairs once, though
    # analyze's vertex classes, orientability and compatibility system
    # all read them.
    from functools import cached_property

    from anglestruct import triangulation
    paths = write_fixture(capsys, tmp_path, "fig8")
    walks, sorts = [], []
    build = triangulation.build_edge_classes
    pairs = triangulation.Triangulation.__dict__["_glued_pairs"].func

    def counted_build(t):
        walks.append(t.name)
        return build(t)

    def counted_pairs(t):
        sorts.append(t.name)
        return pairs(t)

    counted = cached_property(counted_pairs)
    counted.__set_name__(triangulation.Triangulation, "_glued_pairs")
    monkeypatch.setattr(triangulation, "build_edge_classes", counted_build)
    monkeypatch.setattr(triangulation.Triangulation, "_glued_pairs", counted)
    for argv, builds in ((["certify", paths["tri"], paths["angles"]], 0),
                         (["validate", paths["tri"]], 1),
                         (["analyze", paths["tri"]], 1)):
        walks.clear()
        sorts.clear()
        assert run(capsys, argv + ["--json"])[0] == 0, argv
        assert len(walks) == builds, argv
        assert sorts == ["fig8"], argv


def assert_realized_recomputes(paths, rep):
    """The report's realized data, recomputed from its own assignment,
    equals both the report's field and the target file."""
    with open(paths["tri"], encoding="utf-8") as fh:
        t = parse_triangulation(fh.read(), name="fig8")
    alpha = AngleAssignment.from_vector(
        t.tet_count, unscaled(*angle_vector_from_json(rep["assignment"])))
    recomputed = ac_to_json(realized_area_curvature(alpha, t))
    with open(paths["ac"], encoding="utf-8") as fh:
        target = json.load(fh)
    assert recomputed == rep["realized"] == target


def test_solve_strict_on_realizable_target(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["solve", paths["tri"], paths["ac"],
                                "--mode", "strict", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "assignment"
    assert rep["classification"] == "strict"
    assert_realized_recomputes(paths, rep)
    assert len(rep["assignment"]["angles"]) == 12


def test_solve_semi_mode(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["solve", paths["tri"], paths["ac"],
                                "--mode", "semi", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "semi"
    assert rep["result"] == "assignment"
    assert rep["classification"] in ("semi", "strict")
    assert_realized_recomputes(paths, rep)


def test_solve_infeasible_target_is_still_a_decision(capsys, tmp_path):
    write_fixture(capsys, tmp_path, "fig8")
    paths = write_fixture(capsys, tmp_path, "fig8-infeasible")
    for mode in ("semi", "strict"):
        code, out, _ = run(capsys, ["solve",
                                    str(tmp_path / "fig8.tri"),
                                    paths["ac"], "--mode", mode, "--json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["result"] == "certificate"
        assert rep["certificate"]["verified"] is True
        assert len(rep["certificate"]["y"]) > 0


def test_solve_dimension_mismatch_is_usage_error(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    onetet = write_fixture(capsys, tmp_path, "one-tet")
    code, _, err = run(capsys, ["solve", paths["tri"], onetet["ac"]])
    assert code == 2
    assert "error:" in err


def test_certify_holds_on_uniform_angles(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["certify", paths["tri"], paths["angles"],
                                "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "holds"
    assert rep["optimum"] == "-1/3"
    assert rep["vacuous"] is False


def test_certify_fails_with_witness_on_zero_quad_areas(capsys, tmp_path):
    fig8 = write_fixture(capsys, tmp_path, "fig8")
    qzero = write_fixture(capsys, tmp_path, "fig8-qzero")
    code, out, _ = run(capsys, ["certify", fig8["tri"], qzero["angles"],
                                "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "fails"
    assert rep["optimum"] == "0/1"
    # The optimum is 0 on the whole slice, so the vertex returned is the
    # one the pivot order reaches first; pin it, and check it is on the
    # slice and in the solution space.
    assert rep["witness"]["quads"] == ["1/3"] * 3 + ["0/1"] * 3
    assert rep["witness"]["tris"] == ["-1/3"] * 4 + ["0/1"] * 4
    quads = [Fraction(v) for v in rep["witness"]["quads"]]
    tris = [Fraction(v) for v in rep["witness"]["tris"]]
    assert all(v >= 0 for v in quads) and sum(quads) == 1
    t = fixture("fig8").triangulation
    assert is_in_solution_space(t.compatibility_system,
                                NormalCoordinate.from_vector(2, quads + tris))


def test_certify_malformed_json_is_input_error(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    bad = tmp_path / "bad.angles.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["certify", paths["tri"], str(bad)])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, command):
    paths = write_fixture(capsys, tmp_path, "fig8")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000, encoding="utf-8")
    code, out, err = run(capsys, [command, paths["tri"], str(deep)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == (
        "error: %s: maximum recursion depth exceeded while decoding a "
        "JSON array from a unicode string" % deep)


@pytest.mark.parametrize("command,key,payload", [
    ("solve", "ac", {"area": "00000000", "curvature": "00"}),
    ("certify", "angles", {"angles": [1] * 12}),
    ("certify", "angles", {"angles": 5}),
    ("certify", "angles", {"angles": "1/3"}),
    ("perturb", "angles", {"angles": ["x"]}),
])
def test_json_vectors_must_be_lists_of_strings(capsys, tmp_path, command,
                                               key, payload):
    paths = write_fixture(capsys, tmp_path, "fig8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, [command, paths["tri"], str(bad)])
    assert code == 1
    assert out == ""
    field = sorted(payload)[0]
    assert "error: %s: field \"%s\"" % (bad, field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,payload,message", [
    ("certify", {"angle": []}, 'expected an object with an "angles" key'),
    ("perturb", [], 'expected an object with an "angles" key'),
    ("solve", {"area": []},
     'expected an object with "area" and "curvature" keys'),
    ("solve", [1, 2], 'expected an object with "area" and "curvature" keys'),
])
def test_json_without_its_fields_is_input_error(capsys, tmp_path, command,
                                                payload, message):
    paths = write_fixture(capsys, tmp_path, "fig8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, [command, paths["tri"], str(bad)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "error: %s: %s" % (bad, message)


# Strings the oracle parse_rational refuses: int() alone would take the
# first two, "1/0" and "1/-2" have no positive denominator, and "1.5" is
# not exact.
_REFUSED = ["1_0", "\u0661", "1/0", "1/-2", "1.5", ""]


@pytest.mark.parametrize("bad", _REFUSED)
@pytest.mark.parametrize("command,field", [("solve", "area"),
                                           ("solve", "curvature"),
                                           ("certify", "angles"),
                                           ("perturb", "angles")])
def test_the_kept_form_reader_refuses_what_parse_rational_refuses(
        capsys, tmp_path, command, field, bad):
    # The readers parse "p/q" lists straight into (den, ints) with
    # the grammar and message of the oracle parse_rational, named by file
    # and field.
    with pytest.raises(ValueError) as refused:
        parse_rational(bad)
    paths = write_fixture(capsys, tmp_path, "fig8")
    key = "ac" if command == "solve" else "angles"
    with open(paths[key], encoding="utf-8") as fh:
        data = json.load(fh)
    data[field][1] = bad
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, [command, paths["tri"], str(target)])
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == 'error: %s: field "%s": %s' % (
        target, field, refused.value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(" +-/0123456789_.\u0661\t", max_size=6),
                max_size=4))
@example(["2/4", " -3/9 ", "+1/2", "7", "0/5", "1/3"])
def test_parse_scaled_reads_exactly_what_parse_rational_reads(texts):
    try:
        values = [parse_rational(text) for text in texts]
    except ValueError as err:
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(err))):
            parse_scaled(texts)
        return
    den, ints = parse_scaled(texts)
    assert den > 0 and [Fraction(v, den) for v in ints] == values


def _count_unscaled(monkeypatch) -> list:
    """The list each call of _rational.unscaled is appended to, under
    every name a package module binds it to."""
    calls = []
    real = _rational.unscaled
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "anglestruct" and \
                getattr(module, "unscaled", None) is real:
            monkeypatch.setattr(module, "unscaled",
                                lambda *a: calls.append(a) or real(*a))
    return calls


def test_solve_and_certify_reports_build_no_fraction_vector(capsys,
                                                            tmp_path,
                                                            monkeypatch):
    # From the files read to the report written, solve (semi and strict,
    # an assignment and a certificate) and certify (holds and fails)
    # keep every vector as (den, ints): _rational.unscaled, the one
    # function that builds a vector's Fractions, is never called.
    paths = {}
    for name in ("fig8", "fig8-infeasible", "fig8-qzero"):
        (tmp_path / name).mkdir()
        paths[name] = write_fixture(capsys, tmp_path / name, name)
    calls = _count_unscaled(monkeypatch)
    results = []
    for name, mode in [(n, m) for n in ("fig8", "fig8-infeasible")
                       for m in ("semi", "strict")]:
        code, out, _ = run(capsys, ["solve", paths[name]["tri"],
                                    paths[name]["ac"], "--mode", mode,
                                    "--json"])
        results.append((code, json.loads(out)["result"]))
    for name in ("fig8", "fig8-qzero"):
        code, out, _ = run(capsys, ["certify", paths[name]["tri"],
                                    paths[name]["angles"], "--json"])
        results.append((code, json.loads(out)["result"]))
    assert results == [(0, "assignment")] * 2 + [(0, "certificate")] * 2 + \
        [(0, "holds"), (0, "fails")]
    assert calls == []


def test_size_reads_of_a_record_built_from_ints_build_no_fraction(
        monkeypatch):
    # tet_count and the CLI's size checks read the kept ints: no
    # unscaled() call, and the vector fields stay unbuilt.
    calls = _count_unscaled(monkeypatch)
    t = fixture("fig8").triangulation
    alpha = AngleAssignment._of_scaled(3, [1] * 12)
    ac = AreaCurvature._of_scaled(1, [0] * 8 + [2] * 2, _cut=8)
    assert alpha.tet_count == 2
    args = argparse.Namespace(triangulation="fig8.tri")
    cli._check_sizes(args, t, "angles.json", alpha)
    cli._check_sizes(args, t, "ac.json", ac)
    assert calls == []
    assert "angles" not in alpha.__dict__
    assert not {"area", "curvature"} & ac.__dict__.keys()


def test_perturb_flat_fixture(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8-flat1")
    code, out, _ = run(capsys, ["perturb", paths["tri"], paths["angles"],
                                "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["t_max"] == "1/3"
    assert rep["t_star"] == "1/6"
    assert rep["census"] == [
        {"edge_class": 0, "zero": 2, "pi": 0, "interior": 6},
        {"edge_class": 1, "zero": 2, "pi": 2, "interior": 6},
    ]
    assert rep["after"]["curvature"] == rep["before"]["curvature"]
    after = ac_from_json(rep["after"])
    assert all(a < 0 for a in after.area)
    perturbed = AngleAssignment.from_vector(
        fixture("fig8-flat1").triangulation.tet_count,
        unscaled(*angle_vector_from_json(rep["assignment"])))
    assert all(0 < a < 1 for a in perturbed.angles)


def test_perturb_non_flat_input_is_usage_error(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, _, err = run(capsys, ["perturb", paths["tri"], paths["angles"]])
    assert code == 2
    assert "not a flat pair" in err


def check_wrong_size_angles(capsys, tmp_path, command, angles):
    paths = write_fixture(capsys, tmp_path, "fig8")
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"angles": angles}), encoding="utf-8")
    code, out, err = run(capsys, [command, paths["tri"], str(small)])
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        'error: %s: field "angles" has %d entries, %s needs 12'
        % (small, len(angles), paths["tri"]))
    assert "Traceback" not in err


@pytest.mark.parametrize("angles", [["1/6"] * 6, [], ["1/6"] * 5,
                                    ["1/6"] * 13])
def test_perturb_wrong_size_assignment_is_usage_error(capsys, tmp_path,
                                                      angles):
    check_wrong_size_angles(capsys, tmp_path, "perturb", angles)


@pytest.mark.parametrize("angles", [["1/6"] * 6, [], ["1/6"] * 5,
                                    ["1/6"] * 13])
def test_certify_wrong_size_assignment_is_usage_error(capsys, tmp_path,
                                                      angles):
    check_wrong_size_angles(capsys, tmp_path, "certify", angles)


@pytest.mark.parametrize("field,wrong", [("area", ["0"] * 4),
                                         ("curvature", ["0"] * 3)])
def test_solve_wrong_size_field_is_named(capsys, tmp_path, field, wrong):
    paths = write_fixture(capsys, tmp_path, "fig8")
    ac = {"area": ["0"] * 8, "curvature": ["0"] * 2}
    ac[field] = wrong
    bad = tmp_path / "bad.ac.json"
    bad.write_text(json.dumps(ac), encoding="utf-8")
    code, out, err = run(capsys, ["solve", paths["tri"], str(bad)])
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        'error: %s: field "%s" has %d entries, %s needs %d'
        % (bad, field, len(wrong), paths["tri"], 8 if field == "area" else 2))


def test_out_file_matches_json_stdout(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["validate", paths["tri"], "--json",
                                "--out", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_out_without_json_prints_the_lines_and_where_it_wrote(capsys,
                                                             tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    target = tmp_path / "report.json"
    argv = ["solve", paths["tri"], paths["ac"]]
    code, plain, _ = run(capsys, argv)
    assert code == 0
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert out == plain + "report written to %s\n" % target
    _, report, _ = run(capsys, argv + ["--json"])
    assert target.read_text(encoding="utf-8") == report


def test_unwritable_out_path_is_usage_error(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    target = tmp_path / "absent" / "x.json"
    code, out, err = run(capsys, ["validate", paths["tri"], "--json",
                                  "--out", str(target)])
    assert code == 2
    assert out == ""
    assert "error: cannot write %s: " % target in err
    assert "Traceback" not in err


def test_uncreatable_fixtures_dir_is_usage_error(capsys, tmp_path):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file\n", encoding="utf-8")
    target = blocker / "sub"
    code, out, err = run(capsys, ["fixtures", "fig8", str(target)])
    assert code == 2
    assert out == ""
    assert "error: cannot create %s: " % target in err
    assert not target.exists()


def test_json_output_is_canonical(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["analyze", paths["tri"], "--json"])
    assert code == 0
    assert out.endswith("\n")
    rep = json.loads(out)
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == out
    assert "elapsed" not in out


def _dumped(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_every_report_is_written_as_json_dumps_writes_it(capsys, tmp_path,
                                                        monkeypatch):
    # cli._json_text has its own writer: every object it writes, each
    # command's report on every fixture and the fixture files, must read
    # the bytes json.dumps gives with sorted keys and an indent of 2.
    seen = []
    write = cli._json_text

    def recording(obj):
        text = write(obj)
        seen.append((obj, text))
        return text
    monkeypatch.setattr(cli, "_json_text", recording)
    for name in fixture_names():
        directory = tmp_path / name
        directory.mkdir()
        paths = write_fixture(capsys, directory, name)
        argvs = [["fixtures"], ["validate", paths["tri"]],
                 ["analyze", paths["tri"]]]
        argvs += [["solve", paths["tri"], paths["ac"], "--mode", mode]
                  for mode in ("semi", "strict")]
        if fixture(name).angles is not None:
            argvs += [[command, paths["tri"], paths["angles"]]
                      for command in ("certify", "perturb")]
        for argv in argvs:
            run(capsys, argv + ["--json"])
    assert {obj.get("command") for obj, _ in seen} >= {
        "fixtures", "validate", "analyze", "solve", "certify", "perturb",
        None}
    for obj, text in seen:
        assert text == _dumped(obj)


_KEYS = st.text(st.characters(), max_size=6)
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.integers(-10 ** 80, 10 ** 80) | _KEYS,
    lambda inner: (st.lists(inner, max_size=4) |
                   st.lists(inner, max_size=4).map(tuple) |
                   st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
@example({"": [], "a\"b\\c": {}, "\x00\x1f\x7f\n\t": [{}, {"z": None}],
          "\u00e9\u20ac\U0001f600": (True, False, -2 ** 100, 0),
          "\ud800": "\udfff \u2028"})
@example([[], {}, [[{}]], ()])
def test_the_report_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == _dumped(obj)


@pytest.mark.parametrize("bad", [0.5, {1}, frozenset(), {"a": [1.0]},
                                 ({2},), {"k": {"n": float("nan")}}])
def test_the_report_writer_refuses_floats_and_sets(bad):
    with pytest.raises(TypeError):
        cli._json_text(bad)


def test_a_non_ascii_basename_is_reported_as_json_dumps_writes_it(
        capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    odd = tmp_path / 'fïg8 "€" \\ \U0001f600.tri'
    with open(paths["tri"], "rb") as fh:
        odd.write_bytes(fh.read())
    code, out, _ = run(capsys, ["validate", str(odd), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["inputs"]["triangulation"]["path"] == odd.name
    assert out.isascii() and out == _dumped(rep)


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    fig8 = write_fixture(capsys, tmp_path, "fig8")
    flat1 = write_fixture(capsys, tmp_path, "fig8-flat1")
    commands = [
        ["analyze", fig8["tri"], "--json"],
        ["solve", fig8["tri"], fig8["ac"], "--json"],
        ["certify", fig8["tri"], fig8["angles"], "--json"],
        ["perturb", flat1["tri"], flat1["angles"], "--json"],
    ]
    for argv in commands:
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "the following arguments are required: command" in \
        capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "argument command: invalid choice: 'no-such-command'" in \
        capsys.readouterr().err


def test_timing_goes_to_stderr_not_stdout(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    _, out, err = run(capsys, ["validate", paths["tri"], "--json"])
    assert "elapsed:" in err
    assert "elapsed" not in out


COMMANDS = ("validate", "analyze", "solve", "certify", "perturb", "fixtures")
SURFACE = (
    [[], ["-h"], ["--help"], ["-h", "solve"], ["no-such-command"], ["solv"]]
    + [[name, "-h"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [[name, "x"] for name in ("solve", "certify", "perturb")]
    + [["solve", "a", "b", "--mode", "x"], ["solve", "a", "b", "--bogus"],
       ["fixtures", "a", "b", "c"], ["--json", "validate", "x"],
       ["validate", "x", "--js", "--o"]]
    # Leftovers after the named command's own arguments, and the forms
    # an option or its value can take around the positionals.
    + [["validate", "x", "y"], ["solve", "a", "b", "--mode=x"],
       ["solve", "a", "--mode=semi"], ["solve", "a", "b", "--mo", "x"],
       ["solve", "a", "--mo", "semi"], ["validate", "--", "-x", "y"],
       ["solve", "--", "a"], ["solve", "a", "--out", "-", "b", "c"],
       ["certify", "a", "--json", "b", "c"], ["validate", "--out="],
       ["validate", "--", "x"], ["solve", "--mode=semi", "a", "b"],
       ["solve", "a", "--mo", "semi", "b", "--js"]])


def outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout, and stderr up to the
    elapsed: line, whose timing differs from run to run."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err.split("elapsed:")[0]


@pytest.mark.parametrize("argv", SURFACE, ids=lambda a: " ".join(a) or "-")
def test_surface_reads_as_with_every_subparser(capsys, monkeypatch, argv):
    # Help, usage errors and run of argv as main parses it, against
    # those of the parser that holds every command, for every argv.
    monkeypatch.setenv("COLUMNS", "80")
    narrowed = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse",
                        lambda argv: cli._build_parser().parse_args(argv))
    assert outcome(capsys, argv) == narrowed


@pytest.mark.parametrize("argv,inputs", [
    (["validate", "fig8.tri"], ["triangulation"]),
    (["analyze", "fig8.tri"], ["triangulation"]),
    (["solve", "fig8.tri", "fig8.ac.json"], ["ac", "triangulation"]),
    (["certify", "fig8.tri", "fig8.angles.json"], ["angles", "triangulation"]),
    (["perturb", "fig8-flat1.tri", "fig8-flat1.angles.json"],
     ["angles", "triangulation"]),
    (["fixtures"], []),
    (["fixtures", "one-tet", "out"], []),
], ids=lambda a: " ".join(a) or "-")
def test_every_report_carries_the_shared_header(capsys, monkeypatch,
                                                tmp_path, argv, inputs):
    # One header on every report: the schema, the command as argv names
    # it, exit code 0, and a digest of each file read; the same bytes
    # come through the parser that holds every command.
    for name in ("fig8", "fig8-flat1"):
        write_fixture(capsys, tmp_path, name)
    monkeypatch.chdir(tmp_path)
    narrowed = outcome(capsys, argv + ["--json"])
    code, out, _ = narrowed
    assert code == 0
    rep = json.loads(out)
    assert (rep["schema"], rep["command"], rep["exit_code"]) == \
        ("v1", argv[0], 0)
    assert sorted(rep.get("inputs", {})) == inputs
    monkeypatch.setattr(cli, "_parse",
                        lambda argv: cli._build_parser().parse_args(argv))
    assert outcome(capsys, argv + ["--json"]) == narrowed


def test_readers_name_exactly_the_file_positionals():
    # One table says how each input file is read: every positional of a
    # command that reads files, the gluing table first, and none of
    # fixtures', which names a fixture and a directory to write to.
    positionals = {name: [arg for arg, _ in arguments if arg[0] != "-"]
                   for name, (_, _, arguments) in cli._COMMANDS.items()}
    assert positionals.pop("fixtures") == ["name", "dir"]
    assert {files[0] for files in positionals.values()} == {"triangulation"}
    assert set(cli._READERS) == {
        arg for files in positionals.values() for arg in files}


@pytest.mark.parametrize("argv", [
    ["validate", "fig8.tri"],
    ["analyze", "fig8.tri"],
    ["solve", "fig8.tri", "fig8.ac.json"],
    ["certify", "fig8.tri", "fig8.angles.json"],
    ["perturb", "fig8-flat1.tri", "fig8-flat1.angles.json"],
], ids=" ".join)
def test_report_inputs_digest_the_bytes_of_each_file_read(capsys, tmp_path,
                                                          argv):
    # Each file is named under its positional by its basename and the
    # sha256 of its bytes as read, not of its parsed or reprinted form.
    for name in ("fig8", "fig8-flat1"):
        write_fixture(capsys, tmp_path, name)
    for path in tmp_path.iterdir():  # bytes no writer of the package gives
        path.write_bytes(path.read_bytes() + b"\n")
    paths = [str(tmp_path / name) for name in argv[1:]]
    code, out, _ = run(capsys, argv[:1] + paths + ["--json"])
    assert code == 0
    positionals = [arg for arg, _ in cli._COMMANDS[argv[0]][2]
                   if arg[0] != "-"]
    assert json.loads(out)["inputs"] == {
        arg: {"path": name,
              "sha256": hashlib.sha256(
                  (tmp_path / name).read_bytes()).hexdigest()}
        for arg, name in zip(positionals, argv[1:])}


@pytest.mark.parametrize("command,name", [("solve", "binary.ac.json"),
                                          ("certify", "binary.angles.json")])
def test_non_utf8_json_file_is_input_error(capsys, tmp_path, command, name):
    # Worded as for a gluing table, not as the codec words it.
    paths = write_fixture(capsys, tmp_path, "fig8")
    bad = tmp_path / name
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, [command, paths["tri"], str(bad)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "error: %s: not a UTF-8 text file" % bad


def subcommands(parser):
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


PLAIN = {"validate": ["validate", "fig8.tri"],
         "analyze": ["analyze", "fig8.tri"],
         "solve": ["solve", "fig8.tri", "fig8.ac.json"],
         "certify": ["certify", "fig8.tri", "fig8.angles.json"],
         "perturb": ["perturb", "fig8-flat1.tri", "fig8-flat1.angles.json"],
         "fixtures": ["fixtures", "one-tet", "out"]}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_named_command_builds_its_subparser_alone(capsys, monkeypatch,
                                                    tmp_path, name):
    # A command's plain argv runs with no ArgumentParser at all; help, a
    # bad choice and a leftover argument build the full parser, whose
    # subparsers are the six commands, and each call builds its own.
    for fx in ("fig8", "fig8-flat1"):
        write_fixture(capsys, tmp_path, fx)
    monkeypatch.chdir(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert outcome(capsys, PLAIN[name])[0] == 0
    assert outcome(capsys, PLAIN[name] + ["--json"])[0] == 0
    assert built == []
    for argv in ([name, "-h"], PLAIN[name] + ["--mode", "x"],
                 PLAIN[name] + ["leftover"]):
        assert outcome(capsys, argv)[0] == ("SystemExit", 0 if "-h" in argv
                                            else 2)
        assert built == ["anglestruct"] + ["anglestruct " + c
                                           for c in COMMANDS]
        built.clear()
    assert subcommands(cli._build_parser()) == list(COMMANDS)
    assert not [v for v in vars(cli).values()
                if isinstance(v, argparse.ArgumentParser)]


# Each token of SURFACE that makes an argv more than plain: help, the
# end of options, a lone dash, a negative number, an abbreviation and
# an "=" form.  The empty string is a plain positional or value.
TRICKY = ("--", "-", "-h", "--mo", "--js", "--mode=semi", "--out=", "-1")
TOKENS = TRICKY + ("", "--json", "--out", "--mode", "semi", "strict", "x",
                   "a.tri")


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(COMMANDS),
       tokens=st.lists(st.sampled_from(TOKENS), max_size=6))
# Plain but for one abbreviated or "=" option, which random draws
# seldom reach.
@example(name="solve", tokens=["x", "a.tri", "--mo", "semi"])
@example(name="solve", tokens=["x", "a.tri", "--json", "--mode=semi"])
@example(name="validate", tokens=["x", "--js"])
@example(name="fixtures", tokens=["--out=", "x"])
def test_a_read_argv_is_the_namespace_the_full_parser_gives(name, tokens):
    argv = [name] + tokens
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))
    if set(tokens) & set(TRICKY):
        assert args is None


def plain_argv():
    """Every argv shape of the README and the benchmark workloads: each
    command's positionals, then each subset of its options in each
    order."""
    shapes = [["validate", "t.tri"], ["analyze", "t.tri"],
              ["solve", "t.tri", "t.ac.json"],
              ["certify", "t.tri", "t.angles.json"],
              ["perturb", "t.tri", "t.angles.json"],
              ["fixtures"], ["fixtures", "fig8"], ["fixtures", "fig8", "."]]
    for shape in shapes:
        options = [["--json"], ["--out", "r.json"]]
        if shape[0] == "solve":
            options.append(["--mode", "semi"])
        for k in range(len(options) + 1):
            for chosen in itertools.permutations(options, k):
                yield shape + [tok for opt in chosen for tok in opt]
        if shape[0] == "solve":
            yield shape + ["--mode", "strict", "--json"]


@pytest.mark.parametrize("argv", list(plain_argv()), ids=" ".join)
def test_every_plain_argv_is_read_without_a_parser(argv):
    args = cli._read(argv)
    assert args is not None
    assert vars(args) == vars(cli._build_parser().parse_args(argv))
    # One tricky token put in or swapped in anywhere after the command
    # leaves argv to the full parser.
    for i in range(1, len(argv) + 1):
        for tok in TRICKY:
            assert cli._read(argv[:i] + [tok] + argv[i:]) is None
            assert cli._read(argv[:i] + [tok] + argv[i + 1:]) is None


def test_console_script_path_reads_sys_argv(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    argv = ["solve", paths["tri"], paths["ac"], "--json"]
    code, out, _ = run(capsys, argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = [sys.executable, "-m", "anglestruct.cli"]
    proc = subprocess.run(script + argv, capture_output=True, env=env)
    assert code == proc.returncode == 0
    assert proc.stdout == out.encode("utf-8")
    proc = subprocess.run(script + ["--help"], capture_output=True,
                          env=env, text=True)
    assert proc.returncode == 0
    assert "{%s}" % ",".join(COMMANDS) in proc.stdout
    for name in COMMANDS:
        assert "\n    %s " % name in proc.stdout
