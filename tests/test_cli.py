"""Command-line behavior: reports, exit codes, and determinism.

Commands run in process through main(argv); the byte-for-byte rerun
guarantee across separate processes is exercised by the acceptance
suite.
"""

from __future__ import annotations

import json

import pytest

from anglestruct.angle_structures import (
    ac_from_json,
    angles_from_json,
)
from anglestruct.cli import main
from anglestruct.fixtures import fixture, fixture_names
from anglestruct.triangulation import parse_triangulation


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
        assert angles_from_json(json.load(fh)) == fx.angles
    with open(paths["ac"], encoding="utf-8") as fh:
        assert ac_from_json(json.load(fh)) == fx.ac


def test_fixtures_without_angles_writes_table_and_target_only(capsys,
                                                              tmp_path):
    code, out, _ = run(capsys, ["fixtures", "fig8-infeasible",
                                str(tmp_path), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["files"] == ["fig8-infeasible.tri", "fig8-infeasible.ac.json"]


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


def test_analyze_with_boundary_skips_canonical_basis(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "one-tet")
    code, out, _ = run(capsys, ["analyze", paths["tri"], "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["canonical_basis_available"] is False
    assert "canonical_basis" not in rep
    assert len(rep["vertex_linking_classes"]) == 4
    for entry in rep["vertex_linking_classes"]:
        assert entry["chi_star"] == "1/1"
        assert entry["link_euler"] == 1


def test_solve_strict_on_realizable_target(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, out, _ = run(capsys, ["solve", paths["tri"], paths["ac"],
                                "--mode", "strict", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "assignment"
    assert rep["classification"] == "strict"
    with open(paths["ac"], encoding="utf-8") as fh:
        target = json.load(fh)
    assert rep["realized"] == target
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
    assert rep["witness"]["quads"] == ["1/6"] * 6
    assert rep["witness"]["tris"] == ["0/1"] * 8


def test_certify_malformed_json_is_input_error(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    bad = tmp_path / "bad.angles.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["certify", paths["tri"], str(bad)])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command,key,payload", [
    ("solve", "ac", {"area": "00000000", "curvature": "00"}),
    ("certify", "angles", {"angles": [1] * 12}),
    ("certify", "angles", {"angles": 5}),
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
    perturbed = angles_from_json(rep["assignment"])
    assert all(0 < a < 1 for a in perturbed.angles)


def test_perturb_non_flat_input_is_usage_error(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    code, _, err = run(capsys, ["perturb", paths["tri"], paths["angles"]])
    assert code == 2
    assert "not a flat pair" in err


def test_out_file_matches_json_stdout(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["validate", paths["tri"], "--json",
                                "--out", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


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
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_timing_goes_to_stderr_not_stdout(capsys, tmp_path):
    paths = write_fixture(capsys, tmp_path, "fig8")
    _, out, err = run(capsys, ["validate", paths["tri"], "--json"])
    assert "elapsed:" in err
    assert "elapsed" not in out
