"""Command-line surface for the angle-structure pipeline.

Every command reads plain-text gluing tables and JSON angle or
area-curvature files, runs the exact pipeline, and emits a versioned
JSON report in which every number is a reduced "p/q" rational.  Reports
contain no timestamps and are byte-identical across reruns on identical
inputs; wall-clock timing goes to stderr.

Exit codes: 0 = decided (an attached infeasibility certificate is a
decision), 1 = invalid input, 2 = precondition or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from ._rational import format_rational
from .angle_structures import (
    AngleAssignment,
    ac_from_json,
    ac_to_json,
    angles_from_json,
    angles_to_json,
    classify,
    realized_area_curvature,
)
from .existence import (
    Holds,
    certify_condition2,
    find_angle_structure,
    find_semi_angle_structure,
)
from .fixtures import fixture, fixture_names
from .normal_coords import (
    NormalCoordinate,
    chi_star,
    solution_space_basis,
)
from .perturbation import apply_theorem3
from .triangulation import (
    Triangulation,
    TriangulationError,
    format_triangulation,
    is_ideal_triangulation,
    is_orientable,
    parse_triangulation,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_USAGE = 2


class _InputError(Exception):
    """Unreadable or unparseable input file (exit 1)."""


def _digest(path: str, data: bytes) -> dict:
    return {"path": os.path.basename(path),
            "sha256": hashlib.sha256(data).hexdigest()}


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise _InputError("cannot read %s: %s" % (path, err.strerror))


def _load_triangulation(path: str):
    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise _InputError("%s: not a UTF-8 text file" % path)
    try:
        t = parse_triangulation(
            text, name=os.path.splitext(os.path.basename(path))[0])
    except TriangulationError as err:
        raise _InputError("%s: %s" % (path, err))
    return t, _digest(path, data)


def _load_json(path: str, reader):
    data = _read_bytes(path)
    try:
        obj = reader(json.loads(data.decode("utf-8")))
    except (ValueError, UnicodeDecodeError) as err:
        raise _InputError("%s: %s" % (path, err))
    return obj, _digest(path, data)


def _vector(values) -> list:
    return [format_rational(v) for v in values]


def _coordinate_json(s: NormalCoordinate) -> dict:
    return {"quads": _vector(s.quads), "tris": _vector(s.tris)}


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise ValueError("cannot write %s: %s" % (path, err.strerror))


def _emit(report: dict, args, lines) -> None:
    text = _json_text(report)
    if args.out:
        _write_text(args.out, text)
    if args.json:
        sys.stdout.write(text)
    else:
        for line in lines:
            print(line)
        if args.out:
            print("report written to %s" % args.out)


def _triangulation_summary(t: Triangulation) -> dict:
    ideal, _ = is_ideal_triangulation(t)
    return {
        "tet_count": t.tet_count,
        "boundary_face_count": len(t.boundary_faces()),
        "orientable": is_orientable(t),
        "ideal": ideal,
        "edge_classes": [
            {"index": e.index, "valence": e.valence,
             "boundary": e.is_boundary}
            for e in t.edge_classes],
        "vertex_classes": [
            {"index": v.index, "corner_count": len(v.corners),
             "link_euler": v.link_euler, "link_closed": v.link_closed,
             "link_orientable": v.link_orientable}
            for v in t.vertex_classes],
    }


def cmd_validate(args) -> int:
    t, dig = _load_triangulation(args.triangulation)
    summary = _triangulation_summary(t)
    report = {"schema": "v1", "command": "validate",
              "inputs": {"triangulation": dig}, "exit_code": EXIT_OK}
    report.update(summary)
    lines = [
        "valid triangulation: %d tetrahedra, %d boundary faces"
        % (summary["tet_count"], summary["boundary_face_count"]),
        "edge classes: %s" % ", ".join(
            "#%d valence %d%s" % (e["index"], e["valence"],
                                  " (boundary)" if e["boundary"] else "")
            for e in summary["edge_classes"]),
        "vertex classes: %s" % ", ".join(
            "#%d link euler %d%s%s" % (
                v["index"], v["link_euler"],
                " closed" if v["link_closed"] else " open",
                " orientable" if v["link_orientable"] else "")
            for v in summary["vertex_classes"]),
        "orientable: %s, ideal: %s"
        % (summary["orientable"], summary["ideal"]),
    ]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_analyze(args) -> int:
    t, dig = _load_triangulation(args.triangulation)
    summary = _triangulation_summary(t)
    csys = t.compatibility_system
    solution_dim = csys.columns - csys.rank
    report = {"schema": "v1", "command": "analyze",
              "inputs": {"triangulation": dig}, "exit_code": EXIT_OK}
    report.update(summary)
    report["compatibility"] = {
        "rows": len(csys.rows), "columns": csys.columns,
        "solution_space_dim": solution_dim,
    }
    linking = []
    for v in t.vertex_classes:
        s = _vertex_linking_coordinate(t, v)
        linking.append({
            "vertex_class": v.index,
            "chi_star": format_rational(chi_star(t, s)),
            "link_euler": v.link_euler,
        })
    report["vertex_linking_classes"] = linking
    basis_available = len(t.boundary_faces()) == 0
    report["canonical_basis_available"] = basis_available
    if basis_available:
        basis = solution_space_basis(t)
        report["canonical_basis"] = {
            "tetrahedral": len(basis.w_sigma),
            "edge": len(basis.w_edge),
        }
    lines = [
        "%d tetrahedra, %d edge classes, %d vertex classes"
        % (summary["tet_count"], len(summary["edge_classes"]),
           len(summary["vertex_classes"])),
        "compatibility system: %d rows x %d columns, solution space "
        "dimension %d" % (report["compatibility"]["rows"],
                          report["compatibility"]["columns"], solution_dim),
        "chi* of vertex-linking classes: %s" % ", ".join(
            "#%d -> %s (link euler %d)" % (
                e["vertex_class"], e["chi_star"], e["link_euler"])
            for e in linking),
    ]
    _emit(report, args, lines)
    return EXIT_OK


def _vertex_linking_coordinate(t, vclass) -> NormalCoordinate:
    from fractions import Fraction
    tris = [Fraction(0)] * (4 * t.tet_count)
    for i, v in vclass.corners:
        tris[4 * i + v] = Fraction(1)
    return NormalCoordinate(
        quads=tuple([Fraction(0)] * (3 * t.tet_count)), tris=tuple(tris))


def cmd_solve(args) -> int:
    t, dig_t = _load_triangulation(args.triangulation)
    ac, dig_ac = _load_json(args.ac, ac_from_json)
    finder = find_angle_structure if args.mode == "strict" \
        else find_semi_angle_structure
    result = finder(t, ac)
    report = {"schema": "v1", "command": "solve", "mode": args.mode,
              "inputs": {"triangulation": dig_t, "ac": dig_ac},
              "exit_code": EXIT_OK}
    if isinstance(result, AngleAssignment):
        realized = realized_area_curvature(result, t)
        report["result"] = "assignment"
        report["assignment"] = angles_to_json(result)
        report["classification"] = classify(result)
        report["realized"] = ac_to_json(realized)
        lines = ["%s assignment found" % report["classification"],
                 "angles: %s" % " ".join(_vector(result.angles))]
    else:
        # The solvers verify every certificate they emit and raise
        # LPError otherwise.
        report["result"] = "certificate"
        report["certificate"] = {"y": _vector(result.y), "verified": True}
        lines = ["no %s assignment exists; certificate attached "
                 "(verified: True)" % args.mode]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_certify(args) -> int:
    t, dig_t = _load_triangulation(args.triangulation)
    alpha, dig_a = _load_json(args.angles, angles_from_json)
    result = certify_condition2(t, alpha)
    report = {"schema": "v1", "command": "certify",
              "inputs": {"triangulation": dig_t, "angles": dig_a},
              "exit_code": EXIT_OK}
    if isinstance(result, Holds):
        report["result"] = "holds"
        report["vacuous"] = result.vacuous
        report["optimum"] = (None if result.optimum is None
                             else format_rational(result.optimum))
        lines = ["negative quad-area condition holds%s; optimum %s"
                 % (" vacuously" if result.vacuous else "",
                    report["optimum"])]
    else:
        report["result"] = "fails"
        report["optimum"] = format_rational(result.optimum)
        report["witness"] = _coordinate_json(result.witness)
        lines = ["negative quad-area condition fails; optimum %s" % report["optimum"],
                 "witness quads: %s" % " ".join(
                     _vector(result.witness.quads))]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_perturb(args) -> int:
    t, dig_t = _load_triangulation(args.triangulation)
    alpha, dig_a = _load_json(args.angles, angles_from_json)
    res = apply_theorem3(alpha, t)
    report = {"schema": "v1", "command": "perturb",
              "inputs": {"triangulation": dig_t, "angles": dig_a},
              "exit_code": EXIT_OK,
              "census": [{"edge_class": j, "zero": c[0], "pi": c[1],
                          "interior": c[2]}
                         for j, c in enumerate(res.family.census.entries)],
              "t_max": format_rational(res.t_max),
              "t_star": format_rational(res.t_max / 2),
              "assignment": angles_to_json(res.assignment),
              "before": ac_to_json(realized_area_curvature(alpha, t)),
              "after": ac_to_json(res.realized)}
    lines = ["perturbed to a strict assignment at t* = %s (t_max = %s)"
             % (report["t_star"], report["t_max"]),
             "areas after: %s" % " ".join(_vector(res.realized.area)),
             "curvatures preserved: %s" % " ".join(
                 _vector(res.realized.curvature))]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    if not args.name:
        report = {"schema": "v1", "command": "fixtures",
                  "available": list(fixture_names()),
                  "exit_code": EXIT_OK}
        _emit(report, args, ["available fixtures: %s"
                             % ", ".join(fixture_names())])
        return EXIT_OK
    fx = fixture(args.name)
    outdir = args.dir or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        raise ValueError("cannot create %s: %s" % (outdir, err.strerror))
    files = [("%s.tri" % fx.name, format_triangulation(fx.triangulation))]
    if fx.angles is not None:
        files.append(("%s.angles.json" % fx.name,
                      _json_text(angles_to_json(fx.angles))))
    if fx.ac is not None:
        files.append(("%s.ac.json" % fx.name, _json_text(ac_to_json(fx.ac))))
    written = []
    for name, text in files:
        path = os.path.join(outdir, name)
        _write_text(path, text)
        written.append(path)
    report = {"schema": "v1", "command": "fixtures", "name": fx.name,
              "description": fx.description,
              "files": [os.path.basename(p) for p in written],
              "exit_code": EXIT_OK}
    _emit(report, args, ["wrote %s" % p for p in written])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anglestruct",
        description="exact angle-structure existence, certification, and "
                    "perturbation on triangulated 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout")
        p.add_argument("--out", metavar="PATH",
                       help="write the JSON report to PATH")

    p = sub.add_parser("validate", help="check a gluing table and "
                                        "summarize its combinatorics")
    p.add_argument("triangulation")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="deep combinatorial report: edge "
                                       "and vertex classes, compatibility "
                                       "system, chi* ground truth")
    p.add_argument("triangulation")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="find an angle assignment realizing "
                                     "prescribed area-curvature data")
    p.add_argument("triangulation")
    p.add_argument("ac", help="JSON file with area and curvature vectors")
    p.add_argument("--mode", choices=("semi", "strict"), default="strict")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="certify the negative-quad-area "
                                       "condition for a semi assignment")
    p.add_argument("triangulation")
    p.add_argument("angles", help="JSON file with the angle vector")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("perturb", help="upgrade a flat semi assignment "
                                       "to a strict one")
    p.add_argument("triangulation")
    p.add_argument("angles", help="JSON file with the angle vector")
    common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("fixtures", help="write a built-in fixture to disk "
                                        "(or list fixtures)")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("dir", nargs="?", default=None,
                   help="output directory (default: current)")
    common(p)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except _InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    finally:
        print("elapsed: %.3fs" % (time.monotonic() - start),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
