"""Command-line surface for the angle-structure pipeline.

Every command reads plain-text gluing tables and JSON angle or
area-curvature files, runs the exact pipeline, and emits a versioned
JSON report in which every number is a reduced "p/q" rational.  Reports
contain no timestamps and are byte-identical across reruns on identical
inputs; wall-clock timing goes to stderr.  `_json_text` writes them with
a small writer over the types a report holds, whose bytes are those of
json.dumps(report, sort_keys=True, indent=2) and a newline; that call's
indent would take json's pure-Python encoder.  json itself only reads.

Every report holds the header keys "schema" ("v1"), "command" and
"exit_code" (0), plus "inputs" (basename and sha256 of each file read)
when the command reads files.  A file that is not UTF-8 text is refused
as "PATH: not a UTF-8 text file", gluing table and JSON file alike.

Exit codes: 0 = decided (an attached infeasibility certificate is a
decision), 1 = invalid input, 2 = precondition or usage error.

argv is read from the command table _COMMANDS.  A plain argv (the
command, its positionals, then each of its options at most once as
spelled there) becomes the namespace without an argparse parser; any
other argv, help and usage errors included, goes to the full parser
that _build_parser makes from the same table for that one call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from ._rational import format_rational, format_vector
from .angle_structures import (
    AngleAssignment,
    ac_from_json,
    ac_to_json,
    angle_vector_from_json,
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
    _vertex_linking_coordinate,
    chi_star,
)
from .perturbation import apply_theorem3
from .triangulation import (
    Triangulation,
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


def _load(path: str, parse):
    """parse(text) of the UTF-8 file at path and its digest, or _InputError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise _InputError("cannot read %s: %s" % (path, err.strerror))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise _InputError("%s: not a UTF-8 text file" % path)
    try:
        parsed = parse(text)
    except (ValueError, RecursionError) as err:
        raise _InputError("%s: %s" % (path, err))
    return parsed, {"path": os.path.basename(path),
                    "sha256": hashlib.sha256(data).hexdigest()}


def _load_triangulation(path: str):
    name = os.path.splitext(os.path.basename(path))[0]
    return _load(path, lambda text: parse_triangulation(text, name=name))


def _load_json(path: str, reader):
    return _load(path, lambda text: reader(json.loads(text)))


def _check_sizes(args, t, path, record):
    for field, values in zip(record._vector, record._parts()[1:]):
        # Only a curvature vector needs the edge classes walked.
        need = len(t.edge_classes) if field == "curvature" else \
            {"angles": 6, "area": 4}[field] * t.tet_count
        if len(values) != need:
            raise ValueError('%s: field "%s" has %d entries, %s needs %d' % (
                path, field, len(values), args.triangulation, need))


def _load_angles(args, t):
    """The angle file's assignment, kept as ints, its size checked."""
    form, digest = _load_json(args.angles, angle_vector_from_json)
    alpha = AngleAssignment._of_scaled(*form)
    _check_sizes(args, t, args.angles, alpha)
    return alpha, digest


def _json_text(obj) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, and a
    newline: its dicts' keys sorted, lists and tuples as arrays, strs
    escaped to ASCII, ints, bools and None as literals.  Any other type,
    a non-str key included, raises TypeError."""
    out = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_LITERALS = {True: "true", False: "false", None: "null"}


def _write_json(obj, newline: str, out: list) -> None:
    """Append the chunks of obj's JSON text to out, newline being the
    line break and indent of obj's own depth."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                raise TypeError("report key %r is not a str" % (key,))
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out += (newline, "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if {str}.issuperset(map(type, obj)):  # a vector: one join
            out += ("[", inner, ("," + inner).join(
                map(encode_basestring_ascii, obj)), newline, "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out += (newline, "]")
    elif kind is bool or obj is None:
        out.append(_LITERALS[obj])
    else:
        raise TypeError("a report holds no %s: %r" % (kind.__name__, obj))


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise ValueError("cannot write %s: %s" % (path, err.strerror))


def _emit(args, body: dict, lines) -> None:
    """Write body under the report header every command shares."""
    text = _json_text(dict(body, schema="v1", command=args.command,
                           exit_code=EXIT_OK))
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
    return {
        "tet_count": t.tet_count,
        "boundary_face_count": len(t.boundary_faces()),
        "orientable": is_orientable(t),
        "ideal": is_ideal_triangulation(t),
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


def cmd_validate(args) -> None:
    t, dig = _load_triangulation(args.triangulation)
    summary = _triangulation_summary(t)
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
    _emit(args, dict(summary, inputs={"triangulation": dig}), lines)


def cmd_analyze(args) -> None:
    t, dig = _load_triangulation(args.triangulation)
    summary = _triangulation_summary(t)
    csys = t.compatibility_system
    solution_dim = csys.columns - csys.rank
    report = dict(summary, inputs={"triangulation": dig})
    report["compatibility"] = {
        "rows": len(csys.arcs), "columns": csys.columns,
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
    basis = t.solution_basis
    # Always true: the key stays so that existing reports keep their bytes.
    report["canonical_basis_available"] = True
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
    _emit(args, report, lines)


def cmd_solve(args) -> None:
    t, dig_t = _load_triangulation(args.triangulation)
    ac, dig_ac = _load_json(args.ac, ac_from_json)
    _check_sizes(args, t, args.ac, ac)
    finder = find_angle_structure if args.mode == "strict" \
        else find_semi_angle_structure
    result = finder(t, ac)
    report = {"mode": args.mode,
              "inputs": {"triangulation": dig_t, "ac": dig_ac}}
    if isinstance(result, AngleAssignment):
        report["result"] = "assignment"
        report["assignment"] = angles_to_json(result)
        report["classification"] = classify(result)
        # The finders return an assignment only after
        # existence._check_realization found its realized data equal to ac.
        report["realized"] = ac_to_json(ac)
        lines = ["%s assignment found" % report["classification"],
                 "angles: %s" % " ".join(report["assignment"]["angles"])]
    else:
        # The solvers verify every certificate they emit and raise
        # LPError otherwise.
        report["result"] = "certificate"
        report["certificate"] = dict(format_vector(result), verified=True)
        lines = ["no %s assignment exists; certificate attached "
                 "(verified: True)" % args.mode]
    _emit(args, report, lines)


def cmd_certify(args) -> None:
    t, dig_t = _load_triangulation(args.triangulation)
    alpha, dig_a = _load_angles(args, t)
    result = certify_condition2(t, alpha)
    report = {"inputs": {"triangulation": dig_t, "angles": dig_a},
              "optimum": format_rational(result.optimum)}
    if isinstance(result, Holds):
        report["result"] = "holds"
        report["vacuous"] = False  # the quad slice is never empty
        lines = ["negative quad-area condition holds; optimum %s"
                 % report["optimum"]]
    else:
        report["result"] = "fails"
        report["witness"] = format_vector(result.witness)
        lines = ["negative quad-area condition fails; optimum %s" % report["optimum"],
                 "witness quads: %s" % " ".join(report["witness"]["quads"])]
    _emit(args, report, lines)


def cmd_perturb(args) -> None:
    t, dig_t = _load_triangulation(args.triangulation)
    alpha, dig_a = _load_angles(args, t)
    res = apply_theorem3(alpha, t)
    report = {"inputs": {"triangulation": dig_t, "angles": dig_a},
              "census": [{"edge_class": j, "zero": c[0], "pi": c[1],
                          "interior": c[2]}
                         for j, c in enumerate(res.family.census)],
              "t_max": format_rational(res.t_max),
              "t_star": format_rational(res.t_max / 2),
              "assignment": angles_to_json(res.assignment),
              "before": ac_to_json(realized_area_curvature(alpha, t)),
              "after": ac_to_json(res.realized)}
    lines = ["perturbed to a strict assignment at t* = %s (t_max = %s)"
             % (report["t_star"], report["t_max"]),
             "areas after: %s" % " ".join(report["after"]["area"]),
             "curvatures preserved: %s" % " ".join(
                 report["after"]["curvature"])]
    _emit(args, report, lines)


def cmd_fixtures(args) -> None:
    if not args.name:
        _emit(args, {"available": list(fixture_names())},
              ["available fixtures: %s" % ", ".join(fixture_names())])
        return
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
    _emit(args, {"name": fx.name, "description": fx.description,
                 "files": [os.path.basename(p) for p in written]},
          ["wrote %s" % p for p in written])


_ANGLES = ("angles", {"help": "JSON file with the angle vector"})
_REPORT = [("--json", {"action": "store_true",
                       "help": "print the JSON report to stdout"}),
           ("--out", {"metavar": "PATH",
                      "help": "write the JSON report to PATH"})]

# name -> (help, handler, each argument before --json and --out), in
# the order that help lists the commands.  Both _build_parser and _read
# take every argument, default and choice from here.
_COMMANDS = {
    "validate": ("check a gluing table and summarize its combinatorics",
                 cmd_validate, [("triangulation", {})]),
    "analyze": ("deep combinatorial report: edge and vertex classes, "
                "compatibility system, chi* ground truth",
                cmd_analyze, [("triangulation", {})]),
    "solve": ("find an angle assignment realizing prescribed "
              "area-curvature data", cmd_solve,
              [("triangulation", {}),
               ("ac", {"help": "JSON file with area and curvature vectors"}),
               ("--mode", {"choices": ("semi", "strict"),
                           "default": "strict"})]),
    "certify": ("certify the negative-quad-area condition for a semi "
                "assignment", cmd_certify, [("triangulation", {}), _ANGLES]),
    "perturb": ("upgrade a flat semi assignment to a strict one",
                cmd_perturb, [("triangulation", {}), _ANGLES]),
    "fixtures": ("write a built-in fixture to disk (or list fixtures)",
                 cmd_fixtures,
                 [("name", {"nargs": "?"}),
                  ("dir", {"nargs": "?",
                           "help": "output directory (default: current)"})]),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser that holds every command's subparser."""
    parser = argparse.ArgumentParser(
        prog="anglestruct",
        description="exact angle-structure existence, certification, and "
                    "perturbation on triangulated 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for arg, keywords in arguments + _REPORT:
            command.add_argument(arg, **keywords)
        command.set_defaults(func=func, command=name)
    return parser


def _read(argv):
    """The namespace of a plain argv, read from _COMMANDS alone, or None.

    Plain means: argv names a command, the command's positionals come
    first, and each of its options follows at most once in its own
    spelling, with a value that does not start with "-" and is one of
    its choices.  The namespace is the one the full parser gives.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    arguments = arguments + _REPORT
    values = {arg.lstrip("-"): False if kw.get("action") == "store_true"
              else kw.get("default") for arg, kw in arguments}
    positionals = [(arg, kw) for arg, kw in arguments if arg[0] != "-"]
    options = {arg: kw for arg, kw in arguments if arg[0] == "-"}
    tokens = argv[1:]
    end = next((i for i, tok in enumerate(tokens) if tok[:1] == "-"),
               len(tokens))
    if not (sum(kw.get("nargs") != "?" for _, kw in positionals)
            <= end <= len(positionals)):
        return None
    for (arg, _), tok in zip(positionals, tokens[:end]):
        values[arg] = tok
    rest = iter(tokens[end:])
    for opt in rest:
        keywords = options.pop(opt, None)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            values[opt.lstrip("-")] = True
            continue
        value = next(rest, "-")  # a missing value is refused as an option
        if value[:1] == "-" or value not in keywords.get("choices", (value,)):
            return None
        values[opt.lstrip("-")] = value
    return argparse.Namespace(func=func, command=argv[0], **values)


def _parse(argv):
    """argv read straight from _COMMANDS when it is plain, or else parsed
    by the full parser, which also gives help and usage errors."""
    return _read(argv) or _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    start = time.monotonic()
    try:
        args.func(args)
    except _InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    finally:
        print("elapsed: %.3fs" % (time.monotonic() - start),
              file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
