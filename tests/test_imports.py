"""Static checks on the package's source, by its syntax tree.

Every module uses each name it imports: a stdlib stand-in for pyflakes'
unused-import check (F401); an import line marked ``# noqa: F401`` is
kept on purpose and exempt.  Every private module-level name is read
somewhere in the package: no helper is kept for tests alone.  No module reads a dense matrix view, only
`_rational` takes a number apart into numerator and denominator, and
the simplex's per-pivot code, with the elimination step it shares with
the echelon form, the integer normal-coordinate kernels (the arc
membership, the edge tally and its table, the basis supports and the
sum over them) and the table of boundary faces, the certificate check,
the tally of an assignment's angle sums and Theorem 3's bound search
use no Fraction and no "/".  That tally is the one
place an assignment's angles are summed: its readers, the realized
data, a solve's re-verification and the flat-pair check, call no sum()
of their own, and `existence` and `perturbation` read no assignment's
scaled view, only an LP answer's and the perturbation family's.  No per-corner vertex-link check is kept beside them.
The normal-coordinate edge functionals read one edge tally, over the
one table the triangulation keeps, and take no lcm of the valences and
walk no class's corners of their own.
The basis, the dual pairing identity and `analyze` ask for no boundary
faces, and the identity reads the solvers' targets.
Answers are read out by `_rational.unscaled` alone, `LinearSystem` and
`CompatibilitySystem` keep no `rows` view for tests, and `perturbation` writes into no
`__dict__`.  The CLI's `_emit` writes the one report
header: no command handler names "schema" or `EXIT_OK`, or returns a
value.  `normal_coords` is the one module that knows the 7n coordinate
layout: `angle_structures` imports nothing from it, no other module
reads a compatibility system's rows, and `existence` reaches the quad
rows through it, not through `_linalg`.  Its projection of the triangle
columns along the vertex-link forest, and the witness set along that
forest, use no Fraction and no "/"; no triangles-first echelon form is
kept.  No public type, field or accessor restates a value the package
already holds: a strict point is a Solution, with no margin beside it.
A certificate is checked against its own system's column signs: no
module passes a mode beside the system.  A solve mode becomes a column
sign in one place, `existence._system`, which alone refuses an unknown
mode; the targets take none.  The package builds its own systems in
lp_core's int form with `LinearSystem._of_ints`, which lp_core defines
and `existence` alone calls: no module calls `LinearSystem.of`, the
gated door for callers' numbers.
`triangulation` looks each permutation's inverse and parity up in tables
built at import, its edge walk reads the raw gluing table, and certify's
size check walks no edge class.  No module imports dataclasses or a
namedtuple factory: every record is a `_record.Record`.
`_linalg`'s echelon form takes rows that are already int dicts, imports
nothing from `_rational`, and has one caller, the compatibility
system's projection.  A solve scales its targets once, and reads the
solver's point or certificate in the int form it was read out of.  The
CLI writes its reports itself: json is imported for reading alone.
The CLI prints every vector through `_rational.format_vector` and
builds no Fraction.  The summed Gauss-Bonnet refusal has one home,
which `_decide` calls before it builds the pair system; the
slack-basis start lives in `lp_core._tableau` alone; and no public
solver or finder gains a parameter, the CLI no option, and no module
reads the environment.
`_rational.ScaledVector` alone writes `_scaled`, the (den, ints) form
every record with one rational vector keeps, in `_of_scaled` and in
its ``__post_init__``; no record keeps that form under another name,
and only `_rational` writes a slot of a `__dict__`.  `_rational` has
one gate, `exact_scaled`, and no `exact`, `scaled` or `_gate` beside
it.  An edge class's fold multiplicity is derived once, as
`EdgeClass.mult`, which the four places that need it read.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anglestruct"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
                if "# noqa: F401" not in lines[alias.lineno - 1])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def _defined_privately(tree) -> set:
    """The module-level _names a module defines: its functions, classes
    and assigned names, loop targets not included."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for target in targets
                         for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_no_private_name_is_kept_for_tests_alone():
    # A private helper, class or constant at module level is read by the
    # package itself, in its own module or another: a name and an
    # attribute both count as a read, a definition or an import does not.
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((name, path.name) for name in _defined_privately(tree))
        read.update(n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and
                    isinstance(n.ctx, ast.Load))
        read.update(n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute))
    assert "_EXACT" in defined and "_RATIONAL" in defined
    assert "_k" not in defined
    assert sorted((defined[name], name) for name in defined
                  if name not in read) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_reads_no_dense_view(path):
    # Systems are sparse rows from the gluings to the tableau.  The dense
    # CompatibilitySystem.matrix and LinearSystem.coeffs views are kept
    # for readers outside the package; PerturbationFamily.coeffs, read in
    # perturbation.py, is another field with the same name.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "matrix" not in read
    if path.name in ("lp_core.py", "existence.py", "normal_coords.py"):
        assert "coeffs" not in read


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "_rational.py"],
                         ids=lambda p: p.name)
def test_only_rational_takes_numbers_apart(path):
    # _rational is the one module that knows what an exact number is:
    # its exact_scaled() gates every entry point and takes a row or a
    # vector to ints over the lcm of its denominators, and its
    # unscaled() reads every answer back out as Fractions.  No other
    # module reads a numerator or a denominator or keeps its own _exact
    # or _fractions.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not read & {"numerator", "denominator"}
    assert not {"_exact", "_fractions"} & {n.name for n in ast.walk(tree)
                                           if isinstance(n, ast.FunctionDef)}


def test_no_view_kept_for_tests_and_no_slot_written_by_hand():
    # LinearSystem has no Fraction rows view: the package reads its int
    # form, and tests read oracles.fraction_rows.  Nor does
    # CompatibilitySystem keep sparse rows: the package reads its arcs,
    # and tests read oracles.compatibility_rows.  The perturbation
    # family keeps its scaled coefficients through _rational's
    # ScaledVector and writes into no __dict__ itself.
    from anglestruct.lp_core import LinearSystem
    from anglestruct.normal_coords import CompatibilitySystem
    assert not hasattr(LinearSystem, "rows")
    assert not hasattr(CompatibilitySystem, "rows")
    tree = ast.parse((PACKAGE / "perturbation.py").read_text(encoding="utf-8"))
    assert "__dict__" not in {n.attr for n in ast.walk(tree)
                              if isinstance(n, ast.Attribute)}


def test_pivot_loop_stays_in_integers():
    # Tableau rows are dicts of ints over one denominator per row, the
    # entry at the row's basic column; Fractions are built only at
    # readout.  The per-pivot code and the _linalg step it calls neither
    # call Fraction nor divide with "/", so they cannot drift back to
    # Fraction cells.  Nor does the row build that lays a system's int
    # form out as the starting tableau, nor the readout of basic values.
    # Nor do the normal-coordinate kernels that read a coordinate's
    # scaled int view: the membership check, which compares the two
    # sides of each arc, the edge tally and the table it reads, the
    # basis vectors' supports and the check that the tetrahedral ones
    # are the documented vectors, and the sum over supports that combine
    # and decompose's residual share; nor the table of a triangulation's
    # boundary faces, which chi* reads.  Nor does the compatibility system's
    # projection along the vertex-link forest, nor _from_slice, which
    # sets a witness's triangles along that forest.  Nor does the
    # certificate check, which sums A^T y and y.b over scaled ints, nor
    # the lift of a pair-system refutation, nor the re-verification of
    # an assignment, which checks
    # its angle sums against the int targets, nor the tally of those sums
    # over the assignment's scaled angles (its corner sums come with
    # those angles from _angle_ints, by _corner_sums), nor the tally of
    # its quad areas, nor Theorem 3's search for the
    # least bound on its parameter, which cross-multiplies int bounds.
    hot = {}
    for module, names in (("lp_core.py", ("_pivot", "_pivot_loop",
                                          "_leaving", "_tableau",
                                          "_basic_values",
                                          "verify_certificate")),
                          ("_linalg.py", ("_eliminate", "_primitive")),
                          ("normal_coords.py", ("is_in_solution_space",
                                                "_projection",
                                                "_from_slice",
                                                "_tally_table",
                                                "_edge_sums",
                                                "_supports",
                                                "_tetrahedral",
                                                "_combination")),
                          ("triangulation.py", ("_boundary_faces",
                                                "_edge_tally")),
                          ("existence.py", ("_check_realization",
                                            "_lifted")),
                          ("angle_structures.py", ("_angle_ints",
                                                   "_angle_sums",
                                                   "_corner_sums",
                                                   "_quad_areas")),
                          ("perturbation.py", ("_least_bound",))):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        body = list(tree.body)
        body += (node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body)
        hot.update((node.name, node) for node in body
                   if isinstance(node, ast.FunctionDef)
                   and node.name in names)
    assert sorted(hot) == ["_angle_ints", "_angle_sums", "_basic_values",
                           "_boundary_faces", "_check_realization",
                           "_combination", "_corner_sums", "_edge_sums",
                           "_edge_tally", "_eliminate", "_from_slice",
                           "_least_bound", "_leaving", "_lifted", "_pivot",
                           "_pivot_loop", "_primitive", "_projection",
                           "_quad_areas", "_supports", "_tableau",
                           "_tally_table", "_tetrahedral",
                           "is_in_solution_space", "verify_certificate"]
    for fn in hot.values():
        for node in ast.walk(fn):
            assert not (isinstance(node, ast.Name) and node.id == "Fraction")
            assert not isinstance(node, ast.Div)


def test_angle_sums_are_tallied_in_one_place():
    # angle_structures._angle_sums sums an assignment's angles at each
    # corner and around each edge class.  The realized data, the
    # re-verification of a solve and the flat-pair check read its ints
    # (the flat-pair check its corner sums, from _angle_ints) and call no
    # sum() of their own; existence and perturbation read no assignment's
    # _scaled view at all: there _scaled is read off an LP answer (res, a
    # Solution or a Certificate) or the perturbation family (fam, self)
    # alone.  The paper sets no per-corner rule by the vertex link's Euler
    # characteristic, and the package keeps none.
    import anglestruct
    from anglestruct import angle_structures
    for name in ("check_vertex_link_conditions", "VertexConditionEntry"):
        assert not hasattr(anglestruct, name)
        assert not hasattr(angle_structures, name)
    readers = {"angle_structures.py": ("realized_area_curvature",
                                       "is_flat_pair"),
               "existence.py": ("_check_realization",)}
    found = []
    for module, names in readers.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                found.append(fn.name)
                assert not any(isinstance(node, ast.Name) and
                               node.id == "sum" for node in ast.walk(fn))
    assert len(found) == 3
    receivers = {"existence.py": {"res"},
                 "perturbation.py": {"fam", "self"}}
    for module, allowed in receivers.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        read = {ast.unparse(n.value) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "_scaled"}
        assert read == allowed, module


def test_edge_functionals_read_the_one_edge_tally():
    # normal_coords._tally_table is the one place an edge class's
    # distinct corners are listed as crossing columns and the valences'
    # lcm taken, once per triangulation, which keeps it as
    # t._edge_tally; _edge_sums, which sums that table's rows, is the
    # one place the columns are summed.  chi*, z, chi^(A,k), decompose
    # and the basis check read the kept table through _edge_sums, and
    # take no lcm of their own; the first four read no class's corners,
    # so a folded corner is counted one way everywhere.
    tree = ast.parse((PACKAGE / "normal_coords.py").read_text(
        encoding="utf-8"))
    fns = {fn.name: fn for fn in tree.body
           if isinstance(fn, ast.FunctionDef)}
    lcm_takers = {name for name, fn in fns.items()
                  if any(isinstance(n, ast.Name) and n.id == "lcm"
                         for n in ast.walk(fn))}
    assert "_tally_table" in lcm_takers and "_edge_sums" not in lcm_takers
    readers = ("chi_star", "z_functional", "chi_area_curvature", "decompose",
               "solution_space_basis")
    for name in readers:
        nodes = list(ast.walk(fns[name]))
        assert name not in lcm_takers, name
        assert any(isinstance(n, ast.Name) and n.id == "_edge_sums"
                   for n in nodes), name
        assert any(isinstance(n, ast.Attribute) and n.attr == "_edge_tally"
                   for n in nodes), name
        assert not any(isinstance(n, ast.Name) and n.id == "_tally_table"
                       for n in nodes), name
        if name != "solution_space_basis":
            assert not any(isinstance(n, ast.Attribute) and
                           n.attr == "corners" for n in nodes), name


def test_the_normal_surface_layer_has_no_boundary_branch():
    # The basis, the dual pairing identity and analyze take one path on
    # every table, boundary faces included: none asks for the boundary
    # faces.  The identity reads its targets from existence._targets, as
    # the solvers do, and no class's is_boundary or curvature of its own,
    # so a boundary class's b = 1 - kappa is stated in one place.
    fns = {}
    for module in ("normal_coords.py", "existence.py", "cli.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        fns.update((fn.name, list(ast.walk(fn))) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef))
    for name in ("solution_space_basis", "identity_4_9", "cmd_analyze"):
        assert "boundary_faces" not in {
            n.attr for n in fns[name] if isinstance(n, ast.Attribute)}, name
    identity = fns["identity_4_9"]
    assert any(isinstance(n, ast.Name) and n.id == "_targets"
               for n in identity)
    assert not {"is_boundary", "curvature"} & {
        n.attr for n in identity if isinstance(n, ast.Attribute)}


def test_cli_handlers_leave_the_header_to_emit():
    # cli._emit adds "schema", "command" and "exit_code" to the body each
    # cmd_* hands it, and main returns EXIT_OK once the handler returns,
    # so no handler spells the header or an exit code of its own.  The
    # handlers take their files' values from main: none reads a file or
    # a reader, and the digests under "inputs" are _emit's to write.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    handlers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")]
    assert len(handlers) == 6
    for fn in handlers:
        for node in ast.walk(fn):
            assert not (isinstance(node, ast.Constant)
                        and node.value in ("schema", "inputs")), fn.name
            assert not (isinstance(node, ast.Name) and (
                node.id.startswith("_load")
                or node.id in ("_READERS", "open"))), fn.name
            assert "inputs" not in (getattr(node, "arg", None),
                                    getattr(node, "attr", None)), fn.name
            assert not (isinstance(node, ast.Name)
                        and node.id == "EXIT_OK"), fn.name
            assert not (isinstance(node, ast.Return)
                        and node.value is not None), fn.name


def test_triangulation_reads_its_tables():
    # The 24 permutations' inverses, parities and spellings are tables
    # built once: the gluing check, the parser and both signed searches
    # look them up and work out no parity or inverse per call.  The edge
    # walk reads the raw gluing table and calls no Triangulation method,
    # and certify's angle check walks no edge class.
    from anglestruct.triangulation import Triangulation
    fns = {}
    for module in ("triangulation.py", "cli.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        fns.update((fn.name, list(ast.walk(fn))) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef))
    for name in ("_glue", "parse_triangulation", "build_vertex_classes",
                 "is_orientable"):
        assert not {"perm_parity", "inverse"} & {
            n.id for n in fns[name] if isinstance(n, ast.Name)}, name
    methods = {name for name in vars(Triangulation) if name[0] != "_"}
    assert {"gluing", "glued_pairs", "edge_classes"} <= methods
    assert not methods & {n.attr for n in fns["_walk"]
                          if isinstance(n, ast.Attribute)}
    for name in ("cmd_certify", "_load_inputs"):
        assert "edge_classes" not in {
            n.attr for n in fns[name] if isinstance(n, ast.Attribute)}, name


def _package_imports(module: str) -> set:
    """The package modules that module imports from, by name."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_normal_coords_owns_the_coordinate_layout():
    # The layering runs triangulation -> angle_structures -> normal_coords
    # -> existence: angles know nothing of coordinates, and certify's
    # quad slice and witness come from normal_coords' one projection
    # along the vertex-link forest, which keeps no triangles-first
    # echelon form.  No other module spells an offset into the 3n quads,
    # then 4n triangles layout, or reads a compatibility system's rows,
    # and the helpers that did are gone.
    assert "normal_coords" not in _package_imports("angle_structures.py")
    assert "_linalg" not in _package_imports("existence.py")
    for path in MODULES:
        if path.name != "normal_coords.py":
            source = path.read_text(encoding="utf-8")
            assert "3 * t.tet_count" not in source, path.name
            assert "3 * n + 4 *" not in source, path.name
            assert "rows" not in {n.attr for n in ast.walk(ast.parse(source))
                                  if isinstance(n, ast.Attribute)}, path.name
    from anglestruct import _linalg, angle_structures, normal_coords
    assert not hasattr(normal_coords.CompatibilitySystem, "_echelon")
    assert not hasattr(normal_coords, "_edge_coefficients")
    assert not hasattr(angle_structures, "_quad_area")
    assert not hasattr(_linalg, "rank")


def test_no_second_name_for_a_value_the_package_holds():
    # Every refusal is its Certificate, with no record wrapping it, and a
    # strict point a Solution, like every other, with no margin restating
    # min(x); the census is the tuple of triples; a flat tetrahedron's
    # creases are always tet-edges 0 and 5; the basis's edge classes are
    # t.edge_classes; and an assignment or a coordinate is read through
    # its tuples, where an accessor that took an index past a
    # tetrahedron's end answered with the next tetrahedron's entry.  An
    # edge's curvature is read off realized_area_curvature, and a
    # triangle area's slope along a perturbation is its area at 1 minus
    # its area at 0; a triangle's area is read off it too, and a quad's
    # off _quad_areas, with no accessor by index beside them.  Corollary
    # 2's report says whether its hypothesis holds by its reason, and
    # whether each side holds by the type of that side's result.
    import anglestruct
    from anglestruct import (AngleAssignment, EquivalenceReport,
                             FlatTetrahedron, NormalCoordinate,
                             PerturbationFamily, SolutionBasis,
                             angle_structures)
    assert not hasattr(anglestruct, "NotStrict")
    assert not hasattr(anglestruct, "StrictSolution")
    assert not hasattr(anglestruct.lp_core, "StrictSolution")
    assert anglestruct.Solution._fields == ("x",)
    assert not hasattr(anglestruct, "EdgeAngleCensus")
    assert FlatTetrahedron._fields == ("tet",)
    assert SolutionBasis._fields == ("w_sigma", "w_edge")
    assert EquivalenceReport._fields == ("reason", "semi", "strict_result",
                                         "condition2_result")
    for cls in (AngleAssignment, NormalCoordinate):
        for name in ("angle", "quad", "tri"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(NormalCoordinate, "vector")
    assert not hasattr(anglestruct, "curvature")
    assert not hasattr(angle_structures, "curvature")
    assert not hasattr(PerturbationFamily, "triangle_area_slope")
    gone = {"Infeasible", "area_of_triangle", "area_of_quad", "_check_disk"}
    for path in [PACKAGE / "__init__.py", *MODULES]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {n.name for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & gone, path.name
    for module in [anglestruct, *(importlib.import_module(
            "anglestruct." + path.stem) for path in MODULES)]:
        assert not any(hasattr(module, name) for name in gone), module


def test_a_certificate_is_checked_against_its_systems_signs():
    # "no x >= 0" or "no x > 0" is said once, by the system's column
    # signs: the check takes no mode, and no module hands it, or the
    # solvers' _verified, a string beside the system.
    from anglestruct import lp_core
    for fn in (lp_core.verify_certificate, lp_core._verified):
        assert list(inspect.signature(fn).parameters) == ["sys", "y"]
    callers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("_verified", "verify_certificate"):
                callers.add(path.name)
                for arg in node.args + [k.value for k in node.keywords]:
                    for n in (arg, getattr(arg, "body", None),
                              getattr(arg, "orelse", None)):
                        assert not (isinstance(n, ast.Constant) and
                                    isinstance(n.value, str)), \
                            (path.name, node.lineno)
    assert callers == {"existence.py", "lp_core.py"}


def test_a_solve_mode_becomes_a_sign_in_one_place():
    # existence._system turns "semi" or "strict" into the columns' sign
    # and is the one place an unknown mode is refused; the targets, the
    # same for both modes, take no mode to validate.
    from anglestruct import existence
    assert list(inspect.signature(existence._targets).parameters) == \
        ["t", "ac"]
    raisers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                raisers += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Raise) and
                            "unknown solve mode" in ast.unparse(node)]
    assert raisers == [("existence.py", "_system")]


def test_the_package_builds_its_systems_past_the_gate():
    # LinearSystem.of gates, adds up and sorts each row, for callers'
    # numbers.  The package's own rows are already ints, sorted and
    # summed, so it builds no system through of(): existence hands them
    # to _of_ints, the ungated door, which no other module calls.
    defined, callers = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_of_ints":
                defined.append(path.name)
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                assert ast.unparse(node.func) != "LinearSystem.of", \
                    (path.name, node.lineno)
                if node.func.attr == "_of_ints":
                    callers.add(path.name)
    assert defined == ["lp_core.py"]
    assert callers == {"existence.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_records_take_no_generated_code(path):
    # Every record is a `_record.Record`, whose fields, defaults and field
    # getter are worked out when its class is made: no module imports
    # dataclasses, whose decorator writes and compiles six methods per
    # class, or a namedtuple factory.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(node.module + "." + alias.name
                            for alias in node.names)
    read = {(n.value.id, n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    banned = {"collections.namedtuple", "typing.NamedTuple"}
    assert "dataclasses" not in imported, path.name
    assert not imported & banned, path.name
    assert not {"%s.%s" % pair for pair in read} & banned, path.name


def test_echelon_takes_int_rows_from_the_projection_alone():
    # _linalg's echelon takes rows that are already dicts of nonzero
    # ints, so it scales nothing and imports nothing from _rational; the
    # one package caller is the compatibility system's projection, which
    # hands it the residuals of the forest's cycle arcs.
    assert "_rational" not in _package_imports("_linalg.py")
    callers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(fn.name, fn) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef)]
        scopes += [("%s.%s" % (cls.name, fn.name), fn) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)]
        for name, fn in scopes:
            callers += [(path.name, name) for node in ast.walk(fn)
                        if isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Name) and
                        node.func.id == "echelon"]
    assert callers == [("normal_coords.py", "CompatibilitySystem._projection")]


def test_a_solve_reads_its_answer_in_ints_and_its_targets_once():
    # _decide scales the targets once and hands them to _lifted, which
    # builds the paper's system from them; the solver's point and
    # certificate are read in the (den, ints) form they were read out of,
    # with no scaled() call on Fractions that unscaled() just built.
    tree = ast.parse((PACKAGE / "existence.py").read_text(encoding="utf-8"))
    fns = {fn.name: list(ast.walk(fn)) for fn in tree.body
           if isinstance(fn, ast.FunctionDef)}

    def called(name):
        return [n.func.id for n in fns[name] if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)]
    assert called("_decide").count("_targets") == 1
    assert not {"angle_linear_system", "scaled"} & set(called("_decide"))
    assert not {"_targets", "angle_linear_system", "scaled"} & \
        set(called("_lifted"))


def test_cli_reads_json_and_writes_its_own():
    # Reports are written by cli._json_text's own writer, which gives
    # json.dumps(obj, sort_keys=True, indent=2)'s bytes without its
    # pure-Python indenting encoder: json is imported for reading alone.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "json"} == \
        {"loads"}


def test_the_cli_prints_vectors_through_rational_and_builds_no_fraction():
    # A vector goes from the file read to the report written in its kept
    # (den, ints) form: cli names no Fraction, keeps no vector printer of
    # its own, and prints vectors by _rational.format_vector alone;
    # format_rational writes its single numbers, never a vector's entries.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = {(n.module, a.name) for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "Fraction" not in names | {name for _, name in imported}
    assert not {"fractions"} & {module for module, _ in imported}
    assert ("_rational", "format_vector") in imported
    assert "_vector" not in {n.name for n in ast.walk(tree)
                             if isinstance(n, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            assert "format_rational" not in {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "map":
            assert "format_rational" not in ast.unparse(node)


def test_the_summed_refusal_has_one_home_before_the_pair_system():
    # The summed Gauss-Bonnet identity is tested in one function,
    # existence._summed_refusal, and _decide alone calls it, once, before
    # it builds the pair system.
    callers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                callers += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and
                            isinstance(node.func, ast.Name) and
                            node.func.id == "_summed_refusal"]
    assert callers == [("existence.py", "_decide")]
    tree = ast.parse((PACKAGE / "existence.py").read_text(encoding="utf-8"))
    decide = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and fn.name == "_decide")
    calls = sorted((n.lineno, n.col_offset, n.func.id)
                   for n in ast.walk(decide) if isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Name))
    names = [name for *_, name in calls]
    assert names.index("_summed_refusal") < names.index("_pair_system")


def test_the_slack_start_lives_in_the_tableau_alone():
    # lp_core._tableau lays out the slack-basis start; _solve, its one
    # caller, only says whether to take it, and a basis entry is set
    # there and by a pivot alone.
    tree = ast.parse((PACKAGE / "lp_core.py").read_text(encoding="utf-8"))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    takers, setters = [], []
    for name, fn in fns.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "_tableau":
                takers.append(name)
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Subscript) and
                    ast.unparse(target.value) == "basis"
                    for target in node.targets):
                setters.append(name)
    assert takers == ["_solve"] and sorted(setters) == ["_pivot", "_tableau"]
    slack = [(path.name, node.name) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)
             and "slack" in [a.arg for a in node.args.args]]
    assert slack == [("lp_core.py", "_tableau")]


def test_no_public_function_gains_a_parameter_or_an_option():
    # The solvers and finders keep their signatures, the CLI its options,
    # and no module reads the environment.
    from anglestruct import cli, existence, lp_core
    public = {}
    for module in (lp_core, existence):
        public.update((name, list(inspect.signature(fn).parameters))
                      for name, fn in vars(module).items()
                      if inspect.isfunction(fn) and not name.startswith("_")
                      and fn.__module__ == module.__name__)
    assert public == {
        "solve_feasibility_nonneg": ["sys"],
        "solve_feasibility_strict": ["sys"],
        "minimize_linear": ["objective", "sys", "start"],
        "verify_certificate": ["sys", "y"],
        "angle_linear_system": ["t", "ac", "mode"],
        "find_semi_angle_structure": ["t", "ac"],
        "find_angle_structure": ["t", "ac"],
        "certify_condition2": ["t", "alpha"],
        "check_corollary2": ["t", "ac"],
        "identity_4_9": ["t", "alpha", "h", "z", "omega"]}
    assert {name: [flag for flag, _ in spec]
            for name, (_, _, spec) in cli._COMMANDS.items()} == {
        "validate": ["triangulation"], "analyze": ["triangulation"],
        "solve": ["triangulation", "ac", "--mode"],
        "certify": ["triangulation", "angles"],
        "perturb": ["triangulation", "angles"],
        "fixtures": ["name", "dir"]}
    for path in MODULES:
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name


def test_the_kept_exact_form_is_defined_once():
    # _rational.ScaledVector writes _scaled for every record that keeps
    # one rational vector as (den, ints), in two places alone: _of_scaled,
    # for ints its caller has gated, and __post_init__, which gates a
    # record built by its fields.  No record keeps that form under a
    # name of its own, and no function or property is named _scaled.
    # Only _rational writes a slot of a record's __dict__: Record's
    # __init__ fills the fields by update, by no slot.
    defined, writers, scaled_writers = [], set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            defined.append((path.name, fn.name))
            scaled_writers += [
                (path.name, fn.name) for node in ast.walk(fn)
                if isinstance(node, ast.Subscript) and
                isinstance(node.ctx, ast.Store) and
                ast.unparse(node.slice) == "'_scaled'"]
        for node in ast.walk(tree):
            assert not {"_scaled_x", "_scaled_y", "_ints"} & {
                getattr(node, "attr", None), getattr(node, "id", None),
                getattr(node, "name", None)}, path.name
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Store) and \
                    isinstance(node.value, ast.Attribute) and \
                    node.value.attr == "__dict__":
                writers.add(path.name)
    assert [d for d in defined if d[1] in ("_of_scaled", "_scaled")] == \
        [("_rational.py", "_of_scaled")]
    assert sorted(scaled_writers) == [("_rational.py", "__post_init__"),
                                      ("_rational.py", "_of_scaled")]
    assert writers == {"_rational.py"}


def test_rational_has_one_gate():
    # exact_scaled is the one gate and the one scaling of callers'
    # numbers: exact, which returned Fractions, scaled, which scaled
    # without a gate, and _gate, which both called, are gone.
    tree = ast.parse((PACKAGE / "_rational.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names.update(n.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets for n in ast.walk(target)
                 if isinstance(n, ast.Name))
    assert "exact_scaled" in names
    assert not {"exact", "scaled", "_gate"} & names


def test_the_fold_multiplicity_is_derived_once():
    # EdgeClass.mult derives an edge class's fold multiplicity; the link
    # count, the edge tally's table, the dual pairing identity and the
    # summed refusal read it and count no class's corners of their own.
    fns = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fns.update((fn.name, list(ast.walk(fn))) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef))
        assert not any(isinstance(n, ast.Attribute) and n.attr == "count"
                       and ast.unparse(n.value).endswith("corners")
                       for n in ast.walk(tree)), path.name
    for name in ("build_vertex_classes", "_tally_table", "identity_4_9",
                 "_summed_refusal"):
        attrs = {n.attr for n in fns[name] if isinstance(n, ast.Attribute)}
        assert "mult" in attrs, name
        if name != "identity_4_9":
            assert not any(isinstance(n, ast.Name) and n.id == "set"
                           for n in fns[name]), name
