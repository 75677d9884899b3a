"""The record contract, on every record type the package defines.

Every `_record.Record` subclass found in the package's modules is built
by keyword and by position, compared, hashed, printed, copied and
pickled, and refuses assignment, deletion and a wrong field.  Its repr
is checked against the one `dataclasses` prints for the same fields and
values; dataclasses is the oracle here only, and the package does not
import it.  A new record is picked up by the scan; the first test fails
until `_samples` builds one, so that the rest can run on it.  Every
cached property, inherited ones included, fills on first use.  Every
record that keeps a rational vector as (den, ints) keeps it through
`_rational.ScaledVector`, and refuses an inexact entry with its module's
error.  The import itself is pinned by count: it generates and compiles
no code.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest

from anglestruct import (AngleAssignment, AngleStructureError, AreaCurvature,
                         Certificate, EquivalenceReport, LinearSystem,
                         NormalCoordinate, NormalCoordinateError, Solution,
                         apply_theorem3, angle_linear_system,
                         certify_condition2, check_corollary2,
                         compatibility_system, fixture,
                         insert_flat_tetrahedron, minimize_linear,
                         solution_space_basis, solve_feasibility_nonneg,
                         solve_feasibility_strict)
from anglestruct._rational import ScaledVector, unscaled
from anglestruct._record import FrozenInstanceError, Record
from anglestruct.lp_core import NONNEG, STRICT_POS, LPError, Optimum
from anglestruct.perturbation import PerturbationError, PerturbationFamily

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anglestruct"


def _record_types() -> list:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("anglestruct." + path.stem)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Record) and cls is not Record:
                found[cls.__qualname__] = cls
    return [found[name] for name in sorted(found)]


RECORDS = _record_types()


def _samples() -> dict:
    """One record of each type, taken from the package's own answers."""
    fig8, qzero, flat = (fixture(name) for name in
                         ("fig8", "fig8-qzero", "fig8-flat1"))
    t = fig8.triangulation
    one = LinearSystem.of([[(0, 1), (1, -1)]], [1], [NONNEG] * 2)
    infeasible = solve_feasibility_nonneg(
        LinearSystem.of([[(0, 1)]], [-1], [NONNEG]))
    fails = certify_condition2(qzero.triangulation, qzero.angles)
    perturbed = apply_theorem3(flat.angles, flat.triangulation)
    found = [
        fig8, fig8.angles, fig8.ac, t.edge_classes[0], t.vertex_classes[0],
        insert_flat_tetrahedron(t, (0, 0), (1, 0), (0, 1, 3, 2))[1],
        angle_linear_system(t, fig8.ac, "strict"),
        solve_feasibility_nonneg(one),
        solve_feasibility_strict(
            LinearSystem.of([[(0, 1)]], [1], [STRICT_POS])),
        infeasible, infeasible.certificate,
        minimize_linear([1, 0], one), minimize_linear([-1, 0], one),
        certify_condition2(t, fig8.angles), fails, fails.witness,
        check_corollary2(t, fig8.ac), compatibility_system(t),
        solution_space_basis(t), perturbed, perturbed.family,
    ]
    return {type(r): r for r in found}


SAMPLES = _samples()


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_type_has_a_sample():
    assert len(RECORDS) >= 20
    assert sorted(c.__qualname__ for c in SAMPLES) == \
        [c.__qualname__ for c in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_a_record_is_built_by_keyword_or_by_position(cls):
    values = _values(SAMPLES[cls])
    by_name = cls(**dict(zip(cls._fields, values)))
    assert by_name == cls(*values) == SAMPLES[cls]
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == \
        by_name
    assert cls._fields == tuple(cls.__annotations__)
    assert cls.__doc__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_a_record_is_frozen(cls):
    record = SAMPLES[cls]
    field = cls._fields[0]
    for name in (field, "other"):
        with pytest.raises(FrozenInstanceError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    assert getattr(record, field) is _values(record)[0]
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_equal_records_hash_equal_as_their_fields(cls):
    record = SAMPLES[cls]
    again = cls(**dict(zip(cls._fields, _values(record))))
    assert again == record and not again != record
    assert record != _values(record)
    assert hash(again) == hash(record) == hash(_values(record))


def test_records_of_two_types_differ_on_equal_fields():
    assert Certificate(y=(1,)) != Solution(x=(1,))
    assert not Certificate(y=(1,)) == Solution(x=(1,))
    assert Certificate(y=(1,)) != Certificate(y=(2,))
    assert len({Certificate(y=(1,)), Certificate((1,)), Solution((1,))}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_repr_is_the_one_dataclass_prints(cls):
    oracle = dataclasses.make_dataclass(cls.__qualname__, cls._fields,
                                        frozen=True)
    values = _values(SAMPLES[cls])
    assert repr(SAMPLES[cls]) == repr(oracle(*values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_a_missing_unknown_or_repeated_field_is_refused(cls):
    values = dict(zip(cls._fields, _values(SAMPLES[cls])))
    first = cls._fields[0]
    refused = re.escape("%s() takes fields %r; got " % (cls.__qualname__,
                                                       cls._fields))
    with pytest.raises(TypeError, match=refused + r"0 by position"):
        cls(**{k: v for k, v in values.items() if k != first})
    with pytest.raises(TypeError,
                       match=refused + r"0 by position and \('other', "):
        cls(other=1, **values)
    with pytest.raises(TypeError, match=refused + "1 by position"):
        cls(values[first], **values)
    with pytest.raises(TypeError, match=refused + "%d by" % (len(values) + 1)):
        cls(*values.values(), None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_copies_and_pickles_are_equal(cls):
    record = SAMPLES[cls]
    for twin in (copy.deepcopy(record), copy.copy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
        with pytest.raises(FrozenInstanceError):
            setattr(twin, cls._fields[0], None)


def _cached_properties(cls) -> list:
    """The names of cls's cached properties, its own and inherited."""
    return sorted({name for klass in cls.__mro__
                   for name, attr in vars(klass).items()
                   if isinstance(attr, cached_property)})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_cached_properties_fill_after_construction(cls):
    record = cls(*_values(SAMPLES[cls]))
    for name in _cached_properties(cls):
        assert name not in record.__dict__
        value = getattr(record, name)
        assert record.__dict__[name] is value is getattr(record, name)


# Every record that keeps one rational vector as (den, ints), with the
# error its module raises on an inexact entry.
VECTOR_ERRORS = {AngleAssignment: AngleStructureError,
                 AreaCurvature: AngleStructureError, Certificate: LPError,
                 NormalCoordinate: NormalCoordinateError, Optimum: LPError,
                 PerturbationFamily: PerturbationError, Solution: LPError}


def test_the_vector_records_are_the_scaled_ones():
    assert sorted(c.__qualname__ for c in RECORDS
                  if issubclass(c, ScaledVector)) == \
        sorted(c.__qualname__ for c in VECTOR_ERRORS)
    assert [c for c in RECORDS if "_scaled" in _cached_properties(c)] == \
        [c for c in RECORDS if c in VECTOR_ERRORS]


@pytest.mark.parametrize("cls", VECTOR_ERRORS, ids=lambda c: c.__qualname__)
def test_a_vector_record_keeps_its_scaled_form(cls):
    # _of_scaled builds the record its (den, ints) form stands for, over
    # any multiple of its denominator, and keeps that form reduced; an
    # inexact entry is refused with the module's error, at construction
    # or when the form is first derived.  A class whose split is not
    # fixed (AreaCurvature) is given its first field's length as _cut.
    record = SAMPLES[cls]
    fields = dict(zip(cls._fields, _values(record)))
    den, ints = form = cls(**fields)._scaled
    assert den > 0 and all(type(v) is int for v in ints)
    others = {f: v for f, v in fields.items() if f not in cls._vector}
    if None in cls._vector.values():
        others["_cut"] = len(fields[next(iter(cls._vector))])
    again = cls._of_scaled(6 * den, [6 * v for v in ints], **others)
    assert again == record and again.__dict__["_scaled"] == form
    assert again._scaled is again.__dict__["_scaled"]
    first = next(iter(cls._vector))
    fields[first] = (0.5,) + tuple(fields[first][1:])
    with pytest.raises(VECTOR_ERRORS[cls], match=re.escape(
            "entry 0 is 0.5, not an int or a Fraction")):
        cls(**fields)._scaled


def _kept_twin(cls):
    """(record, den, ints): the sample rebuilt by _of_scaled from the
    (den, ints) form of its Fraction-built twin, and that form."""
    fields = dict(zip(cls._fields, _values(SAMPLES[cls])))
    den, ints = cls(**fields)._scaled
    others = {f: v for f, v in fields.items() if f not in cls._vector}
    if None in cls._vector.values():
        others["_cut"] = len(fields[next(iter(cls._vector))])
    return cls._of_scaled(den, ints, **others), den, ints


@pytest.mark.parametrize("cls", VECTOR_ERRORS, ids=lambda c: c.__qualname__)
def test_a_record_built_from_ints_reads_back_as_its_fraction_twin(cls):
    # A record built from ints keeps them alone; its vector fields are
    # the Fractions unscaled(den, ints), cut by the fields' shares, built
    # on the first read of any field and kept.  It equals, hashes and
    # prints as the record built from those Fractions, each compared
    # on a record that has not built them yet.
    twin = cls(**dict(zip(cls._fields, _values(SAMPLES[cls]))))
    record, den, ints = _kept_twin(cls)
    assert not set(cls._vector) & record.__dict__.keys()
    built = [v for name in cls._vector for v in getattr(record, name)]
    assert tuple(built) == unscaled(den, ints)
    assert all(type(getattr(record, name)) is tuple for name in cls._vector)
    assert all(getattr(record, name) is record.__dict__[name]
               for name in cls._vector)
    for read in (lambda r: r == twin, lambda r: hash(r) == hash(twin),
                 lambda r: repr(r) == repr(twin), lambda r: twin == r):
        assert read(_kept_twin(cls)[0])
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        record.other


def test_equivalence_report_defaults_apply():
    report = EquivalenceReport(reason="why")
    assert _values(report) == ("why",) + (None,) * 3
    assert report == EquivalenceReport("why", None)
    assert EquivalenceReport("ok", condition2_result=True).condition2_result


def test_post_init_gates_refuse_inexact_entries():
    with pytest.raises(AngleStructureError, match=re.escape(
            "AngleAssignment angles entry 1 is 0.5, not an int or a "
            "Fraction")):
        AngleAssignment(angles=(F(1, 3), 0.5) + (0,) * 4)
    with pytest.raises(AngleStructureError,
                       match="AreaCurvature curvature entry 0 is True"):
        AreaCurvature(area=(F(0),), curvature=(True,))
    with pytest.raises(AngleStructureError, match="7 angles are not 6n"):
        AngleAssignment(angles=(0,) * 7)
    with pytest.raises(NormalCoordinateError,
                       match="3 quads and 3 triangles are not 3n and 4n"):
        NormalCoordinate(quads=(0,) * 3, tris=(0,) * 3)
    alpha = AngleAssignment((0, F(1, 2), 1) * 2)
    assert alpha.angles == (0, F(1, 2), 1) * 2
    assert all(type(a) is F for a in alpha.angles)


def _stdlib_imports() -> list:
    """The stdlib modules the package's sources import."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return sorted(names - {"__future__"})


def test_the_import_generates_and_compiles_no_code(tmp_path):
    # With the stdlib modules the package uses imported first, importing
    # the CLI compiles the package's own files when they have no
    # bytecode, and never a generated source: no "<string>" compile.  The
    # first run compiles from source into an empty bytecode cache, the
    # second reads it.
    script = (
        "import sys\n"
        "for name in %r: __import__(name)\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, args: seen.append(args[1])\n"
        "                 if event == 'compile' else None)\n"
        "import anglestruct.cli\n"
        "print(len(seen), seen.count('<string>'),\n"
        "      'dataclasses' in sys.modules)\n" % _stdlib_imports())
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               PYTHONPYCACHEPREFIX=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        compiled, generated, dataclasses_loaded = proc.stdout.split()
        assert (generated, dataclasses_loaded) == ("0", "False")
        counts.append(int(compiled))
    assert counts[0] >= len(list(PACKAGE.glob("*.py"))) > counts[1] == 0
