"""Every CLI report on the bundled fixtures, pinned by digest across commits.

For each fixture its files are written, then `validate` and `analyze`
run on its table, `solve` in both modes against its target, and
`certify` and `perturb` against its angles where it has them, each in
process with ``--json``.  ``tests/data/cli_report_digests.json`` holds
each run's exit code and the sha256 of its stdout; stderr, which
carries the elapsed time, is not pinned.  A change that alters report
bytes on purpose rewrites the table with

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python tests/test_cli_digests.py

and says which reports changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from anglestruct.cli import main
from anglestruct.fixtures import fixture, fixture_names

TABLE = Path(__file__).resolve().parent / "data" / "cli_report_digests.json"


def _run(argv) -> tuple:
    """(exit code, stdout) of main(argv), stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _runs(name: str, directory: str) -> dict:
    """run key -> argv for every pinned command on fixture name, once its
    files are written to directory."""
    code, _ = _run(["fixtures", name, directory])
    assert code == 0
    tri, ac, angles = (os.path.join(directory, name + suffix)
                       for suffix in (".tri", ".ac.json", ".angles.json"))
    runs = {"validate": ["validate", tri], "analyze": ["analyze", tri]}
    for mode in ("semi", "strict"):
        runs["solve " + mode] = ["solve", tri, ac, "--mode", mode]
    if fixture(name).angles is not None:
        runs["certify"] = ["certify", tri, angles]
        runs["perturb"] = ["perturb", tri, angles]
    return {"%s %s" % (name, key): argv + ["--json"]
            for key, argv in runs.items()}


def _digest(argv) -> tuple:
    """({"exit_code", "sha256"}, stdout) of one run."""
    code, out = _run(argv)
    return ({"exit_code": code,
             "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()},
            out)


@pytest.mark.parametrize("name", fixture_names())
def test_every_report_matches_its_pinned_digest(name, tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    runs = _runs(name, str(tmp_path))
    assert sorted(runs) == sorted(k for k in table
                              if k.split(" ", 1)[0] == name)
    for key, argv in runs.items():
        got, out = _digest(argv)
        assert got == table[key], "%s changed; its report is now:\n%s" % (
            key, out)


def _write_table() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as directory:
        for name in fixture_names():
            sub = os.path.join(directory, name)
            os.mkdir(sub)
            for key, argv in _runs(name, sub).items():
                table[key] = _digest(argv)[0]
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_table()
