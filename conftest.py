"""Pytest set-up for the whole repository.

Bytecode goes under .pytest_cache/pycache, both in the test process and
in the subprocesses the tests start, so that running the tests leaves no
__pycache__ in src/, bench/ or tests/.  The benchmark re-imports the
package from src/ in every set-up, and a __pycache__ left there would
make that import read faster than in a fresh checkout.
"""

import os
import sys
from pathlib import Path

if sys.pycache_prefix is None:
    sys.pycache_prefix = str(
        Path(__file__).resolve().parent / ".pytest_cache" / "pycache")
os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
