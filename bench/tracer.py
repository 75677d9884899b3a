"""Span tracer that wraps the package's public functions from outside.

Modules import functions by name, so a function is replaced in every
``anglestruct`` module namespace that binds it, not only in the module
that defines it.  Each call records a span (name, start, end, parent);
self time is a span's duration minus the time its child spans cover.
Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

# The package modules measured as layers, in pipeline order.
LAYERS = ("cli", "triangulation", "normal_coords", "_linalg",
          "angle_structures", "existence", "lp_core", "perturbation")

# lp_core entry points whose LinearSystem argument is measured.
LP_SOLVERS = ("solve_feasibility_nonneg", "solve_feasibility_strict",
              "minimize_linear")


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, abs(v.numerator).bit_length(),
                       v.denominator.bit_length())
    return best


def _result_bits(result) -> int:
    """Largest numerator or denominator bit length in x, y or the optimum."""
    values = []
    for field in ("x", "value", "margin"):
        v = getattr(result, field, None)
        if isinstance(v, tuple):
            values.extend(v)
        elif v is not None:
            values.append(v)
    cert = getattr(result, "certificate", None)
    if cert is not None:
        values.extend(cert.y)
    return _bits(values)


class Phase:
    """Counts and self times gathered between two phase boundaries."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.lp = Counter()
        self.lp_result_bits = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = True
        self.phase = Phase()
        self._stack = []
        self._patched = []

    def install(self) -> None:
        package = sys.modules["anglestruct"]
        namespaces = [package] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("anglestruct.") and m is not None]
        for layer in LAYERS:
            module = sys.modules["anglestruct." + layer]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(layer.lstrip("_") + "." + attr, fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, wrapper)
                            self._patched.append((ns, name, fn))

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched.clear()

    def next_phase(self) -> Phase:
        """Close the current phase and return it."""
        done, self.phase = self.phase, Phase()
        return done

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        measure_lp = name.startswith("lp_core.") and \
            name.split(".", 1)[1] in LP_SOLVERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                duration = end - start
                phase = self.phase
                phase.calls[name] += 1
                phase.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if measure_lp:
                self._record_lp(args, result)
            return result

        return wrapper

    def _record_lp(self, args, result) -> None:
        system = args[-1]
        lp = self.phase.lp
        lp["rows"] += system.row_count
        lp["cols"] += system.col_count
        lp["free_cols"] += sum(1 for s in system.signs if s == "free")
        lp["nonzeros"] += sum(1 for row in system.coeffs for v in row if v)
        self.phase.lp_result_bits = max(self.phase.lp_result_bits,
                                        _result_bits(result))
