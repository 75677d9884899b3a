"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload closed-solve --seed 1 --seconds 40

Run from the repository root; the package is imported from ``src/``.
Set-up builds the workload's input files from the seed; it runs several
times, and the median set-up is reported.  A run then makes one pass
over the op sequence, whose length is fixed by the workload.  Every
timed interval is calibrated against a reference loop run just before
and just after it (see ``Clock``), so that the figures follow the code
and not the speed the machine happens to have at the moment.
``--seconds`` is the run's time budget; a run that overruns it says so
on stderr.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` public functions are wrapped in spans, a traced pass is
followed by a pass with recording switched off, and the metrics are per
layer.
Progress, failures, known defects and the report digest go to stderr;
the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("closed-solve", "closed-certify", "flat-stack")
# Set-ups per run; the median is reported.  A closed set-up takes about
# a tenth of a second and a flat-stack one about a second.  A traced run
# needs only a few, since its counts repeat exactly.
SETUPS = {"closed-solve": 15, "closed-certify": 15, "flat-stack": 7}
TRACED_SETUPS = 3
OP_KINDS = ("validate", "analyze", "solve", "certify", "perturb", "chi")
BENCH_MODULES = ("workloads", "generators")

# The reference loop's time between ops on the machine where the
# benchmark was tuned (2 shared cores, Python 3.11.7), in its fast spells.
# Every reported time is in seconds of a machine that runs the loop this
# fast, so it reads about like the wall time of a fast spell there.
REF_S = 0.005


def reference_work() -> Fraction:
    """A fixed piece of pure-Python work like the package's own: exact
    row operations on Fractions, then dict updates on tuple keys."""
    row = [Fraction(i, 7) for i in range(1, 40)]
    total = Fraction(0)
    for k in range(1, 30):
        f = Fraction(k, k + 3)
        row = [a - f * b for a, b in zip(row, row[1:] + row[:1])]
        total += row[k % len(row)]
    counts = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return total


class Clock:
    """Calibrates measured intervals against the reference loop.

    A shared machine runs the same code up to twice as fast in one minute
    as in the next, in process time as much as in wall time.  The
    reference loop slows down with it, so each interval is scaled by
    REF_S over the mean of the reference times just before and just after
    it.  The reference is the benchmark's own code, so a change to the
    package moves the calibrated time in full.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.reset()

    @staticmethod
    def _reference() -> float:
        # With the collector off, the loop's time does not depend on how
        # many objects the package keeps alive.
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def reset(self) -> None:
        """Time the reference before an interval that does not follow a
        lap directly."""
        self.ref_s = self._reference()

    def lap(self, elapsed: float) -> float:
        """The calibrated value of ``elapsed``, an interval that began
        after the last reference; times the reference again."""
        before, self.ref_s = self.ref_s, self._reference()
        self.raw_s += elapsed
        return elapsed * 2 * REF_S / (before + self.ref_s)


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name == "anglestruct" or name.startswith("anglestruct.") or \
                name in BENCH_MODULES:
            del sys.modules[name]


def setup_once(workload, seed, workdir, tracer, clock):
    """Import the package afresh and build the inputs.

    Returns (calibrated set-up time, ops, sha256 of the written files).
    The import and the input build are timed as two intervals; installing
    the tracer and clearing the work directory are not part of the
    set-up.  Timing each table on its own would put a reference loop
    between tables, and that changes the time of the small stages it
    separates.
    """
    _purge_modules()
    clock.reset()
    start = time.perf_counter()
    importlib.import_module("anglestruct.cli")
    total = clock.lap(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()
        tracer.install()
    workloads = importlib.import_module("workloads")
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    clock.reset()
    start = time.perf_counter()
    ops = workloads.SETUPS[workload](seed, workloads.Workdir(workdir))
    total += clock.lap(time.perf_counter() - start)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return total, ops, digest.hexdigest()


class Pass:
    """Outcome of one run through the op sequence."""

    def __init__(self):
        self.op_s = {kind: 0.0 for kind in OP_KINDS}
        self.failures = []
        self.known = []
        self.report_bytes = 0
        self.digest = hashlib.sha256()

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())


def run_pass(ops, known_type, clock, tracer=None) -> Pass:
    """Run every op once; checks run with tracing paused, between the
    timed intervals."""
    p = Pass()
    clock.reset()
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.call()
        except (Exception, SystemExit) as err:  # an op failure, not ours
            out = err
        p.op_s[op.kind] += clock.lap(time.perf_counter() - start)
        stdout = getattr(out, "stdout", None)
        if stdout is not None:
            data = stdout.encode("utf-8")
            p.report_bytes += len(data)
            p.digest.update(op.label.encode() + b"\0" + data + b"\0")
        if tracer:
            tracer.enabled = False
        try:
            verdict = op.check(out)
        except Exception as err:  # a crashing check fails the op
            verdict = "check raised %s: %s" % (type(err).__name__, err)
        if tracer:
            tracer.enabled = True
        if isinstance(verdict, known_type):
            p.known.append((op.label, verdict.reason))
        elif verdict is not None:
            p.failures.append((op.label, verdict))
    return p


def _layer_metrics(phase, p=None) -> dict:
    """Per-layer numbers of one traced phase (a set-up or a pass)."""
    from tracer import LAYERS
    out = {}
    for layer in LAYERS:
        prefix = layer.lstrip("_") + "."
        out[prefix + "self_s"] = sum(
            v for k, v in phase.self_s.items() if k.startswith(prefix))
    for name in ("triangulation.build_edge_classes",
                 "normal_coords.is_in_solution_space",
                 "normal_coords.z_functional",
                 "normal_coords.compatibility_system",
                 "linalg.rank",
                 "angle_structures.realized_area_curvature",
                 "existence.angle_linear_system",
                 "lp_core.verify_certificate",
                 "perturbation.build_perturbation"):
        out[name + ".calls"] = phase.calls[name]
    for name in ("normal_coords.is_in_solution_space",
                 "lp_core.solve_feasibility_nonneg",
                 "lp_core.solve_feasibility_strict",
                 "lp_core.minimize_linear"):
        out[name + ".self_s"] = phase.self_s[name]
    for key in ("rows", "cols", "free_cols", "nonzeros"):
        out["lp_core." + key] = phase.lp[key]
    out["lp_core.result_bits"] = phase.lp_result_bits
    out["cli.report_bytes"] = p.report_bytes if p else 0
    out["cli.analyze.known_defects"] = len(p.known) if p else 0
    for kind in OP_KINDS:
        out["op.%s_s" % kind] = p.op_s[kind] if p else 0.0
    return out


def _combine(setup_phases, pass_phase) -> dict:
    """Median set-up phase plus the pass, metric by metric; counts and
    sizes repeat exactly in every set-up, so their medians are the
    values."""
    out = {}
    for key, run in pass_phase.items():
        setup = statistics.median(ph[key] for ph in setup_phases)
        out[key] = max(setup, run) if key.endswith("_bits") else setup + run
    return out


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {"calls": "count", "self_s": "s", "rows": "count", "cols": "count",
         "free_cols": "count", "nonzeros": "count", "result_bits": "bits",
         "report_bytes": "bytes", "known_defects": "count",
         "overhead_ratio": "ratio"}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return UNITS.get(last, "s")


def run(workload, seed, seconds, trace, workdir):
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    clock = Clock()
    started = time.perf_counter()
    setup_times, setup_digests, setup_phases = [], set(), []

    def set_up():
        setup_s, ops, digest = setup_once(workload, seed, workdir, tracer,
                                          clock)
        setup_times.append(setup_s)
        setup_digests.add(digest)
        if tracer:
            setup_phases.append(_layer_metrics(tracer.next_phase()))
        return ops

    # Half the set-ups run before the pass and half after it, so that
    # their median does not rest on a single spell of the machine.
    count = TRACED_SETUPS if trace else SETUPS[workload]
    for _ in range(count - count // 2):
        ops = set_up()
    known_type = sys.modules["workloads"].KnownDefect
    passes = [run_pass(ops, known_type, clock, tracer)]
    if tracer:
        pass_phase = _layer_metrics(tracer.next_phase(), passes[0])
        # The wrappers stay in place but record nothing, so the ratio of
        # the two passes is the cost of recording spans.
        tracer.enabled = False
        passes.append(run_pass(ops, known_type, clock))
        tracer.enabled = True
    for _ in range(count // 2):
        set_up()
    took = time.perf_counter() - started

    failures = [f for p in passes for f in p.failures]
    pass_digests = {p.digest.hexdigest() for p in passes}
    problems = []
    if len(setup_digests) != 1:
        problems.append("set-up wrote different files on repeat")
    if len(pass_digests) != 1:
        problems.append("CLI reports differ between passes")

    details = {
        "workload": workload, "seed": seed, "setups": len(setup_times),
        "setup_s": setup_times,
        "passes": len(passes), "ops_per_pass": len(ops),
        "op_s": passes[0].op_s,
        "uncalibrated_s": clock.raw_s, "run_s": took,
        "report_digest": sorted(pass_digests)[0],
        "known_defects": passes[0].known,
        "failures": failures + [("run", problem) for problem in problems],
    }
    if tracer:
        metrics = _combine(setup_phases, pass_phase)
        metrics["trace.overhead_ratio"] = passes[0].wall_s / passes[1].wall_s
        details["trace_file"] = _write_trace(tracer, workload, seed)
    else:
        metrics = {
            "wall_s": passes[0].wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    print("workload %(workload)s seed %(seed)d: %(setups)d set-ups, "
          "%(passes)d passes of %(ops_per_pass)d ops in %(run_s).1f s"
          % details, file=sys.stderr)
    if took > seconds:
        print("  warning: the run took %.1f s, over its %g s budget"
              % (took, seconds), file=sys.stderr)
    for label, reason in details["known_defects"]:
        print("  known defect: %s: %s" % (label, reason), file=sys.stderr)
    for label, reason in details["failures"]:
        print("  FAILED %s: %s" % (label, reason), file=sys.stderr)
    print("details " + json.dumps(details, sort_keys=True), file=sys.stderr)
    return {
        "correct": not details["failures"],
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": value,
                           "unit": _unit(name) if trace
                           else END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }


def _write_trace(tracer, workload, seed) -> str:
    """Spans as [name, start, end, parent index], times from run start."""
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(outdir, "%s-seed%d.trace.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[n, round(s - t0, 7), round(e - t0, 7), par]
                   for n, s, e, par in tracer.spans], fh)
        fh.write("\n")
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "anglestruct", "__init__.py")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", "%s-seed%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
