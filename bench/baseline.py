"""Run every workload untraced and traced, print each metric, and record
the measurements in bench/BASELINE.json.

    python3 bench/baseline.py [--seed 1] [--seconds 40]

Each workload runs in its own process through bench/run.py, once with
tracing off (end-to-end metrics) and once with tracing on (per-layer
metrics).  The two runs must agree on the report digest, since tracing
must not change a single byte of any CLI report.  What the workloads
do, and what is left out, is described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_workload(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s (trace %d) exited %d"
                         % (name, trace, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = next(json.loads(line[len("details "):])
                   for line in reversed(proc.stderr.splitlines())
                   if line.startswith("details "))
    return result, details


def _measured(result, details) -> dict:
    return {"passes": details["passes"], "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "metrics": {name: m["value"]
                        for name, m in sorted(result["metrics"].items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    record = {
        "seed": args.seed,
        "run_seconds": seconds,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        plain, plain_details = run_workload(name, args.seed, seconds, 0)
        traced, traced_details = run_workload(name, args.seed, seconds, 1)
        same = plain_details["report_digest"] == \
            traced_details["report_digest"]
        ok = ok and plain["correct"] and traced["correct"] and same
        print("%s (seed %d): correct %s, %d attempted, %d failed, "
              "%d known defects, digest %s%s"
              % (name, args.seed, plain["correct"] and traced["correct"],
                 plain["attempted"], plain["failed"],
                 len(plain_details["known_defects"]),
                 plain_details["report_digest"][:16],
                 "" if same else " (traced run differs)"))
        for label, metrics in (("end-to-end", plain["metrics"]),
                               ("per-layer", traced["metrics"])):
            for metric, m in sorted(metrics.items()):
                print("  %-10s %-45s %14.6g %s"
                      % (label, metric, m["value"], m["unit"]))
        record["workloads"][name] = {
            "report_digest": plain_details["report_digest"],
            "known_defects": len(plain_details["known_defects"]),
            "untraced": _measured(plain, plain_details),
            "traced": _measured(traced, traced_details),
        }
    path = os.path.join(BENCH_DIR, "BASELINE.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(path, ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
