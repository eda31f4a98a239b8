"""Smoke test of the benchmark itself: every workload at a tiny grid.

    python3 perfbench/smoke.py

Runs each workload through run.py untraced and traced at a 32x8 grid (the
smallest the default pulse allows) and checks that the metric names printed
equal those declared in BENCHMARK.json, that no row failed, and that the
traced run left no wrapper behind.  Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads

GRID = "32x8"


class SmokeFailure(AssertionError):
    pass


def check(cond, msg):
    if not cond:
        raise SmokeFailure(msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    declared = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", name, "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace), "--grid", GRID]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            check(proc.returncode == 0, f"{name} trace {trace}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result["metrics"]) == sorted(declared[trace]),
                  f"{name} trace {trace}: emitted metric names differ from BENCHMARK.json")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name} trace {trace}: fail_frac {result['failed']}/{result['attempted']}")
            check(result["correct"], f"{name} trace {trace}: result not correct")
            if trace:
                path = os.path.join(ROOT, ".perfbench", f"{name}-seed1-trace1.json")
                with open(path) as fh:
                    report = json.load(fh)
                check(report["trace"]["leftover_wrappers"] == [],
                      f"{name}: wrappers left after the traced run")
            print(f"ok {name} trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
