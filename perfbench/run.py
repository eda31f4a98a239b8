"""Benchmark of the oddmsim sensing-then-communication simulator.

    python3 perfbench/run.py --workload link-oamp-eva-64x16 --seed 3 --seconds 25 --trace 0

Runs one workload (or ``--workload all``) from the root of a source checkout,
each in its own fresh interpreter with serial trials.  ``--trace 0`` prints
the end-to-end metrics (trials_per_s, setup_s, peak_rss_mb, plus fail_frac
as failed/attempted rows); ``--trace 1`` prints the per-layer metrics of a
traced replay of a fixed number of sweeps.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A full report, with every
row and the provenance, goes to .perfbench/ in the checkout.

``--record`` re-runs the pinned reference sweep of each workload and writes
perfbench/reference.json; only do that when the expected results change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing
import workloads

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# setup_s is the median of this many fresh interpreters (the workload's own
# plus probes); one sample varies by about 50%.
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, deadline):
    proc = subprocess.run([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, trace, grid, deadline):
    common = ["--workload", name, "--seed", str(seed)] + (["--grid", grid] if grid else [])
    setup = []
    if not trace:
        setup = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(res["setup_s"])
    res["setup_samples_s"] = setup
    res["provenance"]["git_commit"] = git_commit()
    res["provenance"]["seed"] = seed
    if trace:
        values = res["trace"]["metrics"]
        units = tracing.metric_units()
    else:
        values = {"trials_per_s": res["trials_per_s"], "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END_UNITS
    res["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    res["correct"] = res["failed"] == 0 and not (trace and res["trace"]["leftover_wrappers"])
    return res


def write_report(res, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{res['workload']}-seed{res['seed']}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh)
    return path


def print_summary(res, trace, path):
    print(f"workload {res['workload']}  seed {res['seed']}  trace {trace}")
    prov = res["provenance"]
    print("  provenance " + json.dumps(prov, sort_keys=True))
    for sweep in res["sweeps"]:
        for row, problems in zip(sweep["rows"] or [None] * len(sweep["problems"]),
                                 sweep["problems"]):
            flag = "; ".join(problems) if problems else "ok"
            print(f"  row {sweep['phase']:9s} seed {sweep['spec_seed']:6d} "
                  f"{json.dumps(row)}  {flag}")
    if trace:
        t = res["trace"]
        for layer in tracing.LAYERS:
            m = t["metrics"]
            print(f"  layer {layer:10s} busy {m[layer + '.busy_s']:9.4f} s  "
                  f"self {m[layer + '.self_s']:9.4f} s")
        print(f"  dominant layer {t['dominant_layer']}  "
              f"trace.overhead_frac {t['metrics']['trace.overhead_frac']:.4f}  "
              f"absent {t['absent']}  leftover wrappers {t['leftover_wrappers']}")
    else:
        for k, m in res["metrics"].items():
            print(f"  {k:14s} {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac      {res['failed'] / res['attempted']:.6g} 1 "
          f"({res['failed']} of {res['attempted']} rows)")
    print(f"  report {os.path.relpath(path, ROOT)}")


def record(names, deadline):
    reference = {"seed": workloads.REFERENCE_SEED, "nmse_tol_db": workloads.NMSE_TOL_DB,
                 "workloads": {}}
    for name in names:
        res = run_worker(["--workload", name, "--record"], deadline)
        reference["workloads"][name] = {"config_hash": res["provenance"]["config_hash"],
                                        "rows": res["reference_rows"]}
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", default=None,
                    help="MxN grid override for smoke tests; skips the reference check")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    if args.record:
        record(names, start + TIME_LIMIT_S * len(names))
        return 0
    results = []
    try:
        for i, name in enumerate(names):
            res = run_workload(name, args.seed, args.seconds, args.trace, args.grid,
                               start + TIME_LIMIT_S * (i + 1))
            path = write_report(res, args.trace)
            res.pop("spans", None)
            print_summary(res, args.trace, path)
            results.append(res)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
