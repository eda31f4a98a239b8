"""One benchmark workload in a fresh interpreter; prints one JSON line.

Started by run.py.  The clock starts before oddmsim is imported, so
``setup_s`` covers the import and ``build_spec``.  With ``--setup-only`` the
worker stops there.  Otherwise it re-runs the pinned reference sweep (which
also warms caches), then runs seeded sweeps for about ``--seconds``.
With ``--trace 1`` it runs a fixed number of sweeps of the seed untraced, then
replays them with the tracer installed, so per-layer counts repeat exactly
for a seed and the two walls give the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import workloads


def _grid(text):
    m, n = text.lower().split("x")
    return int(m), int(n)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="run only the reference sweep and skip its check")
    ap.add_argument("--grid", type=_grid, default=None,
                    help="MxN override for smoke tests; skips the reference check")
    return ap.parse_args(argv)


def openblas_info():
    """(version string, thread count) of the OpenBLAS that numpy loaded."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_config().decode(), get_threads()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(), None


def provenance(harness, spec):
    import numpy
    import scipy
    blas, threads = openblas_info()
    config_hash = getattr(harness, "config_hash", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "openblas_threads": threads,
        "config_hash": config_hash(spec) if config_hash else "absent",
    }


class Runner:
    """Runs sweeps of one workload and checks every row they return."""

    def __init__(self, harness, workload, grid):
        self.harness = harness
        self.workload = workload
        self.grid = grid
        self.sweep_fn = getattr(harness, workload.sweep)
        self.attempted = 0
        self.failed = 0
        self.sweeps = []          # one record per sweep run, in order

    def spec(self, seed):
        return self.harness.build_spec(self.workload.options_for(seed, self.grid))

    def run(self, phase, spec, tracer=None):
        """One sweep; returns its rows (None if it raised) and records it."""
        n_points = len(spec.snr_grid_db)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.sweep_fn(spec)
            else:
                result = tracer.call("harness.sweep", "harness", self.sweep_fn, spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        wall = time.perf_counter() - t0
        rows = None if result is None else [workloads.row_record(r) for r in result.rows]
        problems = ([["sweep raised"]] * n_points if rows is None else
                    [workloads.row_problems(spec, self.workload.sweep, r) for r in rows])
        self.sweeps.append({"phase": phase, "spec_seed": spec.seed, "wall_s": wall,
                            "rows": rows, "problems": problems})
        self.attempted += len(problems)
        self.failed += sum(1 for p in problems if p)
        return rows

    def add_problems(self, sweep, extra):
        """Attach further per-row problems to a recorded sweep and recount."""
        for i, msg in enumerate(extra):
            if msg is None:
                continue
            if i >= len(sweep["problems"]):
                sweep["problems"].append([])
                self.attempted += 1
            if not sweep["problems"][i]:
                self.failed += 1
            sweep["problems"][i].append(msg)

    def measure(self, phase, seed, seconds=None, count=None):
        """The first count sweeps of seed or, without a count, sweeps of seed
        for about seconds: the next sweep starts only if it is expected to
        end less than half a sweep after the deadline (at least one runs)."""
        start = time.perf_counter()
        done = []
        for i in range(count or workloads.MAX_SWEEPS):
            elapsed = time.perf_counter() - start
            if count is None and done and elapsed * (1 + 0.5 / len(done)) > seconds:
                break
            self.run(phase, self.spec(workloads.spec_seed(seed, i)))
            done.append(self.sweeps[-1])
        return done


def trials_run(sweep):
    return sum(r["trials_run"] for r in sweep["rows"] or [])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "oddmsim")):
        sys.exit(f"no oddmsim source under {SRC}")
    from oddmsim import harness
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(harness, workload, args.grid)
    ref_spec = runner.spec(workloads.spec_seed(workloads.REFERENCE_SEED, 0))
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s,
           "provenance": provenance(harness, ref_spec)}
    ref_rows = runner.run("reference", ref_spec)
    # Peak memory of import plus the pinned sweep.  Read here, not at the
    # end: the number of later sweeps depends on speed, and the peak of a
    # whole run rises with the number of inputs it sees.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.record:
        out["reference_rows"] = ref_rows
        print(json.dumps(out))
        return 0 if ref_rows is not None else 1
    if args.grid is None:
        runner.add_problems(runner.sweeps[-1], workloads.reference_problems(
            workload.name, ref_rows or [], workloads.load_reference()))

    if args.trace == 0:
        measured = runner.measure("measure", args.seed, args.seconds)
        out["trials_per_s"] = (sum(trials_run(s) for s in measured)
                               / sum(s["wall_s"] for s in measured))
    else:
        import tracing
        untraced = runner.measure("untraced", args.seed, count=workload.trace_sweeps)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for sweep in untraced:
                runner.run("traced", runner.spec(sweep["spec_seed"]), tracer)
        finally:
            tracer.uninstall()
        traced = runner.sweeps[-len(untraced):]
        # tracing must not change any result
        for before, after in zip(untraced, traced):
            if before["rows"] is not None and after["rows"] is not None:
                runner.add_problems(after, [None if a == b else "differs from the untraced sweep"
                                            for a, b in zip(after["rows"], before["rows"])])
        metrics = tracer.metrics(
            trials_run=sum(trials_run(s) for s in traced),
            untraced_wall=sum(s["wall_s"] for s in untraced),
            traced_wall=sum(s["wall_s"] for s in traced))
        out["trace"] = {"metrics": metrics, "absent": tracer.absent,
                        "dominant_layer": tracing.dominant_layer(metrics),
                        "leftover_wrappers": tracing.leftover_wrappers()}
        out["spans"] = tracer.span_table()

    out["attempted"], out["failed"] = runner.attempted, runner.failed
    out["sweeps"] = runner.sweeps
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
