"""The benchmark's program checks, run against the oddmsim this suite imports.

perfbench/reference.json pins the first sweep of each workload's reference
seed; perfbench's own rules decide whether a row matches.  The tracer's entry
points must still resolve, or their per-layer metrics read 0.
"""

import importlib.util
import pathlib
import sys

import pytest

from oddmsim import harness

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as module perfbench_<name>, without putting perfbench/
    on sys.path, where its generic module names could shadow others."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the string annotations of workloads.Workload through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")
tracing = load_perfbench("tracing")

# Entries of tracing.ENTRIES whose code is gone already; fixing the entry list empties this set.
STALE_ENTRIES = {"detector.LinearStage.solve_with_eps", "effchan.assemble_H",
                 "effchan.EffectiveChannel.apply_adjoint"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_rows(name):
    w = workloads.WORKLOADS[name]
    spec = harness.build_spec(w.options_for(workloads.spec_seed(workloads.REFERENCE_SEED, 0)))
    rows = [workloads.row_record(r) for r in getattr(harness, w.sweep)(spec).rows]
    assert [workloads.row_problems(spec, w.sweep, row) for row in rows] == [[]] * len(rows)
    problems = workloads.reference_problems(name, rows, workloads.load_reference())
    assert [p for p in problems if p is not None] == []


def test_tracer_entries_resolve():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.absent) <= STALE_ENTRIES
    assert tracing.leftover_wrappers() == []
