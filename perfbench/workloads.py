"""Workload definitions and output checks for the oddmsim benchmark.

Every workload is a set of ``build_spec`` options plus the public sweep entry
point that runs it.  A run derives the spec seed of its i-th sweep from the
workload seed, so the same seed gives the same inputs; the program only ever
sees the resulting ``ExperimentSpec``.

Why these workloads: each one is dominated by a different layer, so an
optimisation of one layer shows on one workload and leaves the others alone.
The layer map is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# The pinned default seed: the first sweep of this seed is re-run and
# compared with reference.json at the start of every run.
REFERENCE_SEED = 0
# Sweep i of workload seed s runs with spec seed s * MAX_SWEEPS + i.
MAX_SWEEPS = 1000
# Absolute tolerance on a pinned row's NMSE; far above round-off, far below
# any change of an estimated path.
NMSE_TOL_DB = 1e-6

_LINK = {"run.scheme": "oddm", "run.csi": "estimated", "run.fidelity": "waveform"}


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: str          # harness entry point: run_sensing_then_comm | run_nmse_sweep
    options: dict       # build_spec options, without run.seed
    trace_sweeps: int   # sweeps a traced run replays; enough for 100 calls of hot entries

    def options_for(self, spec_seed: int, grid: tuple | None = None) -> dict:
        opts = dict(self.options, **{"run.seed": spec_seed})
        if grid is not None:
            opts["frame.M"], opts["frame.N"] = grid
        return opts


WORKLOADS = {w.name: w for w in (
    # Dense side of the detector's size switch (MN = 1024 <= DENSE_LIMIT):
    # every estimated channel pays a dense eigh in LinearStage.__init__.
    # Two trials per point and two frames per trial keep the default early
    # stop of 100 bit errors live: the 5 dB point stops after one trial.
    Workload("link-oamp-eva-64x16", "run_sensing_then_comm", dict(
        _LINK, **{"frame.M": 64, "frame.N": 16, "channel.model": "eva",
                  "channel.v_kmh": 350.0, "run.detector": "oamp",
                  "run.snr_db": (5.0, 10.0, 15.0), "run.trials": 2,
                  "run.frames_per_trial": 2}), trace_sweeps=2),
    # Estimator-bound: the (l, k) window scan over 578 cells; the exhaustive
    # MLE stays off because C(578, 4) exceeds mle_max_hypotheses.
    Workload("sense-syn-128x32", "run_nmse_sweep", {
        "frame.M": 128, "frame.N": 32, "channel.model": "synthetic",
        "channel.paths": 4, "run.snr_db": (0.0, 10.0, 20.0), "run.trials": 4},
        trace_sweeps=3),
)}


def spec_seed(seed: int, sweep_index: int) -> int:
    return seed * MAX_SWEEPS + sweep_index


def row_record(row) -> dict:
    """The fields of a SweepRow that the benchmark compares and reports."""
    return {"snr_db": row.snr_db, "detector": row.detector,
            "trials_run": row.trials_run, "bits": row.bits,
            "bit_errors": row.bit_errors, "ber": row.ber, "nmse_db": row.nmse_db}


def row_problems(spec, sweep: str, row: dict) -> list:
    """Invariants every row must meet, whatever the seed."""
    problems = []
    if not 1 <= row["trials_run"] <= spec.trials:
        problems.append(f"trials_run {row['trials_run']} outside [1, {spec.trials}]")
    if sweep == "run_nmse_sweep":
        expected_bits = 0
    else:
        bits_per_symbol = spec.frame.constellation_obj.bits_per_symbol
        expected_bits = row["trials_run"] * spec.frames_per_trial * spec.frame.mn * bits_per_symbol
        ber = row["ber"]
        if ber is None or not 0.0 <= ber <= 0.5:
            problems.append(f"BER {ber} outside [0, 0.5]")
    if row["bits"] != expected_bits:
        problems.append(f"bits {row['bits']} != {expected_bits}")
    nmse_db = row["nmse_db"]
    if nmse_db is None or not math.isfinite(nmse_db):
        problems.append(f"NMSE {nmse_db} is not finite")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def reference_problems(workload: str, rows: list, reference: dict) -> list:
    """Per-row differences from the pinned rows; one entry per row."""
    pinned = reference.get("workloads", {}).get(workload)
    if pinned is None:
        return [f"no pinned rows for {workload}"] * max(1, len(rows))
    want = pinned["rows"]
    out = []
    for i in range(max(len(rows), len(want))):
        if i >= len(rows) or i >= len(want):
            out.append(f"row {i}: {len(rows)} rows, {len(want)} pinned")
            continue
        got, ref = rows[i], want[i]
        diffs = [k for k in ("snr_db", "detector", "trials_run", "bits", "bit_errors")
                 if got[k] != ref[k]]
        if (got["nmse_db"] is None) != (ref["nmse_db"] is None) or (
                got["nmse_db"] is not None
                and not abs(got["nmse_db"] - ref["nmse_db"]) <= NMSE_TOL_DB):
            diffs.append("nmse_db")
        out.append(f"row {i}: differs in {', '.join(diffs)}" if diffs else None)
    return out
