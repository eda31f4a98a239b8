import collections
import csv
import functools
import itertools
import math
import multiprocessing
import os
import re
import time
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from oddmsim import detector, estimator, harness
from oddmsim.channel import apply_physical_channel
from oddmsim.core import FrameConfig, random_frame
from oddmsim.harness import (CSI_MODES, CSV_COLUMNS, DETECTORS, FIDELITIES, SCHEMES,
                             build_spec, config_hash, emit_csv, option_keys, run_nmse_sweep,
                             run_sensing_then_comm)


def tiny_spec(**options):
    base = {"frame.M": 32, "frame.N": 8, "run.snr_db": (10.0,), "run.trials": 1,
            "run.frames_per_trial": 1}
    return build_spec(dict(base, **options))


CELL_KEYS = ("run.scheme", "run.detector", "run.csi", "run.fidelity")


def accepted_combinations():
    out = []
    for scheme, detector, csi, fidelity in itertools.product(SCHEMES, DETECTORS,
                                                             CSI_MODES, FIDELITIES):
        options = dict(zip(CELL_KEYS, (scheme, detector, csi, fidelity)))
        try:
            tiny_spec(**options)
        except ValueError:
            continue
        out.append(options)
    return out


COMBINATIONS = accepted_combinations()
CELL_IDS = ["-".join(o.values()) for o in COMBINATIONS]


def test_accepted_combinations():
    # oddm takes all; otfs is waveform-level only, since at matrix fidelity it would run
    # oddm; ofdm is waveform-level with perfect CSI and its one-tap LMMSE only
    assert len(COMBINATIONS) == 2 * 2 * 2 + 2 * 2 + 1 == 13


# (trials_run, bits, bit_errors, nmse_db) of each combination's single row,
# recorded before the channel, the estimate and the detector's H became one
# EffectiveChannel; ODDM waveform rows are also pinned by the benchmark, the
# OTFS and OFDM rows (through apply_physical_channel and ofdm_freq_response)
# only here
GOLDEN_ROWS = {
    "oddm-oamp-perfect-matrix": (1, 512, 0, None),
    "oddm-oamp-perfect-waveform": (1, 512, 1, None),
    "oddm-oamp-estimated-matrix": (1, 512, 0, -25.625323270063603),
    "oddm-oamp-estimated-waveform": (1, 512, 0, -22.90641548201179),
    "oddm-lmmse-perfect-matrix": (1, 512, 5, None),
    "oddm-lmmse-perfect-waveform": (1, 512, 6, None),
    "oddm-lmmse-estimated-matrix": (1, 512, 7, -25.625323270063603),
    "oddm-lmmse-estimated-waveform": (1, 512, 7, -22.90641548201179),
    "otfs-oamp-perfect-waveform": (1, 512, 0, None),
    "otfs-oamp-estimated-waveform": (1, 512, 0, -24.53912951611635),
    "otfs-lmmse-perfect-waveform": (1, 512, 1, None),
    "otfs-lmmse-estimated-waveform": (1, 512, 1, -24.53912951611635),
    "ofdm-lmmse-perfect-waveform": (1, 512, 21, None),
}

# (detector, snr_db, trials_run, bits, bit_errors, nmse_db) of run_nmse_sweep(link_spec())
GOLDEN_NMSE_ROWS = [
    ("alg1", 0.0, 3, 0, 0, -12.120099555584245),
    ("mle", 0.0, 3, 0, 0, -12.120099555584245),
    ("alg1", 10.0, 3, 0, 0, -21.653833065344227),
    ("mle", 10.0, 3, 0, 0, -21.653833065344223),
]


def assert_row(row, trials_run, bits, bit_errors, nmse_db):
    assert (row.trials_run, row.bits, row.bit_errors) == (trials_run, bits, bit_errors)
    if nmse_db is None:
        assert row.nmse_db is None
    else:
        assert row.nmse_db == pytest.approx(nmse_db, abs=1e-9)


def counting(counts, name, function):
    """function, counting its calls in counts[name]."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("options", COMBINATIONS, ids=CELL_IDS)
def test_golden_rows(monkeypatch, options):
    # a wrapper put on the module that owns a function of the cell's row sees its calls; the
    # harness used to call the names it had imported, which such a wrapper never replaced
    cell = harness._CELLS[options["run.scheme"], options["run.fidelity"]]
    named = [pair for pair in (cell.modulate, cell.demodulate, cell.response,
                               cell.detectors[options["run.detector"]]) if pair is not None]
    counts = collections.Counter()
    for module, name in named:  # a row naming a function its module lacks raises here
        monkeypatch.setattr(module, name, counting(counts, name, getattr(module, name)))
    spec = tiny_spec(**options)
    (row,) = run_sensing_then_comm(spec).rows
    assert_row(row, *GOLDEN_ROWS["-".join(options.values())])
    bits_per_frame = spec.frame.mn * spec.frame.constellation_obj.bits_per_symbol
    assert row.bits == row.trials_run * spec.frames_per_trial * bits_per_frame
    assert sorted(counts) == sorted(name for _, name in named)


def link_spec(**options):
    return tiny_spec(**{"run.csi": "estimated", "run.fidelity": "matrix",
                        "run.snr_db": (0.0, 10.0), "run.trials": 3, **options})


@functools.cache
def _swept_rows(sweep, spec):
    return tuple(sweep(spec).rows)


def swept(sweep, spec):
    """sweep(spec), serial, swept once per session for tests that share it; each call gets its
    own copies of the rows, so that no test sees another's edits."""
    return harness.SweepResult(rows=[replace(row) for row in _swept_rows(sweep, spec)])


def untimed(rows):
    """rows with their wall times zeroed, the one field that differs between runs."""
    return [replace(row, wall_time_s=0.0) for row in rows]


def test_csv_round_trip(tmp_path):
    result = swept(run_sensing_then_comm, link_spec())
    for res in (result, swept(run_nmse_sweep, link_spec())):
        path = tmp_path / "sweep.csv"
        emit_csv(res, path)
        with open(path, newline="") as fh:
            texts = list(csv.DictReader(fh))
        assert len(texts) == len(res.rows)
        for row, text in zip(res.rows, texts):
            assert tuple(text) == CSV_COLUMNS
            for name, value in vars(row).items():
                if isinstance(value, float):  # every float parses back to the row's own value
                    assert float(text[name]) == value
                else:
                    assert text[name] == ("" if value is None else str(value))
    missing = tmp_path / "no-such-directory" / "sweep.csv"
    with pytest.raises(OSError, match=f"^cannot write sweep CSV to {re.escape(str(missing))}: "):
        emit_csv(result, missing)


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    # a spawned worker reads its BLAS thread counts as numpy loads; a count the user set stays
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with harness._one_blas_thread():
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            seen = [pool.apply(os.getenv, (name,)) for name in harness._BLAS_THREADS]
    assert seen == ["1", "3", "1"]
    assert [os.getenv(name) for name in harness._BLAS_THREADS] == [None, "3", None]


def _blas_threads_stage(runner, trial):
    """A trial stage that records the OPENBLAS_NUM_THREADS its process started with."""
    count = float(os.getenv("OPENBLAS_NUM_THREADS", "nan"))
    return lambda snr_idx: {"blas": harness._Point(nmse_db=count)}


def test_sweep_pool_runs_one_blas_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    kept = harness._run_trials(tiny_spec(**{"run.trials": 2}), _blas_threads_stage, threads=2)
    assert [r["blas"].nmse_db for r in kept[0]] == [1.0, 1.0]
    assert os.getenv("OPENBLAS_NUM_THREADS") is None


def test_nmse_sweep_golden_rows():
    rows = swept(run_nmse_sweep, link_spec()).rows
    assert [(r.detector, r.snr_db) for r in rows] == [g[:2] for g in GOLDEN_NMSE_ROWS]
    for row, golden in zip(rows, GOLDEN_NMSE_ROWS):
        assert_row(row, *golden[2:])


def _csv_lines_without_wall_time(path):
    with open(path) as fh:
        lines = [line.rstrip("\n").split(",") for line in fh]
    col = lines[0].index("wall_time_s")
    return [fields[:col] + fields[col + 1:] for fields in lines]


def test_serial_and_parallel_csvs_identical(tmp_path):
    full = link_spec()
    # early stop at 0 dB after the first trial; trials handed out ahead are dropped
    stopped = link_spec(**{"run.min_bit_errors": 1})
    for name, spec in (("full", full), ("stopped", stopped)):
        emit_csv(swept(run_sensing_then_comm, spec), tmp_path / f"{name}-serial.csv")
        parallel = run_sensing_then_comm(spec, threads=2)
        emit_csv(parallel, tmp_path / f"{name}-parallel.csv")
        assert _csv_lines_without_wall_time(tmp_path / f"{name}-serial.csv") == \
            _csv_lines_without_wall_time(tmp_path / f"{name}-parallel.csv")
    assert parallel.rows[0].trials_run == 1
    # the 0 dB point stopping leaves the 10 dB point running every trial
    assert parallel.rows[1].trials_run == 3


# (trials_run, bits, bit_errors, nmse_db) of run_sensing_then_comm(link_spec()) at a fixed
# 20 dB sensing SNR: both rows sense on the trial's draw 0, so the 0 dB row is the one recorded
# when each point drew its own sensing noise, and the 10 dB row's NMSE left its own draw's
# -31.97147236011488 dB
GOLDEN_FIXED_SENSING_ROWS = [(2, 1024, 157, -34.60105023588623),
                             (3, 1536, 7, -32.398493845643316)]


def test_fixed_sensing_snr_rows():
    rows = run_sensing_then_comm(link_spec(**{"run.sensing_snr_db": 20.0})).rows
    for row, golden in zip(rows, GOLDEN_FIXED_SENSING_ROWS, strict=True):
        assert_row(row, *golden)
    # every point detects on the trial's one estimate, so every row averages the same NMSE
    full = run_sensing_then_comm(link_spec(**{"run.sensing_snr_db": 20.0,
                                              "run.min_bit_errors": 10**9})).rows
    assert [row.trials_run for row in full] == [3, 3]
    assert len({row.nmse_db for row in full}) == 1


# the link of the claim checks: EVA at 32 x 8, matrix fidelity, 20 trials of 2 frames, 20480 bits
# per SNR point
CLAIM_BASE = {"frame.M": 32, "frame.N": 8, "run.snr_db": (10.0, 15.0), "run.trials": 20,
              "run.frames_per_trial": 2, "run.seed": 3, "run.min_bit_errors": 10**9}


@functools.cache
def claim_records(spec):
    """Each SNR point's per-trial link records of spec, swept once per session, so that claim
    checks on one spec share its sweep."""
    return harness._run_trials(spec, harness._TrialRunner.link_trial)


def claim_rows(options):
    """The link rows of CLAIM_BASE with options, built from claim_records."""
    spec = build_spec({**CLAIM_BASE, **options})
    return harness._rows(spec, spec.csi, claim_records(spec))


def paired_excess(options, rival_options):
    """Each SNR point's (excess, margin): the rival link's bit errors less those of the link of
    options, summed over their paired trials (one channel draw and its frames each), and 4 sigma
    of that sum, sigma = sqrt(trials) times the per-trial excess's standard deviation.

    The rule of every claim check: a link beats its rival where excess > margin, and tracks it
    where |excess| <= margin, which a point where the links agree on every trial (excess 0,
    sigma 0) passes.  Bit errors cluster by channel draw, so the trial is the unit, not the bit.
    Noise is keyed by a point's index in the grid, so a point's margin moves with its index:
    OAMP over LMMSE at 15 dB is 3.36 sigma in grid (10, 15) and 4.22 sigma in (10, 12.5, 15)."""
    ours, theirs = (build_spec({**CLAIM_BASE, **o}) for o in (options, rival_options))
    out = []
    for our_trials, their_trials in zip(claim_records(ours), claim_records(theirs), strict=True):
        excess = np.array([b[theirs.detector].bit_errors - a[ours.detector].bit_errors
                           for a, b in zip(our_trials, their_trials, strict=True)])
        out.append((excess.sum(), 4.0 * math.sqrt(excess.size) * excess.std(ddof=1)))
    return out


def test_estimation_tracks_the_sensing_snr():
    # a claim check, not a golden: estimated CSI sensed at a fixed 30 dB tracks perfect CSI
    # (measured: 426, 22 bit errors of 20480 against perfect CSI's 426, 22 at 10 and 15 dB, an
    # excess of 0 at both, paired sigma 3.55 and 0; |excess| at most 1.68 sigma over seeds 0 to
    # 7); sensed at the grid SNR, the NMSE falls with the grid (measured: -21.26, -26.27 dB)
    fixed = {"run.csi": "estimated", "run.sensing_snr_db": 30.0}
    grid = claim_rows({"run.csi": "estimated"})
    # NMSE falls with the sensing SNR: by more than half of the grid's 5 dB step
    assert grid[1].nmse_db < grid[0].nmse_db - 2.5
    assert claim_rows(fixed)[0].nmse_db < grid[1].nmse_db
    for excess, margin in paired_excess({}, fixed):
        assert abs(excess) <= margin


def test_oamp_beats_lmmse():
    # a claim check, not a golden: with perfect CSI, OAMP's bit errors lie below LMMSE's by more
    # than 4 paired sigma at 10 dB (measured: 426 against 777 of 20480 bits, 6.42 sigma; 3.84 to
    # 6.42 sigma over seeds 0 to 7); 15 dB, 22 against 104, is 3.36 sigma and 40 trials give
    # 3.94, so it is left out, and so is 20 dB, whose 0 against 3 cannot resolve it
    (excess, margin), _ = paired_excess({}, {"run.detector": "lmmse"})
    assert excess > margin


# the claim checks against OFDM: at waveform fidelity with perfect CSI and LMMSE on both, OFDM's
# one-tap equalizer leaves an ICI floor at 350 km/h
WAVEFORM_LMMSE = {"run.snr_db": (10.0, 15.0, 20.0), "run.fidelity": "waveform",
                  "run.detector": "lmmse"}


def test_oddm_beats_ofdm():
    # a claim check, not a golden: the abstract's "other multi-carrier modulation schemes"
    # (measured: ODDM 730, 108, 2 against OFDM 1378, 696, 475 of 20480 bits at 10, 15 and 20 dB,
    # 8.26, 8.19 and 6.68 sigma; at least 4.36 sigma over seeds 0, 1, 3 and 7)
    for excess, margin in paired_excess(WAVEFORM_LMMSE, {**WAVEFORM_LMMSE, "run.scheme": "ofdm"}):
        assert excess > margin


def test_otfs_beats_ofdm():
    # a claim check, not a golden: the same rule for the other delay-Doppler baseline (measured:
    # OTFS 699, 106, 2 against OFDM 1378, 696, 475 of 20480 bits at 10, 15 and 20 dB, 8.48, 8.40
    # and 6.62 sigma; at least 4.40 sigma over seeds 0, 1, 3, 7 and 11)
    for excess, margin in paired_excess({**WAVEFORM_LMMSE, "run.scheme": "otfs"},
                                        {**WAVEFORM_LMMSE, "run.scheme": "ofdm"}):
        assert excess > margin


@pytest.mark.parametrize("csi", CSI_MODES)
def test_appending_snr_points_keeps_each_points_rows(csi):
    # noise is keyed by a point's index in the grid, so points appended after a point leave its
    # draws and its row as they were (measured at 15 dB: 12 bit errors with perfect CSI; 14
    # and -26.26 dB NMSE with estimated CSI, sensed at the grid SNR); moving a point to another
    # index draws other noise, which this does not cover
    alone, appended = (run_sensing_then_comm(build_spec({**CLAIM_BASE, "run.csi": csi,
                                                         "run.snr_db": grid})).rows
                       for grid in ((15.0,), (15.0, 10.0)))
    assert alone[0].bit_errors > 0
    assert replace(alone[0], wall_time_s=0.0, config_hash="") == \
        replace(appended[0], wall_time_s=0.0, config_hash="")


def test_alg1_is_close_to_the_exhaustive_search():
    # a claim check, not a golden: on a synthetic channel whose window is small enough for the
    # exhaustive search (4 x 5 cells, C(20, 3) = 1140 tuples), the alternating search's NMSE is
    # within 0.5 dB of the ML search's at every SNR (measured: equal to 1e-14 at -15.93,
    # -26.16, -36.92 dB)
    spec = build_spec({"frame.M": 32, "frame.N": 8, "channel.model": "synthetic",
                       "channel.paths": 3, "channel.l_max": 2, "channel.k_max": 1,
                       "run.seed": 9, "run.trials": 10, "run.snr_db": (0.0, 10.0, 20.0)})
    assert harness._TrialRunner(spec).est_cfg.hypotheses == 1140
    rows = {(r.detector, r.snr_db): r.nmse_db for r in run_nmse_sweep(spec).rows}
    assert sorted(rows) == sorted(itertools.product(("alg1", "mle"), (0.0, 10.0, 20.0)))
    for snr_db in (0.0, 10.0, 20.0):
        assert abs(rows["alg1", snr_db] - rows["mle", snr_db]) <= 0.5


def test_serial_and_parallel_rows_identical_at_a_fixed_sensing_snr():
    # the 0 dB point stops after the first trial; the 10 dB point then runs alone and still
    # detects on the sensing draw the two points shared, which it builds itself
    spec = link_spec(**{"run.sensing_snr_db": 20.0, "run.min_bit_errors": 1})
    serial, parallel = (run_sensing_then_comm(spec, threads=n).rows for n in (1, 2))
    assert untimed(parallel) == untimed(serial)
    assert [row.trials_run for row in parallel] == [1, 3]
    assert_row(parallel[1], *GOLDEN_FIXED_SENSING_ROWS[1])


@pytest.mark.parametrize("sensing", [{}, {"run.sensing_snr_db": 20.0}],
                         ids=["grid-sensing", "fixed-sensing"])
def test_serial_and_parallel_rows_identical_at_waveform_fidelity(sensing):
    # the spawned workers modulate, send and demodulate every frame and estimate the channel
    # from the sensing frame's samples, at the grid SNR or at one fixed SNR per trial
    spec = build_spec({"frame.M": 32, "frame.N": 8, "run.snr_db": (5.0, 10.0), "run.trials": 2,
                       "run.fidelity": "waveform", "run.csi": "estimated", **sensing})
    serial, parallel = (run_sensing_then_comm(spec, threads=n).rows for n in (1, 2))
    assert untimed(parallel) == untimed(serial)


def test_pool_sweep_stopping_every_point_cancels_its_queue():
    # the one point stops after the first trial, with the second still in flight on the pool
    spec = link_spec(**{"run.snr_db": (0.0,), "run.min_bit_errors": 1})
    serial = swept(run_sensing_then_comm, spec).rows
    parallel = run_sensing_then_comm(spec, threads=2).rows
    assert untimed(parallel) == untimed(serial)
    assert parallel[0].trials_run == 1


def test_min_bit_errors_stops_early():
    stopped = swept(run_sensing_then_comm, link_spec(**{"run.snr_db": (0.0,),
                                                        "run.min_bit_errors": 1}))
    full = run_sensing_then_comm(link_spec(**{"run.snr_db": (0.0,),
                                              "run.min_bit_errors": 10**9}))
    assert stopped.rows[0].bit_errors >= 1
    assert stopped.rows[0].trials_run == 1
    assert full.rows[0].trials_run == 3


def test_perfect_csi_builds_one_stage_and_draws_one_channel_per_trial(monkeypatch):
    counts = collections.Counter()
    build_stage, draw_channel = detector.LinearStage.__init__, harness._draw_channel

    def counting_build(self, H):
        counts["stages"] += 1
        build_stage(self, H)

    def counting_draw(spec, trial):
        counts["draws"] += 1
        return draw_channel(spec, trial)

    monkeypatch.setattr(detector.LinearStage, "__init__", counting_build)
    monkeypatch.setattr(harness, "_draw_channel", counting_draw)
    spec = tiny_spec(**{"run.trials": 3, "run.snr_db": (0.0, 5.0, 10.0, 15.0),
                        "run.min_bit_errors": 10**9})
    rows = run_sensing_then_comm(spec).rows
    assert [row.trials_run for row in rows] == [3, 3, 3, 3]
    assert counts == {"stages": 3, "draws": 3}


@pytest.mark.parametrize("options, stages", [
    # one stage per estimate: every trial at every active point
    ({"run.csi": "estimated"}, 3 * 2),
    # at a fixed sensing SNR a trial estimates once, and every point detects on that estimate
    ({"run.csi": "estimated", "run.sensing_snr_db": 20.0}, 3),
    # the OFDM baseline equalizes per subcarrier
    ({"run.scheme": "ofdm", "run.detector": "lmmse", "run.fidelity": "waveform"}, 0),
    # delays up to M - 1: the cyclic prefix is clamped to M - 1, which covers them; the OFDM
    # baseline used to ask for one chip more and raise "cp_chips must be in [0, M)"
    ({"run.scheme": "ofdm", "run.detector": "lmmse", "run.fidelity": "waveform",
      "frame.M": 16, "channel.model": "synthetic", "channel.l_max": 15,
      "channel.paths": 40}, 0),
], ids=["estimated", "estimated-fixed-sensing", "ofdm", "ofdm-clamped-cp"])
def test_stages_built_in_the_other_csi_modes(monkeypatch, options, stages):
    built = []
    build_stage = detector.LinearStage.__init__
    monkeypatch.setattr(detector.LinearStage, "__init__",
                        lambda self, H: built.append(H) or build_stage(self, H))
    spec = tiny_spec(**{"run.trials": 3, "run.snr_db": (0.0, 10.0),
                        "run.min_bit_errors": 10**9, **options})
    rows = run_sensing_then_comm(spec).rows
    assert [row.trials_run for row in rows] == [3, 3]
    assert len(built) == stages


@pytest.mark.parametrize("sweep, options, n_rows, calls", [
    # 50 window cells: C(50, 4) exceeds MLE_MAX_HYPOTHESES, so only alg1 runs
    (run_nmse_sweep, {"channel.model": "synthetic", "channel.paths": 4}, 3, 4),
    # EVA window of 15 cells: the exhaustive search runs too, from the same sounding
    (run_nmse_sweep, {}, 6, 7),
    (run_sensing_then_comm, {}, 3, 4),
    # a fixed sensing SNR: one scan for the trial's one estimate
    (run_sensing_then_comm, {"run.csi": "estimated", "run.sensing_snr_db": 20.0}, 3, 2),
], ids=["nmse-alg1", "nmse-alg1-mle", "link", "link-fixed-sensing"])
def test_one_sounding_per_trial(monkeypatch, sweep, options, n_rows, calls):
    # one path_correlations product per trial for the ambiguity table, then one scan per estimate
    counted = []
    literal = estimator.path_correlations
    monkeypatch.setattr(estimator, "path_correlations",
                        lambda *args: counted.append(args) or literal(*args))
    spec = link_spec(**{"run.snr_db": (0.0, 10.0, 20.0), "run.trials": 1,
                        "run.min_bit_errors": 10**9, **options})
    rows = sweep(spec).rows
    assert [row.trials_run for row in rows] == [1] * n_rows
    assert len(counted) == calls


@pytest.mark.parametrize("scheme, fidelity", [("oddm", "matrix"), ("oddm", "waveform"),
                                              ("otfs", "waveform")],
                         ids=["matrix", "waveform", "otfs-waveform"])
def test_nmse_sweep_is_the_links_sensing_stage(scheme, fidelity):
    # every cell that estimates its channel; EVA at 32 x 8 has C(15, 9) = 5005 tuples, so the
    # exhaustive search runs next to alg1 at every point
    cell = {"run.scheme": scheme, "run.fidelity": fidelity}
    link_rows = run_sensing_then_comm(link_spec(**cell, **{"run.min_bit_errors": 10**9})).rows
    nmse_rows = swept(run_nmse_sweep, link_spec(**cell)).rows
    assert [row.detector for row in nmse_rows] == ["alg1", "mle"] * 2
    alg1_rows = [row for row in nmse_rows if row.detector == "alg1"]
    assert [row.trials_run for row in link_rows] == [3, 3]
    assert [row.nmse_db for row in alg1_rows] == [row.nmse_db for row in link_rows]


@pytest.mark.parametrize("options, field", [
    ({"run.scheme": "ofdm", "run.detector": "lmmse", "run.fidelity": "waveform"}, "scheme"),
    ({"run.sensing_snr_db": 20.0, "run.csi": "estimated"}, "sensing_snr_db"),
])
def test_nmse_sweep_rejects_what_it_cannot_honour(options, field):
    with pytest.raises(ValueError, match=field):
        run_nmse_sweep(tiny_spec(**options))


@pytest.mark.parametrize("frames", [0, -1])
def test_frames_per_trial_below_one_rejected(frames):
    with pytest.raises(ValueError, match="frames_per_trial"):
        tiny_spec(**{"run.frames_per_trial": frames})


@pytest.mark.parametrize("threads", [0, -3, True, 2.5])
def test_bad_thread_count_rejected(threads):
    # 0, -3 and True used to run serially; 2.5 raised TypeError inside the pool
    with pytest.raises(ValueError, match="^threads "):
        run_sensing_then_comm(tiny_spec(), threads)


IMPOSSIBLE_SPECS = {
    "snr_grid_db": {"run.snr_db": (10.0, math.nan)},
    "snr_grid_db-minus-inf": {"run.snr_db": (-math.inf, 10.0)},
    "sensing_snr_db": {"run.sensing_snr_db": math.nan},
    "sensing_snr_db-minus-inf": {"run.sensing_snr_db": -math.inf},
    "paths": {"channel.model": "synthetic", "channel.paths": 0},
    "v_kmh": {"channel.v_kmh": math.nan},
    "v_kmh-negative": {"channel.v_kmh": -1.0},
    "trials": {"run.trials": 2.5},
    "frames_per_trial": {"run.frames_per_trial": 1.5},
    "M": {"frame.M": 64.7},
    "oversampling": {"frame.oversampling": 2.5},
    "seed": {"run.seed": 2.5},
    "seed-negative": {"run.seed": -1},
    "l_max": {"channel.model": "synthetic", "channel.l_max": 2.5},
    "k_max": {"channel.model": "synthetic", "channel.k_max": -3},
    # windows and speeds whose draws can leave the 32 x 8 grid used to fail only on some seeds
    "l_max-off-grid": {"channel.model": "synthetic", "channel.l_max": 32},
    "k_max-off-grid": {"channel.model": "synthetic", "channel.k_max": 4},
    "v_kmh-off-grid": {"channel.v_kmh": 2000.0},
    "delta_f-eva-last-tap": {"channel.delta_f": 500e3},
    # these raised TypeError or OverflowError, or ran: min_bit_errors "x" failed at the first
    # trial, -3 and 2.5 ran, and a synthetic channel ran at an infinite sample rate
    "snr_grid_db-scalar": {"run.snr_db": 5.0},
    "snr_grid_db-none": {"run.snr_db": None},
    "snr_grid_db-string": {"run.snr_db": ("a",)},
    "sensing_snr_db-string": {"run.sensing_snr_db": "x"},
    "delta_f-inf": {"channel.delta_f": math.inf},
    "delta_f-inf-synthetic": {"channel.delta_f": math.inf, "channel.model": "synthetic"},
    "f_c-inf": {"channel.f_c": math.inf},
    # the EVA Doppler spread overflows to inf: the carrier and the slot spread it, not the speed
    "f_c-spread-overflow": {"channel.f_c": 1e308},
    "rolloff-none": {"frame.rolloff": None},
    "rolloff-string": {"frame.rolloff": "0.3"},
    "v_kmh-string": {"channel.v_kmh": "fast"},
    "v_kmh-beyond-float": {"channel.v_kmh": 10**400},
    "min_bit_errors-string": {"run.min_bit_errors": "x"},
    "min_bit_errors-negative": {"run.min_bit_errors": -3},
    "min_bit_errors-fraction": {"run.min_bit_errors": 2.5},
    # 0 stopped every point after its first trial: the rows of trials 1 under another hash
    "min_bit_errors-zero": {"run.min_bit_errors": 0},
    # 10^400, the noise variance of -4000 dB, built and then raised OverflowError in the sweep
    "snr_grid_db-noise-overflow": {"run.snr_db": (-4000.0,)},
    "sensing_snr_db-noise-overflow": {"run.csi": "estimated", "run.sensing_snr_db": -4000.0},
    # each channel model ignores the other's parameters, and a perfect-CSI link never senses:
    # these ran the plain row under another config_hash
    "l_max-eva": {"run.csi": "estimated", "channel.l_max": 5},
    "k_max-eva": {"run.csi": "estimated", "channel.k_max": 1},
    "paths-eva": {"channel.paths": 3},
    "v_kmh-synthetic": {"channel.model": "synthetic", "channel.v_kmh": 350.0},
    "f_c-synthetic": {"channel.model": "synthetic", "channel.f_c": 5e9},
    # the synthetic model acts in bins: it ran the same rows at 15, 30 and 480 kHz
    "delta_f-synthetic": {"channel.model": "synthetic", "channel.delta_f": 15e3},
    "sensing_snr_db-perfect": {"run.sensing_snr_db": 20.0},
    # 9 EVA paths in a 2 x 3 cell search window used to fail at the first estimate, with
    # perfect CSI at run_nmse_sweep's first trial, which estimates whatever csi says
    "p_assumed-window": {"frame.M": 12, "frame.N": 4, "run.csi": "estimated"},
    "p_assumed-window-perfect": {"frame.M": 12, "frame.N": 4},
    # a pulse or sampling field that the scheme at that fidelity never reads ran the same
    # experiment under another config_hash; the pulse still has to fit the grid it is read on
    "Q-matrix": {"frame.Q": 4},
    "oversampling-matrix": {"frame.oversampling": 2},
    "rolloff-otfs-waveform": {"run.scheme": "otfs", "run.fidelity": "waveform",
                              "frame.rolloff": 0.9},
    "Q-ofdm-waveform": {"run.scheme": "ofdm", "run.detector": "lmmse", "run.fidelity": "waveform",
                        "frame.Q": 4},
    "Q-oddm-waveform-too-long": {"frame.M": 12, "frame.N": 4, "run.fidelity": "waveform"},
    # at matrix fidelity the scheme is never read: these ran the oddm-*-matrix experiments
    # bit for bit under another config_hash
    **{f"fidelity-otfs-{det}-{csi}-matrix": {"run.scheme": "otfs", "run.detector": det,
                                              "run.csi": csi, "run.fidelity": "matrix"}
       for det in DETECTORS for csi in CSI_MODES},
    # ofdm always equalizes with its one-tap LMMSE, so this row said oamp and ran lmmse
    "detector-ofdm-oamp-perfect-waveform": {"run.scheme": "ofdm", "run.detector": "oamp",
                                            "run.fidelity": "waveform"},
    # the one refusal that did not start with its field: "the ofdm baseline supports csi=perfect only"
    "csi-ofdm-estimated-waveform": {"run.scheme": "ofdm", "run.detector": "lmmse",
                                    "run.csi": "estimated", "run.fidelity": "waveform"},
}


@pytest.mark.parametrize("case", list(IMPOSSIBLE_SPECS))
def test_impossible_spec_rejected_at_build(case):
    # each of these used to fail deep inside a run, or run something else
    field = case.split("-")[0]
    with pytest.raises(ValueError, match=f"^{field} "):
        tiny_spec(**IMPOSSIBLE_SPECS[case])


def test_integer_frame_floats_hash_like_floats():
    # EVA's speed, carrier and subcarrier spacing are stored as floats like the roll-off, which
    # the ODDM waveform reads; 350 and 350.0 hashed apart
    as_ints = {"channel.delta_f": 30000, "frame.rolloff": 0, "channel.v_kmh": 350,
               "channel.f_c": 4000000000}
    as_floats = {key: float(value) for key, value in as_ints.items()}
    waveform = {"run.fidelity": "waveform"}
    assert config_hash(build_spec({**as_ints, **waveform})) == \
        config_hash(build_spec({**as_floats, **waveform}))
    assert config_hash(build_spec({"run.snr_db": [0, 10]})) == \
        config_hash(build_spec({"run.snr_db": (0.0, 10.0)}))


def test_channel_defaults_hash_like_written_defaults():
    synthetic = {"channel.model": "synthetic"}
    assert config_hash(build_spec({})) == config_hash(build_spec({"channel.v_kmh": 350.0}))
    assert config_hash(build_spec(synthetic)) == \
        config_hash(build_spec({**synthetic, "channel.paths": 3}))
    # the matrix model reads no pulse or sampling field: written at their defaults they hash
    # like the omitted ones
    assert config_hash(build_spec({})) == config_hash(build_spec(
        {"frame.Q": 8, "frame.rolloff": 0.25, "frame.oversampling": 8}))


def test_nmse_rows_hash_what_the_nmse_sweep_reads():
    # the NMSE sweep reads neither the detector, the CSI mode, the frame count nor the early
    # stop, so a link spec that sets them gives the same rows under the same hash
    plain = run_nmse_sweep(link_spec(**{"run.trials": 1})).rows
    other = run_nmse_sweep(link_spec(**{"run.trials": 1, "run.detector": "lmmse",
                                        "run.frames_per_trial": 2, "run.min_bit_errors": 5})).rows
    assert len({row.config_hash for row in plain + other}) == 1
    without_time = [{**vars(row), "wall_time_s": None} for row in plain]
    assert without_time == [{**vars(row), "wall_time_s": None} for row in other]


def test_nmse_rows_time_their_own_estimator(monkeypatch):
    # the exhaustive search's time is its own row's: a slow one leaves the alg1 row fast
    literal = harness.mle_exhaustive

    def slow_search(y, sounding):
        time.sleep(0.2)
        return literal(y, sounding)

    monkeypatch.setattr(harness, "mle_exhaustive", slow_search)
    alg1, mle = run_nmse_sweep(link_spec(**{"run.snr_db": (10.0,), "run.trials": 1})).rows
    assert (alg1.detector, mle.detector) == ("alg1", "mle")
    assert alg1.wall_time_s < 0.2 <= mle.wall_time_s


def test_link_rows_time_their_detection(monkeypatch):
    # a link record has no time of its own: its row's time is the whole point's, detection too
    literal = detector.oamp_detect

    def slow_detect(*args):
        time.sleep(0.2)
        return literal(*args)

    monkeypatch.setattr(detector, "oamp_detect", slow_detect)
    (row,) = run_sensing_then_comm(tiny_spec()).rows
    assert row.detector == "oamp"
    assert row.wall_time_s >= 0.2


def test_infinite_snr_is_the_noiseless_case():
    spec = tiny_spec(**{"run.snr_db": (math.inf,), "run.sensing_snr_db": math.inf,
                        "run.csi": "estimated"})
    (row,) = run_sensing_then_comm(spec).rows
    assert row.bit_errors == 0


REMOVED_KEYS = ("det.le_mode", "det.max_iters", "est.p_assumed", "est.max_iters",
                "est.epsilon", "frame.constellation", "frame.delta_f")


def test_unknown_option_keys_rejected():
    # a misspelt key and a removed key must not silently run the default spec; the estimator
    # assumes the channel model's path count, the stopping rules are module constants, every
    # frame is 4-QAM and the subcarrier spacing is EVA's channel.delta_f
    prefix = re.escape(f"unknown option keys {sorted(('run.detecter',) + REMOVED_KEYS)};")
    with pytest.raises(ValueError, match=f"^{prefix}") as info:
        build_spec({"run.detecter": "lmmse", **dict.fromkeys(REMOVED_KEYS, 1)})
    assert all(key in str(info.value) for key in option_keys())
    assert not set(REMOVED_KEYS) & set(option_keys())


def test_every_known_option_key_accepted():
    # each channel model takes its own parameters, so an EVA and a synthetic spec share the
    # frame and run keys and together pass all 22; the oddm waveform reads every frame field
    eva = {"frame.M": 32, "frame.N": 8, "frame.Q": 4, "frame.rolloff": 0.3,
           "frame.oversampling": 4,
           "channel.model": "eva", "channel.v_kmh": 120.0, "channel.f_c": 4e9,
           "channel.delta_f": 30e3,
           "run.snr_db": [3.0], "run.scheme": "oddm", "run.detector": "lmmse",
           "run.csi": "estimated", "run.fidelity": "waveform", "run.trials": 2,
           "run.frames_per_trial": 1, "run.min_bit_errors": 5, "run.seed": 9,
           "run.sensing_snr_db": 20.0}
    synthetic = {**{key: value for key, value in eva.items()
                    if key not in ("channel.v_kmh", "channel.f_c", "channel.delta_f")},
                 "channel.model": "synthetic", "channel.paths": 2, "channel.l_max": 5,
                 "channel.k_max": 2}
    assert sorted(eva.keys() | synthetic.keys()) == option_keys() and len(option_keys()) == 22
    for options in (eva, synthetic):
        spec = build_spec(options)
        assert (spec.frame.M, spec.frame.rolloff) == (32, 0.3)
        assert spec.snr_grid_db == (3.0,)
        assert (spec.scheme, spec.detector, spec.sensing_snr_db, spec.seed) == \
            ("oddm", "lmmse", 20.0, 9)
        unset = dict.fromkeys(set(option_keys()) - set(options))
        assert spec_options(spec) == dict(options, **unset, **{"run.snr_db": (3.0,)})


def spec_options(spec) -> dict:
    """The build_spec options that spell out every field of spec."""
    out = {}
    for key in option_keys():
        section, name = key.split(".")
        owner = spec if section == "run" else getattr(spec, section)
        out[key] = getattr(owner, "snr_grid_db" if key == "run.snr_db" else name)
    return out


# None, bools, grid-sized integers, any float, short strings, the names a spec takes and short lists
OPTION_VALUES = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
                 | st.text(max_size=3) | st.sampled_from(SCHEMES + DETECTORS + CSI_MODES
                                                         + FIDELITIES + harness.CHANNEL_MODELS)
                 | st.lists(st.integers(-3, 40) | st.floats(), max_size=3))


@st.composite
def any_options(draw):
    """Up to five option keys, each with a value of OPTION_VALUES or its default."""
    keys = draw(st.lists(st.sampled_from(option_keys()), max_size=5, unique=True))
    return {key: draw(st.just(DEFAULT_OPTIONS[key]) | OPTION_VALUES, label=key) for key in keys}


DEFAULT_OPTIONS = spec_options(build_spec({}))


@settings(max_examples=200)
@given(any_options())
@example({"channel.f_c": 1e308})  # the EVA Doppler spread used to overflow at rounding
@example({"run.snr_db": [0, 10.0], "channel.v_kmh": 0, "run.csi": "estimated"})
def test_any_options_build_a_spec_or_raise_value_error(options):
    # an accepted spec spells out to options that rebuild it; anything else is a ValueError
    try:
        spec = build_spec(options)
    except ValueError:
        return
    assert config_hash(build_spec(spec_options(spec))) == config_hash(spec)


def respelled(value):
    """value spelled otherwise: an int as np.int64, a float as an int where integral (else as
    np.float64), a list or tuple as a tuple of respelled entries."""
    if isinstance(value, (list, tuple)):
        return tuple(respelled(v) for v in value)
    if isinstance(value, float):
        return int(value) if value.is_integer() else np.float64(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return np.int64(value)
    return value


@settings(max_examples=100)
@given(any_options())
@example({"run.seed": 5, "run.sensing_snr_db": 20, "run.csi": "estimated"})
@example({"channel.model": "synthetic", "channel.paths": 2, "channel.l_max": 5})
@example({"channel.v_kmh": -0.0, "run.snr_db": [-0.0]})  # -0.0 is 0.0
def test_respelled_options_hash_alike(options):
    # np.int64(5) and 5, or 20 and 20.0, spell one experiment: an accepted spec, given its own
    # options or all of its stored values respelled, builds under the same config_hash
    try:
        spec = build_spec(options)
    except ValueError:
        return
    for spelled in (options, spec_options(spec)):
        assert config_hash(build_spec({key: respelled(value) for key, value in spelled.items()})) \
            == config_hash(spec)


ARGUMENT_NAMES = ("l_max", "k_max", "v_kmh", "delta_f", "paths", "p_assumed")


@st.composite
def channel_options(draw):
    """build_spec options of a small grid, odd or even each way, with either channel model."""
    options = {"frame.M": draw(st.integers(3, 24), label="M"),
               "frame.N": draw(st.integers(2, 9), label="N"),
               "channel.model": draw(st.sampled_from(["eva", "synthetic"]), label="model")}
    if options["channel.model"] == "eva":
        options["channel.delta_f"] = draw(st.sampled_from([15e3, 120e3, 480e3]), label="delta_f")
        options["channel.v_kmh"] = draw(st.floats(0.0, 3000.0), label="v_kmh")
    else:
        options["channel.paths"] = draw(st.integers(1, 4), label="paths")
        for name, top in (("l_max", options["frame.M"] + 2),
                          ("k_max", options["frame.N"] // 2 + 1)):
            value = draw(st.none() | st.integers(0, top), label=name)
            if value is not None:
                options[f"channel.{name}"] = value
    return options


@settings(max_examples=60)
@given(channel_options())
# draws off a 16 x 8 grid; Doppler bins +-2 of a 32 x 5 grid that the window used to miss
@example({"frame.M": 16, "frame.N": 8, "channel.model": "synthetic", "channel.l_max": 17})
@example({"frame.M": 32, "frame.N": 5, "channel.model": "synthetic", "channel.k_max": 2,
          "channel.paths": 4})
@example({"frame.M": 32, "frame.N": 5, "channel.v_kmh": 1000.0})
def test_drawn_cells_lie_on_the_grid_under_the_prefix_and_in_the_window(options):
    # a spec is refused, naming the argument, or every cell it draws is on the grid, no later
    # than the cyclic prefix and inside the estimator's search window
    try:
        runner = harness._TrialRunner(build_spec(options))
        window = runner.est_cfg
    except ValueError as exc:
        assert str(exc).split()[0] in ARGUMENT_NAMES, exc
        return
    M, N = runner.cfg.M, runner.cfg.N
    for trial in range(3):
        chan = harness._draw_channel(runner.spec, trial)
        for l, k in zip(chan.l.tolist(), chan.k.tolist()):
            assert 0 <= l <= runner.cp < M and -(N // 2) <= k < (N + 1) // 2
            assert l <= window.l_max and abs(k) <= window.k_max


# the worst noiseless mismatch 10 log10(|y - H s|^2 / |H s|^2) that a waveform cell's chain may
# show against the grid model H on the grids of mismatch_cases, ODDM's for pulses of Q >= 4; 1100
# draws reached -23.0 dB for ODDM at Q 4, -32.3 dB at Q 8 and -19.7 dB for OTFS; at Q 2, which
# this bound does not cover, 300 draws reached -15.7 dB for ODDM
MISMATCH_DB = {"oddm": -20.0, "otfs": -15.0}


@st.composite
def mismatch_cases(draw):
    """A grid of 9 to 32 delay and 2 to 8 Doppler bins, a pulse of Q 4 to 8 that fits it, and a
    channel of either model that the grid supports."""
    M, N = draw(st.integers(9, 32), label="M"), draw(st.integers(2, 8), label="N")
    config = FrameConfig(M=M, N=N, Q=draw(st.integers(4, min(8, (M - 1) // 2)), label="Q"))
    if draw(st.sampled_from(harness.CHANNEL_MODELS), label="model") == "eva":
        return config, harness.ChannelSpec(
            v_kmh=draw(st.floats(0.0, 500.0), label="v_kmh"),
            delta_f=draw(st.sampled_from([15e3, 30e3, 60e3]), label="delta_f"))
    return config, harness.ChannelSpec(
        model="synthetic", paths=draw(st.integers(1, 3), label="paths"),
        l_max=draw(st.none() | st.integers(2, M - 1), label="l_max"),
        k_max=draw(st.none() | st.integers(0, config.doppler_range[1]), label="k_max"))


@settings(max_examples=25)
@given(mismatch_cases(), st.integers(0, 2**32 - 1))
def test_waveform_chains_realize_the_grid_model(case, seed):
    # the noiseless demodulated observation, with the harness's cyclic prefix, lies within
    # MISMATCH_DB of H s: waveform fidelity detects with H, which is right only this far
    config, channel_spec = case
    runner = harness._TrialRunner(types.SimpleNamespace(frame=config, channel=channel_spec))
    chan = channel_spec.call("draw", config, rng_seed=seed)
    _, frame = random_frame(config, np.random.default_rng(seed))
    hs = chan.apply(frame)
    for scheme, bound in MISMATCH_DB.items():
        cell = harness._CELLS[scheme, "waveform"]
        rx = apply_physical_channel(getattr(*cell.modulate)(frame, config, runner.cp), chan)
        y = getattr(*cell.demodulate)(rx, config)
        mismatch_db = 10 * np.log10(np.sum(np.abs(y - hs) ** 2) / np.sum(np.abs(hs) ** 2))
        assert mismatch_db <= bound, (scheme, mismatch_db)


@st.composite
def one_trial_options(draw):
    """build_spec options of a one-trial, one-point sweep of any accepted cell on a small
    grid, odd or even each way, with either channel model; the grids keep the exhaustive
    search to some thousand tuples or, past MLE_MAX_HYPOTHESES, off"""
    cell = draw(st.sampled_from(COMBINATIONS), label="cell")
    options = {"frame.M": draw(st.integers(3, 12), label="M"),
               "frame.N": draw(st.integers(2, 7), label="N"),
               "run.snr_db": (10.0,), "run.trials": 1, "run.frames_per_trial": 1, **cell}
    if (cell["run.scheme"], cell["run.fidelity"]) == ("oddm", "waveform"):
        options["frame.Q"] = 1  # the one reader of the pulse; the default is too long here
    if cell["run.csi"] == "estimated":
        options["run.sensing_snr_db"] = draw(st.none() | st.just(20.0), label="sensing_snr_db")
    if draw(st.sampled_from(harness.CHANNEL_MODELS), label="model") == "eva":
        options["channel.delta_f"] = draw(st.sampled_from([15e3, 30e3]), label="delta_f")
        options["channel.v_kmh"] = draw(st.floats(0.0, 1000.0), label="v_kmh")
        return options
    options["channel.model"] = "synthetic"
    options["channel.paths"] = draw(st.integers(1, 3), label="paths")
    for name, top in (("l_max", options["frame.M"]), ("k_max", options["frame.N"] // 2 + 1)):
        options[f"channel.{name}"] = draw(st.none() | st.integers(0, top), label=name)
    return options


@settings(max_examples=80)
@given(one_trial_options())
# perfect CSI: the spec used to build and run_nmse_sweep then to fail at its first trial
@example({"frame.M": 12, "frame.N": 4, "run.snr_db": (10.0,), "run.trials": 1})
def test_accepted_spec_runs_the_first_trial_of_every_sweep(options):
    # a spec is refused, or its first trial runs in the link sweep and, for every scheme but
    # ofdm without a sensing SNR of its own, in the NMSE sweep
    try:
        spec = build_spec(options)
    except ValueError:
        return
    (row,) = run_sensing_then_comm(spec).rows
    assert row.trials_run == 1 and 0.0 <= row.ber <= 0.5
    if spec.scheme != "ofdm" and spec.sensing_snr_db is None:
        rows = run_nmse_sweep(spec).rows
        assert rows[0].detector == "alg1" and all(math.isfinite(r.nmse_db) for r in rows)


@pytest.mark.parametrize("strategy", [channel_options, one_trial_options])
def test_option_strategies_mostly_build(strategy):
    # the properties above test only the specs that build: a strategy whose draws the spec
    # mostly refuses would leave them passing while they test almost nothing
    built = []

    @settings(max_examples=200, database=None, phases=[Phase.generate])
    @given(strategy())
    def draw(options):
        try:
            build_spec(options)
        except ValueError:
            built.append(False)
        else:
            built.append(True)

    draw()
    assert len(built) == 200 and sum(built) >= 100, f"{sum(built)} of {len(built)} build"
