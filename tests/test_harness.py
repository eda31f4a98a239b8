import collections
import itertools
import math

import pytest

from oddmsim import detector, estimator, harness
from oddmsim.harness import (CSI_MODES, DETECTORS, FIDELITIES, SCHEMES, build_spec,
                             config_hash, emit_csv, option_keys, parse_csv, run_nmse_sweep,
                             run_sensing_then_comm)


def tiny_spec(**options):
    base = {"frame.M": 32, "frame.N": 8, "run.snr_db": (10.0,), "run.trials": 1,
            "run.frames_per_trial": 1}
    return build_spec(dict(base, **options))


def accepted_combinations():
    out = []
    for scheme, detector, csi, fidelity in itertools.product(SCHEMES, DETECTORS,
                                                             CSI_MODES, FIDELITIES):
        options = {"run.scheme": scheme, "run.detector": detector, "run.csi": csi,
                   "run.fidelity": fidelity}
        try:
            tiny_spec(**options)
        except ValueError:
            continue
        out.append(options)
    return out


COMBINATIONS = accepted_combinations()


def test_accepted_combinations():
    # ofdm is waveform-level with perfect CSI only; the other schemes take all
    assert len(COMBINATIONS) == 2 * 2 * 2 * 2 + 2


@pytest.mark.parametrize("options", COMBINATIONS,
                         ids=["-".join(o.values()) for o in COMBINATIONS])
def test_every_accepted_combination_runs(options):
    spec = tiny_spec(**options)
    result = run_sensing_then_comm(spec)
    (row,) = result.rows
    bits_per_symbol = spec.frame.constellation_obj.bits_per_symbol
    assert row.bits == row.trials_run * spec.frames_per_trial * spec.frame.mn * bits_per_symbol
    assert 0.0 <= row.ber <= 0.5
    assert (row.nmse_db is not None) == (options["run.csi"] == "estimated")


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
    "otfs-oamp-perfect-matrix": (1, 512, 0, None),
    "otfs-oamp-perfect-waveform": (1, 512, 0, None),
    "otfs-oamp-estimated-matrix": (1, 512, 0, -25.625323270063603),
    "otfs-oamp-estimated-waveform": (1, 512, 0, -24.53912951611635),
    "otfs-lmmse-perfect-matrix": (1, 512, 5, None),
    "otfs-lmmse-perfect-waveform": (1, 512, 1, None),
    "otfs-lmmse-estimated-matrix": (1, 512, 7, -25.625323270063603),
    "otfs-lmmse-estimated-waveform": (1, 512, 1, -24.53912951611635),
    "ofdm-oamp-perfect-waveform": (1, 512, 21, None),
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


@pytest.mark.parametrize("options", COMBINATIONS,
                         ids=["-".join(o.values()) for o in COMBINATIONS])
def test_golden_rows(options):
    (row,) = run_sensing_then_comm(tiny_spec(**options)).rows
    assert_row(row, *GOLDEN_ROWS["-".join(options.values())])


def link_spec(**options):
    return tiny_spec(**{"run.csi": "estimated", "run.fidelity": "matrix",
                        "run.snr_db": (0.0, 10.0), "run.trials": 3, **options})


def test_csv_round_trip(tmp_path):
    result = run_sensing_then_comm(link_spec())
    nmse = run_nmse_sweep(link_spec())
    for res in (result, nmse):
        path = tmp_path / "sweep.csv"
        emit_csv(res, path)
        assert parse_csv(path).rows == res.rows


def test_nmse_sweep_golden_rows():
    rows = run_nmse_sweep(link_spec()).rows
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
        emit_csv(run_sensing_then_comm(spec), tmp_path / f"{name}-serial.csv")
        parallel = run_sensing_then_comm(spec, threads=2)
        emit_csv(parallel, tmp_path / f"{name}-parallel.csv")
        assert _csv_lines_without_wall_time(tmp_path / f"{name}-serial.csv") == \
            _csv_lines_without_wall_time(tmp_path / f"{name}-parallel.csv")
    assert parallel.rows[0].trials_run == 1
    # the 0 dB point stopping leaves the 10 dB point running every trial
    assert parallel.rows[1].trials_run == 3


def test_min_bit_errors_stops_early():
    stopped = run_sensing_then_comm(link_spec(**{"run.snr_db": (0.0,),
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
    # the OFDM baseline equalizes per subcarrier
    ({"run.scheme": "ofdm", "run.fidelity": "waveform"}, 0),
], ids=["estimated", "ofdm"])
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
    # 50 window cells: C(50, 4) exceeds mle_max_hypotheses, so only alg1 runs
    (run_nmse_sweep, {"channel.model": "synthetic", "channel.paths": 4}, 3, 4),
    # EVA window of 15 cells: the exhaustive search runs too, from the same sounding
    (run_nmse_sweep, {}, 6, 7),
    (run_sensing_then_comm, {}, 3, 4),
], ids=["nmse-alg1", "nmse-alg1-mle", "link"])
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


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_nmse_sweep_is_the_links_sensing_stage(fidelity):
    spec = link_spec(**{"run.fidelity": fidelity, "run.min_bit_errors": 10**9})
    link_rows = run_sensing_then_comm(spec).rows
    alg1_rows = [row for row in run_nmse_sweep(spec).rows if row.detector == "alg1"]
    assert [row.trials_run for row in link_rows] == [3, 3]
    assert [row.nmse_db for row in alg1_rows] == [row.nmse_db for row in link_rows]


@pytest.mark.parametrize("options, field", [
    ({"run.scheme": "ofdm", "run.fidelity": "waveform"}, "scheme"),
    ({"run.sensing_snr_db": 20.0}, "sensing_snr_db"),
])
def test_nmse_sweep_rejects_what_it_cannot_honour(options, field):
    with pytest.raises(ValueError, match=field):
        run_nmse_sweep(tiny_spec(**options))


@pytest.mark.parametrize("frames", [0, -1])
def test_frames_per_trial_below_one_rejected(frames):
    with pytest.raises(ValueError, match="frames_per_trial"):
        tiny_spec(**{"run.frames_per_trial": frames})


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
    "epsilon": {"est.epsilon": math.nan},
    "p_assumed": {"est.p_assumed": 0},
    "M": {"frame.M": 64.7},
    "oversampling": {"frame.oversampling": 2.5},
    "max_iters-det": {"det.max_iters": 2.5},
    "max_iters-det-bool": {"det.max_iters": True},
    "seed": {"run.seed": 2.5},
    "seed-negative": {"run.seed": -1},
    "l_max": {"channel.model": "synthetic", "channel.l_max": 2.5},
    "k_max": {"channel.model": "synthetic", "channel.k_max": -3},
    # one spelling per experiment: "4QAM" would run 4qam under another config_hash
    "constellation": {"frame.constellation": "4QAM"},
}


@pytest.mark.parametrize("case", list(IMPOSSIBLE_SPECS))
def test_impossible_spec_rejected_at_build(case):
    # each of these used to fail deep inside a run, or run something else
    field = case.split("-")[0]
    with pytest.raises(ValueError, match=f"^{field} "):
        tiny_spec(**IMPOSSIBLE_SPECS[case])


def test_integer_frame_floats_hash_like_floats():
    as_ints = {"frame.delta_f": 30000, "frame.f_c": 4000000000, "frame.rolloff": 0}
    as_floats = {key: float(value) for key, value in as_ints.items()}
    assert config_hash(build_spec(as_ints)) == config_hash(build_spec(as_floats))


def test_infinite_snr_is_the_noiseless_case():
    spec = tiny_spec(**{"run.snr_db": (math.inf,), "run.sensing_snr_db": math.inf,
                        "run.csi": "estimated"})
    (row,) = run_sensing_then_comm(spec).rows
    assert row.bit_errors == 0


def test_unknown_option_keys_rejected():
    # a misspelt key and a removed key must not silently run the default spec
    with pytest.raises(ValueError, match="run.detecter") as info:
        build_spec({"run.detecter": "lmmse", "det.le_mode": "exact"})
    assert "det.le_mode" in str(info.value)
    assert all(key in str(info.value) for key in option_keys())


def test_every_known_option_key_accepted():
    spec = build_spec({"frame.M": 32, "frame.N": 8, "frame.Q": 4, "frame.rolloff": 0.3,
                       "frame.oversampling": 4, "frame.constellation": "4qam",
                       "frame.delta_f": 30e3, "frame.f_c": 4e9, "channel.model": "synthetic",
                       "channel.v_kmh": 120.0, "channel.paths": 2, "channel.l_max": 5,
                       "channel.k_max": 2, "est.p_assumed": 2, "est.max_iters": 5,
                       "est.epsilon": 1e-3, "det.max_iters": 7,
                       "run.snr_db": [3.0], "run.scheme": "otfs", "run.detector": "lmmse",
                       "run.csi": "estimated", "run.fidelity": "waveform", "run.trials": 2,
                       "run.frames_per_trial": 1, "run.min_bit_errors": 5, "run.seed": 9,
                       "run.sensing_snr_db": 20.0})
    assert (spec.frame.M, spec.frame.constellation, spec.channel.k_max) == (32, "4qam", 2)
    assert (spec.est.epsilon, spec.det.max_iters, spec.snr_grid_db) == (1e-3, 7, (3.0,))
    assert (spec.scheme, spec.detector, spec.sensing_snr_db, spec.seed) == ("otfs", "lmmse", 20.0, 9)
