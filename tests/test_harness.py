import itertools

import pytest

from oddmsim.harness import (CSI_MODES, DETECTORS, FIDELITIES, SCHEMES, build_spec,
                             emit_csv, option_keys, parse_csv, run_nmse_sweep,
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


def test_min_bit_errors_stops_early():
    stopped = run_sensing_then_comm(link_spec(**{"run.snr_db": (0.0,),
                                                 "run.min_bit_errors": 1}))
    full = run_sensing_then_comm(link_spec(**{"run.snr_db": (0.0,),
                                              "run.min_bit_errors": 10**9}))
    assert stopped.rows[0].bit_errors >= 1
    assert stopped.rows[0].trials_run == 1
    assert full.rows[0].trials_run == 3


def test_unknown_option_keys_rejected():
    # a misspelt key and a removed key must not silently run the default spec
    with pytest.raises(ValueError, match="run.detecter") as info:
        build_spec({"run.detecter": "lmmse", "det.le_mode": "exact"})
    assert "det.le_mode" in str(info.value)
    assert all(key in str(info.value) for key in option_keys())


def test_every_known_option_key_accepted():
    spec = build_spec({"frame.M": 32, "frame.N": 8, "frame.Q": 4, "frame.rolloff": 0.3,
                       "frame.oversampling": 4, "frame.constellation": "qpsk",
                       "frame.delta_f": 30e3, "frame.f_c": 4e9, "channel.model": "synthetic",
                       "channel.v_kmh": 120.0, "channel.paths": 2, "channel.l_max": 5,
                       "channel.k_max": 2, "est.p_assumed": 2, "est.max_iters": 5,
                       "est.epsilon": 1e-3, "det.max_iters": 7, "det.damping": 0.8,
                       "run.snr_db": [3.0], "run.scheme": "otfs", "run.detector": "lmmse",
                       "run.csi": "estimated", "run.fidelity": "waveform", "run.trials": 2,
                       "run.frames_per_trial": 1, "run.min_bit_errors": 5, "run.seed": 9,
                       "run.sensing_snr_db": 20.0})
    assert (spec.frame.M, spec.frame.constellation, spec.channel.k_max) == (32, "qpsk", 2)
    assert (spec.est.epsilon, spec.det.damping, spec.snr_grid_db) == (1e-3, 0.8, (3.0,))
    assert (spec.scheme, spec.detector, spec.sensing_snr_db, spec.seed) == ("otfs", "lmmse", 20.0, 9)
