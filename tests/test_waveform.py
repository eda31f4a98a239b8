import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oddmsim
from oddmsim import waveform
from oddmsim.baselines import ofdm_modulate, otfs_modulate
from oddmsim.channel import apply_physical_channel, channel_from_cells
from oddmsim.core import FrameConfig, random_frame, vectorize
from oddmsim.waveform import SampleStream, build_srrc, oddm_demodulate, oddm_modulate

from oracles import oddm_demodulate_literal, oddm_modulate_literal, pulse_orthogonality_matrix


def cfg32(**kw):
    args = dict(M=32, N=8, delta_f=15e3, Q=8, oversampling=8)
    args.update(kw)
    return FrameConfig(**args)


class TestSrrc:
    def test_tap_count_and_energy(self):
        cfg = FrameConfig(M=64, N=8, delta_f=15e3, Q=20, oversampling=8)
        a = build_srrc(cfg)
        assert a.size == 2 * 20 * 8 + 1 == 321
        assert abs(np.sum(a ** 2) - 1.0 / cfg.N) < 1e-6 / cfg.N
        assert abs(cfg.N * np.sum(a ** 2) - 1.0) < 1e-6

    def test_time_symmetry(self):
        a = build_srrc(cfg32())
        assert np.array_equal(a, a[::-1])

    def test_zero_rolloff_is_sinc_like(self):
        cfg = cfg32(rolloff=0.0)
        a = build_srrc(cfg)
        osf = cfg.oversampling
        center = a.size // 2
        # values at nonzero integer multiples of the slot spacing are sinc zeros
        at_slots = a[center + osf::osf]
        assert np.max(np.abs(at_slots)) <= 1e-2 * a[center]

    def test_rolloff_quarter_vs_tenth_truncation(self):
        # the default roll-off keeps the truncated pulse much closer to Nyquist
        def max_isi(beta):
            cfg = cfg32(rolloff=beta)
            a = build_srrc(cfg)
            osf = cfg.oversampling
            lags = np.arange(1, 2 * cfg.Q)
            vals = [abs(np.dot(a[lag * osf:], a[:a.size - lag * osf]))
                    for lag in lags]
            return max(vals) * cfg.N  # relative to unit pulse-pair gain
        assert max_isi(0.25) < 0.3 * max_isi(0.1)


class TestModDemod:
    def test_single_symbol_is_pulse_train(self):
        cfg = cfg32()
        a = build_srrc(cfg)
        S = np.zeros((32, 8), dtype=complex)
        S[0, 0] = 1.0
        st = oddm_modulate(S, cfg)
        u = np.zeros_like(st.samples)
        for n_hat in range(cfg.N):
            start = n_hat * cfg.M * cfg.oversampling
            u[start:start + a.size] += a
        assert np.allclose(st.samples, u, atol=1e-12)

    def test_delay_slot_is_integer_shift(self):
        cfg = cfg32()
        S0 = np.zeros((32, 8), dtype=complex)
        S0[0, 0] = 1.0
        Sm = np.zeros((32, 8), dtype=complex)
        Sm[5, 0] = 1.0
        a = oddm_modulate(S0, cfg).samples
        b = oddm_modulate(Sm, cfg).samples
        shift = 5 * cfg.oversampling
        assert np.allclose(b[shift:], a[:-shift], atol=1e-12)
        assert np.allclose(b[:shift], 0.0, atol=1e-12)

    def test_energy_conservation(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(42))
        st = oddm_modulate(frame, cfg)
        ratio = np.sum(np.abs(st.samples) ** 2) / np.sum(np.abs(frame) ** 2)
        assert 0.98 <= ratio <= 1.0

    def test_roundtrip_identity(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(7))
        back = oddm_demodulate(oddm_modulate(frame, cfg), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-2

    @pytest.mark.parametrize("M,Q", [(64, 8), (128, 16)])
    def test_roundtrip_identity_headroom_configs(self, M, Q):
        # 2Q <= M/4, oversampling >= 8
        cfg = FrameConfig(M=M, N=8, delta_f=15e3, Q=Q, oversampling=8)
        _, frame = random_frame(cfg, np.random.default_rng(M + Q))
        back = oddm_demodulate(oddm_modulate(frame, cfg), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-2

    def test_zero_stream(self):
        cfg = cfg32()
        st = oddm_modulate(np.zeros((32, 8), dtype=complex), cfg)
        back = oddm_demodulate(st, cfg)
        assert np.allclose(back, 0.0)

    def test_linearity(self):
        cfg = cfg32()
        rng = np.random.default_rng(3)
        _, fx = random_frame(cfg, rng)
        _, fy = random_frame(cfg, rng)
        a, b = 1.3 - 0.2j, -0.4 + 0.9j
        combo = oddm_modulate(a * fx + b * fy, cfg).samples
        parts = a * oddm_modulate(fx, cfg).samples + b * oddm_modulate(fy, cfg).samples
        assert np.allclose(combo, parts, atol=1e-12)

    def test_stream_too_short(self):
        cfg = cfg32()
        st = oddm_modulate(np.zeros((32, 8), dtype=complex), cfg)
        from oddmsim.waveform import SampleStream
        clipped = SampleStream(samples=st.samples[:100], rate=st.rate, start=st.start)
        with pytest.raises(ValueError):
            oddm_demodulate(clipped, cfg)

    def test_single_path_matches_effective_matrix(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(11))
        chan = channel_from_cells(cfg, [(2, 1)], [1.0])
        st = oddm_modulate(frame, cfg, cyclic_prefix_chips=8)
        rx = apply_physical_channel(st, chan)
        Y = oddm_demodulate(rx, cfg)
        ref = chan.apply(vectorize(frame)).reshape(cfg.M, cfg.N)
        assert np.linalg.norm(Y - ref) / np.linalg.norm(ref) <= 2e-2


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


LITERAL_GRIDS = [(32, 8, 4), (64, 16, 8), (24, 6, 4)]
LITERAL_CASES = [(M, N, Q, osf, beta, cp) for (M, N, Q) in LITERAL_GRIDS
                 for osf in (1, 3, 8) for beta in (0.0, 0.25) for cp in (0, 5, M)]


def literal_case(M, N, Q, osf, beta):
    cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=Q, rolloff=beta,
                            oversampling=osf)
    rng = np.random.default_rng(M * 100 + osf * 10 + int(beta * 4))
    S = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    return cfg, build_srrc(cfg), S, rng


def case_id(case):
    return "{}x{}-Q{}-osf{}-beta{}-cp{}".format(*case)


class TestLiteralOracle:
    """The chip-grid transceiver against per-symbol pulse trains built sample by sample."""

    @pytest.mark.parametrize("M,N,Q,osf,beta,cp", LITERAL_CASES,
                             ids=[case_id(c) for c in LITERAL_CASES])
    def test_modulate_matches_literal(self, M, N, Q, osf, beta, cp):
        cfg, a, S, _ = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(S, cfg, cyclic_prefix_chips=cp)
        ref, start = oddm_modulate_literal(S, a, cfg, cyclic_prefix_chips=cp)
        assert st.start == start and st.samples.size == ref.size
        assert rel_err(st.samples, ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q,osf,beta,cp", LITERAL_CASES,
                             ids=[case_id(c) for c in LITERAL_CASES])
    def test_demodulate_matches_literal(self, M, N, Q, osf, beta, cp):
        cfg, a, S, rng = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(S, cfg, cyclic_prefix_chips=cp)
        # the transmitted frame plus noise, with a few extra samples on both sides
        x = np.concatenate([rng.standard_normal(3), st.samples, rng.standard_normal(2)])
        x = x + 0.1 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        start = st.start - 3
        rx = SampleStream(samples=x, rate=cfg.sample_rate, start=start)
        ref = oddm_demodulate_literal(x, start, a, cfg)
        assert rel_err(oddm_demodulate(rx, cfg), ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q", LITERAL_GRIDS)
    def test_demodulate_shortest_stream_matches_literal(self, M, N, Q):
        # the stream ends at the last sample the matched filter needs
        cfg, a, _, rng = literal_case(M, N, Q, 3, 0.25)
        qos = Q * 3
        last_needed = (M * N - 1) * 3 + qos
        size = last_needed + qos + 1
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        rx = SampleStream(samples=x, rate=cfg.sample_rate, start=-qos)
        ref = oddm_demodulate_literal(x, -qos, a, cfg)
        assert rel_err(oddm_demodulate(rx, cfg), ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q,osf,beta", [c[:5] for c in LITERAL_CASES if c[5] == 0],
                             ids=[case_id(c)[:-4] for c in LITERAL_CASES if c[5] == 0])
    def test_adjoint_identity(self, M, N, Q, osf, beta):
        # <mod(S), x> = <S, demod(x)> on the stream span of a frame without cyclic prefix
        cfg, a, S, rng = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(S, cfg)
        x = rng.standard_normal(st.samples.size) + 1j * rng.standard_normal(st.samples.size)
        Y = oddm_demodulate(SampleStream(samples=x, rate=st.rate, start=st.start), cfg)
        lhs, rhs = np.vdot(st.samples, x), np.vdot(S, Y)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(st.samples) * np.linalg.norm(x)


@pytest.mark.parametrize("M,N,Q,osf", [(64, 16, 8, 8), (32, 8, 4, 3), (15, 7, 3, 2)])
def test_chip_chunks_change_no_bit(monkeypatch, M, N, Q, osf):
    # chunks of one chip (run as two, since numpy hands a one-row product to gemv), of 4 and
    # 7 chips (ragged last chunks, a lone last chip at MN = 105) against one chunk of the
    # whole frame; the modulator keeps each stream block's sum in tap order across chunk
    # seams only because it walks the chunks from the last chip
    cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=Q, oversampling=osf)
    rng = np.random.default_rng(M * N * osf)
    S = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    noise = 0.1 * rng.standard_normal((5 + M * N + 2 * Q) * osf)
    outputs = []
    for chips in (M * N, 1, 4, 7):
        monkeypatch.setattr(waveform, "_CHUNK_BYTES", chips * 16 * (2 * Q + 1) * osf)
        st = oddm_modulate(S, cfg, cyclic_prefix_chips=5)
        rx = SampleStream(st.samples + noise, st.rate, st.start)
        outputs.append((st.samples, oddm_demodulate(rx, cfg)))
    for samples, Y in outputs[1:]:
        assert np.array_equal(samples, outputs[0][0])
        assert np.array_equal(Y, outputs[0][1])


@pytest.mark.parametrize("field", ["Q", "rolloff"])
@pytest.mark.parametrize("direction", ["modulate", "demodulate"])
def test_pulse_follows_the_config(direction, field):
    # a config that differs from cfg32() only in Q or the roll-off has the same grid
    # shape and sample rate, so only its pulse tells it apart: each end must use it
    cfg = cfg32(**{"Q": dict(Q=4), "rolloff": dict(rolloff=0.9)}[field])
    a = build_srrc(cfg)
    rng = np.random.default_rng(17)
    S = rng.standard_normal((cfg.M, cfg.N)) + 1j * rng.standard_normal((cfg.M, cfg.N))
    if direction == "modulate":
        st = oddm_modulate(S, cfg)
        ref, start = oddm_modulate_literal(S, a, cfg)
        assert st.start == start and rel_err(st.samples, ref) <= 1e-12
    else:
        st = oddm_modulate(S, cfg32())  # sent with the default pulse
        ref = oddm_demodulate_literal(st.samples, st.start, a, cfg)
        assert rel_err(oddm_demodulate(st, cfg), ref) <= 1e-12


def test_rejects_stream_at_another_rate():
    cfg = cfg32()
    st = oddm_modulate(np.ones((cfg.M, cfg.N)), cfg)
    doubled = SampleStream(samples=st.samples, rate=2 * st.rate, start=st.start)
    with pytest.raises(ValueError, match="stream rate"):
        oddm_demodulate(doubled, cfg)


MODULATORS = {"oddm": oddm_modulate, "otfs": otfs_modulate,
              "ofdm": lambda frame, cfg: ofdm_modulate(frame, cfg, cp_chips=4)}


@pytest.mark.parametrize("scheme", list(MODULATORS))
def test_rejects_non_finite_frame(scheme):
    cfg = cfg32()
    S = np.ones((cfg.M, cfg.N))
    S[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite symbols"):
        MODULATORS[scheme](S, cfg)


def test_rejects_non_finite_stream():
    cfg = cfg32()
    st = oddm_modulate(np.ones((cfg.M, cfg.N)), cfg)
    x = st.samples.copy()
    x[100] = np.inf
    with pytest.raises(ValueError, match="non-finite samples"):
        oddm_demodulate(SampleStream(samples=x, rate=st.rate, start=st.start), cfg)


def sweep_code(run, options, *args):
    """Source that runs harness.<run> on one tiny trial with these options and arguments."""
    spec = {"frame.M": 16, "frame.N": 8, "frame.Q": 4, "run.snr_db": (10.0,),
            "run.trials": 1, "run.frames_per_trial": 1, **options}
    call = "".join(f", {arg!r}" for arg in args)
    return f"from oddmsim import harness; harness.{run}(harness.build_spec({spec!r}){call})"


HEAVY_MODULES = ("scipy.linalg", "scipy.signal", "multiprocessing", "concurrent.futures")

# (code run in a fresh interpreter, heavy modules loaded after it)
SCIPY_CASES = {
    "import": ("import oddmsim", []),
    "nmse-sweep": (sweep_code("run_nmse_sweep", {"channel.model": "synthetic"}), []),
    "ofdm-link": (sweep_code("run_sensing_then_comm",
                             {"run.scheme": "ofdm", "run.detector": "lmmse",
                              "run.fidelity": "waveform"}), []),
    # the positive control: detection factors a band, so it loads scipy.linalg
    # (scipy.linalg loads concurrent.futures itself; the serial sweep loads no pool)
    "oamp-link": (sweep_code("run_sensing_then_comm", {"run.detector": "oamp"}),
                  ["scipy.linalg", "concurrent.futures"]),
    # the positive control of the pool modules: two threads run the trials on a process
    # pool, so the parent loads the pool and its workers do the detecting
    "oamp-pool": (sweep_code("run_sensing_then_comm", {"run.detector": "oamp"}, 2),
                  ["multiprocessing", "concurrent.futures"]),
}


@pytest.mark.parametrize("case", list(SCIPY_CASES))
def test_scipy_loads_only_to_detect(case):
    # importing the package and running sweeps that never detect must stay light:
    # scipy.signal alone costs most of a second, scipy.linalg a few tenths and 28 MB;
    # serial sweeps never load the process-pool modules, about 23 ms of imports
    code, expected = SCIPY_CASES[case]
    src = str(Path(oddmsim.__file__).resolve().parents[1])
    probe = f"import sys; print(','.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == ",".join(expected)


class TestOrthogonality:
    def test_peak_and_off_peak(self):
        cfg = FrameConfig(M=64, N=8, delta_f=15e3, Q=12, oversampling=8)
        a = build_srrc(cfg)
        m_range = list(range(-(64 - 24), 64 - 24 + 1))
        orth = pulse_orthogonality_matrix(a, cfg, m_range, range(8))
        i0 = m_range.index(0)
        assert abs(orth[i0, 0] - 1.0) <= 1e-6
        mask = np.ones_like(orth, dtype=bool)
        mask[i0, 0] = False
        assert orth[mask].max() <= 1e-2

    def test_doppler_only_shifts_vanish(self):
        cfg = cfg32()
        a = build_srrc(cfg)
        orth = pulse_orthogonality_matrix(a, cfg, [0], range(8))
        assert orth[0, 1:].max() <= 1e-3

    def test_tightens_with_Q(self):
        peaks = []
        for Q in (4, 8, 16, 20):
            cfg = FrameConfig(M=64, N=8, delta_f=15e3, Q=Q, oversampling=8)
            a = build_srrc(cfg)
            m_range = list(range(-(64 - 2 * Q), 64 - 2 * Q + 1))
            orth = pulse_orthogonality_matrix(a, cfg, m_range, range(8))
            i0 = m_range.index(0)
            mask = np.ones_like(orth, dtype=bool)
            mask[i0, 0] = False
            peaks.append(orth[mask].max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_range_validation(self):
        cfg = cfg32()
        a = build_srrc(cfg)
        with pytest.raises(ValueError):
            pulse_orthogonality_matrix(a, cfg, [cfg.M], [0])
