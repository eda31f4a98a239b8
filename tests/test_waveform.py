import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oddmsim
from oddmsim import waveform
from oddmsim.baselines import ofdm_modulate, otfs_demodulate, otfs_modulate
from oddmsim.channel import apply_physical_channel, channel_from_cells
from oddmsim.core import FrameConfig, random_frame
from oddmsim.waveform import SampleStream, build_srrc, oddm_demodulate, oddm_modulate

from oracles import oddm_demodulate_literal, oddm_modulate_literal, pulse_orthogonality_matrix


def cfg32(**kw):
    args = dict(M=32, N=8, Q=8, oversampling=8)
    args.update(kw)
    return FrameConfig(**args)


class TestSrrc:
    def test_tap_count_and_energy(self):
        cfg = FrameConfig(M=64, N=8, Q=20, oversampling=8)
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
        s = np.zeros(cfg.mn, dtype=complex)
        s[0] = 1.0  # S(0, 0)
        st = oddm_modulate(s, cfg, 0)
        u = np.zeros_like(st.samples)
        for n_hat in range(cfg.N):
            start = n_hat * cfg.M * cfg.oversampling
            u[start:start + a.size] += a
        assert np.allclose(st.samples, u, atol=1e-12)

    def test_delay_slot_is_integer_shift(self):
        cfg = cfg32()
        s0 = np.zeros(cfg.mn, dtype=complex)
        s0[0] = 1.0  # S(0, 0)
        sm = np.zeros(cfg.mn, dtype=complex)
        sm[5 * cfg.N] = 1.0  # S(5, 0)
        a = oddm_modulate(s0, cfg, 0).samples
        b = oddm_modulate(sm, cfg, 0).samples
        shift = 5 * cfg.oversampling
        assert np.allclose(b[shift:], a[:-shift], atol=1e-12)
        assert np.allclose(b[:shift], 0.0, atol=1e-12)

    def test_energy_conservation(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(42))
        st = oddm_modulate(frame, cfg, 0)
        ratio = np.sum(np.abs(st.samples) ** 2) / np.sum(np.abs(frame) ** 2)
        assert 0.98 <= ratio <= 1.0

    def test_roundtrip_identity(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(7))
        back = oddm_demodulate(oddm_modulate(frame, cfg, 0), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-2

    @pytest.mark.parametrize("M,Q", [(64, 8), (128, 16)])
    def test_roundtrip_identity_headroom_configs(self, M, Q):
        # 2Q <= M/4, oversampling >= 8
        cfg = FrameConfig(M=M, N=8, Q=Q, oversampling=8)
        _, frame = random_frame(cfg, np.random.default_rng(M + Q))
        back = oddm_demodulate(oddm_modulate(frame, cfg, 0), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-2

    def test_zero_stream(self):
        cfg = cfg32()
        st = oddm_modulate(np.zeros(cfg.mn, dtype=complex), cfg, 0)
        back = oddm_demodulate(st, cfg)
        assert np.allclose(back, 0.0)

    def test_linearity(self):
        cfg = cfg32()
        rng = np.random.default_rng(3)
        _, fx = random_frame(cfg, rng)
        _, fy = random_frame(cfg, rng)
        a, b = 1.3 - 0.2j, -0.4 + 0.9j
        combo = oddm_modulate(a * fx + b * fy, cfg, 0).samples
        parts = a * oddm_modulate(fx, cfg, 0).samples + b * oddm_modulate(fy, cfg, 0).samples
        assert np.allclose(combo, parts, atol=1e-12)

    def test_stream_too_short(self):
        cfg = cfg32()
        st = oddm_modulate(np.zeros(cfg.mn, dtype=complex), cfg, 0)
        from oddmsim.waveform import SampleStream
        clipped = SampleStream(samples=st.samples[:100], start=st.start)
        with pytest.raises(ValueError):
            oddm_demodulate(clipped, cfg)

    def test_single_path_matches_effective_matrix(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(11))
        chan = channel_from_cells(cfg, [(2, 1)], [1.0])
        st = oddm_modulate(frame, cfg, cp_chips=8)
        rx = apply_physical_channel(st, chan)
        y = oddm_demodulate(rx, cfg)
        ref = chan.apply(frame)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) <= 2e-2


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


LITERAL_GRIDS = [(32, 8, 4), (64, 16, 8), (24, 6, 4)]
# cp M - 1 is the largest prefix a transmitter accepts
LITERAL_CASES = [(M, N, Q, osf, beta, cp) for (M, N, Q) in LITERAL_GRIDS
                 for osf in (1, 3, 8) for beta in (0.0, 0.25) for cp in (0, 5, M - 1)]


def literal_case(M, N, Q, osf, beta):
    cfg = FrameConfig(M=M, N=N, Q=Q, rolloff=beta,
                            oversampling=osf)
    rng = np.random.default_rng(M * 100 + osf * 10 + int(beta * 4))
    s = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
    return cfg, build_srrc(cfg), s, rng


def case_id(case):
    return "{}x{}-Q{}-osf{}-beta{}-cp{}".format(*case)


class TestLiteralOracle:
    """The chip-grid transceiver against per-symbol pulse trains built sample by sample."""

    @pytest.mark.parametrize("M,N,Q,osf,beta,cp", LITERAL_CASES,
                             ids=[case_id(c) for c in LITERAL_CASES])
    def test_modulate_matches_literal(self, M, N, Q, osf, beta, cp):
        cfg, a, s, _ = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(s, cfg, cp_chips=cp)
        ref, start = oddm_modulate_literal(s, a, cfg, cp_chips=cp)
        assert st.start == start and st.samples.size == ref.size
        assert rel_err(st.samples, ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q,osf,beta,cp", LITERAL_CASES,
                             ids=[case_id(c) for c in LITERAL_CASES])
    def test_demodulate_matches_literal(self, M, N, Q, osf, beta, cp):
        cfg, a, s, rng = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(s, cfg, cp_chips=cp)
        # the transmitted frame plus noise, with a few extra samples on both sides
        x = np.concatenate([rng.standard_normal(3), st.samples, rng.standard_normal(2)])
        x = x + 0.1 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        start = st.start - 3
        rx = SampleStream(samples=x, start=start)
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
        rx = SampleStream(samples=x, start=-qos)
        ref = oddm_demodulate_literal(x, -qos, a, cfg)
        assert rel_err(oddm_demodulate(rx, cfg), ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q,osf,beta", [c[:5] for c in LITERAL_CASES if c[5] == 0],
                             ids=[case_id(c)[:-4] for c in LITERAL_CASES if c[5] == 0])
    def test_adjoint_identity(self, M, N, Q, osf, beta):
        # <mod(S), x> = <S, demod(x)> on the stream span of a frame without cyclic prefix
        cfg, a, s, rng = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(s, cfg, 0)
        x = rng.standard_normal(st.samples.size) + 1j * rng.standard_normal(st.samples.size)
        y = oddm_demodulate(SampleStream(samples=x, start=st.start), cfg)
        lhs, rhs = np.vdot(st.samples, x), np.vdot(s, y)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(st.samples) * np.linalg.norm(x)


@pytest.mark.parametrize("M,N,Q,osf", [(64, 16, 8, 8), (32, 8, 4, 3), (15, 7, 3, 2)])
def test_chip_chunks_change_no_bit(monkeypatch, M, N, Q, osf):
    # chunks of one chip (run as two, since numpy hands a one-row product to gemv), of 4 and
    # 7 chips (ragged last chunks, a lone last chip at MN = 105) against one chunk of the
    # whole frame; the modulator keeps each stream block's sum in tap order across chunk
    # seams only because it walks the chunks from the last chip
    cfg = FrameConfig(M=M, N=N, Q=Q, oversampling=osf)
    rng = np.random.default_rng(M * N * osf)
    s = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
    noise = 0.1 * rng.standard_normal((5 + M * N + 2 * Q) * osf)
    outputs = []
    for chips in (M * N, 1, 4, 7):
        monkeypatch.setattr(waveform, "_CHUNK_BYTES", chips * 16 * (2 * Q + 1) * osf)
        st = oddm_modulate(s, cfg, cp_chips=5)
        rx = SampleStream(st.samples + noise, st.start)
        outputs.append((st.samples, oddm_demodulate(rx, cfg)))
    for samples, Y in outputs[1:]:
        assert np.array_equal(samples, outputs[0][0])
        assert np.array_equal(Y, outputs[0][1])


def test_tap_bank_is_built_once_per_config():
    # both directions read one shared bank per config, which no caller may write
    bank = waveform._tap_bank(cfg32())
    assert waveform._tap_bank(cfg32()) is bank
    assert not bank.flags.writeable


@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_hop_phases_match_integer_reduced_phase(N):
    # e^{+-j2pi n n_hat / N} with the exponent reduced exactly in integers; an exponential of
    # the unreduced 2pi n n_hat / N was off by 2.0e-14 at N = 32 and 8.2e-14 at N = 128
    n = np.arange(N)
    for sign in (1, -1):
        ref = np.exp(sign * 2j * np.pi * (np.outer(n, n) % N) / N)
        assert np.max(np.abs(waveform._hop_phases(N, sign) - ref)) <= 1e-14


@pytest.mark.parametrize("field", ["Q", "rolloff"])
@pytest.mark.parametrize("direction", ["modulate", "demodulate"])
def test_pulse_follows_the_config(direction, field):
    # a config that differs from cfg32() only in Q or the roll-off has the same grid
    # shape and oversampling, so only its pulse tells it apart: each end must use it
    cfg = cfg32(**{"Q": dict(Q=4), "rolloff": dict(rolloff=0.9)}[field])
    a = build_srrc(cfg)
    rng = np.random.default_rng(17)
    s = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
    if direction == "modulate":
        st = oddm_modulate(s, cfg, 0)
        ref, start = oddm_modulate_literal(s, a, cfg, 0)
        assert st.start == start and rel_err(st.samples, ref) <= 1e-12
    else:
        st = oddm_modulate(s, cfg32(), 0)  # sent with the default pulse
        ref = oddm_demodulate_literal(st.samples, st.start, a, cfg)
        assert rel_err(oddm_demodulate(st, cfg), ref) <= 1e-12


@pytest.mark.parametrize("start", [2.5, True, "0"])
def test_stream_start_is_an_integer_sample_index(start):
    with pytest.raises(ValueError, match="^start must be an integer sample index"):
        SampleStream(samples=np.zeros(4, complex), start=start)


def test_stream_samples_are_one_complex_vector():
    # a list of samples used to raise AttributeError in the demodulators and the channel, and a
    # 2-D array a numpy error deep inside oddm_demodulate
    cfg = cfg32()
    chan = channel_from_cells(cfg, [(1, 1)], [0.5])
    for modulate, demodulate in ((oddm_modulate, oddm_demodulate),
                                 (otfs_modulate, otfs_demodulate)):
        st = modulate(np.ones(cfg.mn), cfg, 0)
        assert SampleStream(samples=st.samples, start=st.start).samples is st.samples
        listed = SampleStream(samples=st.samples.tolist(), start=st.start)
        assert np.array_equal(demodulate(listed, cfg), demodulate(st, cfg))
        assert np.array_equal(apply_physical_channel(listed, chan).samples,
                              apply_physical_channel(st, chan).samples)
    with pytest.raises(ValueError, match="^samples "):
        SampleStream(samples=st.samples.reshape(2, -1), start=st.start)


def test_rejects_stream_at_another_rate():
    # a stream has no rate of its own to disagree with the frame's: it counts samples at its
    # frame config's oversampling, so a receiver at twice that finds it too short
    cfg = cfg32()
    st = oddm_modulate(np.ones(cfg.mn), cfg, 0)
    with pytest.raises(TypeError, match="oversampling"):
        SampleStream(samples=st.samples, oversampling=2 * cfg.oversampling, start=st.start)
    with pytest.raises(ValueError, match="receive window"):
        oddm_demodulate(st, cfg32(oversampling=2 * cfg.oversampling))


MODULATORS = {"oddm": oddm_modulate, "otfs": otfs_modulate, "ofdm": ofdm_modulate}


@pytest.mark.parametrize("scheme", list(MODULATORS))
def test_rejects_non_finite_frame(scheme):
    cfg = cfg32()
    s = np.ones(cfg.mn)
    s[3 * cfg.N + 2] = np.nan
    with pytest.raises(ValueError, match="frame contains non-finite values"):
        MODULATORS[scheme](s, cfg, 4)


def test_rejects_non_finite_stream():
    cfg = cfg32()
    st = oddm_modulate(np.ones(cfg.mn), cfg, 0)
    x = st.samples.copy()
    x[100] = np.inf
    with pytest.raises(ValueError, match="non-finite samples"):
        oddm_demodulate(SampleStream(samples=x, start=st.start), cfg)


def sweep_code(run, options, *args):
    """Source that runs harness.<run> on one tiny trial with these options and arguments."""
    spec = {"frame.M": 16, "frame.N": 8, "run.snr_db": (10.0,),
            "run.trials": 1, "run.frames_per_trial": 1, **options}
    call = "".join(f", {arg!r}" for arg in args)
    return f"from oddmsim import harness; harness.{run}(harness.build_spec({spec!r}){call})"


HEAVY_MODULES = ("scipy.linalg", "scipy.linalg._flapack", "scipy.signal", "numpy.ma",
                 "multiprocessing", "concurrent.futures")

# (code run in a fresh interpreter, heavy modules loaded after it): the one statement of
# which heavy modules each kind of sweep loads
SCIPY_CASES = {
    "import": ("import oddmsim", []),
    "nmse-sweep": (sweep_code("run_nmse_sweep", {"channel.model": "synthetic"}), []),
    "ofdm-link": (sweep_code("run_sensing_then_comm",
                             {"run.scheme": "ofdm", "run.detector": "lmmse",
                              "run.fidelity": "waveform"}), []),
    # the positive control: detection factors a band, so it loads scipy's LAPACK module,
    # and that alone: neither the scipy.linalg package nor numpy.ma
    "oamp-link": (sweep_code("run_sensing_then_comm", {"run.detector": "oamp"}),
                  ["scipy.linalg._flapack"]),
    # the same with the waveform chain and the estimator in the link: the confidence medians
    # are a partition, since np.median imports numpy.ma
    "estimated-oamp-link": (sweep_code("run_sensing_then_comm",
                                       {"frame.Q": 4, "run.fidelity": "waveform",
                                        "run.csi": "estimated", "run.detector": "oamp"}),
                            ["scipy.linalg._flapack"]),
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
        cfg = FrameConfig(M=64, N=8, Q=12, oversampling=8)
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
            cfg = FrameConfig(M=64, N=8, Q=Q, oversampling=8)
            a = build_srrc(cfg)
            m_range = list(range(-(64 - 2 * Q), 64 - 2 * Q + 1))
            orth = pulse_orthogonality_matrix(a, cfg, m_range, range(8))
            i0 = m_range.index(0)
            mask = np.ones_like(orth, dtype=bool)
            mask[i0, 0] = False
            peaks.append(orth[mask].max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))
