import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oddmsim
from oddmsim.channel import apply_physical_channel, channel_from_cells
from oddmsim.core import make_frame_config, random_frame, vectorize
from oddmsim.waveform import (SampleStream, build_srrc, oddm_demodulate, oddm_modulate,
                              pulse_orthogonality_matrix)

from oracles import oddm_demodulate_literal, oddm_modulate_literal


def cfg32(**kw):
    args = dict(M=32, N=8, delta_f=15e3, f_c=5e9, Q=8, oversampling=8)
    args.update(kw)
    return make_frame_config(**args)


class TestSrrc:
    def test_tap_count_and_energy(self):
        cfg = make_frame_config(M=64, N=8, delta_f=15e3, f_c=5e9, Q=20, oversampling=8)
        p = build_srrc(cfg)
        assert p.a.size == 2 * 20 * 8 + 1 == 321
        assert abs(np.sum(p.a ** 2) - 1.0 / cfg.N) < 1e-6 / cfg.N
        assert abs(p.u_energy - 1.0) < 1e-6

    def test_time_symmetry(self):
        p = build_srrc(cfg32())
        assert np.array_equal(p.a, p.a[::-1])

    def test_zero_rolloff_is_sinc_like(self):
        cfg = cfg32(rolloff=0.0)
        p = build_srrc(cfg)
        osf = cfg.oversampling
        center = p.a.size // 2
        # values at nonzero integer multiples of the slot spacing are sinc zeros
        at_slots = p.a[center + osf::osf]
        assert np.max(np.abs(at_slots)) <= 1e-2 * p.a[center]

    def test_rolloff_quarter_vs_tenth_truncation(self):
        # the default roll-off keeps the truncated pulse much closer to Nyquist
        def max_isi(beta):
            cfg = cfg32(rolloff=beta)
            p = build_srrc(cfg)
            osf = cfg.oversampling
            lags = np.arange(1, 2 * cfg.Q)
            vals = [abs(np.dot(p.a[lag * osf:], p.a[:p.a.size - lag * osf]))
                    for lag in lags]
            return max(vals) * cfg.N  # relative to unit pulse-pair gain
        assert max_isi(0.25) < 0.3 * max_isi(0.1)


class TestModDemod:
    def test_single_symbol_is_pulse_train(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        S = np.zeros((32, 8), dtype=complex)
        S[0, 0] = 1.0
        st = oddm_modulate(S, p, cfg)
        u = np.zeros_like(st.samples)
        for n_hat in range(cfg.N):
            start = n_hat * cfg.M * cfg.oversampling
            u[start:start + p.a.size] += p.a
        assert np.allclose(st.samples, u, atol=1e-12)

    def test_delay_slot_is_integer_shift(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        S0 = np.zeros((32, 8), dtype=complex)
        S0[0, 0] = 1.0
        Sm = np.zeros((32, 8), dtype=complex)
        Sm[5, 0] = 1.0
        a = oddm_modulate(S0, p, cfg).samples
        b = oddm_modulate(Sm, p, cfg).samples
        shift = 5 * cfg.oversampling
        assert np.allclose(b[shift:], a[:-shift], atol=1e-12)
        assert np.allclose(b[:shift], 0.0, atol=1e-12)

    def test_energy_conservation(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        _, frame = random_frame(cfg, np.random.default_rng(42))
        st = oddm_modulate(frame, p, cfg)
        ratio = np.sum(np.abs(st.samples) ** 2) / np.sum(np.abs(frame.symbols) ** 2)
        assert 0.98 <= ratio <= 1.0

    def test_roundtrip_identity(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        _, frame = random_frame(cfg, np.random.default_rng(7))
        back = oddm_demodulate(oddm_modulate(frame, p, cfg), p, cfg)
        assert np.max(np.abs(back.symbols - frame.symbols)) <= 1e-2

    @pytest.mark.parametrize("M,Q", [(64, 8), (128, 16)])
    def test_roundtrip_identity_headroom_configs(self, M, Q):
        # 2Q <= M/4, oversampling >= 8
        cfg = make_frame_config(M=M, N=8, delta_f=15e3, f_c=5e9, Q=Q, oversampling=8)
        p = build_srrc(cfg)
        _, frame = random_frame(cfg, np.random.default_rng(M + Q))
        back = oddm_demodulate(oddm_modulate(frame, p, cfg), p, cfg)
        assert np.max(np.abs(back.symbols - frame.symbols)) <= 1e-2

    def test_zero_stream(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        st = oddm_modulate(np.zeros((32, 8), dtype=complex), p, cfg)
        back = oddm_demodulate(st, p, cfg)
        assert np.allclose(back.symbols, 0.0)

    def test_linearity(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        rng = np.random.default_rng(3)
        _, fx = random_frame(cfg, rng)
        _, fy = random_frame(cfg, rng)
        a, b = 1.3 - 0.2j, -0.4 + 0.9j
        combo = oddm_modulate(a * fx.symbols + b * fy.symbols, p, cfg).samples
        parts = a * oddm_modulate(fx, p, cfg).samples + b * oddm_modulate(fy, p, cfg).samples
        assert np.allclose(combo, parts, atol=1e-12)

    def test_stream_too_short(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        st = oddm_modulate(np.zeros((32, 8), dtype=complex), p, cfg)
        from oddmsim.waveform import SampleStream
        clipped = SampleStream(samples=st.samples[:100], rate=st.rate, t0=st.t0)
        with pytest.raises(ValueError):
            oddm_demodulate(clipped, p, cfg)

    def test_single_path_matches_effective_matrix(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        _, frame = random_frame(cfg, np.random.default_rng(11))
        chan = channel_from_cells(cfg, [(2, 1)], [1.0])
        st = oddm_modulate(frame, p, cfg, cyclic_prefix_chips=8)
        rx = apply_physical_channel(st, chan, 0.0)
        Y = oddm_demodulate(rx, p, cfg).symbols
        ref = chan.apply(vectorize(frame)).reshape(cfg.M, cfg.N)
        assert np.linalg.norm(Y - ref) / np.linalg.norm(ref) <= 2e-2


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


LITERAL_GRIDS = [(32, 8, 4), (64, 16, 8), (24, 6, 4)]
LITERAL_CASES = [(M, N, Q, osf, beta, cp) for (M, N, Q) in LITERAL_GRIDS
                 for osf in (1, 3, 8) for beta in (0.0, 0.25) for cp in (0, 5, M)]


def literal_case(M, N, Q, osf, beta):
    cfg = make_frame_config(M=M, N=N, delta_f=15e3, f_c=5e9, Q=Q, rolloff=beta,
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
        cfg, p, S, _ = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(S, p, cfg, cyclic_prefix_chips=cp)
        ref, start = oddm_modulate_literal(S, p, cfg, cyclic_prefix_chips=cp)
        assert st.start_index == start and st.samples.size == ref.size
        assert rel_err(st.samples, ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q,osf,beta,cp", LITERAL_CASES,
                             ids=[case_id(c) for c in LITERAL_CASES])
    def test_demodulate_matches_literal(self, M, N, Q, osf, beta, cp):
        cfg, p, S, rng = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(S, p, cfg, cyclic_prefix_chips=cp)
        # the transmitted frame plus noise, with a few extra samples on both sides
        x = np.concatenate([rng.standard_normal(3), st.samples, rng.standard_normal(2)])
        x = x + 0.1 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        start = st.start_index - 3
        rx = SampleStream(samples=x, rate=cfg.sample_rate, t0=start / cfg.sample_rate)
        ref = oddm_demodulate_literal(x, start, p, cfg)
        assert rel_err(oddm_demodulate(rx, p, cfg).symbols, ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q", LITERAL_GRIDS)
    def test_demodulate_shortest_stream_matches_literal(self, M, N, Q):
        # the stream ends at the last sample the matched filter needs
        cfg, p, _, rng = literal_case(M, N, Q, 3, 0.25)
        qos = Q * 3
        last_needed = (M * N - 1) * 3 + qos
        size = last_needed + qos + 1
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        rx = SampleStream(samples=x, rate=cfg.sample_rate, t0=-qos / cfg.sample_rate)
        ref = oddm_demodulate_literal(x, -qos, p, cfg)
        assert rel_err(oddm_demodulate(rx, p, cfg).symbols, ref) <= 1e-12

    @pytest.mark.parametrize("M,N,Q,osf,beta", [c[:5] for c in LITERAL_CASES if c[5] == 0],
                             ids=[case_id(c)[:-4] for c in LITERAL_CASES if c[5] == 0])
    def test_adjoint_identity(self, M, N, Q, osf, beta):
        # <mod(S), x> = <S, demod(x)> on the stream span of a frame without cyclic prefix
        cfg, p, S, rng = literal_case(M, N, Q, osf, beta)
        st = oddm_modulate(S, p, cfg)
        x = rng.standard_normal(st.samples.size) + 1j * rng.standard_normal(st.samples.size)
        Y = oddm_demodulate(SampleStream(samples=x, rate=st.rate, t0=st.t0), p, cfg).symbols
        lhs, rhs = np.vdot(st.samples, x), np.vdot(S, Y)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(st.samples) * np.linalg.norm(x)


OTHER_CONFIG = {"oversampling": dict(oversampling=4), "copies": dict(N=4),
                "block": dict(M=16, Q=4)}


@pytest.mark.parametrize("field", sorted(OTHER_CONFIG))
@pytest.mark.parametrize("direction", ["modulate", "demodulate"])
def test_rejects_pulses_built_for_another_config(direction, field):
    cfg = cfg32()
    wrong = build_srrc(cfg32(**OTHER_CONFIG[field]))
    S = np.ones((cfg.M, cfg.N), dtype=complex)
    with pytest.raises(ValueError, match=f"pulses.{field}"):
        if direction == "modulate":
            oddm_modulate(S, wrong, cfg)
        else:
            oddm_demodulate(oddm_modulate(S, build_srrc(cfg), cfg), wrong, cfg)


def test_rejects_stream_at_another_rate():
    cfg = cfg32()
    p = build_srrc(cfg)
    st = oddm_modulate(np.ones((cfg.M, cfg.N)), p, cfg)
    doubled = SampleStream(samples=st.samples, rate=2 * st.rate, t0=st.t0 / 2)
    with pytest.raises(ValueError, match="stream rate"):
        oddm_demodulate(doubled, p, cfg)


def test_rejects_non_finite_frame():
    cfg = cfg32()
    S = np.ones((cfg.M, cfg.N))
    S[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite symbols"):
        oddm_modulate(S, build_srrc(cfg), cfg)


def test_rejects_non_finite_stream():
    cfg = cfg32()
    p = build_srrc(cfg)
    st = oddm_modulate(np.ones((cfg.M, cfg.N)), p, cfg)
    x = st.samples.copy()
    x[100] = np.inf
    with pytest.raises(ValueError, match="non-finite samples"):
        oddm_demodulate(SampleStream(samples=x, rate=st.rate, t0=st.t0), p, cfg)


def test_import_leaves_scipy_signal_unloaded():
    # importing the package must stay light: scipy.signal alone costs most of a second
    src = str(Path(oddmsim.__file__).resolve().parents[1])
    code = "import sys, oddmsim; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


class TestOrthogonality:
    def test_peak_and_off_peak(self):
        cfg = make_frame_config(M=64, N=8, delta_f=15e3, f_c=5e9, Q=12, oversampling=8)
        p = build_srrc(cfg)
        m_range = list(range(-(64 - 24), 64 - 24 + 1))
        orth = pulse_orthogonality_matrix(p, cfg, m_range, range(8))
        i0 = m_range.index(0)
        assert abs(orth[i0, 0] - 1.0) <= 1e-6
        mask = np.ones_like(orth, dtype=bool)
        mask[i0, 0] = False
        assert orth[mask].max() <= 1e-2

    def test_doppler_only_shifts_vanish(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        orth = pulse_orthogonality_matrix(p, cfg, [0], range(8))
        assert orth[0, 1:].max() <= 1e-3

    def test_tightens_with_Q(self):
        peaks = []
        for Q in (4, 8, 16, 20):
            cfg = make_frame_config(M=64, N=8, delta_f=15e3, f_c=5e9, Q=Q, oversampling=8)
            p = build_srrc(cfg)
            m_range = list(range(-(64 - 2 * Q), 64 - 2 * Q + 1))
            orth = pulse_orthogonality_matrix(p, cfg, m_range, range(8))
            i0 = m_range.index(0)
            mask = np.ones_like(orth, dtype=bool)
            mask[i0, 0] = False
            peaks.append(orth[mask].max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_range_validation(self):
        cfg = cfg32()
        p = build_srrc(cfg)
        with pytest.raises(ValueError):
            pulse_orthogonality_matrix(p, cfg, [cfg.M], [0])
