import numpy as np
import pytest

from oddmsim.baselines import (ofdm_detect, ofdm_freq_response, ofdm_modulate,
                               otfs_demodulate, otfs_modulate)
from oddmsim.channel import (add_awgn, apply_physical_channel, channel_from_cells,
                             gen_eva_channel, snr_to_noise_var)
from oddmsim.core import FrameConfig, random_frame, vectorize
from oddmsim.waveform import SampleStream, oddm_demodulate, oddm_modulate

from oracles import count_bit_errors, qpsk_awgn_ber


def cfg32():
    return FrameConfig(M=32, N=8, delta_f=15e3, Q=8)


class TestOtfs:
    def test_roundtrip_identity(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(0))
        back = otfs_demodulate(otfs_modulate(frame, cfg), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-10

    def test_roundtrip_with_prefix(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(1))
        back = otfs_demodulate(otfs_modulate(frame, cfg, cyclic_prefix_chips=8), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-10

    def test_parseval(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(2))
        st = otfs_modulate(frame, cfg)
        assert np.sum(np.abs(st.samples) ** 2) == pytest.approx(
            np.sum(np.abs(frame) ** 2), rel=1e-10)

    def test_delay_only_channel_matches_model(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(3))
        chan = channel_from_cells(cfg, [(3, 0)], [0.9 - 0.2j])
        rx = apply_physical_channel(
            otfs_modulate(frame, cfg, cyclic_prefix_chips=8), chan)
        Y = otfs_demodulate(rx, cfg)
        ref = chan.apply(vectorize(frame))
        assert np.max(np.abs(Y.reshape(-1) - ref)) <= 1e-10

    def test_doppler_channel_close_to_model(self):
        # chip-held transmit pulses rotate inside a chip, so Doppler paths
        # match the integer-grid model only up to an O(k/MN) discrepancy
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(4))
        chan = channel_from_cells(cfg, [(2, 1), (5, -1)], [0.8, 0.4j])
        rx = apply_physical_channel(
            otfs_modulate(frame, cfg, cyclic_prefix_chips=8), chan)
        Y = otfs_demodulate(rx, cfg).reshape(-1)
        ref = chan.apply(vectorize(frame))
        assert np.linalg.norm(Y - ref) / np.linalg.norm(ref) <= 3e-2

    def test_frame_shape_checked(self):
        cfg = cfg32()
        with pytest.raises(ValueError):
            otfs_modulate(np.zeros((8, 32), dtype=complex), cfg)


class TestOfdm:
    def test_noiseless_static_single_tap(self):
        cfg = cfg32()
        rng = np.random.default_rng(5)
        bits, frame = random_frame(cfg, rng)
        chan = channel_from_cells(cfg, [(1, 0)], [0.6 + 0.8j])
        st = ofdm_modulate(frame, cfg, cp_chips=4)
        rx = apply_physical_channel(st, chan)
        out = ofdm_detect(rx, ofdm_freq_response(chan, cfg, 4), 1e-12, cfg, 4)
        assert count_bit_errors(bits, out) == 0

    def test_static_flat_channel_tracks_awgn(self):
        cfg = FrameConfig(M=64, N=16, delta_f=15e3, Q=8)
        snr_db = 7.0
        chan = channel_from_cells(cfg, [(0, 0)], [1.0])
        resp = ofdm_freq_response(chan, cfg, 4)
        nv = snr_to_noise_var(snr_db)
        errors = total = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            bits, frame = random_frame(cfg, rng)
            st = ofdm_modulate(frame, cfg, cp_chips=4)
            rx = apply_physical_channel(st, chan)
            rx = SampleStream(add_awgn(rx.samples, nv, 7000 + seed), rx.rate, rx.start)
            out = ofdm_detect(rx, resp, nv, cfg, 4)
            errors += count_bit_errors(bits, out)
            total += bits.size
        assert total >= 1e5
        ber = errors / total
        ref = qpsk_awgn_ber(snr_db)
        assert 0.5 * ref <= ber <= 2.0 * ref

    def test_high_mobility_error_floor(self):
        # noiseless with one-tap equalization: residual errors are pure
        # inter-carrier interference from the Doppler spread
        cfg = FrameConfig(M=64, N=16, delta_f=15e3, Q=8)
        errors = total = 0
        for seed in range(6):
            rng = np.random.default_rng(40 + seed)
            bits, frame = random_frame(cfg, rng)
            chan = gen_eva_channel(cfg, 350.0, 5e9, 400 + seed)
            cp = int(chan.l.max()) + 1
            st = ofdm_modulate(frame, cfg, cp_chips=cp)
            rx = apply_physical_channel(st, chan)
            out = ofdm_detect(rx, ofdm_freq_response(chan, cfg, cp), 1e-9, cfg, cp)
            errors += count_bit_errors(bits, out)
            total += bits.size
        assert errors > 0  # the floor is visible even without noise

    def test_cp_shorter_than_delay_spread_degrades(self):
        cfg = cfg32()
        rng = np.random.default_rng(6)
        bits, frame = random_frame(cfg, rng)
        chan = channel_from_cells(cfg, [(0, 0), (6, 0)], [0.8, 0.6])
        st = ofdm_modulate(frame, cfg, cp_chips=2)  # too short
        rx = apply_physical_channel(st, chan)
        out = ofdm_detect(rx, ofdm_freq_response(chan, cfg, 2), 1e-9, cfg, 2)
        assert count_bit_errors(bits, out) > 0

    def test_symbol_count_validated(self):
        cfg = cfg32()
        with pytest.raises(ValueError):
            ofdm_modulate(np.zeros(7, dtype=complex), cfg, cp_chips=4)


RECEIVERS = {  # (transmit a frame, receive a stream)
    "oddm": (lambda cfg, frame: oddm_modulate(frame, cfg, cyclic_prefix_chips=5),
             lambda stream, cfg: oddm_demodulate(stream, cfg)),
    "otfs": (lambda cfg, frame: otfs_modulate(frame, cfg, cyclic_prefix_chips=8),
             lambda stream, cfg: otfs_demodulate(stream, cfg)),
    "ofdm": (lambda cfg, frame: ofdm_modulate(frame, cfg, cp_chips=4),
             lambda stream, cfg: ofdm_detect(stream, np.ones((cfg.N, cfg.M)), 0.1, cfg, 4)),
}


@pytest.mark.parametrize("receiver", list(RECEIVERS))
@pytest.mark.parametrize("fault", ["rate", "nan"])
def test_receiver_rejects_bad_stream(receiver, fault):
    # a stream at another sample rate or with a NaN sample raises, naming the mismatch
    cfg = cfg32()
    modulate, receive = RECEIVERS[receiver]
    st = modulate(cfg, random_frame(cfg, np.random.default_rng(7))[1])
    receive(st, cfg)  # the unmodified stream is accepted
    if fault == "rate":
        bad = SampleStream(samples=st.samples, rate=2 * st.rate, start=st.start)
    else:
        x = st.samples.copy()
        x[x.size // 2] = np.nan
        bad = SampleStream(samples=x, rate=st.rate, start=st.start)
    with pytest.raises(ValueError, match={"rate": "stream rate", "nan": "non-finite"}[fault]):
        receive(bad, cfg)


# each receiver's window [first, stop) of the frame's time axis (OFDM with its 4-chip prefix)
WINDOWS = {"oddm": lambda Q, M, N, osf: (-Q * osf, (M * N - 1) * osf + Q * osf + 1),
           "otfs": lambda Q, M, N, osf: (0, M * N * osf),
           "ofdm": lambda Q, M, N, osf: (0, N * (M + 4) * osf)}


@pytest.mark.parametrize("receiver", list(RECEIVERS))
def test_receiver_reads_exactly_its_window(receiver):
    # a stream cut to the window gives the full stream's output; one sample less at
    # either end raises
    cfg = cfg32()
    modulate, receive = RECEIVERS[receiver]
    st = modulate(cfg, random_frame(cfg, np.random.default_rng(8))[1])
    first, stop = WINDOWS[receiver](cfg.Q, cfg.M, cfg.N, cfg.oversampling)
    exact = st.samples[first - st.start:stop - st.start]
    assert np.array_equal(receive(SampleStream(exact, st.rate, first), cfg), receive(st, cfg))
    for cut, start in ((exact[1:], first + 1), (exact[:-1], first)):
        with pytest.raises(ValueError, match="receive window"):
            receive(SampleStream(cut, st.rate, start), cfg)
