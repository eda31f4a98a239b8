import re
from dataclasses import replace

import numpy as np
import pytest

from oddmsim import harness
from oddmsim.baselines import (ofdm_detect, ofdm_freq_response, ofdm_modulate,
                               otfs_demodulate, otfs_modulate)
from oddmsim.channel import (add_awgn, apply_physical_channel, channel_from_cells,
                             gen_eva_channel, snr_to_noise_var)
from oddmsim.core import FrameConfig, random_frame
from oddmsim.waveform import SampleStream, oddm_demodulate, oddm_modulate

from oracles import count_bit_errors, qpsk_awgn_ber


def cfg32():
    return FrameConfig(M=32, N=8, Q=8)


class TestOtfs:
    def test_roundtrip_identity(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(0))
        back = otfs_demodulate(otfs_modulate(frame, cfg, 0), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-10

    def test_roundtrip_with_prefix(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(1))
        back = otfs_demodulate(otfs_modulate(frame, cfg, cp_chips=8), cfg)
        assert np.max(np.abs(back - frame)) <= 1e-10

    def test_parseval(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(2))
        st = otfs_modulate(frame, cfg, 0)
        assert np.sum(np.abs(st.samples) ** 2) == pytest.approx(
            np.sum(np.abs(frame) ** 2), rel=1e-10)

    def test_delay_only_channel_matches_model(self):
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(3))
        chan = channel_from_cells(cfg, [(3, 0)], [0.9 - 0.2j])
        rx = apply_physical_channel(
            otfs_modulate(frame, cfg, cp_chips=8), chan)
        y = otfs_demodulate(rx, cfg)
        ref = chan.apply(frame)
        assert np.max(np.abs(y - ref)) <= 1e-10

    def test_doppler_channel_close_to_model(self):
        # chip-held transmit pulses rotate inside a chip, so Doppler paths
        # match the integer-grid model only up to an O(k/MN) discrepancy
        cfg = cfg32()
        _, frame = random_frame(cfg, np.random.default_rng(4))
        chan = channel_from_cells(cfg, [(2, 1), (5, -1)], [0.8, 0.4j])
        rx = apply_physical_channel(
            otfs_modulate(frame, cfg, cp_chips=8), chan)
        y = otfs_demodulate(rx, cfg)
        ref = chan.apply(frame)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) <= 3e-2

    def test_frame_shape_checked(self):
        cfg = cfg32()
        with pytest.raises(ValueError):
            otfs_modulate(np.zeros((8, 32), dtype=complex), cfg, 0)


class TestOfdm:
    def test_noiseless_static_single_tap(self):
        cfg = cfg32()
        rng = np.random.default_rng(5)
        bits, frame = random_frame(cfg, rng)
        chan = channel_from_cells(cfg, [(1, 0)], [0.6 + 0.8j])
        st = ofdm_modulate(frame, cfg, cp_chips=4)
        rx = apply_physical_channel(st, chan)
        out = ofdm_detect(rx, ofdm_freq_response(chan, 4), 1e-12, cfg, 4)
        assert count_bit_errors(bits, out) == 0

    def test_static_flat_channel_tracks_awgn(self):
        cfg = FrameConfig(M=64, N=16, Q=8)
        snr_db = 7.0
        chan = channel_from_cells(cfg, [(0, 0)], [1.0])
        resp = ofdm_freq_response(chan, 4)
        nv = snr_to_noise_var(snr_db)
        errors = total = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            bits, frame = random_frame(cfg, rng)
            st = ofdm_modulate(frame, cfg, cp_chips=4)
            rx = apply_physical_channel(st, chan)
            rx = SampleStream(add_awgn(rx.samples, nv, 7000 + seed), rx.start)
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
        cfg = FrameConfig(M=64, N=16, Q=8)
        errors = total = 0
        for seed in range(6):
            rng = np.random.default_rng(40 + seed)
            bits, frame = random_frame(cfg, rng)
            chan = gen_eva_channel(cfg, 350.0, 5e9, 15e3, 400 + seed)
            cp = int(chan.l.max()) + 1
            st = ofdm_modulate(frame, cfg, cp_chips=cp)
            rx = apply_physical_channel(st, chan)
            out = ofdm_detect(rx, ofdm_freq_response(chan, cp), 1e-9, cfg, cp)
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
        out = ofdm_detect(rx, ofdm_freq_response(chan, 2), 1e-9, cfg, 2)
        assert count_bit_errors(bits, out) > 0

    def test_symbol_count_validated(self):
        cfg = cfg32()
        with pytest.raises(ValueError):
            ofdm_modulate(np.zeros(7, dtype=complex), cfg, cp_chips=4)

    @pytest.mark.parametrize("M, N, osf", [(16, 8, 3), (15, 8, 3), (64, 16, 8), (256, 64, 8)])
    def test_response_matches_integer_reduced_phase(self, M, N, osf):
        # path (l, k) at the mid-symbol sample t_c = n (L + cp) + cp + L/2 of subcarrier s turns by
        # k t_c / (MN osf) - (s N + k) l / MN cycles, i.e. by num / D with D = 2 MN osf and num
        # an integer, reduced mod D exactly here; the unreduced exponentials were off by 1.5e-14
        # at 16 x 8 and 1.7e-13 at 256 x 64.  M = 15, osf 3 makes L odd and t_c a half-integer
        cfg = FrameConfig(M=M, N=N, oversampling=osf)
        k_lo, k_hi = cfg.doppler_range
        chan = channel_from_cells(cfg, [(M - 1, k_lo), (1, k_hi)], [1.0, 1.0])
        L, D = M * osf, 2 * M * N * osf
        s = np.arange(M)
        s[M // 2:] -= M  # the signed subcarrier index, in transmit order
        for cp_chips in (0, M - 1):
            cp = cp_chips * osf
            t2 = 2 * (np.arange(N) * (L + cp) + cp) + L  # 2 t_c, an integer
            ref = sum(np.exp(2j * np.pi * ((k * t2[:, None] - 2 * osf * (s * N + k) * l) % D) / D)
                      for l, k in ((M - 1, k_lo), (1, k_hi)))
            assert np.max(np.abs(ofdm_freq_response(chan, cp_chips) - ref)) <= 1e-14


RECEIVERS = {  # (transmit a frame, receive a stream)
    "oddm": (lambda cfg, frame: oddm_modulate(frame, cfg, cp_chips=5),
             lambda stream, cfg: oddm_demodulate(stream, cfg)),
    "otfs": (lambda cfg, frame: otfs_modulate(frame, cfg, cp_chips=8),
             lambda stream, cfg: otfs_demodulate(stream, cfg)),
    "ofdm": (lambda cfg, frame: ofdm_modulate(frame, cfg, cp_chips=4),
             lambda stream, cfg: ofdm_detect(stream, np.ones((cfg.N, cfg.M)), 0.1, cfg, 4)),
}


@pytest.mark.parametrize("receiver", list(RECEIVERS))
@pytest.mark.parametrize("fault", ["rate", "nan"])
def test_receiver_rejects_bad_stream(receiver, fault):
    # a stream with a NaN sample raises, naming it; a stream has no rate of its own, so one
    # sent at the frame's oversampling (samples per delay bin) is too short for a receiver at
    # twice that
    cfg = cfg32()
    modulate, receive = RECEIVERS[receiver]
    st = modulate(cfg, random_frame(cfg, np.random.default_rng(7))[1])
    receive(st, cfg)  # the unmodified stream is accepted
    if fault == "rate":
        with pytest.raises(TypeError, match="oversampling"):
            SampleStream(samples=st.samples, oversampling=2 * cfg.oversampling, start=st.start)
        bad, cfg = st, replace(cfg, oversampling=2 * cfg.oversampling)
    else:
        x = st.samples.copy()
        x[x.size // 2] = np.nan
        bad = SampleStream(samples=x, start=st.start)
    with pytest.raises(ValueError, match={"rate": "receive window", "nan": "non-finite"}[fault]):
        receive(bad, cfg)


# (sigma_sq, one entry of the frequency response, the message) of each bad ofdm_detect input
OFDM_DETECT_FAULTS = {
    "sigma_sq-nan": (np.nan, 1.0, "^sigma_sq must be positive and finite"),
    "sigma_sq-inf": (np.inf, 1.0, "^sigma_sq must be positive and finite"),
    "sigma_sq-negative": (-1.0, 1.0, "^sigma_sq must be positive and finite"),
    "sigma_sq-zero": (0.0, 1.0, "^sigma_sq must be positive and finite"),
    "response-nan": (0.1, np.nan, "^frequency response has non-finite entries"),
    "response-inf": (0.1, np.inf, "^frequency response has non-finite entries"),
}


@pytest.mark.parametrize("fault", list(OFDM_DETECT_FAULTS))
def test_ofdm_detect_rejects_bad_noise_or_response(fault):
    # sigma_sq NaN or inf returned all-zero bits, -1 flipped most bits, and a non-finite
    # response entry ran; sigma_sq now fails as in oamp_detect and lmmse_detect
    cfg = cfg32()
    sigma_sq, entry, message = OFDM_DETECT_FAULTS[fault]
    stream = ofdm_modulate(random_frame(cfg, np.random.default_rng(10))[1], cfg, cp_chips=4)
    response = np.ones((cfg.N, cfg.M), dtype=complex)
    response[2, 5] = entry
    with pytest.raises(ValueError, match=message):
        ofdm_detect(stream, response, sigma_sq, cfg, 4)


def test_ofdm_detect_rejects_a_response_of_another_shape():
    cfg = cfg32()
    stream = ofdm_modulate(random_frame(cfg, np.random.default_rng(10))[1], cfg, cp_chips=4)
    message = re.escape(f"frequency response shape ({cfg.M}, {cfg.N}) != ({cfg.N}, {cfg.M})")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ofdm_detect(stream, np.ones((cfg.M, cfg.N)), 0.1, cfg, 4)


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
    assert np.array_equal(receive(SampleStream(exact, first), cfg), receive(st, cfg))
    for cut, start in ((exact[1:], first + 1), (exact[:-1], first)):
        with pytest.raises(ValueError, match="receive window"):
            receive(SampleStream(cut, start), cfg)


def _prefix_users(cfg):
    """{function: a call with a prefix} of every function that takes a cyclic prefix in chips."""
    frame = random_frame(cfg, np.random.default_rng(9))[1]
    chan = channel_from_cells(cfg, [(0, 0), (2, 1)], [0.8, 0.6])
    stream = ofdm_modulate(frame, cfg, cp_chips=4)
    return {
        "oddm_modulate": lambda cp: oddm_modulate(frame, cfg, cp_chips=cp),
        "otfs_modulate": lambda cp: otfs_modulate(frame, cfg, cp_chips=cp),
        "ofdm_modulate": lambda cp: ofdm_modulate(frame, cfg, cp_chips=cp),
        "ofdm_freq_response": lambda cp: ofdm_freq_response(chan, cp_chips=cp),
        "ofdm_detect": lambda cp: ofdm_detect(stream, np.ones((cfg.N, cfg.M)), 0.1, cfg,
                                              cp_chips=cp),
    }


@pytest.mark.parametrize("bad", ["fraction", "bool", "negative", "past-bound"])
@pytest.mark.parametrize("function", list(_prefix_users(cfg32())))
def test_bad_cyclic_prefix_rejected(function, bad):
    # a prefix is a whole number of chips in [0, M), the one rule of every function that
    # takes one: the modulators raised TypeError for 2.5 and took True as one chip,
    # ofdm_freq_response took all four and ofdm_detect raised IndexError at -1
    cfg = cfg32()
    value = {"fraction": 2.5, "bool": True, "negative": -1, "past-bound": cfg.M}[bad]
    with pytest.raises(ValueError, match="^cp_chips "):
        _prefix_users(cfg)[function](value)


@pytest.mark.parametrize("scheme", [scheme for scheme, fidelity in harness._CELLS
                                    if fidelity == "waveform"])
def test_waveform_cells_share_one_modem_contract(scheme):
    # each link cell's modulator takes the delay-major (MN,) frame and refuses the (M, N)
    # grid, its demodulator returns that vector, and its prefix is in [0, M): ODDM took
    # cp = M and OTFS any cp up to MN
    cfg = cfg32()
    cell = harness._CELLS[scheme, "waveform"]
    modulate = getattr(*cell.modulate)
    frame = random_frame(cfg, np.random.default_rng(11))[1]
    with pytest.raises(ValueError, match=re.escape(f"frame shape ({cfg.M}, {cfg.N}) != (MN,)")):
        modulate(frame.reshape(cfg.M, cfg.N), cfg, 4)
    with pytest.raises(ValueError, match="^cp_chips "):
        modulate(frame, cfg, cfg.M)
    if cell.demodulate is not None:
        assert getattr(*cell.demodulate)(modulate(frame, cfg, cfg.M - 1), cfg).shape == (cfg.mn,)
