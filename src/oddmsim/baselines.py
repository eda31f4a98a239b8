"""Textbook OTFS and CP-OFDM transceivers for directional BER comparisons.

Both baselines consume exactly the same resources as the pulse-train scheme:
M*N symbols per frame, bandwidth M*delta_f, frame duration N*T, plus a
cyclic prefix (one per frame for OTFS, one per symbol for OFDM).

OTFS here is the reduced-cyclic-prefix variant with rectangular transmit
pulses: the delay-Doppler grid maps to time chips by an inverse DFT across
the Doppler axis (:func:`core.dd_to_chips`), each chip is held for
`oversampling` samples, and one frame-level cyclic prefix covers the
channel's delay spread.  On the integer grid its
delay-Doppler input-output matrix coincides with the pulse-train scheme's
effective matrix, so detection reuses the same machinery; the waveforms (and
hence their model mismatch under a physical channel) differ.

OFDM is cyclic-prefix OFDM with M subcarriers, N symbols per frame, and a
one-tap frequency-domain MMSE equalizer.  No inter-carrier-interference
compensation is attempted: its degradation under high Doppler is the point
of the baseline.
"""

from __future__ import annotations

import numpy as np

from .core import FrameConfig, chips_to_dd, dd_to_chips, qam_demap
from .effchan import EffectiveChannel
from .waveform import SampleStream, checked_samples


def otfs_modulate(frame, config: FrameConfig, cyclic_prefix_chips: int = 0) -> SampleStream:
    """Map the DD grid to a sample stream: IDFT across Doppler, sample-and-hold."""
    grid = np.asarray(frame)
    M, N, osf = config.M, config.N, config.oversampling
    if grid.shape != (M, N):
        raise ValueError(f"frame shape {grid.shape} != ({M}, {N})")
    if cyclic_prefix_chips < 0 or cyclic_prefix_chips > M * N:
        raise ValueError("cyclic_prefix_chips out of range")
    samples = np.repeat(dd_to_chips(grid), osf) / np.sqrt(osf)
    if cyclic_prefix_chips:
        cp = cyclic_prefix_chips * osf
        samples = np.concatenate([samples[-cp:], samples])
        t0 = -cp / config.sample_rate
    else:
        t0 = 0.0
    return SampleStream(samples=samples, rate=config.sample_rate, t0=t0)


def otfs_demodulate(stream: SampleStream, config: FrameConfig) -> np.ndarray:
    """Adjoint chain: integrate chips, DFT across blocks back to the DD grid."""
    M, N, osf = config.M, config.N, config.oversampling
    y = checked_samples(stream, config)
    i0 = stream.start_index
    if i0 > 0 or i0 + y.size < M * N * osf:
        raise ValueError("stream does not cover one frame")
    y = y[-i0:-i0 + M * N * osf]
    chips = y.reshape(M * N, osf).sum(axis=1) / np.sqrt(osf)
    return chips_to_dd(chips, M, N)


def ofdm_modulate(symbols, config: FrameConfig, cp_chips: int) -> SampleStream:
    """Cyclic-prefix OFDM: N symbols of M subcarriers at spacing delta_f."""
    M, N, osf = config.M, config.N, config.oversampling
    sym = np.asarray(symbols, dtype=complex).reshape(-1)
    if sym.size != M * N:
        raise ValueError(f"need M*N = {M * N} symbols, got {sym.size}")
    if cp_chips < 0 or cp_chips >= M:
        raise ValueError("cp_chips must be in [0, M)")
    grid = sym.reshape(N, M)  # one row per OFDM symbol
    L = M * osf
    spec = np.zeros((N, L), dtype=complex)
    half = M // 2
    spec[:, :half] = grid[:, :half]          # nonnegative frequencies
    spec[:, L - (M - half):] = grid[:, half:]  # negative frequencies
    time = np.fft.ifft(spec, axis=1) * np.sqrt(L)
    cp = cp_chips * osf
    with_cp = np.concatenate([time[:, L - cp:], time], axis=1) if cp else time
    return SampleStream(samples=with_cp.reshape(-1), rate=config.sample_rate, t0=0.0)


def _ofdm_bin_freqs(config: FrameConfig) -> np.ndarray:
    """Physical subcarrier frequencies (Hz) in transmit order."""
    M = config.M
    half = M // 2
    idx = np.arange(M, dtype=float)
    idx[half:] -= M
    return idx * config.delta_f


def ofdm_symbol_centers(config: FrameConfig, cp_chips: int) -> np.ndarray:
    """Mid-symbol times (s) of the useful part of each OFDM symbol."""
    M, N, osf = config.M, config.N, config.oversampling
    L = M * osf
    cp = cp_chips * osf
    starts = np.arange(N) * (L + cp) + cp
    return (starts + L / 2.0) / config.sample_rate


def ofdm_freq_response(chan: EffectiveChannel, config: FrameConfig,
                       cp_chips: int) -> np.ndarray:
    """(N, M) per-symbol one-tap response from the path parameters.

    Evaluates each path's phasor at the symbol's center time; channel
    variation inside a symbol (inter-carrier interference) is deliberately
    not modeled, so a fast channel leaves residual error.
    """
    freqs = _ofdm_bin_freqs(config)
    t_c = ofdm_symbol_centers(config, cp_chips)
    resp = np.zeros((config.N, config.M), dtype=complex)
    for h, tau, nu in zip(chan.gains, chan.tau, chan.nu):
        time_phase = np.exp(2j * np.pi * nu * t_c)
        freq_phase = np.exp(-2j * np.pi * (freqs + nu) * tau)
        resp += h * np.outer(time_phase, freq_phase)
    return resp


def ofdm_detect(stream: SampleStream, chan_freq_response: np.ndarray, sigma_sq: float,
                config: FrameConfig, cp_chips: int) -> np.ndarray:
    """Strip prefixes, FFT, one-tap MMSE equalize, hard-demap to bits."""
    M, N, osf = config.M, config.N, config.oversampling
    L = M * osf
    cp = cp_chips * osf
    y = checked_samples(stream, config)
    i0 = stream.start_index
    need = N * (L + cp)
    if i0 > 0 or i0 + y.size < need:
        raise ValueError("stream does not cover the OFDM frame")
    y = y[-i0:-i0 + need].reshape(N, L + cp)[:, cp:]
    spec = np.fft.fft(y, axis=1) / np.sqrt(L)
    half = M // 2
    Y = np.concatenate([spec[:, :half], spec[:, L - (M - half):]], axis=1)
    Hr = np.asarray(chan_freq_response)
    if Hr.shape != (N, M):
        raise ValueError(f"frequency response shape {Hr.shape} != ({N}, {M})")
    X = np.conj(Hr) * Y / (np.abs(Hr) ** 2 + sigma_sq)
    return qam_demap(X.reshape(-1), config.constellation_obj)

