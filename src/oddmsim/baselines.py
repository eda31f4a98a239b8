"""Textbook OTFS and CP-OFDM transceivers for directional BER comparisons.

Both baselines consume exactly the same resources as the pulse-train scheme:
M*N symbols per frame in M*N*oversampling samples, plus a cyclic prefix (one
per frame for OTFS, one per symbol for OFDM).

OTFS here is the reduced-cyclic-prefix variant with rectangular transmit
pulses: the delay-Doppler grid maps to time chips by an inverse DFT across
the Doppler axis (:func:`core.dd_to_chips`), each chip is held for
`oversampling` samples, and one frame-level cyclic prefix covers the
channel's delay spread.  On the integer grid its
delay-Doppler input-output matrix coincides with the pulse-train scheme's
effective matrix, so detection reuses the same machinery; the waveforms (and
hence their model mismatch under a physical channel) differ.

OFDM is cyclic-prefix OFDM with M subcarriers, N symbols per frame, and a
one-tap frequency-domain MMSE equalizer.  Row n of ``frame.reshape(N, M)``
(delay-major order) fills OFDM symbol n.  Its M subcarriers share one signed
index in transmit order, the M // 2 nonnegative ones first: bin index mod
M*oversampling at both ends, and the equalizer's channel response at that
index.  No inter-carrier-interference
compensation is attempted: its degradation under high Doppler is the point
of the baseline.
"""

from __future__ import annotations

import numpy as np

from .core import FrameConfig, checked_frame, chips_to_dd, dd_to_chips, qam_demap, require_sigma_sq
from .effchan import EffectiveChannel, _twiddles
from .waveform import SampleStream, checked_prefix, checked_samples


def otfs_modulate(frame, config: FrameConfig, cp_chips: int) -> SampleStream:
    """Map the delay-major frame to a sample stream: IDFT across Doppler, sample-and-hold."""
    chips = dd_to_chips(checked_frame("frame", frame, config), config)
    cp_chips, osf = checked_prefix(cp_chips, config), config.oversampling
    chips = np.concatenate([chips[chips.size - cp_chips:], chips])  # the frame prefix
    return SampleStream(samples=np.repeat(chips, osf) / np.sqrt(osf), start=-cp_chips * osf)


def otfs_demodulate(stream: SampleStream, config: FrameConfig) -> np.ndarray:
    """Adjoint chain: integrate chips, DFT across blocks back to the delay-major (MN,) vector."""
    M, N, osf = config.M, config.N, config.oversampling
    y = checked_samples(stream, 0, M * N * osf)
    chips = y.reshape(M * N, osf).sum(axis=1) / np.sqrt(osf)
    return chips_to_dd(chips, config)


def _subcarriers(config: FrameConfig) -> np.ndarray:
    """Signed index of each OFDM subcarrier in transmit order (see the module docstring)."""
    index = np.arange(config.M)
    index[config.M // 2:] -= config.M
    return index


def ofdm_modulate(frame, config: FrameConfig, cp_chips: int) -> SampleStream:
    """Cyclic-prefix OFDM: N symbols of M subcarriers, one Doppler bin of the frame apart."""
    grid = checked_frame("frame", frame, config).reshape(config.N, config.M)  # one row per symbol
    L = config.M * config.oversampling
    spec = np.zeros((config.N, L), dtype=complex)
    spec[:, _subcarriers(config) % L] = grid
    time = np.fft.ifft(spec, axis=1) * np.sqrt(L)
    cp = checked_prefix(cp_chips, config) * config.oversampling
    return SampleStream(samples=np.concatenate([time[:, L - cp:], time], axis=1).reshape(-1))


def ofdm_freq_response(chan: EffectiveChannel, cp_chips: int) -> np.ndarray:
    """(N, M) per-symbol one-tap response from the path parameters, on ``chan.config``.

    Evaluates each path's phasor at the middle sample t_c of each symbol's useful part, in
    cycles k t_c / (MN osf) - (subcarrier + k/N) l / M; inter-carrier interference is
    deliberately not modeled, so a fast channel leaves residual error.  t_c = cp + L/2 is a
    half-integer when M osf is odd, but 2 t_c never is, so the time phase is a twiddle of
    :mod:`effchan` on the doubled sample grid, (2 M osf) x N, and the frequency phase, in
    cycles (subcarrier N + k) l / MN, one on the chip grid.
    """
    config = chan.config
    M, N = config.M, config.N
    L, cp = M * config.oversampling, checked_prefix(cp_chips, config) * config.oversampling
    t2 = (2 * (np.arange(N) * (L + cp) + cp) + L) % (2 * L * N)  # 2 t_c on the doubled grid
    resp = np.zeros((N, M), dtype=complex)
    for h, l, k in zip(chan.gains, chan.l, chan.k):
        time_phase = np.conj(_twiddles(2 * L, N, [k], t2)[0])
        freq_phase = _twiddles(M, N, _subcarriers(config) * N + k, l)
        resp += h * np.outer(time_phase, freq_phase)
    return resp


def ofdm_detect(stream: SampleStream, chan_freq_response: np.ndarray, sigma_sq: float,
                config: FrameConfig, cp_chips: int) -> np.ndarray:
    """Strip prefixes, FFT, one-tap MMSE equalize, hard-demap to bits."""
    require_sigma_sq(sigma_sq)
    M, N, osf = config.M, config.N, config.oversampling
    L = M * osf
    cp = checked_prefix(cp_chips, config) * osf
    y = checked_samples(stream, 0, N * (L + cp)).reshape(N, L + cp)[:, cp:]
    spec = np.fft.fft(y, axis=1) / np.sqrt(L)
    Y = spec[:, _subcarriers(config) % L]
    Hr = np.asarray(chan_freq_response)
    if Hr.shape != (N, M):
        raise ValueError(f"frequency response shape {Hr.shape} != ({N}, {M})")
    if not np.all(np.isfinite(Hr)):
        raise ValueError("frequency response has non-finite entries")
    X = np.conj(Hr) * Y / (np.abs(Hr) ** 2 + sigma_sq)
    return qam_demap(X.reshape(-1))
