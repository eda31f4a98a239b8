"""Sample-level transmitter and matched-filter receiver for the pulse-train waveform.

The transmit pulse is a train of N copies of a truncated square-root raised
cosine, one per slot period, which keeps the waveform orthogonal with respect
to the delay and Doppler resolutions of the grid.

All waveform processing runs in *sample units*: one sample step is the unit of
time, so a pulse spans ``2*Q*oversampling + 1`` samples and the frame spans
``M*N*oversampling`` samples.  With the pulse train normalized to unit
discrete energy, a matched filter then preserves per-sample noise variance,
which keeps the SNR bookkeeping identical between the sample-level chain and
the grid-level matrix model.

Chip-grid (polyphase) form.  Symbol S(m, n) rides

    u_{m,n}(t) = sum_{n_hat} a(t - m*osf - n_hat*M*osf) * e^{j2pi n (t - m*osf)/(MN*osf)},

so its pulse copy n_hat sits on chip q = n_hat*M + m, at sample osf*q.  Near
that chip t = osf*q + tau with |tau| <= Q*osf, so t - m*osf =
n_hat*M*osf + tau and the carrier is e^{j2pi n n_hat/N} * e^{j2pi n tau/(MN*osf)}.
The delay slot m cancels out of the phase: the carrier is referenced to the
symbol's own delay, and what remains is a per-chip Doppler weight times one
Doppler-modulated tap bank b_n[tau] = a[tau] * e^{j2pi n tau/(MN*osf)} shared
by all chips.  The modulator puts X[q, n] = S(m, n) * e^{j2pi n n_hat/N} on the
chips and filters them with the bank; the matched filter is its transpose,
chip correlations with the conjugate bank followed by the length-N sum over
n_hat against e^{-j2pi n n_hat/N}.  Both touch only the (2Q + 1)*osf-tap window
around each of the MN chips.  Splitting each tap offset as
tau + Q*osf = osf*j + r (0 <= j <= 2Q, 0 <= r < osf) lines chip q's window up
with rows q .. q + 2Q of the sample stream viewed as (MN + 2Q, osf) blocks, so
the matched filter is 2Q + 1 shifted (MN x osf) @ (osf x N) products of those
blocks with the bank (the modulator their transposes), carried out as one
product over the concatenated windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DDFrame, FrameConfig, _as_grid


@dataclass(frozen=True, eq=False)
class PulseBank:
    """Prototype pulse samples plus the implicit pulse-train layout.

    The train u(t) = sum over n_hat of a(t - n_hat*T) is never materialized;
    it is described by `copies` offsets of `block` samples.
    """

    a: np.ndarray        # real prototype pulse, 2*Q*oversampling + 1 taps
    Q: int
    oversampling: int
    copies: int          # N pulses per train
    block: int           # samples per slot period T (= M * oversampling)

    @property
    def half_len(self) -> int:
        return self.Q * self.oversampling

    @property
    def u_energy(self) -> float:
        return self.copies * float(np.sum(self.a * self.a))


@dataclass(frozen=True, eq=False)
class SampleStream:
    """Complex baseband samples at `rate` Hz, first sample at time `t0` s."""

    samples: np.ndarray
    rate: float
    t0: float = 0.0

    @property
    def start_index(self) -> int:
        return int(round(self.t0 * self.rate))


def _srrc_taps(t: np.ndarray, beta: float) -> np.ndarray:
    """Square-root raised cosine evaluated at t (in symbol periods)."""
    if beta == 0.0:
        return np.sinc(t)
    out = np.empty_like(t)
    # singular points of the closed form
    tiny = 1e-9
    at_zero = np.abs(t) < tiny
    at_break = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) < tiny
    regular = ~(at_zero | at_break)
    tr = t[regular]
    num = np.sin(np.pi * tr * (1 - beta)) + 4 * beta * tr * np.cos(np.pi * tr * (1 + beta))
    den = np.pi * tr * (1 - (4 * beta * tr) ** 2)
    out[regular] = num / den
    out[at_zero] = 1 - beta + 4 * beta / np.pi
    out[at_break] = (beta / np.sqrt(2.0)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
    )
    return out


def build_srrc(config: FrameConfig) -> PulseBank:
    """Truncated SRRC prototype, renormalized to discrete energy 1/N.

    Truncation support is [-Q, +Q] delay bins; with unit pulse energy per
    train (N copies of energy 1/N) the matched filter has unit gain.
    """
    osf = config.oversampling
    n = np.arange(-config.Q * osf, config.Q * osf + 1)
    a = _srrc_taps(n / osf, config.rolloff)
    a = a / np.sqrt(config.N * np.sum(a * a))
    return PulseBank(a=a, Q=config.Q, oversampling=osf, copies=config.N,
                     block=config.M * osf)


def _check_pulses(pulses: PulseBank, config: FrameConfig) -> None:
    """Reject a pulse bank built for another grid or oversampling factor."""
    osf = config.oversampling
    for name, have, want in (("oversampling", pulses.oversampling, osf),
                             ("copies", pulses.copies, config.N),
                             ("block", pulses.block, config.M * osf)):
        if have != want:
            raise ValueError(f"pulses.{name} = {have} but the frame config needs {want}; "
                             "build the pulse bank with build_srrc(config)")


def checked_samples(stream: SampleStream, config: FrameConfig) -> np.ndarray:
    """A received stream's samples, which must be finite and at the config's sample rate."""
    if not np.isclose(stream.rate, config.sample_rate, rtol=1e-9, atol=0.0):
        raise ValueError(f"stream rate {stream.rate} Hz != frame config sample rate "
                         f"{config.sample_rate} Hz")
    if not np.all(np.isfinite(stream.samples)):
        raise ValueError("stream has non-finite samples")
    return stream.samples


def _tap_bank(pulses: PulseBank, config: FrameConfig) -> np.ndarray:
    """(N, (2Q+1)*osf) Doppler-modulated taps a[tau] * e^{j2pi n tau/(MN*osf)}.

    Column c holds tap offset tau = c - Q*osf; the osf - 1 columns past the
    last tap are zero so the bank splits into 2Q + 1 blocks of osf taps.
    """
    osf = pulses.oversampling
    taps = np.zeros((2 * pulses.Q + 1) * osf)
    taps[:pulses.a.size] = pulses.a
    tau = np.arange(taps.size) - pulses.half_len
    n = np.arange(config.N)
    return taps * np.exp(2j * np.pi * np.outer(n, tau) / (config.mn * osf))


def _hop_phases(N: int, sign: int) -> np.ndarray:
    """(N, N) array e^{sign*j2pi n n_hat/N} indexed [n_hat, n]."""
    return np.exp(sign * 2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)


def oddm_modulate(frame, pulses: PulseBank, config: FrameConfig,
                  cyclic_prefix_chips: int = 0) -> SampleStream:
    """Synthesize the staggered multicarrier waveform for one frame.

    Each symbol S(m, n) rides the pulse train delayed by m slots and
    modulated by the n-th Doppler subcarrier.  In the chip-grid form of the
    module docstring, the chip weights X[q, n] = S(m, n) * e^{j2pi n n_hat/N}
    times the tap bank give each chip's (2Q + 1)*osf samples, which are
    overlap-added into the stream's (MN + 2Q, osf) blocks: window block j of
    chip q lands on stream block q + j.  The stream covers
    t in [-Q*osf, MN*osf + Q*osf).  With ``cyclic_prefix_chips > 0`` the tail
    of the frame is folded in front of t = 0 so that a multipath channel with
    delay spread up to that many delay bins acts circularly on the frame,
    matching the wrap blocks of the grid-level channel matrix.
    """
    grid = _as_grid(frame)
    M, N, osf = config.M, config.N, config.oversampling
    if grid.shape != (M, N):
        raise ValueError(f"frame shape {grid.shape} != ({M}, {N})")
    if not np.all(np.isfinite(grid)):
        raise ValueError("frame has non-finite symbols")
    if cyclic_prefix_chips < 0 or cyclic_prefix_chips > M:
        raise ValueError("cyclic_prefix_chips must be in [0, M]")
    _check_pulses(pulses, config)
    Q, qos = pulses.Q, pulses.half_len
    L = M * N * osf
    chips = (_hop_phases(N, +1)[:, None, :] * grid[None, :, :]).reshape(M * N, N)
    windows = (chips @ _tap_bank(pulses, config)).reshape(M * N, 2 * Q + 1, osf)
    blocks = np.zeros((M * N + 2 * Q, osf), dtype=complex)
    for j in range(2 * Q + 1):
        blocks[j:j + M * N] += windows[:, j]
    body = blocks.reshape(-1)  # t in [-qos, L + qos)
    if cyclic_prefix_chips == 0:
        return SampleStream(samples=body, rate=config.sample_rate,
                            t0=-qos / config.sample_rate)
    cp = cyclic_prefix_chips * osf
    out = np.zeros(cp + L + 2 * qos, dtype=complex)
    out[cp:] = body
    out[:cp + 2 * qos] += body[L - cp:]  # fold frame tail in front of t = 0
    return SampleStream(samples=out, rate=config.sample_rate,
                        t0=-(cp + qos) / config.sample_rate)


def oddm_demodulate(stream: SampleStream, pulses: PulseBank,
                    config: FrameConfig) -> DDFrame:
    """Project a received stream back onto the M x N grid via the matched filter.

    The transpose of :func:`oddm_modulate`: the stream from t = -Q*osf on is
    viewed as (MN + 2Q, osf) blocks, chip q correlates its window (blocks
    q .. q + 2Q) with the conjugate tap bank, and the chip correlations
    Z[q, n] of the N pulse copies n_hat of each delay slot m are combined
    with e^{-j2pi n n_hat/N}.  Samples past the stream's end count as zero.
    """
    M, N, osf = config.M, config.N, config.oversampling
    _check_pulses(pulses, config)
    y = checked_samples(stream, config)
    i0 = stream.start_index
    Q, qos = pulses.Q, pulses.half_len
    # matched-filter positions m*osf + n_hat*M*osf must all be covered
    last_needed = (M - 1) * osf + (N - 1) * M * osf + qos
    if i0 > -qos or i0 + y.size <= last_needed:
        raise ValueError("stream too short to cover one frame plus pulse tails")
    segment = np.zeros((M * N + 2 * Q) * osf, dtype=complex)  # t in [-qos, L + qos)
    part = y[-qos - i0:][:segment.size]
    segment[:part.size] = part
    windows = np.lib.stride_tricks.sliding_window_view(segment, (2 * Q + 1) * osf)[::osf]
    Z = (windows @ _tap_bank(pulses, config).conj().T).reshape(N, M, N)
    return DDFrame(np.einsum("kmn,kn->mn", Z, _hop_phases(N, -1)))


def pulse_orthogonality_matrix(pulses: PulseBank, config: FrameConfig,
                               m_range, n_range) -> np.ndarray:
    """|<u, u shifted by m bins and n Doppler bins>| for the requested ranges.

    Entry (0, 0) is the train energy (1 for a normalized bank); off-peak
    entries bound the self-interference left by pulse truncation.
    """
    M, N, osf = config.M, config.N, config.oversampling
    m_range = np.asarray(list(m_range), dtype=int)
    n_range = np.asarray(list(n_range), dtype=int)
    if np.any(np.abs(m_range) >= M) or np.any(np.abs(n_range) > N):
        raise ValueError("shift ranges exceed the grid")
    qos = pulses.half_len
    L = M * N * osf
    u = np.zeros(L + 2 * qos)
    for n_hat in range(N):
        start = n_hat * M * osf
        u[start:start + pulses.a.size] += pulses.a
    t = np.arange(-qos, L + qos)
    out = np.empty((m_range.size, n_range.size))
    for i, m in enumerate(m_range):
        shift = m * osf
        u_shift = np.zeros_like(u)
        if shift >= 0:
            u_shift[shift:] = u[:u.size - shift]
        else:
            u_shift[:shift] = u[-shift:]
        w = u * u_shift
        phase = np.exp(-2j * np.pi * np.outer(n_range, t - shift) / (N * M * osf))
        out[i, :] = np.abs(phase @ w)
    return out
