"""Sample-level transmitter and matched-filter receiver for the pulse-train waveform.

The transmit pulse is a train of N copies of a truncated square-root raised
cosine, one per slot period, which keeps the waveform orthogonal with respect
to the delay and Doppler resolutions of the grid.  The grid fixes the pulse
(Q, roll-off, oversampling, N), so both ends derive it from the frame config
(:func:`build_srrc`).

All waveform processing runs in *sample units*: one sample step is the unit of
time, ``oversampling`` to a delay bin, so a pulse spans ``2*Q*oversampling + 1``
samples and the frame spans ``M*N*oversampling`` samples.  A :class:`SampleStream`
counts time the same way, at its frame config's ``oversampling``: ``start`` is the
index of its first sample, 0 being the frame's first.
Every modulator takes a delay-major frame vector (:func:`core.checked_frame`) and
one cyclic prefix (:func:`checked_prefix`); every receiver reads its own window of
that axis through :func:`checked_samples`, and every demodulator returns the
delay-major vector.  With the pulse train
normalized to unit discrete energy, a matched filter then preserves
per-sample noise variance, which keeps the SNR bookkeeping identical between
the sample-level chain and the grid-level matrix model.

Chip-grid (polyphase) form.  Symbol S(m, n) rides

    u_{m,n}(t) = sum_{n_hat} a(t - m*osf - n_hat*M*osf) * e^{j2pi n (t - m*osf)/(MN*osf)},

so its pulse copy n_hat sits on chip q = n_hat*M + m, at sample osf*q.  Near
that chip t = osf*q + tau with |tau| <= Q*osf, so t - m*osf =
n_hat*M*osf + tau and the carrier is e^{j2pi n n_hat/N} * e^{j2pi n tau/(MN*osf)}.
The delay slot m cancels out of the phase: the carrier is referenced to the
symbol's own delay, and what remains is a per-chip Doppler weight times one
Doppler-modulated tap bank b_n[tau] = a[tau] * e^{j2pi n tau/(MN*osf)} shared
by all chips.  The modulator puts X[q, n] = S(m, n) * e^{j2pi n n_hat/N} on the
chips and filters them with the bank (both phases come from :func:`effchan._twiddles`, the
N-point twiddles and those of the sample grid); the matched filter is its transpose,
chip correlations with the conjugate bank followed by the length-N sum over
n_hat against e^{-j2pi n n_hat/N}.  Both touch only the (2Q + 1)*osf-tap window
around each of the MN chips.  Splitting each tap offset as
tau + Q*osf = osf*j + r (0 <= j <= 2Q, 0 <= r < osf) lines chip q's window up
with rows q .. q + 2Q of the sample stream viewed as (MN + 2Q, osf) blocks, so
the matched filter is 2Q + 1 shifted (MN x osf) @ (osf x N) products of those
blocks with the bank (the modulator their transposes), carried out as one
product per chunk of chips (:func:`_chunks`), the modulator's from the last
chip to the first so that each stream block still sums its pieces in tap order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FrameConfig, checked_frame, require_count
from .effchan import _twiddles

_CHUNK_BYTES = 256 * 1024  # bytes of chip windows that either direction forms at once


@dataclass(frozen=True, eq=False)
class SampleStream:
    """Complex baseband samples at the frame config's `oversampling`, the first at index `start`;
    `samples` is kept as one 1-D complex array, a complex input without a copy."""

    samples: np.ndarray
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be a 1-D vector, got shape {self.samples.shape}")
        if isinstance(self.start, bool) or not isinstance(self.start, numbers.Integral):
            raise ValueError(f"start must be an integer sample index, got {self.start!r}")


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


def build_srrc(config: FrameConfig) -> np.ndarray:
    """The config's prototype pulse a: a truncated SRRC of 2*Q*oversampling + 1
    taps, renormalized to discrete energy 1/N.

    Truncation support is [-Q, +Q] delay bins; with unit pulse energy per
    train (N copies of energy 1/N, one per slot of M delay bins) the matched filter
    has unit gain.  The pulse must fit the grid: 2Q < M.
    """
    if 2 * config.Q >= config.M:
        raise ValueError(f"Q {config.Q} is too long for the grid: need 2Q < M = {config.M}")
    osf = config.oversampling
    n = np.arange(-config.Q * osf, config.Q * osf + 1)
    a = _srrc_taps(n / osf, config.rolloff)
    return a / np.sqrt(config.N * np.sum(a * a))


def checked_prefix(cp_chips, config: FrameConfig) -> int:
    """A cyclic prefix: a whole number of chips in [0, M)."""
    cp_chips = require_count("cp_chips", cp_chips, least=0)
    if cp_chips >= config.M:
        raise ValueError(f"cp_chips must be in [0, M = {config.M}), got {cp_chips}")
    return cp_chips


def checked_samples(stream: SampleStream, first: int, stop: int) -> np.ndarray:
    """Samples [first, stop) of a received stream, which must be finite and cover them."""
    if not np.all(np.isfinite(stream.samples)):
        raise ValueError("stream has non-finite samples")
    lo, hi = first - stream.start, stop - stream.start
    if lo < 0 or hi > stream.samples.size:
        raise ValueError(f"stream of {stream.samples.size} samples from {stream.start} does "
                         f"not cover the receive window [{first}, {stop})")
    return stream.samples[lo:hi]


@lru_cache(maxsize=8)
def _tap_bank(config: FrameConfig) -> np.ndarray:
    """(N, (2Q+1)*osf) read-only Doppler-modulated taps a[tau] * e^{j2pi n tau/(MN*osf)}.

    Column c holds tap offset tau = c - Q*osf; the osf - 1 columns past the
    last tap are zero so the bank splits into 2Q + 1 blocks of osf taps.  The
    bank depends only on the config, so it is built once and shared by every
    frame that either direction processes on it.
    """
    osf, a = config.oversampling, build_srrc(config)
    taps = np.zeros((2 * config.Q + 1) * osf)
    taps[:a.size] = a
    tau = np.arange(taps.size) - config.Q * osf
    ramps = _twiddles(config.M * osf, config.N, np.arange(config.N), tau % (config.mn * osf))
    bank = taps * np.conj(ramps)
    bank.flags.writeable = False
    return bank


def _chunks(chips: int, taps: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of chip chunks whose windows of `taps` samples take at most _CHUNK_BYTES,
    give or take a chip: none is one chip, as numpy's one-row product (gemv) rounds unlike gemm."""
    starts = range(0, chips - 1, max(2, _CHUNK_BYTES // (16 * taps)))
    return list(zip(starts, [*starts[1:], chips]))


def _hop_phases(N: int, sign: int) -> np.ndarray:
    """(N, N) array e^{sign*j2pi n n_hat/N} indexed [n_hat, n], from the N-point twiddles."""
    phases = _twiddles(1, N, np.arange(N))
    return np.conj(phases) if sign > 0 else phases


def oddm_modulate(frame, config: FrameConfig, cp_chips: int) -> SampleStream:
    """Synthesize the staggered multicarrier waveform for one delay-major frame.

    Each symbol S(m, n) = s[m*N + n] rides the config's pulse train (:func:`build_srrc`)
    delayed by m slots and modulated by the n-th Doppler subcarrier.  In the
    chip-grid form of the module docstring, the chip weights
    X[q, n] = S(m, n) * e^{j2pi n n_hat/N} times the tap bank give each chip's
    (2Q + 1)*osf samples, which are overlap-added into the one stream buffer
    of (cp_chips + MN + 2Q, osf) blocks, samples [``start``, MN*osf + Q*osf) with
    ``start`` = -(cp_chips + Q)*osf: window block j of chip q lands on block
    cp_chips + q + j.
    Its first cp_chips blocks are the prefix, the frame's tail folded in
    place in front of sample 0, so that a multipath channel with delay spread
    up to that many delay bins acts circularly on the frame, matching the
    wrap blocks of the grid-level channel matrix.
    """
    grid = checked_frame("frame", frame, config).reshape(config.M, config.N)
    cp_chips = checked_prefix(cp_chips, config)
    M, N, osf = config.M, config.N, config.oversampling
    Q, qos = config.Q, config.Q * osf
    L = M * N * osf
    chips = (_hop_phases(N, +1)[:, None, :] * grid[None, :, :]).reshape(M * N, N)
    bank = _tap_bank(config)
    out = np.zeros((cp_chips + M * N + 2 * Q, osf), dtype=complex)
    blocks = out[cp_chips:]  # samples [-qos, L + qos)
    for lo, hi in reversed(_chunks(M * N, bank.shape[1])):
        windows = (chips[lo:hi] @ bank).reshape(hi - lo, 2 * Q + 1, osf)
        for j in range(2 * Q + 1):
            blocks[lo + j:hi + j] += windows[:, j]
    out = out.reshape(-1)  # samples [-(cp + qos), L + qos)
    cp = cp_chips * osf
    if cp:
        out[:cp + 2 * qos] += out[L:L + cp + 2 * qos]  # fold frame tail in front of sample 0
    return SampleStream(samples=out, start=-(cp + qos))


def oddm_demodulate(stream: SampleStream, config: FrameConfig) -> np.ndarray:
    """Project a received stream back onto the delay-major (MN,) frame vector via the
    matched filter.

    The transpose of :func:`oddm_modulate`: samples [-Q*osf, MN*osf + Q*osf)
    are viewed as (MN + 2Q, osf) blocks, chip q correlates its window (blocks
    q .. q + 2Q) with the conjugate tap bank, and the chip correlations
    Z[q, n] of the N pulse copies n_hat of each delay slot m are combined
    with e^{-j2pi n n_hat/N}.  The stream must cover the samples up to the
    last chip's last tap; the osf - 1 zero taps past it read zeros.
    """
    M, N, osf = config.M, config.N, config.oversampling
    Q, qos = config.Q, config.Q * osf
    bank = _tap_bank(config).conj().T
    y = checked_samples(stream, -qos, (M * N - 1) * osf + qos + 1)
    segment = np.concatenate([y, np.zeros(osf - 1)])
    windows = np.lib.stride_tricks.sliding_window_view(segment, (2 * Q + 1) * osf)[::osf]
    Z = np.empty((M * N, N), dtype=complex)
    for lo, hi in _chunks(M * N, bank.shape[0]):
        np.matmul(windows[lo:hi], bank, out=Z[lo:hi])
    return np.einsum("kmn,kn->mn", Z.reshape(N, M, N), _hop_phases(N, -1)).reshape(-1)
