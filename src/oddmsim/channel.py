"""Time-varying multipath channel generation and sample-level application.

Channels are lists of paths (complex gain, delay, Doppler shift) with delays
and Dopplers snapped onto the integer delay-Doppler grid at generation time.
The EVA tap profile is hard-coded from 3GPP TS 36.101 Annex B.2 (Extended
Vehicular A); it is an input to the simulator, not a derived quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import C_LIGHT, FrameConfig, delay_index, doppler_index
from .waveform import SampleStream

# 3GPP TS 36.101, Table B.2.1-2 (Extended Vehicular A model)
EVA_DELAYS_NS = np.array([0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array([0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])


@dataclass(frozen=True)
class PathParams:
    """One propagation path: gain h, delay tau (s), Doppler nu (Hz), grid bins (l, k)."""

    h: complex
    tau: float
    nu: float
    l: int
    k: int


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """A set of paths on pairwise-distinct integer (l, k) cells."""

    paths: tuple

    def __post_init__(self):
        cells = [(p.l, p.k) for p in self.paths]
        if len(set(cells)) != len(cells):
            raise ValueError("paths must occupy distinct (l, k) cells")

    @property
    def P(self) -> int:
        return len(self.paths)

    @property
    def L(self) -> int:
        """Maximum delay index + 1."""
        return max(p.l for p in self.paths) + 1

    @property
    def L1(self) -> int:
        """Maximum absolute Doppler index."""
        return max(abs(p.k) for p in self.paths)

    def g_matrix(self) -> np.ndarray:
        """(2*L1+1) x L gain matrix; row r holds Doppler bin k = r - L1.

        The number of non-zero entries equals the number of paths.
        """
        G = np.zeros((2 * self.L1 + 1, self.L), dtype=complex)
        for p in self.paths:
            G[p.k + self.L1, p.l] += p.h
        return G

    def total_power(self) -> float:
        return float(sum(abs(p.h) ** 2 for p in self.paths))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _snap_paths(config: FrameConfig, gains, taus, nus) -> ChannelRealization:
    """Quantize (tau, nu) onto the grid and merge paths landing on one cell."""
    merged: dict = {}
    for h, tau, nu in zip(gains, taus, nus):
        l = delay_index(tau, config)
        k = doppler_index(nu, config)
        merged[(l, k)] = merged.get((l, k), 0.0) + complex(h)
    paths = tuple(
        PathParams(h=h, tau=l / (config.M * config.delta_f), nu=k / (config.N * config.T), l=l, k=k)
        for (l, k), h in sorted(merged.items())
    )
    return ChannelRealization(paths=paths)


def channel_from_cells(config: FrameConfig, cells, gains) -> ChannelRealization:
    """Build a realization directly from integer (l, k) cells and gains."""
    taus = [l / (config.M * config.delta_f) for l, _ in cells]
    nus = [k / (config.N * config.T) for _, k in cells]
    return _snap_paths(config, gains, taus, nus)


def gen_eva_channel(config: FrameConfig, v_kmh: float, rng_seed) -> ChannelRealization:
    """Draw one EVA realization at user speed v_kmh.

    Tap gains are complex Gaussian with the profile's mean powers, normalized
    so the total mean path power is 1.  Each tap gets an independent Doppler
    nu = nu_max * cos(theta) with theta uniform (cosine arrival model), then
    delays and Dopplers are snapped onto the integer grid.
    """
    if v_kmh < 0:
        raise ValueError("speed must be nonnegative")
    rng = _as_rng(rng_seed)
    powers = 10.0 ** (EVA_POWERS_DB / 10.0)
    powers = powers / powers.sum()
    n_taps = len(powers)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_taps)
    nu_max = (v_kmh / 3.6) * config.f_c / C_LIGHT
    nus = nu_max * np.cos(theta)
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))
    taus = EVA_DELAYS_NS * 1e-9
    return _snap_paths(config, gains, taus, nus)


def gen_synthetic_channel(config: FrameConfig, P: int, rng_seed,
                          l_max: int | None = None, k_max: int | None = None) -> ChannelRealization:
    """P paths on distinct random grid cells with normalized Gaussian gains."""
    rng = _as_rng(rng_seed)
    l_max = min(config.M - 1, config.M // 4) if l_max is None else l_max
    k_max = min(config.N // 2 - 1, max(1, config.N // 4)) if k_max is None else k_max
    n_cells = (l_max + 1) * (2 * k_max + 1)
    if P > n_cells:
        raise ValueError(f"cannot place {P} distinct paths in {n_cells} cells")
    flat = rng.choice(n_cells, size=P, replace=False)
    cells = [(int(f) // (2 * k_max + 1), int(f) % (2 * k_max + 1) - k_max) for f in flat]
    gains = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) / np.sqrt(2.0 * P)
    return channel_from_cells(config, cells, gains)


def apply_physical_channel(stream: SampleStream, chan: ChannelRealization,
                           noise_var: float, rng_seed=None) -> SampleStream:
    """Superpose delayed, Doppler-rotated copies of the stream plus AWGN.

    Each path contributes h * x(t - tau) * exp(j*2*pi*nu*(t - tau)); noise is
    circularly-symmetric complex Gaussian with per-sample variance noise_var.
    Delays must land on the sample grid.
    """
    x = stream.samples
    rate = stream.rate
    shifts = []
    for p in chan.paths:
        d = p.tau * rate
        d_int = int(round(d))
        if abs(d - d_int) > 1e-6:
            raise ValueError(f"path delay {p.tau} s is not on the sample grid (rate {rate})")
        shifts.append(d_int)
    max_shift = max(shifts) if shifts else 0
    out = np.zeros(x.size + max_shift, dtype=complex)
    # phase referenced to t - tau, i.e. to the input's own time axis
    t_in = stream.start_index + np.arange(x.size)
    for p, d in zip(chan.paths, shifts):
        out[d:d + x.size] += p.h * x * np.exp(2j * np.pi * (p.nu / rate) * t_in)
    if noise_var > 0.0:
        rng = _as_rng(rng_seed)
        scale = np.sqrt(noise_var / 2.0)
        out += scale * (rng.standard_normal(out.size) + 1j * rng.standard_normal(out.size))
    return SampleStream(samples=out, rate=rate, t0=stream.t0)


def snr_to_noise_var(snr_db: float) -> float:
    """Noise variance for unit average symbol energy: 10^(-snr_db/10).

    With the unit-energy pulse train and matched-filter receiver the
    delay-Doppler-domain noise variance equals this per-sample value.
    """
    return float(10.0 ** (-snr_db / 10.0))


def paths_to_text(chan: ChannelRealization) -> str:
    """Plain-text record, one path per line: l k Re(h) Im(h)."""
    lines = [f"{p.l} {p.k} {p.h.real!r} {p.h.imag!r}" for p in chan.paths]
    return "\n".join(lines) + "\n"


def paths_from_text(text: str, config: FrameConfig) -> ChannelRealization:
    cells, gains = [], []
    for line in text.strip().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        l_s, k_s, re_s, im_s = line.split()
        cells.append((int(l_s), int(k_s)))
        gains.append(float(re_s) + 1j * float(im_s))
    return channel_from_cells(config, cells, gains)
