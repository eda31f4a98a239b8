"""Time-varying multipath channel generation and sample-level application.

A channel is one :class:`effchan.EffectiveChannel`: P paths, each a complex
gain h_p on an integer delay-Doppler cell (l_p, k_p), with delay
tau_p = l_p / (M delta_f) and Doppler nu_p = k_p / (N T).  The generators
snap each tap's delay and Doppler onto the grid and sum the gains of taps
that land on one cell, so their cells are distinct; the sample-level channel
below and the grid-level matrix model act on the same paths.  The EVA tap
profile is hard-coded from 3GPP TS 36.101 Annex B.2 (Extended Vehicular A);
it is an input to the simulator, not a derived quantity.
"""

from __future__ import annotations

import math

import numpy as np

from .core import C_LIGHT, FrameConfig, delay_index, require_count, require_real, round_half_away
from .effchan import EffectiveChannel
from .waveform import SampleStream

# 3GPP TS 36.101, Table B.2.1-2 (Extended Vehicular A model)
EVA_DELAYS_NS = np.array([0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array([0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def channel_from_cells(config: FrameConfig, cells, gains) -> EffectiveChannel:
    """Paths on integer (l, k) cells; gains landing on one cell are summed."""
    merged: dict = {}
    for (l, k), h in zip(cells, gains):
        merged[(l, k)] = merged.get((l, k), 0.0) + complex(h)
    cells = sorted(merged)
    return EffectiveChannel(config, [merged[c] for c in cells],
                            [l for l, _ in cells], [k for _, k in cells])


def eva_support(config: FrameConfig, v_kmh: float, f_c: float) -> tuple:
    """(paths, l_max, k_spread) of EVA at v_kmh and carrier f_c: tap count, last tap's delay bin
    and Doppler spread nu_max N T in bins, of which a tap draws round(k_spread cos theta).  A
    speed that is not a finite, nonnegative number of km/h, a carrier not finite and positive
    (Hz) or a tap that can land off the grid raises ValueError naming v_kmh, f_c or delta_f."""
    if not 0 <= require_real("v_kmh", v_kmh) < math.inf:
        raise ValueError(f"v_kmh must be finite and nonnegative, got {v_kmh!r}")
    if not 0 < require_real("f_c", f_c) < math.inf:
        raise ValueError(f"f_c must be finite and positive, got {f_c!r}")
    l_max = round_half_away(EVA_DELAYS_NS[-1] * 1e-9 * config.M * config.delta_f)
    if l_max >= config.M:
        raise ValueError(f"delta_f {config.delta_f!r} puts EVA's last tap on bin {l_max} >= M")
    k_spread = (v_kmh / 3.6) * f_c / C_LIGHT * config.N * config.T
    k_top = config.doppler_range[1]
    if k_spread == math.inf:  # overflowed: a carrier or a slot far beyond any grid
        raise ValueError(f"f_c {f_c!r} and delta_f {config.delta_f!r} spread EVA's taps "
                         f"beyond float range at v_kmh {v_kmh!r}")
    if round_half_away(k_spread) > k_top:
        raise ValueError(f"v_kmh {v_kmh!r} spreads EVA's taps off the grid: {k_spread:.3g} bins")
    return len(EVA_DELAYS_NS), l_max, k_spread


def synthetic_support(config: FrameConfig, paths: int, l_max: int | None = None,
                      k_max: int | None = None) -> tuple:
    """(paths, l_max, k_max): paths on distinct cells l <= l_max, |k| <= k_max, each window a
    quarter of the grid unless given.  An argument that does not fit raises ValueError naming it."""
    require_count("paths", paths)
    k_top = config.doppler_range[1]
    l_max = config.M // 4 if l_max is None else l_max
    k_max = min(k_top, max(1, config.N // 4)) if k_max is None else k_max
    for name, value, top in (("l_max", l_max, config.M - 1), ("k_max", k_max, k_top)):
        require_count(name, value, least=0)
        if value > top:
            raise ValueError(f"{name} {value} reaches off the grid, whose bins end at {top}")
    if paths > (l_max + 1) * (2 * k_max + 1):
        raise ValueError(f"paths {paths} is more than the {(l_max + 1) * (2 * k_max + 1)} cells")
    return paths, l_max, k_max


def gen_eva_channel(config: FrameConfig, v_kmh: float, f_c: float, rng_seed) -> EffectiveChannel:
    """Draw one EVA realization at user speed v_kmh and carrier f_c.

    Tap gains are complex Gaussian with the profile's mean powers, normalized
    so the total mean path power is 1.  Each tap gets an independent Doppler
    nu = nu_max * cos(theta) with theta uniform (cosine arrival model), then
    delays and Dopplers are snapped onto the integer grid.
    """
    _, _, k_spread = eva_support(config, v_kmh, f_c)
    rng = _as_rng(rng_seed)
    powers = 10.0 ** (EVA_POWERS_DB / 10.0)
    powers = powers / powers.sum()
    n_taps = len(powers)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_taps)
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))
    cells = [(delay_index(tau, config), round_half_away(k))
             for tau, k in zip(EVA_DELAYS_NS * 1e-9, k_spread * np.cos(theta))]
    return channel_from_cells(config, cells, gains)


def gen_synthetic_channel(config: FrameConfig, paths: int, rng_seed,
                          l_max: int | None = None, k_max: int | None = None) -> EffectiveChannel:
    """Paths with normalized Gaussian gains on distinct cells of :func:`synthetic_support`."""
    P, l_max, k_max = synthetic_support(config, paths, l_max, k_max)
    rng = _as_rng(rng_seed)
    flat = rng.choice((l_max + 1) * (2 * k_max + 1), size=P, replace=False)
    cells = [(int(f) // (2 * k_max + 1), int(f) % (2 * k_max + 1) - k_max) for f in flat]
    gains = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) / np.sqrt(2.0 * P)
    return channel_from_cells(config, cells, gains)


def apply_physical_channel(stream: SampleStream, chan: EffectiveChannel) -> SampleStream:
    """Superpose delayed, Doppler-rotated copies of the stream, without noise.

    Each path contributes h * x(t - tau) * exp(j*2*pi*nu*(t - tau)); noise is
    added to the output by :func:`add_awgn`.  Delays must land on the sample grid.
    """
    x = stream.samples
    rate = stream.rate
    d = chan.tau * rate
    shifts = np.round(d).astype(np.int64)
    off_grid = np.abs(d - shifts) > 1e-6
    if np.any(off_grid):
        raise ValueError(f"path delay {chan.tau[off_grid][0]} s is not on the sample grid "
                         f"(rate {rate})")
    out = np.zeros(x.size + shifts.max(initial=0), dtype=complex)
    # phase referenced to t - tau, i.e. to the input's own time axis
    t_in = stream.start + np.arange(x.size)
    for h, nu, shift in zip(chan.gains, chan.nu, shifts):
        out[shift:shift + x.size] += h * x * np.exp(2j * np.pi * (nu / rate) * t_in)
    return SampleStream(samples=out, rate=rate, start=stream.start)


def add_awgn(x: np.ndarray, noise_var: float, rng_seed=None) -> np.ndarray:
    """x plus circularly-symmetric complex Gaussian noise of per-sample variance
    noise_var (none for noise_var <= 0), always as a new array."""
    if math.isnan(noise_var) or noise_var == math.inf:
        raise ValueError(f"noise_var must not be NaN or +inf, got {noise_var!r}")
    if noise_var <= 0.0:
        return x.copy()
    rng = _as_rng(rng_seed)
    scale = np.sqrt(noise_var / 2.0)
    return x + scale * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))


def snr_to_noise_var(snr_db: float) -> float:
    """Noise variance for unit average symbol energy: 10^(-snr_db/10).

    With the unit-energy pulse train and matched-filter receiver the
    delay-Doppler-domain noise variance equals this per-sample value.
    """
    return float(10.0 ** (-snr_db / 10.0))

