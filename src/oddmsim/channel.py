"""Time-varying multipath channel generation and sample-level application.

A channel is one :class:`effchan.EffectiveChannel`: P paths, each a complex
gain h_p on an integer delay-Doppler cell (l_p, k_p), in bins.  The generators
snap each tap's delay and Doppler onto the grid and sum the gains of taps
that land on one cell, so their cells are distinct; the sample-level channel
below and the grid-level matrix model act on the same paths, the former at the
``oversampling`` of the frame config they were drawn on.  The EVA tap
profile is hard-coded from 3GPP TS 36.101 Annex B.2 (Extended Vehicular A);
it is an input to the simulator, not a derived quantity, and the one place where
physical units meet the grid: EVA reads ``v_kmh`` (km/h), ``f_c`` and ``delta_f`` (Hz).
"""

from __future__ import annotations

import math

import numpy as np

from .core import FrameConfig, require_count, require_real, require_window, round_half_away
from .effchan import EffectiveChannel, _twiddles
from .waveform import SampleStream

# 3GPP TS 36.101, Table B.2.1-2 (Extended Vehicular A model)
EVA_DELAYS_NS = np.array([0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array([0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])
C_LIGHT = 299_792_458.0


def _rng(rng_seed) -> np.random.Generator:
    """numpy's generator of a required seed: None, which numpy reads as OS entropy, raises."""
    if rng_seed is None:
        raise TypeError("rng_seed is required, got None")
    return np.random.default_rng(rng_seed)


def channel_from_cells(config: FrameConfig, cells, gains) -> EffectiveChannel:
    """Paths on integer (l, k) cells; gains landing on one cell are summed."""
    if len(cells) != len(gains):
        raise ValueError(f"cells and gains differ in length: {len(cells)} cells, "
                         f"{len(gains)} gains")
    merged: dict = {}
    for (l, k), h in zip(cells, gains):
        merged[(l, k)] = merged.get((l, k), 0.0) + complex(h)
    cells = sorted(merged)
    return EffectiveChannel(config, [merged[c] for c in cells],
                            [l for l, _ in cells], [k for _, k in cells])


def delay_index(tau: float, config: FrameConfig, delta_f: float) -> int:
    """Integer delay bin l = round(tau * M * delta_f) of a delay tau (s) at spacing delta_f (Hz)."""
    tau, delta_f = require_real("delay", tau), require_real("delta_f", delta_f)
    if tau < 0:
        raise ValueError(f"delay must be nonnegative, got {tau}")
    position = tau * config.M * delta_f
    if not 0 <= position < math.inf:  # an infinite delay or spacing, or a negative spacing
        raise ValueError(f"delay {tau} s has no bin at spacing {delta_f} Hz")
    l = round_half_away(position)
    if l >= config.M:
        raise ValueError(f"delay {tau} s maps to bin {l} >= M = {config.M}")
    return l


def eva_support(config: FrameConfig, v_kmh: float, f_c: float, delta_f: float) -> tuple:
    """(paths, l_max, k_spread) of EVA at v_kmh, carrier f_c and subcarrier spacing delta_f: tap
    count, last tap's delay bin and Doppler spread nu_max N / delta_f in bins, of which a tap
    draws round(k_spread cos theta).  A speed, carrier or spacing out of range, or a tap that
    can land off the grid, raises ValueError naming v_kmh, f_c or delta_f."""
    if not 0 <= require_real("v_kmh", v_kmh) < math.inf:
        raise ValueError(f"v_kmh must be finite and nonnegative, got {v_kmh!r}")
    if not 0 < require_real("f_c", f_c) < math.inf:
        raise ValueError(f"f_c must be finite and positive, got {f_c!r}")
    if not 0 < require_real("delta_f", delta_f) < math.inf or 1.0 / delta_f == math.inf:
        raise ValueError(f"delta_f must be finite and positive, with a finite slot 1 / delta_f, "
                         f"got {delta_f!r}")
    l_max = round_half_away(EVA_DELAYS_NS[-1] * 1e-9 * config.M * delta_f)
    if l_max >= config.M:
        raise ValueError(f"delta_f {delta_f!r} puts EVA's last tap on bin {l_max} >= M")
    k_spread = (v_kmh / 3.6) * f_c / C_LIGHT * config.N * (1.0 / delta_f)
    k_top = config.doppler_range[1]
    if k_spread == math.inf:  # overflowed: a carrier or a slot far beyond any grid
        raise ValueError(f"f_c {f_c!r} and delta_f {delta_f!r} spread EVA's taps "
                         f"beyond float range at v_kmh {v_kmh!r}")
    if round_half_away(k_spread) > k_top:
        raise ValueError(f"v_kmh {v_kmh!r} spreads EVA's taps off the grid: {k_spread:.3g} bins")
    return len(EVA_DELAYS_NS), l_max, k_spread


def synthetic_support(config: FrameConfig, paths: int, l_max: int | None = None,
                      k_max: int | None = None) -> tuple:
    """(paths, l_max, k_max): paths on distinct cells l <= l_max, |k| <= k_max, each window a
    quarter of the grid unless given.  An argument that does not fit raises ValueError naming it."""
    require_count("paths", paths)
    l_max = config.M // 4 if l_max is None else l_max
    k_max = min(config.doppler_range[1], max(1, config.N // 4)) if k_max is None else k_max
    l_max, k_max = require_window(config, l_max, k_max)
    if paths > (l_max + 1) * (2 * k_max + 1):
        raise ValueError(f"paths {paths} is more than the {(l_max + 1) * (2 * k_max + 1)} cells")
    return paths, l_max, k_max


def gen_eva_channel(config: FrameConfig, v_kmh: float, f_c: float, delta_f: float,
                    rng_seed) -> EffectiveChannel:
    """Draw one EVA realization at user speed v_kmh, carrier f_c and subcarrier spacing delta_f.

    Tap gains are complex Gaussian with the profile's mean powers, normalized
    so the total mean path power is 1.  Each tap gets an independent Doppler
    nu = nu_max * cos(theta) with theta uniform (cosine arrival model), then
    delays and Dopplers are snapped onto the integer grid.
    """
    _, _, k_spread = eva_support(config, v_kmh, f_c, delta_f)
    rng = _rng(rng_seed)
    powers = 10.0 ** (EVA_POWERS_DB / 10.0)
    powers = powers / powers.sum()
    n_taps = len(powers)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_taps)
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))
    cells = [(delay_index(tau, config, delta_f), round_half_away(k))
             for tau, k in zip(EVA_DELAYS_NS * 1e-9, k_spread * np.cos(theta))]
    return channel_from_cells(config, cells, gains)


def gen_synthetic_channel(config: FrameConfig, paths: int, rng_seed,
                          l_max: int | None = None, k_max: int | None = None) -> EffectiveChannel:
    """Paths with normalized Gaussian gains on distinct cells of :func:`synthetic_support`."""
    P, l_max, k_max = synthetic_support(config, paths, l_max, k_max)
    rng = _rng(rng_seed)
    flat = rng.choice((l_max + 1) * (2 * k_max + 1), size=P, replace=False)
    cells = [(int(f) // (2 * k_max + 1), int(f) % (2 * k_max + 1) - k_max) for f in flat]
    gains = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) / np.sqrt(2.0 * P)
    return channel_from_cells(config, cells, gains)


def apply_physical_channel(stream: SampleStream, chan: EffectiveChannel) -> SampleStream:
    """Superpose delayed, Doppler-rotated copies of the stream, without noise.

    At the oversampling osf of the frame config the channel was drawn on, path p contributes
    h_p x[t - l_p osf] e^{j2pi k_p (t - l_p osf) / (MN osf)}; noise is added to the output by
    :func:`add_awgn`.  The ramp at sample t is conj(W_s[k_p, t mod MN osf]), with W_s the
    :func:`effchan._twiddles` of the sample grid, (M osf) x N.
    """
    x, config, osf = stream.samples, chan.config, chan.config.oversampling
    shifts = chan.l * osf
    out = np.zeros(x.size + shifts.max(initial=0), dtype=complex)
    t_in = (stream.start + np.arange(x.size)) % (config.mn * osf)
    ramps = _twiddles(config.M * osf, config.N, chan.k)
    for h, ramp, shift in zip(chan.gains, np.conj(ramps, out=ramps), shifts):
        out[shift:shift + x.size] += h * x * ramp[t_in]
    return SampleStream(samples=out, start=stream.start)


def add_awgn(x: np.ndarray, noise_var: float, rng_seed) -> np.ndarray:
    """x plus circularly-symmetric complex Gaussian noise of per-sample variance
    noise_var (none for noise_var <= 0), always as a new array."""
    if require_real("noise_var", noise_var) == math.inf:
        raise ValueError(f"noise_var must not be +inf, got {noise_var!r}")
    rng = _rng(rng_seed)
    x = np.asarray(x)
    if noise_var <= 0.0:
        return x.copy()
    # the real and the imaginary draw go straight into one complex buffer, which is scaled and
    # offset in place: the same values as x + scale * (a + 1j * b), without its temporaries
    noise = np.empty(x.shape, dtype=complex)
    noise.real = rng.standard_normal(x.shape)
    noise.imag = rng.standard_normal(x.shape)
    noise *= np.sqrt(noise_var / 2.0)
    noise += x
    return noise


def snr_to_noise_var(snr_db: float) -> float:
    """Noise variance for unit average symbol energy: 10^(-snr_db/10).

    With the unit-energy pulse train and matched-filter receiver the
    delay-Doppler-domain noise variance equals this per-sample value.  An snr_db that is not
    a real number (NaN, "10", True, None) or whose noise variance is not a finite float
    (-inf, -4000 dB) raises ValueError.
    """
    try:
        noise_var = 10.0 ** (-require_real("snr_db", snr_db) / 10.0)
    except OverflowError:
        noise_var = math.inf
    if not math.isfinite(noise_var):
        raise ValueError(f"snr_db {snr_db!r} has no finite noise variance 10^(-snr_db/10)")
    return noise_var

