"""Frame configuration, delay-Doppler grid indexing, and the QPSK map.

Conventions shared by every other module:

* A frame is an M x N complex grid ``S(m, n)`` with ``m`` the delay index
  (0..M-1) and ``n`` the Doppler index (0..N-1).
* Vectorization is delay-major: ``s[m*N + n] = S(m, n)``, so the effective
  channel matrix decomposes into an M x M grid of N x N Doppler blocks.
* Doppler indices are physically signed, in ``[-floor(N/2), ceil(N/2)-1]``
  (:attr:`FrameConfig.doppler_range`), and reduced mod N wherever they index the grid.
* A frame goes to its MN time chips by one unitary map A, :func:`dd_to_chips`, and
  back by :func:`chips_to_dd`; every module that works on chips calls this pair.
* Rounding onto the integer grid is round-half-away-from-zero, so positive
  and negative Doppler quantize symmetrically.
* The grid has no physical units: delay and Doppler are counted in bins, and
  time in samples, ``oversampling`` to a delay bin.
* Every symbol is Gray 4-QAM (QPSK) in closed form: bit pair (b0, b1) maps to
  ``((1 - 2 b1) + j (1 - 2 b0)) / sqrt(2)`` (:func:`qam_map`), and the hard decision
  reads the bits back as the signs of the imaginary and real parts (:func:`qam_demap`).
"""

from __future__ import annotations

import collections
import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np


def round_half_away(x: float) -> int:
    """Round to the nearest integer with ties going away from zero."""
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def require_count(name: str, value, least: int = 1) -> int:
    """A count as an int: an integer >= least; 2.5 trials or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def require_real(name: str, value) -> float:
    """A real value as a float: in float range and not NaN; "0.3", None or a bool is not one.
    -0.0 comes back as 0.0, the same value, so that the two hash alike."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and value == value:
        with contextlib.suppress(OverflowError):
            return float(value) + 0.0
    raise ValueError(f"{name} must be a real number, got {value!r}")


def require_sigma_sq(sigma_sq) -> None:
    """A detector's noise variance must be positive and finite."""
    if not (np.isfinite(sigma_sq) and sigma_sq > 0):
        raise ValueError(f"sigma_sq must be positive and finite, got {sigma_sq}")


# The one alphabet, Gray map pinned for reproducibility:
#   00 -> (+1+j)/sqrt(2)   01 -> (-1+j)/sqrt(2)
#   11 -> (-1-j)/sqrt(2)   10 -> (+1-j)/sqrt(2)
QAM4 = collections.namedtuple("QAM4", "points bits_per_symbol")(
    np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=complex) / np.sqrt(2.0), 2)


@dataclass(frozen=True)
class FrameConfig:
    """The grid and pulse parameters of one delay-Doppler frame.

    M           delay bins / time slots per frame
    N           Doppler bins / subcarriers
    Q           prototype-pulse half length in delay bins
    rolloff     SRRC roll-off factor in [0, 1]
    oversampling  samples per delay bin

    Only the ODDM waveform reads the pulse (Q, rolloff), only the sample-level waveforms
    ``oversampling``, and the grid-level matrix model neither; 2Q < M is the pulse's own
    check (:func:`waveform.build_srrc`), so a grid-only config may leave all three out.

    Every frame carries Gray 4-QAM (QPSK) symbols (:data:`QAM4`) in closed form: bit pair
    (b0, b1) maps to ((1 - 2 b1) + j (1 - 2 b0)) / sqrt(2).
    """

    M: int
    N: int
    Q: int = 8
    rolloff: float = 0.25
    oversampling: int = 8

    def __post_init__(self):
        # stored as int and float, so that equal configs hash alike however they were given
        for name, least in (("M", 2), ("N", 2), ("Q", 1), ("oversampling", 1)):
            object.__setattr__(self, name, require_count(name, getattr(self, name), least))
        object.__setattr__(self, "rolloff", require_real("rolloff", self.rolloff))
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must be in [0, 1], got {self.rolloff}")

    @property
    def mn(self) -> int:
        return self.M * self.N

    @property
    def doppler_range(self) -> tuple:
        """First and last signed Doppler bin, -floor(N/2) and ceil(N/2) - 1 (the largest |k|)."""
        return -(self.N // 2), (self.N + 1) // 2 - 1

    @property
    def constellation_obj(self):
        """:data:`QAM4`. It stays only because perfbench/workloads.py reads its
        ``bits_per_symbol`` for the benchmark's row checks; once the benchmark counts the
        2 bits per QPSK symbol itself, this accessor goes."""
        return QAM4


def vectorize(grid) -> np.ndarray:
    """Flatten a delay-Doppler grid delay-major: s[m*N + n] = S(m, n)."""
    return np.ascontiguousarray(grid).reshape(-1)


def dd_to_chips(x, config: FrameConfig) -> np.ndarray:
    """A x: a delay-Doppler frame, its M x N grid or delay-major vector, to MN time chips.

    An inverse DFT across Doppler; chip ``n_hat*M + m`` carries delay bin
    ``m`` of block ``n_hat``.
    """
    grid = np.asarray(x).reshape(config.M, config.N)
    return (np.fft.ifft(grid, axis=1) * np.sqrt(config.N)).T.reshape(-1)


def chips_to_dd(chips: np.ndarray, config: FrameConfig) -> np.ndarray:
    """A^H x_c: MN time chips back to the delay-major delay-Doppler vector."""
    return np.fft.fft(chips.reshape(config.N, config.M).T, axis=1).ravel() / np.sqrt(config.N)


def qam_map(bits) -> np.ndarray:
    """Map a bit sequence onto unit-energy 4-QAM symbols, ((1 - 2 b1) + j (1 - 2 b0)) / sqrt(2)
    per bit pair (b0, b1)."""
    bits = np.asarray(bits).reshape(-1)
    bad = (bits != 0) & (bits != 1)
    if bad.any():
        raise ValueError(f"bits must be 0 or 1, got {np.unique(bits[bad])[:4].tolist()}")
    if bits.size % 2:
        raise ValueError(f"bit count {bits.size} not divisible by 2")
    rails = 1.0 - 2.0 * bits.reshape(-1, 2)
    return (rails[:, 1] + 1j * rails[:, 0]) / np.sqrt(2.0)


def qam_demap(symbols) -> np.ndarray:
    """Hard nearest-point 4-QAM decision back to bits: b0 = Im < 0 and b1 = Re < 0.

    A symbol on the imaginary axis takes b1 = 1 when Im < 0, so -1j demaps to 11 and 0
    to 00. A NaN or infinite symbol has no nearest point and raises ``ValueError``.
    """
    symbols = np.asarray(symbols, dtype=complex).reshape(-1)
    bad = ~np.isfinite(symbols)
    if bad.any():
        raise ValueError(f"symbols must be finite, got {symbols[bad][:4].tolist()}")
    re, below = symbols.real, symbols.imag < 0
    return np.stack([below, (re < 0) | ((re == 0) & below)], axis=1).astype(np.uint8).reshape(-1)


def random_frame(config: FrameConfig, rng: np.random.Generator):
    """Draw one frame of random constellation symbols; returns (bits, the M x N grid)."""
    bits = rng.integers(0, 2, size=config.mn * QAM4.bits_per_symbol, dtype=np.uint8)
    return bits, qam_map(bits).reshape(config.M, config.N)
