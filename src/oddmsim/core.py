"""Frame configuration, delay-Doppler grid indexing, and constellation mapping.

Conventions shared by every other module:

* A frame is an M x N complex grid ``S(m, n)`` with ``m`` the delay index
  (0..M-1) and ``n`` the Doppler index (0..N-1).
* Vectorization is delay-major: ``s[m*N + n] = S(m, n)``, so the effective
  channel matrix decomposes into an M x M grid of N x N Doppler blocks.
* Doppler indices are physically signed, in ``[-floor(N/2), ceil(N/2)-1]``
  (:attr:`FrameConfig.doppler_range`), and reduced mod N wherever they index the grid.
* Rounding onto the integer grid is round-half-away-from-zero, so positive
  and negative Doppler quantize symmetrically.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

C_LIGHT = 299_792_458.0


def round_half_away(x: float) -> int:
    """Round to the nearest integer with ties going away from zero."""
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def require_count(name: str, value, least: int = 1) -> None:
    """A count must be an integer >= least; 2.5 trials or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def require_real(name: str, value) -> float:
    """A real value as a float: in float range and not NaN; "0.3", None or a bool is not one."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and value == value:
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True, eq=False)
class Constellation:
    """Symbol alphabet with unit average energy and Gray bit labels."""

    points: np.ndarray      # complex points, mean |point|^2 == 1
    bit_labels: np.ndarray  # (n_points, bits_per_symbol) array of {0, 1}

    @property
    def bits_per_symbol(self) -> int:
        return self.bit_labels.shape[1]

    def label_values(self) -> np.ndarray:
        """Integer value of each point's bit label (MSB first)."""
        k = self.bits_per_symbol
        weights = 1 << np.arange(k - 1, -1, -1)
        return self.bit_labels @ weights


# The one alphabet, Gray map pinned for reproducibility:
#   00 -> (+1+j)/sqrt(2)   01 -> (-1+j)/sqrt(2)
#   11 -> (-1-j)/sqrt(2)   10 -> (+1-j)/sqrt(2)
QAM4 = Constellation(np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=complex) / np.sqrt(2.0),
                     np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8))


@dataclass(frozen=True)
class FrameConfig:
    """The grid and pulse parameters of one delay-Doppler frame.

    M           delay bins / time slots per frame
    N           Doppler bins / subcarriers
    delta_f     subcarrier spacing in Hz; the slot duration is T = 1/delta_f
    Q           prototype-pulse half length in delay-resolution units
    rolloff     SRRC roll-off factor in [0, 1]
    oversampling  samples per delay bin (sample rate = oversampling*M*delta_f)

    Every frame carries 4-QAM symbols (:data:`QAM4`).
    """

    M: int
    N: int
    delta_f: float
    Q: int
    rolloff: float = 0.25
    oversampling: int = 8

    def __post_init__(self):
        # stored as int and float, so that equal configs hash alike however they were given
        for name, least in (("M", 2), ("N", 2), ("Q", 1), ("oversampling", 1)):
            require_count(name, getattr(self, name), least)
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("delta_f", "rolloff"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        if 2 * self.Q >= self.M:
            raise ValueError(f"Q {self.Q} is too long for the grid: need 2Q < M = {self.M}")
        if not 0.0 < self.delta_f < math.inf:
            raise ValueError(f"delta_f must be finite and positive, got {self.delta_f}")
        if not (self.T < math.inf and self.sample_rate < math.inf):
            raise ValueError(f"delta_f {self.delta_f} makes the slot or the sample rate infinite")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must be in [0, 1], got {self.rolloff}")

    @property
    def T(self) -> float:
        """Slot duration in seconds."""
        return 1.0 / self.delta_f

    @property
    def mn(self) -> int:
        return self.M * self.N

    @property
    def doppler_range(self) -> tuple:
        """First and last signed Doppler bin, -floor(N/2) and ceil(N/2) - 1 (the largest |k|)."""
        return -(self.N // 2), (self.N + 1) // 2 - 1

    @property
    def sample_rate(self) -> float:
        return self.oversampling * self.M * self.delta_f

    @property
    def constellation_obj(self) -> Constellation:
        """:data:`QAM4`; kept only for the benchmark's row checks in perfbench/workloads.py."""
        return QAM4


def vectorize(grid) -> np.ndarray:
    """Flatten a delay-Doppler grid delay-major: s[m*N + n] = S(m, n)."""
    return np.ascontiguousarray(grid).reshape(-1)


def dd_to_chips(grid: np.ndarray) -> np.ndarray:
    """Unitary map of an M x N delay-Doppler grid to MN time chips.

    An inverse DFT across Doppler; chip ``n_hat*M + m`` carries delay bin
    ``m`` of block ``n_hat``.
    """
    return (np.fft.ifft(grid, axis=1) * np.sqrt(grid.shape[1])).T.reshape(-1)


def chips_to_dd(chips: np.ndarray, M: int, N: int) -> np.ndarray:
    """Inverse of :func:`dd_to_chips`: MN time chips back to the M x N grid."""
    return np.fft.fft(chips.reshape(N, M).T, axis=1) / np.sqrt(N)


def qam_map(bits) -> np.ndarray:
    """Map a bit sequence onto unit-energy 4-QAM symbols."""
    bits = np.asarray(bits).reshape(-1)
    bad = (bits != 0) & (bits != 1)
    if bad.any():
        raise ValueError(f"bits must be 0 or 1, got {np.unique(bits[bad])[:4].tolist()}")
    bits = bits.astype(np.int64)
    k = QAM4.bits_per_symbol
    if bits.size % k:
        raise ValueError(f"bit count {bits.size} not divisible by {k}")
    vals = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    # point order sorted by label value so lookup is a plain index
    order = np.argsort(QAM4.label_values())
    return QAM4.points[order][vals]


def qam_demap(symbols) -> np.ndarray:
    """Hard nearest-point 4-QAM decision back to bits."""
    symbols = np.asarray(symbols, dtype=complex).reshape(-1)
    d2 = np.abs(symbols[:, None] - QAM4.points[None, :]) ** 2
    idx = d2.argmin(axis=1)
    return QAM4.bit_labels[idx].reshape(-1)


def delay_index(tau: float, config: FrameConfig) -> int:
    """Integer delay bin l = round(tau * M * delta_f)."""
    if tau < 0:
        raise ValueError(f"delay must be nonnegative, got {tau}")
    l = round_half_away(tau * config.M * config.delta_f)
    if l >= config.M:
        raise ValueError(f"delay {tau} s maps to bin {l} >= M = {config.M}")
    return l


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def random_frame(config: FrameConfig, rng: np.random.Generator):
    """Draw one frame of random constellation symbols; returns (bits, the M x N grid)."""
    bits = random_bits(config.mn * QAM4.bits_per_symbol, rng)
    return bits, qam_map(bits).reshape(config.M, config.N)
