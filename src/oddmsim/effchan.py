"""The channel: P paths (h_p, l_p, k_p) on the integer delay-Doppler grid.

:class:`EffectiveChannel` is the one path record.  The channel generators
return it, the estimator returns one, and the detector, the sample-level
channel and the OFDM response read it.

On the integer grid the MN x MN delay-Doppler input-output matrix is
H = A^H H_t A, where A is the one unitary map of the delay-major delay-Doppler
vector to time chips q (:func:`core.dd_to_chips`, A^H :func:`core.chips_to_dd`) and

    H_t = sum_p h_p diag(e^{j2pi k_p (q - l_p) / MN}) Pi^{l_p}

with Pi the cyclic chip shift, (Pi^l x)[q] = x[(q - l) mod MN].  A path is
therefore a cyclic shift by l_p followed by a phase ramp, and H_t x is P
gathers from the source chips (q - l_p) mod MN; its adjoint gathers from
(q + l_p) mod MN.  A channel has at most one path per (l, k) cell.  Distinct
integer cells are Frobenius-orthogonal and every unit-gain path has
||H_p||_F^2 = MN, so H = 0 only when every gain is 0.  This module is the only
place that defines a path's shift and ramp; the estimator and the detector
work on chips through it.

It is also the one owner of every delay-Doppler and DFT phase in the package: the
integer-reduced twiddles W[k, q] = e^{-j2pi k q / MN} of :func:`_twiddles`, and every phase is
a gather from them.  On the chip grid a path's ramp, e^{j2pi k (q - l) / MN} =
conj(W[k, (q - l) mod MN]), is its twiddle row gathered at the source chips, and the
estimator's scans, table and columns read them too; on the sample grid, (M osf) x N, they are
the ramps of :func:`channel.apply_physical_channel` and the waveform's tap bank; with M = 1,
its hop phases; on the doubled sample grid, (2 M osf) x N, the mid-symbol phases of
:func:`baselines.ofdm_freq_response`.  Each is within about 1e-15 of the exactly reduced phase
on grids to 256 x 64, at osf 8 on the sample grid (tested to 1e-14).  There is no exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import FrameConfig, checked_frame, chips_to_dd, dd_to_chips


def checked_chips(name: str, x, config: FrameConfig) -> np.ndarray:
    """Chips of a delay-major input vector, checked by :func:`core.checked_frame`."""
    return dd_to_chips(checked_frame(name, x, config), config)


def _sources(l, mn: int) -> np.ndarray:
    """(P, MN) source chips (q - l_p) mod MN of the cyclic shifts Pi^{l_p}."""
    return (np.arange(mn) - np.asarray(l)[:, None]) % mn


def shifted_conj_rows(x_c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, an (n, MN) array, filled with the rows conj(x_c[(q - d) mod MN]) of the shifts
    d < n, for :func:`path_correlations`.

    Row d is the window of the doubled conj(x_c) that starts at (-d) mod MN.
    """
    mn = x_c.size
    doubled = np.tile(x_c, 2)
    windows = np.lib.stride_tricks.sliding_window_view(np.conj(doubled, out=doubled), mn)
    out[0], out[1:] = windows[0], windows[mn - 1:mn - len(out):-1]
    return out


def _twiddles(M: int, N: int, k, q=None) -> np.ndarray:
    """(len(k), MN) twiddles W[k, q] = e^{-j2pi k q / MN} of the Doppler bins k, or, bit for
    bit, their columns at the chips q in [0, MN) alone.

    Built from the separable factors of chip q = nM + m, W[k, q] = e^{-j2pi k n / N}
    e^{-j2pi k m / MN}, each exponent reduced to its integer power first, so no exponential
    runs over all MN chips and none has an argument of 2pi or more.
    """
    k = np.asarray(k)[:, None]
    slots = np.exp(-2j * np.pi * (k * np.arange(N) % N) / N)
    offsets = np.exp(-2j * np.pi * (k * np.arange(M) % (M * N)) / (M * N))
    if q is None:
        return (slots[:, :, None] * offsets[:, None, :]).reshape(len(k), M * N)
    return slots[:, q // M] * offsets[:, q % M]


@lru_cache(maxsize=8)
def doppler_twiddles(M: int, N: int, k_lo: int, k_hi: int) -> np.ndarray:
    """(k_hi - k_lo, MN) read-only :func:`_twiddles` of k in [k_lo, k_hi).  The matrix depends
    only on the grid and the range, so it is built once and shared by every frame scanned over
    that range."""
    twiddles = _twiddles(M, N, np.arange(k_lo, k_hi))
    twiddles.flags.writeable = False
    return twiddles


def path_correlations(rows: np.ndarray, t_c: np.ndarray, blocks,
                      scratch: np.ndarray) -> np.ndarray:
    """(H_{d,k} x)^H t on chips for every shift d < len(rows) and every k of the twiddle
    blocks; shape (len(rows), number of k), the blocks' k side by side.

    rows are :func:`shifted_conj_rows` of x and each block is rows of
    :func:`doppler_twiddles`.  (H_{d,k} x)^H t = e^{j2pi k d / MN} sum_q conj(x_c[q - d])
    t_c[q] W[k, q]: per block, one complex matrix product rows @ (W o t_c)^T, then the phase
    conj(W[k, d]).  The twiddled target W o t_c is formed one block at a time, in the leading
    rows of ``scratch``, which has as many rows as the widest block or more, so two calls
    that share a scratch must not run at once (e.g. in two threads).  With t = x it is x's
    discrete ambiguity function, which holds the scan of every unit path response (see
    :mod:`estimator`).
    """
    return np.hstack([(rows @ np.multiply(w, t_c, out=scratch[:len(w)]).T)
                      * np.conj(w[:, :len(rows)].T) for w in blocks])


@dataclass(eq=False)
class EffectiveChannel:
    """Paths (gains[p], l[p], k[p]), on distinct (l, k) cells, and their
    H = sum_p gains[p] * H_{l[p], k[p]}.

    H is applied on chips in O(P*MN).
    """

    config: FrameConfig
    gains: np.ndarray
    l: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=complex).reshape(-1)
        for name in ("l", "k"):  # integer bins: a cast would truncate 2.5 and read True as 1
            given = np.asarray(getattr(self, name)).reshape(-1)
            with np.errstate(invalid="ignore"):
                bins = given.astype(np.int64)
            if given.dtype == bool or not np.array_equal(bins, given):
                raise ValueError(f"{name} {given.tolist()} are not all integer bins")
            setattr(self, name, bins)
        if not self.gains.size == self.l.size == self.k.size:
            raise ValueError("gains, l and k must have one entry per path")
        if not np.all(np.isfinite(self.gains)):
            raise ValueError(f"gains {self.gains.tolist()} are not all finite")
        M, (k_lo, k_hi) = self.config.M, self.config.doppler_range
        if np.any((self.l < 0) | (self.l >= M)):
            raise ValueError(f"delay bins {self.l.tolist()} outside [0, {M})")
        if np.any((self.k < k_lo) | (self.k > k_hi)):
            raise ValueError(f"Doppler bins {self.k.tolist()} outside [{k_lo}, {k_hi}]")
        seen = set()
        for cell in zip(self.l.tolist(), self.k.tolist()):
            if cell in seen:  # two paths there are one path, whose gain is their sum
                raise ValueError(f"more than one path on cell (l, k) = {cell}")
            seen.add(cell)

    @property
    def P(self) -> int:
        return self.gains.size

    @property
    def weights(self) -> np.ndarray:
        """(P, MN) gain-weighted chip ramps h_p e^{j2pi k_p (q - l_p) / MN}."""
        return self._forward[1]

    @cached_property
    def _forward(self):
        # the ramp of path p is conj(W[k_p, (q - l_p) mod MN]): its twiddle row at the source chips
        src = _sources(self.l, self.config.mn)
        rows = _twiddles(self.config.M, self.config.N, self.k)
        return src, self.gains[:, None] * np.conj(np.take_along_axis(rows, src, axis=1))

    @cached_property
    def _adjoint(self):
        # row q of H_t^H gathers chip (q + l_p) with the conjugated weight found there
        src = _sources(-self.l, self.config.mn)
        return src, np.conj(np.take_along_axis(self.weights, src, axis=1))

    def apply_chips(self, x_c: np.ndarray) -> np.ndarray:
        """H_t x_c."""
        src, w = self._forward
        return (w * x_c[src]).sum(axis=0)

    def apply_adjoint_chips(self, y_c: np.ndarray) -> np.ndarray:
        """H_t^H y_c."""
        src, w = self._adjoint
        return (w * y_c[src]).sum(axis=0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x = A^H H_t A x."""
        return chips_to_dd(self.apply_chips(checked_chips("x", x, self.config)), self.config)
