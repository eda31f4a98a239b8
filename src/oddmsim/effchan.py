"""The channel: P paths (h_p, l_p, k_p) on the integer delay-Doppler grid.

:class:`EffectiveChannel` is the one path record.  The channel generators
return it, the estimator returns one, and the detector, the sample-level
channel and the OFDM response read it.  A path's physical delay and Doppler
follow from its cell: tau_p = l_p / (M delta_f) and nu_p = k_p / (N T).

On the integer grid the MN x MN delay-Doppler input-output matrix is
H = A^H H_t A, where A (:func:`core.dd_to_chips`) is the unitary map of the
delay-major delay-Doppler vector to time chips q and

    H_t = sum_p h_p diag(e^{j2pi k_p (q - l_p) / MN}) Pi^{l_p}

with Pi the cyclic chip shift, (Pi^l x)[q] = x[(q - l) mod MN].  A path is
therefore a cyclic shift by l_p followed by a phase ramp, and H_t x is P
gathers from the source chips (q - l_p) mod MN; its adjoint gathers from
(q + l_p) mod MN.  Distinct integer cells are Frobenius-orthogonal and every
unit-gain path has ||H_p||_F^2 = MN.  This module is the only place that
defines a path's shift and ramp; the estimator and the detector work on
chips through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import FrameConfig, chips_to_dd, dd_to_chips


def to_chips(x: np.ndarray, config: FrameConfig) -> np.ndarray:
    """A x: delay-major delay-Doppler vector to MN time chips."""
    return dd_to_chips(np.asarray(x).reshape(config.M, config.N))


def from_chips(x_c: np.ndarray, config: FrameConfig) -> np.ndarray:
    """A^H x_c: MN time chips back to the delay-major delay-Doppler vector."""
    return chips_to_dd(x_c, config.M, config.N).reshape(-1)


def checked_chips(name: str, x, config: FrameConfig) -> np.ndarray:
    """Chips of an input vector, which must be finite with shape (MN,)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (config.mn,):
        raise ValueError(f"{name} shape {x.shape} != (MN,) = ({config.mn},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return to_chips(x, config)


def _sources(l, mn: int) -> np.ndarray:
    """(P, MN) source chips (q - l_p) mod MN of the cyclic shifts Pi^{l_p}."""
    return (np.arange(mn) - np.asarray(l)[:, None]) % mn


def _ramps(l, k, mn: int) -> np.ndarray:
    """(P, MN) phase ramps e^{j2pi k_p (q - l_p) / MN}."""
    q = np.arange(mn)
    return np.exp(2j * np.pi * np.asarray(k)[:, None] * (q - np.asarray(l)[:, None]) / mn)


def path_responses(l, k, x_c: np.ndarray) -> np.ndarray:
    """Chip responses diag(ramp_p) Pi^{l_p} x_c of unit-gain paths (l_p, k_p), shape (P, MN)."""
    return _ramps(l, k, x_c.size) * x_c[_sources(l, x_c.size)]


def path_correlations(x_c: np.ndarray, t_c: np.ndarray, ls, ks) -> np.ndarray:
    """(H_{l,k} x)^H t on chips for every l in ls and k in ks; shape (len(ls), len(ks)).

    (H_{l,k} x)^H t = e^{j2pi k l / MN} sum_q conj(x_c[q - l]) t_c[q] e^{-j2pi k q / MN}:
    one length-MN FFT per delay, read at the bins k mod MN.
    """
    mn = x_c.size
    ls, ks = np.asarray(ls), np.asarray(ks)
    spectra = np.fft.fft(np.conj(x_c)[_sources(ls, mn)] * t_c, axis=1)
    return spectra[:, ks % mn] * np.exp(2j * np.pi * np.outer(ls, ks) / mn)


@dataclass(eq=False)
class EffectiveChannel:
    """Paths (gains[p], l[p], k[p]) and their H = sum_p gains[p] * H_{l[p], k[p]}.

    H is applied on chips in O(P*MN).
    """

    config: FrameConfig
    gains: np.ndarray
    l: np.ndarray
    k: np.ndarray
    _stage: object = field(default=None, repr=False)  # detector.LinearStage, built on first use

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=complex).reshape(-1)
        self.l = np.asarray(self.l, dtype=np.int64).reshape(-1)
        self.k = np.asarray(self.k, dtype=np.int64).reshape(-1)
        if not self.gains.size == self.l.size == self.k.size:
            raise ValueError("gains, l and k must have one entry per path")
        M, N = self.config.M, self.config.N
        if np.any((self.l < 0) | (self.l >= M)):
            raise ValueError(f"delay bins {self.l.tolist()} outside [0, {M})")
        if np.any((self.k < -(N // 2)) | (self.k > (N + 1) // 2 - 1)):
            raise ValueError(f"Doppler bins {self.k.tolist()} outside the signed grid range")

    @property
    def P(self) -> int:
        return self.gains.size

    @property
    def tau(self) -> np.ndarray:
        """Path delays (s), l / (M delta_f)."""
        return self.l / (self.config.M * self.config.delta_f)

    @property
    def nu(self) -> np.ndarray:
        """Path Doppler shifts (Hz), k / (N T)."""
        return self.k / (self.config.N * self.config.T)

    @cached_property
    def weights(self) -> np.ndarray:
        """(P, MN) gain-weighted chip ramps h_p e^{j2pi k_p (q - l_p) / MN}."""
        return self.gains[:, None] * _ramps(self.l, self.k, self.config.mn)

    @cached_property
    def _forward(self):
        return _sources(self.l, self.config.mn), self.weights

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
        return self._between_maps(self.apply_chips, x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """H^H y = A^H H_t^H A y."""
        return self._between_maps(self.apply_adjoint_chips, y)

    def _between_maps(self, chip_op, x):
        x = np.asarray(x)
        if x.shape != (self.config.mn,):
            raise ValueError(f"vector shape {x.shape} != (MN,) = ({self.config.mn},)")
        return from_chips(chip_op(to_chips(x, self.config)), self.config)

