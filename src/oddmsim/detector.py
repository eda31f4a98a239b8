"""Symbol detection: orthogonal message-passing iterations and an LMMSE baseline.

One detection iteration alternates a de-correlated linear estimator

    r_t = s_t + (1/eps) H^H (H H^H + xi I)^{-1} (y - H s_t),
    xi = sigma^2 / v_nle^2,   eps = Tr(H^H (H H^H + xi I)^{-1} H) / MN,

with a divergence-free nonlinear estimator: a per-component posterior mean
over the constellation at noise level v_le^2, recentred by
C * (s_hat - (v_post / v_le^2) r) with C = v_le^2 / (v_le^2 - v_post), which
removes the correlation between the denoiser's output error and its input
error.  The 4-QAM points a (+-1 +- j) are a product of two binary alphabets, so
the posterior is separable and in closed form:

    s_hat = a (tanh(2a Re r / v_le^2) + j tanh(2a Im r / v_le^2)),
    posterior variance 1 - |s_hat|^2.

Variances propagate deterministically:
v_le^2 = v_nle^2 (1/eps - 1) and 1/v_nle'^2 = 1/v_post - 1/v_le^2.

The linear estimator needs the regularized solve (H H^H + xi I)^{-1} r and
the trace factor eps at every iteration.  Both are exact and run on chips
(see :mod:`effchan`): H H^H = A^H T A with T = H_t H_t^H, which is
cyclically banded with half-width max_p l_p - min_p l_p.  Taking the chips
in the interleaved order (0, MN-1, 1, MN-2, ...) turns that cyclic band into
an ordinary band of half-width w, at most twice that plus one, and at least 1.

T is built once per channel, one row per delay difference d = l_p - l_r
(T[q, q - d] summed over its path pairs, read at the source chips q - d of
:func:`effchan._sources`), and kept beside J T J, T in the reversed chip order,
its entries mirrored, as one band of diag(J T J, T).  For each new xi, that
band's Cholesky factor is a twisted pair: U U^H = T + xi I, U upper
triangular, from the reversed half, and L L^H in chip order.  A solve is two
banded triangular solves with L, z = (T + xi I)^{-1} r, then one
x = H_t^H z, which is all both detectors read of it.  Cut into blocks of
w chips (the last one ragged), T is block tridiagonal, and the k-th diagonal
block of (T + xi I)^{-1} is (G_k + xi I)^{-1} with the positive semidefinite

    G_k = T_kk - L_{k,k-1} L_{k,k-1}^H - U_{k,k+1} U_{k,k+1}^H = T_kk - C_k C_k^H,

with one corner matrix C_k = [L_{k,k-1} | U_{k,k+1} J] per block, so all the
G_k are one batched product and eps = sum_k tr(G_k (G_k + xi I)^{-1}) / MN is
one batched solve over the blocks.  Unlike 1 - xi tr((T + xi I)^{-1}) / MN, no
term cancels when xi is far above ||T||, which OAMP reaches once v_nle^2 meets
the variance floor.
T_kk and the corners are blocks of T's band or of its factor at xi, all read
through one flat index (:func:`_band_blocks`) with no mask: an entry outside the
band or the matrix reads band row w >= 1 of the last column, past the matrix end,
which is zero in the band and, as LAPACK never references it, in every factor.

:class:`LinearStage` holds this for one channel.  The caller builds it once
per channel it detects with and passes it to :func:`oamp_detect` and
:func:`lmmse_detect`; the harness builds one per trial for perfect CSI and
one per channel estimate for estimated CSI.  The two band routines, ``zpbtrf``
and ``zpbtrs``, come from scipy's compiled LAPACK module ``scipy.linalg._flapack``,
loaded on its own at the first factorization rather than with this module.
``scipy.linalg.lapack`` only re-exports them from there, the very same function
objects, but importing the ``scipy.linalg`` package runs about 300 modules,
``numpy.ma`` among them, for about 20 MB of peak RSS in every detecting process
(and again in every pool worker).  Sweeps that never detect (channel estimation,
OFDM) load neither.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import QAM4, chips_to_dd, dd_to_chips, qam_demap, require_real, require_sigma_sq
from .effchan import EffectiveChannel, _sources, checked_chips

VAR_FLOOR = 1e-10   # lower bound on every propagated variance
STOP_TOL = 1e-6     # |delta v_nle^2| stopping rule
MAX_ITERS = 20      # OAMP iterations at most


@dataclass
class DetectionResult:
    soft_symbols: np.ndarray
    hard_bits: np.ndarray
    variance_trace: list          # (v_le_sq, v_nle_sq) per iteration
    iterations_used: int
    max_solve_residual: float = 0.0
    non_contracting: bool = False


def _interleave(n: int) -> np.ndarray:
    """Chip order (0, n-1, 1, n-2, ...): cyclic neighbours become near neighbours."""
    perm = np.empty(n, dtype=np.int64)
    perm[0::2] = np.arange((n + 1) // 2)
    perm[1::2] = n - 1 - np.arange(n // 2)
    return perm


def _band_blocks(rows: np.ndarray, cols: np.ndarray, hw: int, size: int) -> np.ndarray:
    """Flat index into the (hw + 1, size) Fortran lower band of M of its hw x hw blocks.

    Block k holds M[rows[k] + i, cols[k] + j]; M[r, c] sits at band row r - c of
    column c, flat r + hw c.  Entries above the diagonal or outside the band or M
    read the last flat index, band row hw >= 1 of the last column, past M's end.
    """
    row = rows[:, None, None] + np.arange(hw)[:, None]
    col = cols[:, None, None] + np.arange(hw)
    outside = (row < col) | (row - col > hw) | (row >= size) | (col < 0)
    return np.where(outside, (hw + 1) * size - 1, row + hw * col)


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``, without ``scipy.linalg``."""
    import scipy  # scipy's own start-up (its bundled libraries), not scipy.linalg's

    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack.* is not in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cholesky(ab: np.ndarray, xi: float) -> np.ndarray:
    """Lower band Cholesky factor of the band ab plus xi on the diagonal."""
    shifted = ab.copy(order="F")  # zpbtrf factors a Fortran array in place
    shifted[0] += xi
    factor, info = _lapack().zpbtrf(shifted, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"T + xi I is not positive definite at xi = {xi!r}")
    return factor


class LinearStage:
    """Exact (T + xi I)^{-1}, T = H_t H_t^H, and trace factor of one channel, for any xi.

    ``H`` is the channel the stage was built for.  ``ab`` is the lower band of
    diag(J T J, T), the interleaved chip-domain Gram T in its last MN columns,
    with half-band hw >= 1 (a single-delay channel keeps one all-zero row).
    T goes last, so the reversed half adds only exact zeros to T's factor: it
    is bit for bit T's own unless LAPACK's 32-column blocks (half-width 32 and
    up) straddle MN.  The factor never couples the halves, so one block reader
    serves both.  The factor of the last xi is kept, so the solve and the trace
    factor of one linear step share it.
    """

    def __init__(self, H: EffectiveChannel):
        self.H = H
        n = H.config.mn
        self.perm = _interleave(n)
        pos = np.argsort(self.perm)  # chip q sits at interleaved position pos[q]
        # one row per delay difference d = l_p - l_r: T[q, q - d] sums
        # h_p D_p Pi^d (h_r D_r)^H over the pairs with that difference, in (p, r)
        # order, read at row i of the one source table src, chips q - diffs[i]; sorted from
        # a set, as np.unique's masked-array check imports numpy.ma (numpy >= 2.3)
        diffs = np.array(sorted({int(a - b) for a in H.l for b in H.l}), dtype=np.int64)
        src = _sources(diffs, n)
        t = np.zeros((diffs.size, n), dtype=complex)
        w = H.weights
        for p in range(H.P):
            for r in range(H.P):
                i = np.searchsorted(diffs, H.l[p] - H.l[r])
                t[i] += w[p] * np.conj(w[r, src[i]])
        # T[q, q - d] is band row b = pos[q] - c of interleaved column c = pos[q - d], kept
        # below the diagonal; mirrored, (J T J)[n-1-c, n-1-c-b] = conj(T[c + b, c]) in the
        # interleaved order is band row b of column n - 1 - c - b: no entry couples the halves
        c = pos[src]
        keep = pos >= c
        band, c, t = (pos - c)[keep], c[keep], t[keep]
        hw = int(band.max(initial=1))  # at least 1, so band row hw of the last column is past T
        self.ab = np.zeros((hw + 1, 2 * n), dtype=complex, order="F")
        self.ab[band, n + c] = t
        self.ab[band, n - 1 - c - band] = np.conj(t)
        # diagonal blocks T_kk of hw chips, read below the diagonal and conjugated above; the
        # ragged last one is zero-padded: a padded row adds nothing to tr(G (G + xi I)^{-1})
        starts = np.arange(0, n, hw)
        t = self.ab.ravel(order="F")[_band_blocks(n + starts, n + starts, hw, 2 * n)]
        self._blocks = np.where(np.tri(hw, dtype=bool), t, np.conj(t).swapaxes(1, 2))
        # hw x 2hw corners C_k = [L_{k,k-1} | U_{k,k+1} J]: forward at rows n + starts,
        # reversed at rows n - starts - hw with its rows flipped to chip order; block 0's
        # forward corner reads the pair's seam, where the factor is zero
        fwd = _band_blocks(n + starts, n + starts - hw, hw, 2 * n)
        rev = _band_blocks(n - starts - hw, n - starts - 2 * hw, hw, 2 * n)
        self._corners = np.concatenate([fwd, rev[:, ::-1]], axis=2)
        self._xi = self._factor = None

    def _pair(self, xi: float) -> np.ndarray:
        """Band Cholesky factor of diag(J T J, T) + xi I: the twisted pair (U, L) at xi."""
        if xi != self._xi:
            self._xi, self._factor = xi, _cholesky(self.ab, xi)
        return self._factor

    def solve(self, rhs: np.ndarray, xi: float) -> tuple[np.ndarray, float]:
        """(x, residual): x = H_t^H z on chips, z = (T + xi I)^{-1} rhs, and the
        measured ||(T + xi I) z - rhs|| / ||rhs|| of z, 0 for rhs = 0.  A is
        unitary, so that is also the delay-Doppler residual of (H H^H + xi I)."""
        n = self.H.config.mn
        z = np.empty(n, dtype=complex)
        factor = self._pair(xi)[:, n:]
        z[self.perm] = _lapack().zpbtrs(factor, rhs[self.perm, None], lower=1)[0][:, 0]
        x = self.H.apply_adjoint_chips(z)
        rnorm = np.linalg.norm(rhs)
        if rnorm == 0:
            return x, 0.0
        resid = self.H.apply_chips(x) + xi * z - rhs
        return x, float(np.linalg.norm(resid) / rnorm)

    def eps_phi(self, xi: float) -> float:
        """Tr(H^H (H H^H + xi I)^{-1} H) / MN."""
        c = self._pair(xi).ravel(order="F")[self._corners]
        g = self._blocks - c @ np.conj(c.swapaxes(1, 2))
        ratio = np.linalg.solve(g + xi * np.eye(g.shape[1]), g)
        return float(np.trace(ratio, axis1=1, axis2=2).real.sum() / self.H.config.mn)

    def step(self, s_t: np.ndarray, y_c: np.ndarray, v_nle_sq: float,
             sigma_sq: float) -> tuple[np.ndarray, float, float]:
        """De-correlated linear estimate from the chips y_c of the observation;
        returns (r_t, v_le_sq, residual of its solve)."""
        H = self.H
        v_nle_sq = max(v_nle_sq, VAR_FLOOR)
        xi = sigma_sq / v_nle_sq
        x, residual = self.solve(y_c - H.apply_chips(dd_to_chips(s_t, H.config)), xi)
        eps = self.eps_phi(xi)
        r = s_t + chips_to_dd(x, H.config) / eps
        v_le_sq = max(v_nle_sq * (1.0 / eps - 1.0), VAR_FLOOR)
        return r, v_le_sq, residual


def _observed_chips(y, H: EffectiveChannel, sigma_sq: float) -> np.ndarray:
    require_sigma_sq(sigma_sq)
    if not np.any(H.gains):
        # H = 0 makes eps 0: nothing of the frame reaches the observation
        raise ValueError(f"channel has no path with a nonzero gain (gains {H.gains.tolist()}), "
                         "so there is no signal to detect")
    return checked_chips("observation", y, H.config)


def oamp_nle(r_t: np.ndarray, v_le_sq: float):
    """Closed-form posterior-mean denoiser over :data:`QAM4` plus divergence-free recentring.

    Returns (s_next, v_nle_sq_next, posterior_means, posterior_var,
    non_contracting); the last entry flags the degenerate case
    v_post >= v_le_sq, where the orthogonalization step is skipped.  A non-finite ``r_t``, or a
    ``v_le_sq`` that is not positive and finite, raises ValueError.
    """
    if not np.isfinite(r_t).all():
        raise ValueError("r_t must be finite, got a NaN or infinite entry")
    if not 0 < require_real("v_le_sq", v_le_sq) < math.inf:
        raise ValueError(f"v_le_sq must be positive and finite, got {v_le_sq!r}")
    v = max(v_le_sq, VAR_FLOOR)
    a = QAM4.points.real.max()
    post_mean = a * (np.tanh(2 * a * r_t.real / v) + 1j * np.tanh(2 * a * r_t.imag / v))
    post_var = np.maximum(1.0 - np.abs(post_mean) ** 2, 0.0)
    v_post = max(float(post_var.mean()), VAR_FLOOR)
    if v_post >= v * (1.0 - 1e-12):
        # denoiser did not contract; skip the orthogonalization step
        return post_mean, v_post, post_mean, post_var, True
    c = v / (v - v_post)
    s_next = c * (post_mean - (v_post / v) * r_t)
    v_next = max(1.0 / (1.0 / v_post - 1.0 / v), VAR_FLOOR)
    return s_next, v_next, post_mean, post_var, False


def oamp_detect(y: np.ndarray, stage: LinearStage, sigma_sq: float) -> DetectionResult:
    """Iterate LE/NLE on ``stage.H`` from a zero prior until the variance estimate moves by
    less than ``STOP_TOL``, for at most ``MAX_ITERS`` iterations."""
    H = stage.H
    y_c = _observed_chips(y, H, sigma_sq)
    s_t = np.zeros(H.config.mn, dtype=complex)
    v_nle_sq = 1.0  # unit-energy constellation prior
    trace = []
    post_mean = s_t
    non_contracting = False
    iterations = 0
    max_residual = 0.0
    for t in range(MAX_ITERS):
        iterations = t + 1
        r, v_le_sq, residual = stage.step(s_t, y_c, v_nle_sq, sigma_sq)
        max_residual = max(max_residual, residual)
        s_next, v_next, post_mean, _, flag = oamp_nle(r, v_le_sq)
        non_contracting = non_contracting or flag
        trace.append((v_le_sq, v_next))
        delta = abs(v_next - v_nle_sq)
        s_t, v_nle_sq = s_next, v_next
        if delta < STOP_TOL:
            break
    return DetectionResult(soft_symbols=post_mean, hard_bits=qam_demap(post_mean),
                           variance_trace=trace, iterations_used=iterations,
                           max_solve_residual=max_residual,
                           non_contracting=non_contracting)


def lmmse_detect(y: np.ndarray, stage: LinearStage, sigma_sq: float) -> DetectionResult:
    """One-shot s_hat = H^H (H H^H + sigma^2 I)^{-1} y on ``stage.H`` with hard decisions."""
    H = stage.H
    y_c = _observed_chips(y, H, sigma_sq)
    x, residual = stage.solve(y_c, sigma_sq)
    soft = chips_to_dd(x, H.config)
    return DetectionResult(soft_symbols=soft, hard_bits=qam_demap(soft),
                           variance_trace=[], iterations_used=1,
                           max_solve_residual=residual)
