"""Symbol detection: orthogonal message-passing iterations and an LMMSE baseline.

One detection iteration alternates a de-correlated linear estimator

    r_t = s_t + (1/eps) H^H (H H^H + xi I)^{-1} (y - H s_t),
    xi = sigma^2 / v_nle^2,   eps = Tr(H^H (H H^H + xi I)^{-1} H) / MN,

with a divergence-free nonlinear estimator: a per-component posterior mean
over the constellation at noise level v_le^2, recentred by
C * (s_hat - (v_post / v_le^2) r) with C = v_le^2 / (v_le^2 - v_post), which
removes the correlation between the denoiser's output error and its input
error.  Variances propagate deterministically:
v_le^2 = v_nle^2 (1/eps - 1) and 1/v_nle'^2 = 1/v_post - 1/v_le^2.

The linear estimator needs the regularized solve (H H^H + xi I)^{-1} r and
the trace factor eps at every iteration.  Both are exact and run on chips
(see :mod:`effchan`): H H^H = A^H T A with T = H_t H_t^H, which is
cyclically banded with half-width max_p l_p - min_p l_p.  Taking the chips
in the interleaved order (0, MN-1, 1, MN-2, ...) turns that cyclic band into
an ordinary band of half-width w, at most twice that plus one.

T is built once per channel, one row per delay difference d = l_p - l_r
(T[q, q - d] summed over its path pairs), and kept beside J T J, T in the
reversed chip order, as one band of diag(J T J, T).  For each new xi, that
band's Cholesky factor is a twisted pair: U U^H = T + xi I, U upper
triangular, from the reversed half, and L L^H in chip order.  A solve is two
banded triangular solves with L.  Cut into blocks of w chips (the last one
ragged), T is block tridiagonal, and the k-th diagonal block of
(T + xi I)^{-1} is (G_k + xi I)^{-1} with the positive semidefinite

    G_k = T_kk - L_{k,k-1} L_{k,k-1}^H - U_{k,k+1} U_{k,k+1}^H,

so eps = sum_k tr(G_k (G_k + xi I)^{-1}) / MN, one batched solve over the
blocks.  Unlike 1 - xi tr((T + xi I)^{-1}) / MN, no term cancels when xi is
far above ||T||, which OAMP reaches once v_nle^2 meets the variance floor.

:class:`LinearStage` holds this for one channel.  The caller builds it once
per channel it detects with and passes it to :func:`oamp_detect` and
:func:`lmmse_detect`; the harness builds one per trial for perfect CSI and
one per channel estimate for estimated CSI.  The two band routines come from
scipy's LAPACK, imported at the first factorization rather than with this
module: loading ``scipy.linalg`` costs most of the package's start-up time and
memory, and sweeps that never detect (channel estimation, OFDM) never need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QAM4, qam_demap
from .effchan import EffectiveChannel, checked_chips, from_chips, to_chips

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


def _corners(starts: np.ndarray, w: int, n: int):
    """Flat index into a (w + 1, 2n) Fortran band factor, and mask, of its w x w corners.

    For a lower band factor L of half-width w the corner L[p + i, p - w + j]
    is the coupling block L_{k,k-1} of the block starting at chip p; it is
    upper triangular, and its rows past the last chip or columns before the
    first are zero.  These are the corners of the last n columns at each p in
    starts, then of the first n columns at each n - p.
    """
    p = np.concatenate([starts, n - starts])[:, None, None]
    i, j = np.arange(w)[:, None], np.arange(w)
    row, col = p + i, p - w + j
    keep = (j >= i) & (row < n) & (col >= 0)
    col = col + n * (np.arange(p.size) < starts.size)[:, None, None]
    return np.where(keep, w + i - j + (w + 1) * col, 0), keep


def _cholesky(ab: np.ndarray, xi: float) -> np.ndarray:
    """Lower band Cholesky factor of the band ab plus xi on the diagonal."""
    from scipy.linalg.lapack import zpbtrf

    shifted = ab.copy(order="F")  # zpbtrf factors a Fortran array in place
    shifted[0] += xi
    factor, info = zpbtrf(shifted, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"T + xi I is not positive definite at xi = {xi!r}")
    return factor


class LinearStage:
    """Exact (T + xi I)^{-1}, T = H_t H_t^H, and trace factor of one channel, for any xi.

    ``H`` is the channel the stage was built for.  ``ab`` is the lower band of
    diag(J T J, T), the interleaved chip-domain Gram T in its last MN columns.
    T goes last, so the reversed half adds only exact zeros to T's factor: it
    is bit for bit T's own unless LAPACK's 32-column blocks (half-width 32 and
    up) straddle MN.  The factor of the last xi is kept, so the solve and the
    trace factor of one linear step share it.
    """

    def __init__(self, H: EffectiveChannel):
        self.H = H
        n = H.config.mn
        self.perm = _interleave(n)
        pos = np.argsort(self.perm)  # chip q sits at interleaved position pos[q]
        q = np.arange(n)
        # one row per delay difference d = l_p - l_r: T[q, q - d] sums
        # h_p D_p Pi^d (h_r D_r)^H over the pairs with that difference, in (p, r)
        # order; d = 0 keeps the band nonempty for a channel without paths
        diffs = np.union1d(H.l[:, None] - H.l, 0)
        t = np.zeros((diffs.size, n), dtype=complex)
        w = H.weights
        for p in range(H.P):
            for r in range(H.P):
                d = H.l[p] - H.l[r]
                t[np.searchsorted(diffs, d)] += w[p] * np.conj(w[r, (q - d) % n])
        # T[q, c] is band row pos[q] - pos[c] of interleaved column pos[c], kept below the diagonal
        c = pos[(q - diffs[:, None]) % n]
        band = pos - c
        keep = band >= 0
        hw = int(band[keep].max())
        self.ab = np.zeros((hw + 1, 2 * n), dtype=complex, order="F")
        self.ab[band[keep], n + c[keep]] = t[keep]
        # reversed order: (J T J)[c + d, c] = conj(T[n-1-c, n-1-c-d]); band entries T[c + d, c]
        # with c + d >= n are zero, so are the wrapped reads, and no entry couples the halves
        d = np.arange(hw + 1)[:, None]
        self.ab[:, :n] = np.conj(self.ab[d, n + (n - 1 - d - q) % n])
        # diagonal blocks T_kk of b = hw chips, the ragged last one zero-padded;
        # a padded row adds nothing to tr(G (G + xi I)^{-1})
        b = max(hw, 1)
        starts = np.arange(0, n, b)
        row = starts[:, None, None] + np.arange(b)[:, None]
        col = starts[:, None, None] + np.arange(b)
        lo, hi = np.maximum(row, col), np.minimum(row, col)
        keep = (lo - hi <= hw) & (lo < n)
        t = self.ab[np.where(keep, lo - hi, 0), n + np.where(keep, hi, 0)]
        self._blocks = np.where(keep, np.where(row >= col, t, np.conj(t)), 0.0)
        # coupling corners at each block boundary p: forward at p, reversed at n - p
        self._corners = _corners(starts[1:], hw, n)
        self._xi = self._factor = None

    def _pair(self, xi: float) -> np.ndarray:
        """Band Cholesky factor of diag(J T J, T) + xi I: the twisted pair (U, L) at xi."""
        if xi != self._xi:
            self._xi, self._factor = xi, _cholesky(self.ab, xi)
        return self._factor

    def solve(self, rhs: np.ndarray, xi: float) -> tuple[np.ndarray, float]:
        """(z, residual): z = (T + xi I)^{-1} rhs on chips and its measured
        ||(T + xi I) z - rhs|| / ||rhs||, 0 for rhs = 0.  A is unitary, so that
        is also the delay-Doppler residual of (H H^H + xi I)."""
        from scipy.linalg.lapack import zpbtrs

        n = self.H.config.mn
        x, _ = zpbtrs(self._pair(xi)[:, n:], rhs[self.perm, None], lower=1)
        z = np.empty(n, dtype=complex)
        z[self.perm] = x[:, 0]
        rnorm = np.linalg.norm(rhs)
        if rnorm == 0:
            return z, 0.0
        resid = self.H.apply_chips(self.H.apply_adjoint_chips(z)) + xi * z - rhs
        return z, float(np.linalg.norm(resid) / rnorm)

    def eps_phi(self, xi: float) -> float:
        """Tr(H^H (H H^H + xi I)^{-1} H) / MN."""
        flat, keep = self._corners
        c = np.where(keep, self._pair(xi).ravel(order="F")[flat], 0.0)
        gram = c @ np.conj(c.swapaxes(1, 2))
        g, hw, k = self._blocks.copy(), c.shape[1], c.shape[0] // 2
        b = g.shape[1]
        g[1:, :hw, :hw] -= gram[:k]
        g[:-1, b - hw:, b - hw:] -= gram[k:, ::-1, ::-1]
        ratio = np.linalg.solve(g + xi * np.eye(b), g)
        return float(np.trace(ratio, axis1=1, axis2=2).real.sum() / self.H.config.mn)

    def step(self, s_t: np.ndarray, y_c: np.ndarray, v_nle_sq: float,
             sigma_sq: float) -> tuple[np.ndarray, float, float]:
        """De-correlated linear estimate from the chips y_c of the observation;
        returns (r_t, v_le_sq, residual of its solve)."""
        H = self.H
        v_nle_sq = max(v_nle_sq, VAR_FLOOR)
        xi = sigma_sq / v_nle_sq
        z, residual = self.solve(y_c - H.apply_chips(to_chips(s_t, H.config)), xi)
        eps = self.eps_phi(xi)
        r = s_t + from_chips(H.apply_adjoint_chips(z), H.config) / eps
        v_le_sq = max(v_nle_sq * (1.0 / eps - 1.0), VAR_FLOOR)
        return r, v_le_sq, residual


def _observed_chips(y, H: EffectiveChannel, sigma_sq: float) -> np.ndarray:
    if not (np.isfinite(sigma_sq) and sigma_sq > 0):
        raise ValueError(f"sigma_sq must be positive and finite, got {sigma_sq}")
    return checked_chips("observation", y, H.config)


def oamp_nle(r_t: np.ndarray, v_le_sq: float):
    """Posterior-mean denoiser over :data:`QAM4` plus divergence-free recentring.

    Returns (s_next, v_nle_sq_next, posterior_means, posterior_var,
    non_contracting); the last entry flags the degenerate case
    v_post >= v_le_sq, where the orthogonalization step is skipped.
    """
    v = max(v_le_sq, VAR_FLOOR)
    d2 = np.abs(r_t[:, None] - QAM4.points[None, :]) ** 2
    expo = -d2 / v
    expo -= expo.max(axis=1, keepdims=True)
    w = np.exp(expo)
    w /= w.sum(axis=1, keepdims=True)
    post_mean = w @ QAM4.points
    e2 = w @ (np.abs(QAM4.points) ** 2)
    post_var = np.maximum(e2 - np.abs(post_mean) ** 2, 0.0)
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
    z, residual = stage.solve(y_c, sigma_sq)
    soft = from_chips(H.apply_adjoint_chips(z), H.config)
    return DetectionResult(soft_symbols=soft, hard_bits=qam_demap(soft),
                           variance_trace=[], iterations_used=1,
                           max_solve_residual=residual)
