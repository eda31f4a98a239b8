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

For each new xi, T + xi I gets two banded Cholesky factors, a twisted pair:
L L^H in chip order and U U^H, U upper triangular, from the reversed order.
A solve is two banded triangular solves with L.  Cut into blocks of w chips
(the last one ragged), T is block tridiagonal, and the k-th diagonal block
of (T + xi I)^{-1} is (G_k + xi I)^{-1} with the positive semidefinite

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

from .core import qam_demap, require_count
from .effchan import EffectiveChannel, checked_chips, from_chips, to_chips

VAR_FLOOR = 1e-10   # lower bound on every propagated variance
STOP_TOL = 1e-6     # |delta v_nle^2| stopping rule


@dataclass(frozen=True)
class OampConfig:
    max_iters: int = 20

    def __post_init__(self):
        require_count("max_iters", self.max_iters)


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


def _corner(starts: np.ndarray, w: int, n: int):
    """Band-storage index and mask of the w x w corners L[p + i, p - w + j], p in starts.

    For a lower band factor L of half-width w this is the coupling block
    L_{k,k-1} of the block starting at chip p; it is upper triangular, and
    its rows past the last chip or columns before the first are zero.
    """
    i = np.arange(w)[:, None]
    j = np.arange(w)
    row, col = starts[:, None, None] + i, starts[:, None, None] - w + j
    keep = (j >= i) & (row < n) & (col >= 0)
    return np.where(keep, row - col, 0), np.where(keep, col, 0), keep


def _corner_gram(factor: np.ndarray, corner) -> np.ndarray:
    """C C^H for each corner C of a band factor."""
    band, col, keep = corner
    c = np.where(keep, factor[band, col], 0.0)
    return c @ np.conj(c.swapaxes(1, 2))


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

    ``H`` is the channel the stage was built for.  ``ab`` holds the
    interleaved chip-domain Gram T in lower band storage and ``rab`` the same
    for the reversed chip order.  The two Cholesky factors of the last xi are
    kept, so the solve and the trace factor of one linear step share them;
    the reversed one is built only when the trace factor asks for it.
    """

    def __init__(self, H: EffectiveChannel):
        self.H = H
        n = H.config.mn
        self.perm = _interleave(n)
        pos = np.empty(n, dtype=np.int64)
        pos[self.perm] = np.arange(n)
        q = np.arange(n)
        # a zero diagonal keeps the band nonempty for a channel without paths
        bands, cols, vals = [np.zeros(n, np.int64)], [q], [np.zeros(n, complex)]
        w = H.weights
        for p in range(H.P):
            for r in range(H.P):
                # h_p D_p Pi^{l_p - l_r} (h_r D_r)^H: entry (q, c) with c = q - l_p + l_r
                c = (q - H.l[p] + H.l[r]) % n
                j = pos[c]
                keep = pos >= j
                bands.append(pos[keep] - j[keep])
                cols.append(j[keep])
                vals.append(w[p, keep] * np.conj(w[r, c[keep]]))
        bands = np.concatenate(bands)
        self.ab = np.zeros((bands.max() + 1, n), dtype=complex)
        np.add.at(self.ab, (bands, np.concatenate(cols)), np.concatenate(vals))
        # reversed order: (J T J)[c + d, c] = conj(T[n-1-c, n-1-c-d]); entries
        # ab[d, c] with c + d >= n are zero, so the wrapped reads are too
        hw = self.ab.shape[0] - 1
        d = np.arange(hw + 1)[:, None]
        self.rab = np.conj(self.ab[d, (n - 1 - d - q) % n])
        # diagonal blocks T_kk of b = hw chips, the ragged last one zero-padded;
        # a padded row adds nothing to tr(G (G + xi I)^{-1})
        b = max(hw, 1)
        starts = np.arange(0, n, b)
        row = starts[:, None, None] + np.arange(b)[:, None]
        col = starts[:, None, None] + np.arange(b)
        lo, hi = np.maximum(row, col), np.minimum(row, col)
        keep = (lo - hi <= hw) & (lo < n)
        t = self.ab[np.where(keep, lo - hi, 0), np.where(keep, hi, 0)]
        self._blocks = np.where(keep, np.where(row >= col, t, np.conj(t)), 0.0)
        # coupling corners at each block boundary p: forward at p, reversed at n - p
        self._fwd_corner = _corner(starts[1:], hw, n)
        self._rev_corner = _corner(n - starts[1:], hw, n)
        self._xi = None
        self._fwd = self._rev = None

    def _forward(self, xi: float) -> np.ndarray:
        if xi != self._xi:
            self._xi, self._fwd, self._rev = xi, _cholesky(self.ab, xi), None
        return self._fwd

    def solve(self, rhs: np.ndarray, xi: float) -> tuple[np.ndarray, float]:
        """(z, residual): z = (T + xi I)^{-1} rhs on chips and its measured
        ||(T + xi I) z - rhs|| / ||rhs||, 0 for rhs = 0.  A is unitary, so that
        is also the delay-Doppler residual of (H H^H + xi I)."""
        from scipy.linalg.lapack import zpbtrs

        x, _ = zpbtrs(self._forward(xi), rhs[self.perm, None], lower=1)
        z = np.empty(self.H.config.mn, dtype=complex)
        z[self.perm] = x[:, 0]
        rnorm = np.linalg.norm(rhs)
        if rnorm == 0:
            return z, 0.0
        resid = self.H.apply_chips(self.H.apply_adjoint_chips(z)) + xi * z - rhs
        return z, float(np.linalg.norm(resid) / rnorm)

    def eps_phi(self, xi: float) -> float:
        """Tr(H^H (H H^H + xi I)^{-1} H) / MN."""
        fwd = self._forward(xi)
        if self._rev is None:
            self._rev = _cholesky(self.rab, xi)
        hw = self.ab.shape[0] - 1
        g = self._blocks.copy()
        b = g.shape[1]
        g[1:, :hw, :hw] -= _corner_gram(fwd, self._fwd_corner)
        g[:-1, b - hw:, b - hw:] -= _corner_gram(self._rev, self._rev_corner)[:, ::-1, ::-1]
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


def oamp_nle(r_t: np.ndarray, v_le_sq: float, constellation):
    """Posterior-mean denoiser plus divergence-free recentring.

    Returns (s_next, v_nle_sq_next, posterior_means, posterior_var,
    non_contracting); the last entry flags the degenerate case
    v_post >= v_le_sq, where the orthogonalization step is skipped.
    """
    v = max(v_le_sq, VAR_FLOOR)
    d2 = np.abs(r_t[:, None] - constellation.points[None, :]) ** 2
    expo = -d2 / v
    expo -= expo.max(axis=1, keepdims=True)
    w = np.exp(expo)
    w /= w.sum(axis=1, keepdims=True)
    post_mean = w @ constellation.points
    e2 = w @ (np.abs(constellation.points) ** 2)
    post_var = np.maximum(e2 - np.abs(post_mean) ** 2, 0.0)
    v_post = max(float(post_var.mean()), VAR_FLOOR)
    if v_post >= v * (1.0 - 1e-12):
        # denoiser did not contract; skip the orthogonalization step
        return post_mean, v_post, post_mean, post_var, True
    c = v / (v - v_post)
    s_next = c * (post_mean - (v_post / v) * r_t)
    v_next = max(1.0 / (1.0 / v_post - 1.0 / v), VAR_FLOOR)
    return s_next, v_next, post_mean, post_var, False


def oamp_detect(y: np.ndarray, stage: LinearStage, sigma_sq: float,
                config: OampConfig | None = None) -> DetectionResult:
    """Iterate LE/NLE on ``stage.H`` from a zero prior until the variance estimate settles."""
    config = config or OampConfig()
    H = stage.H
    y_c = _observed_chips(y, H, sigma_sq)
    const = H.config.constellation_obj
    s_t = np.zeros(H.config.mn, dtype=complex)
    v_nle_sq = 1.0  # unit-energy constellation prior
    trace = []
    post_mean = s_t
    non_contracting = False
    iterations = 0
    max_residual = 0.0
    for t in range(config.max_iters):
        iterations = t + 1
        r, v_le_sq, residual = stage.step(s_t, y_c, v_nle_sq, sigma_sq)
        max_residual = max(max_residual, residual)
        s_next, v_next, post_mean, _, flag = oamp_nle(r, v_le_sq, const)
        non_contracting = non_contracting or flag
        trace.append((v_le_sq, v_next))
        delta = abs(v_next - v_nle_sq)
        s_t, v_nle_sq = s_next, v_next
        if delta < STOP_TOL:
            break
    return DetectionResult(soft_symbols=post_mean, hard_bits=qam_demap(post_mean, const),
                           variance_trace=trace, iterations_used=iterations,
                           max_solve_residual=max_residual,
                           non_contracting=non_contracting)


def lmmse_detect(y: np.ndarray, stage: LinearStage, sigma_sq: float) -> DetectionResult:
    """One-shot s_hat = H^H (H H^H + sigma^2 I)^{-1} y on ``stage.H`` with hard decisions."""
    H = stage.H
    y_c = _observed_chips(y, H, sigma_sq)
    const = H.config.constellation_obj
    z, residual = stage.solve(y_c, sigma_sq)
    soft = from_chips(H.apply_adjoint_chips(z), H.config)
    return DetectionResult(soft_symbols=soft, hard_bits=qam_demap(soft, const),
                           variance_trace=[], iterations_used=1,
                           max_solve_residual=residual)
