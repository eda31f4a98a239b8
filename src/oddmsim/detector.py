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
an ordinary band of half-width at most twice that plus one.  Once per channel
the band is stored and its eigenvalues lam are computed, which gives
eps = mean(lam / (lam + xi)) for every xi; each solve is one banded Cholesky
solve of T + xi I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded, solveh_banded

from .core import get_constellation, qam_demap, require_count
from .effchan import EffectiveChannel, checked_chips, from_chips, to_chips

VAR_FLOOR = 1e-10   # lower bound on every propagated variance
STOP_TOL = 1e-6     # |delta v_nle^2| stopping rule


@dataclass(frozen=True)
class OampConfig:
    max_iters: int = 20
    damping: float = 1.0          # 1 = no damping

    def __post_init__(self):
        require_count("max_iters", self.max_iters)
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


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


class LinearStage:
    """Exact (T + xi I)^{-1}, T = H_t H_t^H, and trace factor of one channel, for any xi.

    ``ab`` holds the interleaved chip-domain Gram T in lower band storage and
    ``lam`` its eigenvalues.  ``max_residual`` is the worst relative residual
    ||(T + xi I) z - r|| / ||r|| measured over every solve so far; A is
    unitary, so it equals the delay-Doppler residual of (H H^H + xi I).
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
        self.lam = np.maximum(eigvals_banded(self.ab, lower=True), 0.0)
        self.max_residual = 0.0

    def solve(self, rhs: np.ndarray, xi: float) -> np.ndarray:
        """(T + xi I)^{-1} rhs on chips."""
        ab = self.ab.copy()
        ab[0] += xi
        z = np.empty(self.H.config.mn, dtype=complex)
        z[self.perm] = solveh_banded(ab, rhs[self.perm], overwrite_ab=True, lower=True)
        rnorm = np.linalg.norm(rhs)
        if rnorm > 0:
            resid = self.H.apply_chips(self.H.apply_adjoint_chips(z)) + xi * z - rhs
            self.max_residual = max(self.max_residual, float(np.linalg.norm(resid) / rnorm))
        return z

    def eps_phi(self, xi: float) -> float:
        """Tr(H^H (H H^H + xi I)^{-1} H) / MN."""
        return float(np.mean(self.lam / (self.lam + xi)))


def _stage_for(H: EffectiveChannel) -> LinearStage:
    if H._stage is None:
        H._stage = LinearStage(H)
    return H._stage


def _le_step(s_t, y_c, H, v_nle_sq, sigma_sq, stage):
    """One linear estimate from the chips y_c of the observation."""
    v_nle_sq = max(v_nle_sq, VAR_FLOOR)
    xi = sigma_sq / v_nle_sq
    z = stage.solve(y_c - H.apply_chips(to_chips(s_t, H.config)), xi)
    eps = stage.eps_phi(xi)
    r = s_t + from_chips(H.apply_adjoint_chips(z), H.config) / eps
    v_le_sq = max(v_nle_sq * (1.0 / eps - 1.0), VAR_FLOOR)
    return r, v_le_sq


def _observed_chips(y, H: EffectiveChannel, sigma_sq: float) -> np.ndarray:
    if not (np.isfinite(sigma_sq) and sigma_sq > 0):
        raise ValueError(f"sigma_sq must be positive and finite, got {sigma_sq}")
    return checked_chips("observation", y, H.config)


def oamp_le(s_t: np.ndarray, y: np.ndarray, H: EffectiveChannel, v_nle_sq: float,
            sigma_sq: float):
    """De-correlated linear estimate; returns (r_t, v_le_sq)."""
    return _le_step(s_t, to_chips(y, H.config), H, v_nle_sq, sigma_sq, _stage_for(H))


def oamp_nle(r_t: np.ndarray, v_le_sq: float, constellation):
    """Posterior-mean denoiser plus divergence-free recentring.

    Returns (s_next, v_nle_sq_next, posterior_means, posterior_var,
    non_contracting); the last entry flags the degenerate case
    v_post >= v_le_sq, where the orthogonalization step is skipped.
    """
    const = constellation if not isinstance(constellation, str) else get_constellation(constellation)
    v = max(v_le_sq, VAR_FLOOR)
    d2 = np.abs(r_t[:, None] - const.points[None, :]) ** 2
    expo = -d2 / v
    expo -= expo.max(axis=1, keepdims=True)
    w = np.exp(expo)
    w /= w.sum(axis=1, keepdims=True)
    post_mean = w @ const.points
    e2 = w @ (np.abs(const.points) ** 2)
    post_var = np.maximum(e2 - np.abs(post_mean) ** 2, 0.0)
    v_post = max(float(post_var.mean()), VAR_FLOOR)
    if v_post >= v * (1.0 - 1e-12):
        # denoiser did not contract; skip the orthogonalization step
        return post_mean, v_post, post_mean, post_var, True
    c = v / (v - v_post)
    s_next = c * (post_mean - (v_post / v) * r_t)
    v_next = max(1.0 / (1.0 / v_post - 1.0 / v), VAR_FLOOR)
    return s_next, v_next, post_mean, post_var, False


def oamp_detect(y: np.ndarray, H: EffectiveChannel, sigma_sq: float,
                config: OampConfig | None = None) -> DetectionResult:
    """Iterate LE/NLE from a zero prior until the variance estimate settles."""
    config = config or OampConfig()
    y_c = _observed_chips(y, H, sigma_sq)
    const = H.config.constellation_obj
    stage = _stage_for(H)
    s_t = np.zeros(H.config.mn, dtype=complex)
    v_nle_sq = 1.0  # unit-energy constellation prior
    trace = []
    post_mean = s_t
    non_contracting = False
    iterations = 0
    for t in range(config.max_iters):
        iterations = t + 1
        r, v_le_sq = _le_step(s_t, y_c, H, v_nle_sq, sigma_sq, stage)
        s_next, v_next, post_mean, _, flag = oamp_nle(r, v_le_sq, const)
        non_contracting = non_contracting or flag
        if config.damping < 1.0:
            s_next = config.damping * s_next + (1.0 - config.damping) * s_t
        trace.append((v_le_sq, v_next))
        delta = abs(v_next - v_nle_sq)
        s_t, v_nle_sq = s_next, v_next
        if delta < STOP_TOL:
            break
    return DetectionResult(soft_symbols=post_mean, hard_bits=qam_demap(post_mean, const),
                           variance_trace=trace, iterations_used=iterations,
                           max_solve_residual=stage.max_residual,
                           non_contracting=non_contracting)


def lmmse_detect(y: np.ndarray, H: EffectiveChannel, sigma_sq: float) -> DetectionResult:
    """One-shot s_hat = H^H (H H^H + sigma^2 I)^{-1} y with hard decisions."""
    y_c = _observed_chips(y, H, sigma_sq)
    const = H.config.constellation_obj
    stage = _stage_for(H)
    soft = from_chips(H.apply_adjoint_chips(stage.solve(y_c, sigma_sq)), H.config)
    return DetectionResult(soft_symbols=soft, hard_bits=qam_demap(soft, const),
                           variance_trace=[], iterations_used=1,
                           max_solve_residual=stage.max_residual)
