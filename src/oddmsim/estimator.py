"""Sensing-stage channel parameter estimation.

Every entry point maps the observation y and the known sensing frame s to
time chips once (:func:`effchan.to_chips`, unitary, so inner products and
residuals are unchanged) and works there with the unit-gain path responses
u_{l,k} = H_{l,k} s of :func:`effchan.path_responses`.

* :func:`estimate_channel` -- low-complexity alternating search.  Paths are
  seeded by successive extraction of matched-filter peaks, then each outer
  iteration revisits every path: scan the integer (l, k) window maximizing
  the interference-cancelled matched-filter statistic
  ``|u_{l,k}^H (y - sum_{q != p} h_q u_q)|^2`` (the useful signal with the
  other paths' current contributions removed; one FFT per window delay, see
  :func:`effchan.path_correlations`), then re-solve all gains exactly from
  the P x P normal equations.  A candidate move is kept only if the joint
  least-squares residual does not increase, so the residual is
  non-increasing by construction.
* :func:`mle_exhaustive` -- brute-force joint search over all cell tuples,
  gains solved per tuple; the reference the fast algorithm is compared to.
* :func:`refresh_gains` -- gain-only re-estimation with (l, k) frozen, for
  tracking a channel whose geometry holds still between frames.

Each returns an :class:`EstimationResult` whose ``channel`` is an
:class:`effchan.EffectiveChannel` on distinct cells, the same path record the
channel generators return, so the detector takes it as its H.
:func:`nmse` compares two such channels cell by cell: distinct integer cells are
Frobenius-orthogonal with ||H_{l,k}||_F^2 = MN, so the matrix error ratio is
the ratio of summed squared gain errors over the merged cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FrameConfig
from .effchan import EffectiveChannel, checked_chips, path_correlations, path_responses

COND_LIMIT = 1e12
NMSE_FLOOR_DB = -100.0
LOW_CONF_FACTOR = 5.0   # a selected peak below this times the window median is low-confidence


@dataclass(frozen=True)
class EstimationConfig:
    """Search windows and stopping rules for the alternating estimator."""

    frame: FrameConfig
    p_assumed: int
    l_range: tuple = None       # (lo, hi) half-open delay window
    k_range: tuple = None       # (lo, hi) half-open signed Doppler window
    max_iters: int = 20
    epsilon: float = 1e-4       # summed |change| over all 3P parameters
    mle_max_hypotheses: int = 200_000

    def __post_init__(self):
        if self.p_assumed < 1:
            raise ValueError("p_assumed must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        M, N = self.frame.M, self.frame.N
        if self.l_range is None:
            object.__setattr__(self, "l_range", (0, min(M, max(2, M // 4 + 1))))
        if self.k_range is None:
            half = min(N // 2, max(1, N // 4))
            object.__setattr__(self, "k_range", (-half, half + 1))
        lo, hi = self.l_range
        if not (0 <= lo < hi <= M):
            raise ValueError(f"l_range {self.l_range} outside [0, {M}]")
        klo, khi = self.k_range
        if not (-(N // 2) <= klo < khi <= (N + 1) // 2):
            raise ValueError(f"k_range {self.k_range} outside the signed grid")

    def cells(self):
        """Deterministically ordered window cells: l ascending, then |k|, negative first."""
        ks = sorted(range(self.k_range[0], self.k_range[1]), key=lambda k: (abs(k), -(k < 0)))
        return [(l, k) for l in range(self.l_range[0], self.l_range[1]) for k in ks]


@dataclass
class EstimationResult:
    """Estimated channel plus the optimizer's trace and health flags."""

    channel: EffectiveChannel
    iterations: int
    objective_trace: list
    converged: bool = True
    low_confidence: bool = False
    ill_conditioned: bool = False


def solve_gains(y: np.ndarray, u: np.ndarray):
    """Exact least-squares gains of y ~ gains @ u for fixed path responses u (P, MN).

    Solves the P x P normal equations with Gram entries u_p^H u_q.  Returns
    (gains, ill_conditioned); an ill-conditioned system (cond > 1e12, e.g.
    duplicated hypotheses) falls back to the smallest-norm solution.
    """
    G = u.conj() @ u.T
    b = u.conj() @ y
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        gains, *_ = np.linalg.lstsq(G, b, rcond=None)
        return gains, True
    return np.linalg.solve(G, b), False


class _Window:
    """The search window as flat cells in tie-break order: l ascending, then |k|, negative first."""

    def __init__(self, est: EstimationConfig):
        self.cells = est.cells()
        self.index = {c: i for i, c in enumerate(self.cells)}
        self.ls = np.arange(est.l_range[0], est.l_range[1])
        self.ks = np.array([k for l, k in self.cells if l == self.ls[0]])

    def scan(self, s_c: np.ndarray, t_c: np.ndarray) -> np.ndarray:
        """u_{l,k}^H t for every window cell, flat in cell order."""
        return path_correlations(s_c, t_c, self.ls, self.ks).reshape(-1)

    def pick_peak(self, metric: np.ndarray, occupied) -> tuple:
        """First maximum of the flat metric outside the occupied cells."""
        metric = metric.copy()
        metric[[self.index[c] for c in occupied]] = -np.inf
        return self.cells[int(np.argmax(metric))]


def _residual_sq(y, u, gains):
    r = y - gains @ u
    return float(np.vdot(r, r).real)


def estimate_channel(y: np.ndarray, s_known: np.ndarray,
                     est: EstimationConfig) -> EstimationResult:
    """Alternating integer-grid search for P paths from a known sensing frame."""
    y, s = checked_chips("y", y, est.frame), checked_chips("s_known", s_known, est.frame)
    win = _Window(est)
    P = est.p_assumed
    frame = est.frame
    yy = float(np.vdot(y, y).real)
    ss = float(np.vdot(s, s).real)

    cells: list = []
    u = np.zeros((0, frame.mn), dtype=complex)
    gains = np.zeros(0, dtype=complex)
    ill = False

    # successive extraction: place each path at the peak of the matched filter
    # applied to the residual of the paths placed so far
    for p in range(P):
        amb = win.scan(s, y - gains @ u)
        cell = win.pick_peak(np.abs(amb) ** 2, cells)
        cells.append(cell)
        u = np.vstack([u, path_responses([cell[0]], [cell[1]], s)])
        gains, flag = solve_gains(y, u)
        ill = ill or flag

    def others_removed(p):
        return y - np.delete(gains, p) @ np.delete(u, p, axis=0)

    residual = _residual_sq(y, u, gains)
    trace = [yy - residual]
    iterations = 0
    converged = False
    last_maps = [None] * P

    for outer in range(est.max_iters):
        iterations = outer + 1
        prev_cells = list(cells)
        prev_gains = gains.copy()
        for p in range(P):
            amb = win.scan(s, others_removed(p))
            last_maps[p] = np.abs(amb) / ss
            cand = win.pick_peak(np.abs(amb) ** 2, cells[:p] + cells[p + 1:])
            if cand == cells[p]:
                continue
            saved = (cells[p], u[p].copy(), gains, ill)
            cells[p] = cand
            u[p] = path_responses([cand[0]], [cand[1]], s)[0]
            gains, flag = solve_gains(y, u)
            ill = ill or flag
            new_residual = _residual_sq(y, u, gains)
            if new_residual <= residual + 1e-12 * max(1.0, residual):
                residual = new_residual
            else:  # safeguard: reject moves that worsen the joint residual
                cells[p], u[p], gains, ill = saved
        trace.append(yy - residual)
        change = sum(abs(gains[p] - prev_gains[p])
                     + abs(cells[p][0] - prev_cells[p][0])
                     + abs(cells[p][1] - prev_cells[p][1]) for p in range(P))
        if change <= est.epsilon:
            converged = True
            break

    # confidence: selected peaks should clear the window's median statistic
    low_conf = False
    for p in range(P):
        amb_map = last_maps[p]
        if amb_map is None:  # converged during init; rebuild the final map
            amb_map = np.abs(win.scan(s, others_removed(p))) / ss
        if amb_map[win.index[cells[p]]] < LOW_CONF_FACTOR * np.median(amb_map):
            low_conf = True

    return EstimationResult(channel=EffectiveChannel(frame, gains, *zip(*cells)),
                            iterations=iterations, objective_trace=trace,
                            converged=converged, low_confidence=low_conf,
                            ill_conditioned=ill)


def mle_exhaustive(y: np.ndarray, s_known: np.ndarray,
                   est: EstimationConfig) -> EstimationResult:
    """Global integer-grid minimizer of the residual over all cell tuples."""
    y, s = checked_chips("y", y, est.frame), checked_chips("s_known", s_known, est.frame)
    P = est.p_assumed
    cell_list = est.cells()
    n_cells = len(cell_list)
    n_combos = math.comb(n_cells, P)
    if n_combos > est.mle_max_hypotheses:
        raise ValueError(
            f"exhaustive search refused: C({n_cells}, {P}) = {n_combos} tuples "
            f"exceeds the cap of {est.mle_max_hypotheses}")
    yy = float(np.vdot(y, y).real)
    ls, ks = zip(*cell_list)
    u = path_responses(ls, ks, s)
    gram = u.conj() @ u.T
    bvec = u.conj() @ y
    best = None
    for combo in itertools.combinations(range(n_cells), P):
        idx = list(combo)
        G = gram[np.ix_(idx, idx)]
        b = bvec[idx]
        try:
            h = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            continue
        fit = float(np.vdot(b, h).real)
        resid = yy - fit
        if best is None or resid < best[0] - 1e-12:
            best = (resid, idx, h)
    resid, idx, h = best
    cells = [cell_list[i] for i in idx]
    return EstimationResult(channel=EffectiveChannel(est.frame, h, *zip(*cells)),
                            iterations=1, objective_trace=[yy - resid])


def refresh_gains(y: np.ndarray, s_known: np.ndarray,
                  prior: EstimationResult) -> EstimationResult:
    """Re-solve only the gains, keeping the prior delay-Doppler cells fixed."""
    old = prior.channel
    y, s = checked_chips("y", y, old.config), checked_chips("s_known", s_known, old.config)
    u = path_responses(old.l, old.k, s)
    gains, ill = solve_gains(y, u)
    yy = float(np.vdot(y, y).real)
    return EstimationResult(channel=EffectiveChannel(old.config, gains, old.l, old.k),
                            iterations=1, objective_trace=[yy - _residual_sq(y, u, gains)],
                            ill_conditioned=ill)


def _cell_gains(eff: EffectiveChannel) -> dict:
    """Summed gain per distinct (l, k) cell."""
    merged = {}
    for cell, h in zip(zip(eff.l.tolist(), eff.k.tolist()), eff.gains):
        merged[cell] = merged.get(cell, 0j) + h
    return merged


def nmse(estimate: EffectiveChannel, truth: EffectiveChannel) -> float:
    """Channel reconstruction error in dB: 10*log10(||H_hat - H||_F^2 / ||H||_F^2).

    Both norms are taken over merged integer cells (the common factor MN
    cancels).  Perfect reconstruction is floored at -100 dB.
    """
    est, true = _cell_gains(estimate), _cell_gains(truth)
    denom = sum(abs(h) ** 2 for h in true.values())
    if denom == 0.0:
        raise ValueError("true channel has zero norm")
    num = sum(abs(est.get(c, 0j) - true.get(c, 0j)) ** 2 for c in sorted(est.keys() | true.keys()))
    ratio = num / denom
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))
