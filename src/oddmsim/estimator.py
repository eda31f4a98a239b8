"""Sensing-stage channel parameter estimation.

Every entry point maps the observation y and the known sensing frame s to
time chips once (:func:`core.dd_to_chips`, unitary, so inner products and
residuals are unchanged).  A unit-gain path (l, k) responds to s with
u_{l,k} = H_{l,k} s, and the window scan of a target t is u_{l,k}^H t for
every window cell (:func:`effchan.path_correlations`: one complex matrix
product of the frame's conj-shifted chip rows and the twiddled target).

The scan is linear in t, and the scan of a path response is the sensing
frame's discrete ambiguity function (Woodward 1953) at the cell difference:

    u_{l,k}^H u_{l',k'} = e^{j2pi k' (l - l') / MN} C(l - l', k - k'),
    C(d, kappa) = u_{d,kappa}^H s.

An :class:`EstimationConfig` owns the search window, built once per config: the
channel's integer support, delays 0..l_max and Dopplers -k_max..k_max.
A :class:`Sounding` holds what depends on the sensing frame: its conj-shifted
rows and C over the window's cell differences (d >= 0 by the same product as
the scans; d < 0 is the Hermitian mirror).  It is built once per sensing frame
and shared by every estimate from that frame, so an estimate runs one product,
scan(s, y); every cancelled scan, Gram entry and residual after that is a gather.
The column of a cell (the scans of its unit response) is two gathers, its phase read from the
sounding's window phase table and C from the ambiguity table, so nothing is cached per cell;
the search itself works on flat window indices and names cells (l, k) only in its result.

* :func:`estimate_channel` -- low-complexity alternating search.  Paths are
  seeded by successive extraction of matched-filter peaks, then each outer
  iteration revisits every path: scan the integer (l, k) window maximizing
  the interference-cancelled matched-filter statistic
  ``|u_{l,k}^H (y - sum_{q != p} h_q u_q)|^2`` (scan(s, y) minus the other
  paths' gathered scans), then re-solve all gains exactly from the P x P
  normal equations.  A candidate move is kept only if the joint
  least-squares residual does not increase, so the residual is
  non-increasing by construction.
* :func:`mle_exhaustive` -- brute-force joint search over all cell tuples,
  gains solved per tuple from the sounding's window Gram (gathered from C on
  first use); the reference the fast algorithm is compared to.

Each returns an :class:`EstimationResult` whose ``channel`` is an
:class:`effchan.EffectiveChannel` on distinct cells, the same path record the
channel generators return, so the detector takes it as its H.
:func:`nmse` compares two such channels cell by cell: distinct integer cells are
Frobenius-orthogonal with ||H_{l,k}||_F^2 = MN, so the matrix error ratio is
the ratio of summed squared gain errors over the cells of either channel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FrameConfig, require_count, require_window
from .effchan import (EffectiveChannel, checked_chips, doppler_twiddles, path_correlations,
                      shifted_conj_rows)

COND_LIMIT = 1e12
NMSE_FLOOR_DB = -100.0
LOW_CONF_FACTOR = 5.0   # a selected peak not above this times the window median is low-confidence
MLE_MAX_HYPOTHESES = 200_000  # cell tuples mle_exhaustive will try
MAX_ITERS = 20          # outer iterations of estimate_channel at most
EPSILON = 1e-4          # converged once a pass changes the 3P parameters by at most this, summed


@dataclass(frozen=True)
class EstimationConfig:
    """Search window, delays 0..l_max and Dopplers -k_max..k_max (:func:`core.require_window`),
    and path count of the alternating estimator, which stops after ``MAX_ITERS`` outer passes
    or once a pass changes the parameters by ``EPSILON`` or less."""

    frame: FrameConfig
    p_assumed: int
    l_max: int                  # last delay bin of the window
    k_max: int                  # largest |Doppler bin| of the window

    def __post_init__(self):
        require_count("p_assumed", self.p_assumed)
        require_window(self.frame, self.l_max, self.k_max)
        if self.p_assumed > len(self.cells):
            raise ValueError(f"p_assumed {self.p_assumed} exceeds the "
                             f"{len(self.cells)} cells of the search window")

    @cached_property
    def cells(self) -> tuple:
        """Window cells in tie-break order: l ascending, then |k|, negative first."""
        ks = sorted(range(-self.k_max, self.k_max + 1), key=lambda k: (abs(k), -(k < 0)))
        return tuple((l, k) for l in range(self.l_max + 1) for k in ks)

    @cached_property
    def cell_lk(self) -> tuple:
        """l and k arrays of the window cells, in cell order."""
        return tuple(np.array(v) for v in zip(*self.cells))

    @cached_property
    def hypotheses(self) -> int:
        """Cell tuples the exhaustive search tries: C(number of cells, p_assumed)."""
        return math.comb(len(self.cells), self.p_assumed)


@dataclass
class EstimationResult:
    """Estimated channel plus the optimizer's trace and health flags."""

    channel: EffectiveChannel
    iterations: int
    objective_trace: list
    converged: bool = True
    low_confidence: bool = False
    ill_conditioned: bool = False


def pick_peak(metric: np.ndarray, occupied) -> int:
    """Flat window index of the first maximum of the flat metric outside the occupied flat
    indices, which it overwrites with -inf."""
    metric[occupied] = -np.inf
    return int(np.argmax(metric))


def solve_gains(G: np.ndarray, b: np.ndarray):
    """Least-squares gains from the P x P normal equations G gains = b, in one call.

    G[p, q] = u_p^H u_q is the Gram of the path responses and b[p] = u_p^H y.
    Returns (gains, ill_conditioned): the smallest-norm least-squares gains, the exact
    solution wherever G is invertible, and a flag read from that call's singular values:
    set when the 2-norm condition number sv_max / sv_min exceeds ``COND_LIMIT`` or a
    singular value is zero (e.g. duplicated hypotheses).
    """
    gains, _, _, sv = np.linalg.lstsq(G, b, rcond=None)
    return gains, not (sv[-1] > 0 and sv[0] / sv[-1] <= COND_LIMIT)


class Sounding:
    """A known sensing frame searched over the window of ``est``: the work every estimate
    from that frame shares, done once.

    Holds the checked chips ``s`` of ``s_known``, the rows conj(s[q - d]) for the window's
    delay spread d, the window's Doppler twiddles and phase table, the frame's ambiguity table
    over the cells' differences and, on first use, the Gram of every pair of cells.

    Not re-entrant: every scan forms its twiddled target in one scratch block of the
    sounding, so use a sounding from one thread at a time.
    """

    def __init__(self, est: EstimationConfig, s_known: np.ndarray):
        self.est, self.s = est, checked_chips("s_known", s_known, est.frame)
        if not np.any(self.s):
            raise ValueError("s_known has zero energy, so no path is observable")
        self.dl, self.dk, self.mn = est.l_max, 2 * est.k_max, self.s.size
        # one stack of rows conj(s[q - d]), d <= dl, serves the table and the scans, and the
        # rows after it take each product's twiddled target, so a scan allocates no MB-sized
        # temporary.  One block also keeps glibc from handing a trial's memory back to the
        # system and faulting it in again: it trims a freed heap top only once that outgrows
        # twice the largest block it has unmapped, and a trial's peak is below twice this one
        # (at 128 x 32: a 3.3 MB block, a 3.9 MB peak)
        work = np.empty((self.dl + 2 + self.dk, self.mn), dtype=complex)
        self.rows = shifted_conj_rows(self.s, work[:self.dl + 1])
        self.rows.flags.writeable = False
        self._scratch = work[self.dl + 1:]  # 2 k_max + 1 rows: the widest twiddle block
        # one twiddle matrix, k in [-dk, dk], holds the window's k and the table's kappa
        twiddles = doppler_twiddles(est.frame.M, est.frame.N, -self.dk, self.dk + 1)
        self._scan_twiddles = twiddles[self.dk - est.k_max:self.dk + est.k_max + 1]
        self._scan_order = est.cell_lk[1][:2 * est.k_max + 1] + est.k_max  # ascending k to cells
        # C(d, kappa) for |d| <= dl, |kappa| <= dk; the product for d >= 0 only, as u_a^H u_b =
        # conj(u_b^H u_a) gives C(-d, -kappa) = e^{j2pi kappa d / MN} conj(C(d, kappa)).  kappa < 0
        # and kappa >= 0 go in as two blocks, each no wider than the window, so each twiddled
        # target fits the scans' scratch rows
        half = path_correlations(self.rows, self.s, [twiddles[:self.dk], twiddles[self.dk:]],
                                 self._scratch)
        mirror = np.conj(twiddles[:, :self.dl + 1].T * half)
        self.table = np.vstack([mirror[:0:-1, ::-1], half])
        self.table.flags.writeable = False  # shared by every estimate from this frame
        # the columns' phases e^{j2pi k d / MN} = conj(W[k, d mod MN]), |k| <= k_max, |d| <= dl
        self._phases = np.conj(self._scan_twiddles[:, np.arange(-self.dl, self.dl + 1) % self.mn])

    def scan(self, t_c: np.ndarray) -> np.ndarray:
        """u_{l,k}^H t for every window cell, flat in cell order."""
        scans = path_correlations(self.rows, t_c, [self._scan_twiddles], self._scratch)
        return scans[:, self._scan_order].ravel()

    def _columns(self, idx) -> np.ndarray:
        """(len(idx), n_cells) scans of the unit path responses u_c of the cells at flat window
        indices idx, in two gathers from the table:
        u_{l,k}^H u_c = e^{j2pi k_c (l - l_c) / MN} C(l - l_c, k - k_c)."""
        l, k = self.est.cell_lk
        lc, kc = l[idx][:, None], k[idx][:, None]
        return (self._phases[kc + self.est.k_max, l - lc + self.dl]
                * self.table[l - lc + self.dl, k - kc + self.dk])

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram u_p^H u_q of every pair of window cells, for :func:`mle_exhaustive`."""
        gram = self._columns(np.arange(len(self.est.cells))).T
        gram.flags.writeable = False
        return gram


def _observed(y, frame: FrameConfig):
    """Checked chips of y and ||y||^2."""
    y = checked_chips("y", y, frame)
    return y, float(np.vdot(y, y).real)


def estimate_channel(y: np.ndarray, sounding: Sounding) -> EstimationResult:
    """Alternating integer-grid search for P paths from the sounding's sensing frame."""
    est = sounding.est
    y, yy = _observed(y, est.frame)
    scan_y = sounding.scan(y)
    P = est.p_assumed
    others = [[q for q in range(P) if q != p] for p in range(P)]

    def fit():
        """Gains of the placed paths, their flag and the joint residual ||y - sum_q g_q u_q||^2
        = ||y||^2 - 2 Re(g^H b) + g^H G g; G[p, q] = u_p^H u_q is column q at cell p."""
        G, b = cols[:len(cells), cells].T, scan_y[cells]
        gains, ill = solve_gains(G, b)
        return gains, ill, float(yy - 2 * np.vdot(gains, b).real + np.vdot(gains, G @ gains).real)

    cells: list = []  # flat window index of each placed path
    cols = np.empty((P, scan_y.size), dtype=complex)  # row p: the column of cells[p]
    gains = np.zeros(0, dtype=complex)
    ill = False

    # successive extraction: place each path at the peak of the matched filter
    # applied to the residual of the paths placed so far
    for p in range(P):
        amb = scan_y - gains @ cols[:p]
        cells.append(pick_peak(np.abs(amb) ** 2, cells))
        cols[p] = sounding._columns([cells[-1]])[0]
        gains, flag, residual = fit()
        ill = ill or flag

    trace = [yy - residual]
    iterations = 0
    converged = False
    maps = np.empty((P, scan_y.size))  # each path's |cancelled scan| of the latest pass

    for outer in range(MAX_ITERS):
        iterations = outer + 1
        prev_cells = list(cells)
        prev_gains = gains.copy()
        for p in range(P):
            amb = scan_y - gains[others[p]] @ cols[others[p]]
            maps[p] = np.abs(amb)
            cand = pick_peak(maps[p] ** 2, cells[:p] + cells[p + 1:])
            if cand == cells[p]:
                continue
            saved = (cells[p], gains, ill, cols[p].copy())
            cells[p] = cand
            cols[p] = sounding._columns([cand])[0]
            gains, flag, new_residual = fit()
            ill = ill or flag
            if new_residual <= residual + 1e-12 * max(1.0, residual):
                residual = new_residual
            else:  # safeguard: reject moves that worsen the joint residual
                cells[p], gains, ill, cols[p] = saved
        trace.append(yy - residual)
        # a moved path changes its l or k by a whole bin, more than EPSILON, so only a pass that
        # keeps every cell can converge; its change is then the gains' alone
        if cells == prev_cells and sum(abs(g - g0) for g, g0 in zip(gains, prev_gains)) <= EPSILON:
            converged = True
            break

    # confidence: each selected peak must exceed its map's median statistic, not tie it
    medians = np.median(maps, axis=1)
    low_conf = not np.all(maps[np.arange(P), cells] > LOW_CONF_FACTOR * medians)

    l, k = est.cell_lk
    return EstimationResult(channel=EffectiveChannel(est.frame, gains, l[cells], k[cells]),
                            iterations=iterations, objective_trace=trace,
                            converged=converged, low_confidence=low_conf,
                            ill_conditioned=ill)


def mle_exhaustive(y: np.ndarray, sounding: Sounding) -> EstimationResult:
    """Global integer-grid minimizer of the residual over all cell tuples."""
    est = sounding.est
    y, yy = _observed(y, est.frame)
    P, n_cells = est.p_assumed, len(est.cells)
    if est.hypotheses > MLE_MAX_HYPOTHESES:
        raise ValueError(
            f"exhaustive search refused: C({n_cells}, {P}) = {est.hypotheses} tuples "
            f"exceeds the cap of {MLE_MAX_HYPOTHESES}")
    gram, bvec = sounding.gram, sounding.scan(y)
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
    if best is None:
        raise ValueError(f"no tuple of {P} window cells has a solvable gain system")
    resid, idx, h = best
    l, k = est.cell_lk
    return EstimationResult(channel=EffectiveChannel(est.frame, h, l[idx], k[idx]),
                            iterations=1, objective_trace=[yy - resid])


def _cell_gains(eff: EffectiveChannel) -> dict:
    """Gain per (l, k) cell; a channel has one path per cell."""
    return dict(zip(zip(eff.l.tolist(), eff.k.tolist()), eff.gains))


def nmse(estimate: EffectiveChannel, truth: EffectiveChannel) -> float:
    """Channel reconstruction error in dB: 10*log10(||H_hat - H||_F^2 / ||H||_F^2).

    Both norms are taken over integer cells (the common factor MN
    cancels), so both channels must be on one M x N grid.  Perfect
    reconstruction is floored at -100 dB.
    """
    e, t = estimate.config, truth.config
    if (e.M, e.N) != (t.M, t.N):
        raise ValueError(f"estimate on the {e.M}x{e.N} grid, truth on the {t.M}x{t.N}")
    est, true = _cell_gains(estimate), _cell_gains(truth)
    denom = sum(abs(h) ** 2 for h in true.values())
    if denom == 0.0:
        raise ValueError("true channel has zero norm")
    num = sum(abs(est.get(c, 0j) - true.get(c, 0j)) ** 2 for c in sorted(est.keys() | true.keys()))
    ratio = num / denom
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))
