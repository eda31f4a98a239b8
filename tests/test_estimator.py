import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oddmsim.estimator as estimator
from oddmsim.channel import (channel_from_cells, gen_synthetic_channel, snr_to_noise_var,
                             synthetic_support)
from oddmsim.core import FrameConfig, chips_to_dd, dd_to_chips, random_frame
from oddmsim.effchan import EffectiveChannel
from oddmsim.estimator import (EstimationConfig, Sounding, estimate_channel, mle_exhaustive,
                               nmse, pick_peak, solve_gains)

from oracles import (brute_force_effective_matrix, dense_channel, estimate_channel_literal,
                     path_objective)


def cfg16():
    return FrameConfig(M=16, N=8)


def est_cfg(cfg, P, **kw):
    args = dict(frame=cfg, p_assumed=P, l_max=7, k_max=3)
    args.update(kw)
    return EstimationConfig(**args)


def responses(cfg, cells, s):
    """Oracle delay-Doppler responses H_{l,k} s of unit-gain paths, shape (P, MN)."""
    return np.stack([brute_force_effective_matrix([(1.0, l, k)], cfg.M, cfg.N) @ s
                     for l, k in cells])


def normal_equations(u, y):
    """Gram u_p^H u_q and right-hand side u_p^H y of responses u (P, MN)."""
    return u.conj() @ u.T, u.conj() @ y


def cells(chan):
    """The (l, k) cells of a channel's paths, in path order."""
    return list(zip(chan.l.tolist(), chan.k.tolist()))


def observe(cfg, chan, snr_db, seed=0, s_seed=1):
    """Known sensing frame through the grid-level model plus noise."""
    _, s = random_frame(cfg, np.random.default_rng(s_seed))
    y = chan.apply(s)
    if snr_db is not None:
        nv = snr_to_noise_var(snr_db)
        rng = np.random.default_rng(seed)
        y = y + np.sqrt(nv / 2) * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
    return s, y


class TestSolveGains:
    def test_scalar_case_matched_filter(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(4, 2)], [0.7 - 0.4j])
        s, y = observe(cfg, chan, None)
        u = responses(cfg, [(4, 2)], s)
        gains, flag = solve_gains(*normal_equations(u, y))
        expected = np.vdot(u[0], y) / np.vdot(s, s)
        assert not flag
        assert gains[0] == pytest.approx(expected)
        assert gains[0] == pytest.approx(0.7 - 0.4j, abs=1e-12)

    def test_planted_two_paths_noiseless(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(1, -2), (5, 3)], [0.8j, 0.5])
        s, y = observe(cfg, chan, None)
        gains, flag = solve_gains(*normal_equations(responses(cfg, cells(chan), s), y))
        assert not flag
        assert np.allclose(gains, chan.gains, atol=1e-10)

    def test_duplicate_hypotheses_flagged(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(2, 0)], [1.0])
        s, y = observe(cfg, chan, None)
        _, flag = solve_gains(*normal_equations(responses(cfg, [(2, 0)] * 2, s), y))
        assert flag

    @pytest.mark.parametrize("c, flag", [
        (np.nextafter(estimator.COND_LIMIT, 0.0), False),
        (estimator.COND_LIMIT, False),
        (np.nextafter(estimator.COND_LIMIT, np.inf), True),
        (np.inf, True),  # diag(1, 0): exactly singular
    ], ids=["below", "at", "above", "singular"])
    def test_flag_flips_at_the_limit(self, c, flag):
        # the condition number of diag(1, 1/c) is c to the last bit, and the gains are the
        # smallest-norm least-squares solution on either side of the limit
        G = np.diag([1.0, 1.0 / c]).astype(complex)
        b = np.array([0.3 - 0.2j, 0.5 + 0.1j])
        gains, ill = solve_gains(G, b)
        assert ill is flag
        assert np.array_equal(gains, np.linalg.lstsq(G, b, rcond=None)[0])

    @pytest.mark.parametrize("P, seed", [(1, 0), (2, 1), (4, 2), (8, 3)])
    def test_well_conditioned_gains_solve_the_equations(self, P, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((P, 64)) + 1j * rng.standard_normal((P, 64))
        G, b = normal_equations(u, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        gains, ill = solve_gains(G, b)
        assert not ill
        assert np.linalg.norm(G @ gains - b) <= 1e-12 * np.linalg.norm(b)


class TestPathObjective:
    def test_single_path_peak_at_planted_cell(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(5, -1)], [1.0])
        s, y = observe(cfg, chan, None)
        vals = {(l, k): path_objective(0, y, s, [(l, k)], np.array([0j]), cfg)
                for l in range(8) for k in range(-4, 4)}
        assert max(vals, key=vals.get) == (5, -1)

    def test_zero_observation(self):
        cfg = cfg16()
        s = random_frame(cfg, np.random.default_rng(0))[1]
        y = np.zeros(cfg.mn, dtype=complex)
        assert path_objective(0, y, s, [(3, 1)], np.array([0j]), cfg) == 0.0

    def test_orthogonal_geometry_interference_vanishes(self):
        # sparse sensing frame so the two paths' responses have disjoint
        # delay support: the cross-Gram is exactly zero
        cfg = cfg16()
        s = np.zeros(cfg.mn, dtype=complex)
        s[:cfg.N] = np.exp(2j * np.pi * np.arange(cfg.N) / cfg.N)  # delay bin 0 only
        chan = channel_from_cells(cfg, [(0, 0), (8, 0)], [1.0, 0.9])
        y = chan.apply(s)
        hyp = [(0, 0), (8, 0)]
        gains = np.array([1.0 + 0j, 0.9 + 0j])
        full = path_objective(0, y, s, hyp, gains, cfg)
        q_only = path_objective(0, y, s, [(0, 0)], np.array([0j]), cfg)
        assert full == pytest.approx(q_only, abs=1e-12)


class TestWindow:
    def test_pick_peak_matches_literal_loop(self):
        # literal reference: the smallest key (-metric, l, |k|, negative
        # first) over the unoccupied cells
        cfg = cfg16()
        ec = est_cfg(cfg, 2, l_max=6)
        rng = np.random.default_rng(9)
        for _ in range(200):
            metric = rng.integers(0, 3, len(ec.cells)).astype(float)  # many ties
            occupied = rng.choice(len(ec.cells), 3, replace=False)
            best_key = best = None
            for i, ((l, k), m) in enumerate(zip(ec.cells, metric)):
                if i in occupied:
                    continue
                key = (-m, l, abs(k), 0 if k < 0 else 1)
                if best_key is None or key < best_key:
                    best_key, best = key, (l, k)
            assert ec.cells[pick_peak(metric.copy(), occupied)] == best

    def test_scan_in_cell_order(self):
        cfg = cfg16()
        ec = est_cfg(cfg, 1)
        chan = channel_from_cells(cfg, [(5, -1)], [1.0])
        s, y = observe(cfg, chan, None)
        win = Sounding(ec, s)
        amb = win.scan(dd_to_chips(y, cfg))
        ref = np.array([np.vdot(u, y) for u in responses(cfg, ec.cells, s)])
        assert np.max(np.abs(amb - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_observation_picks_cells_in_tie_order(self):
        cfg = cfg16()
        s = random_frame(cfg, np.random.default_rng(0))[1]
        res = estimate_channel(np.zeros(cfg.mn), Sounding(est_cfg(cfg, 3), s))
        assert cells(res.channel) == [(0, 0), (0, -1), (0, 1)]
        assert res.low_confidence


@pytest.mark.parametrize("entry", ["estimate_channel", "mle_exhaustive"])
@pytest.mark.parametrize("fault, name", [(fault, name) for name in ("y", "s_known")
                                         for fault in ("nan", "inf", "short", "long", "grid")]
                         + [("zero", "s_known")])
def test_rejects_bad_input(entry, name, fault):
    # one shared check: non-finite or wrongly shaped y or s_known, or a sensing
    # frame without energy, raises, naming it
    cfg = FrameConfig(M=8, N=4)
    chan = channel_from_cells(cfg, [(3, 1)], [0.9])
    s, y = observe(cfg, chan, None)
    v = {"y": y, "s_known": s}[name].copy()
    if fault == "nan":
        v[2] = np.nan
    elif fault == "inf":
        v[2] = -np.inf
    elif fault == "short":
        v = v[:-1]
    elif fault == "long":
        v = np.concatenate([v, v[:1]])
    elif fault == "zero":
        v[:] = 0
    else:
        v = v.reshape(cfg.M, cfg.N)
    args = {"y": y, "s_known": s, name: v}
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_max=7, k_max=1)
    with pytest.raises(ValueError, match=f"^{name} "):
        {"estimate_channel": estimate_channel,
         "mle_exhaustive": mle_exhaustive}[entry](args["y"], Sounding(ec, args["s_known"]))


def test_more_paths_than_window_cells_rejected():
    cfg = FrameConfig(M=8, N=4)
    with pytest.raises(ValueError, match="p_assumed 4 exceeds the 3 cells"):
        EstimationConfig(frame=cfg, p_assumed=4, l_max=0, k_max=1)
    EstimationConfig(frame=cfg, p_assumed=3, l_max=0, k_max=1)


@pytest.mark.parametrize("field, value", [("p_assumed", 2.5), ("p_assumed", True),
                                          ("p_assumed", 0)])
def test_rejects_bad_counts(field, value):
    # 2.5 used to build and then fail with a TypeError inside the search; True ran as 1
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
        est_cfg(cfg16(), 1, **{field: value})


@pytest.mark.parametrize("field, value", [(field, value) for field in ("l_max", "k_max")
                                          for value in (8.5, 2.0, False, -1)]
                         + [("l_max", 16), ("k_max", 4)])
def test_rejects_bad_window_bounds(field, value):
    # one grid-fit rule for a window bound: the estimator's window and the synthetic channel's
    # support refuse a bound that is no integer, is negative or is one bin off the 16 x 8 grid,
    # with one message naming it
    bounds = {"l_max": 7, "k_max": 3, field: value}
    errors = []
    for build in (lambda: EstimationConfig(frame=cfg16(), p_assumed=1, **bounds),
                  lambda: synthetic_support(cfg16(), 1, **bounds)):
        with pytest.raises(ValueError, match=f"^{field} ") as exc:
            build()
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


class TestAmbiguityTable:
    """Scans, Gram entries and residuals gathered from the sensing frame's ambiguity
    table against the oracle path responses."""

    @staticmethod
    def draw(M, N):
        # the widest window, so cell differences span every delay and Doppler offset; the
        # far-edge delay wraps the delay axis and two paths have negative Doppler
        cfg = FrameConfig(M=M, N=N)
        k_max = cfg.doppler_range[1]
        ec = EstimationConfig(frame=cfg, p_assumed=3, l_max=M - 1, k_max=k_max)
        rng = np.random.default_rng(M * N)
        s = random_frame(cfg, rng)[1]
        hyp = [(M - 1, -k_max), (1, -1), (M // 2, k_max)]
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = channel_from_cells(cfg, hyp, gains).apply(s)
        y = y + 0.3 * (rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn))
        return cfg, ec, s, y, hyp

    @pytest.mark.parametrize("M, N", [(8, 4), (16, 8), (12, 5)])
    def test_cancelled_scans_match_literal_scans(self, M, N):
        cfg, ec, s, y, hyp = self.draw(M, N)
        win = Sounding(ec, s)
        u, window = responses(cfg, hyp, s), responses(cfg, ec.cells, s)
        h = np.array([0.7 - 0.2j, -0.4j, 1.1])
        cols = win._columns([ec.cells.index(c) for c in hyp])
        scan_y = win.scan(dd_to_chips(y, cfg))
        for p in range(len(hyp)):
            others = [q for q in range(len(hyp)) if q != p]
            got = scan_y - h[others] @ cols[others]
            ref = window.conj() @ (y - h[others] @ u[others])
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M, N", [(8, 4), (16, 8), (12, 5)])
    def test_gram_matches_oracle_responses(self, M, N):
        cfg, ec, s, _, _ = self.draw(M, N)
        win = Sounding(ec, s)
        u = responses(cfg, ec.cells, s)
        ref = u.conj() @ u.T
        got = win.gram
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M, N", [(8, 4), (16, 8), (12, 5)])
    def test_residual_matches_oracle_fit(self, M, N):
        # the trace holds ||y||^2 minus the residual gathered from the table
        cfg, ec, s, y, _ = self.draw(M, N)
        res = estimate_channel(y, Sounding(ec, s))
        r = y - dense_channel(res.channel) @ s
        yy = float(np.vdot(y, y).real)
        assert yy - res.objective_trace[-1] == pytest.approx(np.vdot(r, r).real, abs=1e-12 * yy)

    @pytest.mark.parametrize("n_paths, seed, P, iterations",
                             [(1, 50, 1, 1), (2, 8, 3, 2), (3, 11, 6, 1), (1, 50, 8, 3)])
    def test_two_scans_per_estimate(self, monkeypatch, n_paths, seed, P, iterations):
        # draws at 0 dB on which the search moves paths and runs 1 to 3 outer passes: the
        # sounding's table is one path_correlations product, and each estimate from it one
        # more
        calls = []
        literal = estimator.path_correlations
        monkeypatch.setattr(estimator, "path_correlations",
                            lambda *args: calls.append(args) or literal(*args))
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, n_paths, seed, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 0.0, seed=seed)
        sounding = Sounding(est_cfg(cfg, P), s)
        assert len(calls) == 1
        res = estimate_channel(y, sounding)
        assert res.iterations == iterations
        assert len(calls) == 2
        estimate_channel(2 * y, sounding)
        assert len(calls) == 3

    @pytest.mark.parametrize("n_paths, seed, P", [(1, 50, 1), (2, 8, 3), (3, 11, 6), (1, 50, 8)])
    def test_one_lstsq_per_fit(self, monkeypatch, n_paths, seed, P):
        # every gain fit of an estimate is one lstsq call, with no svd or solve beside it
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, n_paths, seed, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 0.0, seed=seed)
        sounding = Sounding(est_cfg(cfg, P), s)
        calls = {name: 0 for name in ("fit", "lstsq", "svd", "solve")}

        def counted(module, name, key):
            literal = getattr(module, name)

            def call(*args, **kwargs):
                calls[key] += 1
                return literal(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(estimator, "solve_gains", "fit")
        for name in ("lstsq", "svd", "solve"):
            counted(np.linalg, name, name)
        estimate_channel(y, sounding)
        assert calls["fit"] >= P
        assert calls == {"fit": calls["fit"], "lstsq": calls["fit"], "svd": 0, "solve": 0}

    def test_outer_passes_stop_at_max_iters(self, monkeypatch):
        # the last draw above converges on its third pass; capped at two passes it stops there
        monkeypatch.setattr(estimator, "MAX_ITERS", 2)
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 1, 50, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 0.0, seed=50)
        sounding = Sounding(est_cfg(cfg, 8), s)
        res = estimate_channel(y, sounding)
        assert (res.iterations, res.converged) == (2, False)
        assert TestSounding.same(res, estimate_channel_literal(y, sounding))


@st.composite
def search_windows(draw):
    """(M, N, l_max, k_max, seed) of a random small grid and any search window in it."""
    M, N = draw(st.integers(3, 10), label="M"), draw(st.integers(2, 6), label="N")
    l_max = draw(st.integers(0, M - 1), label="l_max")
    k_max = draw(st.integers(0, (N + 1) // 2 - 1), label="k_max")
    return M, N, l_max, k_max, draw(st.integers(0, 2 ** 31 - 1), label="seed")


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=25)
@given(search_windows())
# odd MN with a window that reaches the delay wrap and spans every Doppler bin, and a window
# of Doppler 0 alone
@example((5, 3, 4, 1, 7))
@example((7, 5, 6, 2, 3))
@example((9, 4, 5, 0, 11))
def test_sounding_matches_inner_products(window):
    # the scan, the ambiguity table and the columns of one sounding against explicit inner
    # products: u_{l,k}^H t with the oracle responses, and C(d, kappa) = u_{d,kappa}^H s with
    # u_{d,kappa} written out on chips, e^{j2pi kappa (q - d) / MN} s_c[(q - d) mod MN]
    M, N, l_max, k_max, seed = window
    cfg = FrameConfig(M=M, N=N)
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_max=l_max, k_max=k_max)
    rng = np.random.default_rng(seed)
    s = random_frame(cfg, rng)[1]
    t = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
    win = Sounding(ec, s)
    u = responses(cfg, ec.cells, s)
    assert_close(win.scan(dd_to_chips(t, cfg)), u.conj() @ t)
    picked = rng.permutation(len(win.est.cells))[:3]
    assert_close(win._columns(picked),  # u_i^H u_c
                 responses(cfg, [ec.cells[i] for i in picked], s) @ u.conj().T)
    s_c, q, mn = dd_to_chips(s, cfg), np.arange(cfg.mn), cfg.mn
    table = [[np.vdot(np.exp(2j * np.pi * kappa * (q - d) / mn) * s_c[(q - d) % mn], s_c)
              for kappa in range(-win.dk, win.dk + 1)] for d in range(-win.dl, win.dl + 1)]
    assert_close(win.table, np.array(table))


@st.composite
def single_paths(draw):
    """(M, N, l_max, k_max, cell, gain, seed): a window of :func:`search_windows` and one
    path on a cell of it."""
    M, N, l_max, k_max, seed = draw(search_windows())
    cell = (draw(st.integers(0, l_max), label="l"), draw(st.integers(-k_max, k_max), label="k"))
    gain = draw(st.complex_numbers(min_magnitude=0.01, max_magnitude=100.0), label="gain")
    return M, N, l_max, k_max, cell, gain, seed


@settings(max_examples=60)
@given(single_paths())
# odd MN, a window with the path on its last cell, and a one-cell window
@example((5, 3, 4, 1, (4, 1), 0.3 - 1.2j, 7))
@example((7, 5, 6, 2, (6, -2), 1.0, 3))
@example((3, 2, 0, 0, (0, 0), -2.0j, 0))
def test_noiseless_single_path_recovered_exactly(case):
    # y = H s without noise and one assumed path: the estimate is the path's own cell, and
    # its gain is the planted one to round-off
    M, N, l_max, k_max, cell, gain, seed = case
    cfg = FrameConfig(M=M, N=N)
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_max=l_max, k_max=k_max)
    s = random_frame(cfg, np.random.default_rng(seed))[1]
    y = channel_from_cells(cfg, [cell], [gain]).apply(s)
    res = estimate_channel(y, Sounding(ec, s))
    assert cells(res.channel) == [cell]
    assert abs(res.channel.gains[0] - gain) <= 1e-9 * abs(gain)


class TestSounding:
    @staticmethod
    def same(a, b):
        return (cells(a.channel) == cells(b.channel)
                and np.array_equal(a.channel.gains, b.channel.gains)
                and (a.iterations, a.objective_trace) == (b.iterations, b.objective_trace)
                and (a.converged, a.low_confidence, a.ill_conditioned)
                == (b.converged, b.low_confidence, b.ill_conditioned))

    @pytest.mark.parametrize("entry", [estimate_channel, mle_exhaustive],
                             ids=["estimate_channel", "mle_exhaustive"])
    def test_shared_sounding_equals_fresh_soundings(self, entry):
        # three observations of one sensing frame, as the points of one trial see it
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 41, l_max=7, k_max=3)
        ec = est_cfg(cfg, 2)
        obs = [observe(cfg, chan, snr, seed=i) for i, snr in enumerate((0.0, 10.0, 20.0))]
        s = obs[0][0]
        shared = Sounding(ec, s)
        names = []
        for _, y in obs:
            assert self.same(entry(y, shared), entry(y, Sounding(ec, s)))
            names.append(sorted(vars(shared)))
        assert names[0] == names[-1]  # an estimate leaves no state of its own on the sounding

    def test_shared_arrays_are_read_only(self):
        cfg = cfg16()
        s = random_frame(cfg, np.random.default_rng(0))[1]
        sounding = Sounding(est_cfg(cfg, 2), s)
        for array in (sounding.table, sounding.gram):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0


class TestLiteralSearch:
    """estimate_channel against the literal loop of tests/oracles.py: the same cells, gains
    (bit for bit), trace and flags."""

    same = staticmethod(TestSounding.same)

    @pytest.mark.parametrize("n_paths, seed, P", [(1, 50, 1), (2, 8, 3), (3, 11, 6), (1, 50, 8)])
    def test_searches_that_move_paths(self, n_paths, seed, P):
        # the draws of test_two_scans_per_estimate: 1 to 3 outer passes, with accepted moves
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, n_paths, seed, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 0.0, seed=seed)
        sounding = Sounding(est_cfg(cfg, P), s)
        assert self.same(estimate_channel(y, sounding), estimate_channel_literal(y, sounding))

    @pytest.mark.parametrize("n_paths, seed, P", [(2, 8, 3), (3, 11, 6), (1, 50, 8)])
    def test_rejected_moves(self, monkeypatch, n_paths, seed, P):
        # a move to the peak of its cancelled scan never raises the joint residual with exact
        # fits, so no draw reaches the rollback; halving every second fit makes one move
        # of each of these draws raise it, and both loops see the same fits in turn
        exact, calls = np.linalg.lstsq, []

        def damped(G, b, rcond):
            calls.append(None)
            x, *rest = exact(G, b, rcond=rcond)
            return (x if len(calls) % 2 else 0.5 * x), *rest

        monkeypatch.setattr(np.linalg, "lstsq", damped)
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, n_paths, seed, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 0.0, seed=seed)
        sounding = Sounding(est_cfg(cfg, P), s)
        res = estimate_channel(y, sounding)
        calls.clear()
        assert self.same(res, estimate_channel_literal(y, sounding))

    @pytest.mark.parametrize("l_max", [6, 7], ids=["odd-cells", "even-cells"])
    def test_confidence_against_the_median(self, l_max):
        # at -4 dB the weaker path's peak falls on either side of LOW_CONF_FACTOR times its
        # map's median, so the flag follows the exact median, of 49 cells (the middle one) or
        # of 56 (the mean of the middle two)
        cfg = cfg16()
        s = random_frame(cfg, np.random.default_rng(1))[1]
        sounding = Sounding(est_cfg(cfg, 2, l_max=l_max), s)
        clean = channel_from_cells(cfg, [(3, 1), (5, -2)], [1.0, 0.6j]).apply(s)
        scale = np.sqrt(snr_to_noise_var(-4.0) / 2)
        flags = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = clean + scale * (rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn))
            res = estimate_channel(y, sounding)
            assert self.same(res, estimate_channel_literal(y, sounding))
            flags.add(res.low_confidence)
        assert flags == {False, True}

    @pytest.mark.parametrize("observation", ["noise-only", "zero"])
    def test_observations_without_paths(self, observation):
        cfg = cfg16()
        rng = np.random.default_rng(8)
        s = random_frame(cfg, rng)[1]
        y = np.sqrt(0.5) * (rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn))
        if observation == "zero":
            y = np.zeros(cfg.mn, dtype=complex)
        sounding = Sounding(est_cfg(cfg, 3), s)
        res = estimate_channel(y, sounding)
        assert res.low_confidence
        assert self.same(res, estimate_channel_literal(y, sounding))

    def test_ill_conditioned_fit(self):
        # a one-chip sensing frame gives every path of one delay the same response, and three
        # paths in a window of two delays put two on one delay: a singular Gram, fitted by
        # least squares (a frame on Doppler bin 0 alone keeps this window's Gram at cond 8.7)
        cfg = cfg16()
        chip = np.zeros(cfg.mn, dtype=complex)
        chip[0] = 1.0
        s = chips_to_dd(chip, cfg)
        rng = np.random.default_rng(4)
        y = channel_from_cells(cfg, [(0, 1), (1, -1)], [0.9, 0.4j]).apply(s)
        y = y + 0.1 * (rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn))
        sounding = Sounding(est_cfg(cfg, 3, l_max=1, k_max=1), s)
        res = estimate_channel(y, sounding)
        assert res.ill_conditioned
        assert self.same(res, estimate_channel_literal(y, sounding))

    def test_estimates_sharing_a_sounding(self):
        # three points of one trial place different cells through one sounding, so a cached
        # column handed out for another cell, or changed by an estimate, shows in a later one
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 3, 41, l_max=7, k_max=3)
        obs = [observe(cfg, chan, snr_db, seed=i) for i, snr_db in enumerate((0.0, 10.0, 20.0))]
        shared = Sounding(est_cfg(cfg, 4), obs[0][0])
        for s, y in obs:
            assert self.same(estimate_channel(y, shared),
                             estimate_channel_literal(y, Sounding(est_cfg(cfg, 4), s)))


class TestEstimateChannel:
    def test_planted_p2_high_snr(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 3, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 30.0, seed=4)
        res = estimate_channel(y, Sounding(est_cfg(cfg, 2), s))
        assert sorted(cells(res.channel)) == cells(chan)
        true = dict(zip(cells(chan), chan.gains))
        for cell, h in zip(cells(res.channel), res.channel.gains):
            assert abs(h - true[cell]) <= 1e-2

    def test_single_path_noiseless_fast_convergence(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(6, 2)], [0.4 + 0.6j])
        s, y = observe(cfg, chan, None)
        res = estimate_channel(y, Sounding(est_cfg(cfg, 1), s))
        assert res.iterations <= 2
        assert res.converged
        assert cells(res.channel) == [(6, 2)]
        assert abs(res.channel.gains[0] - (0.4 + 0.6j)) < 1e-10

    def test_noise_only_flags_low_confidence(self):
        cfg = cfg16()
        rng = np.random.default_rng(8)
        s = random_frame(cfg, rng)[1]
        y = np.sqrt(0.5) * (rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn))
        res = estimate_channel(y, Sounding(est_cfg(cfg, 1), s))
        assert res.low_confidence

    def test_objective_trace_nondecreasing(self):
        cfg = cfg16()
        for seed in range(8):
            chan = gen_synthetic_channel(cfg, 3, seed, l_max=7, k_max=3)
            s, y = observe(cfg, chan, 5.0, seed=seed)
            res = estimate_channel(y, Sounding(est_cfg(cfg, 3), s))
            tr = res.objective_trace
            assert all(a <= b + 1e-9 * max(1, abs(a)) for a, b in zip(tr, tr[1:]))

    def test_argmax_invariant_to_positive_scaling(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 12, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 10.0, seed=12)
        a = estimate_channel(y, Sounding(est_cfg(cfg, 2), s))
        b = estimate_channel(3.7 * y, Sounding(est_cfg(cfg, 2), s))
        assert cells(a.channel) == cells(b.channel)

    def test_deterministic(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 21, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 10.0, seed=21)
        a = estimate_channel(y, Sounding(est_cfg(cfg, 2), s))
        b = estimate_channel(y.copy(), Sounding(est_cfg(cfg, 2), s.copy()))
        assert cells(a.channel) == cells(b.channel)
        assert np.array_equal(a.channel.gains, b.channel.gains)
        assert a.objective_trace == b.objective_trace


class TestMleExhaustive:
    def test_p1_equals_objective_scan(self):
        cfg = FrameConfig(M=8, N=4)
        chan = channel_from_cells(cfg, [(3, 1)], [0.9])
        s, y = observe(cfg, chan, 20.0, seed=2)
        ec = EstimationConfig(frame=cfg, p_assumed=1, l_max=7, k_max=1)
        res = mle_exhaustive(y, Sounding(ec, s))
        vals = {(l, k): path_objective(0, y, s, [(l, k)], np.array([0j]), cfg)
                for l in range(8) for k in range(-1, 2)}
        assert cells(res.channel)[0] == max(vals, key=vals.get)

    def test_zero_residual_at_planted_tuple(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(2, -1), (5, 0)], [0.9, 0.3j])
        s, y = observe(cfg, chan, None)
        ec = est_cfg(cfg, 2)
        res = mle_exhaustive(y, Sounding(ec, s))
        assert sorted(cells(res.channel)) == [(2, -1), (5, 0)]
        yy = float(np.vdot(y, y).real)
        assert res.objective_trace[0] == pytest.approx(yy, rel=1e-12)

    def test_search_cap_enforced(self, monkeypatch):
        cfg = cfg16()
        monkeypatch.setattr(estimator, "MLE_MAX_HYPOTHESES", 100)
        ec = est_cfg(cfg, 3)
        s, y = observe(cfg, channel_from_cells(cfg, [(0, 0)], [1.0]), None)
        with pytest.raises(ValueError, match="tuples"):
            mle_exhaustive(y, Sounding(ec, s))

    def test_no_solvable_tuple_raises(self):
        # a one-chip sensing frame makes every path of one delay respond on the
        # same chip, so each tuple of two such cells has a singular Gram
        cfg = FrameConfig(M=8, N=4)
        chip = np.zeros(cfg.mn, dtype=complex)
        chip[0] = 1.0
        s = chips_to_dd(chip, cfg)
        ec = EstimationConfig(frame=cfg, p_assumed=2, l_max=0, k_max=1)
        with pytest.raises(ValueError, match="no tuple of 2 window cells"):
            mle_exhaustive(s, Sounding(ec, s))

    def test_oracle_dominance(self):
        cfg = cfg16()
        for seed in range(10):
            chan = gen_synthetic_channel(cfg, 2, 100 + seed, l_max=7, k_max=3)
            s, y = observe(cfg, chan, 0.0, seed=seed)
            ec = est_cfg(cfg, 2)
            fast = estimate_channel(y, Sounding(ec, s))
            full = mle_exhaustive(y, Sounding(ec, s))
            # trace stores ||y||^2 - residual, so dominance flips the inequality
            assert full.objective_trace[-1] >= fast.objective_trace[-1] - 1e-9


NMSE_CASES = {
    # (estimate cells, gains), (truth cells, gains)
    "disjoint": (([(1, 0), (2, 1)], [0.3, 0.2j]), ([(0, 0), (3, -1)], [1.0, 0.5 - 0.5j])),
    "shared": (([(0, 0), (2, 1)], [0.9, 0.1]), ([(0, 0), (2, 1), (5, -2)], [1.0, 0.3j, 0.2])),
    "duplicated": (([(2, 1), (2, 1), (4, 0)], [0.4, 0.5, -0.3j]),
                   ([(2, 1), (4, 0), (4, 0)], [1.0, -0.2j, -0.1j])),
}


class TestNmse:
    @pytest.mark.parametrize("case", list(NMSE_CASES))
    def test_matches_dense_frobenius_ratio(self, case):
        cfg = FrameConfig(M=8, N=4)
        for cells, gains in NMSE_CASES[case]:
            repeated = [cell for p, cell in enumerate(cells) if cell in cells[:p]]
            if repeated:  # one path per cell: refused, and channel_from_cells sums the gains
                with pytest.raises(ValueError, match=re.escape(f"cell (l, k) = {repeated[0]}")):
                    EffectiveChannel(cfg, gains, *zip(*cells))
        est, truth = (channel_from_cells(cfg, cells, gains) for cells, gains in NMSE_CASES[case])
        He, Ht = dense_channel(est), dense_channel(truth)
        ref = 10 * np.log10(np.linalg.norm(He - Ht) ** 2 / np.linalg.norm(Ht) ** 2)
        assert nmse(est, truth) == pytest.approx(ref, abs=1e-10)

    def test_perfect_estimate_floored(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(2, 1)], [1.0])
        assert nmse(chan, chan) == -100.0

    def test_zero_estimate_is_zero_db(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(2, 1)], [1.0])
        zero = channel_from_cells(cfg, [(2, 1)], [0.0])
        assert nmse(zero, chan) == pytest.approx(0.0, abs=1e-12)

    def test_ten_percent_gain_error(self):
        cfg = cfg16()
        truth = channel_from_cells(cfg, [(4, -2)], [1.0])
        est = channel_from_cells(cfg, [(4, -2)], [1.1])
        assert nmse(est, truth) == pytest.approx(20 * np.log10(0.1), abs=1e-9)

    def test_zero_truth_rejected(self):
        cfg = cfg16()
        truth = channel_from_cells(cfg, [(0, 0)], [0.0])
        est = channel_from_cells(cfg, [(0, 0)], [1.0])
        with pytest.raises(ValueError):
            nmse(est, truth)

    def test_different_grids_rejected(self):
        # one path on (2, 1) is the same cell key on both grids, but not the same channel
        truth = channel_from_cells(FrameConfig(M=64, N=16), [(2, 1)], [1.0])
        est = channel_from_cells(FrameConfig(M=32, N=8), [(2, 1)], [1.0])
        with pytest.raises(ValueError, match=r"estimate on the 32x8 grid, truth on the 64x16"):
            nmse(est, truth)
