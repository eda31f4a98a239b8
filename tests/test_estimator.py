import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oddmsim.estimator as estimator
from oddmsim.channel import channel_from_cells, gen_synthetic_channel, snr_to_noise_var
from oddmsim.core import FrameConfig, random_frame, vectorize
from oddmsim.effchan import EffectiveChannel, from_chips, to_chips
from oddmsim.estimator import (EstimationConfig, Sounding, estimate_channel, mle_exhaustive,
                               nmse, solve_gains)

from oracles import brute_force_effective_matrix, dense_channel, path_objective


def cfg16():
    return FrameConfig(M=16, N=8, delta_f=15e3, Q=3)


def est_cfg(cfg, P, **kw):
    args = dict(frame=cfg, p_assumed=P, l_range=(0, 8), k_range=(-4, 4))
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
    _, frame = random_frame(cfg, np.random.default_rng(s_seed))
    s = vectorize(frame)
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
        s = vectorize(random_frame(cfg, np.random.default_rng(0))[1])
        y = np.zeros(cfg.mn, dtype=complex)
        assert path_objective(0, y, s, [(3, 1)], np.array([0j]), cfg) == 0.0

    def test_orthogonal_geometry_interference_vanishes(self):
        # sparse sensing frame so the two paths' responses have disjoint
        # delay support: the cross-Gram is exactly zero
        cfg = cfg16()
        S = np.zeros((cfg.M, cfg.N), dtype=complex)
        S[0, :] = np.exp(2j * np.pi * np.arange(cfg.N) / cfg.N)
        s = vectorize(S)
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
        ec = est_cfg(cfg, 2, l_range=(2, 7), k_range=(-3, 4))
        rng = np.random.default_rng(9)
        for _ in range(200):
            metric = rng.integers(0, 3, len(ec.cells)).astype(float)  # many ties
            occupied = [ec.cells[i] for i in rng.choice(len(ec.cells), 3, replace=False)]
            best_key = best = None
            for (l, k), m in zip(ec.cells, metric):
                if (l, k) in occupied:
                    continue
                key = (-m, l, abs(k), 0 if k < 0 else 1)
                if best_key is None or key < best_key:
                    best_key, best = key, (l, k)
            assert ec.pick_peak(metric, occupied) == best

    def test_scan_in_cell_order(self):
        cfg = cfg16()
        ec = est_cfg(cfg, 1)
        chan = channel_from_cells(cfg, [(5, -1)], [1.0])
        s, y = observe(cfg, chan, None)
        win = Sounding(ec, s)
        amb = win.scan(to_chips(y, cfg))
        ref = np.array([np.vdot(u, y) for u in responses(cfg, ec.cells, s)])
        assert np.max(np.abs(amb - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cells_outside_the_window_rejected(self):
        # columns used to wrap (7, 0) into the table's negative delays and return a row off by
        # 1.28 relative; pick_peak raised KeyError
        cfg = cfg16()
        win = Sounding(est_cfg(cfg, 1, l_range=(0, 5), k_range=(-2, 3)),
                       vectorize(random_frame(cfg, np.random.default_rng(0))[1]))
        for cell in [(7, 0), (2, 5), (-1, 0), (0, -3)]:
            with pytest.raises(ValueError, match=rf"cells \[{re.escape(str(cell))}\] outside"):
                win.columns([(0, 0), cell])
            with pytest.raises(ValueError, match="outside the search window"):
                win.est.pick_peak(np.ones(len(win.est.cells)), [cell])

    def test_zero_observation_picks_cells_in_tie_order(self):
        cfg = cfg16()
        s = vectorize(random_frame(cfg, np.random.default_rng(0))[1])
        res = estimate_channel(np.zeros(cfg.mn), Sounding(est_cfg(cfg, 3, l_range=(2, 5)), s))
        assert cells(res.channel) == [(2, 0), (2, -1), (2, 1)]


@pytest.mark.parametrize("entry", ["estimate_channel", "mle_exhaustive"])
@pytest.mark.parametrize("fault, name", [(fault, name) for name in ("y", "s_known")
                                         for fault in ("nan", "inf", "short", "long", "grid")]
                         + [("zero", "s_known")])
def test_rejects_bad_input(entry, name, fault):
    # one shared check: non-finite or wrongly shaped y or s_known, or a sensing
    # frame without energy, raises, naming it
    cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
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
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_range=(0, 8), k_range=(-2, 2))
    with pytest.raises(ValueError, match=f"^{name} "):
        {"estimate_channel": estimate_channel,
         "mle_exhaustive": mle_exhaustive}[entry](args["y"], Sounding(ec, args["s_known"]))


def test_more_paths_than_window_cells_rejected():
    cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
    with pytest.raises(ValueError, match="p_assumed 5 exceeds the 4 cells"):
        EstimationConfig(frame=cfg, p_assumed=5, l_range=(0, 2), k_range=(-1, 1))
    EstimationConfig(frame=cfg, p_assumed=4, l_range=(0, 2), k_range=(-1, 1))


@pytest.mark.parametrize("field, value", [("p_assumed", 2.5), ("p_assumed", True),
                                          ("p_assumed", 0)])
def test_rejects_bad_counts(field, value):
    # 2.5 used to build and then fail with a TypeError inside the search; True ran as 1
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
        est_cfg(cfg16(), 1, **{field: value})


@pytest.mark.parametrize("field, value", [("l_range", (0, 8.5)), ("k_range", (-2.0, 2)),
                                          ("l_range", (False, 4))])
def test_rejects_non_integer_windows(field, value):
    # (0, 8.5) used to build and then fail with a TypeError in cells()
    with pytest.raises(ValueError, match=f"^{field} bounds must be integers"):
        est_cfg(cfg16(), 1, **{field: value})


class TestAmbiguityTable:
    """Scans, Gram entries and residuals gathered from the sensing frame's ambiguity
    table against the oracle path responses."""

    @staticmethod
    def draw(M, N):
        # full window, so cell differences span every delay and Doppler offset; the
        # far-edge delay wraps the delay axis and two paths have negative Doppler
        cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=1)
        ec = EstimationConfig(frame=cfg, p_assumed=3, l_range=(0, M),
                              k_range=(-(N // 2), (N + 1) // 2))
        rng = np.random.default_rng(M * N)
        s = vectorize(random_frame(cfg, rng)[1])
        hyp = [(M - 1, -(N // 2)), (1, -1), (M // 2, (N - 1) // 2)]
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
        cols, scan_y = win.columns(hyp), win.scan(to_chips(y, cfg))
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
        got = win.columns(ec.cells).T
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
                             [(1, 50, 1, 1), (2, 8, 3, 2), (3, 11, 6, 2), (1, 50, 8, 3)])
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

    def test_outer_passes_stop_at_max_iters(self, monkeypatch):
        # the last draw above converges on its third pass; capped at two passes it stops there
        monkeypatch.setattr(estimator, "MAX_ITERS", 2)
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 1, 50, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 0.0, seed=50)
        res = estimate_channel(y, Sounding(est_cfg(cfg, 8), s))
        assert (res.iterations, res.converged) == (2, False)


@st.composite
def search_windows(draw):
    """(M, N, l_range, k_range, seed) of a random small grid and any search window in it."""
    M, N = draw(st.integers(3, 10), label="M"), draw(st.integers(2, 6), label="N")
    lo = draw(st.integers(0, M - 1), label="l_lo")
    hi = draw(st.integers(lo + 1, M), label="l_hi")
    klo = draw(st.integers(-(N // 2), (N + 1) // 2 - 1), label="k_lo")
    khi = draw(st.integers(klo + 1, (N + 1) // 2), label="k_hi")
    return M, N, (lo, hi), (klo, khi), draw(st.integers(0, 2 ** 31 - 1), label="seed")


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=25)
@given(search_windows())
# odd MN with a window that starts above 0, reaches the delay wrap and spans every Doppler bin
@example((5, 3, (2, 5), (-1, 2), 7))
@example((7, 5, (0, 7), (-2, 3), 3))
@example((9, 4, (3, 6), (0, 1), 11))
def test_sounding_matches_inner_products(window):
    # the scan, the ambiguity table and the columns of one sounding against explicit inner
    # products: u_{l,k}^H t with the oracle responses, and C(d, kappa) = u_{d,kappa}^H s with
    # u_{d,kappa} written out on chips, e^{j2pi kappa (q - d) / MN} s_c[(q - d) mod MN]
    M, N, l_range, k_range, seed = window
    cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=1)
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_range=l_range, k_range=k_range)
    rng = np.random.default_rng(seed)
    s = vectorize(random_frame(cfg, rng)[1])
    t = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
    win = Sounding(ec, s)
    u = responses(cfg, ec.cells, s)
    assert_close(win.scan(to_chips(t, cfg)), u.conj() @ t)
    picked = [ec.cells[i] for i in rng.permutation(len(win.est.cells))[:3]]
    assert_close(win.columns(picked), responses(cfg, picked, s) @ u.conj().T)  # u_i^H u_c
    s_c, q, mn = to_chips(s, cfg), np.arange(cfg.mn), cfg.mn
    table = [[np.vdot(np.exp(2j * np.pi * kappa * (q - d) / mn) * s_c[(q - d) % mn], s_c)
              for kappa in range(-win.dk, win.dk + 1)] for d in range(-win.dl, win.dl + 1)]
    assert_close(win.table, np.array(table))


@st.composite
def single_paths(draw):
    """(M, N, l_range, k_range, cell, gain, seed): a window of :func:`search_windows` and one
    path on a cell of it."""
    M, N, l_range, k_range, seed = draw(search_windows())
    cell = (draw(st.integers(l_range[0], l_range[1] - 1), label="l"),
            draw(st.integers(k_range[0], k_range[1] - 1), label="k"))
    gain = draw(st.complex_numbers(min_magnitude=0.01, max_magnitude=100.0), label="gain")
    return M, N, l_range, k_range, cell, gain, seed


@settings(max_examples=60)
@given(single_paths())
# odd MN, a window above delay 0 with the path on its last cell, and a one-cell window
@example((5, 3, (2, 5), (-1, 2), (4, 1), 0.3 - 1.2j, 7))
@example((7, 5, (0, 7), (-2, 3), (6, -2), 1.0, 3))
@example((3, 2, (1, 2), (0, 1), (1, 0), -2.0j, 0))
def test_noiseless_single_path_recovered_exactly(case):
    # y = H s without noise and one assumed path: the estimate is the path's own cell, and
    # its gain is the planted one to round-off
    M, N, l_range, k_range, cell, gain, seed = case
    cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=1)
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_range=l_range, k_range=k_range)
    s = vectorize(random_frame(cfg, np.random.default_rng(seed))[1])
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
        for _, y in obs:
            assert self.same(entry(y, shared), entry(y, Sounding(ec, s)))

    def test_shared_arrays_are_read_only(self):
        cfg = cfg16()
        s = vectorize(random_frame(cfg, np.random.default_rng(0))[1])
        sounding = Sounding(est_cfg(cfg, 2), s)
        for array in (sounding.table, sounding.gram):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0


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
        s = vectorize(random_frame(cfg, rng)[1])
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
        cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
        chan = channel_from_cells(cfg, [(3, 1)], [0.9])
        s, y = observe(cfg, chan, 20.0, seed=2)
        ec = EstimationConfig(frame=cfg, p_assumed=1, l_range=(0, 8), k_range=(-2, 2))
        res = mle_exhaustive(y, Sounding(ec, s))
        vals = {(l, k): path_objective(0, y, s, [(l, k)], np.array([0j]), cfg)
                for l in range(8) for k in range(-2, 2)}
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
        cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
        chip = np.zeros(cfg.mn, dtype=complex)
        chip[0] = 1.0
        s = from_chips(chip, cfg)
        ec = EstimationConfig(frame=cfg, p_assumed=2, l_range=(0, 1), k_range=(-1, 1))
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
        cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
        est, truth = (EffectiveChannel(cfg, gains, *zip(*cells))
                      for cells, gains in NMSE_CASES[case])
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
