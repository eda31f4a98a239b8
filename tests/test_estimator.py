import numpy as np
import pytest

from oddmsim.channel import channel_from_cells, gen_synthetic_channel, snr_to_noise_var
from oddmsim.core import make_frame_config, random_frame, vectorize
from oddmsim.effchan import EffectiveChannel, to_chips
from oddmsim.estimator import (EstimationConfig, EstimationResult, _Window, estimate_channel,
                               mle_exhaustive, nmse, refresh_gains, solve_gains)

from oracles import brute_force_effective_matrix, dense_channel, path_objective


def cfg16():
    return make_frame_config(M=16, N=8, delta_f=15e3, f_c=5e9, Q=3)


def est_cfg(cfg, P, **kw):
    args = dict(frame=cfg, p_assumed=P, l_range=(0, 8), k_range=(-4, 4))
    args.update(kw)
    return EstimationConfig(**args)


def responses(cfg, cells, s):
    """Oracle delay-Doppler responses H_{l,k} s of unit-gain paths, shape (P, MN)."""
    return np.stack([brute_force_effective_matrix([(1.0, l, k)], cfg.M, cfg.N) @ s
                     for l, k in cells])


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
        gains, flag = solve_gains(y, u)
        expected = np.vdot(u[0], y) / np.vdot(s, s)
        assert not flag
        assert gains[0] == pytest.approx(expected)
        assert gains[0] == pytest.approx(0.7 - 0.4j, abs=1e-12)

    def test_planted_two_paths_noiseless(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(1, -2), (5, 3)], [0.8j, 0.5])
        s, y = observe(cfg, chan, None)
        gains, flag = solve_gains(y, responses(cfg, cells(chan), s))
        assert not flag
        assert np.allclose(gains, chan.gains, atol=1e-10)

    def test_duplicate_hypotheses_flagged(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(2, 0)], [1.0])
        s, y = observe(cfg, chan, None)
        _, flag = solve_gains(y, responses(cfg, [(2, 0)] * 2, s))
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
        ec = est_cfg(cfg16(), 2, l_range=(2, 7), k_range=(-3, 4))
        win = _Window(ec)
        rng = np.random.default_rng(9)
        for _ in range(200):
            metric = rng.integers(0, 3, len(win.cells)).astype(float)  # many ties
            occupied = [win.cells[i] for i in rng.choice(len(win.cells), 3, replace=False)]
            best_key = best = None
            for (l, k), m in zip(ec.cells(), metric):
                if (l, k) in occupied:
                    continue
                key = (-m, l, abs(k), 0 if k < 0 else 1)
                if best_key is None or key < best_key:
                    best_key, best = key, (l, k)
            assert win.pick_peak(metric, occupied) == best

    def test_scan_in_cell_order(self):
        cfg = cfg16()
        ec = est_cfg(cfg, 1)
        chan = channel_from_cells(cfg, [(5, -1)], [1.0])
        s, y = observe(cfg, chan, None)
        win = _Window(ec)
        amb = win.scan(to_chips(s, cfg), to_chips(y, cfg))
        ref = np.array([np.vdot(u, y) for u in responses(cfg, ec.cells(), s)])
        assert np.max(np.abs(amb - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_observation_picks_cells_in_tie_order(self):
        cfg = cfg16()
        s = vectorize(random_frame(cfg, np.random.default_rng(0))[1])
        res = estimate_channel(np.zeros(cfg.mn), s, est_cfg(cfg, 3, l_range=(2, 5)))
        assert cells(res.channel) == [(2, 0), (2, -1), (2, 1)]


@pytest.mark.parametrize("entry", ["estimate_channel", "mle_exhaustive", "refresh_gains"])
@pytest.mark.parametrize("name", ["y", "s_known"])
@pytest.mark.parametrize("fault", ["nan", "inf", "short", "long", "grid"])
def test_rejects_bad_input(entry, name, fault):
    # one shared check: non-finite or wrongly shaped y or s_known raises, naming it
    cfg = make_frame_config(M=8, N=4, delta_f=15e3, f_c=5e9, Q=2)
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
    else:
        v = v.reshape(cfg.M, cfg.N)
    args = {"y": y, "s_known": s, name: v}
    ec = EstimationConfig(frame=cfg, p_assumed=1, l_range=(0, 8), k_range=(-2, 2))
    prior = EstimationResult(channel=chan, iterations=1, objective_trace=[0.0])
    with pytest.raises(ValueError, match=f"^{name} "):
        if entry == "refresh_gains":
            refresh_gains(args["y"], args["s_known"], prior)
        else:
            {"estimate_channel": estimate_channel,
             "mle_exhaustive": mle_exhaustive}[entry](args["y"], args["s_known"], ec)


class TestEstimateChannel:
    def test_planted_p2_high_snr(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 3, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 30.0, seed=4)
        res = estimate_channel(y, s, est_cfg(cfg, 2))
        assert sorted(cells(res.channel)) == cells(chan)
        true = dict(zip(cells(chan), chan.gains))
        for cell, h in zip(cells(res.channel), res.channel.gains):
            assert abs(h - true[cell]) <= 1e-2

    def test_single_path_noiseless_fast_convergence(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(6, 2)], [0.4 + 0.6j])
        s, y = observe(cfg, chan, None)
        res = estimate_channel(y, s, est_cfg(cfg, 1))
        assert res.iterations <= 2
        assert res.converged
        assert cells(res.channel) == [(6, 2)]
        assert abs(res.channel.gains[0] - (0.4 + 0.6j)) < 1e-10

    def test_noise_only_flags_low_confidence(self):
        cfg = cfg16()
        rng = np.random.default_rng(8)
        s = vectorize(random_frame(cfg, rng)[1])
        y = np.sqrt(0.5) * (rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn))
        res = estimate_channel(y, s, est_cfg(cfg, 1))
        assert res.low_confidence

    def test_objective_trace_nondecreasing(self):
        cfg = cfg16()
        for seed in range(8):
            chan = gen_synthetic_channel(cfg, 3, seed, l_max=7, k_max=3)
            s, y = observe(cfg, chan, 5.0, seed=seed)
            res = estimate_channel(y, s, est_cfg(cfg, 3))
            tr = res.objective_trace
            assert all(a <= b + 1e-9 * max(1, abs(a)) for a, b in zip(tr, tr[1:]))

    def test_argmax_invariant_to_positive_scaling(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 12, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 10.0, seed=12)
        a = estimate_channel(y, s, est_cfg(cfg, 2))
        b = estimate_channel(3.7 * y, s, est_cfg(cfg, 2))
        assert cells(a.channel) == cells(b.channel)

    def test_deterministic(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 21, l_max=7, k_max=3)
        s, y = observe(cfg, chan, 10.0, seed=21)
        a = estimate_channel(y, s, est_cfg(cfg, 2))
        b = estimate_channel(y.copy(), s.copy(), est_cfg(cfg, 2))
        assert cells(a.channel) == cells(b.channel)
        assert np.array_equal(a.channel.gains, b.channel.gains)
        assert a.objective_trace == b.objective_trace


class TestMleExhaustive:
    def test_p1_equals_objective_scan(self):
        cfg = make_frame_config(M=8, N=4, delta_f=15e3, f_c=5e9, Q=2)
        chan = channel_from_cells(cfg, [(3, 1)], [0.9])
        s, y = observe(cfg, chan, 20.0, seed=2)
        ec = EstimationConfig(frame=cfg, p_assumed=1, l_range=(0, 8), k_range=(-2, 2))
        res = mle_exhaustive(y, s, ec)
        vals = {(l, k): path_objective(0, y, s, [(l, k)], np.array([0j]), cfg)
                for l in range(8) for k in range(-2, 2)}
        assert cells(res.channel)[0] == max(vals, key=vals.get)

    def test_zero_residual_at_planted_tuple(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(2, -1), (5, 0)], [0.9, 0.3j])
        s, y = observe(cfg, chan, None)
        ec = est_cfg(cfg, 2)
        res = mle_exhaustive(y, s, ec)
        assert sorted(cells(res.channel)) == [(2, -1), (5, 0)]
        yy = float(np.vdot(y, y).real)
        assert res.objective_trace[0] == pytest.approx(yy, rel=1e-12)

    def test_search_cap_enforced(self):
        cfg = cfg16()
        ec = est_cfg(cfg, 3, mle_max_hypotheses=100)
        s, y = observe(cfg, channel_from_cells(cfg, [(0, 0)], [1.0]), None)
        with pytest.raises(ValueError, match="tuples"):
            mle_exhaustive(y, s, ec)

    def test_oracle_dominance(self):
        cfg = cfg16()
        for seed in range(10):
            chan = gen_synthetic_channel(cfg, 2, 100 + seed, l_max=7, k_max=3)
            s, y = observe(cfg, chan, 0.0, seed=seed)
            ec = est_cfg(cfg, 2)
            fast = estimate_channel(y, s, ec)
            full = mle_exhaustive(y, s, ec)
            # trace stores ||y||^2 - residual, so dominance flips the inequality
            assert full.objective_trace[-1] >= fast.objective_trace[-1] - 1e-9


class TestRefreshGains:
    def test_unchanged_channel_same_gains(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 31, l_max=7, k_max=3)
        s, y = observe(cfg, chan, None)
        prior = estimate_channel(y, s, est_cfg(cfg, 2))
        again = refresh_gains(y, s, prior)
        assert np.allclose(again.channel.gains, prior.channel.gains, atol=1e-10)

    def test_gain_scaling_is_linear(self):
        cfg = cfg16()
        chan = gen_synthetic_channel(cfg, 2, 32, l_max=7, k_max=3)
        s, y = observe(cfg, chan, None)
        prior = estimate_channel(y, s, est_cfg(cfg, 2))
        alpha = 1.7 - 0.3j
        scaled = refresh_gains(alpha * y, s, prior)
        assert np.allclose(scaled.channel.gains, alpha * prior.channel.gains, atol=1e-10)
        assert cells(scaled.channel) == cells(prior.channel)

    def test_single_path_noiseless(self):
        cfg = cfg16()
        chan = channel_from_cells(cfg, [(3, 2)], [0.5 - 0.5j])
        s, y = observe(cfg, chan, None)
        prior = estimate_channel(y, s, est_cfg(cfg, 1))
        res = refresh_gains(y, s, prior)
        assert res.channel.gains[0] == pytest.approx(0.5 - 0.5j, abs=1e-12)


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
        cfg = make_frame_config(M=8, N=4, delta_f=15e3, f_c=5e9, Q=2)
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
