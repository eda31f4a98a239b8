import importlib.machinery

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from oddmsim import detector
from oddmsim.channel import (channel_from_cells, gen_eva_channel, gen_synthetic_channel,
                             snr_to_noise_var)
from oddmsim.core import QAM4, FrameConfig, chips_to_dd, dd_to_chips, qam_map, random_frame
from oddmsim.detector import VAR_FLOOR, LinearStage, lmmse_detect, oamp_detect, oamp_nle
from oddmsim.effchan import EffectiveChannel
from oddmsim.estimator import EstimationConfig, Sounding, estimate_channel

from oracles import (count_bit_errors, dense_channel, dense_le, gram_band, qpsk_awgn_ber,
                     softmax_nle)


def cfg_small():
    return FrameConfig(M=8, N=4)


def identity_channel(cfg):
    return channel_from_cells(cfg, [(0, 0)], [1.0])


def noisy_observation(H, s, snr_db, seed):
    rng = np.random.default_rng(seed)
    nv = snr_to_noise_var(snr_db)
    n = s.size
    y = H.apply(s) + np.sqrt(nv / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return y, nv


class TestOampLE:
    def test_identity_channel_algebra(self):
        cfg = cfg_small()
        H = identity_channel(cfg)
        rng = np.random.default_rng(0)
        _, s = random_frame(cfg, rng)
        y, nv = noisy_observation(H, s, 13.0, 1)
        r, v_le, _ = LinearStage(H).step(np.zeros_like(s), dd_to_chips(y, cfg), 1.0, nv)
        assert np.allclose(r, y, atol=1e-12)
        assert v_le == pytest.approx(nv, rel=1e-9)

    def test_unitary_single_path_reduction(self):
        # a phase-permutation channel is unitary: LE reduces to the identity
        # case applied to the back-rotated observation
        cfg = cfg_small()
        H = channel_from_cells(cfg, [(3, 1)], [1.0])
        rng = np.random.default_rng(2)
        _, s = random_frame(cfg, rng)
        y, nv = noisy_observation(H, s, 10.0, 3)
        r, v_le, _ = LinearStage(H).step(np.zeros_like(s), dd_to_chips(y, cfg), 1.0, nv)
        assert np.allclose(r, chips_to_dd(H.apply_adjoint_chips(dd_to_chips(y, cfg)), cfg),
                           atol=1e-10)
        assert v_le == pytest.approx(nv, rel=1e-9)


def cfg16():
    return FrameConfig(M=16, N=8)


def estimated_eva_channel():
    """Estimated EVA channel (350 km/h, 64 x 16), as the estimated-CSI link detects with."""
    cfg = FrameConfig(M=64, N=16)
    rng = np.random.default_rng(5)
    chan = gen_eva_channel(cfg, 350.0, 5e9, 15e3, rng)
    _, s = random_frame(cfg, rng)
    y, _ = noisy_observation(chan, s, 20.0, 6)
    window = EstimationConfig(frame=cfg, p_assumed=9, l_max=3, k_max=3)
    est = estimate_channel(y, Sounding(window, s))
    return est.channel


def ragged_channel():
    """MN = 105 chips in blocks of the half-band 6: the last block holds 3 chips."""
    cfg = FrameConfig(M=15, N=7)
    H = channel_from_cells(cfg, [(1, 0), (4, -1), (2, 1)], [0.7, -0.4j, 0.3 + 0.1j])
    assert LinearStage(H).ab.shape[0] - 1 == 6
    return H


def wide_band_channel():
    """Paths at delays 0 and 20 on 48 x 8: a half-band of 32 or more, where LAPACK's band
    Cholesky runs in 32-column blocks; MN = 384 keeps the dense oracle cheap."""
    cfg = FrameConfig(M=48, N=8)
    H = channel_from_cells(cfg, [(0, 1), (20, -2)], [0.8 + 0.1j, -0.5j])
    assert LinearStage(H).ab.shape[0] - 1 >= 32
    return H


STAGE_CHANNELS = {
    "identity": lambda: identity_channel(cfg16()),
    "wrap-path": lambda: channel_from_cells(cfg16(), [(15, 1)], [0.8 - 0.3j]),
    "equal-delays": lambda: channel_from_cells(
        cfg16(), [(3, -2), (3, 0), (3, 1)], [0.6, -0.5j, 0.3 + 0.2j]),
    "eva-estimated": estimated_eva_channel,
    "ragged-blocks": ragged_channel,
    "wide-band": wide_band_channel,
    "no-paths": lambda: EffectiveChannel(cfg16(), [], [], []),
}


class TestLinearStage:
    @pytest.mark.parametrize("name", list(STAGE_CHANNELS))
    def test_gram_band_matches_pair_loop(self, name):
        # T's entries are summed in the pair loop's order, so its band is the same bit for bit;
        # the half-band is at least 1, so a single-delay channel keeps one more row, all zero
        H = STAGE_CHANNELS[name]()
        band, gram = LinearStage(H).ab[:, H.config.mn:], gram_band(H)
        assert np.array_equal(band[:len(gram)], gram) and not np.any(band[len(gram):])

    @pytest.mark.parametrize("name", list(STAGE_CHANNELS))
    def test_masked_block_entries_read_a_zero_cell(self, name):
        # every block entry above the diagonal or outside the band or the matrix reads band
        # row hw of the last column, past the matrix end: zero in the band and in each factor
        stage = LinearStage(STAGE_CHANNELS[name]())
        hw, size = stage.ab.shape[0] - 1, stage.ab.shape[1]
        cell = (hw + 1) * size - 1
        assert hw >= 1 and np.any(stage._corners == cell)
        assert stage.ab.ravel(order="F")[cell] == 0
        for xi in (1e-6, 1e-2, 1.0, 10.0, 1e9):
            assert stage._pair(xi).ravel(order="F")[cell] == 0

    def test_shift_below_minus_norm_is_not_positive_definite(self):
        # T = I, so T + xi I is negative definite at xi = -2
        stage = LinearStage(identity_channel(cfg16()))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite at xi = -2.0"):
            stage.eps_phi(-2.0)

    @pytest.mark.parametrize("name", list(STAGE_CHANNELS))
    def test_matches_dense_oracle(self, name):
        H = STAGE_CHANNELS[name]()
        Hd = dense_channel(H)
        stage = LinearStage(H)
        rng = np.random.default_rng(30)
        r = rng.standard_normal(H.config.mn) + 1j * rng.standard_normal(H.config.mn)
        xis = (1e-6, 1e-2, 1.0, 10.0)
        for xi, (x_ref, eps_ref) in zip(xis, dense_le(Hd, r, xis)):
            x, residual = stage.solve(dd_to_chips(r, H.config), xi)
            assert np.linalg.norm(chips_to_dd(x, H.config) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
            assert residual <= 1e-10
            assert stage.eps_phi(xi) == pytest.approx(eps_ref, rel=1e-10)

    @pytest.mark.parametrize("name", list(STAGE_CHANNELS))
    def test_eps_first_matches_dense_oracle(self, name):
        # the trace factor builds both factors of a new xi and the solve reuses
        # the forward one; 1e9 is past sigma^2 / v_nle^2 at the variance floor
        H = STAGE_CHANNELS[name]()
        Hd = dense_channel(H)
        stage = LinearStage(H)
        rng = np.random.default_rng(32)
        r = rng.standard_normal(H.config.mn) + 1j * rng.standard_normal(H.config.mn)
        xis = (1e-6, 1e-2, 1.0, 10.0, 1e9)
        for xi, (x_ref, eps_ref) in zip(xis, dense_le(Hd, r, xis)):
            assert stage.eps_phi(xi) == pytest.approx(eps_ref, rel=1e-10)
            x, residual = stage.solve(dd_to_chips(r, H.config), xi)
            assert np.linalg.norm(chips_to_dd(x, H.config) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
            assert residual <= 1e-10

    @settings(max_examples=40)
    @given(st.integers(3, 12), st.integers(2, 7), st.data())
    def test_any_channel_and_xi_match_dense_oracle(self, M, N, data):
        # random grids (odd MN among them) with 1-4 paths, so the half-band is any delay
        # spread and the last block of chips is often ragged; xi log-uniform over 15 decades
        cfg = FrameConfig(M=M, N=N)
        k_lo, k_hi = cfg.doppler_range
        cells = data.draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(k_lo, k_hi)),
                                   min_size=1, max_size=4, unique=True), label="cells")
        xis = data.draw(st.lists(st.floats(-6.0, 9.0).map(lambda e: 10.0 ** e),
                                 min_size=1, max_size=3), label="xi")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
        gains = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
        H = channel_from_cells(cfg, cells, gains)
        r = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
        stage = LinearStage(H)
        for xi, (x_ref, eps_ref) in zip(xis, dense_le(dense_channel(H), r, xis)):
            x = chips_to_dd(stage.solve(dd_to_chips(r, cfg), xi)[0], cfg)
            assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
            assert stage.eps_phi(xi) == pytest.approx(eps_ref, rel=1e-10)

    @pytest.mark.parametrize("name", list(STAGE_CHANNELS))
    def test_pair_never_couples_its_halves(self, name):
        # block 0's forward corner reads the factor of diag(J T J, T) across its seam
        # unmasked: each entry of a reversed-half column in a row of T's half is 0
        H = STAGE_CHANNELS[name]()
        stage = LinearStage(H)
        n = H.config.mn
        seam = np.arange(stage.ab.shape[0])[:, None] + np.arange(n) >= n
        for xi in (1e-6, 1e-2, 1.0, 1e9):
            assert np.all(stage._pair(xi)[:, :n][seam] == 0.0)

    def test_residual_is_measured(self):
        cfg = cfg16()
        rng = np.random.default_rng(31)
        H = gen_synthetic_channel(cfg, 4, rng, l_max=6, k_max=3)
        Hd = dense_channel(H)
        A = Hd @ Hd.conj().T + 0.1 * np.eye(cfg.mn)
        r = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
        stage = LinearStage(H)
        x, residual = stage.solve(np.zeros(cfg.mn, dtype=complex), 0.2)
        assert not np.any(x) and residual == 0.0  # rhs = 0 has no relative residual
        _, residual = stage.solve(dd_to_chips(r, cfg), 0.2)
        assert 0.0 < residual <= 1e-12
        # a corrupted band solves the wrong system; the returned residual is
        # the one the dense matrix gives for the vector it solved for.  Factors
        # are kept per xi, so T's half of the band, the one the solve reads, is
        # corrupted before xi = 0.1 is factored: with 1 added to T's diagonal
        # the solve returns x = H^H z for (H H^H + 1.1 I) z = r
        stage.ab[0, cfg.mn:] += 1.0
        x, residual = stage.solve(dd_to_chips(r, cfg), 0.1)
        z = np.linalg.solve(A + np.eye(cfg.mn), r)
        assert np.linalg.norm(chips_to_dd(x, cfg) - Hd.conj().T @ z) <= 1e-12 * np.linalg.norm(r)
        dense_residual = np.linalg.norm(A @ z - r) / np.linalg.norm(r)
        assert dense_residual > 0.1
        assert residual == pytest.approx(dense_residual, rel=1e-9)

    def test_each_detection_reports_only_its_own_residual(self):
        # (0, 0) and (1, 0) with gains (1, -1) make H singular, so the solve at
        # sigma^2 = 1e-14 leaves a large residual; a later detection on the
        # same stage at sigma^2 = 1e-2 reports the residual of its own solve
        cfg = cfg16()
        H = channel_from_cells(cfg, [(0, 0), (1, 0)], [1.0, -1.0])
        rng = np.random.default_rng(33)
        y = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
        stage = LinearStage(H)
        singular = lmmse_detect(y, stage, 1e-14)
        regular = lmmse_detect(y, stage, 1e-2)
        _, own = LinearStage(H).solve(dd_to_chips(y, cfg), 1e-2)
        assert singular.max_solve_residual > 1e-8
        assert regular.max_solve_residual == own <= 1e-12


class TestFactorCount:
    """One factor of the stage's band per new xi gives both halves of the twisted pair;
    the solve and eps at one xi share it."""

    @staticmethod
    def factored_bands(monkeypatch, stage):
        kinds = []
        handle = detector._lapack()
        factor = handle.zpbtrf

        def counting(ab, **kwargs):
            # the off-diagonal rows tell the stage's band from any other
            kinds.append("band" if np.array_equal(ab[1:], stage.ab[1:]) else "other")
            return factor(ab, **kwargs)

        # detector reads zpbtrf from its LAPACK handle at each factorization
        monkeypatch.setattr(handle, "zpbtrf", counting)
        return kinds

    @staticmethod
    def observed():
        rng = np.random.default_rng(40)
        H = gen_synthetic_channel(cfg16(), 4, rng, l_max=5, k_max=2)
        _, frame = random_frame(cfg16(), rng)
        y, nv = noisy_observation(H, frame, 10.0, 41)
        return H, y, nv

    def test_oamp_factors_once_per_xi(self, monkeypatch):
        H, y, nv = self.observed()
        stage = LinearStage(H)
        kinds = self.factored_bands(monkeypatch, stage)
        det = oamp_detect(y, stage, nv)
        v_nle = [1.0] + [v for _, v in det.variance_trace[:-1]]
        xis = [nv / max(v, VAR_FLOOR) for v in v_nle]
        assert len(set(xis)) == len(xis) > 3
        assert kinds == ["band"] * len(xis)
        # the factor of the last xi is kept: its trace factor factors nothing
        stage.eps_phi(xis[-1])
        assert len(kinds) == len(xis)

    def test_lmmse_factors_once_per_xi(self, monkeypatch):
        H, y, nv = self.observed()
        stage = LinearStage(H)
        kinds = self.factored_bands(monkeypatch, stage)
        for sigma_sq in (nv, 2 * nv):
            lmmse_detect(y, stage, sigma_sq)
        assert kinds == ["band", "band"]
        # the factor of the last xi is kept: the same noise level factors nothing
        lmmse_detect(y, stage, 2 * nv)
        assert kinds == ["band", "band"]


class TestLapackHandle:
    """The band routines come from scipy's compiled LAPACK module, loaded without scipy.linalg."""

    def test_same_routines_as_scipy_linalg(self):
        # scipy.linalg.lapack re-exports these very objects, so every factor and solve is the
        # one scipy.linalg would give, bit for bit
        handle = detector._lapack()
        assert handle.zpbtrf is lapack.zpbtrf
        assert handle.zpbtrs is lapack.zpbtrs

    def test_missing_extension_fails_loudly(self, monkeypatch):
        stage = LinearStage(channel_from_cells(cfg_small(), [(1, 0)], [1.0]))
        detector._lapack.cache_clear()
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, name, path=None, target=None: None))
        with pytest.raises(ImportError, match=r"_flapack\.\* is not in .*linalg"):
            stage.solve(np.ones(stage.H.config.mn, dtype=complex), 0.1)


def assert_matches_softmax(r, v):
    """oamp_nle's five outputs against the softmax oracle's: within 1e-9 plus its rounding.

    The oracle's exponents |r - x|^2 / v round by about eps (|r| + 1)^2 / v each, which moves
    its posterior mean by that times the component's posterior variance.  The recentring
    carries both posteriors' spread through c = v / (v - v_post); where the two v_post lie on
    either side of the non-contracting threshold, rounding decides the flag, and nothing past
    the posterior is compared.
    """
    got, want = oamp_nle(r, v), softmax_nle(r, v, VAR_FLOOR)
    v = max(v, VAR_FLOOR)
    eps = np.finfo(float).eps
    slack = 3 * np.maximum(got[3], want[3]) * 4 * eps * (np.abs(r) + 1) ** 2 / v + 4 * eps
    assert np.all(np.abs(got[2] - want[2]) <= 1e-9 + slack)
    assert np.all(np.abs(got[3] - want[3]) <= 2 * slack)
    v_posts = [max(float(out[3].mean()), VAR_FLOOR) for out in (got, want)]
    dv = abs(v_posts[0] - v_posts[1])
    assert dv <= 2 * slack.mean()
    if (v_posts[0] >= v * (1 - 1e-12)) != (v_posts[1] >= v * (1 - 1e-12)):
        return
    assert got[4] == want[4]
    if got[4]:
        assert np.all(got[0] == got[2]) and got[1] == v_posts[0]
        return
    c_got, c_want = (v / (v - v_post) for v_post in v_posts)
    tol = (max(c_got, c_want) * (1e-9 + slack)
           + c_got * c_want * dv * (1 + np.abs(r)) / v)
    assert np.all(np.abs(got[0] - want[0]) <= tol)
    # 1 / (1 / v_post - 1 / v) loses about log2(c) bits to its difference
    assert abs(got[1] - want[1]) <= c_got * c_want * dv + 4 * eps * c_want * want[1]


class TestOampNLE:
    @settings(max_examples=300)
    @given(st.lists(st.complex_numbers(max_magnitude=30.0, allow_nan=False)
                    | st.sampled_from([0j, *QAM4.points]), min_size=1, max_size=16),
           st.floats(-10.0, 3.0).map(lambda e: 10.0 ** e))
    @example([0j], 0.5)  # non-contracting: the posterior variance 1 exceeds v
    @example([complex(p) for p in QAM4.points], 1e-10)
    @example([0j, 1e-6 + 30j, -3e-7 + 21j], 1e-6)
    def test_matches_softmax_oracle(self, r, v):
        # |r| <= 30 and v over the whole range OAMP reaches, the points themselves and 0 among
        # the drawn inputs; inputs a v from a decision boundary but far from 0 are where the
        # softmax rounds most
        assert_matches_softmax(np.array(r, dtype=complex), v)

    def test_hard_decision_limit(self):
        rng = np.random.default_rng(6)
        sym = qam_map(rng.integers(0, 2, 400))
        r = sym + 0.05 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        _, _, post_mean, _, _ = oamp_nle(r, 1e-9)
        assert np.allclose(post_mean, sym, atol=1e-8)

    def test_on_point_posterior(self):
        r = QAM4.points.copy()
        _, _, post_mean, post_var, _ = oamp_nle(r, 1e-6)
        assert np.allclose(post_mean, QAM4.points, atol=1e-9)
        assert np.all(post_var <= 1e-6)

    def test_equidistant_point_symmetric(self):
        _, _, post_mean, _, _ = oamp_nle(np.array([0.0 + 0.0j]), 0.5)
        assert abs(post_mean[0]) <= 1e-12

    def test_divergence_free_error_correlation(self):
        # genie input: r = s + CN(0, v); output error must decorrelate from
        # the input error
        rng = np.random.default_rng(7)
        n = 20_000
        s_true = qam_map(rng.integers(0, 2, 2 * n))
        v = 0.2  # mid-SNR operating point
        e_in = np.sqrt(v / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        r = s_true + e_in
        s_next, _, _, _, _ = oamp_nle(r, v)
        e_out = s_next - s_true
        corr = abs(np.vdot(e_in, e_out)) / (np.linalg.norm(e_in) * np.linalg.norm(e_out))
        assert corr <= 0.05

    def test_variance_updates_positive(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        _, v_next, _, _, _ = oamp_nle(r, 0.3)
        assert v_next > 0


class TestOampDetect:
    def test_identity_channel_tracks_awgn_reference(self):
        cfg = FrameConfig(M=64, N=16)
        H = identity_channel(cfg)
        stage = LinearStage(H)
        snr_db = 7.0
        total_bits = 0
        errors = 0
        for seed in range(60):
            rng = np.random.default_rng(100 + seed)
            bits, s = random_frame(cfg, rng)
            y, nv = noisy_observation(H, s, snr_db, 10_000 + seed)
            det = oamp_detect(y, stage, nv)
            errors += count_bit_errors(bits, det.hard_bits)
            total_bits += bits.size
        assert total_bits >= 1e5
        ref = qpsk_awgn_ber(snr_db)
        ber = errors / total_bits
        assert ber <= 2.0 * ref
        assert ber >= 0.5 * ref

    def test_identity_channel_high_snr_error_free(self):
        cfg = FrameConfig(M=64, N=16)
        H = identity_channel(cfg)
        stage = LinearStage(H)
        errors = 0
        total = 0
        for seed in range(98):
            rng = np.random.default_rng(seed)
            bits, frame = random_frame(cfg, rng)
            y, nv = noisy_observation(H, frame, 20.0, 50_000 + seed)
            det = oamp_detect(y, stage, nv)
            errors += count_bit_errors(bits, det.hard_bits)
            total += bits.size
        assert total >= 1e5
        assert errors / total <= 2.0 * qpsk_awgn_ber(20.0) + 1e-12

    def test_large_grid_eva_error_free(self):
        # 256 x 64 chips: the linear stage costs about linear time in MN
        cfg = FrameConfig(M=256, N=64)
        rng = np.random.default_rng(0)
        H = gen_eva_channel(cfg, 350.0, 5e9, 15e3, rng)
        bits, frame = random_frame(cfg, rng)
        y, nv = noisy_observation(H, frame, 20.0, 1)
        det = oamp_detect(y, LinearStage(H), nv)
        assert count_bit_errors(bits, det.hard_bits) == 0
        assert det.max_solve_residual <= 1e-12

    def test_noiseless_single_path_zero_errors(self):
        cfg = cfg_small()
        H = channel_from_cells(cfg, [(2, 1)], [0.8 + 0.3j])
        rng = np.random.default_rng(11)
        bits, frame = random_frame(cfg, rng)
        det = oamp_detect(H.apply(frame), LinearStage(H), 1e-12)
        assert count_bit_errors(bits, det.hard_bits) == 0

    def test_fixed_point_at_truth(self):
        cfg = cfg_small()
        rng = np.random.default_rng(12)
        H = gen_synthetic_channel(cfg, 3, rng, l_max=4, k_max=1)
        _, s_true = random_frame(cfg, rng)
        y = H.apply(s_true)
        r, v_le, _ = LinearStage(H).step(s_true, dd_to_chips(y, cfg), 1e-6, 1e-14)
        assert np.allclose(r, s_true, atol=1e-10)
        _, _, post_mean, _, _ = oamp_nle(r, v_le)
        assert np.allclose(post_mean, s_true, atol=1e-9)

    def test_variance_trace_tracks_empirical(self):
        cfg = FrameConfig(M=32, N=8)
        rng = np.random.default_rng(13)
        H = gen_synthetic_channel(cfg, 4, rng, l_max=6, k_max=3)
        _, s_true = random_frame(cfg, rng)
        y, nv = noisy_observation(H, s_true, 10.0, 14)
        s_t = np.zeros_like(s_true)
        v_nle = 1.0
        stage = LinearStage(H)
        for _ in range(3):
            r, v_le, _ = stage.step(s_t, dd_to_chips(y, cfg), v_nle, nv)
            empirical = float(np.mean(np.abs(r - s_true) ** 2))
            assert 0.5 * empirical <= v_le <= 2.0 * empirical
            s_t, v_nle, _, _, _ = oamp_nle(r, v_le)

    def test_variance_trace_positive_and_recorded(self):
        cfg = cfg_small()
        H = identity_channel(cfg)
        rng = np.random.default_rng(15)
        _, frame = random_frame(cfg, rng)
        y, nv = noisy_observation(H, frame, 10.0, 16)
        det = oamp_detect(y, LinearStage(H), nv)
        assert det.iterations_used == len(det.variance_trace)
        for v_le, v_nle in det.variance_trace:
            assert v_le > 0 and v_nle > 0

    def test_iterations_stop_at_max_iters(self, monkeypatch):
        cfg = cfg16()
        H = gen_eva_channel(cfg, 350.0, 5e9, 15e3, 1)
        _, frame = random_frame(cfg, np.random.default_rng(15))
        y, nv = noisy_observation(H, frame, 10.0, 16)
        assert oamp_detect(y, LinearStage(H), nv).iterations_used > 2
        monkeypatch.setattr(detector, "MAX_ITERS", 2)
        det = oamp_detect(y, LinearStage(H), nv)
        assert det.iterations_used == len(det.variance_trace) == 2

    def test_deterministic(self):
        cfg = cfg_small()
        rng = np.random.default_rng(17)
        H = gen_synthetic_channel(cfg, 2, rng, l_max=4, k_max=1)
        _, frame = random_frame(cfg, rng)
        y, nv = noisy_observation(H, frame, 8.0, 18)
        stage = LinearStage(H)
        a = oamp_detect(y, stage, nv)
        b = oamp_detect(y.copy(), stage, nv)
        assert np.array_equal(a.soft_symbols, b.soft_symbols)
        assert a.variance_trace == b.variance_trace

    @pytest.mark.parametrize("detect", [oamp_detect, lmmse_detect])
    @pytest.mark.parametrize("y_fault, sigma_sq", [
        ("nan", 0.1), ("inf", 0.1), ("short", 0.1), ("long", 0.1),
        (None, 0.0), (None, -0.1), (None, np.nan), (None, np.inf),
        # these raised TypeError or numpy's ambiguous-truth error, or ran with sigma_sq 1.0
        (None, "0.1"), (None, None), (None, True), (None, np.array([0.1, 0.1]))])
    def test_rejects_bad_input(self, detect, y_fault, sigma_sq):
        cfg = cfg_small()
        H = identity_channel(cfg)
        y = np.ones(cfg.mn, dtype=complex)
        if y_fault == "nan":
            y[3] = np.nan
        elif y_fault == "inf":
            y[3] = np.inf
        elif y_fault == "short":
            y = y[:-1]
        elif y_fault == "long":
            y = np.ones(cfg.mn + 1, dtype=complex)
        with pytest.raises(ValueError, match=None if y_fault else "^sigma_sq "):
            detect(y, LinearStage(H), sigma_sq)

    @pytest.mark.parametrize("detect", [oamp_detect, lmmse_detect])
    @pytest.mark.parametrize("channel", [
        STAGE_CHANNELS["no-paths"], lambda: channel_from_cells(cfg16(), [(2, 1)], [0.0])],
        ids=["no-paths", "zero-gain"])
    def test_rejects_channel_without_signal(self, detect, channel):
        # H = 0 makes eps 0: OAMP divided by it, and LMMSE returned zeros
        H = channel()
        with pytest.raises(ValueError, match="no path with a nonzero gain"):
            detect(np.ones(H.config.mn, dtype=complex), LinearStage(H), 0.1)


class TestLmmse:
    def test_identity_channel_matched_filter(self):
        cfg = cfg_small()
        H = identity_channel(cfg)
        rng = np.random.default_rng(19)
        _, frame = random_frame(cfg, rng)
        y, nv = noisy_observation(H, frame, 10.0, 20)
        det = lmmse_detect(y, LinearStage(H), nv)
        assert np.allclose(det.soft_symbols, y / (1 + nv), atol=1e-12)

    def test_matches_first_le_iteration_up_to_normalizer(self):
        cfg = FrameConfig(M=16, N=8)
        rng = np.random.default_rng(21)
        H = gen_synthetic_channel(cfg, 3, rng, l_max=5, k_max=2)
        _, s = random_frame(cfg, rng)
        y, nv = noisy_observation(H, s, 9.0, 22)
        # t=0 LE from a zero prior with unit prior variance
        stage = LinearStage(H)
        r, _, _ = stage.step(np.zeros_like(s), dd_to_chips(y, cfg), 1.0, nv)
        lmmse = lmmse_detect(y, stage, nv).soft_symbols
        [(_, eps)] = dense_le(dense_channel(H), y, [nv])
        assert np.allclose(r * eps, lmmse, atol=1e-10)

    def test_oamp_not_worse_than_lmmse_small_mc(self):
        cfg = FrameConfig(M=32, N=8)
        for snr_db in (9.0, 15.0):
            e_oamp = e_lmmse = bits_total = 0
            for seed in range(25):
                rng = np.random.default_rng(1000 + seed)
                H = gen_synthetic_channel(cfg, 5, rng, l_max=6, k_max=3)
                bits, frame = random_frame(cfg, rng)
                y, nv = noisy_observation(H, frame, snr_db, 2000 + seed)
                stage = LinearStage(H)
                e_oamp += count_bit_errors(bits, oamp_detect(y, stage, nv).hard_bits)
                e_lmmse += count_bit_errors(bits, lmmse_detect(y, stage, nv).hard_bits)
                bits_total += bits.size
            assert e_oamp <= e_lmmse
