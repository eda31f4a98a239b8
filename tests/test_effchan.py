import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmsim.channel import channel_from_cells, gen_synthetic_channel
from oddmsim.core import FrameConfig, random_frame, vectorize
from oddmsim.effchan import (EffectiveChannel, doppler_twiddles, from_chips, path_correlations,
                             shifted_conj_rows, to_chips)

from oracles import (brute_force_effective_matrix, build_block, cyclic_permutation,
                     dense_channel, phase_rotation)


def small_config(M=8, N=4):
    return FrameConfig(M=M, N=N, delta_f=15e3, Q=1)


def single_path(cfg, l, k, h=1.0):
    return EffectiveChannel(cfg, [h], [l], [k])


def apply_adjoint(eff, y):
    """H^H y = A^H H_t^H A y, through the chip maps."""
    return from_chips(eff.apply_adjoint_chips(to_chips(y, eff.config)), eff.config)


def materialize(eff, adjoint=False):
    """Dense matrix of eff.apply (or of H^H), column by column."""
    op = (lambda y: apply_adjoint(eff, y)) if adjoint else eff.apply
    return np.stack([op(e) for e in np.eye(eff.config.mn, dtype=complex)], axis=1)


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBuildingBlocks:
    def test_cyclic_shift_definition(self):
        C = cyclic_permutation(3)
        assert np.array_equal(C @ np.array([1.0, 2.0, 3.0]), [3.0, 1.0, 2.0])

    def test_cyclic_power_identity(self):
        C = cyclic_permutation(4)
        assert np.allclose(np.linalg.matrix_power(C, 4), np.eye(4))

    def test_cyclic_inverse_is_transpose(self):
        C = cyclic_permutation(5)
        assert np.allclose(C @ C.T, np.eye(5))

    def test_phase_rotation_small(self):
        assert np.allclose(phase_rotation(2), np.diag([1.0, -1.0]))
        assert np.allclose(phase_rotation(4), np.diag([1, -1j, -1, 1j]))

    def test_phase_rotation_unitary(self):
        D = phase_rotation(7)
        assert np.allclose(np.abs(np.diag(D)), 1.0)
        assert np.allclose(D @ D.conj().T, np.eye(7))


class TestBuildBlock:
    def test_doppler_free_gain_gives_identity(self):
        cfg = small_config()
        G = np.zeros((3, 4), dtype=complex)  # L1 = 1, L = 4
        G[1, 2] = 1.0  # k = 0, l = 2
        for m in range(cfg.M):
            assert np.allclose(build_block(G, 2, m, cfg), np.eye(cfg.N))

    def test_single_doppler_at_origin(self):
        cfg = small_config()
        G = np.zeros((3, 1), dtype=complex)
        G[2, 0] = 1.0  # k = +1, l = 0
        A = build_block(G, 0, 0, cfg)
        assert np.allclose(A, cyclic_permutation(cfg.N))

    def test_phase_accumulation(self):
        cfg = small_config(M=8, N=4)
        h = 0.7 - 0.2j
        G = np.zeros((3, 3), dtype=complex)
        G[2, 2] = h  # k = +1, l = 2
        A = build_block(G, 2, 5, cfg)
        expected = h * np.exp(2j * np.pi * 3 / 32) * cyclic_permutation(4)
        assert np.allclose(A, expected)

    def test_range_checks(self):
        cfg = small_config()
        G = np.zeros((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            build_block(G, 2, 0, cfg)
        with pytest.raises(ValueError):
            build_block(G, 0, cfg.M, cfg)


class TestAssembly:
    def test_identity_channel(self):
        cfg = small_config()
        chan = channel_from_cells(cfg, [(0, 0)], [1.0])
        H = materialize(chan)
        assert np.allclose(H, np.eye(cfg.mn), atol=1e-14)

    def test_pure_delay_wrap_blocks(self):
        # one-bin delay on a 2x2 grid: lower block diagonal is I, wrap is D.
        # The full config cannot express M=2 (pulse length bound), but the
        # channel only needs the grid shape and its Doppler bins, -1 and 0.
        from types import SimpleNamespace
        grid = SimpleNamespace(M=2, N=2, mn=4, doppler_range=(-1, 0))
        H = materialize(single_path(grid, 1, 0))
        D = phase_rotation(2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2:, :2] = np.eye(2)   # block row m=1, column m'=0
        expected[:2, 2:] = D           # wrap block
        assert np.allclose(H, expected)
        oracle = brute_force_effective_matrix([(1.0, 1, 0)], 2, 2)
        assert np.allclose(H, oracle, atol=1e-14)

    def test_matches_bruteforce_random_sweep(self):
        # apply and apply_adjoint against the literal per-cell oracle; the
        # sweep must include paths that wrap in delay and negative Doppler
        rng = np.random.default_rng(7)
        wrapped = negative = 0
        for trial in range(25):
            M = int(rng.integers(3, 9))
            N = int(rng.integers(2, 5))
            cfg = FrameConfig(M=M, N=N, delta_f=15e3,
                                    Q=max(1, (M - 1) // 2))
            P = int(rng.integers(1, 4))
            chan = gen_synthetic_channel(cfg, P, rng, l_max=M - 1, k_max=(N - 1) // 2)
            oracle = brute_force_effective_matrix(zip(chan.gains, chan.l, chan.k), M, N)
            tol = 1e-12 * max(1.0, np.abs(oracle).max())
            assert np.max(np.abs(materialize(chan) - oracle)) <= tol
            assert np.max(np.abs(materialize(chan, adjoint=True) - oracle.conj().T)) <= tol
            wrapped += np.count_nonzero(chan.l > 0)
            negative += np.count_nonzero(chan.k < 0)
        assert wrapped > 0 and negative > 0

    def test_decomposition_identity(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        eff = gen_synthetic_channel(cfg, 3, rng, l_max=5, k_max=1)
        total = sum(h * materialize(single_path(cfg, l, k))
                    for h, l, k in zip(eff.gains, eff.l, eff.k))
        assert np.max(np.abs(materialize(eff) - total)) <= 1e-12

    def test_nonzeros_per_row_at_most_P(self):
        cfg = small_config()
        chan = gen_synthetic_channel(cfg, 3, np.random.default_rng(11), l_max=5, k_max=1)
        H = materialize(chan)
        assert np.count_nonzero(np.abs(H) > 1e-12, axis=1).max() <= chan.P


class TestPathCoefficients:
    def test_origin_is_identity(self):
        cfg = small_config()
        assert np.allclose(materialize(single_path(cfg, 0, 0)), np.eye(cfg.mn), atol=1e-14)

    def test_delay_only_structure(self):
        cfg = small_config()
        dense = materialize(single_path(cfg, 3, 0))
        oracle = brute_force_effective_matrix([(1.0, 3, 0)], cfg.M, cfg.N)
        assert np.allclose(dense, oracle, atol=1e-14)
        # a phase permutation: one unit-modulus entry per row, the rest vanish
        big = np.abs(dense) > 1e-12
        assert np.allclose(np.abs(dense[big]), 1.0)
        assert np.count_nonzero(big) == cfg.mn

    def test_sum_matches_assemble(self):
        cfg = small_config()
        rng = np.random.default_rng(17)
        for _ in range(5):
            eff = gen_synthetic_channel(cfg, 3, rng, l_max=7, k_max=1)
            total = sum(h * brute_force_effective_matrix([(1.0, l, k)], cfg.M, cfg.N)
                        for h, l, k in zip(eff.gains, eff.l, eff.k))
            assert np.max(np.abs(materialize(eff) - total)) < 1e-12

    def test_phase_permutation_unitarity(self):
        cfg = small_config()
        for (l, k) in [(0, 0), (3, 1), (7, -2), (5, 1)]:
            Hd = materialize(single_path(cfg, l, k))
            assert np.allclose(Hd.conj().T @ Hd, np.eye(cfg.mn), atol=1e-12)
            big = np.abs(Hd) > 1e-12
            assert np.count_nonzero(big) == cfg.mn
            assert np.allclose(np.abs(Hd[big]), 1.0)

    def test_off_grid_rejected(self):
        cfg = small_config()
        for l, k in [(cfg.M, 0), (-1, 0), (0, cfg.N), (0, -(cfg.N // 2) - 1)]:
            with pytest.raises(ValueError):
                single_path(cfg, l, k)
        with pytest.raises(ValueError):
            EffectiveChannel(cfg, [1.0, 0.5], [0], [0])


class TestApply:
    def test_identity_apply(self):
        cfg = small_config()
        eff = channel_from_cells(cfg, [(0, 0)], [1.0])
        x = np.arange(cfg.mn, dtype=complex)
        assert np.allclose(eff.apply(x), x)

    def test_matches_dense_product(self):
        cfg = small_config()
        rng = np.random.default_rng(23)
        eff = gen_synthetic_channel(cfg, 3, rng, l_max=6, k_max=1)
        Hd = dense_channel(eff)
        x = random_vector(rng, cfg.mn)
        assert np.allclose(eff.apply(x), Hd @ x, atol=1e-12)
        assert np.allclose(apply_adjoint(eff, x), Hd.conj().T @ x, atol=1e-12)
        # the delay-Doppler products are the chip products between the maps
        assert np.allclose(to_chips(Hd @ x, cfg), eff.apply_chips(to_chips(x, cfg)), atol=1e-12)
        assert np.allclose(from_chips(to_chips(x, cfg), cfg), x, atol=1e-14)

    @settings(max_examples=40)
    @given(st.integers(3, 9), st.integers(2, 7), st.data())
    def test_chip_products_are_adjoint(self, M, N, data):
        # <H_t x, y> = <x, H_t^H y> on random grids (odd MN among them) with 1-4 paths
        cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=1)
        k_lo, k_hi = cfg.doppler_range
        cells = data.draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(k_lo, k_hi)),
                                   min_size=1, max_size=4, unique=True), label="cells")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
        eff = channel_from_cells(cfg, cells, random_vector(rng, len(cells)))
        x, y = random_vector(rng, cfg.mn), random_vector(rng, cfg.mn)
        forward = eff.apply_chips(x)
        gap = abs(np.vdot(y, forward) - np.vdot(eff.apply_adjoint_chips(y), x))
        assert gap <= 1e-12 * np.linalg.norm(forward) * np.linalg.norm(y)

    def test_dimension_mismatch(self):
        cfg = small_config()
        eff = channel_from_cells(cfg, [(0, 0)], [1.0])
        with pytest.raises(ValueError):
            eff.apply(np.zeros(5))
        with pytest.raises(ValueError):
            apply_adjoint(eff, np.zeros(cfg.mn + 1))


def per_cell_correlations(cfg, s, t, ds, ks):
    """Literal (H_{d,k} s)^H t with the oracle matrix, for every d in ds and k in ks."""
    return np.array([[np.vdot(brute_force_effective_matrix([(1.0, d, k)], cfg.M, cfg.N) @ s, t)
                      for k in ks] for d in ds])


def correlate(cfg, s, t, n, ks):
    """path_correlations of s against t for the shifts d < n and the consecutive bins ks, in
    the given twiddle blocks of consecutive bins."""
    return path_correlations(shifted_conj_rows(to_chips(s, cfg), n), to_chips(t, cfg),
                             [doppler_twiddles(cfg.M, cfg.N, b[0], b[-1] + 1) for b in ks])


class TestChipResponses:
    @pytest.mark.parametrize("M, N", [(8, 4), (16, 8), (12, 5)])
    def test_window_scan_matches_per_cell_oracle(self, M, N):
        # (H_{l,k} s)^H t for every delay, up to the far delay edge (wrap), and every signed
        # Doppler bin, in two twiddle blocks, against the literal per-cell product with the
        # oracle matrix
        cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=1)
        rng = np.random.default_rng(M * N)
        s = vectorize(random_frame(cfg, rng)[1])
        t = random_vector(rng, cfg.mn)
        ks = np.arange(-(N // 2), (N + 1) // 2)
        got = correlate(cfg, s, t, M, np.split(ks, [N // 2]))
        ref = per_cell_correlations(cfg, s, t, range(M), ks)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=30)
    @given(st.integers(3, 9), st.integers(2, 7), st.data())
    def test_any_shifts_and_blocks_match_per_cell_oracle(self, M, N, data):
        # random grids (odd MN among them), any number of shifts and any Doppler bins of
        # the grid, cut into blocks anywhere
        cfg = FrameConfig(M=M, N=N, delta_f=15e3, Q=1)
        n = data.draw(st.integers(1, M), label="shifts")
        k_lo = data.draw(st.integers(-(N // 2), (N + 1) // 2 - 1), label="k_lo")
        k_hi = data.draw(st.integers(k_lo + 1, (N + 1) // 2), label="k_hi")
        cut = data.draw(st.lists(st.booleans(), min_size=k_hi - k_lo - 1,
                                 max_size=k_hi - k_lo - 1), label="cut after bin")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
        s, t = random_vector(rng, cfg.mn), random_vector(rng, cfg.mn)
        ks = np.arange(k_lo, k_hi)
        got = correlate(cfg, s, t, n, np.split(ks, [i + 1 for i, c in enumerate(cut) if c]))
        ref = per_cell_correlations(cfg, s, t, range(n), ks)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_twiddles_are_shared_and_read_only(self):
        w = doppler_twiddles(8, 4, -2, 2)
        assert doppler_twiddles(8, 4, -2, 2) is w
        assert not w.flags.writeable
        k, q = np.arange(-2, 2)[:, None], np.arange(32)
        assert np.max(np.abs(w - np.exp(-2j * np.pi * k * q / 32))) <= 1e-14
