import numpy as np
import pytest

from oddmsim.channel import channel_from_cells, gen_synthetic_channel
from oddmsim.core import make_frame_config
from oddmsim.effchan import (assemble_H, build_block, cyclic_permutation,
                             frobenius_distance_sq, path_coefficient_matrix,
                             phase_rotation)

from oracles import brute_force_effective_matrix


def small_config(M=8, N=4):
    return make_frame_config(M=M, N=N, delta_f=15e3, f_c=5e9, Q=1)


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
        H = assemble_H(chan, cfg).to_dense()
        assert np.allclose(H, np.eye(cfg.mn))

    def test_pure_delay_wrap_blocks(self):
        # one-bin delay on a 2x2 grid: lower block diagonal is I, wrap is D.
        # The full config cannot express M=2 (pulse length bound), but the
        # matrix construction only needs the grid shape.
        from types import SimpleNamespace
        grid = SimpleNamespace(M=2, N=2, mn=4)
        pc = path_coefficient_matrix(1, 0, grid)
        H = pc.to_dense()
        D = phase_rotation(2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2:, :2] = np.eye(2)   # block row m=1, column m'=0
        expected[:2, 2:] = D           # wrap block
        assert np.allclose(H, expected)
        oracle = brute_force_effective_matrix([(1.0, 1, 0)], 2, 2)
        assert np.allclose(H, oracle, atol=1e-14)

    def test_matches_bruteforce_random_sweep(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            M = int(rng.integers(3, 9))
            N = int(rng.integers(2, 5))
            cfg = make_frame_config(M=M, N=N, delta_f=15e3, f_c=5e9,
                                    Q=max(1, (M - 1) // 2))
            P = int(rng.integers(1, 4))
            chan = gen_synthetic_channel(cfg, P, rng, l_max=M - 1, k_max=(N - 1) // 2)
            dense = assemble_H(chan, cfg).to_dense()
            oracle = brute_force_effective_matrix(
                [(p.h, p.l, p.k) for p in chan.paths], M, N)
            assert np.max(np.abs(dense - oracle)) <= 1e-12 * max(1.0, np.abs(oracle).max())

    def test_decomposition_identity(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        chan = gen_synthetic_channel(cfg, 3, rng, l_max=5, k_max=1)
        eff = assemble_H(chan, cfg)
        total = sum(h * pc.to_dense() for h, pc in zip(eff.gains, eff.per_path))
        assert np.max(np.abs(eff.to_dense() - total)) <= 1e-12

    def test_nonzeros_per_row_at_most_P(self):
        cfg = small_config()
        chan = gen_synthetic_channel(cfg, 3, np.random.default_rng(11), l_max=5, k_max=1)
        eff = assemble_H(chan, cfg)
        rows, _, _ = eff.coo()
        assert np.bincount(rows).max() <= chan.P

    def test_g_matrix_nonzeros_equal_paths(self):
        cfg = small_config()
        chan = gen_synthetic_channel(cfg, 3, np.random.default_rng(5), l_max=5, k_max=1)
        G = chan.g_matrix()
        assert np.count_nonzero(G) == chan.P


class TestPathCoefficients:
    def test_origin_is_identity(self):
        cfg = small_config()
        pc = path_coefficient_matrix(0, 0, cfg)
        assert np.allclose(pc.to_dense(), np.eye(cfg.mn))

    def test_delay_only_structure(self):
        cfg = small_config()
        pc = path_coefficient_matrix(3, 0, cfg)
        dense = pc.to_dense()
        oracle = brute_force_effective_matrix([(1.0, 3, 0)], cfg.M, cfg.N)
        assert np.allclose(dense, oracle)
        # no intra-block rotation: all non-wrap entries are exactly 1
        assert np.allclose(np.abs(dense[dense != 0]), 1.0)

    def test_sum_matches_assemble(self):
        cfg = small_config()
        rng = np.random.default_rng(17)
        for _ in range(5):
            chan = gen_synthetic_channel(cfg, 3, rng, l_max=7, k_max=1)
            eff = assemble_H(chan, cfg)
            total = sum(p.h * path_coefficient_matrix(p.l, p.k, cfg).to_dense()
                        for p in chan.paths)
            assert np.max(np.abs(eff.to_dense() - total)) < 1e-12

    def test_phase_permutation_unitarity(self):
        cfg = small_config()
        for (l, k) in [(0, 0), (3, 1), (7, -2), (5, 1)]:
            pc = path_coefficient_matrix(l, k, cfg)
            Hd = pc.to_dense()
            assert np.allclose(Hd.conj().T @ Hd, np.eye(cfg.mn), atol=1e-12)
            assert np.count_nonzero(Hd) == cfg.mn
            assert np.allclose(np.abs(Hd[Hd != 0]), 1.0)

    def test_off_grid_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            path_coefficient_matrix(cfg.M, 0, cfg)
        with pytest.raises(ValueError):
            path_coefficient_matrix(0, cfg.N, cfg)


class TestApply:
    def test_identity_apply(self):
        cfg = small_config()
        eff = assemble_H(channel_from_cells(cfg, [(0, 0)], [1.0]), cfg)
        x = np.arange(cfg.mn, dtype=complex)
        assert np.allclose(eff.apply(x), x)

    def test_matches_dense_product(self):
        cfg = small_config()
        rng = np.random.default_rng(23)
        chan = gen_synthetic_channel(cfg, 3, rng, l_max=6, k_max=1)
        eff = assemble_H(chan, cfg)
        x = rng.standard_normal(cfg.mn) + 1j * rng.standard_normal(cfg.mn)
        assert np.allclose(eff.apply(x), eff.to_dense() @ x, atol=1e-12)
        assert np.allclose(eff.apply_adjoint(x), eff.to_dense().conj().T @ x, atol=1e-12)

    def test_dimension_mismatch(self):
        cfg = small_config()
        eff = assemble_H(channel_from_cells(cfg, [(0, 0)], [1.0]), cfg)
        with pytest.raises(ValueError):
            eff.apply(np.zeros(5))

    def test_frobenius_distance(self):
        cfg = small_config()
        a = assemble_H(channel_from_cells(cfg, [(0, 0), (2, 1)], [1.0, 0.5]), cfg)
        b = assemble_H(channel_from_cells(cfg, [(0, 0)], [1.0]), cfg)
        # difference is the (2, 1) path alone: MN entries of squared modulus 0.25
        assert frobenius_distance_sq(a, b) == pytest.approx(0.25 * cfg.mn)
