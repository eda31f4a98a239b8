import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmsim.core import (DDFrame, FrameConfig, delay_index, devectorize,
                          doppler_index, get_constellation, make_frame_config,
                          qam_demap, qam_map, vectorize)


def paper_scale_config(**kw):
    args = dict(M=512, N=32, delta_f=15e3, f_c=5e9, Q=20)
    args.update(kw)
    return make_frame_config(**args)


class TestFrameConfig:
    def test_paper_scale_resolutions(self):
        cfg = paper_scale_config()
        assert cfg.T == pytest.approx(1 / 15e3)

    def test_pulse_too_long_rejected(self):
        with pytest.raises(ValueError):
            make_frame_config(M=8, N=4, delta_f=15e3, f_c=5e9, Q=4)

    def test_small_valid(self):
        cfg = make_frame_config(M=8, N=4, delta_f=15e3, f_c=5e9, Q=2)
        assert cfg.mn == 32

    @pytest.mark.parametrize("bad", [
        dict(M=1), dict(N=1), dict(Q=0), dict(delta_f=-1.0), dict(f_c=0.0),
        dict(rolloff=1.5), dict(oversampling=0), dict(constellation="8psk"),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            paper_scale_config(**bad)


class TestConstellation:
    def test_unit_energy(self):
        const = get_constellation("4qam")
        assert abs(np.mean(np.abs(const.points) ** 2) - 1.0) < 1e-12

    def test_gray_neighbors_differ_in_one_bit(self):
        const = get_constellation("4qam")
        pts, labels = const.points, const.bit_labels
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i == j:
                    continue
                # nearest neighbors in 4-QAM are at distance sqrt(2)
                if abs(pts[i] - pts[j]) < 1.5:
                    assert np.sum(labels[i] != labels[j]) == 1

    def test_documented_gray_table(self):
        s = qam_map([0, 0])
        assert s[0] == pytest.approx((1 + 1j) / np.sqrt(2))
        assert qam_map([0, 1])[0] == pytest.approx((-1 + 1j) / np.sqrt(2))
        assert qam_map([1, 1])[0] == pytest.approx((-1 - 1j) / np.sqrt(2))
        assert qam_map([1, 0])[0] == pytest.approx((1 - 1j) / np.sqrt(2))

    def test_roundtrip_all_pairs(self):
        for b0 in (0, 1):
            for b1 in (0, 1):
                bits = np.array([b0, b1], dtype=np.uint8)
                assert np.array_equal(qam_demap(qam_map(bits)), bits)

    def test_empty(self):
        assert qam_map([]).size == 0
        assert qam_demap([]).size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qam_map([0, 1, 0])

    def test_bulk_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 2048)
        assert np.array_equal(qam_demap(qam_map(bits)), bits)


class TestVectorization:
    def test_delay_major_order(self):
        cfg = make_frame_config(M=4, N=2, delta_f=15e3, f_c=5e9, Q=1)
        grid = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=complex)
        assert np.array_equal(vectorize(grid), np.arange(1, 9))
        back = devectorize(np.arange(1, 9, dtype=complex), cfg)
        assert np.array_equal(back.symbols, grid)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 10), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_roundtrip_random(self, M, N, seed):
        cfg = make_frame_config(M=M, N=N, delta_f=15e3, f_c=5e9, Q=1)
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        v = vectorize(DDFrame(grid))
        assert np.array_equal(devectorize(v, cfg).symbols, grid)
        assert np.array_equal(vectorize(devectorize(v, cfg)), v)

    def test_dimension_mismatch(self):
        cfg = make_frame_config(M=4, N=2, delta_f=15e3, f_c=5e9, Q=1)
        with pytest.raises(ValueError):
            devectorize(np.zeros(7), cfg)


class TestGridIndexing:
    def test_eva_longest_tap(self):
        cfg = paper_scale_config()
        # 2510 ns * 512 * 15 kHz = 19.28 -> 19
        assert delay_index(2510e-9, cfg) == 19

    def test_doppler_350kmh(self):
        cfg = paper_scale_config()
        nu = (350 / 3.6) * 5e9 / 299_792_458.0
        assert nu == pytest.approx(1621.5, abs=2.0)
        assert doppler_index(nu, cfg) == 3

    def test_origin(self):
        cfg = paper_scale_config()
        assert delay_index(0.0, cfg) == 0
        assert doppler_index(0.0, cfg) == 0

    def test_out_of_range(self):
        cfg = make_frame_config(M=8, N=4, delta_f=15e3, f_c=5e9, Q=2)
        with pytest.raises(ValueError):
            delay_index(cfg.T, cfg)  # maps to l = M
        with pytest.raises(ValueError):
            delay_index(-1e-9, cfg)
        with pytest.raises(ValueError):
            doppler_index(0.8 / cfg.T, cfg)  # 0.8 N Doppler bins of 1/(N T)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 2500e-9), min_size=2, max_size=8))
    def test_delay_index_monotone(self, taus):
        cfg = paper_scale_config()
        taus = sorted(taus)
        ls = [delay_index(t, cfg) for t in taus]
        assert all(a <= b for a, b in zip(ls, ls[1:]))

    def test_doppler_index_monotone_and_signed(self):
        cfg = paper_scale_config()
        nus = np.linspace(-7000, 7000, 41)
        ks = [doppler_index(nu, cfg) for nu in nus]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        assert doppler_index(-1.0 / (cfg.N * cfg.T), cfg) == -1
