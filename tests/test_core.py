import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmsim.channel import eva_support
from oddmsim.core import (QAM4, FrameConfig, chips_to_dd, dd_to_chips, delay_index, qam_demap,
                          qam_map, round_half_away, vectorize)


def paper_scale_config(**kw):
    args = dict(M=512, N=32, delta_f=15e3, Q=20)
    args.update(kw)
    return FrameConfig(**args)


class TestFrameConfig:
    def test_paper_scale_resolutions(self):
        cfg = paper_scale_config()
        assert cfg.T == pytest.approx(1 / 15e3)

    def test_pulse_too_long_rejected(self):
        with pytest.raises(ValueError):
            FrameConfig(M=8, N=4, delta_f=15e3, Q=4)

    def test_small_valid(self):
        cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
        assert cfg.mn == 32

    def test_stores_ints_and_floats(self):
        # integers given for the float fields hash like the floats
        cfg = FrameConfig(M=8, N=4, delta_f=15000, Q=2, rolloff=0, oversampling=np.int64(4))
        assert cfg == FrameConfig(M=8, N=4, delta_f=15e3, Q=2, rolloff=0.0,
                                  oversampling=4)
        assert [type(getattr(cfg, f)) for f in ("delta_f", "rolloff", "oversampling")] \
            == [float, float, int]

    @pytest.mark.parametrize("bad", [
        dict(M=1), dict(N=1), dict(Q=0), dict(delta_f=-1.0), dict(f_c=0.0),
        dict(rolloff=1.5), dict(oversampling=0), dict(f_c=float("inf")),
        dict(M=512.5), dict(N=True), dict(Q=2.5), dict(oversampling=2.5),
        dict(delta_f=float("nan")), dict(delta_f=float("inf")), dict(rolloff=None),
        dict(rolloff="0.3"), dict(f_c=True), dict(delta_f=10**400), dict(delta_f=1e-320),
        dict(delta_f=1e308),
    ])
    def test_rejects_bad_values(self, bad):
        # an infinite delta_f or f_c used to pass or raise OverflowError, None TypeError, and
        # "0.3", True, an infinite slot (1e-320) or sample rate (1e308) passed; the carrier
        # is EVA's parameter now, so eva_support checks it
        ((field, value),) = bad.items()
        with pytest.raises(ValueError, match=f"^{field} "):
            if field == "f_c":
                eva_support(paper_scale_config(), 350.0, value)
            else:
                paper_scale_config(**bad)


class TestConstellation:
    def test_unit_energy(self):
        const = QAM4
        assert abs(np.mean(np.abs(const.points) ** 2) - 1.0) < 1e-12

    def test_gray_neighbors_differ_in_one_bit(self):
        const = QAM4
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
        symbols, bits = qam_map([]), qam_demap([])
        assert (symbols.shape, symbols.dtype) == ((0,), np.complex128)
        assert (bits.shape, bits.dtype) == ((0,), np.uint8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qam_map([0, 1, 0])

    @pytest.mark.parametrize("bits", [[0, 2], [0, -1], [2, 0], [0.5, 1], [1, np.nan]])
    def test_rejects_values_that_are_not_bits(self, bits):
        # [0, 2] used to map to the symbol of "10" and [0, -1] to that of "11"
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            qam_map(bits)

    def test_bulk_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 2048)
        assert np.array_equal(qam_demap(qam_map(bits)), bits)


class TestVectorization:
    def test_delay_major_order(self):
        grid = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=complex)
        assert np.array_equal(vectorize(grid), np.arange(1, 9))

    @settings(max_examples=30)
    @given(st.integers(3, 10), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_roundtrip_random(self, M, N, seed):
        # delay-major whatever the grid's memory order; reshape to (M, N) undoes it
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        v = vectorize(grid)
        assert np.array_equal(v.reshape(M, N), grid)
        assert np.array_equal(vectorize(np.asfortranarray(grid)), v)


CHIP_GRIDS = [(4, 2), (8, 4), (6, 5)]


def random_grid(M, N):
    rng = np.random.default_rng(M * 10 + N)
    return rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))


class TestChipMap:
    """dd_to_chips and chips_to_dd, the unitary map between the grid and time chips."""

    @pytest.mark.parametrize("M, N", CHIP_GRIDS)
    def test_matches_explicit_idft(self, M, N):
        # chip n_hat*M + m carries sum_n S(m, n) e^{j2pi n n_hat / N} / sqrt(N)
        grid = random_grid(M, N)
        ref = np.array([sum(grid[m, n] * np.exp(2j * np.pi * n * n_hat / N) for n in range(N))
                        for n_hat in range(N) for m in range(M)]) / np.sqrt(N)
        assert np.allclose(dd_to_chips(grid), ref, atol=1e-12)

    @pytest.mark.parametrize("M, N", CHIP_GRIDS)
    def test_roundtrip(self, M, N):
        grid = random_grid(M, N)
        chips = dd_to_chips(grid)
        assert np.allclose(chips_to_dd(chips, M, N), grid, atol=1e-12)
        assert np.allclose(dd_to_chips(chips_to_dd(chips[::-1], M, N)), chips[::-1], atol=1e-12)

    @pytest.mark.parametrize("M, N", CHIP_GRIDS)
    def test_unitary(self, M, N):
        # columns: the images of the delay-major unit grids; chips_to_dd is the adjoint
        eye = np.eye(M * N)
        A = np.stack([dd_to_chips(e.reshape(M, N)) for e in eye], axis=1)
        A_inv = np.stack([vectorize(chips_to_dd(e, M, N)) for e in eye], axis=1)
        assert np.allclose(A.conj().T @ A, eye, atol=1e-12)
        assert np.allclose(A_inv, A.conj().T, atol=1e-12)


class TestGridIndexing:
    def test_eva_longest_tap(self):
        cfg = paper_scale_config()
        # 2510 ns * 512 * 15 kHz = 19.28 -> 19
        assert delay_index(2510e-9, cfg) == 19

    def test_doppler_350kmh(self):
        cfg = paper_scale_config()
        nu = (350 / 3.6) * 5e9 / 299_792_458.0
        assert nu == pytest.approx(1621.5, abs=2.0)
        # the EVA generator rounds each tap's Doppler of up to this many bins
        assert round_half_away(eva_support(cfg, 350, 5e9)[2]) == 3

    def test_origin(self):
        cfg = paper_scale_config()
        assert delay_index(0.0, cfg) == 0

    def test_out_of_range(self):
        cfg = FrameConfig(M=8, N=4, delta_f=15e3, Q=2)
        with pytest.raises(ValueError):
            delay_index(cfg.T, cfg)  # maps to l = M
        with pytest.raises(ValueError):
            delay_index(-1e-9, cfg)

    @settings(max_examples=50)
    @given(st.lists(st.floats(0, 2500e-9), min_size=2, max_size=8))
    def test_delay_index_monotone(self, taus):
        cfg = paper_scale_config()
        taus = sorted(taus)
        ls = [delay_index(t, cfg) for t in taus]
        assert all(a <= b for a, b in zip(ls, ls[1:]))

