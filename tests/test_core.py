import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmsim.channel import delay_index, eva_support
from oddmsim.core import (QAM4, FrameConfig, checked_frame, chips_to_dd, dd_to_chips, qam_demap,
                          qam_map, round_half_away)
from oddmsim.waveform import SampleStream, build_srrc, oddm_demodulate, oddm_modulate

from oracles import nearest_point_demap


# a symbol component exactly on an axis or at least 1e-12 from it
AXIS_OR_CLEAR = (st.sampled_from([0.0, -0.0]) | st.floats(1e-12, 10.0)
                 | st.floats(-10.0, -1e-12))


def paper_scale_config(**kw):
    args = dict(M=512, N=32, Q=20)
    args.update(kw)
    return FrameConfig(**args)


class TestFrameConfig:
    def test_paper_scale_resolutions(self):
        # the grid has no physical units: a slot is M delay bins of oversampling samples, and
        # only EVA's subcarrier spacing (15 kHz here) puts its last tap, 2510 ns, on bin 19
        cfg = paper_scale_config()
        assert (cfg.mn, cfg.doppler_range, cfg.M * cfg.oversampling) == (16384, (-16, 15), 4096)
        assert eva_support(cfg, 350.0, 5e9, 15e3)[1] == 19
        assert not any(hasattr(cfg, name) for name in ("delta_f", "T", "sample_rate"))

    def test_pulse_too_long_rejected(self):
        # the grid takes any pulse length; the pulse, and each end through it, checks 2Q < M
        cfg = FrameConfig(M=8, N=4, Q=4)
        stream = SampleStream(np.zeros(1))  # the pulse is checked first
        for use in (build_srrc, lambda c: oddm_modulate(np.ones(c.mn), c, 0),
                    lambda c: oddm_demodulate(stream, c)):
            with pytest.raises(ValueError, match=r"^Q 4 is too long for the grid: need 2Q < M = 8"):
                use(cfg)

    def test_grid_without_pulse(self):
        # a grid-only caller leaves the pulse and the sampling at their defaults
        cfg = FrameConfig(M=8, N=4)
        assert (cfg.mn, cfg.Q, cfg.rolloff, cfg.oversampling) == (32, 8, 0.25, 8)

    def test_small_valid(self):
        cfg = FrameConfig(M=8, N=4, Q=2)
        assert cfg.mn == 32

    def test_stores_ints_and_floats(self):
        # integers given for the float fields hash like the floats
        cfg = FrameConfig(M=8, N=4, Q=2, rolloff=0, oversampling=np.int64(4))
        assert cfg == FrameConfig(M=8, N=4, Q=2, rolloff=0.0, oversampling=4)
        assert [type(getattr(cfg, f)) for f in ("rolloff", "oversampling")] == [float, int]

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
        # "0.3", True, an infinite slot (1e-320) or sample rate (1e308) passed; the carrier and
        # the subcarrier spacing are EVA's parameters now, so eva_support checks them
        ((field, value),) = bad.items()
        with pytest.raises(ValueError, match=f"^{field} "):
            if field in ("f_c", "delta_f"):
                eva_support(paper_scale_config(), **{"v_kmh": 350.0, "f_c": 5e9, "delta_f": 15e3,
                                                     **bad})
            else:
                paper_scale_config(**bad)


class TestConstellation:
    def test_unit_energy(self):
        assert abs(np.mean(np.abs(QAM4.points) ** 2) - 1.0) < 1e-12

    def test_gray_neighbors_differ_in_one_bit(self):
        pts = QAM4.points
        labels = qam_demap(pts).reshape(-1, QAM4.bits_per_symbol)
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

    @pytest.mark.parametrize("symbol, bits", [
        (0j, [0, 0]), (complex(-0.0, 0.0), [0, 0]), (1 + 0j, [0, 0]), (-1 + 0j, [0, 1]),
        (1j, [0, 0]), (complex(0.0, -1.0), [1, 1]), (complex(0.0, -0.5), [1, 1]),
        (complex(-0.0, -1.0), [1, 1]), (complex(-0.5, 0.0), [0, 1]),
        # the nearest point is +1-j; a table of distances to the points rounds the 1.5e-16 away
        (1.486e-16 - 1.011e-13j, [1, 0]),
    ])
    def test_axis_decisions(self, symbol, bits):
        # on an axis the decision is the first of the tied points in the order +1+j, -1+j,
        # -1-j, +1-j, as the distance table's argmin took it
        assert qam_demap([symbol]).tolist() == bits

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.builds(complex, AXIS_OR_CLEAR, AXIS_OR_CLEAR), min_size=1, max_size=8))
    def test_matches_nearest_point_oracle(self, symbols):
        # the oracle's distances decide correctly only while each component stays well above
        # their rounding, about 1e-16 |s|^2; components of at most 10 keep 1e-12 above it
        assert np.array_equal(qam_demap(symbols), nearest_point_demap(symbols))

    @pytest.mark.parametrize("symbols", [
        [complex(np.nan, -1.0)], [complex(np.inf, -1.0)], [complex(-np.inf, 0.0)],
        [complex(1.0, np.nan)], [complex(np.nan, np.nan)], [1 + 1j, complex(0.5, np.inf)],
    ])
    def test_rejects_non_finite_symbols(self, symbols):
        # NaN - 1j and inf - 1j used to demap to 00 without a word
        with pytest.raises(ValueError, match="symbols must be finite"):
            qam_demap(symbols)


class TestVectorization:
    """A frame's one spelling, the delay-major vector s[m*N + n] = S(m, n)."""

    def test_delay_major_order(self):
        # the symbol at s[m*N + n] rides delay bin m: its N pulse copies sit on chips n_hat*M + m
        cfg = FrameConfig(M=4, N=2)
        for m in range(cfg.M):
            for n in range(cfg.N):
                s = np.zeros(cfg.mn, dtype=complex)
                s[m * cfg.N + n] = 1.0
                chips = np.flatnonzero(np.abs(dd_to_chips(s, cfg)) > 1e-12)
                assert np.array_equal(chips, m + cfg.M * np.arange(cfg.N))

    @settings(max_examples=30)
    @given(st.integers(3, 10), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_roundtrip_random(self, M, N, seed):
        # checked_frame passes an (MN,) vector through as complex, and refuses its (M, N) grid
        rng = np.random.default_rng(seed)
        s, cfg = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N), FrameConfig(M=M, N=N)
        assert np.array_equal(checked_frame("frame", s.real, cfg), s.real + 0j)
        assert np.array_equal(checked_frame("frame", s, cfg), s)
        with pytest.raises(ValueError, match=re.escape(f"frame shape ({M}, {N}) != (MN,)")):
            checked_frame("frame", s.reshape(M, N), cfg)


CHIP_GRIDS = [(4, 2), (8, 4), (6, 5)]


def random_frame_vector(M, N):
    rng = np.random.default_rng(M * 10 + N)
    return rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)


class TestChipMap:
    """dd_to_chips and chips_to_dd, the unitary map between a frame's delay-major vector and
    time chips."""

    @pytest.mark.parametrize("M, N", CHIP_GRIDS)
    def test_matches_explicit_idft(self, M, N):
        # chip n_hat*M + m carries sum_n S(m, n) e^{j2pi n n_hat / N} / sqrt(N)
        s, cfg = random_frame_vector(M, N), FrameConfig(M=M, N=N)
        ref = np.array([sum(s[m * N + n] * np.exp(2j * np.pi * n * n_hat / N) for n in range(N))
                        for n_hat in range(N) for m in range(M)]) / np.sqrt(N)
        assert np.allclose(dd_to_chips(s, cfg), ref, atol=1e-12)

    @pytest.mark.parametrize("M, N", CHIP_GRIDS)
    def test_roundtrip(self, M, N):
        s, cfg = random_frame_vector(M, N), FrameConfig(M=M, N=N)
        chips = dd_to_chips(s, cfg)
        assert np.allclose(chips_to_dd(chips, cfg), s, atol=1e-12)
        assert np.allclose(dd_to_chips(chips_to_dd(chips[::-1], cfg), cfg), chips[::-1],
                           atol=1e-12)

    @pytest.mark.parametrize("M, N", CHIP_GRIDS)
    def test_unitary(self, M, N):
        # columns: the images of the delay-major unit vectors; chips_to_dd is the adjoint
        eye, cfg = np.eye(M * N), FrameConfig(M=M, N=N)
        A = np.stack([dd_to_chips(e, cfg) for e in eye], axis=1)
        A_inv = np.stack([chips_to_dd(e, cfg) for e in eye], axis=1)
        assert np.allclose(A.conj().T @ A, eye, atol=1e-12)
        assert np.allclose(A_inv, A.conj().T, atol=1e-12)


class TestGridIndexing:
    def test_eva_longest_tap(self):
        cfg = paper_scale_config()
        # 2510 ns * 512 * 15 kHz = 19.28 -> 19
        assert delay_index(2510e-9, cfg, 15e3) == 19

    def test_doppler_350kmh(self):
        cfg = paper_scale_config()
        nu = (350 / 3.6) * 5e9 / 299_792_458.0
        assert nu == pytest.approx(1621.5, abs=2.0)
        # the EVA generator rounds each tap's Doppler of up to this many bins
        assert round_half_away(eva_support(cfg, 350, 5e9, 15e3)[2]) == 3

    def test_origin(self):
        cfg = paper_scale_config()
        assert delay_index(0.0, cfg, 15e3) == 0

    def test_out_of_range(self):
        cfg = FrameConfig(M=8, N=4, Q=2)
        # one slot maps to l = M; a NaN or infinite delay or spacing used to raise "cannot
        # convert float NaN to integer" or OverflowError, and a negative spacing gave bin -12
        for tau, delta_f in [(1 / 15e3, 15e3), (-1e-9, 15e3), (math.nan, 15e3),
                             (math.inf, 15e3), (1e-6, math.inf), (0.0, math.inf),
                             (1e-4, -15e3)]:
            with pytest.raises(ValueError, match="^delay "):
                delay_index(tau, cfg, delta_f)
        # a string or None delay or spacing used to raise TypeError, and a True delay failed
        # only as "maps to bin 120000"
        for tau, delta_f, name in [("1e-6", 15e3, "delay"), (None, 15e3, "delay"),
                                   (True, 15e3, "delay"), (1e-6, math.nan, "delta_f"),
                                   (1e-6, "15e3", "delta_f"), (1e-6, None, "delta_f")]:
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                delay_index(tau, cfg, delta_f)

    @settings(max_examples=50)
    @given(st.lists(st.floats(0, 2500e-9), min_size=2, max_size=8))
    def test_delay_index_monotone(self, taus):
        cfg = paper_scale_config()
        taus = sorted(taus)
        ls = [delay_index(t, cfg, 15e3) for t in taus]
        assert all(a <= b for a, b in zip(ls, ls[1:]))

