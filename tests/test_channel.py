import numpy as np
import pytest

from oddmsim.channel import (add_awgn, apply_physical_channel, channel_from_cells,
                             gen_eva_channel, gen_synthetic_channel, snr_to_noise_var)
from oddmsim.core import FrameConfig
from oddmsim.waveform import SampleStream


def paper_cfg():
    return FrameConfig(M=512, N=32, delta_f=15e3, Q=20)


class TestEvaGeneration:
    def test_delay_bin_pattern(self):
        cfg = paper_cfg()
        chan = gen_eva_channel(cfg, 350.0, 5e9, 0)
        ls = sorted(set(chan.l.tolist()))
        # 9 taps map to these delay bins (the two 0/30 ns taps share bin 0)
        assert set(ls) <= {0, 1, 2, 3, 5, 8, 13, 19}
        assert max(ls) == 19

    def test_doppler_bins_bounded(self):
        cfg = paper_cfg()
        for seed in range(20):
            chan = gen_eva_channel(cfg, 350.0, 5e9, seed)
            assert np.all((-3 <= chan.k) & (chan.k <= 3))

    def test_zero_speed_zero_doppler(self):
        cfg = paper_cfg()
        chan = gen_eva_channel(cfg, 0.0, 5e9, 4)
        assert np.all(chan.k == 0)
        # same-bin taps merged: 8 distinct delay bins remain
        assert chan.P == 8

    def test_deterministic_and_seed_dependent(self):
        cfg = paper_cfg()
        a = gen_eva_channel(cfg, 350.0, 5e9, 123)
        b = gen_eva_channel(cfg, 350.0, 5e9, 123)
        c = gen_eva_channel(cfg, 350.0, 5e9, 124)
        for field in ("gains", "l", "k"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(a.gains, c.gains)

    def test_mean_power_normalized(self):
        cfg = paper_cfg()
        powers = [np.sum(np.abs(gen_eva_channel(cfg, 350.0, 5e9, s).gains) ** 2)
                  for s in range(400)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.15)

    def test_shared_cell_taps_merged(self):
        # taps landing on one cell become one path with the summed gain, so
        # the cells of a generated channel are distinct
        cfg = paper_cfg()
        chan = channel_from_cells(cfg, [(2, 1), (0, 0), (2, 1)], [1.0, 0.5j, -0.25])
        assert (chan.l.tolist(), chan.k.tolist()) == ([0, 2], [0, 1])
        assert chan.gains.tolist() == [0.5j, 0.75]

    def test_delay_and_doppler_follow_from_cells(self):
        cfg = paper_cfg()
        chan = channel_from_cells(cfg, [(3, -2), (19, 1)], [1.0, 0.5])
        assert chan.tau.tolist() == [3 / (cfg.M * cfg.delta_f), 19 / (cfg.M * cfg.delta_f)]
        assert chan.nu.tolist() == [-2 / (cfg.N * cfg.T), 1 / (cfg.N * cfg.T)]

    @pytest.mark.parametrize("v_kmh", [float("nan"), float("inf"), -1.0,
                                       5000.0])  # Doppler spread 49.4 bins, grid |k| <= 15
    def test_bad_speed_rejected(self, v_kmh):
        # NaN and inf used to fail converting a Doppler to a cell index, and a speed whose
        # spread leaves the grid failed only on the seeds that drew a tap off it
        with pytest.raises(ValueError, match="^v_kmh "):
            gen_eva_channel(paper_cfg(), v_kmh, 5e9, 0)

    def test_last_tap_off_the_grid_rejected(self):
        # 2510 ns at delta_f = 500 kHz is delay bin 643 of M = 512
        cfg = FrameConfig(M=512, N=32, delta_f=500e3, Q=20)
        with pytest.raises(ValueError, match="^delta_f "):
            gen_eva_channel(cfg, 350.0, 5e9, 0)


class TestSyntheticGeneration:
    def test_path_count_and_windows(self):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3)
        chan = gen_synthetic_channel(cfg, 4, 9, l_max=5, k_max=2)
        assert chan.P == 4
        assert np.all((0 <= chan.l) & (chan.l <= 5) & (-2 <= chan.k) & (chan.k <= 2))
        assert len(set(zip(chan.l.tolist(), chan.k.tolist()))) == 4

    def test_too_many_paths_rejected(self):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3)
        with pytest.raises(ValueError):
            gen_synthetic_channel(cfg, 50, 0, l_max=2, k_max=1)

    @pytest.mark.parametrize("name, value", [
        # the path count was named P; its ids keep that name
        pytest.param("paths", 0, id="P-0"),      # used to return a channel without paths
        pytest.param("paths", 2.5, id="P-2.5"),  # used to raise TypeError
        ("l_max", -1),
        ("k_max", -1),   # used to report 2 paths in -5 cells
        ("k_max", 1.5),
        ("l_max", 16),   # off the grid: used to raise or not depending on the seed
        ("k_max", 4),    # likewise, on the 8 Doppler bins -4..3
        pytest.param("paths", 26, id="P-26"),    # more than the default window's 5 x 5 cells
    ])
    def test_bad_arguments_rejected(self, name, value):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3)
        with pytest.raises(ValueError, match=f"^{name} "):
            gen_synthetic_channel(cfg, **{"paths": 2, "rng_seed": 0, name: value})


class TestApplyChannel:
    def _stream(self, n=256, rate=1e6, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return SampleStream(samples=x, rate=rate, start=0)

    def _chan(self, cfg, cells, gains):
        return channel_from_cells(cfg, cells, gains)

    def test_identity_path(self):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3, oversampling=2)
        st = self._stream(rate=cfg.sample_rate)
        out = apply_physical_channel(st, self._chan(cfg, [(0, 0)], [1.0]))
        assert np.allclose(out.samples, st.samples)

    def test_pure_delay_scaled(self):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3, oversampling=2)
        st = self._stream(rate=cfg.sample_rate)
        out = apply_physical_channel(st, self._chan(cfg, [(2, 0)], [1.0j]))
        shift = 2 * cfg.oversampling
        assert np.allclose(out.samples[shift:shift + st.samples.size], 1.0j * st.samples)
        assert np.allclose(out.samples[:shift], 0.0)

    def test_superposition(self):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3, oversampling=2)
        st = self._stream(rate=cfg.sample_rate)
        two = self._chan(cfg, [(1, 1), (3, -2)], [0.8, 0.3j])
        a = self._chan(cfg, [(1, 1)], [0.8])
        b = self._chan(cfg, [(3, -2)], [0.3j])
        out2 = apply_physical_channel(st, two).samples
        outa = apply_physical_channel(st, a).samples
        outb = apply_physical_channel(st, b).samples
        n = min(out2.size, outa.size, outb.size)
        pad = np.zeros(out2.size, dtype=complex)
        pad[:outa.size] += outa
        pad[:outb.size] += outb
        assert np.allclose(out2, pad, atol=1e-12)

    def test_off_grid_delay_rejected(self):
        cfg = FrameConfig(M=16, N=8, delta_f=15e3, Q=3, oversampling=2)
        st = self._stream(rate=cfg.sample_rate / 3.1)  # rate mismatch -> fractional shift
        with pytest.raises(ValueError):
            apply_physical_channel(st, self._chan(cfg, [(1, 0)], [1.0]))

    # the channel adds no noise; the harness adds each SNR point's with add_awgn
    def test_noise_statistics(self):
        out = add_awgn(np.zeros(1_200_000, dtype=complex), 0.25, 1)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.25, rel=0.02)
        clean = self._stream().samples
        for noiseless in (0.0, -1.0, -np.inf):
            assert np.array_equal(add_awgn(clean, noiseless), clean)
        assert add_awgn(clean, 0.0) is not clean

    @pytest.mark.parametrize("noise_var", [float("nan"), float("inf")])
    def test_non_finite_noise_var_rejected(self, noise_var):
        # these used to return all-NaN or infinite samples
        with pytest.raises(ValueError, match="noise_var"):
            add_awgn(np.ones(4, complex), noise_var, 0)

    def test_deterministic_given_seed(self):
        x = self._stream().samples
        assert np.array_equal(add_awgn(x, 0.1, 7), add_awgn(x, 0.1, 7))
        assert not np.array_equal(add_awgn(x, 0.1, 7), add_awgn(x, 0.1, 8))


class TestSnrAndSerialization:
    def test_snr_values(self):
        assert snr_to_noise_var(0.0) == 1.0
        assert snr_to_noise_var(10.0) == pytest.approx(0.1)
        assert snr_to_noise_var(20.0) == pytest.approx(0.01)

