import numpy as np
import pytest

from oddmsim.channel import (add_awgn, apply_physical_channel, channel_from_cells,
                             gen_eva_channel, gen_synthetic_channel, snr_to_noise_var)
from oddmsim.core import FrameConfig
from oddmsim.waveform import SampleStream


def paper_cfg():
    return FrameConfig(M=512, N=32)


class TestEvaGeneration:
    def test_delay_bin_pattern(self):
        cfg = paper_cfg()
        chan = gen_eva_channel(cfg, 350.0, 5e9, 15e3, 0)
        ls = sorted(set(chan.l.tolist()))
        # 9 taps map to these delay bins (the two 0/30 ns taps share bin 0)
        assert set(ls) <= {0, 1, 2, 3, 5, 8, 13, 19}
        assert max(ls) == 19

    def test_doppler_bins_bounded(self):
        cfg = paper_cfg()
        for seed in range(20):
            chan = gen_eva_channel(cfg, 350.0, 5e9, 15e3, seed)
            assert np.all((-3 <= chan.k) & (chan.k <= 3))

    def test_zero_speed_zero_doppler(self):
        cfg = paper_cfg()
        chan = gen_eva_channel(cfg, 0.0, 5e9, 15e3, 4)
        assert np.all(chan.k == 0)
        # same-bin taps merged: 8 distinct delay bins remain
        assert chan.P == 8

    def test_deterministic_and_seed_dependent(self):
        cfg = paper_cfg()
        a = gen_eva_channel(cfg, 350.0, 5e9, 15e3, 123)
        b = gen_eva_channel(cfg, 350.0, 5e9, 15e3, 123)
        c = gen_eva_channel(cfg, 350.0, 5e9, 15e3, 124)
        for field in ("gains", "l", "k"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(a.gains, c.gains)

    def test_mean_power_normalized(self):
        cfg = paper_cfg()
        powers = [np.sum(np.abs(gen_eva_channel(cfg, 350.0, 5e9, 15e3, s).gains) ** 2)
                  for s in range(400)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.15)

    def test_shared_cell_taps_merged(self):
        # taps landing on one cell become one path with the summed gain, so
        # the cells of a generated channel are distinct
        cfg = paper_cfg()
        chan = channel_from_cells(cfg, [(2, 1), (0, 0), (2, 1)], [1.0, 0.5j, -0.25])
        assert (chan.l.tolist(), chan.k.tolist()) == ([0, 2], [0, 1])
        assert chan.gains.tolist() == [0.5j, 0.75]

    def test_cells_and_gains_of_different_lengths_rejected(self):
        # zip used to drop the surplus cell and return a 1-path channel
        with pytest.raises(ValueError, match="^cells and gains differ in length: 2 cells, 1 gains$"):
            channel_from_cells(FrameConfig(8, 4), [(0, 0), (1, 0)], [1.0])

    def test_delay_and_doppler_follow_from_cells(self):
        # a path acts in bins: cell (l, k) delays a stream by l bins of oversampling samples
        # and turns it by k / (MN oversampling) cycles per sample; it has no delay in seconds
        cfg = paper_cfg()
        t = np.arange(64)
        for l, k in ((3, -2), (19, 1)):
            chan = channel_from_cells(cfg, [(l, k)], [1.0])
            out = apply_physical_channel(SampleStream(np.ones(t.size)), chan)
            shift = l * cfg.oversampling
            assert np.array_equal(out.samples[:shift], np.zeros(shift))
            assert np.allclose(out.samples[shift:],
                               np.exp(2j * np.pi * k * t / (cfg.mn * cfg.oversampling)),
                               rtol=0.0, atol=1e-15)
            assert not hasattr(chan, "tau") and not hasattr(chan, "nu")

    @pytest.mark.parametrize("v_kmh", [float("nan"), float("inf"), -1.0,
                                       5000.0])  # Doppler spread 49.4 bins, grid |k| <= 15
    def test_bad_speed_rejected(self, v_kmh):
        # NaN and inf used to fail converting a Doppler to a cell index, and a speed whose
        # spread leaves the grid failed only on the seeds that drew a tap off it
        with pytest.raises(ValueError, match="^v_kmh "):
            gen_eva_channel(paper_cfg(), v_kmh, 5e9, 15e3, 0)

    def test_last_tap_off_the_grid_rejected(self):
        # 2510 ns at delta_f = 500 kHz is delay bin 643 of M = 512
        with pytest.raises(ValueError, match="^delta_f "):
            gen_eva_channel(paper_cfg(), 350.0, 5e9, 500e3, 0)


class TestSyntheticGeneration:
    def test_path_count_and_windows(self):
        cfg = FrameConfig(M=16, N=8)
        chan = gen_synthetic_channel(cfg, 4, 9, l_max=5, k_max=2)
        assert chan.P == 4
        assert np.all((0 <= chan.l) & (chan.l <= 5) & (-2 <= chan.k) & (chan.k <= 2))
        assert len(set(zip(chan.l.tolist(), chan.k.tolist()))) == 4

    def test_too_many_paths_rejected(self):
        cfg = FrameConfig(M=16, N=8)
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
        cfg = FrameConfig(M=16, N=8)
        with pytest.raises(ValueError, match=f"^{name} "):
            gen_synthetic_channel(cfg, **{"paths": 2, "rng_seed": 0, name: value})


class TestApplyChannel:
    def _stream(self, n=256, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return SampleStream(samples=x, start=0)

    def _chan(self, cfg, cells, gains):
        return channel_from_cells(cfg, cells, gains)

    def test_identity_path(self):
        cfg = FrameConfig(M=16, N=8, oversampling=2)
        st = self._stream()
        out = apply_physical_channel(st, self._chan(cfg, [(0, 0)], [1.0]))
        assert np.allclose(out.samples, st.samples)

    def test_pure_delay_scaled(self):
        cfg = FrameConfig(M=16, N=8, oversampling=2)
        st = self._stream()
        out = apply_physical_channel(st, self._chan(cfg, [(2, 0)], [1.0j]))
        shift = 2 * cfg.oversampling
        assert np.allclose(out.samples[shift:shift + st.samples.size], 1.0j * st.samples)
        assert np.allclose(out.samples[:shift], 0.0)

    def test_superposition(self):
        cfg = FrameConfig(M=16, N=8, oversampling=2)
        st = self._stream()
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

    @pytest.mark.parametrize("M, N, osf", [(12, 5, 4), (64, 16, 8), (128, 32, 8), (256, 64, 8)])
    def test_ramps_match_integer_reduced_phase(self, M, N, osf):
        # a unit path (0, k) turns ones into e^{j2pi ((k t) mod MN osf) / (MN osf)}, the exponent
        # reduced exactly in integers, for k at both ends of the Doppler range, over a stream that
        # starts before the frame and ends after it; an exponential of the unreduced
        # 2pi k t / (MN osf) was off by 1.8e-14 at 128 x 32 and 2.9e-14 at 256 x 64
        cfg = FrameConfig(M=M, N=N, oversampling=osf)
        L = cfg.mn * osf
        t = np.arange(-3 * osf, L + 3 * osf)
        for k in cfg.doppler_range:
            out = apply_physical_channel(SampleStream(np.ones(t.size), start=-3 * osf),
                                         self._chan(cfg, [(0, k)], [1.0]))
            assert np.max(np.abs(out.samples - np.exp(2j * np.pi * (k * t % L) / L))) <= 1e-14

    def test_off_grid_delay_rejected(self):
        # a delay bin is a whole number of samples, so no path delay is off the sample grid:
        # one bin delays a stream by the oversampling of the config the channel was drawn on,
        # 3 here; the stream has no rate of its own
        cfg = FrameConfig(M=16, N=8, oversampling=3)
        st = self._stream()
        out = apply_physical_channel(st, self._chan(cfg, [(1, 0)], [1.0]))
        assert not hasattr(out, "oversampling")
        assert np.array_equal(out.samples, np.concatenate([np.zeros(3), st.samples]))

    # the channel adds no noise; the harness adds each SNR point's with add_awgn
    def test_noise_statistics(self):
        out = add_awgn(np.zeros(1_200_000, dtype=complex), 0.25, 1)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.25, rel=0.02)
        clean = self._stream().samples
        for noiseless in (0.0, -1.0, -np.inf):
            assert np.array_equal(add_awgn(clean, noiseless, 0), clean)
        assert add_awgn(clean, 0.0, 0) is not clean

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_noise_is_the_literal_draw(self, kind):
        # bit for bit x + scale * (a + 1j * b), with a and b the seed's two standard normal
        # draws in turn; without noise, a copy of x with its dtype
        rng = np.random.default_rng(3)
        x = rng.standard_normal(257)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(257)
        for noise_var, seed in [(0.25, 1), (1e-3, 2), (4.0, 3)]:
            draws = np.random.default_rng(seed)
            a, b = draws.standard_normal(x.shape), draws.standard_normal(x.shape)
            literal = x + np.sqrt(noise_var / 2.0) * (a + 1j * b)
            out = add_awgn(x, noise_var, seed)
            assert out.dtype == literal.dtype and out.tobytes() == literal.tobytes()
            assert add_awgn(x.tolist(), noise_var, seed).tobytes() == literal.tobytes()
        for noiseless in (0.0, -1.0):
            out = add_awgn(x, noiseless, 0)
            assert out is not x and out.dtype == x.dtype and out.tobytes() == x.tobytes()

    @pytest.mark.parametrize("noise_var", [
        float("nan"), float("inf"),  # these used to return all-NaN or infinite samples
        # these used to raise TypeError, and True ran as variance 1.0
        pytest.param("0.1", id="str"), pytest.param(None, id="None"),
        pytest.param(np.array([0.1, 0.2]), id="array"), pytest.param(True, id="bool")])
    def test_non_finite_noise_var_rejected(self, noise_var):
        with pytest.raises(ValueError, match="^noise_var "):
            add_awgn(np.ones(4, complex), noise_var, 0)

    def test_deterministic_given_seed(self):
        x = self._stream().samples
        assert np.array_equal(add_awgn(x, 0.1, 7), add_awgn(x, 0.1, 7))
        assert not np.array_equal(add_awgn(x, 0.1, 7), add_awgn(x, 0.1, 8))

    def test_seed_is_required(self):
        # noise drawn from no seed came from OS entropy, so no run could reproduce it
        with pytest.raises(TypeError, match="rng_seed"):
            add_awgn(np.zeros(4, complex), 0.1)
        # numpy reads a None seed as fresh OS entropy
        cfg = FrameConfig(M=8, N=4)
        for draw in (lambda: add_awgn(np.zeros(3, complex), 1.0, None),
                     lambda: add_awgn(np.zeros(3, complex), 0.0, None),
                     lambda: gen_eva_channel(cfg, 350.0, 5e9, 15e3, None),
                     lambda: gen_synthetic_channel(cfg, 2, None)):
            with pytest.raises(TypeError, match="^rng_seed is required"):
                draw()


class TestSnrAndSerialization:
    def test_snr_values(self):
        assert snr_to_noise_var(0.0) == 1.0
        assert snr_to_noise_var(10.0) == pytest.approx(0.1)
        assert snr_to_noise_var(20.0) == pytest.approx(0.01)
        assert snr_to_noise_var(np.inf) == 0.0  # the noiseless case
        # 10^400 overflowed, -inf gave inf; "10" and b"10" were parsed as 10 dB, True as 1 dB
        for snr_db in (-4000.0, -np.inf, np.nan, "10", b"10", True, None):
            with pytest.raises(ValueError, match="^snr_db "):
                snr_to_noise_var(snr_db)

