"""Delay-Doppler modem simulator.

A desk-scale simulator for a sensing-then-communication link built on a
pulse-train delay-Doppler waveform: sample-level modulation and matched
filtering, time-varying multipath channels, a low-complexity alternating
maximum-likelihood channel estimator, an orthogonal message-passing symbol
detector, OTFS/OFDM baselines, and a seeded Monte Carlo harness with CSV
output.
"""

from .core import FrameConfig, chips_to_dd, dd_to_chips, qam_demap, qam_map
from .waveform import SampleStream, build_srrc, oddm_demodulate, oddm_modulate
from .effchan import EffectiveChannel
from .channel import (add_awgn, apply_physical_channel, delay_index, gen_eva_channel,
                      gen_synthetic_channel, snr_to_noise_var)
from .estimator import (EstimationConfig, EstimationResult, Sounding, estimate_channel,
                        mle_exhaustive, nmse, solve_gains)
from .detector import DetectionResult, LinearStage, lmmse_detect, oamp_detect, oamp_nle
from .baselines import (ofdm_detect, ofdm_freq_response, ofdm_modulate,
                        otfs_demodulate, otfs_modulate)

__version__ = "0.1.0"
