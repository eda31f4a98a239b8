"""Delay-Doppler modem simulator.

A desk-scale simulator for a sensing-then-communication link built on a
pulse-train delay-Doppler waveform: sample-level modulation and matched
filtering, time-varying multipath channels, a low-complexity alternating
maximum-likelihood channel estimator, an orthogonal message-passing symbol
detector, OTFS/OFDM baselines, and a seeded Monte Carlo harness with CSV
output.
"""

from .core import (Constellation, DDFrame, FrameConfig, chips_to_dd, dd_to_chips,
                   delay_index, devectorize, doppler_index, get_constellation,
                   make_frame_config, qam_demap, qam_map, vectorize)
from .waveform import (PulseBank, SampleStream, build_srrc, oddm_demodulate,
                       oddm_modulate, pulse_orthogonality_matrix)
from .effchan import EffectiveChannel
from .channel import (apply_physical_channel, gen_eva_channel, gen_synthetic_channel,
                      paths_from_text, paths_to_text, snr_to_noise_var)
from .estimator import (EstimationConfig, EstimationResult, estimate_channel,
                        mle_exhaustive, nmse, refresh_gains, solve_gains)
from .detector import (DetectionResult, OampConfig, lmmse_detect, oamp_detect,
                       oamp_le, oamp_nle)
from .baselines import (ofdm_detect, ofdm_freq_response, ofdm_modulate,
                        otfs_demodulate, otfs_modulate)

__version__ = "0.1.0"
