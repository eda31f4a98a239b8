"""Monte Carlo harness: sensing-then-communication trials, sweeps, CSV output.

One trial = one channel draw shared by a sensing frame and a burst of
communication frames (time-division: the transmitter first sounds the channel
with a known frame, then sends data over the same realization).  Trials are
seeded individually from the master seed, so results are reproducible
bit-for-bit and trials can run on a worker pool in any order.

Seed derivation: every random draw uses
``numpy.random.SeedSequence((master_seed, stage_tag, trial, ...))`` with
documented integer stage tags, so adding SNR points or threads never shifts
any other draw.  Channel and payload draws are shared across SNR points
(common random numbers); only the noise depends on the SNR index.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import baselines
from .channel import (EVA_DELAYS_NS, apply_physical_channel, gen_eva_channel,
                      gen_synthetic_channel, snr_to_noise_var)
from .core import (FrameConfig, make_frame_config, qam_map, random_bits, random_frame,
                   vectorize)
from .detector import OampConfig, lmmse_detect, oamp_detect
from .effchan import EffectiveChannel
from .estimator import EstimationConfig, estimate_channel, mle_exhaustive, nmse
from .waveform import build_srrc, oddm_demodulate, oddm_modulate

# stage tags for seed derivation
_STAGE_CHANNEL = 1
_STAGE_SENSE_BITS = 2
_STAGE_SENSE_NOISE = 3
_STAGE_COMM_BITS = 4
_STAGE_COMM_NOISE = 5

SCHEMES = ("oddm", "otfs", "ofdm")
DETECTORS = ("oamp", "lmmse")
CSI_MODES = ("perfect", "estimated")
FIDELITIES = ("matrix", "waveform")
CHANNEL_MODELS = ("eva", "synthetic")


@dataclass(frozen=True)
class ChannelSpec:
    model: str = "eva"          # eva | synthetic
    v_kmh: float = 350.0
    paths: int = 3              # synthetic model path count
    l_max: int | None = None    # synthetic delay window
    k_max: int | None = None    # synthetic Doppler window

    def __post_init__(self):
        if self.model not in CHANNEL_MODELS:
            raise ValueError(f"unknown channel model {self.model!r}")


@dataclass(frozen=True)
class EstSpec:
    p_assumed: int | None = None   # default: channel model's path count
    max_iters: int = 20
    epsilon: float = 1e-4


@dataclass(frozen=True)
class DetSpec:
    max_iters: int = 20
    damping: float = 1.0

    def to_oamp_config(self) -> OampConfig:
        return OampConfig(max_iters=self.max_iters, damping=self.damping)


@dataclass(frozen=True)
class ExperimentSpec:
    frame: FrameConfig
    snr_grid_db: tuple
    scheme: str = "oddm"
    detector: str = "oamp"
    csi: str = "perfect"
    fidelity: str = "matrix"
    trials: int = 10
    frames_per_trial: int = 4
    min_bit_errors: int = 100
    seed: int = 0
    sensing_snr_db: float | None = None
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    est: EstSpec = field(default_factory=EstSpec)
    det: DetSpec = field(default_factory=DetSpec)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.csi not in CSI_MODES:
            raise ValueError(f"unknown csi mode {self.csi!r}")
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"unknown fidelity {self.fidelity!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_grid_db:
            raise ValueError("snr grid must be nonempty")
        if self.scheme == "ofdm":
            if self.csi != "perfect":
                raise ValueError("the ofdm baseline supports csi=perfect only")
            if self.fidelity != "waveform":
                raise ValueError("the ofdm baseline is waveform-level only")


def config_hash(spec: ExperimentSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


@dataclass
class SweepRow:
    scheme: str
    detector: str
    csi: str
    snr_db: float
    trials_run: int
    bits: int
    bit_errors: int
    ber: float | None
    nmse_db: float | None
    wall_time_s: float
    seed: int
    config_hash: str


@dataclass
class SweepResult:
    rows: list


CSV_COLUMNS = ("scheme", "detector", "csi", "snr_db", "trials_run", "bits",
               "bit_errors", "ber", "nmse_db", "wall_time_s", "seed", "config_hash")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17e}"
    return str(value)


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep with fixed column order and round-trippable floats."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in result.rows:
                fh.write(",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def parse_csv(path) -> SweepResult:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        rows = []
        for line in fh:
            vals = line.rstrip("\n").split(",")
            rec = dict(zip(CSV_COLUMNS, vals))
            rows.append(SweepRow(
                scheme=rec["scheme"], detector=rec["detector"], csi=rec["csi"],
                snr_db=float(rec["snr_db"]), trials_run=int(rec["trials_run"]),
                bits=int(rec["bits"]), bit_errors=int(rec["bit_errors"]),
                ber=float(rec["ber"]) if rec["ber"] else None,
                nmse_db=float(rec["nmse_db"]) if rec["nmse_db"] else None,
                wall_time_s=float(rec["wall_time_s"]), seed=int(rec["seed"]),
                config_hash=rec["config_hash"]))
    return SweepResult(rows=rows)


def _draw_channel(spec: ExperimentSpec, trial: int) -> EffectiveChannel:
    rng = derive_rng(spec.seed, _STAGE_CHANNEL, trial)
    if spec.channel.model == "eva":
        return gen_eva_channel(spec.frame, spec.channel.v_kmh, rng)
    return gen_synthetic_channel(spec.frame, spec.channel.paths, rng,
                                 l_max=spec.channel.l_max, k_max=spec.channel.k_max)


def _cp_chips(spec: ExperimentSpec) -> int:
    cfg = spec.frame
    if spec.channel.model == "eva":
        max_l = int(round(EVA_DELAYS_NS[-1] * 1e-9 * cfg.M * cfg.delta_f))
    else:
        l_max = spec.channel.l_max
        max_l = (cfg.M // 4) if l_max is None else l_max
    return min(cfg.M - 1, max_l + 1)


def _estimation_config(spec: ExperimentSpec) -> EstimationConfig:
    cfg = spec.frame
    cp = _cp_chips(spec)
    if spec.channel.model == "eva":
        p_default = len(EVA_DELAYS_NS)
        nu_max = (spec.channel.v_kmh / 3.6) * cfg.f_c / 299_792_458.0
        k_lim = min(cfg.N // 2 - 1, int(math.ceil(nu_max * cfg.N * cfg.T)) + 1)
    else:
        p_default = spec.channel.paths
        k_default = min(cfg.N // 2 - 1, max(1, cfg.N // 4))
        k_lim = k_default if spec.channel.k_max is None else min(cfg.N // 2 - 1, spec.channel.k_max + 1)
    k_lim = max(1, k_lim)
    p = spec.est.p_assumed or p_default
    return EstimationConfig(frame=cfg, p_assumed=p, l_range=(0, min(cfg.M, cp + 1)),
                            k_range=(-k_lim, k_lim + 1),
                            max_iters=spec.est.max_iters, epsilon=spec.est.epsilon)


class _TrialRunner:
    """Builds per-config state once (pulses, estimator config) and runs trials."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.cfg = spec.frame
        self.cp = _cp_chips(spec)
        self.pulses = build_srrc(self.cfg) if (
            spec.fidelity == "waveform" and spec.scheme == "oddm") else None
        self.est_cfg = _estimation_config(spec) if spec.csi == "estimated" else None
        self.oamp_cfg = spec.det.to_oamp_config()

    # -- frame transport ---------------------------------------------------

    def _through_channel(self, frame, chan, noise_var, noise_rng):
        """Transmit one DD frame; returns the DD-domain observation vector.

        Matrix fidelity applies the grid-level H of ``chan``; waveform
        fidelity sends samples through its paths.
        """
        spec, cfg = self.spec, self.cfg
        s = vectorize(frame)
        if spec.fidelity == "matrix":
            y = chan.apply(s)
            if noise_var > 0:
                y = y + np.sqrt(noise_var / 2) * (
                    noise_rng.standard_normal(cfg.mn) + 1j * noise_rng.standard_normal(cfg.mn))
            return y
        if spec.scheme == "oddm":
            st = oddm_modulate(frame, self.pulses, cfg, cyclic_prefix_chips=self.cp)
            rx = apply_physical_channel(st, chan, noise_var, noise_rng)
            return vectorize(oddm_demodulate(rx, self.pulses, cfg))
        if spec.scheme == "otfs":
            st = baselines.otfs_modulate(frame, cfg, cyclic_prefix_chips=self.cp)
            rx = apply_physical_channel(st, chan, noise_var, noise_rng)
            return vectorize(baselines.otfs_demodulate(rx, cfg))
        raise AssertionError(spec.scheme)

    # -- one trial ----------------------------------------------------------

    def run_trial(self, snr_idx: int, snr_db: float, trial: int) -> dict:
        spec, cfg = self.spec, self.cfg
        noise_var = snr_to_noise_var(snr_db)
        chan = _draw_channel(spec, trial)
        out = {"bits": 0, "bit_errors": 0, "nmse_db": None}

        if spec.scheme == "ofdm":
            return self._run_ofdm_trial(snr_idx, snr_db, trial, chan, noise_var, out)

        # sensing stage
        if spec.csi == "estimated":
            sense_rng = derive_rng(spec.seed, _STAGE_SENSE_BITS, trial)
            _, sense_frame = random_frame(cfg, sense_rng)
            s_known = vectorize(sense_frame)
            sense_nv = snr_to_noise_var(spec.sensing_snr_db) \
                if spec.sensing_snr_db is not None else noise_var
            noise_rng = derive_rng(spec.seed, _STAGE_SENSE_NOISE, trial, snr_idx)
            y_sense = self._through_channel(sense_frame, chan, sense_nv, noise_rng)
            H_det = estimate_channel(y_sense, s_known, self.est_cfg).channel
            out["nmse_db"] = nmse(H_det, chan)
        else:
            H_det = chan

        # communication stage over the same channel realization
        sigma = max(noise_var, 1e-12)
        for f in range(spec.frames_per_trial):
            bits_rng = derive_rng(spec.seed, _STAGE_COMM_BITS, trial, f)
            bits, frame = random_frame(cfg, bits_rng)
            noise_rng = derive_rng(spec.seed, _STAGE_COMM_NOISE, trial, f, snr_idx)
            y = self._through_channel(frame, chan, noise_var, noise_rng)
            if spec.detector == "oamp":
                det = oamp_detect(y, H_det, sigma, self.oamp_cfg)
            else:
                det = lmmse_detect(y, H_det, sigma)
            out["bits"] += bits.size
            out["bit_errors"] += int(np.sum(det.hard_bits != bits))
        return out

    def _run_ofdm_trial(self, snr_idx, snr_db, trial, chan, noise_var, out):
        spec, cfg = self.spec, self.cfg
        cp = max(self.cp, int(chan.l.max()) + 1)
        resp = baselines.ofdm_freq_response(chan, cfg, cp)
        sigma = max(noise_var, 1e-12)
        for f in range(spec.frames_per_trial):
            bits_rng = derive_rng(spec.seed, _STAGE_COMM_BITS, trial, f)
            bits = random_bits(cfg.mn * cfg.constellation_obj.bits_per_symbol, bits_rng)
            st = baselines.ofdm_modulate(qam_map(bits, cfg.constellation_obj), cfg, cp)
            noise_rng = derive_rng(spec.seed, _STAGE_COMM_NOISE, trial, f, snr_idx)
            rx = apply_physical_channel(st, chan, noise_var, noise_rng)
            rx_bits = baselines.ofdm_detect(rx, resp, sigma, cfg, cp)
            out["bits"] += bits.size
            out["bit_errors"] += int(np.sum(rx_bits != bits))
        return out


def _point_worker(spec, snr_idx, snr_db, trial):
    return trial, _TrialRunner(spec).run_trial(snr_idx, snr_db, trial)


def run_sensing_then_comm(spec: ExperimentSpec, threads: int = 1) -> SweepResult:
    """Full sensing-then-communication sweep over the configured SNR grid."""
    chash = config_hash(spec)
    runner = _TrialRunner(spec)
    rows = []
    spawn = multiprocessing.get_context("spawn")
    with (ProcessPoolExecutor(max_workers=threads, mp_context=spawn) if threads > 1
          else contextlib.nullcontext()) as pool:
        for snr_idx, snr_db in enumerate(spec.snr_grid_db):
            t0 = time.perf_counter()
            bits = errors = trials_run = 0
            nmse_lin = []
            if pool is not None:
                results = _parallel_trials(pool, spec, snr_idx, snr_db, threads)
            else:
                results = ((t, runner.run_trial(snr_idx, snr_db, t)) for t in range(spec.trials))
            with contextlib.closing(results):
                for trial, res in results:
                    bits += res["bits"]
                    errors += res["bit_errors"]
                    if res["nmse_db"] is not None:
                        nmse_lin.append(10.0 ** (res["nmse_db"] / 10.0))
                    trials_run += 1
                    if errors >= spec.min_bit_errors:
                        break
            nmse_db = float(10.0 * np.log10(np.mean(nmse_lin))) if nmse_lin else None
            rows.append(SweepRow(
                scheme=spec.scheme, detector=spec.detector, csi=spec.csi,
                snr_db=float(snr_db), trials_run=trials_run, bits=bits, bit_errors=errors,
                ber=(errors / bits) if bits else None, nmse_db=nmse_db,
                wall_time_s=time.perf_counter() - t0, seed=spec.seed, config_hash=chash))
    return SweepResult(rows=rows)


def _parallel_trials(pool, spec, snr_idx, snr_db, in_flight):
    """Trial results in trial order from `pool`, at most `in_flight` handed out ahead.

    Trials are handed out in order as earlier ones are consumed, so once the
    caller stops (early stop) and closes the generator, no further trial is
    started and the queued ones are cancelled.
    """
    pending = collections.deque()
    next_trial = 0
    try:
        while pending or next_trial < spec.trials:
            while next_trial < spec.trials and len(pending) < in_flight:
                pending.append(pool.submit(_point_worker, spec, snr_idx, snr_db, next_trial))
                next_trial += 1
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_nmse_sweep(spec: ExperimentSpec) -> SweepResult:
    """Channel estimation error sweep: fast algorithm plus (when feasible)
    the exhaustive search, one row per estimator per SNR point."""
    chash = config_hash(spec)
    est_cfg = _estimation_config(spec)
    cfg = spec.frame
    n_cells = len(est_cfg.cells())
    mle_ok = math.comb(n_cells, est_cfg.p_assumed) <= est_cfg.mle_max_hypotheses
    rows = []
    for snr_idx, snr_db in enumerate(spec.snr_grid_db):
        t0 = time.perf_counter()
        acc = {"alg1": [], "mle": []}
        noise_var = snr_to_noise_var(snr_db)
        for trial in range(spec.trials):
            chan = _draw_channel(spec, trial)
            sense_rng = derive_rng(spec.seed, _STAGE_SENSE_BITS, trial)
            _, frame = random_frame(cfg, sense_rng)
            s = vectorize(frame)
            noise_rng = derive_rng(spec.seed, _STAGE_SENSE_NOISE, trial, snr_idx)
            y = chan.apply(s) + np.sqrt(noise_var / 2) * (
                noise_rng.standard_normal(cfg.mn) + 1j * noise_rng.standard_normal(cfg.mn))
            est = estimate_channel(y, s, est_cfg)
            acc["alg1"].append(10.0 ** (nmse(est.channel, chan) / 10.0))
            if mle_ok:
                full = mle_exhaustive(y, s, est_cfg)
                acc["mle"].append(10.0 ** (nmse(full.channel, chan) / 10.0))
        wall = time.perf_counter() - t0
        for name in ("alg1", "mle"):
            if not acc[name]:
                continue
            rows.append(SweepRow(
                scheme=spec.scheme, detector=name, csi="estimated",
                snr_db=float(snr_db), trials_run=spec.trials, bits=0, bit_errors=0,
                ber=None, nmse_db=float(10.0 * np.log10(np.mean(acc[name]))),
                wall_time_s=wall, seed=spec.seed, config_hash=chash))
    return SweepResult(rows=rows)


DEFAULT_FRAME = dict(M=64, N=16, delta_f=15e3, f_c=5e9, Q=8)
DEFAULT_SNR_DB = (0.0, 5.0, 10.0, 15.0)
_SECTIONS = {"frame": FrameConfig, "channel": ChannelSpec, "est": EstSpec, "det": DetSpec}


def option_keys() -> list:
    """Every dotted key :func:`build_spec` accepts."""
    keys = [f"{section}.{f.name}" for section, cls in _SECTIONS.items() for f in fields(cls)]
    keys += ["run.snr_db"] + [f"run.{f.name}" for f in fields(ExperimentSpec)
                              if f.name not in _SECTIONS and f.name != "snr_grid_db"]
    return sorted(keys)


def build_spec(options: dict) -> ExperimentSpec:
    """Assemble an ExperimentSpec from dotted-key options; unknown keys raise ValueError."""
    unknown = sorted(set(options) - set(option_keys()))
    if unknown:
        raise ValueError(f"unknown option keys {unknown}; known keys: {option_keys()}")
    parts = {section: {} for section in (*_SECTIONS, "run")}
    for key, value in options.items():
        section, name = key.split(".", 1)
        parts[section][name] = value
    run = parts.pop("run")
    return ExperimentSpec(
        frame=make_frame_config(**dict(DEFAULT_FRAME, **parts["frame"])),
        snr_grid_db=tuple(run.pop("snr_db", DEFAULT_SNR_DB)),
        channel=ChannelSpec(**parts["channel"]), est=EstSpec(**parts["est"]),
        det=DetSpec(**parts["det"]), **run)
