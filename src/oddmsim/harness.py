"""Monte Carlo harness: sensing-then-communication trials, sweeps, CSV output.

One trial = one channel draw shared by a sensing frame and a burst of
communication frames (time-division: the transmitter first sounds the channel
with a known frame, then sends data over the same realization).  Sweeps run
trial-major: one runner call draws a trial's channel and frames and sends
each frame once without noise, then every SNR point still short of
``min_bit_errors`` adds its own noise, receives, estimates and detects.
A trial senses its channel with one known frame, so its
:class:`estimator.Sounding` (the search window and the frame's ambiguity
table) is built once and every point's estimates share it.  The detector's
:class:`detector.LinearStage` is built once per channel it detects with: per
trial for perfect CSI, per point's estimate for estimated CSI, never for the
OFDM baseline, which equalizes per subcarrier.  Trials go out in
order, serially or to a process pool, and aggregation keeps each point's
results in trial order, so both give the same rows.

Seed derivation: every random draw uses
``numpy.random.SeedSequence((master_seed, stage_tag, trial, ...))`` with
documented integer stage tags, so adding SNR points or threads never shifts
any other draw.  Channel and frame draws are shared across SNR points
(common random numbers); only the noise depends on the SNR index.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import baselines
from .channel import (EVA_DELAYS_NS, add_awgn, apply_physical_channel, gen_eva_channel,
                      gen_synthetic_channel, require_speed, snr_to_noise_var)
from .core import FrameConfig, random_frame, require_count, vectorize
from .detector import LinearStage, OampConfig, lmmse_detect, oamp_detect
from .effchan import EffectiveChannel
from .estimator import EstimationConfig, Sounding, estimate_channel, mle_exhaustive, nmse
from .waveform import SampleStream, oddm_demodulate, oddm_modulate

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
        require_speed(self.v_kmh)
        require_count("paths", self.paths)
        for name in ("l_max", "k_max"):
            if getattr(self, name) is not None:
                require_count(name, getattr(self, name), least=0)


@dataclass(frozen=True)
class EstSpec:
    p_assumed: int | None = None   # default: channel model's path count
    max_iters: int = 20
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.p_assumed is not None:
            require_count("p_assumed", self.p_assumed)
        require_count("max_iters", self.max_iters)
        if not self.epsilon > 0:  # also rejects NaN, which no change could fall below
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")


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
    det: OampConfig = field(default_factory=OampConfig)

    def __post_init__(self):
        for name, allowed in (("scheme", SCHEMES), ("detector", DETECTORS),
                              ("csi", CSI_MODES), ("fidelity", FIDELITIES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("trials", "frames_per_trial"):
            require_count(name, getattr(self, name))
        require_count("seed", self.seed, least=0)  # numpy seeds are non-negative integers
        if not self.snr_grid_db:
            raise ValueError("snr grid must be nonempty")
        sensing = () if self.sensing_snr_db is None else (self.sensing_snr_db,)
        for name, values in (("snr_grid_db", self.snr_grid_db), ("sensing_snr_db", sensing)):
            for v in values:
                if not v > -math.inf:  # +inf is the noiseless case
                    raise ValueError(f"{name} entry {v!r} is not an SNR (NaN or -inf)")
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
    """One SNR point of a sweep (one estimator's, in an NMSE sweep).

    ``wall_time_s`` sums, over the trials the point kept, the point's own
    noise, receive, estimate and detect time plus an equal share of the
    trial's draw and send time; both are measured where the trial runs.
    """

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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))
# field type (an annotation string) -> parser of its CSV text
_PARSERS = {"str": str, "int": int, "float": float,
            "float | None": lambda text: float(text) if text else None}


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
        if tuple(fh.readline().strip().split(",")) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        return SweepResult(rows=[
            SweepRow(*(_PARSERS[f.type](text) for f, text in
                       zip(fields(SweepRow), line.rstrip("\n").split(","))))
            for line in fh])


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
    p = p_default if spec.est.p_assumed is None else spec.est.p_assumed
    return EstimationConfig(frame=cfg, p_assumed=p, l_range=(0, min(cfg.M, cp + 1)),
                            k_range=(-k_lim, k_lim + 1),
                            max_iters=spec.est.max_iters, epsilon=spec.est.epsilon)


class _TrialRunner:
    """Per-spec state (cyclic prefix, estimator config) and the stages of one trial."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.cfg = spec.frame
        self.cp = _cp_chips(spec)

    @functools.cached_property
    def est_cfg(self) -> EstimationConfig:
        return _estimation_config(self.spec)

    def _ofdm_cp(self, chan) -> int:
        return max(self.cp, int(chan.l.max()) + 1)

    def _send(self, frame, chan):
        """Noiseless received signal of one frame: ``chan.apply(s)`` (matrix
        fidelity) or the frame's sample stream through the paths of ``chan``."""
        spec, cfg = self.spec, self.cfg
        if spec.fidelity == "matrix":
            return chan.apply(vectorize(frame))
        if spec.scheme == "oddm":
            st = oddm_modulate(frame, cfg, cyclic_prefix_chips=self.cp)
        elif spec.scheme == "otfs":
            st = baselines.otfs_modulate(frame, cfg, cyclic_prefix_chips=self.cp)
        else:
            st = baselines.ofdm_modulate(vectorize(frame), cfg, self._ofdm_cp(chan))
        return apply_physical_channel(st, chan)

    def _observe(self, rx, noise_var, noise_rng):
        """What the receiver sees of ``_send``'s output at ``noise_var``: the
        DD observation vector, or for OFDM the noisy sample stream."""
        spec, cfg = self.spec, self.cfg
        if spec.fidelity == "matrix":
            return add_awgn(rx, noise_var, noise_rng)
        rx = SampleStream(add_awgn(rx.samples, noise_var, noise_rng), rx.rate, rx.t0)
        if spec.scheme == "oddm":
            return vectorize(oddm_demodulate(rx, cfg))
        if spec.scheme == "otfs":
            return vectorize(baselines.otfs_demodulate(rx, cfg))
        return rx

    def _sensing(self, trial: int, chan):
        """The trial's :class:`Sounding` and ``observe(snr_idx)``, that point's
        sensing observation y; the sensing frame is drawn and sent once."""
        spec = self.spec
        _, frame = random_frame(self.cfg, derive_rng(spec.seed, _STAGE_SENSE_BITS, trial))
        rx = self._send(frame, chan)

        def observe(snr_idx):
            snr_db = spec.snr_grid_db[snr_idx] if spec.sensing_snr_db is None \
                else spec.sensing_snr_db
            noise_rng = derive_rng(spec.seed, _STAGE_SENSE_NOISE, trial, snr_idx)
            return self._observe(rx, snr_to_noise_var(snr_db), noise_rng)

        return Sounding(self.est_cfg, vectorize(frame)), observe

    def link_trial(self, trial: int):
        """Draw and send one link trial; returns its per-point work: sense,
        estimate and build the estimate's linear stage (estimated CSI), then
        receive and detect every frame."""
        spec, cfg = self.spec, self.cfg
        chan = _draw_channel(spec, trial)
        frames = [random_frame(cfg, derive_rng(spec.seed, _STAGE_COMM_BITS, trial, f))
                  for f in range(spec.frames_per_trial)]
        sent = [self._send(frame, chan) for _, frame in frames]
        trial_stage = None
        if spec.scheme == "ofdm":
            cp = self._ofdm_cp(chan)
            resp = baselines.ofdm_freq_response(chan, cfg, cp)
        elif spec.csi == "estimated":
            sounding, sense = self._sensing(trial, chan)
        else:
            trial_stage = LinearStage(chan)  # perfect CSI: every point detects with it

        def point(snr_idx):
            noise_var = snr_to_noise_var(spec.snr_grid_db[snr_idx])
            sigma = max(noise_var, 1e-12)
            stage, nmse_db = trial_stage, None
            if spec.csi == "estimated":
                H_est = estimate_channel(sense(snr_idx), sounding).channel
                stage, nmse_db = LinearStage(H_est), nmse(H_est, chan)
            errors = 0
            for f, ((bits, _), rx) in enumerate(zip(frames, sent)):
                y = self._observe(rx, noise_var,
                                  derive_rng(spec.seed, _STAGE_COMM_NOISE, trial, f, snr_idx))
                if spec.scheme == "ofdm":
                    hard = baselines.ofdm_detect(y, resp, sigma, cfg, cp)
                elif spec.detector == "oamp":
                    hard = oamp_detect(y, stage, sigma, spec.det).hard_bits
                else:
                    hard = lmmse_detect(y, stage, sigma).hard_bits
                errors += int(np.sum(hard != bits))
            return {"bits": sum(b.size for b, _ in frames), "bit_errors": errors,
                    "nmse_db": nmse_db}

        return point

    def nmse_trial(self, trial: int):
        """Sense one trial's channel; returns its per-point work: the NMSE (dB)
        of the fast estimate and, when feasible, of the exhaustive search."""
        est_cfg = self.est_cfg
        mle_ok = math.comb(len(est_cfg.cells()), est_cfg.p_assumed) <= est_cfg.mle_max_hypotheses
        chan = _draw_channel(self.spec, trial)
        sounding, observe = self._sensing(trial, chan)

        def point(snr_idx):
            y = observe(snr_idx)
            out = {"alg1": nmse(estimate_channel(y, sounding).channel, chan)}
            if mle_ok:
                out["mle"] = nmse(mle_exhaustive(y, sounding).channel, chan)
            return out

        return point

    def run_trial(self, stage, trial: int, points) -> dict:
        """{snr_idx: result} of ``stage`` (``link_trial`` or ``nmse_trial``)
        at every SNR index in ``points``, timed by :class:`SweepRow`'s rule."""
        start = time.perf_counter()
        point = stage(self, trial)
        share = (time.perf_counter() - start) / len(points)
        out = {}
        for i in points:
            t0 = time.perf_counter()
            out[i] = dict(point(i), wall_time_s=share + time.perf_counter() - t0)
        return out


def _run_trials(spec, stage, threads=1, min_bit_errors=math.inf) -> list:
    """Each SNR point's trial results, in trial order.

    Trials go out in order with the points active at hand-out time, at most
    ``threads`` in flight (on a process pool when ``threads > 1``).  A point
    stops once its bit errors reach ``min_bit_errors``; its results from trials
    handed out before that are dropped, so serial and parallel runs keep the
    same trials.  Trials still queued when no point is active are cancelled.
    """
    kept = [[] for _ in spec.snr_grid_db]
    active = list(range(len(spec.snr_grid_db)))
    runner = _TrialRunner(spec)
    spawn = multiprocessing.get_context("spawn")
    with (ProcessPoolExecutor(max_workers=threads, mp_context=spawn) if threads > 1
          else contextlib.nullcontext()) as pool:
        pending = collections.deque()  # futures (pool) or results, in trial order
        next_trial = 0
        try:
            while active and (pending or next_trial < spec.trials):
                while next_trial < spec.trials and len(pending) < max(threads, 1):
                    args = (stage, next_trial, tuple(active))
                    pending.append(pool.submit(runner.run_trial, *args) if pool
                                   else runner.run_trial(*args))
                    next_trial += 1
                res = pending.popleft()
                for i, r in (res.result() if pool else res).items():
                    if i in active:
                        kept[i].append(r)
                        if sum(k.get("bit_errors", 0) for k in kept[i]) >= min_bit_errors:
                            active.remove(i)
        finally:
            for future in pending if pool else ():
                future.cancel()
    return kept


def _row(spec, snr_db, results, detector, csi, nmse_key) -> SweepRow:
    """One CSV row from a point's trial results; NMSE is averaged linearly."""
    bits = sum(r.get("bits", 0) for r in results)
    errors = sum(r.get("bit_errors", 0) for r in results)
    nmse_lin = [10.0 ** (r[nmse_key] / 10.0) for r in results if r.get(nmse_key) is not None]
    return SweepRow(
        scheme=spec.scheme, detector=detector, csi=csi, snr_db=float(snr_db),
        trials_run=len(results), bits=bits, bit_errors=errors,
        ber=(errors / bits) if bits else None,
        nmse_db=float(10.0 * np.log10(np.mean(nmse_lin))) if nmse_lin else None,
        wall_time_s=sum(r["wall_time_s"] for r in results), seed=spec.seed,
        config_hash=config_hash(spec))


def run_sensing_then_comm(spec: ExperimentSpec, threads: int = 1) -> SweepResult:
    """Full sensing-then-communication sweep over the configured SNR grid."""
    kept = _run_trials(spec, _TrialRunner.link_trial, threads, spec.min_bit_errors)
    return SweepResult(rows=[_row(spec, snr_db, rs, spec.detector, spec.csi, "nmse_db")
                             for snr_db, rs in zip(spec.snr_grid_db, kept)])


def run_nmse_sweep(spec: ExperimentSpec) -> SweepResult:
    """Channel estimation error sweep: fast algorithm plus (when feasible)
    the exhaustive search, one row per estimator per SNR point.

    The SNR grid is the sensing SNR.  The observations come from the link's
    sensing stage, so ``spec.fidelity`` applies.
    """
    if spec.scheme == "ofdm":
        raise ValueError("run_nmse_sweep: scheme 'ofdm' has no channel estimate")
    if spec.sensing_snr_db is not None:
        raise ValueError("run_nmse_sweep: sensing_snr_db must be None (the grid is the sensing SNR)")
    kept = _run_trials(spec, _TrialRunner.nmse_trial)
    return SweepResult(rows=[_row(spec, snr_db, rs, name, "estimated", name)
                             for snr_db, rs in zip(spec.snr_grid_db, kept)
                             for name in ("alg1", "mle") if name in rs[0]])


DEFAULT_FRAME = dict(M=64, N=16, delta_f=15e3, f_c=5e9, Q=8)
DEFAULT_SNR_DB = (0.0, 5.0, 10.0, 15.0)
_SECTIONS = {"frame": FrameConfig, "channel": ChannelSpec, "est": EstSpec, "det": OampConfig}


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
        frame=FrameConfig(**dict(DEFAULT_FRAME, **parts["frame"])),
        snr_grid_db=tuple(run.pop("snr_db", DEFAULT_SNR_DB)),
        channel=ChannelSpec(**parts["channel"]), est=EstSpec(**parts["est"]),
        det=OampConfig(**parts["det"]), **run)
