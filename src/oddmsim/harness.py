"""Monte Carlo harness: sensing-then-communication trials, sweeps, CSV output.

One trial = one channel draw shared by a sensing frame and a burst of
communication frames (time-division: the transmitter first sounds the channel
with a known frame, then sends data over the same realization).  Sweeps run
trial-major: one runner call draws a trial's channel and frames and sends
each frame once without noise, then every SNR point still short of
``min_bit_errors`` adds its own noise, receives, estimates and detects.
A trial senses its channel with one known frame, so its
:class:`estimator.Sounding` is built once and every point's estimates share
it; the cyclic prefix and the search window come from the channel model's
support (:func:`channel.eva_support`, :func:`channel.synthetic_support`),
which a spec must fit.  Each model reads its own parameters, and a spec sets no other:
EVA reads the speed ``v_kmh`` and the carrier ``f_c``, the synthetic model its path count
``paths`` and its window ``l_max``, ``k_max`` (:class:`ChannelSpec`).  Likewise a spec sets
``sensing_snr_db`` only with estimated CSI, the one link that senses.  The
estimator looks for the model's own path count, and
it and the OAMP detector stop by module constants (:data:`estimator.MAX_ITERS`,
:data:`estimator.EPSILON`, :data:`detector.MAX_ITERS`, :data:`detector.STOP_TOL`)
that no spec option changes.  The detector's
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
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import baselines, channel, estimator
from .channel import add_awgn, apply_physical_channel, snr_to_noise_var
from .core import FrameConfig, random_frame, require_count, require_real, vectorize
from .detector import LinearStage, lmmse_detect, oamp_detect
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
# one row per channel model: its support and generator in :mod:`channel`, by name so that a
# wrapper put on the module sees each call, and its own parameters with their defaults
_Model = collections.namedtuple("_Model", "support draw params")
_MODELS = {"eva": _Model("eva_support", "gen_eva_channel", {"v_kmh": 350.0, "f_c": 5e9}),
           "synthetic": _Model("synthetic_support", "gen_synthetic_channel",
                               {"paths": 3, "l_max": None, "k_max": None})}
CHANNEL_MODELS = tuple(_MODELS)


@dataclass(frozen=True)
class ChannelSpec:
    """A channel model and its own parameters.  A parameter the model does not read must be
    None; one it reads and is not given gets the model's default, stored (a float default's
    parameter as a float), so that an omitted default and a written one hash alike.  The
    values are checked by the model's support (:func:`channel.eva_support`,
    :func:`channel.synthetic_support`), which every :class:`ExperimentSpec` runs."""

    model: str = "eva"              # eva | synthetic
    v_kmh: float | None = None      # eva: user speed in km/h
    f_c: float | None = None        # eva: carrier frequency in Hz
    paths: int | None = None        # synthetic: path count
    l_max: int | None = None        # synthetic: last delay bin of the window
    k_max: int | None = None        # synthetic: largest |Doppler bin| of the window

    def __post_init__(self):
        if self.model not in CHANNEL_MODELS:
            raise ValueError(f"unknown channel model {self.model!r}")
        own = _MODELS[self.model].params
        for name in (f.name for f in fields(self) if f.name != "model"):
            value, default = getattr(self, name), own.get(name)
            if name not in own and value is not None:
                raise ValueError(f"{name} {value!r} is not a parameter of the {self.model} "
                                 f"channel, which would ignore it")
            value = default if value is None else value
            object.__setattr__(self, name, require_real(name, value)
                               if isinstance(default, float) else value)

    def call(self, role: str, config: FrameConfig, **kwargs):
        """The model's ``support`` or ``draw`` on ``config``, its own parameters as keywords."""
        row = _MODELS[self.model]
        own = {name: getattr(self, name) for name in row.params}
        return getattr(channel, getattr(row, role))(config, **own, **kwargs)


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

    def __post_init__(self):
        for name, allowed in (("scheme", SCHEMES), ("detector", DETECTORS),
                              ("csi", CSI_MODES), ("fidelity", FIDELITIES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("trials", "frames_per_trial"):
            require_count(name, getattr(self, name))
        require_count("seed", self.seed, least=0)  # numpy seeds are non-negative integers
        require_count("min_bit_errors", self.min_bit_errors, least=0)
        if not isinstance(self.snr_grid_db, (list, tuple)) or not self.snr_grid_db:
            raise ValueError(f"snr_grid_db must be a nonempty list or tuple of SNRs in dB, "
                             f"got {self.snr_grid_db!r}")
        sensing = () if self.sensing_snr_db is None else (self.sensing_snr_db,)
        for name, values in (("snr_grid_db", self.snr_grid_db), ("sensing_snr_db", sensing)):
            for v in values:
                if require_real(name, v) == -math.inf:  # +inf is the noiseless case
                    raise ValueError(f"{name} entry {v!r} is not an SNR")
        # a tuple of floats, so that equal grids hash alike however they were given
        object.__setattr__(self, "snr_grid_db", tuple(float(v) for v in self.snr_grid_db))
        if self.scheme != "oddm" and self.fidelity == "matrix":
            raise ValueError(f"fidelity matrix is the oddm grid model, not {self.scheme}")
        if self.sensing_snr_db is not None and self.csi != "estimated":
            raise ValueError(f"sensing_snr_db {self.sensing_snr_db!r} is read only with csi "
                             f"estimated: a {self.csi}-CSI link never senses")
        if self.scheme == "ofdm":
            if self.csi != "perfect":
                raise ValueError("the ofdm baseline supports csi=perfect only")
            if self.detector != "lmmse":
                raise ValueError("detector must be lmmse: ofdm equalizes per subcarrier")
        # an off-grid channel fails here, not in a trial, and so does a search window too small
        # for its paths: the link estimates with csi estimated, run_nmse_sweep whatever csi says
        runner = _TrialRunner(self)
        if self.scheme != "ofdm":
            runner.est_cfg


def config_hash(spec: ExperimentSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


@dataclass
class SweepRow:
    """One SNR point of a sweep (one estimator's, in an NMSE sweep).

    ``wall_time_s`` sums, over the trials the point kept, the point's own
    noise, receive, estimate and detect time (in an NMSE row, of its own
    estimator only) plus an equal share of the trial's draw and send time;
    both are measured where the trial runs.
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
    return spec.channel.call("draw", spec.frame,
                             rng_seed=derive_rng(spec.seed, _STAGE_CHANNEL, trial))


class _TrialRunner:
    """Per-spec state (cyclic prefix, estimator config) and the stages of one trial."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.cfg = spec.frame
        self.paths, l_max, self.k_spread = spec.channel.call("support", self.cfg)
        # one chip more than the largest delay bin; M - 1 still covers every bin on the grid
        self.cp = min(self.cfg.M - 1, l_max + 1)

    @functools.cached_property
    def est_cfg(self) -> EstimationConfig:
        """The channel model's path count, searched for in a window of delay bins up to the
        cyclic prefix and of the Doppler spread plus a margin."""
        ch = self.spec.channel
        # EVA's spread and an explicit k_max get a one-bin Doppler margin where no drawn path
        # lies, the default synthetic window none: kept apart, as changing a window moves the
        # estimates of every spec it touches (sense-syn-128x32 pins a default one at 34 x 17).
        margin = 0 if ch.model == "synthetic" and ch.k_max is None else 1
        k_lim = min(self.cfg.doppler_range[1], math.ceil(self.k_spread) + margin)
        return EstimationConfig(frame=self.cfg, p_assumed=self.paths, l_range=(0, self.cp + 1),
                                k_range=(-k_lim, k_lim + 1))

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
            st = baselines.ofdm_modulate(frame, cfg, self.cp)
        return apply_physical_channel(st, chan)

    def _observe(self, rx, noise_var, noise_rng):
        """What the receiver sees of ``_send``'s output at ``noise_var``: the
        DD observation vector, or for OFDM the noisy sample stream."""
        spec, cfg = self.spec, self.cfg
        if spec.fidelity == "matrix":
            return add_awgn(rx, noise_var, noise_rng)
        rx = SampleStream(add_awgn(rx.samples, noise_var, noise_rng), rx.rate, rx.start)
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
            resp = baselines.ofdm_freq_response(chan, cfg, self.cp)
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
                    hard = baselines.ofdm_detect(y, resp, sigma, cfg, self.cp)
                elif spec.detector == "oamp":
                    hard = oamp_detect(y, stage, sigma).hard_bits
                else:
                    hard = lmmse_detect(y, stage, sigma).hard_bits
                errors += int(np.sum(hard != bits))
            return {"bits": sum(b.size for b, _ in frames), "bit_errors": errors,
                    "nmse_db": nmse_db}

        return point

    def nmse_trial(self, trial: int):
        """Sense one trial's channel; returns its per-point work: the NMSE (dB)
        of the fast estimate and, when feasible, of the exhaustive search."""
        mle_ok = self.est_cfg.hypotheses <= estimator.MLE_MAX_HYPOTHESES
        chan = _draw_channel(self.spec, trial)
        sounding, observe = self._sensing(trial, chan)

        def point(snr_idx):
            y, out = observe(snr_idx), {"own_s": {}}  # own_s: _row counts each in its row only
            for name, search in (("alg1", estimate_channel), ("mle", mle_exhaustive))[:1 + mle_ok]:
                t0 = time.perf_counter()
                out[name] = nmse(search(y, sounding).channel, chan)
                out["own_s"][name] = time.perf_counter() - t0
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
    context = contextlib.nullcontext()
    if threads > 1:
        # only a pool loads the pool modules; serial sweeps never need them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = ProcessPoolExecutor(max_workers=threads,
                                      mp_context=multiprocessing.get_context("spawn"))
    with context as pool:
        pending = collections.deque()  # futures (pool) or results, in trial order
        next_trial = 0
        try:
            while active and (pending or next_trial < spec.trials):
                while next_trial < spec.trials and len(pending) < threads:
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
        wall_time_s=sum(r["wall_time_s"] - sum(t for key, t in r.get("own_s", {}).items()
                                               if key != nmse_key) for r in results),
        seed=spec.seed, config_hash=config_hash(spec))


def run_sensing_then_comm(spec: ExperimentSpec, threads: int = 1) -> SweepResult:
    """Full sensing-then-communication sweep over the configured SNR grid, ``threads``
    trials at a time (on a process pool when more than one)."""
    require_count("threads", threads)
    kept = _run_trials(spec, _TrialRunner.link_trial, threads, spec.min_bit_errors)
    return SweepResult(rows=[_row(spec, snr_db, rs, spec.detector, spec.csi, "nmse_db")
                             for snr_db, rs in zip(spec.snr_grid_db, kept)])


def run_nmse_sweep(spec: ExperimentSpec) -> SweepResult:
    """Channel estimation error sweep: fast algorithm plus (when feasible)
    the exhaustive search, one row per estimator per SNR point.

    The SNR grid is the sensing SNR.  The observations come from the link's
    sensing stage, so ``spec.fidelity`` applies.  It runs and hashes the spec
    with the fields it never reads at their defaults.
    """
    if spec.scheme == "ofdm":
        raise ValueError("run_nmse_sweep: scheme 'ofdm' has no channel estimate")
    if spec.sensing_snr_db is not None:
        raise ValueError("run_nmse_sweep: sensing_snr_db must be None (the grid is the sensing SNR)")
    spec = replace(spec, **{f.name: f.default for f in fields(ExperimentSpec)
                            if f.name in ("detector", "csi", "frames_per_trial", "min_bit_errors")})
    kept = _run_trials(spec, _TrialRunner.nmse_trial)
    return SweepResult(rows=[_row(spec, snr_db, rs, name, "estimated", name)
                             for snr_db, rs in zip(spec.snr_grid_db, kept)
                             for name in ("alg1", "mle") if name in rs[0]])


DEFAULT_FRAME = dict(M=64, N=16, delta_f=15e3, Q=8)
DEFAULT_SNR_DB = (0.0, 5.0, 10.0, 15.0)
_SECTIONS = {"frame": FrameConfig, "channel": ChannelSpec}


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
        snr_grid_db=run.pop("snr_db", DEFAULT_SNR_DB),
        channel=ChannelSpec(**parts["channel"]), **run)
