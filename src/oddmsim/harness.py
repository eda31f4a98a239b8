"""Monte Carlo harness: sensing-then-communication trials, sweeps, CSV output.

One trial = one channel draw shared by a sensing frame and a burst of
communication frames (time-division: the transmitter first sounds the channel
with a known frame, then sends data over the same realization).  Sweeps run
trial-major: one runner call draws a trial's channel and frames and sends
each frame once without noise, then every SNR point still short of
``min_bit_errors`` adds its own noise, receives and detects, estimating the
channel first only when its sensing draw (below) has no estimate yet.
A trial senses its channel with one known frame, so its
:class:`estimator.Sounding` is built once and every point's estimates share
it; the cyclic prefix and the search window come from the channel model's
support (:func:`channel.eva_support`, :func:`channel.synthetic_support`),
which a spec must fit.  Each model reads its own parameters, and a spec sets no other: EVA
its speed ``v_kmh``, carrier ``f_c`` and subcarrier spacing ``delta_f``, a spec's only physical
units, the synthetic model its path count ``paths`` and window ``l_max``, ``k_max``.  Likewise each
link cell, a (scheme, fidelity) pair, is one row of :data:`_CELLS`, which names the frame fields
its waveform reads (a spec leaves the others at :class:`core.FrameConfig`'s defaults, and a pulse
that is read must fit the grid, :func:`waveform.build_srrc`), its modulator and demodulator, its
detectors and its CSI modes.  A spec sets ``sensing_snr_db`` only with estimated CSI, the
one link that senses.  The estimator looks for the model's own path count, and it and the
OAMP detector stop by module constants (:data:`estimator.MAX_ITERS`,
:data:`estimator.EPSILON`, :data:`detector.MAX_ITERS`, :data:`detector.STOP_TOL`)
that no spec option changes.  The detector's
:class:`detector.LinearStage` is built once per sensing draw, by the first point that
detects on it: once per trial for perfect CSI (the true channel, draw None) and for
estimated CSI at a fixed ``sensing_snr_db`` (one draw, one estimate), once per point
when the sensing SNR follows the grid (each point's own draw and estimate), and never
for a cell whose row names a one-tap equalizer's response (OFDM), which builds that
response once per trial instead.  A trial returns, at
each SNR point, one record per row it feeds (``_Point``: its NMSE, bits, bit
errors and times): the link's under its detector, the NMSE sweep's under each
estimator that ran.  Trials go out in order, serially or to a process pool, and
aggregation keeps each point's records in trial order, so both give the same
rows; one ``_rows`` builds the rows of either sweep, hashing its spec once.

BLAS threads: the window scans and the detector's band solves run on the BLAS that numpy
loads, with its own thread count.  That count is set only through the environment, with
``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``) exported before numpy is first imported,
e.g. ``OPENBLAS_NUM_THREADS=1 python3 run.py``; this package has no in-process switch.  Pool
workers run one BLAS thread each: they spawn with each of ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` that the user left unset at 1, so that two workers
do not contend for the cores.  The rows are the same at one thread and at the default count.
At the default count OpenBLAS's helper thread spins a second core for a whole sweep, woken by
:func:`waveform.oddm_modulate`, :func:`waveform.oddm_demodulate` and the window scans (per
``/proc/self/task``, 2 Xeon CPUs: 2.47 s of CPU in a 2.50 s link sweep, 2.42 s in a 2.51 s
sensing sweep).

Seed derivation: every random draw uses
``numpy.random.SeedSequence((master_seed, stage_tag, trial, ...))`` with
documented integer stage tags, so adding SNR points or threads never shifts
any other draw.  Channel and frame draws are shared across SNR points
(common random numbers); only the noise depends on the SNR index.  The sensing
noise does only when the sensing SNR follows the grid, keyed
``(seed, 3, trial, snr_idx)``; at a fixed ``sensing_snr_db`` a trial makes one
sensing draw, keyed ``(seed, 3, trial, 0)``, that every point shares.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import baselines, channel, detector, estimator, waveform
from .channel import add_awgn, apply_physical_channel, snr_to_noise_var
from .core import FrameConfig, random_frame, require_count, require_real
from .effchan import EffectiveChannel
from .estimator import EstimationConfig, Sounding, estimate_channel, mle_exhaustive, nmse
from .waveform import SampleStream, build_srrc

# stage tags for seed derivation
_STAGE_CHANNEL = 1
_STAGE_SENSE_BITS = 2
_STAGE_SENSE_NOISE = 3
_STAGE_COMM_BITS = 4
_STAGE_COMM_NOISE = 5
# the thread counts of the BLAS and OpenMP libraries numpy may load, read as they load
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one row per link cell (scheme, fidelity): the pulse and sampling fields of FrameConfig its
# waveform reads; its modulator and demodulator (none at matrix fidelity; OFDM has no demodulator,
# as its one-tap equalizer reads the stream, given the channel's per-subcarrier response); its
# detectors and CSI modes.  A function is a (module, name) pair, looked up as it runs, so that a
# wrapper put on the module sees each call
_Cell = collections.namedtuple("_Cell", "reads modulate demodulate response detectors csi")
_PULSE = ("Q", "rolloff", "oversampling")  # every pulse and sampling field of FrameConfig
_LINEAR = {"oamp": (detector, "oamp_detect"), "lmmse": (detector, "lmmse_detect")}
CSI_MODES = ("perfect", "estimated")
_CELLS = {("oddm", "matrix"): _Cell((), None, None, None, _LINEAR, CSI_MODES),
          ("oddm", "waveform"): _Cell(_PULSE, (waveform, "oddm_modulate"),
                                      (waveform, "oddm_demodulate"), None, _LINEAR, CSI_MODES),
          ("otfs", "waveform"): _Cell(("oversampling",), (baselines, "otfs_modulate"),
                                      (baselines, "otfs_demodulate"), None, _LINEAR, CSI_MODES),
          ("ofdm", "waveform"): _Cell(("oversampling",), (baselines, "ofdm_modulate"), None,
                                      (baselines, "ofdm_freq_response"),
                                      {"lmmse": (baselines, "ofdm_detect")}, ("perfect",))}
SCHEMES, FIDELITIES = (tuple(dict.fromkeys(names)) for names in zip(*_CELLS))
DETECTORS = tuple(_LINEAR)
# one row per channel model: its support and generator in :mod:`channel`, by name so that a
# wrapper put on the module sees each call, and its own parameters with their defaults
_Model = collections.namedtuple("_Model", "support draw params")
_MODELS = {"eva": _Model("eva_support", "gen_eva_channel",
                         {"v_kmh": 350.0, "f_c": 5e9, "delta_f": 15e3}),
           "synthetic": _Model("synthetic_support", "gen_synthetic_channel",
                               {"paths": 3, "l_max": None, "k_max": None})}
CHANNEL_MODELS = tuple(_MODELS)
# one trial's record at one SNR point for one row (the link's detector, or one estimator of the
# NMSE sweep); own_s times the work of this row alone (its estimator's search), and
# _TrialRunner.run_trial sets wall_time_s
_Point = collections.namedtuple("_Point", "nmse_db bits bit_errors own_s wall_time_s",
                                defaults=(0, 0, 0.0, 0.0))


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
    delta_f: float | None = None    # eva: subcarrier spacing in Hz
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
            if isinstance(default, float):
                value = require_real(name, value)
            elif isinstance(value, np.integer):  # a count, checked by the support
                value = int(value)
            object.__setattr__(self, name, value)

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
        # as ints, so that np.int64(5) hashes as 5; a point stops once its errors reach
        # min_bit_errors, so 0 would stop every point after its first trial, as trials 1 does
        for name, least in (("trials", 1), ("frames_per_trial", 1), ("min_bit_errors", 1),
                            ("seed", 0)):  # numpy's least
            object.__setattr__(self, name, require_count(name, getattr(self, name), least))
        if not isinstance(self.snr_grid_db, (list, tuple)) or not self.snr_grid_db:
            raise ValueError(f"snr_grid_db must be a nonempty list or tuple of SNRs in dB, "
                             f"got {self.snr_grid_db!r}")
        # floats, so that equal SNRs hash alike however they were given
        object.__setattr__(self, "snr_grid_db",
                           tuple(require_real("snr_grid_db", v) for v in self.snr_grid_db))
        if self.sensing_snr_db is not None:
            object.__setattr__(self, "sensing_snr_db",
                               require_real("sensing_snr_db", self.sensing_snr_db))
        sensing = () if self.sensing_snr_db is None else (self.sensing_snr_db,)
        for name, values in (("snr_grid_db", self.snr_grid_db), ("sensing_snr_db", sensing)):
            for snr_db in values:  # +inf is the noiseless case
                try:
                    snr_to_noise_var(snr_db)
                except ValueError as exc:
                    raise ValueError(f"{name} entry {snr_db!r} is not an SNR: {exc}") from None
        cell = _CELLS.get((self.scheme, self.fidelity))
        if cell is None:
            raise ValueError(f"fidelity {self.fidelity} has no {self.scheme} cell: {list(_CELLS)}")
        for name in _PULSE:
            value = getattr(self.frame, name)
            if name not in cell.reads and value != getattr(FrameConfig, name):  # not its default
                raise ValueError(f"{name} {value!r} is not read by {self.scheme} at "
                                 f"{self.fidelity} fidelity, which would ignore it")
        if "Q" in cell.reads:
            build_srrc(self.frame)  # the pulse must fit the grid
        if self.sensing_snr_db is not None and self.csi != "estimated":
            raise ValueError(f"sensing_snr_db {self.sensing_snr_db!r} is read only with csi "
                             f"estimated: a {self.csi}-CSI link never senses")
        for name, allowed in (("detector", cell.detectors), ("csi", cell.csi)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} {getattr(self, name)} is not run by the {self.scheme} "
                                 f"{self.fidelity} cell, which runs {name} {list(allowed)}")
        # an off-grid channel fails here, not in a trial, and so does a search window too small
        # for its paths: the link estimates with csi estimated, run_nmse_sweep whatever csi says
        runner = _TrialRunner(self)
        if "estimated" in cell.csi:
            runner.est_cfg


def config_hash(spec: ExperimentSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


@dataclass
class SweepRow:
    """One SNR point of a sweep (one estimator's, in an NMSE sweep).

    ``wall_time_s`` sums, over the trials the point kept, the point's own
    noise, receive, estimate and detect time (in an NMSE row, of its own
    estimator only) plus an equal share of the trial's draw and send time;
    both are measured where the trial runs (:meth:`_TrialRunner.run_trial`).
    A stage that a trial's points share (perfect CSI's, the OFDM one-tap response, or the
    one estimate's at a fixed ``sensing_snr_db``) is built by the first point the trial
    runs, its lowest active SNR index, whose time pays for it.
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

    @property
    def cell(self) -> _Cell:
        return _CELLS[self.spec.scheme, self.spec.fidelity]

    @functools.cached_property
    def est_cfg(self) -> EstimationConfig:
        """The channel model's path count, searched for in delays 0..l_max and Dopplers
        -k_max..k_max: l_max the cyclic prefix, k_max the Doppler spread plus a margin."""
        ch = self.spec.channel
        # EVA's spread and an explicit k_max get a one-bin Doppler margin where no drawn path
        # lies, the default synthetic window none: kept apart, as changing a window moves the
        # estimates of every spec it touches (sense-syn-128x32 pins a default one at 34 x 17).
        margin = 0 if ch.model == "synthetic" and ch.k_max is None else 1
        k_lim = min(self.cfg.doppler_range[1], math.ceil(self.k_spread) + margin)
        return EstimationConfig(frame=self.cfg, p_assumed=self.paths, l_max=self.cp, k_max=k_lim)

    def _send(self, frame, chan):
        """Noiseless received signal of one frame: ``chan.apply(s)`` (matrix
        fidelity) or the frame's sample stream through the paths of ``chan``."""
        if self.cell.modulate is None:
            return chan.apply(frame)
        return apply_physical_channel(getattr(*self.cell.modulate)(frame, self.cfg, self.cp), chan)

    def _observe(self, rx, noise_var, noise_rng):
        """What the receiver sees of ``_send``'s output at ``noise_var``: the DD
        observation vector, or for a cell without a demodulator the noisy sample stream."""
        if self.cell.modulate is None:
            return add_awgn(rx, noise_var, noise_rng)
        rx = SampleStream(add_awgn(rx.samples, noise_var, noise_rng), rx.start)
        if self.cell.demodulate is None:
            return rx
        return getattr(*self.cell.demodulate)(rx, self.cfg)

    def _sensing(self, trial: int, chan):
        """The trial's :class:`Sounding` and ``observe(draw)``, the sensing observation y of
        noise draw ``draw``: at ``sensing_snr_db`` when the spec sets it, else at the grid SNR
        of index ``draw``; the sensing frame is drawn and sent once."""
        spec = self.spec
        _, frame = random_frame(self.cfg, derive_rng(spec.seed, _STAGE_SENSE_BITS, trial))
        rx = self._send(frame, chan)

        def observe(draw):
            snr_db = spec.snr_grid_db[draw] if spec.sensing_snr_db is None \
                else spec.sensing_snr_db
            noise_rng = derive_rng(spec.seed, _STAGE_SENSE_NOISE, trial, draw)
            return self._observe(rx, snr_to_noise_var(snr_db), noise_rng)

        return Sounding(self.est_cfg, frame), observe

    def link_trial(self, trial: int):
        """Draw and send one link trial; returns its per-point work: receive every frame and
        detect it on the stage of the point's sensing draw, which ``detected_on(draw)`` builds
        with its NMSE (dB).  Draw None (perfect CSI) is the true channel, with no NMSE; an
        integer draw is the estimate from ``observe(draw)``: the point's SNR index when the
        sensing SNR follows the grid, the trial's one draw 0 at a fixed ``sensing_snr_db``."""
        spec, cfg, cell = self.spec, self.cfg, self.cell
        chan = _draw_channel(spec, trial)
        frames = [random_frame(cfg, derive_rng(spec.seed, _STAGE_COMM_BITS, trial, f))
                  for f in range(spec.frames_per_trial)]
        sent = [self._send(frame, chan) for _, frame in frames]
        detect = getattr(*cell.detectors[spec.detector])
        if spec.csi == "estimated":
            sounding, observe = self._sensing(trial, chan)

        # one entry: points ask for a shared draw one after another, and never again for a
        # point's own draw, whose stage would otherwise stay alive until the trial ends
        @functools.lru_cache(maxsize=1)
        def detected_on(draw):
            H = chan if draw is None else estimate_channel(observe(draw), sounding).channel
            if cell.response is not None:  # a one-tap equalizer, with perfect CSI only
                return getattr(*cell.response)(H, self.cp), None
            return detector.LinearStage(H), None if draw is None else nmse(H, chan)

        def point(snr_idx):
            noise_var = snr_to_noise_var(spec.snr_grid_db[snr_idx])
            sigma = max(noise_var, 1e-12)
            stage, nmse_db = detected_on(None if spec.csi == "perfect" else
                                         snr_idx if spec.sensing_snr_db is None else 0)
            errors = 0
            for f, ((bits, _), rx) in enumerate(zip(frames, sent)):
                y = self._observe(rx, noise_var,
                                  derive_rng(spec.seed, _STAGE_COMM_NOISE, trial, f, snr_idx))
                hard = detect(y, stage, sigma).hard_bits if cell.response is None \
                    else detect(y, stage, sigma, cfg, self.cp)
                errors += int(np.sum(hard != bits))
            return {spec.detector: _Point(nmse_db, sum(b.size for b, _ in frames), errors)}

        return point

    def nmse_trial(self, trial: int):
        """Sense one trial's channel; returns its per-point work: the NMSE (dB)
        of the fast estimate and, when feasible, of the exhaustive search."""
        mle_ok = self.est_cfg.hypotheses <= estimator.MLE_MAX_HYPOTHESES
        chan = _draw_channel(self.spec, trial)
        sounding, observe = self._sensing(trial, chan)

        def point(snr_idx):
            y, out = observe(snr_idx), {}
            for name, search in (("alg1", estimate_channel), ("mle", mle_exhaustive))[:1 + mle_ok]:
                t0 = time.perf_counter()
                nmse_db = nmse(search(y, sounding).channel, chan)
                out[name] = _Point(nmse_db, own_s=time.perf_counter() - t0)
            return out

        return point

    def run_trial(self, stage, trial: int, points) -> dict:
        """{snr_idx: {row name: _Point}} of ``stage`` (``link_trial`` or ``nmse_trial``) at
        every SNR index in ``points``.  Each record's ``wall_time_s`` is the trial's draw and
        send time over ``len(points)``, plus the point's time less every record's ``own_s``
        (the work its rows share), plus the record's own ``own_s``."""
        start = time.perf_counter()
        point = stage(self, trial)
        share = (time.perf_counter() - start) / len(points)
        out = {}
        for i in points:
            t0 = time.perf_counter()
            records = point(i)
            shared = share + time.perf_counter() - t0 - sum(p.own_s for p in records.values())
            out[i] = {name: p._replace(wall_time_s=shared + p.own_s) for name, p in records.items()}
        return out


@contextlib.contextmanager
def _one_blas_thread():
    """Set each of ``_BLAS_THREADS`` that the environment lacks to "1" while the block runs,
    for the pool workers it spawns; a value already set is left alone."""
    unset = [name for name in _BLAS_THREADS if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for name in unset:
            os.environ.pop(name, None)


def _run_trials(spec, stage, threads=1, min_bit_errors=math.inf) -> list:
    """Each SNR point's trial results (``{row name: _Point}``), in trial order.

    Trials go out in order with the points active at hand-out time, at most
    ``threads`` in flight (on a process pool when ``threads > 1``).  A point
    stops once its bit errors reach ``min_bit_errors``; its results from trials
    handed out before that are dropped, so serial and parallel runs keep the
    same trials.  Trials still queued when no point is active are cancelled.  The workers
    start with one BLAS thread each (:func:`_one_blas_thread`).
    """
    kept = [[] for _ in spec.snr_grid_db]
    errors = [0] * len(kept)  # each point's bit errors over its kept trials
    active = list(range(len(spec.snr_grid_db)))
    runner = _TrialRunner(spec)
    with contextlib.ExitStack() as stack:
        pool = None
        if threads > 1:
            # only a pool loads the pool modules; serial sweeps never need them
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            stack.enter_context(_one_blas_thread())  # unwound after the pool's shutdown
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=threads, mp_context=multiprocessing.get_context("spawn")))
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
                        errors[i] += sum(p.bit_errors for p in r.values())
                        if errors[i] >= min_bit_errors:
                            active.remove(i)
        finally:
            for future in pending if pool else ():
                future.cancel()
    return kept


def _rows(spec, csi, kept) -> list:
    """The CSV rows of a sweep, one per SNR point and row name, from each point's records (one
    per trial kept); NMSE is averaged linearly, and the spec is hashed once."""
    digest = config_hash(spec)

    def row(snr_db, name, points):
        bits, errors = sum(p.bits for p in points), sum(p.bit_errors for p in points)
        nmse_lin = [10.0 ** (p.nmse_db / 10.0) for p in points if p.nmse_db is not None]
        return SweepRow(
            scheme=spec.scheme, detector=name, csi=csi, snr_db=float(snr_db),
            trials_run=len(points), bits=bits, bit_errors=errors,
            ber=(errors / bits) if bits else None,
            nmse_db=float(10.0 * np.log10(np.mean(nmse_lin))) if nmse_lin else None,
            wall_time_s=sum(p.wall_time_s for p in points), seed=spec.seed, config_hash=digest)
    return [row(snr_db, name, [r[name] for r in rs])
            for snr_db, rs in zip(spec.snr_grid_db, kept) for name in rs[0]]


def run_sensing_then_comm(spec: ExperimentSpec, threads: int = 1) -> SweepResult:
    """Full sensing-then-communication sweep over the configured SNR grid, ``threads``
    trials at a time (on a process pool when more than one)."""
    require_count("threads", threads)
    kept = _run_trials(spec, _TrialRunner.link_trial, threads, spec.min_bit_errors)
    return SweepResult(rows=_rows(spec, spec.csi, kept))


def run_nmse_sweep(spec: ExperimentSpec) -> SweepResult:
    """Channel estimation error sweep: fast algorithm plus (when feasible)
    the exhaustive search, one row per estimator per SNR point.

    The SNR grid is the sensing SNR.  The observations come from the link's
    sensing stage, so ``spec.fidelity`` applies.  It runs and hashes the spec
    with the fields it never reads at their defaults.
    """
    if "estimated" not in _CELLS[spec.scheme, spec.fidelity].csi:
        raise ValueError(f"run_nmse_sweep: scheme {spec.scheme!r} has no channel estimate")
    if spec.sensing_snr_db is not None:
        raise ValueError("run_nmse_sweep: sensing_snr_db must be None (the grid is the sensing SNR)")
    spec = replace(spec, **{f.name: f.default for f in fields(ExperimentSpec)
                            if f.name in ("detector", "csi", "frames_per_trial", "min_bit_errors")})
    kept = _run_trials(spec, _TrialRunner.nmse_trial)
    return SweepResult(rows=_rows(spec, "estimated", kept))


DEFAULT_FRAME = dict(M=64, N=16)
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
