"""Outside-in span tracing of oddmsim entry points.

``Tracer.install`` replaces each listed entry point with a wrapper wherever an
``oddmsim`` module holds a reference to it (methods are replaced on their
class), so calls made from inside other layers are caught too.  Each call
becomes a span (entry, start, end, parent).  ``Tracer.uninstall`` puts the
originals back.  An entry point missing at the commit under test is reported
as absent and its metrics read 0.

Self time is a span's duration minus the time its child spans cover.  A
layer's ``busy_s`` counts only its outermost spans, so it is the time spent
inside the layer including the calls it made into other layers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, entry): the layer is the oddmsim module that defines the entry.
ENTRIES = (
    ("detector", "LinearStage.__init__"),
    ("detector", "LinearStage.solve"),
    ("detector", "LinearStage.solve_with_eps"),
    ("detector", "oamp_detect"),
    ("detector", "lmmse_detect"),
    ("detector", "oamp_nle"),
    ("waveform", "oddm_modulate"),
    ("waveform", "oddm_demodulate"),
    ("waveform", "build_srrc"),
    ("estimator", "estimate_channel"),
    ("estimator", "solve_gains"),
    ("estimator", "nmse"),
    ("effchan", "assemble_H"),
    ("effchan", "EffectiveChannel.apply"),
    ("effchan", "EffectiveChannel.apply_adjoint"),
    ("channel", "gen_eva_channel"),
    ("channel", "gen_synthetic_channel"),
    ("channel", "apply_physical_channel"),
)
LAYERS = ("detector", "waveform", "estimator", "effchan", "channel")
# Entries called hundreds of times per run on the workloads that use them.
# p50/p90 read 0 when a run has fewer than MIN_PERCENTILE_CALLS calls, too
# few for ten samples beyond the 90th percentile.
PERCENTILE_ENTRIES = (
    "detector.LinearStage.solve", "detector.LinearStage.solve_with_eps",
    "detector.oamp_nle", "estimator.solve_gains",
    "effchan.EffectiveChannel.apply", "effchan.EffectiveChannel.apply_adjoint",
)
MIN_PERCENTILE_CALLS = 100
SWEEP = "harness.sweep"

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_s": "s", "p90_s": "s"}
DERIVED = {
    "detector.oamp_iter_s": "s",
    "detector.non_contracting_frac": "1",
    "detector.max_solve_residual": "1",
    "estimator.iterations.mean": "count",
    "estimator.converged_frac": "1",
    "estimator.low_confidence_frac": "1",
    "estimator.ill_conditioned.count": "count",
    "effchan.EffectiveChannel.apply.columns": "count",
    "harness.sweep.self_s": "s",
    "harness.trials_run": "count",
    "trace.overhead_frac": "1",
}


def metric_units() -> dict:
    """Every per-layer metric name the traced run emits, with its unit."""
    out = {}
    for layer, entry in ENTRIES:
        key = f"{layer}.{entry}"
        stats = ("calls", "busy_s", "self_s")
        if key in PERCENTILE_ENTRIES:
            stats += ("p50_s", "p90_s")
        out.update({f"{key}.{s}": _UNITS[s] for s in stats})
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = "s"
        out[f"{layer}.self_s"] = "s"
    out.update(DERIVED)
    return out


# -- counters read from arguments and results --------------------------------

def _count_columns(counters, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counters["apply_columns"] += 1 if np.ndim(x) == 1 else np.shape(x)[1]


def _count_detection(counters, args, kwargs, result):
    counters["max_solve_residual"] = max(counters["max_solve_residual"],
                                         float(getattr(result, "max_solve_residual", 0.0)))


def _count_oamp(counters, args, kwargs, result):
    _count_detection(counters, args, kwargs, result)
    counters["oamp_iterations"] += getattr(result, "iterations_used", 0)
    counters["oamp_non_contracting"] += bool(getattr(result, "non_contracting", False))


def _count_estimate(counters, args, kwargs, result):
    counters["est_iterations"] += getattr(result, "iterations", 0)
    counters["est_converged"] += bool(getattr(result, "converged", False))
    counters["est_low_confidence"] += bool(getattr(result, "low_confidence", False))
    counters["est_ill_conditioned"] += bool(getattr(result, "ill_conditioned", False))


_HOOKS = {
    "effchan.EffectiveChannel.apply": _count_columns,
    "detector.oamp_detect": _count_oamp,
    "detector.lmmse_detect": _count_detection,
    "estimator.estimate_channel": _count_estimate,
}


def dominant_layer(metrics: dict) -> str:
    """The layer with the most busy time."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.busy_s"])


def _oddmsim_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if name == "oddmsim" or name.startswith("oddmsim.")]


def leftover_wrappers() -> list:
    """Names in oddmsim modules and their classes that still hold a wrapper."""
    found = []
    for mname, mod in _oddmsim_modules():
        for attr, val in list(vars(mod).items()):
            if hasattr(val, "_perfbench_original"):
                found.append(f"{mname}.{attr}")
            if isinstance(val, type) and val.__module__ == mname:
                found += [f"{mname}.{attr}.{a}" for a, v in vars(val).items()
                          if hasattr(v, "_perfbench_original")]
    return found


class Tracer:
    def __init__(self):
        self.spans = []          # (key, start, end, parent index, outermost in layer)
        self.counters = defaultdict(float)
        self.absent = []
        self._stack = []
        self._depth = defaultdict(int)
        self._patched = []       # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _enter(self, layer):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        outer = self._depth[layer] == 0
        self._depth[layer] += 1
        return idx, parent, outer, time.perf_counter()

    def _exit(self, key, layer, token):
        end = time.perf_counter()
        idx, parent, outer, start = token
        self._stack.pop()
        self._depth[layer] -= 1
        self.spans[idx] = (key, start, end, parent, outer)

    def call(self, key, layer, fn, *args, **kwargs):
        """Run fn as one span named key."""
        token = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(key, layer, token)

    def _wrap(self, key, layer, original):
        hook = _HOOKS.get(key)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(key, layer, original, *args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        wrapper._perfbench_original = original
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        for layer, entry in ENTRIES:
            key = f"{layer}.{entry}"
            try:
                owner = importlib.import_module(f"oddmsim.{layer}")
            except ImportError:
                self.absent.append(key)
                continue
            *cls_name, attr = entry.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0], None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, layer, original)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for _, mod in _oddmsim_modules():
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- statistics -----------------------------------------------------------

    def metrics(self, trials_run: int, untraced_wall: float, traced_wall: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        durations = defaultdict(list)
        self_s = defaultdict(float)
        layer_busy = defaultdict(float)
        for i, (key, start, end, parent, outer) in enumerate(spans):
            durations[key].append(end - start)
            self_s[key] += end - start - child[i]
            if outer:
                layer_busy[key.split(".", 1)[0]] += end - start
        out = {}
        for layer, entry in ENTRIES:
            key = f"{layer}.{entry}"
            d = durations.get(key, [])
            out[f"{key}.calls"] = len(d)
            out[f"{key}.busy_s"] = float(sum(d))
            out[f"{key}.self_s"] = self_s.get(key, 0.0)
            if key in PERCENTILE_ENTRIES:
                enough = len(d) >= MIN_PERCENTILE_CALLS
                p50, p90 = np.percentile(d, [50, 90]) if enough else (0.0, 0.0)
                out[f"{key}.p50_s"] = float(p50)
                out[f"{key}.p90_s"] = float(p90)
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = layer_busy.get(layer, 0.0)
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{e}.self_s"]
                                         for lay, e in ENTRIES if lay == layer)
        c = self.counters
        oamp_calls = out["detector.oamp_detect.calls"]
        est_calls = out["estimator.estimate_channel.calls"]
        out.update({
            "detector.oamp_iter_s": (out["detector.oamp_detect.busy_s"] / c["oamp_iterations"]
                                     if c["oamp_iterations"] else 0.0),
            "detector.non_contracting_frac": (c["oamp_non_contracting"] / oamp_calls
                                              if oamp_calls else 0.0),
            "detector.max_solve_residual": c["max_solve_residual"],
            "estimator.iterations.mean": c["est_iterations"] / est_calls if est_calls else 0.0,
            "estimator.converged_frac": c["est_converged"] / est_calls if est_calls else 0.0,
            "estimator.low_confidence_frac": (c["est_low_confidence"] / est_calls
                                              if est_calls else 0.0),
            "estimator.ill_conditioned.count": int(c["est_ill_conditioned"]),
            "effchan.EffectiveChannel.apply.columns": int(c["apply_columns"]),
            "harness.sweep.self_s": self_s.get(SWEEP, 0.0),
            "harness.trials_run": trials_run,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        })
        return out

    def span_table(self) -> dict:
        """Spans in a compact form for the trace file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "columns": ["name", "start", "end", "parent"],
                "spans": [[index[k], start, end, parent] for k, start, end, parent, _ in self.spans]}
