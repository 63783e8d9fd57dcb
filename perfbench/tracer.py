"""Outside-in instrumentation of pherotrack.

Nothing in the package is edited.  For the duration of a ``with Probe(...)``
block each instrumented function is replaced by a wrapper installed in the
namespace its caller looks it up from: the package imports names directly,
so ``tracking.combined_estimate`` is patched as ``harness.combined_estimate``
and as ``agent.combined_estimate``, which also splits it by caller.

An untraced probe only timestamps the end of set-up and each team step (at
the ``world.step_dynamics`` boundary).  A traced probe also records a span
per call, keeps the spans in memory, counts calls, and samples per-agent
state sizes at each step boundary.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

# Layers with spans.  The estimation layer is only counted (see COUNTS), so
# its time shows in its callers' self time.
LAYERS = ("world", "sensing", "tracking", "pheromone", "agent", "baselines",
          "harness")

# (span name, namespace the caller looks the name up in, attribute).  A
# namespace of the form "module:Class" patches the class attribute, so every
# instance's method goes through the wrapper.
SPANS = (
    ("world.deliver_broadcasts", "pherotrack.world", "deliver_broadcasts"),
    ("world.sense_targets", "pherotrack.world", "sense_targets"),
    ("world.sense_displacement", "pherotrack.world", "sense_displacement"),
    ("world.step_dynamics", "pherotrack.world", "step_dynamics"),
    ("sensing.interpolate_cov", "pherotrack.harness", "interpolate_cov"),
    ("sensing.best_viewpoint", "pherotrack.agent", "best_viewpoint"),
    ("tracking.update_storage", "pherotrack.agent", "update_storage"),
    ("tracking.select_target", "pherotrack.agent", "select_target"),
    ("tracking.combined_estimate.h_metric", "pherotrack.harness",
     "combined_estimate"),
    ("tracking.combined_estimate.exploit", "pherotrack.agent",
     "combined_estimate"),
    ("pheromone.update_pheromones", "pherotrack.pheromone",
     "update_pheromones"),
    ("pheromone.delta_map", "pherotrack.pheromone", "delta_map"),
    ("pheromone.diffuse_region", "pherotrack.pheromone", "diffuse_region"),
    ("pheromone.build_map", "pherotrack.pheromone", "build_map"),
    ("pheromone.exploration_waypoint", "pherotrack.pheromone",
     "exploration_waypoint"),
    ("pheromone.pheromone_value_at", "pherotrack.pheromone",
     "pheromone_value_at"),
    ("agent.step", "pherotrack.agent:AgentBrain", "step"),
    ("agent.negative_info", "pherotrack.agent:AgentBrain",
     "_apply_negative_info"),
    ("agent.pheromone_waypoint", "pherotrack.agent:AgentBrain",
     "_pheromone_waypoint"),
    ("agent.pd_control", "pherotrack.agent", "pd_control"),
    ("agent.snapshot_packet", "pherotrack.agent:AgentBrain",
     "snapshot_packet"),
    ("baselines.levy_waypoint", "pherotrack.harness", "levy_waypoint"),
    ("harness.objective_H", "pherotrack.harness", "objective_H"),
    ("harness.build_brains", "pherotrack.harness", "build_brains"),
)
ROOT_SPAN = "harness.simulate_run"
# Time the probe spends sampling state sizes; kept out of every layer.
SAMPLE_SPAN = "perfbench.sample"

# Counted but not timed: each call lasts a few microseconds, about what a
# span costs, so a span would swamp what it measures.
COUNTS = (
    ("estimation.fuse", "pherotrack.tracking", "fuse"),
    ("estimation.propagate", "pherotrack.tracking", "propagate"),
    ("estimation.GaussianEstimate",
     "pherotrack.estimation:GaussianEstimate", "__post_init__"),
)

# The hooks an untraced probe needs for set-up and step timestamps.
_UNTRACED = ("harness.build_brains", "world.step_dynamics")


def _resolve(where):
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Probe:
    """Hooks into the package for one or more operations.

    Per operation (reset by :meth:`call`): ``stamps`` holds perf_counter_ns
    at the call, at the end of set-up and after every team step, and
    ``counts`` the call counts, packet/detection totals and summed state
    sizes.  ``spans`` accumulates ``[name, start_ns, end_ns, parent_index]``
    over every operation the probe ran.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []
        self.stamps = []
        self.counts = Counter()
        self._stack = []
        self._brains = ()
        self._saved = []
        self._post = {
            "harness.build_brains": self._on_brains,
            "world.step_dynamics": self._on_step,
            "world.deliver_broadcasts": self._on_packets,
            "world.sense_targets": self._on_detections,
        }
        self._sample = self._span(SAMPLE_SPAN, self._sample_sizes)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        targets = SPANS if self.traced else \
            [t for t in SPANS if t[0] in _UNTRACED]
        hooks = [(name, where, attr, self._wrap)
                 for name, where, attr in targets]
        if self.traced:
            hooks += [(name, where, attr, self._counter)
                      for name, where, attr in COUNTS]
        for name, where, attr, make in hooks:
            owner = _resolve(where)
            orig = owner.__dict__.get(attr)
            if orig is None:
                # A metric of a hook that is gone would read zero, which looks
                # like a gain: refuse to measure instead.
                self.__exit__()
                raise LookupError(
                    f"perfbench: {where}.{attr} (span {name}) is gone from "
                    f"the package; point tracer.SPANS/COUNTS at its new home")
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, make(name, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def call(self, fn, *args, **kwargs):
        """Run one operation under the probe (as the root span if traced)."""
        self.counts = Counter()
        self._brains = ()
        if self.traced:
            fn = self._span(ROOT_SPAN, fn)
        self.stamps = [time.perf_counter_ns()]
        return fn(*args, **kwargs)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def span(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return span

    def _wrap(self, name, fn):
        inner = self._span(name, fn) if self.traced else fn
        post = self._post.get(name)

        def hooked(*args, **kwargs):
            if self.traced:
                self.counts[name] += 1
            out = inner(*args, **kwargs)
            if post is not None:
                post(out)
            return out
        return hooked

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- post hooks ---------------------------------------------------------

    def _on_brains(self, out):
        self._brains = out[0]
        self.stamps.append(time.perf_counter_ns())

    def _on_step(self, _out):
        self.stamps.append(time.perf_counter_ns())
        if self.traced:
            self._sample()

    def _on_packets(self, rx):
        self.counts["world.packets"] += sum(len(v) for v in rx.values())

    def _on_detections(self, dets):
        self.counts["world.detections"] += len(dets)

    def _sample_sizes(self):
        c = self.counts
        for b in self._brains:
            c["size.agent_samples"] += 1
            c["size.deposits"] += len(b.own_pheromones) + sum(
                len(p) for p in b.neighbor_pheromones.values())
            c["size.local_records"] += len(b.local_targets.records)
            c["size.neighbor_records"] += sum(
                len(n.records) for n in b.neighbor_targets.values())


def self_times(spans):
    """Per-span self time in ns: duration minus its direct children's."""
    if not spans:
        return np.zeros(0, dtype=np.int64)
    start = np.array([s[1] for s in spans], dtype=np.int64)
    end = np.array([s[2] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def layer_metrics(spans, counts, team_steps, n_ops):
    """Per-layer metrics from the spans and counts of traced operations.

    Returns ``{metric name: (value, unit)}``.  Times are self times: a
    span's duration minus the part its child spans cover.
    """
    own = self_times(spans)
    self_ns = Counter()
    for rec, t in zip(spans, own):
        self_ns[rec[0]] += int(t)
    ms = {name: t / 1e6 for name, t in self_ns.items()}
    out = {}

    def per_step(value, unit):
        return (value / team_steps if team_steps else 0.0, unit)

    for name, _, _ in SPANS:
        if name in ("harness.build_brains", "sensing.best_viewpoint"):
            out[f"{name}.ms_per_run"] = (ms.get(name, 0.0) / n_ops, "ms/run")
        else:
            out[f"{name}.ms_per_step"] = per_step(ms.get(name, 0.0), "ms/step")
    out[f"{ROOT_SPAN}.self.ms_per_step"] = per_step(ms.get(ROOT_SPAN, 0.0),
                                                    "ms/step")
    for name in ("pheromone.update_pheromones", "pheromone.delta_map",
                 "pheromone.diffuse_region", "pheromone.build_map",
                 "pheromone.exploration_waypoint",
                 "pheromone.pheromone_value_at", "sensing.interpolate_cov"):
        out[f"{name}.calls_per_step"] = per_step(counts[name], "calls/step")
    out["estimation.fuse.calls_per_step"] = per_step(
        counts["estimation.fuse"], "calls/step")
    out["estimation.propagate.calls_per_step"] = per_step(
        counts["estimation.propagate"], "calls/step")
    out["estimation.GaussianEstimate.constructions_per_step"] = per_step(
        counts["estimation.GaussianEstimate"], "count/step")
    out["world.packets_per_step"] = per_step(counts["world.packets"],
                                             "count/step")
    out["world.detections_per_step"] = per_step(counts["world.detections"],
                                                "count/step")

    waypoints = counts["agent.pheromone_waypoint"]
    builds = counts["pheromone.delta_map"] + counts["pheromone.build_map"]
    out["pheromone.map_rebuild_frac"] = (
        builds / waypoints if waypoints else 0.0, "ratio")
    samples = counts["size.agent_samples"]
    for key, name in (("size.deposits", "pheromone.deposits_per_agent"),
                      ("size.local_records",
                       "tracking.local_records_per_agent"),
                      ("size.neighbor_records",
                       "tracking.neighbor_records_per_agent")):
        out[name] = (counts[key] / samples if samples else 0.0, "count")

    layer_ns = Counter()
    for name, t in self_ns.items():
        layer = name.split(".")[0]
        if layer in LAYERS:
            layer_ns[layer] += t
    total = sum(layer_ns.values())
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_ns[layer] / total if total else 0.0,
                                 "ratio")
    return out
