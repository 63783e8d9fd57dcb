"""pherotrack benchmark: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``perfbench/workloads.py``, or ``all`` to
run each in turn.  One operation is one ``simulate_run`` call on one seed of
the workload's seed set, which is derived from ``--seed``.  The benchmark
imports the package from ``src/`` next to this directory and from nowhere
else.  Load comes from this one single-threaded process.

Each run first runs its first seed and ``REPLAY_SEEDS`` once, untimed, as
its warm-up.
``--trace 0`` then times whole repeats of the seed set, stopping at the
repeat boundary nearest to ``--seconds``, for:

* ``agent_steps_per_s``: median over operations of agent-steps per host
  second of the whole operation;
* ``step_ms_p50`` and ``step_ms_p90``: host time of a team step, from one
  ``world.step_dynamics`` return to the next (the first from the end of
  set-up);
* ``setup_s``: median over operations of the host time from the call to the
  return of ``harness.build_brains``, i.e. ``world.make_state`` plus
  ``build_brains``, paid once per seed.

``--trace 1`` first measures ``run.peak_heap_mb``, the median tracemalloc
peak over one operation on each of the first ``HEAP_SEEDS`` seeds; these
passes are never timed, because tracemalloc slows the program several-fold.
It then takes the seeds in order until ``--seconds`` is up, runs each
untraced and then traced, and prints the per-layer metrics of the traced
operations with the tracing slowdown.

Every operation is checked: its outputs must satisfy the invariants below
and hash to the same digest every time its seed runs.  An operation fails
if it raises, breaks an invariant or changes digest.  Digests are also
compared with those committed in ``digests.json`` (reported apart, see
``replay_check``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with provenance, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# Per-seed output digests recorded at the commit that defined the benchmark
# (written by record_digests.py); see replay_check().
DIGESTS = os.path.join(HERE, "digests.json")

# One seed's peak heap varies by up to 30% between seeds of a workload.
HEAP_SEEDS = 3
# Seeds every run replays first, untimed, whatever its --seed: they warm the
# caches and always give the replay check committed digests to compare.
REPLAY_SEEDS = (0, 1)


def _import_package():
    """Put this checkout's ``src/`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "pherotrack", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import pherotrack
    if os.path.dirname(os.path.abspath(pherotrack.__file__)) != \
            os.path.join(SRC, "pherotrack"):
        raise SystemExit(f"perfbench: imported pherotrack from "
                         f"{pherotrack.__file__}, not from {SRC}")


# -- correctness ------------------------------------------------------------

def digest(m) -> str:
    """Hash of an operation's outputs; floats are hashed exactly."""
    payload = json.dumps([m.time_to_track, m.n_tracked_final,
                          [float(h).hex() for h in m.h_series],
                          [int(n) for n in m.n_tracked_series]])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def invariant_errors(m, steps, n_targets) -> list[str]:
    errs = []
    if len(m.h_series) != steps or len(m.n_tracked_series) != steps:
        errs.append("series length differs from the step budget")
    if not all(math.isfinite(h) and h >= 0 for h in m.h_series):
        errs.append("H is negative or not finite")
    if not all(0 <= n <= n_targets for n in m.n_tracked_series):
        errs.append("n_tracked outside [0, n_targets]")
    ttt = m.time_to_track
    if ttt is not None and not (0 <= ttt < len(m.n_tracked_series)
                                and m.n_tracked_series[ttt] == n_targets):
        errs.append("time_to_track disagrees with the n_tracked series")
    if m.n_tracked_series and m.n_tracked_final != m.n_tracked_series[-1]:
        errs.append("n_tracked_final disagrees with the n_tracked series")
    return errs


class Checker:
    """Counts operations and failures; remembers each seed's first digest."""

    def __init__(self, steps, n_targets):
        self.steps, self.n_targets = steps, n_targets
        self.attempted = self.failed = 0
        self.digests = {}
        self.sim = {}       # seed -> (time_to_track, mean H)
        self.errors = []

    def check(self, seed, m, exc=None, probe_errs=()) -> bool:
        self.attempted += 1
        if exc is not None:
            errs = [f"raised {exc!r}"]
        else:
            errs = invariant_errors(m, self.steps, self.n_targets)
            errs += probe_errs
            d = digest(m)
            first = self.digests.setdefault(seed, d)
            if d != first:
                errs.append(f"digest {d} differs from first repeat {first}")
            self.sim.setdefault(seed, (m.time_to_track,
                                       statistics.fmean(m.h_series)))
        if errs:
            self.failed += 1
            self.errors.append({"seed": seed, "errors": errs})
        return not errs


def replay_check(name, steps, digests):
    """Compare per-seed digests with those in ``digests.json``.

    This is the replay contract of ROADMAP.md: a change that only makes the
    program faster leaves every digest as it was.  A mismatch is reported on
    its own and does not fail the operation, because a change that means to
    alter the simulation also changes digests.
    """
    try:
        with open(DIGESTS) as f:
            committed = json.load(f).get(name)
    except FileNotFoundError:
        committed = None
    if not committed or committed["steps"] != steps:
        return {"checked": 0, "mismatched": [],
                "note": "no committed digests for this workload and budget"}
    ref = committed["digests"]
    checked = sorted(s for s in digests if str(s) in ref)
    return {"checked": len(checked),
            "mismatched": [s for s in checked if digests[s] != ref[str(s)]]}


# -- measurement ------------------------------------------------------------

def run_op(w, cfg, seed, checker, probe=None):
    """One operation; returns (ok, host seconds).

    Under a probe the operation also fails unless the probe saw the end of
    set-up and every team step: a hook the package no longer goes through
    would otherwise leave the step and set-up timings empty or short.
    """
    from pherotrack.harness import simulate_run
    t0 = time.perf_counter()
    try:
        args = (cfg, w.search, w.assign, w.steps, seed)
        m = probe.call(simulate_run, *args, stop_when_tracked=False) \
            if probe else simulate_run(*args, stop_when_tracked=False)
    except Exception as exc:  # a raising operation is a failed operation
        return checker.check(seed, None, exc), time.perf_counter() - t0
    wall = time.perf_counter() - t0
    probe_errs = []
    if probe is not None and len(probe.stamps) != w.steps + 2:
        probe_errs.append(
            f"probe saw {len(probe.stamps) - 1} set-up/step boundaries, not "
            f"{w.steps + 1}: the build_brains or step_dynamics hook was "
            f"not reached")
    return checker.check(seed, m, probe_errs=probe_errs), wall


def median_rate(work, walls):
    """Median over operations of ``work`` per host second of each; a short
    slow phase of the host moves it less than a sum over the run would."""
    return statistics.median(work / t for t in walls) if walls else 0.0


def measure_peak_heap(w, cfg, seed, checker):
    """tracemalloc peak in MB over one checked operation."""
    from pherotrack.harness import simulate_run
    tracemalloc.start()
    try:
        m = simulate_run(cfg, w.search, w.assign, w.steps, seed,
                         stop_when_tracked=False)
        peak = tracemalloc.get_traced_memory()[1]
    except Exception as exc:  # a raising operation is a failed operation
        checker.check(seed, None, exc)
        return 0.0
    finally:
        tracemalloc.stop()
    checker.check(seed, m)
    return peak / 1e6


def repeat_for(seconds, body):
    """Call ``body()`` (one repeat of the seed set, or one seed) until the
    call boundary nearest to ``seconds``; returns (calls, elapsed seconds)."""
    t0 = time.perf_counter()
    repeats = 0
    while True:
        body()
        repeats += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / repeats >= seconds:
            return repeats, elapsed


def warm_up(w, cfg, seeds, checker):
    """Run the first seed and the replay seeds once, untimed.  The first
    seed runs again when timed, so its digest is checked for repeating."""
    for s in dict.fromkeys((seeds[0],) + REPLAY_SEEDS):
        run_op(w, cfg, s, checker)


def run_timed(w, cfg, seed, seeds, seconds, checker):
    from tracer import Probe
    warm_up(w, cfg, seeds, checker)

    setup, step_ms, walls = [], [], []
    with Probe(traced=False) as probe:
        def one_repeat():
            for s in seeds:
                ok, wall = run_op(w, cfg, s, checker, probe)
                if ok:
                    walls.append(wall)
                    st = probe.stamps
                    setup.append((st[1] - st[0]) / 1e9)
                    step_ms.extend((b - a) / 1e6
                                   for a, b in zip(st[1:], st[2:]))
        repeats, elapsed = repeat_for(seconds, one_repeat)

    deciles = statistics.quantiles(step_ms, n=10, method="inclusive") \
        if len(step_ms) > 1 else [0.0] * 9
    metrics = {
        "agent_steps_per_s": (median_rate(cfg.n_agents * w.steps, walls),
                              "1/s"),
        "step_ms_p50": (deciles[4], "ms"),
        "step_ms_p90": (deciles[8], "ms"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
    }
    samples = {
        "agent_steps_per_s": len(walls),
        "step_ms_p50": len(step_ms),
        "step_ms_p90": len(step_ms),
        "setup_s": len(setup),
    }
    extra = {"repeats": repeats, "measured_s": elapsed,
             "step_samples_beyond_p90": sum(
                 x > metrics["step_ms_p90"][0] for x in step_ms)}
    return metrics, samples, extra


def run_traced(w, cfg, seed, seeds, seconds, checker):
    from tracer import Probe, layer_metrics
    warm_up(w, cfg, seeds, checker)
    peaks = [measure_peak_heap(w, cfg, s, checker)
             for s in seeds[:HEAP_SEEDS]]

    plain, traced, counts = [], [], Counter()
    tracer = Probe(traced=True)
    next_seed = itertools.cycle(seeds).__next__

    # Per-layer metrics have no bound, so the traced run takes seeds in
    # order until --seconds is up rather than whole repeats of the set.
    def one_seed():
        s = next_seed()
        with Probe(traced=False) as probe:
            ok, wall = run_op(w, cfg, s, checker, probe)
        if ok:
            plain.append(wall)
        n_spans = len(tracer.spans)
        with tracer:
            ok, wall = run_op(w, cfg, s, checker, tracer)
        if ok:
            traced.append(wall)
            counts.update(tracer.counts)
        else:
            del tracer.spans[n_spans:]
    n_run, elapsed = repeat_for(seconds, one_seed)
    repeats = n_run / len(seeds)

    team_steps = w.steps * len(traced)
    metrics = layer_metrics(tracer.spans, counts, team_steps, len(traced))
    metrics["run.peak_heap_mb"] = (statistics.median(peaks), "MB")
    plain_rate = median_rate(cfg.n_agents * w.steps, plain)
    traced_rate = median_rate(cfg.n_agents * w.steps, traced)
    metrics["trace.untraced_agent_steps_per_s"] = (plain_rate, "1/s")
    metrics["trace.agent_steps_per_s"] = (traced_rate, "1/s")
    metrics["trace.slowdown"] = (plain_rate / traced_rate
                                 if traced_rate else 0.0, "ratio")
    samples = {"team_steps": team_steps, "traced_ops": len(traced),
               "untraced_ops": len(plain), "heap_ops": len(peaks)}
    extra = {"repeats": repeats, "measured_s": elapsed,
             "counts": dict(sorted(counts.items())),
             "span_file": write_spans(w, seed, tracer.spans)}
    return metrics, samples, extra


def write_spans(w, seed, spans):
    """Write the traced spans as gzipped CSV: name, start_ns, end_ns, parent
    (the parent's row index, -1 for a root)."""
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{w.name}-seed{seed}-spans.csv.gz")
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("name,start_ns,end_ns,parent\n")
        f.writelines(f"{n},{a},{b},{p}\n" for n, a, b, p in spans)
    return os.path.relpath(path, ROOT)


# -- provenance and output --------------------------------------------------

def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    import numpy
    import scipy
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    cfg = w.make_config()
    seeds = w.seeds(seed)
    checker = Checker(w.steps, cfg.n_targets)
    run = run_traced if trace else run_timed
    metrics, samples, extra = run(w, cfg, seed, seeds, seconds, checker)

    ttts = [checker.sim[s][0] for s in seeds if s in checker.sim]
    tracked = [t for t in ttts if t is not None]
    record = {
        "workload": name,
        "why": w.why,
        "trace": trace,
        "seed": seed,
        "seeds": seeds,
        "steps": w.steps,
        "n_agents": cfg.n_agents,
        "n_targets": cfg.n_targets,
        "search": w.search,
        "assign": w.assign,
        "seconds": seconds,
        "provenance": provenance(),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "digests": {str(s): checker.digests.get(s) for s in seeds},
        "replay": replay_check(name, w.steps, checker.digests),
        "workload_digest": hashlib.sha256(json.dumps(
            [checker.digests.get(s) for s in seeds]).encode()).hexdigest()[:16],
        "sim": {
            "time_to_track_mean": statistics.fmean(tracked) if tracked
            else None,
            "censored": len(ttts) - len(tracked),
            "H_mean": statistics.fmean(checker.sim[s][1] for s in seeds
                                       if s in checker.sim)
            if checker.sim else None,
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                    in metrics.items()},
        "samples": samples,
        **extra,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_record(r):
    print(f"== {r['workload']}  seeds {r['seeds'][0]}..{r['seeds'][-1]} "
          f"x {r['steps']} steps, {r['n_agents']} agents / "
          f"{r['n_targets']} targets, trace={r['trace']}")
    print(f"   operations: {r['attempted']} attempted, {r['failed']} failed;"
          f" repeats {r['repeats']:.3g}, measured {r['measured_s']:.1f} s;"
          f" digest {r['workload_digest']}")
    rp = r["replay"]
    print(f"   replay: {rp['checked']} seeds checked against "
          f"perfbench/digests.json, {len(rp['mismatched'])} mismatched"
          + (f" {rp['mismatched']}" if rp["mismatched"] else "")
          + (f" ({rp['note']})" if "note" in rp else ""))
    sim = r["sim"]
    print(f"   simulated: time_to_track mean {sim['time_to_track_mean']}, "
          f"censored {sim['censored']}, H mean {sim['H_mean']}")
    for k, v in r["metrics"].items():
        n = r["samples"].get(k)
        tail = f"  (n={n})" if n is not None else ""
        print(f"   {k:<50} {v['value']:>14.6g} {v['unit']}{tail}")
    if r["trace"]:
        print(f"   samples: {r['samples']}")
    for e in r["errors"]:
        print(f"   FAILED seed {e['seed']}: {'; '.join(e['errors'])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")

    records = [run_workload(n, args.seed, args.seconds, args.trace)
               for n in names]
    for r in records:
        print_record(r)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
