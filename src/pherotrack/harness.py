"""Monte-Carlo runner, metrics, and CSV emission.

Builds one brain per agent, all sharing one per-run configuration (Levy and
anti-flocking as explorers), steps them with the ground-truth world in seeded
episodes, and scores them with the two harness-side metrics: the mean
best-agent estimation error (the system objective) and the time-to-track
predicate (every target simultaneously selected by some agent and inside that
agent's true field of view; a world without targets never meets it, as vacuous
success would look instant).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import world as wd
from .agent import AgentBrain, AgentConfig
from .baselines import (AuctionOracle, Explorer, VisitedMap,
                        antiflocking_waypoint, levy_waypoint)
from .pheromone import GridGeometry, PheromoneConfig
from .sensing import SectorFov, interpolate_cov
from .tracking import TrackerConfig, combined_estimate

SEARCH_ALGOS = ("pheromone", "levy", "antiflocking")
ASSIGN_ALGOS = ("greedy-distributed", "auction", "local-greedy")

# Header of telemetry_seed<S>.csv, one row per step and agent (see README).
# ``mode`` is "exploit" iff ``k_star`` > 0; ``entropy`` is the exploited
# target's combined-covariance determinant, empty while exploring.
TELEMETRY_COLUMNS = ("t", "agent_id", "mode", "k_star", "waypoint_x",
                     "waypoint_y", "entropy")
# The keys of :func:`summarize`: the columns of summary.csv and sweep.csv.
SUMMARY_KEYS = ("runs", "completed", "censored", "mean_time_to_track",
                "median_time_to_track")


@dataclass
class ExperimentSpec:
    config: wd.WorldConfig
    search: str = "pheromone"
    assign: str = "greedy-distributed"
    runs: int = 1
    max_steps: int = 2000
    base_seed: int = 0
    out_dir: str | None = None
    dump_maps: bool = False
    dump_telemetry: bool = False
    stop_when_tracked: bool = True

    def __post_init__(self):
        if self.runs < 1 or self.max_steps < 1 or self.base_seed < 0:
            raise ValueError("need runs >= 1, max_steps >= 1 and "
                             "base_seed >= 0")
        if self.search not in SEARCH_ALGOS:
            raise ValueError(f"unknown search algorithm {self.search!r}")
        if self.assign not in ASSIGN_ALGOS:
            raise ValueError(f"unknown assignment algorithm {self.assign!r}")


@dataclass
class RunMetrics:
    seed: int
    time_to_track: int | None
    h_series: list = field(default_factory=list)
    n_tracked_series: list = field(default_factory=list)
    first_detection: dict = field(default_factory=dict)
    n_tracked_final: int = 0

    @property
    def censored(self) -> bool:
        return self.time_to_track is None


def objective_H(target_ids, true_rel, estimates, n_agents, domain_diag):
    """Mean over targets of the best agent's estimation error.

    ``true_rel[(i, k)]`` is target k's true position relative to agent i;
    ``estimates[(i, k)]`` the corresponding combined-estimate mean, present
    only where agent i knows k.  Agents without an estimate are skipped by
    the min; a target nobody knows contributes the domain diagonal.  The sum
    is normalized by the number of agents.
    """
    total = 0.0
    for k in target_ids:
        best = math.inf
        for i in range(n_agents):
            est = estimates.get((i, k))
            if est is None:
                continue
            rel = true_rel[(i, k)]
            best = min(best, math.hypot(rel[0] - est[0], rel[1] - est[1]))
        total += best if math.isfinite(best) else domain_diag
    return total / n_agents


def _cov_at_fn(cfg: wd.WorldConfig):
    """Detection ``(cov, factor)`` callable plus the viewpoint source for
    brains."""
    if cfg.calibration_csv is None:
        return None, cfg.cov_map()
    table = cfg.calibration_table   # built by the config's gate
    return (lambda r, phi: interpolate_cov(table, r, phi)), table


def build_brains(cfg: wd.WorldConfig, search: str, assign: str, seed: int):
    """Brains, detection covariance callable, and visited map to mark.  The
    brains share one :class:`AgentConfig`, so its viewpoint is found once;
    each draws from its own stream of ``seed``."""
    fov = SectorFov(cfg.r_s, cfg.half_angle)
    cov_fn, viewpoint_source = _cov_at_fn(cfg)
    agent_cfg = AgentConfig(
        fov=fov,
        cov_map=viewpoint_source,
        tracker_cfg=TrackerConfig(cfg.q_bar, cfg.sigma_bar,
                                  motion_var=float(cfg.u_max[0]) ** 2),
        pher_cfg=PheromoneConfig(cfg.w_init, cfg.w_decay, cfg.w_floor,
                                 footprint_radius=cfg.r_s),
        grid_geom=GridGeometry(cfg.r_c, cfg.cell_size),
        u_max=cfg.u_max,
        q_star=cfg.q_star,
        assign=assign,
        domain=cfg.domain,
    )
    vmap = VisitedMap(cfg.domain) if search == "antiflocking" else None
    step_max = max(cfg.domain_diagonal(), 2.0)
    brains = []
    for i in range(cfg.n_agents):
        rng = wd.agent_rng(seed, i)
        # ``rng=rng`` binds this agent's stream.  ``levy_waypoint`` is looked
        # up here at each draw, where the perfbench tracer hooks it.
        explorer = None
        if search == "levy":
            explorer = Explorer(cfg.q_star, lambda p, rng=rng: levy_waypoint(
                step_max, rng, p, cfg.domain))
        elif search == "antiflocking":
            explorer = Explorer(
                cfg.q_star, lambda p, rng=rng: antiflocking_waypoint(
                    vmap, p, rng, gain_radius=cfg.r_s), vmap.is_visited_at)
        brains.append(AgentBrain(i + 1, agent_cfg, rng, explorer))
    return brains, cov_fn, vmap


def simulate_run(cfg: wd.WorldConfig, search: str, assign: str,
                 max_steps: int, seed: int, stop_when_tracked=True,
                 telemetry_writer=None, dump_maps_dir=None) -> RunMetrics:
    """One deterministic episode; returns its metrics."""
    state = wd.make_state(cfg, seed)
    brains, cov_fn, vmap = build_brains(cfg, search, assign, seed)
    n = cfg.n_agents
    target_ids = list(range(1, cfg.n_targets + 1))
    diag = cfg.domain_diagonal()
    oracle = AuctionOracle() if assign == "auction" else None
    packets = {}
    prev_pos = state.agent_pos.copy()
    metrics = RunMetrics(seed=seed, time_to_track=None)

    for t in range(max_steps):
        if vmap is not None:
            for i in range(n):
                vmap.mark_seen(state.agent_pos[i], cfg.r_s)

        rx = wd.deliver_broadcasts(packets, state, t, cfg)

        new_packets = {}
        inputs = []
        satisfied = set()
        for i in range(n):
            dp, sdp = wd.sense_displacement(state, i, prev_pos[i], cfg)
            dets = wd.sense_targets(state, i, cfg, cov_fn)
            in_view = {tid for tid, _ in dets}
            for tid in in_view:
                metrics.first_detection.setdefault(tid, t)
            forced = None if oracle is None else oracle.assignment.get(i, 0)
            packet, u, telem = brains[i].step(
                dets, rx[i], dp, sdp, state.agent_heading[i],
                state.agent_pos[i], forced_target=forced)
            new_packets[i] = packet
            inputs.append(u)
            if telem.target_id in in_view:
                satisfied.add(telem.target_id)
            if telemetry_writer is not None:
                mode = "exploit" if telem.target_id > 0 else "explore"
                telemetry_writer.writerow([
                    t, brains[i].agent_id, mode, telem.target_id,
                    f"{telem.waypoint[0]:.6g}", f"{telem.waypoint[1]:.6g}",
                    "" if telem.entropy is None else f"{telem.entropy:.6g}",
                ])
        packets = new_packets

        combined = combined_estimate(
            [(b.local_targets, b.neighbor_targets) for b in brains],
            target_ids)
        estimates = {key: mean for key, (mean, _) in combined.items()}
        rel = (state.target_pos[None, :, :]
               - state.agent_pos[:, None, :]).tolist()
        true_rel = {(i, tid): rel[i][tid - 1]
                    for i in range(n) for tid in target_ids}
        metrics.h_series.append(
            objective_H(target_ids, true_rel, estimates, n, diag))
        metrics.n_tracked_series.append(len(satisfied))
        if target_ids and metrics.time_to_track is None \
                and set(target_ids) <= satisfied:
            metrics.time_to_track = t

        if oracle is not None:
            oracle.update(t, brains)

        prev_pos = state.agent_pos.copy()
        wd.step_dynamics(state, inputs, cfg)

        if stop_when_tracked and metrics.time_to_track is not None:
            break

    metrics.n_tracked_final = metrics.n_tracked_series[-1]
    if dump_maps_dir is not None and search == "pheromone":
        os.makedirs(dump_maps_dir, exist_ok=True)
        for i, b in enumerate(brains):
            b.pheromone_map().to_pgm(os.path.join(
                dump_maps_dir, f"agent{i + 1}_seed{seed}.pgm"))
    return metrics


def run_monte_carlo(spec: ExperimentSpec):
    """Execute ``spec.runs`` seeded episodes and emit the CSV artifacts.

    Returns (summary dict, list of RunMetrics).  Output files (when
    ``out_dir`` is set): runs.csv, series.csv, summary.csv, and optional
    telemetry/map dumps.  Byte-identical across repeated invocations of the
    same spec.
    """
    spec.config.validate()
    results = []
    for r in range(spec.runs):
        seed = spec.base_seed + r
        telem_writer = telem_file = None
        if spec.dump_telemetry and spec.out_dir:
            os.makedirs(spec.out_dir, exist_ok=True)
            telem_file = open(os.path.join(spec.out_dir,
                                           f"telemetry_seed{seed}.csv"),
                              "w", newline="")
            telem_writer = csv.writer(telem_file)
            telem_writer.writerow(TELEMETRY_COLUMNS)
        maps_dir = os.path.join(spec.out_dir, "maps") \
            if (spec.dump_maps and spec.out_dir) else None
        try:
            results.append(simulate_run(
                spec.config, spec.search, spec.assign, spec.max_steps, seed,
                stop_when_tracked=spec.stop_when_tracked,
                telemetry_writer=telem_writer, dump_maps_dir=maps_dir))
        finally:
            if telem_file is not None:
                telem_file.close()

    summary = summarize(results)
    if spec.out_dir:
        os.makedirs(spec.out_dir, exist_ok=True)
        write_csv(os.path.join(spec.out_dir, "runs.csv"),
                  ("seed", "time_to_track", "censored", "n_tracked_final"),
                  ([m.seed, _fmt(m.time_to_track), int(m.censored),
                    m.n_tracked_final] for m in results))
        write_csv(os.path.join(spec.out_dir, "series.csv"),
                  ("seed", "t", "H", "n_tracked"),
                  ([m.seed, t, _fmt(float(h)), nt] for m in results
                   for t, (h, nt) in enumerate(zip(m.h_series,
                                                   m.n_tracked_series))))
        write_csv(os.path.join(spec.out_dir, "summary.csv"), SUMMARY_KEYS,
                  [[_fmt(summary[k]) for k in SUMMARY_KEYS]])
    return summary, results


def summarize(results):
    times = [m.time_to_track for m in results if m.time_to_track is not None]
    return {
        "runs": len(results),
        "completed": len(times),
        "censored": len(results) - len(times),
        "mean_time_to_track": float(np.mean(times)) if times else None,
        "median_time_to_track": float(np.median(times)) if times else None,
    }


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_csv(path, header, rows):
    """Write one CSV artifact: a header row, then ``rows``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# The study grids mirroring the reported studies (agent x target counts,
# domain sizes, sensing radii): each name maps to the grid's (label, config
# overrides) points in sweep.csv's order.
SWEEP_GRIDS = {
    "agents": tuple((f"agents{n}_targets{m}", dict(n_agents=n, n_targets=m))
                    for n in (2, 4, 6, 8) for m in (2, 4, 6) if m <= n),
    "env": tuple((f"env{s:g}", dict(domain=(s, s)))
                 for s in (10.0, 30.0, 50.0)),
    "fov": tuple((f"fov{r:g}", dict(r_s=r)) for r in (2.0, 4.0, 6.0)),
}


def run_sweep(base: ExperimentSpec, which="agents"):
    """Iterate the :data:`SWEEP_GRIDS` grid named ``which``, one Monte-Carlo
    batch per point.  Returns a list of (label, summary) pairs and writes
    sweep.csv when out_dir is set.
    """
    if which not in SWEEP_GRIDS:
        raise ValueError(f"unknown sweep grid {which!r}")
    out = []
    for label, overrides in SWEEP_GRIDS[which]:
        cfg = replace(base.config, **overrides)
        sub_dir = os.path.join(base.out_dir, label) if base.out_dir else None
        spec = replace(base, config=cfg, out_dir=sub_dir)
        summary, _ = run_monte_carlo(spec)
        out.append((label, summary))

    if base.out_dir:
        os.makedirs(base.out_dir, exist_ok=True)
        write_csv(os.path.join(base.out_dir, "sweep.csv"),
                  ("point",) + SUMMARY_KEYS,
                  ([label] + [_fmt(s[k]) for k in SUMMARY_KEYS]
                   for label, s in out))
    return out
