"""Monte-Carlo runner, metrics, and CSV emission.

Couples the ground-truth world with one brain per agent, runs seeded
episodes, and scores them with the two harness-side metrics: the mean
best-agent estimation error (the system objective) and the time-to-track
predicate (every target simultaneously selected by some agent and inside
that agent's true field of view).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import world as wd
from .agent import AgentBrain, PdGains
from .baselines import (AuctionConfig, LevyConfig, VisitedMap,
                        antiflocking_waypoint, auction_assign, levy_waypoint)
from .pheromone import GridGeometry, PheromoneConfig
from .sensing import SectorFov, interpolate_cov, synthetic_calibration_table, load_calibration_csv
from .estimation import add4, flat_entropy
from .tracking import TrackerConfig, combined_estimate

SEARCH_ALGOS = ("pheromone", "levy", "antiflocking")
ASSIGN_ALGOS = ("greedy-distributed", "auction", "local-greedy")

# Header of telemetry_seed<S>.csv, one row per step and agent (see README).
# ``entropy`` is the exploited target's combined-covariance determinant,
# empty while exploring.
TELEMETRY_COLUMNS = ("t", "agent_id", "mode", "k_star", "waypoint_x",
                     "waypoint_y", "entropy")


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
        if self.runs < 1 or self.max_steps < 1:
            raise ValueError("need runs >= 1 and max_steps >= 1")
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


def time_to_track(satisfied_series, target_ids):
    """First step at which every target is selected-and-visible; None if never.

    A run with no targets never tracks anything (vacuous success would make
    the empty world look instantly solved).
    """
    want = set(target_ids)
    if not want:
        return None
    for t, satisfied in enumerate(satisfied_series):
        if want <= satisfied:
            return t
    return None


def _cov_at_fn(cfg: wd.WorldConfig):
    """Polar-to-covariance callable plus the viewpoint source for brains."""
    if cfg.calibration_csv is None:
        cmap = cfg.cov_map()
        return None, cmap
    fov = SectorFov(cfg.r_s, cfg.half_angle)
    if cfg.calibration_csv:
        table = load_calibration_csv(cfg.calibration_csv)
    else:
        table = synthetic_calibration_table(cfg.cov_map(), fov)
    return (lambda r, phi: interpolate_cov(table, r, phi)), table


def build_brains(cfg: wd.WorldConfig, search: str, assign: str):
    cov_fn, viewpoint_source = _cov_at_fn(cfg)
    tracker_cfg = TrackerConfig(cfg.q_bar, cfg.sigma_bar,
                                motion_var=float(cfg.u_max[0]) ** 2)
    pher_cfg = PheromoneConfig(cfg.w_init, cfg.w_decay, cfg.w_floor,
                               footprint_radius=cfg.r_s,
                               cell_size=cfg.cell_size)
    geom = GridGeometry(cfg.r_c, cfg.cell_size)
    brains = []
    for i in range(cfg.n_agents):
        brains.append(AgentBrain(
            agent_id=i + 1,
            fov=SectorFov(cfg.r_s, cfg.half_angle),
            cov_map=viewpoint_source,
            tracker_cfg=tracker_cfg,
            pher_cfg=pher_cfg,
            grid_geom=geom,
            r_c=cfg.r_c,
            u_max=cfg.u_max,
            rng=wd.agent_rng(cfg, i),
            q_star=cfg.q_star,
            search=search,
            assign=assign,
            domain=cfg.domain,
        ))
    return brains, cov_fn


AUCTION_PERIOD = 15


def _known_targets(brains):
    known = set()
    for b in brains:
        known |= set(b.local_targets.records)
        for nl in b.neighbor_targets.values():
            known |= set(nl.records)
    return known


def _auction_oracle(brains, cfg, prev=None):
    """Centralized assignment over the union of current entropy tables.

    Uses each agent's cheapest view of each target (local det, or the
    neighbor-lifted det); targets nobody knows are dropped.  Pairs from the
    previous assignment persist while the agent still has a view and nobody
    else's view is dramatically sharper; without that hysteresis the near-tied
    broadcast copies make the winner rotate every recomputation and no agent
    ever settles.  Returns agent index -> 1-based target id.
    """
    known = sorted(_known_targets(brains))
    if not known:
        return {}
    costs = np.full((len(brains), len(known)), np.inf)
    for bi, b in enumerate(brains):
        for ki, tid in enumerate(known):
            best = math.inf
            rec = b.local_targets.records.get(tid)
            if rec is not None:
                best = flat_entropy(rec.cov)
            for nl in b.neighbor_targets.values():
                nrec = nl.records.get(tid)
                if nrec is not None and nl.rel_cov is not None:
                    best = min(best,
                               flat_entropy(add4(nrec.cov, nl.rel_cov)))
            costs[bi, ki] = best
    keep = [ki for ki in range(len(known)) if np.isfinite(costs[:, ki]).any()]
    if not keep:
        return {}
    costs = costs[:, keep]
    kept_ids = [known[ki] for ki in keep]
    # A finite penalty for unknown pairs keeps the table feasible even when
    # two targets are known only through the same agent; an agent stuck with
    # a target it cannot see simply keeps exploring.
    penalty = 1e6
    costs[~np.isfinite(costs)] = penalty

    sticky = {}
    for agent, tid in (prev or {}).items():
        if tid not in kept_ids or agent in sticky.values():
            continue
        ki = kept_ids.index(tid)
        c = costs[agent, ki]
        if c < penalty and costs[:, ki].min() > 1e-2 * c:
            sticky[tid] = agent

    free_agents = [a for a in range(len(brains)) if a not in sticky.values()]
    free_cols = [ki for ki, tid in enumerate(kept_ids) if tid not in sticky]
    out = {agent: tid for tid, agent in sticky.items()}
    if free_cols and free_agents:
        sub = costs[np.ix_(free_agents, free_cols)]
        pairing = auction_assign(sub, AuctionConfig())
        for a, ki in pairing.items():
            out[free_agents[a]] = kept_ids[free_cols[ki]]
    return out


def simulate_run(cfg: wd.WorldConfig, search: str, assign: str,
                 max_steps: int, seed: int, stop_when_tracked=True,
                 telemetry_writer=None, dump_maps_dir=None) -> RunMetrics:
    """One deterministic episode; returns its metrics."""
    cfg = replace(cfg, seed=seed)
    state = wd.make_state(cfg)
    brains, cov_fn = build_brains(cfg, search, assign)
    n = cfg.n_agents
    target_ids = list(range(1, cfg.n_targets + 1))
    diag = cfg.domain_diagonal()

    levy_cfg = LevyConfig(step_max=max(diag, 2.0))
    # Carried waypoints are stored as world-frame endpoints: an agent may
    # track for a while between explore calls, and a relative waypoint that
    # is not shifted during that gap comes back stale (it can even point
    # through a wall, leaving the agent pinned against it).
    levy_endpoint = [None] * n
    vmap = VisitedMap(cfg.domain) if search == "antiflocking" else None
    af_endpoint = [None] * n

    def make_explore_fn(i):
        if search == "levy":
            def fn(shift):
                pos = state.agent_pos[i]
                carried = None if levy_endpoint[i] is None \
                    else levy_endpoint[i] - pos
                wp = levy_waypoint(carried, np.zeros(2), cfg.q_star,
                                   levy_cfg, brains[i].rng,
                                   own_pos=pos, domain=cfg.domain)
                levy_endpoint[i] = pos + wp
                return wp
            return fn
        if search == "antiflocking":
            def fn(shift):
                pos = state.agent_pos[i]
                wp = None if af_endpoint[i] is None else af_endpoint[i] - pos
                if wp is not None:
                    reached = math.hypot(wp[0], wp[1]) < cfg.q_star
                    stale = vmap.is_visited_at(pos + wp)
                    if reached or stale:
                        wp = None
                if wp is None:
                    wp = antiflocking_waypoint(vmap, pos, brains[i].rng,
                                               gain_radius=cfg.r_s)
                af_endpoint[i] = pos + wp
                return wp
            return fn
        return None

    explore_fns = [make_explore_fn(i) for i in range(n)]
    packets = {}
    pending_assign = {}
    last_known = set()
    prev_pos = state.agent_pos.copy()
    metrics = RunMetrics(seed=seed, time_to_track=None)
    satisfied_series = []

    for t in range(max_steps):
        if vmap is not None:
            for i in range(n):
                vmap.mark_seen(state.agent_pos[i], cfg.r_s)

        rx = wd.deliver_broadcasts(packets, state, t, cfg) if packets \
            else {i: [] for i in range(n)}

        new_packets = {}
        inputs = []
        satisfied = set()
        for i in range(n):
            dp, sdp = wd.sense_displacement(state, i, prev_pos[i], cfg)
            dets = wd.sense_targets(state, i, cfg, cov_fn)
            for tid, _ in dets:
                metrics.first_detection.setdefault(tid, t)
            forced = pending_assign.get(i, 0) if assign == "auction" else None
            packet, u, telem = brains[i].step(
                dets, rx[i], dp, sdp, state.agent_heading[i],
                forced_target=forced, explore_fn=explore_fns[i],
                own_pos=state.agent_pos[i])
            new_packets[i] = packet
            inputs.append(u)
            if telem.target_id > 0 and target_in_fov_id(state, i,
                                                        telem.target_id, cfg):
                satisfied.add(telem.target_id)
            if telemetry_writer is not None:
                telemetry_writer.writerow([
                    t, brains[i].agent_id, telem.mode, telem.target_id,
                    f"{telem.waypoint[0]:.6g}", f"{telem.waypoint[1]:.6g}",
                    "" if telem.entropy is None else f"{telem.entropy:.6g}",
                ])
        packets = new_packets

        combined = combined_estimate(
            [(b.local_targets, b.neighbor_targets) for b in brains],
            target_ids)
        estimates = {key: est.mean.tolist() for key, est in combined.items()}
        rel = (state.target_pos[None, :, :]
               - state.agent_pos[:, None, :]).tolist()
        true_rel = {(i, tid): rel[i][tid - 1]
                    for i in range(n) for tid in target_ids}
        metrics.h_series.append(
            objective_H(target_ids, true_rel, estimates, n, diag))
        metrics.n_tracked_series.append(len(satisfied))
        satisfied_series.append(satisfied)
        if target_ids and metrics.time_to_track is None \
                and set(target_ids) <= satisfied:
            metrics.time_to_track = t

        if assign == "auction":
            known = _known_targets(brains)
            if t % AUCTION_PERIOD == 0 or known != last_known:
                pending_assign = _auction_oracle(brains, cfg, pending_assign)
                last_known = known

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


def target_in_fov_id(state, agent, target_id, cfg):
    return wd.target_in_fov(state, agent, target_id - 1, cfg)


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
        write_runs_csv(os.path.join(spec.out_dir, "runs.csv"), results)
        write_series_csv(os.path.join(spec.out_dir, "series.csv"), results)
        write_summary_csv(os.path.join(spec.out_dir, "summary.csv"), summary)
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


def write_runs_csv(path, results):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "time_to_track", "censored", "n_tracked_final"])
        for m in results:
            w.writerow([m.seed, _fmt(m.time_to_track), int(m.censored),
                        m.n_tracked_final])


def write_series_csv(path, results):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "t", "H", "n_tracked"])
        for m in results:
            for t, (h, nt) in enumerate(zip(m.h_series, m.n_tracked_series)):
                w.writerow([m.seed, t, _fmt(float(h)), nt])


def write_summary_csv(path, summary):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        keys = ["runs", "completed", "censored", "mean_time_to_track",
                "median_time_to_track"]
        w.writerow(keys)
        w.writerow([_fmt(summary[k]) for k in keys])


def read_runs_csv(path):
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows.append({
                "seed": int(row["seed"]),
                "time_to_track": int(row["time_to_track"])
                if row["time_to_track"] else None,
                "censored": bool(int(row["censored"])),
                "n_tracked_final": int(row["n_tracked_final"]),
            })
    return rows


# Sweep grids mirroring the reported studies.
SWEEP_AGENTS = (2, 4, 6, 8)
SWEEP_TARGETS = (2, 4, 6)
SWEEP_ENV_SIZES = (10.0, 30.0, 50.0)
SWEEP_FOV_RANGES = (2.0, 4.0, 6.0)


def run_sweep(base: ExperimentSpec, which="agents"):
    """Iterate one of the study grids, one Monte-Carlo batch per point.

    ``which`` selects the grid: "agents" (agent x target counts), "env"
    (domain sizes), or "fov" (sensing radii).  Returns a list of (label,
    summary) pairs and writes sweep.csv when out_dir is set.
    """
    points = []
    if which == "agents":
        for ns in SWEEP_AGENTS:
            for nh in SWEEP_TARGETS:
                if ns < nh:
                    continue
                points.append((f"agents{ns}_targets{nh}",
                               dict(n_agents=ns, n_targets=nh)))
    elif which == "env":
        for size in SWEEP_ENV_SIZES:
            points.append((f"env{size:g}", dict(domain=(size, size))))
    elif which == "fov":
        for r_s in SWEEP_FOV_RANGES:
            points.append((f"fov{r_s:g}", dict(r_s=r_s)))
    else:
        raise ValueError(f"unknown sweep grid {which!r}")

    out = []
    for label, overrides in points:
        cfg = replace(base.config, **overrides)
        sub_dir = os.path.join(base.out_dir, label) if base.out_dir else None
        spec = replace(base, config=cfg, out_dir=sub_dir)
        summary, _ = run_monte_carlo(spec)
        out.append((label, summary))

    if base.out_dir:
        os.makedirs(base.out_dir, exist_ok=True)
        with open(os.path.join(base.out_dir, "sweep.csv"), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["point", "runs", "completed", "censored",
                        "mean_time_to_track", "median_time_to_track"])
            for label, s in out:
                w.writerow([label, s["runs"], s["completed"], s["censored"],
                            _fmt(s["mean_time_to_track"]),
                            _fmt(s["median_time_to_track"])])
    return out
