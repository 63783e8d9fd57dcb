"""The named benchmark workloads.

One operation is one ``simulate_run(..., stop_when_tracked=False)`` call on
one seed for the workload's fixed step budget.  A run uses ``n_seeds``
seeds derived from the benchmark's ``--seed`` argument, so the same
argument always gives the same inputs and different arguments give
disjoint seed sets.  An operation's cost depends on its seed (how soon
targets are found and tracked), so a gated workload's set is as large as
one pass of about 45 s allows: a set of 12 seeds moved the medians of
``team8-levy`` by 15% between ``--seed`` values on a steady host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pherotrack import world as wd


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[], wd.WorldConfig]
    search: str
    assign: str
    steps: int
    n_seeds: int

    def seeds(self, base_seed: int) -> list[int]:
        return [base_seed * self.n_seeds + j for j in range(self.n_seeds)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sim2d-pheromone",
        why="the paper's headline pair and the gate's most-run one; time "
            "splits between the delta-kernel pheromone map and tracking",
        make_config=wd.sim_2d_preset,
        search="pheromone", assign="greedy-distributed",
        # The gate's mean run length for this pair (700-step budget, early
        # stop): 248 steps over 30 seeds; see README.md.
        steps=250, n_seeds=36,
    ),
    Workload(
        name="sim2d-odometry",
        why="same pheromone layer used the other way: odometry noise gives "
            "deposits a covariance, so every explore step diffuses and "
            "rebuilds the whole map",
        make_config=lambda: wd.sim_2d_preset(
            r_dp=((1e-3, 0.0), (0.0, 1e-3))),
        search="pheromone", assign="greedy-distributed",
        # Must exceed the 34-step deposit lifetime so lists reach steady size.
        steps=40, n_seeds=3,
    ),
    Workload(
        name="team8-levy",
        why="pheromone-bypass workload (the gate's Levy batch at 8 agents / "
            "6 targets): tracking dominates and packets grow as N^2",
        make_config=lambda: wd.sim_2d_preset(n_agents=8, n_targets=6),
        search="levy", assign="greedy-distributed",
        # The gate's mean run length for this pair (3000-step budget, early
        # stop): 413 steps over 30 seeds; see README.md.
        steps=400, n_seeds=22,
    ),
    Workload(
        name="hardware-table",
        why="the only workload on the calibration-table sensing path and the "
            "only one with non-negligible per-run set-up",
        make_config=wd.hardware_table_preset,
        search="pheromone", assign="greedy-distributed",
        steps=600, n_seeds=10,
    ),
)}


@dataclass(frozen=True)
class Prediction:
    """One row of the metric-to-workload prediction table.

    ``metrics`` are per-layer metric names.  On each workload in
    ``works_on`` they must read nonzero, and on each in ``zero_on`` exactly
    zero (the benchmark's self-test checks both).  ``moves`` names the
    end-to-end metrics, as ``metric@workload``, that a change to this layer
    should move; every other pairing is predicted not to move.
    """

    row: str
    metrics: tuple
    works_on: tuple
    moves: tuple
    zero_on: tuple = ()
    note: str = ""


def _names(prefix, funcs, suffixes):
    return tuple(f"{prefix}.{f}.{s}" for f in funcs for s in suffixes)


_ALL = tuple(WORKLOADS)
_PHEROMONE_SIZES = ("pheromone.map_rebuild_frac",
                    "pheromone.deposits_per_agent")

PREDICTIONS = (
    Prediction(
        row="pheromone-delta",
        metrics=_names("pheromone", ("update_pheromones", "delta_map",
                                     "exploration_waypoint",
                                     "pheromone_value_at"),
                       ("ms_per_step", "calls_per_step")) + _PHEROMONE_SIZES,
        works_on=("sim2d-pheromone",),
        moves=("agent_steps_per_s@sim2d-pheromone",
               "step_ms_p90@sim2d-pheromone"),
        zero_on=("team8-levy",),
        note="p90 carries the map-rebuild steps; predicted no change on "
             "team8-levy, where the layer does no work"),
    Prediction(
        row="pheromone-diffused",
        metrics=_names("pheromone", ("update_pheromones", "diffuse_region",
                                     "build_map", "exploration_waypoint"),
                       ("ms_per_step", "calls_per_step")) + _PHEROMONE_SIZES,
        works_on=("sim2d-odometry",),
        moves=tuple(f"{m}@sim2d-odometry" for m in (
            "agent_steps_per_s", "step_ms_p50", "step_ms_p90")),
        zero_on=("team8-levy",),
        note="diffuse_region is about 94% of this workload and holds a "
             "full-grid raster per deposit, so run.peak_heap_mb moves too; "
             "the map is rebuilt on every waypoint call"),
    Prediction(
        row="tracking",
        metrics=_names("tracking", ("update_storage", "select_target",
                                    "combined_estimate.h_metric",
                                    "combined_estimate.exploit"),
                       ("ms_per_step",))
        + ("tracking.local_records_per_agent",
           "tracking.neighbor_records_per_agent"),
        works_on=("team8-levy", "sim2d-pheromone"),
        moves=("step_ms_p50@team8-levy", "agent_steps_per_s@team8-levy",
               "step_ms_p50@sim2d-pheromone",
               "agent_steps_per_s@sim2d-pheromone"),
        note="largest on team8-levy, about a quarter as much on "
             "sim2d-pheromone, under 1% of sim2d-odometry"),
    Prediction(
        row="estimation",
        metrics=("estimation.fuse.calls_per_step",
                 "estimation.propagate.calls_per_step",
                 "estimation.GaussianEstimate.constructions_per_step"),
        works_on=("team8-levy", "sim2d-pheromone"),
        moves=("step_ms_p50@team8-levy", "agent_steps_per_s@team8-levy",
               "step_ms_p50@sim2d-pheromone",
               "agent_steps_per_s@sim2d-pheromone"),
        note="per-object overheads; they move what tracking moves"),
    Prediction(
        row="agent",
        metrics=_names("agent", ("step", "negative_info", "pd_control",
                                 "snapshot_packet"), ("ms_per_step",)),
        works_on=_ALL,
        moves=tuple(f"step_ms_p50@{w}" for w in _ALL),
        note="agent.step is its self time only"),
    Prediction(
        row="agent-pheromone-waypoint",
        metrics=("agent.pheromone_waypoint.ms_per_step",),
        works_on=("sim2d-pheromone", "sim2d-odometry", "hardware-table"),
        moves=("step_ms_p50@sim2d-pheromone",),
        zero_on=("team8-levy",)),
    Prediction(
        row="world",
        metrics=_names("world", ("deliver_broadcasts", "sense_targets",
                                 "sense_displacement", "step_dynamics"),
                       ("ms_per_step",))
        + ("world.packets_per_step", "world.detections_per_step"),
        works_on=_ALL,
        moves=tuple(f"agent_steps_per_s@{w}" for w in _ALL),
        note="most of all on team8-levy, where packets grow as N^2"),
    Prediction(
        row="sensing-table",
        metrics=("sensing.interpolate_cov.ms_per_step",
                 "sensing.interpolate_cov.calls_per_step",
                 "sensing.best_viewpoint.ms_per_run"),
        works_on=("hardware-table",),
        moves=("agent_steps_per_s@hardware-table", "setup_s@hardware-table"),
        note="the calibration-table path runs on hardware-table only"),
    Prediction(
        row="harness-step",
        metrics=("harness.simulate_run.self.ms_per_step",
                 "harness.objective_H.ms_per_step"),
        works_on=_ALL,
        moves=tuple(f"agent_steps_per_s@{w}" for w in _ALL)),
    Prediction(
        row="harness-setup",
        metrics=("harness.build_brains.ms_per_run",),
        works_on=_ALL,
        moves=tuple(f"setup_s@{w}" for w in _ALL)),
    Prediction(
        row="baselines-levy",
        metrics=("baselines.levy_waypoint.ms_per_step",),
        works_on=("team8-levy",),
        moves=("agent_steps_per_s@team8-levy",),
        zero_on=("sim2d-pheromone", "sim2d-odometry", "hardware-table")),
)
