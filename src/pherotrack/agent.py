"""The full per-agent loop: broadcast, ingest, select, steer.

Each step an agent emits its pre-update lists, folds this step's detections
and received packets into its target and pheromone storage, negotiates a
target, and produces a bounded unicycle control toward either the
exploitation waypoint (target chosen) or the exploration waypoint (searching).
All brains of a run share one :class:`AgentConfig`; a brain holds only its
id, its random stream, its explorer and its own state.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import pheromone as ph
from .baselines import local_greedy_select
from .estimation import GaussianEstimate, add2, add4, entropy, scaled_eye
from .sensing import (AnalyticCovMap, CalibrationTable, SectorFov,
                      best_viewpoint, contains, rot2, wrap_angle)
from .tracking import (LocalTargetList, TrackerConfig, combined_estimate,
                       select_target, update_storage)

MISS_BUMP = scaled_eye(1.0)   # added to records a miss contradicts
# PD gains: waypoint distance to speed, bearing and its change to turn rate.
KP_R = 0.5
KP_THETA = 1.0
KD_THETA = 0.2


@dataclass
class ControlInput:
    """Forward speed (bl/step) and turn rate (rad/step)."""

    u1: float
    u2: float


@dataclass
class BroadcastPacket:
    """What an agent puts on the air each step.

    Contents snapshot the pre-update lists (the broadcast precedes the
    storage updates in the per-step order).  ``rel_pos`` is empty on
    emission; the channel attaches the receiver-side measurement of the
    sender at delivery.
    """

    sender: int
    pheromones: ph.PheromoneList
    targets: list
    rel_pos: GaussianEstimate | None = None


def pd_control(waypoint_body, prev_face_body, u_max,
               face_body) -> ControlInput:
    """PD law toward a body-frame waypoint (agent at origin, heading +x).

    Turn rate is proportional to the bearing of the facing reference
    ``face_body`` plus a damping term on its change; forward speed is
    proportional to the waypoint distance, gated to zero when the reference
    is behind the agent.  A parked exploiting agent
    keeps its sensor on the target by facing the estimate rather than the
    near-zero waypoint.  Outputs are clamped to ``u_max``.
    """
    wx, wy = float(waypoint_body[0]), float(waypoint_body[1])
    dist = math.hypot(wx, wy)
    fx, fy = float(face_body[0]), float(face_body[1])
    if math.hypot(fx, fy) < 1e-12:
        return ControlInput(0.0, 0.0)
    bearing = math.atan2(fy, fx)
    if prev_face_body is None or math.hypot(*prev_face_body) < 1e-12:
        d_bearing = 0.0
    else:
        prev_bearing = math.atan2(prev_face_body[1], prev_face_body[0])
        d_bearing = wrap_angle(bearing - prev_bearing)
    # min(max(x, lo), hi) with x first is np.clip's rule for one float:
    # x wins ties (signed zeros) and NaN passes through.
    u2 = KP_THETA * bearing + KD_THETA * d_bearing
    u2 = min(max(u2, -float(u_max[1])), float(u_max[1]))
    u1 = KP_R * dist * max(0.0, math.cos(bearing))
    u1 = min(max(u1, 0.0), float(u_max[0]))
    return ControlInput(u1, u2)


@dataclass
class Telemetry:
    """Per-step record: mode, chosen target, waypoint, exploit entropy."""

    target_id: int
    mode: str
    waypoint: np.ndarray
    entropy: float | None


@dataclass
class AgentConfig:
    """What every brain of a run shares; the map grid's radius is r_c."""

    fov: SectorFov
    cov_map: InitVar[AnalyticCovMap | CalibrationTable]
    tracker_cfg: TrackerConfig
    pher_cfg: ph.PheromoneConfig
    grid_geom: ph.GridGeometry
    u_max: np.ndarray
    q_star: float
    assign: str                 # greedy-distributed | local-greedy | auction
    domain: tuple               # wall geometry, standing in for a wall sensor
    viewpoint: np.ndarray = field(init=False)

    def __post_init__(self, cov_map):
        self.u_max = np.asarray(self.u_max, dtype=float).reshape(2)
        self.viewpoint = best_viewpoint(cov_map, self.fov)


@dataclass
class AgentBrain:
    """All per-agent state of the distributed loop."""

    agent_id: int
    cfg: AgentConfig
    rng: np.random.Generator
    explorer: Callable | None = None  # baseline search; None: pheromones

    local_targets: LocalTargetList = field(default_factory=LocalTargetList)
    neighbor_targets: dict = field(default_factory=dict)
    own_pheromones: ph.PheromoneList = None
    neighbor_pheromones: dict = field(default_factory=dict)
    carried: tuple | None = None    # (waypoint, stored weight) while exploring
    selected_target: int = 0
    prev_waypoint_body: np.ndarray | None = None
    step_count: int = 0

    def __post_init__(self):
        if self.own_pheromones is None:
            self.own_pheromones = ph.PheromoneList(self.agent_id)

    @property
    def mode(self) -> str:
        return "exploit" if self.selected_target > 0 else "explore"

    def snapshot_packet(self) -> BroadcastPacket:
        # Copies share their float tuples, which cannot change.
        return BroadcastPacket(
            sender=self.agent_id,
            pheromones=self.own_pheromones.copy(),
            targets=[r.copy() for r in self.local_targets.records.values()],
        )

    # -- pheromone search helpers ------------------------------------------

    def _all_pheromones(self) -> ph.PheromoneList:
        """Every held deposit, own and neighbors', as one list."""
        return ph.PheromoneList(self.agent_id, np.concatenate(
            [self.own_pheromones.rows]
            + [pl.rows for pl in self.neighbor_pheromones.values()]))

    def pheromone_map(self, deposits=None) -> ph.PheromoneGrid:
        """The map this agent steers by, built from ``deposits`` (default:
        every held deposit): stamped disks for delta-kernel deposits, else
        the maximum of every deposit's diffused region."""
        if deposits is None:
            deposits = self._all_pheromones()
        radius = self.cfg.pher_cfg.footprint_radius
        geom = self.cfg.grid_geom
        if deposits.delta_only():
            return ph.delta_map(deposits.positions, deposits.weights, radius,
                                geom)
        regions = [ph.diffuse_region(p, c, w, radius, geom) for p, c, w in
                   zip(deposits.positions, deposits.covs, deposits.weights)]
        return ph.build_map(regions, geom)

    def _clamper(self, own_pos):
        """A function clamping a relative point (two floats) into the
        physical domain.

        Target motion reflects at the walls but estimates drift freely, so an
        unclamped stale mean can sit outside the domain where no agent can
        ever reach or disprove it.
        """
        ox, oy = float(own_pos[0]), float(own_pos[1])
        wx, wy = self.cfg.domain

        def clamp(rel):
            gx = min(max(ox + rel[0], 0.0), wx)
            gy = min(max(oy + rel[1], 0.0), wy)
            return (gx - ox, gy - oy)
        return clamp

    def _in_domain(self, waypoint, own_pos):
        gx, gy = own_pos[0] + waypoint[0], own_pos[1] + waypoint[1]
        wx, wy = self.cfg.domain
        return 0.0 <= gx <= wx and 0.0 <= gy <= wy

    def _domain_mask(self, own_pos):
        coords = self.cfg.grid_geom.coords
        gx, gy = coords + own_pos[0], coords + own_pos[1]
        in_x = (gx >= 0.0) & (gx <= self.cfg.domain[0])
        in_y = (gy >= 0.0) & (gy <= self.cfg.domain[1])
        return in_x[:, None] & in_y[None, :]

    def _pheromone_waypoint(self, shift, own_pos):
        cfg = self.cfg
        deposits = self._all_pheromones()
        if self.carried is not None and deposits.delta_only():
            # Cheap recompute test without materializing the raster.
            wp = self.carried[0] + shift
            norm = math.hypot(wp[0], wp[1])
            value = ph.pheromone_value_at(
                wp, deposits.positions, deposits.weights,
                cfg.pher_cfg.footprint_radius, cfg.grid_geom)
            if (norm >= cfg.q_star and norm <= cfg.grid_geom.radius
                    and self._in_domain(wp, own_pos)
                    and value <= self.carried[1] + ph.ARGMIN_TOL):
                self.carried = (wp, value)
                return wp

        wp, w = ph.exploration_waypoint(self.pheromone_map(deposits),
                                        self.carried, shift,
                                        cfg.grid_geom.radius, cfg.q_star,
                                        self.rng, self._domain_mask(own_pos))
        self.carried = (wp, w)
        return wp

    def _apply_negative_info(self, detections, heading, own_pos):
        """Inflate records contradicted by looking and not seeing.

        Two kinds of negative evidence, both applied to this agent's own
        records and to its held copies of neighbor records:

        * The record's (clamped, local-frame) mean sits inside the currently
          sensed sector, yet the target was not detected.
        * The record has gone unrefreshed for longer than a pheromone
          lifetime while its location carries fresh pheromone, i.e. someone
          searched there since and would have reported the target.

        Without this, a stale record is effectively immortal (nominal growth
        reaches the prune threshold only after thousands of steps) and an
        agent can chase a phantom indefinitely.
        """
        cfg = self.cfg
        det_ids = {tid for tid, _ in detections}
        sector = SectorFov(max(cfg.fov.range_bl - 0.25, 1e-6),
                           max(cfg.fov.half_angle - 0.05, 1e-6), heading)
        clamp = self._clamper(own_pos)
        lifetime = cfg.pher_cfg.max_list_length()
        deposits = None   # gathered on first need

        def searched_since(mean, last_update):
            nonlocal deposits
            if self.explorer is not None \
                    or self.step_count - last_update <= lifetime:
                return False
            if math.hypot(mean[0], mean[1]) > cfg.grid_geom.radius:
                return False
            if deposits is None:
                deposits = self._all_pheromones()
            if not len(deposits) or not deposits.delta_only():
                return False
            value = ph.pheromone_value_at(
                mean, deposits.positions, deposits.weights,
                cfg.pher_cfg.footprint_radius, cfg.grid_geom)
            return value > cfg.pher_cfg.w_floor

        holdings = [(self.local_targets.records, None)]
        for nlist in self.neighbor_targets.values():
            if nlist.rel_mean is not None:
                holdings.append((nlist.records, nlist.rel_mean))
        for records, offset in holdings:
            for tid, rec in records.items():
                if tid in det_ids:
                    continue
                mean = clamp(rec.mean if offset is None
                             else add2(rec.mean, offset))
                if contains(sector, mean) or \
                        searched_since(mean, rec.last_update_step):
                    rec.cov = add4(rec.cov, MISS_BUMP)

    # -- the per-step loop --------------------------------------------------

    def step(self, detections, rx_packets, displacement, sigma_dp, heading,
             own_pos, forced_target=None):
        """Run one full agent iteration.

        Args:
            detections: list of (target_id, GaussianEstimate) from the sensor.
            rx_packets: BroadcastPackets delivered this step, each with the
                channel-attached ``rel_pos`` measurement of its sender.
            displacement: sensed own displacement p(t) - p(t-1), local frame.
            sigma_dp: covariance of the displacement measurement.
            heading: sensed own heading in the local frame (dead-reckoned on
                hardware, exact in the ideal simulation).
            own_pos: global position granted by the harness, used to keep
                waypoints inside the physical domain (standing in for a wall
                sensor) and handed to the baseline explorer.
            forced_target: externally imposed selection (used by the
                centralized auction baseline); None means negotiate locally.

        Returns:
            (BroadcastPacket, ControlInput, Telemetry)
        """
        cfg = self.cfg
        packet = self.snapshot_packet()

        shift = -np.asarray(displacement, dtype=float).reshape(2)
        target_rx = [(p.sender, p.targets, p.rel_pos) for p in rx_packets]
        update_storage(self.local_targets, self.neighbor_targets, detections,
                       target_rx, shift, sigma_dp, cfg.tracker_cfg,
                       step=self.step_count)

        self._apply_negative_info(detections, heading, own_pos)

        if self.explorer is None:
            pher_rx = [
                (p.sender, p.pheromones,
                 self.neighbor_targets[p.sender].rel_mean)
                for p in rx_packets
            ]
            ph.update_pheromones(self.own_pheromones, self.neighbor_pheromones,
                                 pher_rx, shift, sigma_dp, cfg.pher_cfg)

        if forced_target is not None:
            k_star = int(forced_target)
        elif cfg.assign == "local-greedy":
            sector = SectorFov(cfg.fov.range_bl, cfg.fov.half_angle, heading)
            k_star = local_greedy_select(
                self.local_targets, lambda mean: contains(sector, mean))
        else:
            k_star = select_target(self.agent_id, self.local_targets,
                                   self.neighbor_targets)
        self.selected_target = k_star

        exploit_entropy = None
        if k_star > 0:
            est = combined_estimate(
                [(self.local_targets, self.neighbor_targets)],
                [k_star]).get((0, k_star))
            if est is None:
                # A forced selection can lag the lists by a step; fall back
                # to exploring until the external assignment catches up.
                k_star = 0
                self.selected_target = 0
        if k_star > 0:
            exploit_entropy = entropy(est.cov)
            # Anchor the best-viewpoint offset to the line of sight, not the
            # current heading: the park point must not rotate as the agent
            # turns, or chasing it becomes a limit cycle.
            goal = np.asarray(self._clamper(own_pos)(est.mean.tolist()))
            d = math.hypot(goal[0], goal[1])
            r_star = math.hypot(*cfg.viewpoint)
            if d <= r_star:
                # Already closer than the best viewpoint: the target is well
                # inside the sector's range, so hold position and keep facing
                # it.  Driving toward a park point that lies behind the agent
                # degenerates into an orbit that sweeps the target out of
                # view.
                waypoint = np.zeros(2)
            else:
                los = math.atan2(goal[1], goal[0]) if d > 1e-9 else heading
                viewpoint = rot2(los) @ cfg.viewpoint
                waypoint = goal - viewpoint
            face = goal
            self.carried = None
        elif self.explorer is not None:
            waypoint = self.explorer(shift, own_pos)
            face = waypoint
        else:
            waypoint = self._pheromone_waypoint(shift, own_pos)
            face = waypoint

        to_body = rot2(-heading)
        waypoint_body = to_body @ waypoint
        face_body = to_body @ face
        control = pd_control(waypoint_body, self.prev_waypoint_body,
                             cfg.u_max, face_body)
        self.prev_waypoint_body = face_body

        telemetry = Telemetry(k_star, self.mode, np.asarray(waypoint, float),
                              exploit_entropy)
        self.step_count += 1
        return packet, control, telemetry
