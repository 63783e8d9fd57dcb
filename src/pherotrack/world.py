"""Ground truth and physics.

Owns the domain, agent unicycle integration, Brownian targets, sector-FOV
measurement generation, the r-disk broadcast channel with its periodic
reception schedule, and displacement sensing.  Everything here is
harness-side: agents never see global positions.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .estimation import EPS_INV, EYE2, GaussianEstimate
from .sensing import (AnalyticCovMap, SectorFov, best_viewpoint,
                      load_calibration_csv, sector_polar,
                      synthetic_calibration_table, wrap_angle)


# Diagonal added before every Cholesky factor of a noise covariance, so
# that a singular but PSD one still factors.
CHOL_JITTER = 1e-15


class AssumptionError(ValueError):
    """A world configuration violates one of the standing assumptions."""


@dataclass
class WorldConfig:
    """Full simulation configuration.

    Distances in bl, angles in radians unless the field name says degrees.
    """

    domain: tuple = (30.0, 30.0)     # width, height of the rectangle
    n_agents: int = 6
    n_targets: int = 4
    q_k: tuple = ((0.005, 0.0), (0.0, 0.005))    # true target process noise
    q_bar: tuple = ((0.01, 0.0), (0.0, 0.01))    # known bound on q_k
    r_c: float = 12.0                # communication radius
    rx_period: int = 3               # steps between receptions
    r_s: float = 4.0                 # sensing radius
    phi_c_deg: float = 120.0         # full sector angle
    k1: float = 1.0
    k2: float = 1.0
    r_bar: float = 2.0               # best-estimate range of the camera model
    eta_floor: float = 1e-3
    k_p: float = 1.0                 # neighbor position sensing noise gain
    u_max: tuple = (0.4, math.radians(15.0))
    r_dp: tuple = ((0.0, 0.0), (0.0, 0.0))       # displacement sensing noise
    sigma_bar: float = 3600.0        # target deletion threshold on det
    w_init: float = 35.0
    w_decay: float = 0.16
    w_floor: float = 0.1
    cell_size: float = 0.25
    q_star: float = 0.5              # waypoint-reached radius
    calibration_csv: str | None = None   # use a table-based covariance map

    def __post_init__(self):
        self.domain = tuple(float(v) for v in self.domain)
        self.q_k = np.asarray(self.q_k, dtype=float).reshape(2, 2)
        self.q_bar = np.asarray(self.q_bar, dtype=float).reshape(2, 2)
        self.r_dp = np.asarray(self.r_dp, dtype=float).reshape(2, 2)
        self.u_max = np.asarray(self.u_max, dtype=float).reshape(2)
        self.validate()

    @property
    def half_angle(self):
        return math.radians(self.phi_c_deg) / 2.0

    def cov_map(self) -> AnalyticCovMap:
        return AnalyticCovMap(self.k1, self.k2, self.r_bar, self.eta_floor)

    def domain_diagonal(self):
        return math.hypot(*self.domain)

    def validate(self):
        """Assumption gate: runs at load, aborts before any stepping."""
        if len(self.domain) != 2 or min(self.domain) <= 0:
            raise AssumptionError("domain must have two positive extents")
        if self.cell_size <= 0:
            raise AssumptionError("pheromone cell size must be positive")
        if self.r_s <= 0:
            raise AssumptionError("sensing radius must be positive")
        # The sector test's own rule, checked before any sector is built.
        if not 0 < 2 * self.half_angle <= 2 * math.pi:
            raise AssumptionError("sector angle phi_c_deg must be in (0, 360]")
        # The channel draws neighbor noise with variance max(k_p d, floor),
        # so a negative gain can make the variance negative.
        if not self.k_p >= 0:
            raise AssumptionError("neighbor sensing gain k_p must not be "
                                  "negative")
        if not self.u_max[1] > 0:
            raise AssumptionError("turn-rate limit u_max[1] must be positive")
        if self.sigma_bar <= 0:
            raise AssumptionError("target deletion threshold must be positive")
        # Noise covariances: exactly symmetric, and factored as make_state
        # factors them.
        for name in ("q_k", "q_bar", "r_dp"):
            cov = getattr(self, name)
            try:
                if cov[0, 1] != cov[1, 0]:
                    raise np.linalg.LinAlgError
                np.linalg.cholesky(cov + EYE2 * CHOL_JITTER)
            except np.linalg.LinAlgError:
                raise AssumptionError(f"noise covariance {name} must be "
                                      "symmetric positive semi-definite") \
                    from None
        if not self.q_star > 0:
            raise AssumptionError("waypoint-reached radius q_star must be "
                                  "positive")
        if self.r_s > self.r_c:
            raise AssumptionError(
                "sensing-communication relation violated: r_s > r_c"
            )
        gap = np.linalg.eigvalsh(self.q_bar - self.q_k)[0]
        if gap < -1e-12:
            raise AssumptionError(
                "target noise bound violated: q_k not dominated by q_bar"
            )
        # Worst-case per-step target motion at 3 sigma must stay below the
        # agent's top speed.
        step_3sigma = 3.0 * math.sqrt(float(np.trace(self.q_k)))
        if self.u_max[0] <= step_3sigma:
            raise AssumptionError(
                "agent max speed does not dominate target motion at 3 sigma"
            )
        if not (0 < self.w_decay < 1 and 0 < self.w_floor < self.w_init):
            raise AssumptionError("pheromone parameters out of range")
        counts = (self.n_agents, self.n_targets, self.rx_period)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in counts):
            raise AssumptionError(
                "n_agents, n_targets and rx_period must be integers")
        if self.rx_period < 1 or self.n_agents < 1:
            raise AssumptionError("counts and periods must be positive")
        if self.n_targets < 0:
            raise AssumptionError("target count must not be negative")
        # Every estimate gets inverted in fusion, and a fusion chain holds up
        # to n_agents views at the floor: their fused covariance, floor /
        # n_agents, must still clear the inversion limit.
        if not self.eta_floor > self.n_agents * EPS_INV:
            raise AssumptionError(
                "sensor noise floor eta_floor must exceed "
                f"n_agents * {EPS_INV} = {self.n_agents * EPS_INV:g}")
        if self.calibration_csv is not None:
            # Kept for the runs, so a table is built or parsed once per
            # check; not a field, so it stays out of the JSON form.
            self.calibration_table = self._calibration_table()

    def _calibration_table(self):
        path = self.calibration_csv
        if path and not os.path.isfile(path):
            raise AssumptionError(f"calibration table {path} does not exist")
        fov = SectorFov(self.r_s, self.half_angle)
        try:
            table = load_calibration_csv(path) if path else \
                synthetic_calibration_table(self.cov_map(), fov)
            best_viewpoint(table, fov)    # needs a sample inside the sector
        except (KeyError, TypeError, ValueError) as err:
            raise AssumptionError(
                f"calibration table {path or '(synthetic)'} is unusable: "
                f"{err!r}") from None
        return table

    def to_json(self, path):
        d = asdict(self)
        for k in ("q_k", "q_bar", "r_dp", "u_max"):
            d[k] = np.asarray(d[k]).tolist()
        with open(path, "w") as f:
            json.dump(d, f, indent=2)

    @classmethod
    def from_json(cls, path):
        with open(path) as f:
            params = json.load(f)
        if not isinstance(params, dict):
            raise AssumptionError(f"{path}: config must be a JSON object")
        unknown = set(params) - {f.name for f in fields(cls)}
        if unknown:
            raise AssumptionError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**params)
        except TypeError as err:
            raise AssumptionError(f"{path}: mistyped config value: {err}") \
                from err


def sim_2d_preset(**overrides) -> WorldConfig:
    """The ideal 2D simulation configuration (30x30 bl, camera model)."""
    return WorldConfig(**overrides)


def hardware_table_preset(**overrides) -> WorldConfig:
    """Hardware-flavored configuration (blimp testbed values, 2D projection).

    Uses a calibration-table covariance map when ``calibration_csv`` points
    at a table; otherwise the gate builds a synthetic table from the camera
    model.
    """
    params = dict(
        domain=(10.0, 6.0),
        n_agents=2,
        n_targets=2,
        q_k=((0.01, 0.0), (0.0, 0.01)),
        q_bar=((0.19, 0.0), (0.0, 0.15)),
        r_c=6.5,
        r_s=5.5,
        phi_c_deg=120.0,
        u_max=(0.6, math.radians(15.0)),
        w_init=15.0,
        w_decay=0.3,
        w_floor=0.1,
        sigma_bar=3600.0,
        calibration_csv="",
    )
    params.update(overrides)
    return WorldConfig(**params)


PRESETS = {"sim-2d": sim_2d_preset, "hardware-table": hardware_table_preset}


@dataclass
class WorldState:
    """Ground truth at one time index, plus every named RNG stream."""

    agent_pos: np.ndarray        # (N, 2)
    agent_heading: np.ndarray    # (N,)
    target_pos: np.ndarray       # (M, 2)
    t: int = 0
    target_rngs: list = field(default_factory=list)
    sense_rngs: list = field(default_factory=list)
    channel_rngs: list = field(default_factory=list)
    # Per-run noise factors: Cholesky factors of the target process noise
    # and of the displacement noise (None when there is none).
    q_chol: np.ndarray | None = None
    dp_chol: np.ndarray | None = None


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + key))


def make_state(cfg: WorldConfig, seed: int) -> WorldState:
    """Randomly initialize agents and targets inside the domain.

    The master ``seed`` expands into independent named streams (placement, one
    per target, per agent sensor, per agent channel), so changing the agent
    count never perturbs target noise.
    """
    placement = _stream(seed, 0)
    w, h = cfg.domain
    agent_pos = placement.uniform((0, 0), (w, h), size=(cfg.n_agents, 2))
    agent_heading = placement.uniform(-np.pi, np.pi, size=cfg.n_agents)
    target_pos = placement.uniform((0, 0), (w, h), size=(cfg.n_targets, 2))
    return WorldState(
        agent_pos=agent_pos,
        agent_heading=agent_heading,
        target_pos=target_pos,
        target_rngs=[_stream(seed, 1, k) for k in range(cfg.n_targets)],
        sense_rngs=[_stream(seed, 2, i) for i in range(cfg.n_agents)],
        channel_rngs=[_stream(seed, 3, i) for i in range(cfg.n_agents)],
        q_chol=np.linalg.cholesky(cfg.q_k + EYE2 * CHOL_JITTER),
        dp_chol=None if np.abs(cfg.r_dp).max() <= 0
        else np.linalg.cholesky(cfg.r_dp + EYE2 * CHOL_JITTER),
    )


def agent_rng(seed: int, agent_id: int):
    """Dedicated stream for an agent's own decisions (waypoint draws)."""
    return _stream(seed, 4, agent_id)


def _reflect(x, lo, hi):
    # Reflect a scalar into [lo, hi]; steps are small so one pass suffices,
    # but loop for safety.
    while x < lo or x > hi:
        if x < lo:
            x = 2 * lo - x
        else:
            x = 2 * hi - x
    return x


def step_dynamics(state: WorldState, inputs, cfg: WorldConfig) -> WorldState:
    """Advance agents (unicycle, clamped to the domain) and targets
    (Brownian, reflected at the walls) by one step.  Mutates ``state``.
    """
    w, h = cfg.domain
    for i, u in enumerate(inputs):
        th = state.agent_heading[i]
        state.agent_pos[i, 0] += u.u1 * math.cos(th)
        state.agent_pos[i, 1] += u.u1 * math.sin(th)
        state.agent_heading[i] = wrap_angle(th + u.u2)
    np.clip(state.agent_pos[:, 0], 0.0, w, out=state.agent_pos[:, 0])
    np.clip(state.agent_pos[:, 1], 0.0, h, out=state.agent_pos[:, 1])

    chol = state.q_chol
    for k in range(len(state.target_pos)):
        noise = chol @ state.target_rngs[k].standard_normal(2)
        x = state.target_pos[k, 0] + noise[0]
        y = state.target_pos[k, 1] + noise[1]
        state.target_pos[k] = (_reflect(x, 0.0, w), _reflect(y, 0.0, h))

    state.t += 1
    return state


def target_in_fov(state: WorldState, agent: int, target: int,
                  cfg: WorldConfig) -> bool:
    """Whether the agent's true sector holds the target (0-based index)."""
    x, y = (state.target_pos[target] - state.agent_pos[agent]).tolist()
    return sector_polar(x, y, cfg.r_s, cfg.half_angle,
                        float(state.agent_heading[agent])) is not None


def sense_targets(state: WorldState, agent: int, cfg: WorldConfig,
                  cov_at=None):
    """Noisy relative-position measurements of every target in the FOV.

    Noise is drawn directly in the cartesian local frame with the covariance
    the map assigns to the target's true polar position, and that covariance
    is handed to the tracker alongside the measurement.  ``cov_at(r,
    bearing)`` gives a table's ``(cov, factor)``; without it the analytic
    map is used.  Target ids are 1-based (0 is the explore sentinel).
    """
    cmap = cfg.cov_map() if cov_at is None else None
    out = []
    rng = state.sense_rngs[agent]
    heading = float(state.agent_heading[agent])
    rels = state.target_pos - state.agent_pos[agent]
    for k, (x, y) in enumerate(rels.tolist()):
        polar = sector_polar(x, y, cfg.r_s, cfg.half_angle, heading)
        if polar is None:
            continue
        r, bearing = polar
        if cmap is None:
            cov, factor = cov_at(r, bearing)
            noise = factor @ rng.standard_normal(2)
        else:
            # The analytic covariance is var * I, whose Cholesky factor is
            # sqrt(var) * I; scaling the draw gives the product's bits.
            var = cmap.variance(r, bearing)
            cov = var * EYE2
            noise = math.sqrt(var) * rng.standard_normal(2)
        out.append((k + 1, GaussianEstimate(rels[k] + noise, cov)))
    return out


def sense_displacement(state: WorldState, agent: int, prev_pos,
                       cfg: WorldConfig):
    """Noisy measurement of the agent's own last displacement."""
    true_dp = state.agent_pos[agent] - np.asarray(prev_pos, dtype=float)
    if state.dp_chol is None:
        return true_dp.copy(), cfg.r_dp.copy()
    noise = state.dp_chol @ state.sense_rngs[agent].standard_normal(2)
    return true_dp + noise, cfg.r_dp.copy()


def deliver_broadcasts(packets, state: WorldState, t: int, cfg: WorldConfig):
    """r-disk delivery with the periodic reception schedule.

    Agent i receives j's packet iff they are within r_c and t is one of i's
    reception steps (all agents share phase 0).  Each delivery pairs the
    sender's packet, as sent, with a fresh receiver-side relative-position
    measurement of the sender with covariance diag(k_p * distance), floored
    to stay invertible.

    ``packets`` maps sender id to BroadcastPacket; returns receiver id ->
    list of (packet, measurement) pairs.
    """
    rx = {i: [] for i in range(cfg.n_agents)}
    if t % cfg.rx_period != 0:
        return rx
    for i in range(cfg.n_agents):
        rng = state.channel_rngs[i]
        rels = state.agent_pos - state.agent_pos[i]
        rel_xy = rels.tolist()
        for j, packet in packets.items():
            if j == i:
                continue
            dist = math.hypot(*rel_xy[j])
            if dist > cfg.r_c:
                continue
            var = max(cfg.k_p * dist, cfg.eta_floor)
            noise = math.sqrt(var) * rng.standard_normal(2)
            rx[i].append(
                (packet, GaussianEstimate(rels[j] + noise, var * EYE2)))
    return rx
