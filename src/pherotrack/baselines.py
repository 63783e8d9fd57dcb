"""Comparison algorithms: the baseline :class:`Explorer` with its Levy-walk
and anti-flocking draws, local-greedy selection, and the centralized auction
baseline: its exact least-cost assignment and the team-wide oracle that
applies it.

These deliberately get capabilities the proposed stack does not have (the
auction oracle sees every agent's table; anti-flocking gets global positions
and a shared visited map).  The Levy walker goes the other way: it never
touches pheromone state.  Parameters no run varies are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from scipy.optimize import linear_sum_assignment
from scipy.signal import fftconvolve

from .estimation import flat_entropy
from .tracking import cheapest_views

LEVY_MU = 1.5                # power-law tail exponent of the leg length
LEVY_STEP_MIN = 1.0          # shortest leg (bl)
VISITED_CELL = 1.0           # side of a visited-map cell (bl)


def levy_step_length(step_max: float, rng) -> float:
    """Draw from a Pareto law truncated to [LEVY_STEP_MIN, step_max].

    Inverse-CDF sampling of p(L) ~ L^-LEVY_MU on the truncated support.
    """
    a = LEVY_MU - 1.0
    lo = LEVY_STEP_MIN ** -a
    hi = step_max ** -a
    u = rng.random()
    return (lo - u * (lo - hi)) ** (-1.0 / a)


class Explorer:
    """Baseline search for one agent: ``explorer(shift, own_pos) -> local
    waypoint``.

    The leg endpoint is kept in the world frame: an agent may track for a
    while between explore calls, and a relative waypoint not shifted during
    that gap comes back stale (it can even point through a wall, leaving the
    agent pinned against it).  It is kept until the agent is within
    ``q_star`` of it or ``stale(endpoint)`` holds; then ``draw(own_pos)``
    gives the next local waypoint.
    """

    def __init__(self, q_star: float, draw, stale=None):
        self.q_star = q_star
        self.draw = draw
        self.stale = stale
        self.endpoint = None

    def __call__(self, shift, own_pos):
        wp = None if self.endpoint is None else self.endpoint - own_pos
        if wp is None or math.hypot(wp[0], wp[1]) < self.q_star or (
                self.stale is not None and self.stale(own_pos + wp)):
            wp = self.draw(own_pos)
        self.endpoint = own_pos + wp
        return wp


def levy_waypoint(step_max: float, rng, own_pos, domain):
    """A fresh Levy leg in the local frame: Pareto length, uniform
    direction, its endpoint clamped into the domain."""
    length = levy_step_length(step_max, rng)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    wp = length * np.array([math.cos(angle), math.sin(angle)])
    target = np.asarray(own_pos, dtype=float) + wp
    target[0] = np.clip(target[0], 0.0, domain[0])
    target[1] = np.clip(target[1], 0.0, domain[1])
    return target - own_pos


def local_greedy_select(local, fov_contains) -> int:
    """Pick the in-FOV local target with the least uncertainty.

    ``fov_contains`` is a predicate on record means, tuples ``(x, y)`` (the
    agent's current sector).  Returns 0 when nothing qualifies; ties go to
    the lower id.
    """
    best = None
    for tid, rec in local.records.items():
        if not fov_contains(rec.mean):
            continue
        key = (flat_entropy(rec.cov), tid)
        if best is None or key < best:
            best = key
    return best[1] if best else 0


def auction_assign(costs) -> dict:
    """Least-cost assignment over an agents x targets cost table: the result
    the paper's centralized auction baseline converges to.

    The smaller side is matched injectively into the larger one, exactly
    (scipy's rectangular Jonker-Volgenant solver); an all-equal table pairs
    the lowest indices.  Missing pairs carry +inf cost, and scipy raises
    ``ValueError`` if every complete matching needs one.

    Returns a dict agent_index -> target_index.
    """
    agents, targets = linear_sum_assignment(costs)
    return dict(zip(agents.tolist(), targets.tolist()))


@dataclass
class AuctionOracle:
    """Team-wide auction oracle: ``assignment`` (agent index -> forced target
    id) is the least-cost assignment of :func:`_team_auction`, recomputed
    every ``PERIOD`` steps and whenever the known targets change."""

    PERIOD = 15     # unannotated: a constant, not a field
    assignment: dict = field(init=False, default_factory=dict)
    known: set = field(init=False, default_factory=set)

    def update(self, t, brains):
        known = set()
        for b in brains:
            known |= set(b.local_targets.records)
            for nl in b.neighbor_targets.values():
                known |= set(nl.records)
        if t % self.PERIOD == 0 or known != self.known:
            self.assignment = _team_auction(brains, sorted(known),
                                            self.assignment)
            self.known = known


def _team_auction(brains, known, prev):
    """Centralized assignment over the union of current entropy tables.

    Uses each agent's cheapest view of each target
    (:func:`~pherotrack.tracking.cheapest_views`).  Pairs from the
    previous assignment persist while the agent still has a view and nobody
    else's view is dramatically sharper; without that hysteresis the near-tied
    broadcast copies make the winner rotate every recomputation and no agent
    ever settles.  The free agents and targets then get the exact least-cost
    assignment (:func:`auction_assign`).  Returns agent index -> 1-based
    target id.
    """
    if not known:
        return {}
    costs = np.empty((len(brains), len(known)))
    for bi, b in enumerate(brains):
        views = cheapest_views(b.local_targets, b.neighbor_targets)
        costs[bi] = [views.get(tid, math.inf) for tid in known]
    # A finite penalty for unknown pairs keeps the table feasible even when
    # two targets are known only through the same agent; an agent stuck with
    # a target it cannot see simply keeps exploring.
    penalty = 1e6
    costs[~np.isfinite(costs)] = penalty

    sticky = {}
    for agent, tid in prev.items():
        if tid not in known:
            continue
        ki = known.index(tid)
        c = costs[agent, ki]
        if c < penalty and costs[:, ki].min() > 1e-2 * c:
            sticky[tid] = agent

    free_agents = [a for a in range(len(brains)) if a not in sticky.values()]
    free_cols = [ki for ki, tid in enumerate(known) if tid not in sticky]
    out = {agent: tid for tid, agent in sticky.items()}
    if free_cols and free_agents:
        sub = costs[np.ix_(free_agents, free_cols)]
        pairing = auction_assign(sub)
        for a, ki in pairing.items():
            out[free_agents[a]] = known[free_cols[ki]]
    return out


@dataclass
class VisitedMap:
    """Shared global visited-cell map for the anti-flocking baseline."""

    domain: tuple

    def __post_init__(self):
        self.nx = max(1, int(math.ceil(self.domain[0] / VISITED_CELL)))
        self.ny = max(1, int(math.ceil(self.domain[1] / VISITED_CELL)))
        self.visited = np.zeros((self.nx, self.ny), dtype=bool)
        self.xs = (np.arange(self.nx) + 0.5) * VISITED_CELL
        self.ys = (np.arange(self.ny) + 0.5) * VISITED_CELL

    def mark_seen(self, pos, radius):
        """Mark every cell center within ``radius`` of ``pos`` as visited."""
        dx = self.xs - pos[0]
        dy = self.ys - pos[1]
        self.visited |= (dx[:, None] ** 2 + dy[None, :] ** 2) <= radius ** 2

    def cell_center(self, i, j):
        return np.array([self.xs[i], self.ys[j]])

    def is_visited_at(self, pos):
        i = int(np.clip(pos[0] / VISITED_CELL, 0, self.nx - 1))
        j = int(np.clip(pos[1] / VISITED_CELL, 0, self.ny - 1))
        return bool(self.visited[i, j])


def antiflocking_waypoint(vmap: VisitedMap, own_pos, rng, gain_radius=4.0):
    """Globally informed exploration waypoint.

    Scores every unvisited cell by the unexplored area around it minus the
    travel cost from the agent, and returns the best cell center in the
    agent's local frame.  A fully visited map falls back to a uniformly
    random cell.
    """
    own_pos = np.asarray(own_pos, dtype=float)
    unvisited = ~vmap.visited
    if not unvisited.any():
        i = rng.integers(vmap.nx)
        j = rng.integers(vmap.ny)
        return vmap.cell_center(i, j) - own_pos

    half = max(1, int(math.ceil(gain_radius / VISITED_CELL)))
    ax = np.arange(-half, half + 1) * VISITED_CELL
    kern = (ax[:, None] ** 2 + ax[None, :] ** 2) <= gain_radius ** 2
    gain = fftconvolve(unvisited.astype(float), kern.astype(float), mode="same")

    dx = vmap.xs[:, None] - own_pos[0]
    dy = vmap.ys[None, :] - own_pos[1]
    dist = np.sqrt(dx ** 2 + dy ** 2)
    score = np.where(unvisited, gain - dist, -np.inf)
    best = score.max()
    ties = np.argwhere(score >= best - 1e-9)
    if len(ties) > 1:
        # Nearest tie, then lowest index, for deterministic replay.
        d = dist[ties[:, 0], ties[:, 1]]
        ties = ties[np.lexsort((ties[:, 1], ties[:, 0], d))]
    i, j = ties[0]
    return vmap.cell_center(i, j) - own_pos
