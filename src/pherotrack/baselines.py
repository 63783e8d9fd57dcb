"""Comparison algorithms: Levy-walk search, local-greedy selection,
centralized auction assignment, and a simplified anti-flocking search.

These deliberately get capabilities the proposed stack does not have (the
auction sees every agent's table; anti-flocking gets global positions and a
shared visited map).  The Levy walker goes the other way: it never touches
pheromone state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy.signal import fftconvolve

from .estimation import flat_entropy


class NoFeasibleAssignmentError(ValueError):
    """A bidder in the auction has no finite-value object to bid on."""


@dataclass
class LevyConfig:
    mu: float = 1.5            # power-law tail exponent
    step_min: float = 1.0
    step_max: float = 42.5     # default: the 30x30 domain diagonal

    def __post_init__(self):
        if not (1.0 < self.mu <= 3.0):
            raise ValueError("tail exponent must be in (1, 3]")
        if not (0 < self.step_min < self.step_max):
            raise ValueError("need 0 < step_min < step_max")


def levy_step_length(cfg: LevyConfig, rng) -> float:
    """Draw from a Pareto law truncated to [step_min, step_max].

    Inverse-CDF sampling of p(L) ~ L^-mu on the truncated support.
    """
    a = cfg.mu - 1.0
    lo = cfg.step_min ** -a
    hi = cfg.step_max ** -a
    u = rng.random()
    return (lo - u * (lo - hi)) ** (-1.0 / a)


def levy_waypoint(carried, shift, q_star: float, cfg: LevyConfig, rng,
                  own_pos=None, domain=None):
    """Levy-walk exploration waypoint in the local frame.

    The carried waypoint shifts with the agent and is replaced, once the
    agent gets within ``q_star`` of it, by a fresh leg with Pareto length and
    uniform direction.  When the harness supplies the true pose and domain,
    the leg endpoint is clamped into the domain (a carried endpoint that
    odometry drift has pushed through a wall triggers a redraw instead).
    """
    shift = np.asarray(shift, dtype=float).reshape(2)
    if carried is not None:
        wp = carried + shift
        inside = True
        if own_pos is not None and domain is not None:
            # Odometry drift can walk the carried endpoint through a wall,
            # where it becomes unreachable; redraw instead of pushing on it.
            tgt = np.asarray(own_pos, dtype=float) + wp
            inside = (0.0 <= tgt[0] <= domain[0] and 0.0 <= tgt[1] <= domain[1])
        if inside and math.hypot(wp[0], wp[1]) >= q_star:
            return wp
    length = levy_step_length(cfg, rng)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    wp = length * np.array([math.cos(angle), math.sin(angle)])
    if own_pos is not None and domain is not None:
        target = np.asarray(own_pos, dtype=float) + wp
        target[0] = np.clip(target[0], 0.0, domain[0])
        target[1] = np.clip(target[1], 0.0, domain[1])
        wp = target - own_pos
    return wp


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


@dataclass
class AuctionConfig:
    epsilon: float = 0.01
    max_rounds: int = 100_000


def auction_assign(costs, cfg: AuctionConfig | None = None) -> dict:
    """Bertsekas auction over an agents x targets cost table.

    Missing pairs carry +inf cost.  Bidding runs on the smaller side (targets
    bid for agents when agents are plentiful) so every target that someone
    knows about ends up assigned, injectively, to a distinct agent.  With a
    bid increment below the cost granularity the result matches the optimal
    assignment.

    Returns a dict agent_index -> target_index.
    """
    cfg = cfg or AuctionConfig()
    costs = np.asarray(costs, dtype=float)
    n_agents, n_targets = costs.shape
    values = np.where(np.isfinite(costs), -costs, -np.inf)

    if n_targets <= n_agents:
        pairing = _auction_core(values.T, cfg)       # target bids for agents
        return {agent: tgt for tgt, agent in pairing.items()}
    pairing = _auction_core(values, cfg)             # agent bids for targets
    return dict(pairing)


def _pad_square(values):
    """Append zero-value dummy bidders until the problem is square.

    With fewer bidders than objects, a price inflated during an early
    scaling phase can be left on an object that finishes unassigned, and
    the near-optimality argument (which cancels price sums between any two
    assignments) no longer applies.  Dummy bidders value every object
    equally, so they absorb the surplus objects without changing which real
    assignment is optimal, and every phase ends in a perfect matching.
    """
    n_bidders, n_objects = values.shape
    if n_bidders == n_objects:
        return values
    pad = np.zeros((n_objects - n_bidders, n_objects))
    return np.vstack([values, pad])


def _auction_core(values, cfg: AuctionConfig) -> dict:
    """Forward auction with epsilon scaling.

    Every row (bidder) ends up with a distinct column.  Bidding runs in
    phases of decreasing increment, prices carrying over, so termination
    stays fast even when the cost range dwarfs the final epsilon.
    """
    n_real, _ = values.shape
    if n_real > values.shape[1]:
        raise NoFeasibleAssignmentError("more bidders than objects")
    if not np.isfinite(values).any(axis=1).all():
        raise NoFeasibleAssignmentError("a bidder has no feasible object")
    values = _pad_square(values)
    n_bidders, n_objects = values.shape

    finite = values[np.isfinite(values)]
    value_range = (finite.max() - finite.min()) if len(finite) else 1.0
    lock_bid = value_range + 1.0

    schedule = []
    eps = max(cfg.epsilon, value_range / 2.0)
    while eps > cfg.epsilon:
        schedule.append(eps)
        eps /= 8.0
    schedule.append(cfg.epsilon)

    prices = np.zeros(n_objects)
    rounds = 0
    for eps in schedule:
        owner = {}
        assignment = {}
        unassigned = list(range(n_bidders))
        # In a feasible phase the total price increase is bounded; a price
        # running away past this ceiling means two bidders are locked in a
        # bid war over an object only one of them can concede, i.e. no
        # perfect matching exists.
        ceiling = prices.max() + (n_bidders + 2) * (lock_bid + eps + 1.0)
        while unassigned:
            rounds += 1
            if rounds > cfg.max_rounds:
                raise RuntimeError("auction failed to terminate")
            if prices.max() > ceiling:
                raise NoFeasibleAssignmentError(
                    "bid war: no perfect matching over finite-value pairs")
            i = unassigned.pop()
            net = values[i] - prices
            j = int(np.argmax(net))
            best = net[j]
            if not np.isfinite(best):
                raise NoFeasibleAssignmentError(
                    f"bidder {i} priced out of all objects")
            net[j] = -np.inf
            second = net.max()
            raise_by = (best - second + eps) if np.isfinite(second) \
                else (lock_bid + eps)
            prices[j] += raise_by
            if j in owner:
                unassigned.append(owner[j])
                del assignment[owner[j]]
            owner[j] = i
            assignment[i] = j
    return {i: j for i, j in assignment.items() if i < n_real}


@dataclass
class VisitedMap:
    """Shared global visited-cell map for the anti-flocking baseline."""

    domain: tuple
    cell_size: float = 1.0

    def __post_init__(self):
        self.nx = max(1, int(math.ceil(self.domain[0] / self.cell_size)))
        self.ny = max(1, int(math.ceil(self.domain[1] / self.cell_size)))
        self.visited = np.zeros((self.nx, self.ny), dtype=bool)
        self.xs = (np.arange(self.nx) + 0.5) * self.cell_size
        self.ys = (np.arange(self.ny) + 0.5) * self.cell_size

    def mark_seen(self, pos, radius):
        """Mark every cell center within ``radius`` of ``pos`` as visited."""
        dx = self.xs - pos[0]
        dy = self.ys - pos[1]
        self.visited |= (dx[:, None] ** 2 + dy[None, :] ** 2) <= radius ** 2

    def visited_fraction(self):
        return float(self.visited.mean())

    def cell_center(self, i, j):
        return np.array([self.xs[i], self.ys[j]])

    def is_visited_at(self, pos):
        i = int(np.clip(pos[0] / self.cell_size, 0, self.nx - 1))
        j = int(np.clip(pos[1] / self.cell_size, 0, self.ny - 1))
        return bool(self.visited[i, j])


def antiflocking_waypoint(vmap: VisitedMap, own_pos, rng, gain_radius=4.0,
                          gain_weight=1.0):
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

    half = max(1, int(math.ceil(gain_radius / vmap.cell_size)))
    ax = np.arange(-half, half + 1) * vmap.cell_size
    kern = (ax[:, None] ** 2 + ax[None, :] ** 2) <= gain_radius ** 2
    gain = fftconvolve(unvisited.astype(float), kern.astype(float), mode="same")

    dx = vmap.xs[:, None] - own_pos[0]
    dy = vmap.ys[None, :] - own_pos[1]
    dist = np.sqrt(dx ** 2 + dy ** 2)
    score = np.where(unvisited, gain_weight * gain - dist, -np.inf)
    best = score.max()
    ties = np.argwhere(score >= best - 1e-9)
    if len(ties) > 1:
        # Nearest tie, then lowest index, for deterministic replay.
        d = dist[ties[:, 0], ties[:, 1]]
        ties = ties[np.lexsort((ties[:, 1], ties[:, 0], d))]
    i, j = ties[0]
    return vmap.cell_center(i, j) - own_pos
