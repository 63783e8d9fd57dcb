"""Comparison algorithms: Levy-walk search, local-greedy selection,
centralized auction assignment and its team-wide oracle, and a simplified
anti-flocking search (the harness wraps both searches as explorers).

These deliberately get capabilities the proposed stack does not have (the
auction oracle sees every agent's table; anti-flocking gets global positions
and a shared visited map).  The Levy walker goes the other way: it never
touches pheromone state.  Parameters no run varies are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from scipy.signal import fftconvolve

from .estimation import add4, flat_entropy

LEVY_MU = 1.5                # power-law tail exponent of the leg length
LEVY_STEP_MIN = 1.0          # shortest leg (bl)
AUCTION_EPSILON = 0.01       # final bid increment
AUCTION_MAX_ROUNDS = 100_000
VISITED_CELL = 1.0           # side of a visited-map cell (bl)


class NoFeasibleAssignmentError(ValueError):
    """A bidder in the auction has no finite-value object to bid on."""


def levy_step_length(step_max: float, rng) -> float:
    """Draw from a Pareto law truncated to [LEVY_STEP_MIN, step_max].

    Inverse-CDF sampling of p(L) ~ L^-LEVY_MU on the truncated support.
    """
    a = LEVY_MU - 1.0
    lo = LEVY_STEP_MIN ** -a
    hi = step_max ** -a
    u = rng.random()
    return (lo - u * (lo - hi)) ** (-1.0 / a)


def levy_waypoint(carried, q_star: float, step_max: float, rng, own_pos,
                  domain):
    """Levy-walk exploration waypoint in the local frame.

    The carried waypoint (the current leg's endpoint relative to the agent
    at ``own_pos``) is kept until the agent gets within ``q_star`` of it,
    then replaced by a fresh leg with Pareto length and uniform direction,
    its endpoint clamped into the domain.  A carried endpoint that odometry
    drift has pushed through a wall triggers a redraw instead.
    """
    if carried is not None:
        # Odometry drift can walk the carried endpoint through a wall,
        # where it becomes unreachable; redraw instead of pushing on it.
        tgt = np.asarray(own_pos, dtype=float) + carried
        inside = (0.0 <= tgt[0] <= domain[0] and 0.0 <= tgt[1] <= domain[1])
        if inside and math.hypot(carried[0], carried[1]) >= q_star:
            return carried
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
    """Bertsekas auction over an agents x targets cost table.

    Missing pairs carry +inf cost.  Bidding runs on the smaller side (targets
    bid for agents when agents are plentiful) so every target that someone
    knows about ends up assigned, injectively, to a distinct agent.  With a
    bid increment below the cost granularity the result matches the optimal
    assignment.

    Returns a dict agent_index -> target_index.
    """
    costs = np.asarray(costs, dtype=float)
    n_agents, n_targets = costs.shape
    values = np.where(np.isfinite(costs), -costs, -np.inf)

    if n_targets <= n_agents:
        pairing = _auction_core(values.T)            # target bids for agents
        return {agent: tgt for tgt, agent in pairing.items()}
    pairing = _auction_core(values)                  # agent bids for targets
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


def _auction_core(values) -> dict:
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
    eps = max(AUCTION_EPSILON, value_range / 2.0)
    while eps > AUCTION_EPSILON:
        schedule.append(eps)
        eps /= 8.0
    schedule.append(AUCTION_EPSILON)

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
            if rounds > AUCTION_MAX_ROUNDS:
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
class AuctionOracle:
    """Team-wide auction: ``assignment`` (agent index -> forced target id) is
    recomputed every ``PERIOD`` steps and whenever the known targets change."""

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

    Uses each agent's cheapest view of each target (local det, or the
    neighbor-lifted det); targets nobody knows are dropped.  Pairs from the
    previous assignment persist while the agent still has a view and nobody
    else's view is dramatically sharper; without that hysteresis the near-tied
    broadcast copies make the winner rotate every recomputation and no agent
    ever settles.  Returns agent index -> 1-based target id.
    """
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
    for agent, tid in prev.items():
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
        pairing = auction_assign(sub)
        for a, ki in pairing.items():
            out[free_agents[a]] = kept_ids[free_cols[ki]]
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
