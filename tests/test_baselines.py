"""Tests for the comparison algorithms.

The auction is checked against an exhaustive permutation oracle on random
tables, integer-valued and at the tracker's determinant scale; the solver is
exact, so it must match the optimum on both.
"""

import inspect
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pherotrack.baselines import (LEVY_MU, LEVY_STEP_MIN, Explorer,
                                  VisitedMap, antiflocking_waypoint,
                                  auction_assign, levy_step_length,
                                  levy_waypoint, local_greedy_select)
from pherotrack import baselines
from pherotrack.estimation import GaussianEstimate, add4, flat_entropy
from pherotrack.tracking import (LocalTargetList, NeighborTargetList,
                                 TargetRecord)


# -- Levy walk ---------------------------------------------------------------


STEP_MAX = 42.5     # the 30x30 domain diagonal
DOMAIN = (30.0, 30.0)


def test_levy_step_lengths_in_bounds():
    rng = np.random.default_rng(0)
    draws = np.array([levy_step_length(STEP_MAX, rng)
                      for _ in range(20_000)])
    assert draws.min() >= LEVY_STEP_MIN
    assert draws.max() <= STEP_MAX


def test_levy_step_distribution_matches_truncated_pareto():
    # Empirical CDF vs the closed-form truncated-Pareto CDF at a few probes.
    a = LEVY_MU - 1.0
    lo, hi = LEVY_STEP_MIN ** -a, STEP_MAX ** -a
    rng = np.random.default_rng(1)
    draws = np.array([levy_step_length(STEP_MAX, rng)
                      for _ in range(50_000)])
    for x in (1.5, 2.0, 5.0, 10.0, 30.0):
        want = (lo - x ** -a) / (lo - hi)
        got = (draws <= x).mean()
        assert abs(got - want) < 0.01


def test_levy_draw_is_a_clamped_leg():
    rng = np.random.default_rng(2)
    own = np.array([15.0, 15.0])
    for _ in range(200):
        wp = levy_waypoint(STEP_MAX, rng, own, DOMAIN)
        # A leg this far from the walls is never clamped.
        if np.all(np.abs(wp) < 15.0):
            assert LEVY_STEP_MIN <= math.hypot(wp[0], wp[1]) <= STEP_MAX


def test_levy_endpoint_clamped_into_domain():
    rng = np.random.default_rng(3)
    own = np.array([1.0, 29.0])
    for _ in range(500):
        wp = levy_waypoint(STEP_MAX, rng, own, DOMAIN)
        end = own + wp
        assert 0.0 <= end[0] <= DOMAIN[0]
        assert 0.0 <= end[1] <= DOMAIN[1]


def test_levy_walker_is_isolated_from_pheromone_state():
    # The walker must not peek at any coverage map: its only inputs are its
    # parameters, its position and the wall geometry.
    params = inspect.signature(levy_waypoint).parameters
    assert set(params) == {"step_max", "rng", "own_pos", "domain"}
    import pherotrack.baselines as baselines
    assert "pheromone" not in inspect.getsource(baselines.levy_waypoint)


# -- the baseline explorer ---------------------------------------------------


class QueuedDraw:
    """A draw that returns queued local waypoints and records where it was
    called from."""

    def __init__(self, *waypoints):
        self.waypoints = [np.array(w, dtype=float) for w in waypoints]
        self.calls = []

    def __call__(self, own_pos):
        self.calls.append(own_pos.tolist())
        return self.waypoints.pop(0)


def test_explorer_keeps_world_frame_endpoint_until_reached():
    draw = QueuedDraw([2.0, 0.0], [0.0, 3.0])
    explore = Explorer(0.5, draw)
    assert np.allclose(explore(None, np.array([15.0, 15.0])), [2.0, 0.0])
    # A gap in explore calls (the agent tracked and moved meanwhile): the
    # endpoint (17, 15) stays put in the world, and nothing is drawn.
    for own in ([16.0, 14.0], [15.5, 17.0], [16.4, 15.2]):
        wp = explore(None, np.array(own))
        assert np.allclose(np.array(own) + wp, [17.0, 15.0])
    assert draw.calls == [[15.0, 15.0]]
    # Within q_star of the endpoint: a redraw from where the agent is.
    assert np.allclose(explore(None, np.array([16.7, 15.0])), [0.0, 3.0])
    assert np.allclose(explore.endpoint, [16.7, 18.0])
    assert draw.calls == [[15.0, 15.0], [16.7, 15.0]]


def test_explorer_redraws_a_stale_endpoint():
    visited = set()
    tested = []

    def stale(point):
        tested.append(point.tolist())
        return tuple(point.tolist()) in visited

    draw = QueuedDraw([5.0, 0.0], [0.0, -4.0])
    explore = Explorer(0.5, draw, stale)
    explore(None, np.array([10.0, 10.0]))
    assert tested == []                     # nothing to test on a first leg
    explore(None, np.array([11.0, 10.0]))
    assert len(draw.calls) == 1 and tested == [[15.0, 10.0]]
    # Far from the endpoint, yet stale: redraw.
    visited.add((15.0, 10.0))
    wp = explore(None, np.array([12.0, 10.0]))
    assert np.allclose(wp, [0.0, -4.0]) and len(draw.calls) == 2
    assert np.allclose(explore.endpoint, [12.0, 6.0])


# -- local greedy ------------------------------------------------------------


def rec(tid, var, mean=(1.0, 0.0)):
    e = GaussianEstimate(mean, var * np.eye(2))
    return TargetRecord(tid, e.mean, e.cov)


def test_local_greedy_picks_least_uncertain_in_fov():
    local = LocalTargetList({1: rec(1, 0.5), 2: rec(2, 0.1),
                             3: rec(3, 0.05, mean=(-1.0, 0.0))})  # behind
    k = local_greedy_select(local, lambda m: m[0] > 0)
    assert k == 2
    assert local_greedy_select(local, lambda m: False) == 0
    # Tie goes to the lower id.
    tied = LocalTargetList({4: rec(4, 0.1), 2: rec(2, 0.1)})
    assert local_greedy_select(tied, lambda m: True) == 2


# -- auction -----------------------------------------------------------------


def brute_force_optimum(costs):
    """Exhaustive minimum-cost injective assignment of the smaller side,
    each total summed in agent order as :func:`assignment_cost` sums it."""
    n_a, n_t = costs.shape
    best = math.inf
    if n_t <= n_a:
        for perm in itertools.permutations(range(n_a), n_t):
            pairing = dict(zip(perm, range(n_t)))
            best = min(best, assignment_cost(costs, pairing))
    else:
        for perm in itertools.permutations(range(n_t), n_a):
            best = min(best, assignment_cost(costs, dict(enumerate(perm))))
    return best


def assignment_cost(costs, pairing):
    return sum(costs[a, t] for a, t in sorted(pairing.items()))


def test_auction_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n_a = int(rng.integers(1, 6))
        n_t = int(rng.integers(1, 6))
        costs = rng.integers(0, 100, size=(n_a, n_t)).astype(float)
        pairing = auction_assign(costs)
        assert len(pairing) == min(n_a, n_t)
        assert len(set(pairing.values())) == len(pairing)   # injective
        assert assignment_cost(costs, pairing) \
            == brute_force_optimum(costs)


@pytest.mark.parametrize("more_agents", [False, True])
def test_auction_is_optimal_at_the_tracker_cost_scale(more_agents):
    # The oracle's tables hold covariance determinants of 1e-6 to 1e-4 and
    # a 1e6 penalty for pairs no agent sees; a bid increment coarser than
    # the determinants returned costlier pairings on most such tables.
    rng = np.random.default_rng(0)
    for _ in range(500):
        small = int(rng.integers(1, 5))
        large = int(rng.integers(small + more_agents, 6))
        shape = (large, small) if more_agents else (small, large)
        costs = rng.uniform(1e-6, 1e-4, size=shape)
        if rng.random() < 0.5:
            costs[rng.random(shape) < 0.2] = 1e6
        pairing = auction_assign(costs)
        assert len(pairing) == small
        assert len(set(pairing.values())) == small          # injective
        assert assignment_cost(costs, pairing) \
            == brute_force_optimum(costs)


def test_auction_equal_costs_go_to_the_lowest_indices():
    # The oracle's tie when every pair left is at the unknown-pair penalty.
    assert auction_assign(np.full((2, 1), 1e6)) == {0: 0}
    assert auction_assign(np.full((3, 2), 1e6)) == {0: 0, 1: 1}
    assert auction_assign(np.full((2, 3), 1e6)) == {0: 0, 1: 1}


def test_auction_with_infinite_entries():
    costs = np.array([[1.0, np.inf], [np.inf, 1.0]])
    pairing = auction_assign(costs)
    assert pairing == {0: 0, 1: 1}
    with pytest.raises(ValueError):
        auction_assign(np.array([[np.inf, np.inf], [1.0, 2.0]]))


def test_auction_sparse_feasible_tables_match_oracle():
    rng = np.random.default_rng(6)
    done = 0
    while done < 200:
        n_a = int(rng.integers(2, 6))
        n_t = int(rng.integers(2, 6))
        costs = rng.integers(0, 50, size=(n_a, n_t)).astype(float)
        costs[rng.random(costs.shape) < 0.3] = np.inf
        if not math.isfinite(brute_force_optimum(costs)):
            continue
        # A perfect matching of the smaller side exists, so the exact
        # solver must find it.
        pairing = auction_assign(costs)
        assert assignment_cost(costs, pairing) == brute_force_optimum(costs)
        done += 1


def ref_auction_costs(brains, known):
    """The team auction's cost table as a double loop over brains and
    targets: the local det, or the cheapest neighbor det lifted by that
    neighbor's ``rel_cov``; a pair with no view costs the penalty."""
    costs = np.full((len(brains), len(known)), np.inf)
    for bi, b in enumerate(brains):
        for ki, tid in enumerate(known):
            best = math.inf
            rec = b.local_targets.records.get(tid)
            if rec is not None:
                best = flat_entropy(rec.cov)
            for nl in b.neighbor_targets.values():
                nrec = nl.records.get(tid)
                if nrec is not None:
                    best = min(best,
                               flat_entropy(add4(nrec.cov, nl.rel_cov)))
            costs[bi, ki] = best
    costs[~np.isfinite(costs)] = 1e6
    return costs


def random_flat(rng):
    m = rng.standard_normal((2, 2)) * rng.choice([0.1, 1.0, 5.0])
    c = m @ m.T + rng.choice([1e-3, 0.05]) * np.eye(2)
    return (tuple(rng.uniform(-10.0, 10.0, 2).tolist()),
            tuple(c.ravel().tolist()))


def test_auction_costs_match_the_double_loop(monkeypatch):
    tables = []

    def capture(costs):
        tables.append(costs.copy())
        return auction_assign(costs)

    monkeypatch.setattr(baselines, "auction_assign", capture)
    rng = np.random.default_rng(8)
    n_lifted = n_penalty = 0
    for _ in range(300):
        n_agents = int(rng.integers(1, 7))
        target_ids = list(range(1, int(rng.integers(1, 7)) + 1))

        # Every list draws from the same few targets, so the views overlap.
        def pick(p):
            return {t: TargetRecord(t, *random_flat(rng))
                    for t in target_ids if rng.random() < p}

        brains = []
        for a in range(n_agents):
            neighbors = {nid: NeighborTargetList(pick(0.6), *random_flat(rng))
                         for nid in range(n_agents)
                         if nid != a and rng.random() < 0.7}
            brains.append(SimpleNamespace(
                local_targets=LocalTargetList(pick(0.4)),
                neighbor_targets=neighbors))
        known = sorted(
            {t for b in brains for t in b.local_targets.records}
            | {t for b in brains for nl in b.neighbor_targets.values()
               for t in nl.records})
        if not known:
            continue
        tables.clear()
        baselines._team_auction(brains, known, {})
        want = ref_auction_costs(brains, known)
        assert len(tables) == 1
        assert tables[0].tobytes() == want.tobytes()
        n_penalty += int((want == 1e6).sum())
        for bi, b in enumerate(brains):
            for ki, tid in enumerate(known):
                rec = b.local_targets.records.get(tid)
                n_lifted += rec is not None and \
                    want[bi, ki] < flat_entropy(rec.cov)
    assert n_lifted > 50 and n_penalty > 50


# -- anti-flocking -----------------------------------------------------------


def test_visited_map_marking():
    vmap = VisitedMap((10.0, 6.0))
    assert not vmap.visited.any()
    vmap.mark_seen([2.0, 2.0], 1.1)
    assert vmap.is_visited_at([2.0, 2.0])
    assert vmap.is_visited_at([2.9, 2.2])    # neighboring cell center in range
    assert not vmap.is_visited_at([8.0, 5.0])
    assert vmap.visited.any() and not vmap.visited.all()


def test_antiflocking_prefers_high_gain_low_distance():
    vmap = VisitedMap((20.0, 20.0))
    # Visit everything except two pockets: a large far one and a tiny near one.
    vmap.visited[:] = True
    vmap.visited[15:20, 15:20] = False           # big pocket, far corner
    vmap.visited[1, 1] = False                   # single cell, near agent
    wp = antiflocking_waypoint(vmap, [2.0, 2.0], np.random.default_rng(7),
                               gain_radius=4.0)
    goal = np.array([2.0, 2.0]) + wp
    # The big pocket wins despite the distance.
    assert goal[0] > 14.0 and goal[1] > 14.0


def test_antiflocking_fully_visited_falls_back_to_random_cell():
    vmap = VisitedMap((5.0, 5.0))
    vmap.visited[:] = True
    rng = np.random.default_rng(8)
    wp = antiflocking_waypoint(vmap, [0.0, 0.0], rng)
    goal = wp + np.array([0.0, 0.0])
    assert 0.0 <= goal[0] <= 5.0 and 0.0 <= goal[1] <= 5.0


def test_antiflocking_deterministic_tie_break():
    vmap = VisitedMap((6.0, 6.0))
    rng = np.random.default_rng(9)
    wps = [antiflocking_waypoint(vmap.__class__((6.0, 6.0)), [3.0, 3.0], rng)
           for _ in range(5)]
    for wp in wps[1:]:
        assert np.allclose(wp, wps[0])
