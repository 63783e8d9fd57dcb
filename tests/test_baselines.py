"""Tests for the comparison algorithms.

The auction is checked against an exhaustive permutation oracle on random
integer-valued tables, where the bid increment is strictly below the cost
granularity and the result must therefore be exactly optimal.
"""

import inspect
import itertools
import math

import numpy as np
import pytest

from pherotrack.baselines import (LEVY_MU, LEVY_STEP_MIN,
                                  NoFeasibleAssignmentError, VisitedMap,
                                  antiflocking_waypoint, auction_assign,
                                  levy_step_length, levy_waypoint,
                                  local_greedy_select)
from pherotrack.estimation import GaussianEstimate
from pherotrack.tracking import LocalTargetList, TargetRecord


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


def test_levy_carried_waypoint_shifts_until_reached():
    # The leg endpoint stays put in the world while the agent walks to it:
    # the carried waypoint, taken relative to the agent, shifts each step.
    rng = np.random.default_rng(2)
    end = np.array([17.0, 15.0])
    for x in (15.0, 15.5, 16.0, 16.4):
        own = np.array([x, 15.0])
        carried = end - own
        assert levy_waypoint(carried, 0.5, STEP_MAX, rng, own, DOMAIN) \
            is carried
    # Within q_star: redraw.
    own = np.array([16.6, 15.0])
    wp = levy_waypoint(end - own, 0.5, STEP_MAX, rng, own, DOMAIN)
    assert not np.allclose(wp, end - own)
    assert LEVY_STEP_MIN <= math.hypot(wp[0], wp[1]) <= STEP_MAX


def test_levy_endpoint_clamped_into_domain():
    rng = np.random.default_rng(3)
    own = np.array([1.0, 29.0])
    for _ in range(500):
        wp = levy_waypoint(None, 0.5, STEP_MAX, rng, own, DOMAIN)
        end = own + wp
        assert 0.0 <= end[0] <= DOMAIN[0]
        assert 0.0 <= end[1] <= DOMAIN[1]


def test_levy_carried_endpoint_outside_domain_triggers_redraw():
    rng = np.random.default_rng(4)
    own = np.array([0.5, 0.5])
    carried = np.array([-2.0, 0.0])      # endpoint at (-1.5, 0.5): outside
    wp = levy_waypoint(carried, 0.5, STEP_MAX, rng, own, DOMAIN)
    end = own + wp
    assert 0.0 <= end[0] <= 30.0 and 0.0 <= end[1] <= 30.0


def test_levy_walker_is_isolated_from_pheromone_state():
    # The walker must not peek at any coverage map: its only inputs are its
    # own carried leg, its parameters, and the wall geometry.
    params = inspect.signature(levy_waypoint).parameters
    assert set(params) == {"carried", "q_star", "step_max", "rng",
                           "own_pos", "domain"}
    import pherotrack.baselines as baselines
    assert "pheromone" not in inspect.getsource(baselines.levy_waypoint)


# -- local greedy ------------------------------------------------------------


def rec(tid, var, mean=(1.0, 0.0)):
    return TargetRecord(tid, GaussianEstimate(mean, var * np.eye(2)))


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
    """Exhaustive minimum-cost injective assignment of the smaller side."""
    n_a, n_t = costs.shape
    best = math.inf
    if n_t <= n_a:
        for perm in itertools.permutations(range(n_a), n_t):
            total = sum(costs[perm[j], j] for j in range(n_t))
            best = min(best, total)
    else:
        for perm in itertools.permutations(range(n_t), n_a):
            total = sum(costs[i, perm[i]] for i in range(n_a))
            best = min(best, total)
    return best


def assignment_cost(costs, pairing):
    return sum(costs[a, t] for a, t in pairing.items())


def test_auction_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n_a = int(rng.integers(1, 6))
        n_t = int(rng.integers(1, 6))
        # Integer costs: granularity 1 dwarfs n * epsilon, so the auction
        # result must be exactly optimal.
        costs = rng.integers(0, 100, size=(n_a, n_t)).astype(float)
        pairing = auction_assign(costs)
        assert len(pairing) == min(n_a, n_t)
        assert len(set(pairing.values())) == len(pairing)   # injective
        assert assignment_cost(costs, pairing) \
            == brute_force_optimum(costs)


def test_auction_with_infinite_entries():
    costs = np.array([[1.0, np.inf], [np.inf, 1.0]])
    pairing = auction_assign(costs)
    assert pairing == {0: 0, 1: 1}
    with pytest.raises(NoFeasibleAssignmentError):
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
        # A perfect matching of the smaller side exists; some intermediate
        # bidders can still be priced out, which is a legal refusal.
        try:
            pairing = auction_assign(costs)
        except NoFeasibleAssignmentError:
            continue
        assert assignment_cost(costs, pairing) == brute_force_optimum(costs)
        done += 1


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
