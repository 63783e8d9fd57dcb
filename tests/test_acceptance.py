"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Criteria 1-5 are Monte-Carlo comparisons on 60 seeded runs each; criterion 6
is a bundle of property suites.  Batches are cached across tests, and every
run is deterministic per seed, so the whole gate is reproducible.
"""

import filecmp
import itertools
import math

import numpy as np

from pherotrack.estimation import GaussianEstimate, fuse
from pherotrack.harness import (ExperimentSpec, objective_H, run_monte_carlo,
                                simulate_run)
from pherotrack.pheromone import (ARGMIN_TOL, PheromoneConfig, PheromoneGrid,
                                  GridGeometry, exploration_waypoint,
                                  update_pheromones)
from pherotrack.baselines import auction_assign
from pherotrack.world import AssumptionError, WorldConfig, sim_2d_preset

N_RUNS = 60
BUDGET_SMALL = 700      # step budget for the 6-agent/4-target comparisons
BUDGET_LONG = 3000      # step budget for the search-algorithm comparisons

_batches = {}


def batch(search, assign, max_steps, **overrides):
    key = (search, assign, max_steps, tuple(sorted(overrides.items())))
    if key not in _batches:
        cfg = sim_2d_preset(**overrides)
        _batches[key] = [
            simulate_run(cfg, search, assign, max_steps, seed)
            for seed in range(N_RUNS)
        ]
    return _batches[key]


def completed_times(results):
    return [m.time_to_track for m in results if m.time_to_track is not None]


def check(cid, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}"
    print(line)
    assert ok, line


# -- criterion 1: assignment parity ------------------------------------------


def test_criterion_1_distributed_greedy_matches_auction_oracle():
    greedy = batch("pheromone", "greedy-distributed", BUDGET_SMALL)
    auction = batch("pheromone", "auction", BUDGET_SMALL)
    tg, ta = completed_times(greedy), completed_times(auction)
    mg, ma = np.mean(tg), np.mean(ta)
    rel = abs(mg - ma) / ma
    ok = len(tg) >= 55 and len(ta) >= 55 and rel <= 0.20
    check(1, ok,
          f"distributed-greedy mean {mg:.1f} ({len(tg)}/60 completed) vs "
          f"auction mean {ma:.1f} ({len(ta)}/60), difference {rel:.1%} "
          f"(need <= 20% and both >= 55/60)")


# -- criterion 2: local-greedy failure mode ----------------------------------


def test_criterion_2_local_greedy_fails_often():
    local = batch("pheromone", "local-greedy", BUDGET_SMALL)
    n = len(completed_times(local))
    check(2, n <= 0.6 * N_RUNS,
          f"local-greedy completed {n}/60 runs (need <= 36/60)")


# -- criterion 3: pheromone vs levy, large team ------------------------------


def test_criterion_3_pheromone_beats_levy_with_8_agents():
    pher = batch("pheromone", "greedy-distributed", BUDGET_LONG,
                 n_agents=8, n_targets=6)
    levy = batch("levy", "greedy-distributed", BUDGET_LONG,
                 n_agents=8, n_targets=6)
    tp, tl = completed_times(pher), completed_times(levy)
    ratio = np.mean(tl) / np.mean(tp)
    med_ratio = np.median(tl) / np.median(tp)
    # Honest miss: the tracker almost never loses a target once found, so
    # each target costs one search episode instead of many and the mean
    # advantage compresses.  Both means are dominated by right-tail seeds in
    # which the last undetected target lingers along a wall or corner, where
    # the short-memory pheromone walk is slow to arrive but the clamped
    # levy legs naturally patrol.  The typical-seed advantage is still
    # large (median ratio above), but the mean ratio stays under 2.
    check(3, ratio >= 2.0,
          f"levy mean {np.mean(tl):.1f} ({len(tl)}/60) / pheromone mean "
          f"{np.mean(tp):.1f} ({len(tp)}/60) = {ratio:.2f} (need >= 2.0; "
          f"median ratio {med_ratio:.2f})")


# -- criterion 4: small-environment crossover --------------------------------


def test_criterion_4_levy_competitive_in_small_environment():
    pher = batch("pheromone", "greedy-distributed", BUDGET_LONG,
                 domain=(10.0, 10.0))
    levy = batch("levy", "greedy-distributed", BUDGET_LONG,
                 domain=(10.0, 10.0))
    tp, tl = completed_times(pher), completed_times(levy)
    ratio = np.mean(tl) / np.mean(tp)
    med_ratio = np.median(tl) / np.median(tp)
    # Honest miss, and not a tail effect: a per-seed probe of these 60 seeds
    # (RunMetrics.first_detection) gives a mean ratio of 1.45 with a median
    # ratio of only 1.08, and dropping each side's 3 slowest seeds raises
    # the ratio to 1.49.  The gap is the whole upper half: the 75th
    # percentile is 53.5 steps for levy against 31 for pheromone (upper-half
    # means 58.7 against 38.3, lower-half means 10.5 against 9.4).  Most of
    # it is search time: the last target is first detected at step 27.2 on
    # average for levy against 18.6 for pheromone, and tracking all of them
    # after that takes 7.4 steps against 5.2.
    check(4, ratio < 1.2,
          f"levy mean {np.mean(tl):.1f} ({len(tl)}/60) / pheromone mean "
          f"{np.mean(tp):.1f} ({len(tp)}/60) = {ratio:.2f} (need < 1.2; "
          f"median ratio {med_ratio:.2f})")


# -- criterion 5: anti-flocking gap ------------------------------------------


def test_criterion_5_antiflocking_gap():
    pher = batch("pheromone", "greedy-distributed", BUDGET_LONG)
    af = batch("antiflocking", "greedy-distributed", BUDGET_LONG)
    tp, ta = completed_times(pher), completed_times(af)
    ratio = np.mean(tp) / np.mean(ta)
    check(5, 1.0 <= ratio <= 1.8,
          f"pheromone mean {np.mean(tp):.1f} ({len(tp)}/60) / anti-flocking "
          f"mean {np.mean(ta):.1f} ({len(ta)}/60) = {ratio:.2f} "
          f"(need within [1.0, 1.8])")


# -- criterion 6: property suites --------------------------------------------


def test_criterion_6a_fusion_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        covs, means = [], []
        for _ in range(2):
            m = rng.standard_normal((2, 2))
            covs.append(m @ m.T + 0.01 * np.eye(2))
            means.append(rng.standard_normal(2) * 5)
        a = GaussianEstimate(means[0], covs[0])
        b = GaussianEstimate(means[1], covs[1])
        got_mean, got_cov = fuse(a.mean, a.cov, b.mean, b.cov)
        ia, ib = np.linalg.inv(covs[0]), np.linalg.inv(covs[1])
        cov = np.linalg.inv(ia + ib)
        mean = cov @ (ia @ means[0] + ib @ means[1])
        worst = max(worst,
                    np.abs(np.reshape(got_cov, (2, 2)) - cov).max(),
                    np.abs(np.array(got_mean) - mean).max())
    check("6a", worst <= 1e-9,
          f"fusion vs independent-inverse oracle on 10^4 random pairs, "
          f"max abs deviation {worst:.2e} (tol 1e-9)")


def test_criterion_6b_auction_exact_on_small_tables():
    rng = np.random.default_rng(102)
    bad = 0
    for _ in range(1000):
        n_a = int(rng.integers(1, 6))
        n_t = int(rng.integers(1, 6))
        costs = rng.integers(0, 100, size=(n_a, n_t)).astype(float)
        pairing = auction_assign(costs)
        got = sum(costs[a, t] for a, t in pairing.items())
        best = math.inf
        if n_t <= n_a:
            for perm in itertools.permutations(range(n_a), n_t):
                best = min(best, sum(costs[perm[j], j] for j in range(n_t)))
        else:
            for perm in itertools.permutations(range(n_t), n_a):
                best = min(best, sum(costs[i, perm[i]] for i in range(n_a)))
        bad += got != best
    check("6b", bad == 0,
          f"auction vs exhaustive optimum on 10^3 tables up to 5x5, "
          f"{bad} mismatches (need exact)")


def test_criterion_6c_pheromone_lifetime_and_list_bound():
    cfg = PheromoneConfig(w_init=35.0, w_decay=0.16, w_floor=0.1)
    # One deposit row: position, zero covariance entries, weight.
    own = np.array([[99.0, 0.0, 0.0, 0.0, 0.0, 0.0, cfg.w_init]])
    alive = 0
    lengths = []
    for _ in range(60):
        if any(p[0] == 99.0 for p in own[:, :2]):
            alive += 1
        own = update_pheromones(own, {}, [], np.zeros(2), np.zeros((2, 2)),
                                cfg)
        lengths.append(len(own))
    ok = alive == 34 and max(lengths) <= cfg.max_list_length \
        and lengths[-1] == 34
    check("6c", ok,
          f"deposit lifetime {alive} steps (need exactly 34), steady list "
          f"length {lengths[-1]}, max {max(lengths)} <= bound "
          f"{cfg.max_list_length}")


def test_criterion_6d_deterministic_replay(tmp_path):
    cfg = sim_2d_preset(n_agents=2, n_targets=1, domain=(12.0, 12.0))
    for sub in ("a", "b"):
        run_monte_carlo(ExperimentSpec(
            config=cfg, runs=2, max_steps=60, out_dir=str(tmp_path / sub),
            dump_telemetry=True))
    same = all(
        filecmp.cmp(tmp_path / "a" / n, tmp_path / "b" / n, shallow=False)
        for n in ("runs.csv", "series.csv", "summary.csv",
                  "telemetry_seed0.csv", "telemetry_seed1.csv"))
    check("6d", same, "two identical specs produce byte-identical CSVs")


def test_criterion_6e_exploration_waypoint_minimality():
    rng = np.random.default_rng(103)
    geom = GridGeometry(12.0, 0.25)
    mask = geom.in_ball_mask
    bad = 0
    for _ in range(1000):
        weights = rng.uniform(0.0, 35.0, size=(geom.n, geom.n))
        grid = PheromoneGrid(geom, weights)
        wp, w = exploration_waypoint(grid, rng)
        bad += w > weights[mask].min() + ARGMIN_TOL
    check("6e", bad == 0,
          f"recomputed waypoint attains the exhaustive in-ball minimum on "
          f"10^3 randomized maps, {bad} misses")


def test_criterion_6f_assumption_gate():
    rejected = 0
    try:
        WorldConfig(r_s=13.0, r_c=12.0)
    except AssumptionError:
        rejected += 1
    try:
        WorldConfig(q_k=((0.02, 0.0), (0.0, 0.02)),
                    q_bar=((0.01, 0.0), (0.0, 0.01)))
    except AssumptionError:
        rejected += 1
    check("6f", rejected == 2,
          "configs with sensing radius beyond communication radius or an "
          "undominated target-noise bound are rejected before stepping")


def test_criterion_6g_objective_matches_double_loop_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        n_agents = int(rng.integers(1, 7))
        ids = list(range(1, int(rng.integers(1, 7)) + 1))
        true_rel, estimates = {}, {}
        for i in range(n_agents):
            for k in ids:
                true_rel[(i, k)] = rng.uniform(-30, 30, 2)
                if rng.random() < 0.7:
                    estimates[(i, k)] = rng.uniform(-30, 30, 2)
        diag = 30.0 * math.sqrt(2)
        total = 0.0
        for k in ids:
            errs = []
            for i in range(n_agents):
                if (i, k) in estimates:
                    errs.append(float(np.linalg.norm(
                        true_rel[(i, k)] - estimates[(i, k)])))
            total += min(errs) if errs else diag
        want = total / n_agents
        got = objective_H(ids, true_rel, estimates, n_agents, diag)
        worst = max(worst, abs(got - want))
    check("6g", worst <= 1e-12,
          f"objective vs naive double-loop oracle on 10^3 scenes, max "
          f"deviation {worst:.2e} (tol 1e-12)")
