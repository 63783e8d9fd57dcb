"""Tests for target storage, selection, and combined estimation."""

import numpy as np
import pytest

from pherotrack.estimation import (GaussianEstimate, SingularCovarianceError,
                                   entropy, fuse, propagate)
from pherotrack.tracking import (LocalTargetList, NeighborTargetList,
                                 TargetRecord, TrackerConfig,
                                 combined_estimate, exploitation_waypoint,
                                 select_target, transform_neighbor_estimate,
                                 update_storage)


def cfg(**kw):
    base = dict(q_bar=0.01 * np.eye(2), sigma_bar=3600.0, motion_var=0.16)
    base.update(kw)
    return TrackerConfig(**base)


def est(mean, var):
    return GaussianEstimate(mean, var * np.eye(2))


def test_new_detection_creates_record():
    local = LocalTargetList()
    update_storage(local, {}, [(1, est([2.0, 0.0], 0.1))], [],
                   np.zeros(2), np.zeros((2, 2)), cfg(), step=4)
    assert set(local.records) == {1}
    rec = local.records[1]
    assert np.allclose(rec.estimate.mean, [2.0, 0.0])
    assert np.allclose(rec.estimate.cov, 0.1 * np.eye(2))
    assert rec.last_update_step == 4


def test_prediction_shifts_and_grows():
    local = LocalTargetList()
    local.records[1] = TargetRecord(1, est([2.0, 0.0], 0.1))
    update_storage(local, {}, [], [], [0.5, -0.5], np.zeros((2, 2)), cfg())
    rec = local.records[1]
    assert np.allclose(rec.estimate.mean, [2.5, -0.5])
    assert np.allclose(rec.estimate.cov, 0.11 * np.eye(2))


def test_redetection_fuses_and_matches_manual_oracle():
    c = cfg()
    prior = est([2.0, 0.0], 0.1)
    meas = est([2.2, 0.1], 0.05)
    local = LocalTargetList()
    local.records[1] = TargetRecord(1, prior.copy())
    update_storage(local, {}, [(1, meas.copy())], [], [0.1, 0.0],
                   np.zeros((2, 2)), c, step=9)
    want = fuse(propagate(prior, [0.1, 0.0], c.q_bar), meas)
    got = local.records[1]
    assert np.allclose(got.estimate.mean, want.mean, atol=1e-12)
    assert np.allclose(got.estimate.cov, want.cov, atol=1e-12)
    assert got.last_update_step == 9


def test_prune_at_entropy_threshold():
    local = LocalTargetList()
    local.records[1] = TargetRecord(1, est([0.0, 0.0], 100.0))  # det 1e4
    update_storage(local, {}, [], [], np.zeros(2), np.zeros((2, 2)),
                   cfg(sigma_bar=9000.0))
    assert 1 not in local.records


def test_packet_ingestion_replaces_records_and_fuses_rel_pos():
    c = cfg()
    local = LocalTargetList()
    neighbors = {}
    records = [TargetRecord(3, est([1.0, 1.0], 0.2))]
    rel = est([5.0, 0.0], 0.5)
    update_storage(local, neighbors, [], [(2, records, rel.copy())],
                   np.zeros(2), np.zeros((2, 2)), c, step=1)
    nl = neighbors[2]
    assert set(nl.records) == {3}
    assert np.allclose(nl.rel_pos.mean, rel.mean)   # first packet: adopted
    # Mutating the ingested copy must not touch the sender's record.
    nl.records[3].estimate.mean[0] = 99.0
    assert records[0].estimate.mean[0] == 1.0

    # Second packet: predicted rel_pos fused with the fresh measurement.
    rel2 = est([5.5, 0.0], 0.5)
    prev = nl.rel_pos.copy()
    update_storage(local, neighbors, [], [(2, records, rel2.copy())],
                   np.zeros(2), np.zeros((2, 2)), c, step=2)
    growth = np.zeros((2, 2)) + c.motion_var * np.eye(2)
    want = fuse(propagate(prev, np.zeros(2), growth), rel2)
    assert np.allclose(neighbors[2].rel_pos.mean, want.mean, atol=1e-12)
    assert np.allclose(neighbors[2].rel_pos.cov, want.cov, atol=1e-12)


def test_silent_neighbor_dead_reckoned_and_inflated():
    c = cfg()
    neighbors = {2: NeighborTargetList(
        2, {3: TargetRecord(3, est([1.0, 0.0], 0.2))},
        rel_pos=est([5.0, 0.0], 0.5))}
    update_storage(LocalTargetList(), neighbors, [], [], [0.3, 0.0],
                   0.01 * np.eye(2), c)
    nl = neighbors[2]
    assert np.allclose(nl.rel_pos.mean, [5.3, 0.0])
    # Growth = displacement covariance + bounded own motion.
    assert np.allclose(nl.rel_pos.cov, (0.5 + 0.01 + c.motion_var) * np.eye(2))
    assert np.allclose(nl.records[3].estimate.cov, 0.21 * np.eye(2))


def test_transform_neighbor_estimate_adds_mean_and_cov():
    lifted = transform_neighbor_estimate(est([1.0, 1.0], 0.2),
                                         est([5.0, 0.0], 0.5))
    assert np.allclose(lifted.mean, [6.0, 1.0])
    assert np.allclose(lifted.cov, 0.7 * np.eye(2))


# -- selection ---------------------------------------------------------------


def local_with(entries):
    lst = LocalTargetList()
    for tid, var in entries.items():
        lst.records[tid] = TargetRecord(tid, est([1.0, 0.0], var))
    return lst


def neighbor_with(nid, entries, rel_var=0.1):
    return NeighborTargetList(
        nid, {tid: TargetRecord(tid, est([1.0, 0.0], var))
              for tid, var in entries.items()},
        rel_pos=est([2.0, 0.0], rel_var))


def test_select_no_candidates_returns_explore():
    assert select_target(1, LocalTargetList(), {}) == 0


def test_select_single_local_target():
    assert select_target(1, local_with({7: 0.5}), {}) == 7


def test_select_strictly_lowest_holder_wins():
    # Agent 1 holds target 5 at det 0.25; the copy of neighbor 2's list says
    # 2 holds it at det 0.04: phase 1 awards it to 2, and with nothing else
    # on the books agent 1 falls through to phase 2 and... target 5 is
    # claimed, so it explores.
    local = local_with({5: 0.5})
    neighbors = {2: neighbor_with(2, {5: 0.2})}
    assert select_target(1, local, neighbors) == 0


def test_select_tie_breaks_to_lower_agent_id():
    local = local_with({5: 0.5})
    neighbors = {2: neighbor_with(2, {5: 0.5})}   # identical det
    assert select_target(1, local, neighbors) == 5
    assert select_target(3, local, {2: neighbor_with(2, {5: 0.5})}) == 0


def test_select_phase2_picks_cheapest_unclaimed():
    # Neighbor 2 wins target 5; target 6 is unclaimed and only known through
    # the neighbor, so agent 1 adopts it through the lifted entropy.
    local = LocalTargetList()
    neighbors = {2: neighbor_with(2, {5: 0.2, 6: 0.3})}
    assert select_target(1, local, neighbors) == 6


def test_select_each_agent_takes_at_most_one():
    # Agent 1's own list is strictly sharpest for both targets; phase 1 gives
    # it only the best one and the other stays for the neighbor's phase 2.
    local = local_with({5: 0.1, 6: 0.2})
    neighbors = {2: neighbor_with(2, {5: 0.4, 6: 0.4})}
    assert select_target(1, local, neighbors) == 5


def test_select_consistent_across_agents_with_shared_information():
    # When every agent holds identical copies of all lists, the selection
    # rule collapses to a closed form: each target belongs to its
    # strictly-sharpest holder, each holder takes the sharpest target it
    # owns, and agents owning nothing adopt the cheapest unowned target.
    # That closed form is an independent oracle for the replay logic.
    rng = np.random.default_rng(21)
    for _ in range(300):
        n_agents = int(rng.integers(2, 5))
        n_targets = int(rng.integers(1, 5))
        # Continuous draws: strict minima are unique with probability 1.
        dets = rng.uniform(0.05, 2.0, size=(n_agents, n_targets))

        # Only the sharpest holder can win a claim, so each claiming agent
        # ends up with the sharpest target it owns.
        owner = {t: int(np.argmin(dets[:, t])) for t in range(n_targets)}
        expected = {}
        for a in range(n_agents):
            owned = [t for t in range(n_targets) if owner[t] == a]
            expected[a] = min(owned, key=lambda t: (dets[a, t], t)) \
                if owned else None
        claimed = {p for p in expected.values() if p is not None}

        # Ownerless agents adopt the cheapest unclaimed target; with exact
        # relative positions the cheapest view of t has the owner's det.
        for a in range(n_agents):
            if expected[a] is not None:
                continue
            unclaimed = [t for t in range(n_targets) if t not in claimed]
            expected[a] = min(
                unclaimed, key=lambda t: (dets[owner[t], t], t)) \
                if unclaimed else -1

        for aid in range(1, n_agents + 1):
            local = local_with({
                t + 1: dets[aid - 1, t] for t in range(n_targets)})
            neighbors = {
                other: neighbor_with(other, {
                    t + 1: dets[other - 1, t] for t in range(n_targets)},
                    rel_var=0.0)
                for other in range(1, n_agents + 1) if other != aid
            }
            got = select_target(aid, local, neighbors)
            want = expected[aid - 1]
            assert got == (0 if want == -1 else want + 1)


def test_combined_estimate_matches_manual_fusion():
    local = LocalTargetList()
    local.records[4] = TargetRecord(4, est([1.0, 0.0], 0.2))
    nl = NeighborTargetList(2, {4: TargetRecord(4, est([0.5, 0.5], 0.3))},
                            rel_pos=est([0.4, -0.4], 0.1))
    got = combined_estimate([(local, {2: nl})], [4])[(0, 4)]
    lifted = transform_neighbor_estimate(nl.records[4].estimate, nl.rel_pos)
    want = fuse(est([1.0, 0.0], 0.2), lifted)
    assert np.allclose(got.mean, want.mean, atol=1e-12)
    assert np.allclose(got.cov, want.cov, atol=1e-12)
    assert entropy(got.cov) <= entropy(0.2 * np.eye(2))


def test_combined_estimate_unknown_pair_absent():
    assert combined_estimate([(LocalTargetList(), {})], [9]) == {}
    local = LocalTargetList({1: TargetRecord(1, est([1.0, 0.0], 0.2))})
    # Agent 1 knows target 2 only through a neighbor without a position.
    blind = NeighborTargetList(5, {2: TargetRecord(2, est([0.0, 1.0], 0.1))})
    got = combined_estimate([(local, {}), (LocalTargetList(), {5: blind})],
                            [1, 2, 3])
    assert set(got) == {(0, 1)}


def _random_cov(rng):
    m = rng.standard_normal((2, 2)) * rng.choice([0.05, 1.0, 20.0])
    return m @ m.T + rng.choice([1e-3, 0.05, 1.0]) * np.eye(2)


def _random_estimate(rng):
    return GaussianEstimate(rng.uniform(-20.0, 20.0, 2), _random_cov(rng))


def _random_holdings(rng, n_agents, target_ids):
    holdings = []
    for a in range(1, n_agents + 1):
        local = LocalTargetList({
            t: TargetRecord(t, _random_estimate(rng))
            for t in target_ids if rng.random() < 0.5})
        neighbors = {}
        for nid in rng.permutation(np.arange(1, n_agents + 1)).tolist():
            if nid == a or rng.random() < 0.3:
                continue
            records = {t: TargetRecord(t, _random_estimate(rng))
                       for t in target_ids if rng.random() < 0.6}
            rel_pos = _random_estimate(rng) if rng.random() < 0.7 else None
            neighbors[nid] = NeighborTargetList(nid, records, rel_pos)
        holdings.append((local, neighbors))
    return holdings


def _sources(local, neighbors, tid):
    """Today's source order: the local record, then lifted neighbor records."""
    sources = []
    if tid in local.records:
        sources.append(local.records[tid].estimate)
    for nid in sorted(neighbors):
        nl = neighbors[nid]
        if tid in nl.records and nl.rel_pos is not None:
            rec = nl.records[tid].estimate
            sources.append(GaussianEstimate(rec.mean + nl.rel_pos.mean,
                                            rec.cov + nl.rel_pos.cov))
    return sources


def test_combined_estimate_bit_identical_to_sequential_fusion():
    rng = np.random.default_rng(23)
    n_pairs = n_fused = 0
    for _ in range(300):
        target_ids = list(range(1, int(rng.integers(1, 7)) + 1))
        holdings = _random_holdings(rng, int(rng.integers(1, 9)), target_ids)
        got = combined_estimate(holdings, target_ids)
        n_known = 0
        for a, (local, neighbors) in enumerate(holdings):
            for tid in target_ids:
                sources = _sources(local, neighbors, tid)
                if not sources:
                    assert (a, tid) not in got
                    continue
                # Reference: a sequential loop over estimation.fuse.
                want = sources[0]
                for s in sources[1:]:
                    want = fuse(want, s)
                e = got[(a, tid)]
                # Bit for bit, not allclose: the batch must not move outputs.
                assert e.mean.tobytes() == want.mean.tobytes()
                assert e.cov.tobytes() == want.cov.tobytes()
                n_known += 1
                n_fused += len(sources) > 1
        assert len(got) == n_known
        n_pairs += n_known
    assert n_pairs > 1000 and n_fused > 500


def test_combined_estimate_singular_covariance_raises():
    local = LocalTargetList({1: TargetRecord(1, est([1.0, 0.0], 0.2))})
    nl = NeighborTargetList(2, {1: TargetRecord(
        1, GaussianEstimate([0.0, 0.0], np.zeros((2, 2))))},
        rel_pos=GaussianEstimate([0.5, 0.5], np.zeros((2, 2))))
    with pytest.raises(SingularCovarianceError):
        combined_estimate([(LocalTargetList(), {}), (local, {2: nl})], [1])


def test_exploitation_waypoint():
    wp = exploitation_waypoint(est([3.0, 1.0], 0.1), [2.0, 0.0])
    assert np.allclose(wp, [1.0, 1.0])
