"""Tests for target storage, selection, and combined estimation."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from pherotrack.estimation import (EYE2, GaussianEstimate,
                                   SingularCovarianceError, entropy, fuse,
                                   fuse_stacked, propagate)
from pherotrack.tracking import (LocalTargetList, NeighborTargetList,
                                 TargetRecord, TrackerConfig,
                                 combined_estimate, select_target,
                                 transform_neighbor_estimate, update_storage)


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
    # The ingested copy is a record of its own that shares the sender's
    # float tuples; changing it the way holders do, by rebinding, must not
    # touch the sender's record.
    copy = nl.records[3]
    assert copy is not records[0]
    assert copy.mean is records[0].mean and copy.cov is records[0].cov
    copy.mean = (copy.mean[0] + 98.0, copy.mean[1])
    copy.cov = tuple(c + 1.0 for c in copy.cov)
    copy.last_update_step = 7
    assert records[0].mean == (1.0, 1.0)
    assert records[0].cov == (0.2, 0.0, 0.0, 0.2)
    assert records[0].last_update_step == 0

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


# -- float records against the array records they replaced -------------------
#
# Records used to hold a GaussianEstimate of numpy arrays.  The reference
# implementations below are the storage round, the selection and the
# combined estimate as they were on those records, kept verbatim; the float
# records must give the same bits.


@dataclass
class RefRecord:
    target_id: int
    estimate: GaussianEstimate
    last_update_step: int = 0

    def copy(self):
        est = self.estimate
        return RefRecord(self.target_id, GaussianEstimate(est.mean, est.cov),
                         self.last_update_step)


@dataclass
class RefNeighbor:
    neighbor_id: int
    records: dict = field(default_factory=dict)
    rel_pos: GaussianEstimate | None = None
    last_rx_step: int = -1


def ref_update_storage(local, neighbors, detections, rx_packets, shift,
                       sigma_shift, cfg, step=0):
    shift = np.asarray(shift, dtype=float).reshape(2)
    sigma_shift = np.asarray(sigma_shift, dtype=float).reshape(2, 2)
    det_by_id = dict(detections)
    for tid, rec in local.records.items():
        predicted = propagate(rec.estimate, shift, cfg.q_bar)
        if tid in det_by_id:
            rec.estimate = fuse(predicted, det_by_id.pop(tid))
            rec.last_update_step = step
        else:
            rec.estimate = predicted
    for tid, e in det_by_id.items():
        local.records[tid] = RefRecord(tid, e.copy(), step)
    ref_prune(local.records, cfg.sigma_bar)
    rel_growth = sigma_shift + cfg.motion_var * EYE2
    heard_from = set()
    for sender, records, rel_meas in rx_packets:
        heard_from.add(sender)
        nlist = neighbors.get(sender)
        if nlist is None:
            nlist = neighbors[sender] = RefNeighbor(sender)
        nlist.records = {r.target_id: r.copy() for r in records}
        if nlist.rel_pos is None:
            nlist.rel_pos = rel_meas.copy()
        else:
            predicted = propagate(nlist.rel_pos, shift, rel_growth)
            nlist.rel_pos = fuse(predicted, rel_meas)
        nlist.last_rx_step = step
    for nid, nlist in neighbors.items():
        if nid in heard_from or nlist.rel_pos is None:
            continue
        nlist.rel_pos = propagate(nlist.rel_pos, shift, rel_growth)
        for rec in nlist.records.values():
            rec.estimate.cov = rec.estimate.cov + cfg.q_bar
    for nlist in neighbors.values():
        ref_prune(nlist.records, cfg.sigma_bar)


def ref_prune(records, sigma_bar):
    stale = [tid for tid, r in records.items()
             if entropy(r.estimate.cov) > sigma_bar]
    for tid in stale:
        del records[tid]


def ref_select_target(self_id, local, neighbors):
    holdings = [(self_id, local.records, None)]
    for nid in sorted(neighbors):
        nlist = neighbors[nid]
        if nlist.records:
            holdings.append((nid, nlist.records, nlist.rel_pos))
    holdings.sort(key=lambda h: h[0])
    if all(not recs for _, recs, _ in holdings):
        return 0
    dets = {(aid, tid): entropy(rec.estimate.cov)
            for aid, recs, _ in holdings for tid, rec in recs.items()}
    claimed = {}
    for aid, recs, _ in holdings:
        for tid in sorted(recs, key=lambda t: (dets[(aid, t)], t)):
            if tid in claimed:
                continue
            mine = dets[(aid, tid)]
            wins = True
            for other, o_recs, _ in holdings:
                if other == aid or tid not in o_recs:
                    continue
                theirs = dets[(other, tid)]
                if theirs < mine or (theirs == mine and other < aid):
                    wins = False
                    break
            if wins:
                claimed[tid] = aid
                break
    for tid, aid in claimed.items():
        if aid == self_id:
            return tid
    best = None
    for aid, recs, rel_pos in holdings:
        for tid, rec in recs.items():
            if tid in claimed:
                continue
            if aid == self_id:
                h = dets[(aid, tid)]
            else:
                h = entropy(rec.estimate.cov + rel_pos.cov)
            if best is None or (h, tid) < best[:2]:
                best = (h, tid)
    return best[1] if best else 0


def ref_combined_estimate(holdings, target_ids):
    chains = {}
    for a, (local, neighbors) in enumerate(holdings):
        by_target = {tid: [(rec.estimate, None)]
                     for tid, rec in local.records.items()}
        for nid in sorted(neighbors):
            nlist = neighbors[nid]
            if nlist.rel_pos is None:
                continue
            for tid, rec in nlist.records.items():
                by_target.setdefault(tid, []).append(
                    (rec.estimate, nlist.rel_pos))
        for tid in target_ids:
            if tid in by_target:
                chains[(a, tid)] = by_target[tid]
    if len(chains) < 4:
        out = {}
        for key, chain in chains.items():
            sources = [e if rel is None
                       else transform_neighbor_estimate(e, rel)
                       for e, rel in chain]
            est = sources[0].copy()
            for s in sources[1:]:
                est = fuse(est, s)
            out[key] = est
        return out
    keys = sorted(chains, key=lambda k: -len(chains[k]))
    means, covs, blocks = [], [], []
    lift_rows, lift_means, lift_covs = [], [], []
    n_active = len(keys)
    for j in range(len(chains[keys[0]])):
        while len(chains[keys[n_active - 1]]) <= j:
            n_active -= 1
        blocks.append(n_active)
        for key in keys[:n_active]:
            e, rel = chains[key][j]
            if rel is not None:
                lift_rows.append(len(means))
                lift_means.append(rel.mean)
                lift_covs.append(rel.cov)
            means.append(e.mean)
            covs.append(e.cov)
    src_mean, src_cov = np.array(means), np.array(covs)
    if lift_rows:
        src_mean[lift_rows] += np.array(lift_means)
        src_cov[lift_rows] += np.array(lift_covs)
    mean, cov = src_mean[:len(keys)], src_cov[:len(keys)]
    start = len(keys)
    for n in blocks[1:]:
        mean[:n], cov[:n] = fuse_stacked(mean[:n], cov[:n],
                                         src_mean[start:start + n],
                                         src_cov[start:start + n])
        start += n
    return {key: GaussianEstimate(mean[r], cov[r])
            for r, key in enumerate(keys)}


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# Covariances with signed-zero off-diagonals, correlated ones, and a small
# pool of repeats so that determinants tie across holders.
def _spec_cov(rng, pool):
    kind = rng.integers(4)
    if kind == 0 and pool:
        return pool[int(rng.integers(len(pool)))]
    if kind == 1:
        a, b = rng.uniform(1e-3, 3.0, 2)
        z = float(rng.choice([0.0, -0.0]))
        return (float(a), z, z, float(b))
    m = rng.standard_normal((2, 2)) * rng.choice([0.05, 1.0, 20.0])
    c = m @ m.T + rng.choice([1e-3, 0.05, 1.0]) * np.eye(2)
    c = (float(c[0, 0]), float(c[0, 1]), float(c[0, 1]), float(c[1, 1]))
    pool.append(c)
    return c


def _spec_mean(rng):
    m = rng.uniform(-15.0, 15.0, 2)
    if rng.random() < 0.2:
        m[int(rng.integers(2))] = rng.choice([0.0, -0.0])
    return (float(m[0]), float(m[1]))


def _spec_records(rng, target_ids, p, pool, step):
    return {t: (_spec_mean(rng), _spec_cov(rng, pool),
                int(rng.integers(0, step + 1)))
            for t in target_ids if rng.random() < p}


def _spec_estimate(mean, cov):
    return GaussianEstimate(np.array(mean), np.array(cov).reshape(2, 2))


def _build(spec, new):
    """Both record kinds from one spec: {tid: (mean, cov, last)}."""
    if new:
        return {t: TargetRecord(t, _spec_estimate(m, c), last)
                for t, (m, c, last) in spec.items()}
    return {t: RefRecord(t, _spec_estimate(m, c), last)
            for t, (m, c, last) in spec.items()}


def _spec_holding(rng, self_id, n_agents, target_ids, pool, step,
                  placed=0.8):
    local = _spec_records(rng, target_ids, 0.5, pool, step)
    neighbors = {}
    for nid in rng.permutation(np.arange(1, n_agents + 1)).tolist():
        if nid == self_id or rng.random() < 0.2:
            continue
        rel = (_spec_mean(rng), _spec_cov(rng, pool)) \
            if rng.random() < placed else None
        neighbors[nid] = (_spec_records(rng, target_ids, 0.6, pool, step),
                          rel)
    return local, neighbors


def _materialize(spec, new):
    local_spec, neighbor_spec = spec
    local = LocalTargetList(_build(local_spec, new))
    neighbors = {}
    for nid, (recs, rel) in neighbor_spec.items():
        rel_pos = None if rel is None else _spec_estimate(*rel)
        cls = NeighborTargetList if new else RefNeighbor
        neighbors[nid] = cls(nid, _build(recs, new), rel_pos)
    return local, neighbors


def _assert_same_records(new, ref):
    assert list(new) == list(ref)
    for tid, rec in new.items():
        want = ref[tid]
        assert rec.target_id == want.target_id == tid
        assert bits(rec.mean) == bits(want.estimate.mean)
        assert bits(rec.cov) == bits(want.estimate.cov)
        assert rec.last_update_step == want.last_update_step


def _assert_same_holding(new, ref):
    _assert_same_records(new[0].records, ref[0].records)
    assert list(new[1]) == list(ref[1])
    for nid, nl in new[1].items():
        want = ref[1][nid]
        _assert_same_records(nl.records, want.records)
        assert nl.last_rx_step == want.last_rx_step
        if want.rel_pos is None:
            assert nl.rel_mean is None and nl.rel_cov is None
        else:
            assert bits(nl.rel_mean) == bits(want.rel_pos.mean)
            assert bits(nl.rel_cov) == bits(want.rel_pos.cov)


def test_storage_round_bit_identical_to_array_records():
    rng = np.random.default_rng(71)
    n_fused = n_pruned = n_ties = 0
    for trial in range(150):
        pool = []
        target_ids = list(range(1, int(rng.integers(1, 7)) + 1))
        step = int(rng.integers(5, 50))
        spec = _spec_holding(rng, 1, int(rng.integers(2, 7)), target_ids,
                             pool, step)
        q = (0.01, float(rng.choice([0.0, -0.0])), 0.0, 0.02) \
            if trial % 3 else (0.0, 0.0, 0.0, 0.0)
        q_bar = np.array(q).reshape(2, 2)
        # A record whose grown det lands exactly on the threshold: kept,
        # because only dets above it are pruned.
        grown = [entropy(_spec_estimate(m, c).cov + q_bar)
                 for m, c, _ in spec[0].values()]
        sigma_bar = float(rng.choice(grown)) if grown and rng.random() < 0.5 \
            else float(rng.choice([3600.0, 2.0, 50.0]))
        c = TrackerConfig(q_bar, sigma_bar=sigma_bar, motion_var=0.16)
        new, ref = _materialize(spec, True), _materialize(spec, False)
        for rnd in range(4):
            shift = rng.normal(0.0, 0.3, 2) if rng.random() < 0.7 \
                else np.array([-0.0, float(rng.choice([0.0, -0.0]))])
            m = rng.normal(0.0, 0.03, (2, 2))
            sigma = [np.zeros((2, 2)), m @ m.T,
                     np.array([[1e-3, -0.0], [-0.0, 1e-3]])][rnd % 3]
            dets = [(t, _spec_estimate(_spec_mean(rng), _spec_cov(rng, pool)))
                    for t in target_ids if rng.random() < 0.4]
            rx_new, rx_ref = [], []
            for sender in range(2, 5):
                if rng.random() < 0.5:
                    continue
                recs = _spec_records(rng, target_ids, 0.6, pool, step)
                rel = _spec_estimate(_spec_mean(rng), _spec_cov(rng, pool))
                rx_new.append((sender, list(_build(recs, True).values()),
                               rel))
                rx_ref.append((sender, list(_build(recs, False).values()),
                               rel))
            n_fused += sum(t in new[0].records for t, _ in dets)
            before = sum(len(nl.records) for nl in new[1].values()) \
                + len(new[0].records)
            n_ties += sum(entropy(r.estimate.cov) == sigma_bar
                          for r in ref[0].records.values())
            update_storage(*new, dets, rx_new, shift, sigma, c,
                           step=step + rnd)
            ref_update_storage(*ref, dets, rx_ref, shift, sigma, c,
                               step=step + rnd)
            after = sum(len(nl.records) for nl in new[1].values()) \
                + len(new[0].records)
            n_pruned += after < before
            _assert_same_holding(new, ref)
    assert n_fused > 100 and n_pruned > 20 and n_ties > 10


def test_select_target_matches_array_records():
    rng = np.random.default_rng(73)
    picks = set()
    for _ in range(600):
        pool = []
        target_ids = list(range(1, int(rng.integers(1, 6)) + 1))
        n_agents = int(rng.integers(1, 6))
        self_id = int(rng.integers(1, n_agents + 1))
        spec = _spec_holding(rng, self_id, n_agents, target_ids, pool, 10,
                             placed=1.0)
        new, ref = _materialize(spec, True), _materialize(spec, False)
        got = select_target(self_id, *new)
        assert got == ref_select_target(self_id, *ref)
        picks.add(got)
    assert picks >= {0, 1, 2, 3}


def test_combined_estimate_matches_array_records():
    rng = np.random.default_rng(79)
    n_pairs = 0
    for _ in range(200):
        pool = []
        target_ids = list(range(1, int(rng.integers(1, 7)) + 1))
        n_agents = int(rng.integers(1, 9))
        specs = [_spec_holding(rng, a, n_agents, target_ids, pool, 10)
                 for a in range(1, n_agents + 1)]
        new = [_materialize(s, True) for s in specs]
        ref = [_materialize(s, False) for s in specs]
        got = combined_estimate(new, target_ids)
        want = ref_combined_estimate(ref, target_ids)
        assert list(got) == list(want)
        for key, e in got.items():
            assert e.mean.tobytes() == want[key].mean.tobytes()
            assert e.cov.tobytes() == want[key].cov.tobytes()
        n_pairs += len(got)
        # Asking for one target gathers only its sources, with the bits of
        # the batched call.
        for a, holding in enumerate(new):
            tid = int(rng.choice(target_ids))
            one = combined_estimate([holding], [tid])
            assert set(one) == ({(0, tid)} if (a, tid) in got else set())
            if one:
                assert one[(0, tid)].mean.tobytes() == \
                    got[(a, tid)].mean.tobytes()
                assert one[(0, tid)].cov.tobytes() == \
                    got[(a, tid)].cov.tobytes()
    assert n_pairs > 1000


def test_record_estimate_is_a_read_only_view():
    rec = TargetRecord(2, est([1.0, -0.0], 0.3), 5)
    assert rec.mean == (1.0, -0.0) and rec.cov == (0.3, 0.0, 0.0, 0.3)
    view = rec.estimate
    view.mean[0] = 99.0
    view.cov += 1.0
    assert rec.mean == (1.0, -0.0) and rec.cov == (0.3, 0.0, 0.0, 0.3)
    assert np.array_equal(rec.estimate.mean, [1.0, 0.0])
    copy = rec.copy()
    assert copy is not rec and (copy.target_id, copy.mean, copy.cov,
                                copy.last_update_step) == \
        (2, rec.mean, rec.cov, 5)
