"""Per-agent target memory and negotiation.

Holds the local target list, the per-neighbor target lists (kept in each
neighbor's frame), the storage update rule, the two-phase distributed-greedy
target selection, the neighbor-frame transform, batched combined-estimate
fusion, and the exploitation waypoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import (GaussianEstimate, entropy, fuse, fuse_stacked,
                         propagate)


@dataclass
class TargetRecord:
    target_id: int
    estimate: GaussianEstimate
    last_update_step: int = 0

    def copy(self):
        return TargetRecord(self.target_id, self.estimate.copy(),
                            self.last_update_step)


@dataclass
class LocalTargetList:
    """Targets the agent has sensed itself, unique by target id."""

    records: dict = field(default_factory=dict)


@dataclass
class NeighborTargetList:
    """A neighbor's broadcast target list plus where that neighbor is.

    Record estimates stay in the neighbor's frame; ``rel_pos`` is the fused
    relative position of the neighbor in the local frame and is what lifts
    those estimates into the local frame on demand.
    """

    neighbor_id: int
    records: dict = field(default_factory=dict)
    rel_pos: GaussianEstimate | None = None
    last_rx_step: int = -1


@dataclass
class TrackerConfig:
    q_bar: np.ndarray            # max per-step covariance growth of a target
    sigma_bar: float = 3600.0    # delete records whose det exceeds this
    motion_var: float = 0.16     # per-step variance bound on neighbor motion

    def __post_init__(self):
        self.q_bar = np.asarray(self.q_bar, dtype=float).reshape(2, 2)


def update_storage(local: LocalTargetList, neighbors: dict, detections,
                   rx_packets, shift, sigma_shift, cfg: TrackerConfig,
                   step: int = 0):
    """One storage round: predict, fuse detections, ingest packets, prune.

    ``shift`` is the local-frame shift p(t-1) - p(t) (negative of the sensed
    displacement); ``sigma_shift`` its covariance.  ``detections`` is a list
    of (target_id, GaussianEstimate) sensed this step.  ``rx_packets`` is a
    list of (sender_id, target_records, sensed_rel_pos) for packets received
    this step, where ``sensed_rel_pos`` is the receiver-side measurement of
    the sender attached by the channel.

    Mutates ``local`` and ``neighbors`` in place.
    """
    shift = np.asarray(shift, dtype=float).reshape(2)
    sigma_shift = np.asarray(sigma_shift, dtype=float).reshape(2, 2)
    det_by_id = dict(detections)

    # Local list: predict with (shift, q_bar), fuse any matching detection.
    for tid, rec in local.records.items():
        predicted = propagate(rec.estimate, shift, cfg.q_bar)
        if tid in det_by_id:
            rec.estimate = fuse(predicted, det_by_id.pop(tid))
            rec.last_update_step = step
        else:
            rec.estimate = predicted

    # Brand-new detections enter with their instantaneous sensor covariance.
    for tid, est in det_by_id.items():
        local.records[tid] = TargetRecord(tid, est.copy(), step)

    _prune(local.records, cfg.sigma_bar)

    # The neighbor moves on its own between receptions, so its relative
    # position loses information every step regardless of what we hear;
    # without this growth repeated fusion turns p-hat overconfident and the
    # stale mean poisons every lifted estimate.
    rel_growth = sigma_shift + cfg.motion_var * np.eye(2)

    heard_from = set()
    for sender, records, rel_meas in rx_packets:
        heard_from.add(sender)
        nlist = neighbors.get(sender)
        if nlist is None:
            nlist = neighbors[sender] = NeighborTargetList(sender)
        nlist.records = {r.target_id: r.copy() for r in records}
        if nlist.rel_pos is None:
            nlist.rel_pos = rel_meas.copy()
        else:
            predicted = propagate(nlist.rel_pos, shift, rel_growth)
            nlist.rel_pos = fuse(predicted, rel_meas)
        nlist.last_rx_step = step

    # Silent neighbors: dead-reckon their position, grow every uncertainty.
    for nid, nlist in neighbors.items():
        if nid in heard_from or nlist.rel_pos is None:
            continue
        nlist.rel_pos = propagate(nlist.rel_pos, shift, rel_growth)
        for rec in nlist.records.values():
            rec.estimate.cov = rec.estimate.cov + cfg.q_bar

    for nlist in neighbors.values():
        _prune(nlist.records, cfg.sigma_bar)


def _prune(records: dict, sigma_bar: float):
    stale = [tid for tid, r in records.items() if entropy(r.estimate.cov) > sigma_bar]
    for tid in stale:
        del records[tid]


def transform_neighbor_estimate(est: GaussianEstimate,
                                neighbor: GaussianEstimate) -> GaussianEstimate:
    """Lift a neighbor-frame estimate into the local frame.

    The neighbor's own position uncertainty adds on (the two sensing channels
    are independent), so the lifted estimate is never more confident than the
    stored one.
    """
    return GaussianEstimate(est.mean + neighbor.mean, est.cov + neighbor.cov)


def select_target(self_id: int, local: LocalTargetList, neighbors: dict) -> int:
    """Two-phase distributed-greedy target selection.

    Phase 1 replays, over every local list this agent holds (its own plus
    each neighbor's broadcast list), the rule "a target goes to the agent
    with the strictly lowest stored uncertainty for it"; agents are visited
    in ascending id, their targets in ascending det order, each agent takes
    at most one target and already-claimed targets are skipped.  Ties break
    toward the lower agent id.  If this agent won a target, that's the pick.

    Phase 2 falls back to the unclaimed target with the least uncertainty as
    seen from here (neighbor-held estimates pay the relative-position
    inflation).  Returns 0 when no candidate exists (explore).
    """
    holdings = [(self_id, local.records, None)]
    for nid in sorted(neighbors):
        nlist = neighbors[nid]
        if nlist.records:
            holdings.append((nid, nlist.records, nlist.rel_pos))
    holdings.sort(key=lambda h: h[0])

    if all(not recs for _, recs, _ in holdings):
        return 0

    dets = {
        (aid, tid): entropy(rec.estimate.cov)
        for aid, recs, _ in holdings
        for tid, rec in recs.items()
    }

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

    # Phase 2: cheapest unclaimed target reachable through any holding.
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


# Below this many pairs numpy's per-call overhead outweighs batching, and
# the chains are fused one pair at a time instead.
_STACK_MIN_PAIRS = 4


def combined_estimate(holdings, target_ids) -> dict:
    """Fuse every view of each (agent, target) pair into one local-frame
    estimate, for all pairs at once.

    ``holdings`` is a sequence of ``(local, neighbors)`` per agent: its
    :class:`LocalTargetList` and its dict of :class:`NeighborTargetList`.
    A pair's sources are the local record (if any), then each neighbor
    record whose neighbor has a ``rel_pos``, in ascending neighbor id,
    lifted through :func:`transform_neighbor_estimate`.  Each chain is
    fused left to right, exactly as a loop of :func:`fuse` over its sources;
    with enough pairs, all chains advance together one position at a time
    through :func:`fuse_stacked`, which gives the same bits.

    Returns ``{(index into holdings, target id): GaussianEstimate}``; pairs
    with no source are absent.

    Raises:
        SingularCovarianceError: if a fused covariance cannot be inverted.
    """
    chains = {}
    for a, (local, neighbors) in enumerate(holdings):
        by_target = {tid: [(rec.estimate, None)]
                     for tid, rec in local.records.items()}
        for nid in sorted(neighbors):
            nlist = neighbors[nid]
            rel_pos = nlist.rel_pos
            if rel_pos is None:
                continue
            for tid, rec in nlist.records.items():
                chain = by_target.get(tid)
                if chain is None:
                    by_target[tid] = [(rec.estimate, rel_pos)]
                else:
                    chain.append((rec.estimate, rel_pos))
        for tid in target_ids:
            chain = by_target.get(tid)
            if chain is not None:
                chains[(a, tid)] = chain
    if len(chains) < _STACK_MIN_PAIRS:
        return {key: _fuse_chain(chain) for key, chain in chains.items()}
    return _fuse_chains_stacked(chains)


def _fuse_chain(chain):
    sources = [est if rel_pos is None
               else transform_neighbor_estimate(est, rel_pos)
               for est, rel_pos in chain]
    out = sources[0].copy()
    for s in sources[1:]:
        out = fuse(out, s)
    return out


def _fuse_chains_stacked(chains):
    # Longest chains first, and sources laid out position-major: the pairs
    # still fusing at chain position j are a prefix, and their j-th sources
    # one contiguous block.
    keys = sorted(chains, key=lambda k: -len(chains[k]))
    means, covs, blocks = [], [], []
    lift_rows, lift_means, lift_covs = [], [], []
    n_active = len(keys)
    for j in range(len(chains[keys[0]])):
        while len(chains[keys[n_active - 1]]) <= j:
            n_active -= 1
        blocks.append(n_active)
        for key in keys[:n_active]:
            est, rel_pos = chains[key][j]
            if rel_pos is not None:
                lift_rows.append(len(means))
                lift_means.append(rel_pos.mean)
                lift_covs.append(rel_pos.cov)
            means.append(est.mean)
            covs.append(est.cov)

    src_mean, src_cov = np.array(means), np.array(covs)
    if lift_rows:
        src_mean[lift_rows] += np.array(lift_means)
        src_cov[lift_rows] += np.array(lift_covs)

    # The running estimates overwrite the first block in place.
    mean, cov = src_mean[:len(keys)], src_cov[:len(keys)]
    start = len(keys)
    for n in blocks[1:]:
        mean[:n], cov[:n] = fuse_stacked(mean[:n], cov[:n],
                                         src_mean[start:start + n],
                                         src_cov[start:start + n])
        start += n
    return {key: GaussianEstimate(mean[r], cov[r])
            for r, key in enumerate(keys)}


def exploitation_waypoint(est: GaussianEstimate, viewpoint) -> np.ndarray:
    """Waypoint that parks the chosen target at the sensor's best viewpoint."""
    return est.mean - np.asarray(viewpoint, dtype=float).reshape(2)
