"""Per-agent target memory and negotiation.

Holds the local target list, the per-neighbor target lists (kept in each
neighbor's frame), the storage update rule, the two-phase distributed-greedy
target selection, the neighbor-frame transform, and batched
combined-estimate fusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import (GaussianEstimate, add2, add4, flat_entropy,
                         from_flat, fuse, fuse_informed, info_form,
                         propagate, scaled_eye, to_flat)


class TargetRecord:
    """One target's estimate as held by one agent.

    ``mean`` and ``cov`` are tuples of Python floats (see
    :func:`~pherotrack.estimation.to_flat`).  Tuples cannot be written in
    place, so a copy, a broadcast packet and every holder share them; an
    update rebinds the attribute.
    """

    __slots__ = ("target_id", "mean", "cov", "last_update_step")

    def __init__(self, target_id: int, estimate: GaussianEstimate,
                 last_update_step: int = 0):
        self.target_id = target_id
        self.mean, self.cov = to_flat(estimate)
        self.last_update_step = last_update_step

    @property
    def estimate(self) -> GaussianEstimate:
        """The estimate as arrays of its own (a read-only view: writing
        into it leaves the record as it was)."""
        return from_flat(self.mean, self.cov)

    def copy(self) -> "TargetRecord":
        new = object.__new__(TargetRecord)
        new.target_id = self.target_id
        new.mean = self.mean
        new.cov = self.cov
        new.last_update_step = self.last_update_step
        return new

    def __repr__(self):
        return (f"TargetRecord({self.target_id}, mean={self.mean}, "
                f"cov={self.cov}, last_update_step={self.last_update_step})")


@dataclass
class LocalTargetList:
    """Targets the agent has sensed itself, unique by target id."""

    records: dict = field(default_factory=dict)


class NeighborTargetList:
    """A neighbor's broadcast target list plus where that neighbor is.

    Record estimates stay in the neighbor's frame; ``rel_mean`` and
    ``rel_cov`` (flat tuples, None until the first packet) are the fused
    relative position of the neighbor in the local frame, which lifts those
    estimates into the local frame on demand.
    """

    __slots__ = ("neighbor_id", "records", "rel_mean", "rel_cov",
                 "last_rx_step")

    def __init__(self, neighbor_id: int, records: dict | None = None,
                 rel_pos: GaussianEstimate | None = None,
                 last_rx_step: int = -1):
        self.neighbor_id = neighbor_id
        self.records = {} if records is None else records
        self.rel_mean, self.rel_cov = (None, None) if rel_pos is None \
            else to_flat(rel_pos)
        self.last_rx_step = last_rx_step

    @property
    def rel_pos(self) -> GaussianEstimate | None:
        """The relative position as an estimate of its own, or None."""
        if self.rel_mean is None:
            return None
        return from_flat(self.rel_mean, self.rel_cov)


@dataclass
class TrackerConfig:
    q_bar: np.ndarray            # max per-step covariance growth of a target
    sigma_bar: float = 3600.0    # delete records whose det exceeds this
    motion_var: float = 0.16     # per-step variance bound on neighbor motion

    def __post_init__(self):
        self.q_bar = np.asarray(self.q_bar, dtype=float).reshape(2, 2)
        self.q_flat = tuple(self.q_bar.ravel().tolist())


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

    Prediction and growth work on the records' float tuples; an estimate
    about to be fused goes through :func:`propagate` and :func:`fuse` on
    arrays, which give the same bits.  Mutates ``local`` and ``neighbors``
    in place.
    """
    shift = np.asarray(shift, dtype=float).reshape(2)
    d = tuple(shift.tolist())
    q = cfg.q_flat
    det_by_id = dict(detections)

    # Local list: predict with (shift, q_bar), fuse any matching detection.
    for tid, rec in local.records.items():
        meas = det_by_id.pop(tid, None)
        if meas is None:
            rec.mean = add2(rec.mean, d)
            rec.cov = add4(rec.cov, q)
        else:
            rec.mean, rec.cov = to_flat(fuse(
                propagate(rec.estimate, shift, cfg.q_bar), meas))
            rec.last_update_step = step

    # Brand-new detections enter with their instantaneous sensor covariance.
    for tid, est in det_by_id.items():
        local.records[tid] = TargetRecord(tid, est, step)

    _prune(local.records, cfg.sigma_bar)

    # The neighbor moves on its own between receptions, so its relative
    # position loses information every step regardless of what we hear;
    # without this growth repeated fusion turns p-hat overconfident and the
    # stale mean poisons every lifted estimate.
    g = add4(np.asarray(sigma_shift, dtype=float).ravel().tolist(),
             scaled_eye(cfg.motion_var))

    heard_from = set()
    for sender, records, rel_meas in rx_packets:
        heard_from.add(sender)
        nlist = neighbors.get(sender)
        if nlist is None:
            nlist = neighbors[sender] = NeighborTargetList(sender)
        nlist.records = {r.target_id: r.copy() for r in records}
        if nlist.rel_mean is None:
            nlist.rel_mean, nlist.rel_cov = to_flat(rel_meas)
        else:
            predicted = propagate(nlist.rel_pos, shift,
                                  np.array(g).reshape(2, 2))
            nlist.rel_mean, nlist.rel_cov = to_flat(fuse(predicted, rel_meas))
        nlist.last_rx_step = step

    # Silent neighbors: dead-reckon their position, grow every uncertainty.
    for nid, nlist in neighbors.items():
        if nid in heard_from or nlist.rel_mean is None:
            continue
        nlist.rel_mean = add2(nlist.rel_mean, d)
        nlist.rel_cov = add4(nlist.rel_cov, g)
        for rec in nlist.records.values():
            rec.cov = add4(rec.cov, q)

    for nlist in neighbors.values():
        _prune(nlist.records, cfg.sigma_bar)


def _prune(records: dict, sigma_bar: float):
    stale = [tid for tid, r in records.items()
             if flat_entropy(r.cov) > sigma_bar]
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
            holdings.append((nid, nlist.records, nlist.rel_cov))
    holdings.sort(key=lambda h: h[0])

    # Per holding its dets; per target the sharpest (det, agent id), ties
    # kept by the lower id because holdings ascend.
    table, sharpest = [], {}
    for aid, recs, rel_cov in holdings:
        dets = {}
        for tid, rec in recs.items():
            d = dets[tid] = flat_entropy(rec.cov)
            best = sharpest.get(tid)
            if best is None or d < best[0]:
                sharpest[tid] = (d, aid)
        table.append((aid, dets, recs, rel_cov))
    if not sharpest:
        return 0

    claimed = {}
    for aid, dets, _, _ in table:
        for tid in sorted(dets, key=lambda t: (dets[t], t)):
            if tid not in claimed and sharpest[tid][1] == aid:
                claimed[tid] = aid
                break

    for tid, aid in claimed.items():
        if aid == self_id:
            return tid

    # Phase 2: cheapest unclaimed target reachable through any holding.
    best = None
    for aid, dets, recs, rel_cov in table:
        for tid, h in dets.items():
            if tid in claimed:
                continue
            if aid != self_id:
                h = flat_entropy(add4(recs[tid].cov, rel_cov))
            if best is None or (h, tid) < best:
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
    record whose neighbor has a relative position, in ascending neighbor
    id, lifted as :func:`transform_neighbor_estimate` does.  Only the
    requested targets are gathered.  Each chain is fused left to right,
    exactly as a loop of :func:`fuse` over its sources; with enough pairs,
    all chains advance together one position at a time through
    :func:`~pherotrack.estimation.fuse_informed`, which gives the same bits.

    Returns ``{(index into holdings, target id): GaussianEstimate}``; pairs
    with no source are absent.

    Raises:
        SingularCovarianceError: if a fused covariance cannot be inverted.
    """
    chains = {}
    for a, (local, neighbors) in enumerate(holdings):
        placed = [neighbors[nid] for nid in sorted(neighbors)
                  if neighbors[nid].rel_mean is not None]
        for tid in target_ids:
            rec = local.records.get(tid)
            chain = [] if rec is None else [(rec.mean, rec.cov)]
            for nlist in placed:
                rec = nlist.records.get(tid)
                if rec is not None:
                    chain.append((add2(rec.mean, nlist.rel_mean),
                                  add4(rec.cov, nlist.rel_cov)))
            if chain:
                chains[(a, tid)] = chain
    if len(chains) < _STACK_MIN_PAIRS:
        return {key: _fuse_chain(chain) for key, chain in chains.items()}
    return _fuse_chains_stacked(chains)


def _fuse_chain(chain):
    means = np.array([mean for mean, _ in chain])
    covs = np.array([cov for _, cov in chain]).reshape(-1, 2, 2)
    out = GaussianEstimate(means[0], covs[0])
    for j in range(1, len(chain)):
        out = fuse(out, GaussianEstimate(means[j], covs[j]))
    return out


def _fuse_chains_stacked(chains):
    # Longest chains first, and sources laid out position-major: the pairs
    # still fusing at chain position j are a prefix, and their j-th sources
    # one contiguous block.
    keys = sorted(chains, key=lambda k: -len(chains[k]))
    means, covs, blocks = [], [], []
    n_active = len(keys)
    for j in range(len(chains[keys[0]])):
        while len(chains[keys[n_active - 1]]) <= j:
            n_active -= 1
        blocks.append(n_active)
        for key in keys[:n_active]:
            mean, cov = chains[key][j]
            means.append(mean)
            covs.append(cov)
    src_mean = np.array(means)
    src_cov = np.array(covs).reshape(-1, 2, 2)

    # The running estimates overwrite the first block in place; every later
    # block is a second operand, put in information form all at once.
    mean, cov = src_mean[:len(keys)], src_cov[:len(keys)]
    if len(blocks) > 1:
        ib, ib_b = info_form(src_mean[len(keys):], src_cov[len(keys):])
        start = 0
        for n in blocks[1:]:
            stop = start + n
            mean[:n], cov[:n] = fuse_informed(mean[:n], cov[:n],
                                              ib[start:stop], ib_b[start:stop])
            start = stop
    return {key: GaussianEstimate(mean[r], cov[r])
            for r, key in enumerate(keys)}

