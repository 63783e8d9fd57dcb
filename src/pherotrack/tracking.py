"""Per-agent target memory and negotiation.

Holds the local target list, the per-neighbor target lists (kept in each
neighbor's frame), the storage update rule, each agent's cheapest view of
every target, the two-phase distributed-greedy target selection, and
combined-estimate fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import (add2, add4, flat_entropy, fuse, propagate,
                         scaled_eye)


@dataclass(slots=True, eq=False)
class TargetRecord:
    """One target's estimate as held by one agent.

    ``mean`` and ``cov`` are flat tuples of Python floats, as in a
    :class:`~pherotrack.estimation.GaussianEstimate`.  Tuples cannot be
    written in place, so a copy, a broadcast packet and every holder share
    them; an update rebinds the attribute.
    """

    target_id: int
    mean: tuple
    cov: tuple
    last_update_step: int = 0

    def copy(self) -> "TargetRecord":
        return TargetRecord(self.target_id, self.mean, self.cov,
                            self.last_update_step)


@dataclass
class LocalTargetList:
    """Targets the agent has sensed itself, unique by target id."""

    records: dict = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class NeighborTargetList:
    """A neighbor's broadcast target list plus where that neighbor is.

    Record estimates stay in the neighbor's frame; ``rel_mean`` and
    ``rel_cov`` (flat tuples, set by the first packet) are the fused
    relative position of the neighbor in the local frame, which lifts those
    estimates into the local frame on demand.
    """

    records: dict
    rel_mean: tuple
    rel_cov: tuple


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

    A measurement arrives as the flat ``(mean, cov)`` pair prediction and
    fusion work on.  Mutates ``local`` and ``neighbors`` in place.
    """
    d = tuple(np.asarray(shift, dtype=float).reshape(2).tolist())
    q = cfg.q_flat
    det_by_id = {tid: (est.mean, est.cov) for tid, est in detections}

    # Local list: predict with (shift, q_bar), fuse any matching detection.
    for tid, rec in local.records.items():
        mean, cov = propagate(rec.mean, rec.cov, d, q)
        meas = det_by_id.pop(tid, None)
        if meas is not None:
            mean, cov = fuse(mean, cov, *meas)
            rec.last_update_step = step
        rec.mean, rec.cov = mean, cov

    # Brand-new detections enter with their instantaneous sensor covariance.
    for tid, (mean, cov) in det_by_id.items():
        local.records[tid] = TargetRecord(tid, mean, cov, step)

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
        records = {r.target_id: r.copy() for r in records}
        meas = rel_meas.mean, rel_meas.cov
        nlist = neighbors.get(sender)
        if nlist is None:
            neighbors[sender] = NeighborTargetList(records, *meas)
        else:
            nlist.records = records
            nlist.rel_mean, nlist.rel_cov = fuse(
                *propagate(nlist.rel_mean, nlist.rel_cov, d, g), *meas)

    # Silent neighbors: dead-reckon their position, grow every uncertainty.
    for nid, nlist in neighbors.items():
        if nid in heard_from:
            continue
        nlist.rel_mean, nlist.rel_cov = propagate(nlist.rel_mean,
                                                  nlist.rel_cov, d, g)
        for rec in nlist.records.values():
            rec.cov = add4(rec.cov, q)

    for nlist in neighbors.values():
        _prune(nlist.records, cfg.sigma_bar)


def _prune(records: dict, sigma_bar: float):
    stale = [tid for tid, r in records.items()
             if flat_entropy(r.cov) > sigma_bar]
    for tid in stale:
        del records[tid]


def cheapest_views(local: LocalTargetList, neighbors: dict) -> dict:
    """Each known target's least uncertainty as seen from here: the local
    record's det, or a neighbor record's det lifted by that neighbor's
    ``rel_cov``, whichever is lower.  Returns ``{target id: det}``.
    """
    views = {tid: flat_entropy(rec.cov) for tid, rec in local.records.items()}
    return _lift_views(views, neighbors, ())


def _lift_views(views, neighbors, skip):
    # Lower ``views`` to each neighbor record's lifted det where that is
    # lower; targets in ``skip`` are left out.
    for nlist in neighbors.values():
        for tid, rec in nlist.records.items():
            if tid in skip:
                continue
            h = flat_entropy(add4(rec.cov, nlist.rel_cov))
            if h < views.get(tid, math.inf):
                views[tid] = h
    return views


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
    holdings = [(self_id, local.records)] + [
        (nid, nlist.records) for nid, nlist in neighbors.items()
        if nlist.records]
    holdings.sort(key=lambda h: h[0])

    # Per holding its dets; per target the sharpest (det, agent id), ties
    # kept by the lower id because holdings ascend.
    table, sharpest = [], {}
    for aid, recs in holdings:
        dets = {}
        for tid, rec in recs.items():
            d = dets[tid] = flat_entropy(rec.cov)
            best = sharpest.get(tid)
            if best is None or d < best[0]:
                sharpest[tid] = (d, aid)
        table.append((aid, dets))
        if aid == self_id:
            own_dets = dets

    claimed = {}
    for aid, dets in table:
        for tid in sorted(dets, key=lambda t: (dets[t], t)):
            if tid not in claimed and sharpest[tid][1] == aid:
                claimed[tid] = aid
                break

    for tid, aid in claimed.items():
        if aid == self_id:
            return tid

    # Phase 2: the cheapest unclaimed view, from the phase-1 local dets.
    views = {tid: d for tid, d in own_dets.items() if tid not in claimed}
    views = _lift_views(views, neighbors, claimed)
    return min((h, tid) for tid, h in views.items())[1] if views else 0


def combined_estimate(holdings, target_ids) -> dict:
    """Fuse every view of each (agent, target) pair into one local-frame
    estimate.

    ``holdings`` is a sequence of ``(local, neighbors)`` per agent: its
    :class:`LocalTargetList` and its dict of :class:`NeighborTargetList`.
    A pair's sources are the local record (if any), then each neighbor
    record, in ascending neighbor id, lifted into the local frame by adding
    the neighbor's ``rel_mean`` and ``rel_cov``.  Only the requested targets
    are gathered.  Each chain is fused left to right with :func:`fuse`, one
    pair at a time.

    Returns ``{(index into holdings, target id): (mean, cov)}`` as flat
    tuples; pairs with no source are absent.

    Raises:
        SingularCovarianceError: if a fused covariance cannot be inverted.
    """
    out = {}
    for a, (local, neighbors) in enumerate(holdings):
        ordered = [neighbors[nid] for nid in sorted(neighbors)]
        for tid in target_ids:
            rec = local.records.get(tid)
            est = None if rec is None else (rec.mean, rec.cov)
            for nlist in ordered:
                rec = nlist.records.get(tid)
                if rec is None:
                    continue
                lifted = (add2(rec.mean, nlist.rel_mean),
                          add4(rec.cov, nlist.rel_cov))
                est = lifted if est is None else fuse(*est, *lifted)
            if est is not None:
                out[(a, tid)] = est
    return out
