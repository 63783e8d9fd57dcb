"""Tests for the PD steering law and the per-agent step loop."""

import math

import numpy as np

from pherotrack import pheromone as ph
from pherotrack.agent import (KD_THETA, KP_R, KP_THETA, AgentBrain,
                              AgentConfig, pd_control)
from pherotrack.sensing import wrap_angle
from pherotrack.estimation import GaussianEstimate
from pherotrack.pheromone import GridGeometry, PheromoneConfig
from pherotrack.sensing import AnalyticCovMap, SectorFov, sector_polar
from pherotrack.tracking import TargetRecord, TrackerConfig, update_storage

U_MAX = (0.4, math.radians(15.0))


# -- pd_control --------------------------------------------------------------


def test_zero_reference_gives_zero_control():
    u = pd_control([0.0, 0.0], None, U_MAX, [0.0, 0.0])
    assert u.u1 == 0.0 and u.u2 == 0.0


def test_straight_ahead_full_speed_no_turn():
    u = pd_control([1.0, 0.0], None, U_MAX, [1.0, 0.0])
    assert u.u2 == 0.0
    assert math.isclose(u.u1, 0.4)          # 0.5 * 1.0 clamped to u_max


def test_sideways_waypoint_turns_at_rate_limit():
    u = pd_control([0.0, 1.0], None, U_MAX, [0.0, 1.0])
    assert math.isclose(u.u2, U_MAX[1])     # kp * pi/2 clamped
    assert math.isclose(u.u1, 0.0, abs_tol=1e-12)


def test_waypoint_behind_stops_forward_motion():
    u = pd_control([-1.0, 0.0], None, U_MAX, [-1.0, 0.0])
    assert u.u1 == 0.0
    assert abs(u.u2) == U_MAX[1]


def test_facing_reference_decoupled_from_waypoint():
    # Parked (zero waypoint) but facing a target off to the side: no forward
    # motion, but the agent turns toward the face reference.
    u = pd_control([0.0, 0.0], None, U_MAX, [1.0, 1.0])
    assert u.u1 == 0.0
    assert math.isclose(u.u2, U_MAX[1])


def test_derivative_term_damps_turn():
    wide = (1.0, math.pi)
    bare = pd_control([1.0, 0.2], None, wide, [1.0, 0.2])
    # Reference swung from +0.4 rad to +0.2 rad: the derivative term opposes.
    damped = pd_control([1.0, 0.2], [1.0, 0.4], wide, [1.0, 0.2])
    assert damped.u2 < bare.u2


# -- the step loop -----------------------------------------------------------


def make_cfg(**kw):
    base = dict(
        fov=SectorFov(4.0, math.radians(60.0)),
        cov_map=AnalyticCovMap(),
        tracker_cfg=TrackerConfig(0.01 * np.eye(2)),
        pher_cfg=PheromoneConfig(),
        grid_geom=GridGeometry(12.0, 0.25),
        u_max=U_MAX,
        q_star=0.5,
        assign="greedy-distributed",
        domain=(30.0, 30.0),
    )
    base.update(kw)
    return AgentConfig(**base)


def make_brain(agent_id=1, explorer=None, **kw):
    return AgentBrain(agent_id, make_cfg(**kw), np.random.default_rng(0),
                      explorer)


def det(tid, mean, var):
    return (tid, GaussianEstimate(mean, var * np.eye(2)))


def record(tid, mean, var):
    e = GaussianEstimate(mean, var * np.eye(2))
    return TargetRecord(tid, e.mean, e.cov)


def step(brain, dets=(), **kw):
    return brain.step(list(dets), [], np.zeros(2), np.zeros((2, 2)), 0.0,
                      own_pos=np.array([15.0, 15.0]), **kw)


def test_explore_when_nothing_known():
    brain = make_brain()
    packet, u, telem = step(brain)
    assert telem.target_id == 0
    assert telem.entropy is None
    assert packet.targets == []
    assert 0.0 <= u.u1 <= U_MAX[0] and abs(u.u2) <= U_MAX[1]
    # The step stamped a pheromone at the previously-occupied point.
    assert len(brain.own_pheromones) == 1


def test_packet_carries_the_senders_deposit_array():
    brain = make_brain()
    step(brain)
    held = brain.own_pheromones
    before = held.tobytes()
    packet, _, _ = step(brain)
    assert packet.pheromones is held
    step(brain)
    # Storage rounds build new arrays, so the broadcast one never changes.
    assert brain.own_pheromones is not held and held.tobytes() == before


def test_detection_triggers_exploitation():
    brain = make_brain()
    packet, u, telem = step(brain, [det(1, [2.0, 0.0], 1e-3)])
    assert telem.target_id == 1
    assert math.isclose(telem.entropy, 1e-6)
    # Broadcast snapshots the pre-update list: this detection is not in it.
    assert packet.targets == []
    # Target already at the best-viewpoint range and dead ahead: hold.
    assert np.allclose(telem.waypoint, [0.0, 0.0])
    assert u.u1 == 0.0 and math.isclose(u.u2, 0.0, abs_tol=1e-12)
    # Next step's packet carries the record.
    packet2, _, _ = step(brain, [det(1, [2.0, 0.0], 1e-3)])
    assert [r.target_id for r in packet2.targets] == [1]


def test_distant_target_drives_toward_viewpoint():
    brain = make_brain()
    _, u, telem = step(brain, [det(1, [10.0, 0.0], 0.5)])
    assert telem.target_id == 1
    # Waypoint parks the target at the best viewpoint: 8 bl ahead.
    assert np.allclose(telem.waypoint, [8.0, 0.0], atol=1e-9)
    assert u.u1 == U_MAX[0]


def test_negative_information_inflates_contradicted_record():
    brain = make_brain()
    brain.local_targets.records[1] = record(1, [2.0, 0.0], 0.04)
    step(brain)   # record mean sits in the sensed sector, nothing detected
    cov = brain.local_targets.records[1].cov
    # predict growth (q_bar) plus the miss bump.
    assert np.allclose(cov, [1.05, 0.0, 0.0, 1.05])

    outside = make_brain()
    outside.local_targets.records[1] = record(1, [-2.0, 0.0], 0.04)  # behind
    step(outside)
    cov = outside.local_targets.records[1].cov
    assert np.allclose(cov, [0.05, 0.0, 0.0, 0.05])           # q_bar only


def test_forced_unknown_target_falls_back_to_explore():
    brain = make_brain(assign="greedy-distributed")
    _, _, telem = step(brain, forced_target=3)
    assert telem.target_id == 0
    assert telem.entropy is None


def test_forced_known_target_overrides_negotiation():
    brain = make_brain()
    step(brain, [det(2, [3.0, 0.5], 0.1)])
    _, _, telem = step(brain, [det(2, [3.0, 0.5], 0.1)], forced_target=2)
    assert telem.target_id == 2


def test_local_greedy_ignores_out_of_sector_records():
    brain = make_brain(assign="local-greedy")
    step(brain, [det(1, [2.0, 0.0], 0.1)])
    # Record now exists; with the sensed sector facing forward it is chosen.
    _, _, telem = step(brain, [det(1, [2.0, 0.0], 0.1)])
    assert telem.target_id == 1
    # A record behind the agent is invisible to the local-greedy rule.
    lone = make_brain(assign="local-greedy")
    lone.local_targets.records[1] = record(1, [-2.0, 0.0], 0.01)
    _, _, telem = step(lone)
    assert telem.target_id == 0


def test_explorer_steers_instead_of_pheromones(monkeypatch):
    calls = []

    def fake_explorer(shift, own_pos):
        calls.append((shift.tolist(), own_pos.tolist()))
        return np.array([3.0, 4.0])

    def no_pheromone_waypoint(self, shift, own_pos):
        raise AssertionError("a brain with an explorer steered by pheromones")

    monkeypatch.setattr(AgentBrain, "_pheromone_waypoint",
                        no_pheromone_waypoint)
    brain = make_brain(explorer=fake_explorer)
    for _ in range(3):
        _, u, telem = brain.step([], [], np.array([0.5, 0.0]),
                                 np.zeros((2, 2)), 0.0,
                                 own_pos=np.array([15.0, 15.0]))
        assert telem.target_id == 0
        assert telem.waypoint.tolist() == [3.0, 4.0]
    # Called once per explore step with the frame shift and the true pose.
    assert calls == [([-0.5, -0.0], [15.0, 15.0])] * 3
    # The explorer's brain keeps no pheromones and no carried waypoint.
    assert len(brain.own_pheromones) == 0 and brain.carried is None
    # Its control heads for the explorer's waypoint.
    assert u == pd_control([3.0, 4.0], [3.0, 4.0], U_MAX, [3.0, 4.0])


def test_exploration_waypoint_stays_in_domain():
    brain = make_brain()
    own = np.array([0.5, 0.5])    # corner: most of B(0, r_c) is off-world
    for _ in range(30):
        _, _, telem = brain.step([], [], np.zeros(2), np.zeros((2, 2)), 0.0,
                                 own_pos=own)
        goal = own + telem.waypoint
        assert -0.26 <= goal[0] <= 30.26
        assert -0.26 <= goal[1] <= 30.26


# -- the carried exploration waypoint, on both pheromone map paths -----------

# Deposit covariances that put the map on the delta-kernel path (stamped
# disks) and on the diffused path (odometry noise).
MAP_PATHS = {"delta": np.zeros((2, 2)), "diffused": 0.01 * np.eye(2)}


def next_waypoint(cov, carried, shift=(0.0, 0.0), own_pos=(15.0, 15.0),
                  deposits=((-3.0, -3.0, 1.0),)):
    """One exploration waypoint of a brain on a 4 bl map that carries
    ``carried`` = (waypoint, weight) and holds ``deposits`` (x, y, weight),
    each with covariance ``cov``.  Returns (brain, waypoint)."""
    brain = make_brain(grid_geom=GridGeometry(4.0, 0.25),
                       pher_cfg=PheromoneConfig(footprint_radius=0.5))
    brain.own_pheromones = np.array(
        [(x, y, *cov.ravel(), w) for x, y, w in deposits])
    brain.carried = (np.array(carried[0]), carried[1])
    wp = brain._pheromone_waypoint(np.array(shift), np.array(own_pos))
    assert brain.carried[0] is wp
    return brain, wp


def is_fresh_draw(brain, wp):
    """Whether ``wp`` is a least-weighted cell center, as every fresh draw
    is and no carried waypoint in these tests is.  (FFT round-off leaves
    values within ARGMIN_TOL of zero on a diffused map.)"""
    geom = brain.cfg.grid_geom
    i, j = geom.index_of(wp)
    return wp.tolist() == [geom.coords[i], geom.coords[j]] \
        and brain.carried[1] <= ph.ARGMIN_TOL


def test_carried_waypoint_shifts_until_reached():
    for path, cov in MAP_PATHS.items():
        brain, wp = next_waypoint(cov, ([2.0, 0.0], 0.0), shift=(-0.5, 0.0))
        assert wp.tolist() == [1.5, 0.0] and brain.carried[1] == 0.0, path
        # Within q_star of the goal: a fresh waypoint is drawn.
        brain, wp = next_waypoint(cov, ([0.6, 0.0], 0.0), shift=(-0.4, 0.0))
        assert is_fresh_draw(brain, wp), path


def test_carried_waypoint_redrawn_when_value_rises_or_ball_left():
    for path, cov in MAP_PATHS.items():
        # A value that has not risen above the stored weight keeps it.
        _, wp = next_waypoint(cov, ([2.0, 0.0], 5.0),
                              deposits=((2.0, 0.0, 5.0),))
        assert wp.tolist() == [2.0, 0.0], path
        # The map value at the carried point rose above the stored weight.
        brain, wp = next_waypoint(cov, ([2.0, 0.0], 0.0),
                                  deposits=((2.0, 0.0, 5.0),))
        assert is_fresh_draw(brain, wp), path
        # The carried waypoint drifted out of the search ball...
        brain, wp = next_waypoint(cov, ([3.9, 0.0], 0.0), shift=(0.5, 0.0))
        assert is_fresh_draw(brain, wp), path
        assert math.hypot(*wp) <= 4.0
        # ... or out of the walls.
        brain, wp = next_waypoint(cov, ([0.9, 0.0], 0.0), shift=(0.2, 0.0),
                                  own_pos=(29.0, 15.0))
        assert is_fresh_draw(brain, wp) and 29.0 + wp[0] <= 30.0, path


def test_carried_waypoint_wall_rule_same_on_both_map_paths():
    # The wall test takes the waypoint's exact point, not its cell's center,
    # whichever way the map is built.  The cell holding x = 2.0 to 2.25 has
    # its center at 2.125.
    for path, cov in MAP_PATHS.items():
        # Inside the walls (x = 30.0), in a cell centered outside (30.125).
        _, wp = next_waypoint(cov, ([2.0, 0.0], 0.0), own_pos=(28.0, 15.0))
        assert wp.tolist() == [2.0, 0.0], path
        # Outside the walls (x = 30.04), in a cell centered inside (29.925).
        brain, wp = next_waypoint(cov, ([2.24, 0.0], 0.0),
                                  own_pos=(27.8, 15.0))
        assert is_fresh_draw(brain, wp), path


def _np_clip_pd_control(wp, prev, u_max):
    """Reference: the PD law with np.clip, as the clamp was first written."""
    bearing = math.atan2(wp[1], wp[0])
    if prev is None or math.hypot(*prev) < 1e-12:
        d_bearing = 0.0
    else:
        d_bearing = wrap_angle(bearing - math.atan2(prev[1], prev[0]))
    u2 = KP_THETA * bearing + KD_THETA * d_bearing
    u1 = KP_R * math.hypot(*wp) * max(0.0, math.cos(bearing))
    return (float(np.clip(u1, 0.0, u_max[0])),
            float(np.clip(u2, -u_max[1], u_max[1])))


def test_clamp_is_bit_identical_to_np_clip():
    rng = np.random.default_rng(31)
    u_max = np.array([0.4, math.radians(15.0)])
    cases = [rng.uniform(-6, 6, 2) for _ in range(2000)]
    cases += [np.array(v) for v in ((1e-9, 0.0), (-3.0, 0.0), (-3.0, -0.0),
                                    (0.0, 2.0), (2.0, -0.0))]
    for k, wp in enumerate(cases):
        prev = cases[k - 1] if k % 3 else None
        got = pd_control(wp, prev, u_max, wp)
        want = _np_clip_pd_control(wp, prev, u_max)
        for g, w in zip((got.u1, got.u2), want):
            assert g == w and math.copysign(1.0, g) == \
                math.copysign(1.0, w), (wp, prev)


def test_broadcast_records_share_floats_but_never_mutations():
    sender = make_brain(agent_id=2)
    rec = record(1, [1.0, 0.0], 0.04)
    sender.local_targets.records[1] = rec
    packet = sender.snapshot_packet()
    sent = packet.targets[0]
    # One record per holder; the float tuples are shared, not copied.
    assert sent is not rec
    assert sent.mean is rec.mean and sent.cov is rec.cov

    rel = GaussianEstimate([1.0, 0.0], 0.01 * np.eye(2))
    a, b = make_brain(agent_id=1), make_brain(agent_id=3)
    for r in (a, b):
        update_storage(r.local_targets, r.neighbor_targets, [],
                       [(2, packet.targets, rel)], np.zeros(2),
                       np.zeros((2, 2)), r.cfg.tracker_cfg)
    held_a = a.neighbor_targets[2].records[1]
    held_b = b.neighbor_targets[2].records[1]
    assert held_a is not held_b and held_a.cov is rec.cov

    # Agent a looks at the lifted mean (2, 0) and misses it: bump.  Then it
    # hears nothing for a step: silent growth.
    a._apply_negative_info([], 0.0, np.array([15.0, 15.0]))
    assert held_a.cov[0] == 0.04 + 1.0
    update_storage(a.local_targets, a.neighbor_targets, [], [], np.zeros(2),
                   np.zeros((2, 2)), a.cfg.tracker_cfg, step=1)
    assert held_a.cov[0] == 0.04 + 1.0 + 0.01
    for r in (rec, sent, held_b):
        assert r.cov == (0.04, 0.0, 0.0, 0.04)
        assert r.mean == (1.0, 0.0)


def _reference_negative_info(brain, local, neighbors, detections, heading,
                             own_pos):
    """Negative information as it was on array records (``.estimate``)."""
    cfg = brain.cfg
    det_ids = {tid for tid, _ in detections}
    reach = max(cfg.fov.range_bl - 0.25, 1e-6)
    half = max(cfg.fov.half_angle - 0.05, 1e-6)
    bump = 1.0 * np.eye(2)
    lifetime = cfg.pher_cfg.max_list_length

    def clamp_rel(rel):
        ox, oy = float(own_pos[0]), float(own_pos[1])
        gx = min(max(ox + float(rel[0]), 0.0), cfg.domain[0])
        gy = min(max(oy + float(rel[1]), 0.0), cfg.domain[1])
        return np.array((gx - ox, gy - oy))

    def searched_since(mean, last_update):
        if brain.explorer is not None \
                or brain.step_count - last_update <= lifetime:
            return False
        if math.hypot(mean[0], mean[1]) > cfg.grid_geom.radius:
            return False
        deposits = brain._all_pheromones()
        if not len(deposits) or not ph.delta_only(deposits):
            return False
        value = ph.pheromone_value_at(
            mean, deposits, cfg.pher_cfg.footprint_radius, cfg.grid_geom)
        return value > cfg.pher_cfg.w_floor

    holdings = [(local, None)]
    for nlist in neighbors.values():
        if nlist.rel_pos is not None:
            holdings.append((nlist.records, nlist.rel_pos.mean))
    for records, offset in holdings:
        for tid, rec in records.items():
            if tid in det_ids:
                continue
            mean = rec.estimate.mean if offset is None \
                else rec.estimate.mean + offset
            mean = clamp_rel(mean)
            if sector_polar(*mean, reach, half, heading) is not None or \
                    searched_since(mean, rec.last_update_step):
                rec.estimate.cov = rec.estimate.cov + bump


def test_negative_info_bit_identical_to_array_records():
    from test_tracking import _assert_same_holding, _materialize, \
        _spec_holding

    def levy_like(shift, own_pos):       # any explorer turns pheromones off
        return np.zeros(2)

    rng = np.random.default_rng(83)
    bumped = searched = 0
    for trial in range(300):
        pool = []
        brain = make_brain(explorer=None if trial % 4 else levy_like)
        brain.step_count = int(rng.integers(0, 120))
        # Deposits near the agent, so stale records can be "searched since".
        rows = np.zeros((int(rng.integers(0, 30)), 7))
        rows[:, :2] = rng.uniform(-8.0, 8.0, (len(rows), 2))
        rows[:, 6] = rng.uniform(0.05, 35.0, len(rows))
        brain.own_pheromones = rows
        spec = _spec_holding(rng, 1, 5, [1, 2, 3, 4], pool,
                             brain.step_count)
        new, ref = _materialize(spec, True), _materialize(spec, False)
        brain.local_targets, brain.neighbor_targets = new
        heading = float(rng.uniform(-math.pi, math.pi))
        # Near a wall or corner now and then, so clamping moves means.
        own_pos = rng.choice([rng.uniform(0.0, 30.0, 2),
                              rng.uniform(0.0, 1.5, 2),
                              np.array([29.0, 15.0])])
        dets = [(t, None) for t in (1, 2, 3, 4) if rng.random() < 0.2]
        before = [r.cov for r in new[0].records.values()]
        brain._apply_negative_info(dets, heading, own_pos)
        _reference_negative_info(brain, ref[0].records, ref[1], dets,
                                 heading, own_pos)
        _assert_same_holding(new, ref)
        bumped += sum(r.cov is not c for r, c in
                      zip(new[0].records.values(), before))
        stale = [r for r in new[0].records.values()
                 if brain.step_count - r.last_update_step
                 > brain.cfg.pher_cfg.max_list_length]
        searched += bool(stale) and brain.explorer is None
    assert bumped > 50 and searched > 5
