"""Tests for the ground-truth world: config gate, dynamics, sensing, channel."""

import math

import numpy as np
import pytest

from pherotrack.agent import BroadcastPacket, ControlInput
from pherotrack.estimation import EPS_INV
from pherotrack.harness import simulate_run
from pherotrack.pheromone import no_deposits
from pherotrack.sensing import sector_polar
from pherotrack.world import (AssumptionError, PRESETS, WorldConfig,
                              deliver_broadcasts, hardware_table_preset,
                              make_state, sense_displacement, sense_targets,
                              sim_2d_preset, step_dynamics)


# -- assumption gate ---------------------------------------------------------


def test_gate_rejects_sensing_beyond_communication():
    with pytest.raises(AssumptionError):
        WorldConfig(r_s=13.0, r_c=12.0)


def test_gate_rejects_undominated_target_noise():
    with pytest.raises(AssumptionError):
        WorldConfig(q_k=((0.02, 0.0), (0.0, 0.02)),
                    q_bar=((0.01, 0.0), (0.0, 0.01)))
    # Domination is an eigenvalue condition, not elementwise.
    with pytest.raises(AssumptionError):
        WorldConfig(q_k=((0.01, 0.009), (0.009, 0.01)),
                    q_bar=((0.01, 0.0), (0.0, 0.01)))


def test_gate_rejects_slow_agents():
    with pytest.raises(AssumptionError):
        WorldConfig(u_max=(0.1, 0.26),
                    q_k=((0.005, 0.0), (0.0, 0.005)))


def test_gate_rejects_bad_pheromone_and_count_parameters():
    with pytest.raises(AssumptionError):
        WorldConfig(w_floor=40.0)
    with pytest.raises(AssumptionError):
        WorldConfig(rx_period=0)


def test_gate_rejects_degenerate_domain():
    with pytest.raises(AssumptionError):
        WorldConfig(domain=(-5.0, 10.0))
    with pytest.raises(AssumptionError):
        WorldConfig(domain=(30.0, 0.0))


def test_gate_rejects_nonpositive_cell_size():
    with pytest.raises(AssumptionError):
        WorldConfig(cell_size=0.0)


def test_gate_rejects_non_psd_odometry_noise():
    with pytest.raises(AssumptionError):
        WorldConfig(r_dp=((1e-3, 0.0), (0.0, -1e-3)))      # indefinite
    with pytest.raises(AssumptionError):
        WorldConfig(r_dp=((1e-3, 5e-4), (0.0, 1e-3)))      # asymmetric
    WorldConfig(r_dp=((1e-3, 5e-4), (5e-4, 1e-3)))         # correlated is fine


def test_gate_accepts_singular_noise_covariances():
    # The gate's rule is make_state's: a Cholesky factor after its jitter,
    # so a singular but PSD covariance passes and runs.
    for ok in (dict(q_k=((0.004, 0.004), (0.004, 0.004))),
               dict(r_dp=((1e-3, 0.0), (0.0, 0.0)))):
        make_state(WorldConfig(**ok), 0)


def test_gate_rejects_negative_target_count():
    with pytest.raises(AssumptionError):
        WorldConfig(n_targets=-1)
    WorldConfig(n_targets=0)          # an empty world is legal, just censored


def test_gate_rejects_nonpositive_sensing_radius():
    with pytest.raises(AssumptionError):
        WorldConfig(r_s=0.0)


def test_gate_rejects_nonpositive_deletion_threshold():
    with pytest.raises(AssumptionError):
        WorldConfig(sigma_bar=-1.0)


def test_gate_rejects_degenerate_sector_angle():
    # The sector itself would raise on these only once the brains are built.
    for phi in (0.0, -30.0, 360.5):
        with pytest.raises(AssumptionError):
            WorldConfig(phi_c_deg=phi)
    WorldConfig(phi_c_deg=360.0)      # a full circle is a valid sector


def test_gate_rejects_negative_neighbor_sensing_gain():
    # With k_p = eta_floor = -1 the channel variance goes negative and the
    # run died mid-way in sqrt.
    with pytest.raises(AssumptionError):
        WorldConfig(k_p=-1.0, eta_floor=-1.0)
    with pytest.raises(AssumptionError):
        WorldConfig(k_p=-1.0)
    WorldConfig(k_p=0.0)              # the floor alone is a valid channel


def test_gate_rejects_singular_noise_floor():
    # At or below the inversion limit, a detection at the camera optimum
    # (or a channel measurement at zero range) cannot be fused; and a chain
    # of n_agents views at the floor fuses to floor / n_agents.  An
    # infinite floor passed once and made the first detection's noise NaN.
    n = WorldConfig().n_agents
    for floor in (-1.0, 0.0, EPS_INV, 2 * EPS_INV, n * EPS_INV, math.nan,
                  math.inf):
        with pytest.raises(AssumptionError):
            WorldConfig(eta_floor=floor)
    WorldConfig(eta_floor=(n + 0.5) * EPS_INV)


def test_floor_only_team_above_the_chain_bound_runs():
    # A floor-only sensor (k1 = k2 = k_p = 0) just above the bound: before
    # it, eta_floor = 2e-9 let the 8/6 team's chain fusion raise
    # SingularCovarianceError on seed 0 within 400 steps.
    with pytest.raises(AssumptionError, match="n_agents"):
        sim_2d_preset(n_agents=8, n_targets=6, k1=0, k2=0, k_p=0,
                      eta_floor=2e-9)
    for n_agents, n_targets in ((8, 6), (2, 2)):
        cfg = sim_2d_preset(n_agents=n_agents, n_targets=n_targets, k1=0,
                            k2=0, k_p=0, eta_floor=(n_agents + 0.5) * EPS_INV)
        m = simulate_run(cfg, "pheromone", "greedy-distributed", 400, 0,
                         stop_when_tracked=False)
        assert len(m.h_series) == 400


def test_gate_bounds_the_settled_record_variance():
    # With static targets (q_bar = 0) a record fused with a detection at
    # the floor every step shrinks as floor / t: this 8/6 team passed the
    # floor bound alone and raised SingularCovarianceError on seed 0 within
    # 400 steps.
    zero = np.zeros((2, 2))
    floor_only = dict(n_agents=8, n_targets=6, k1=0, k2=0, k_p=0)
    with pytest.raises(AssumptionError, match="n_agents"):
        sim_2d_preset(**floor_only, eta_floor=8.5e-9, q_k=zero, q_bar=zero)
    # With q_bar = q I the record settles at p = 2 q f / (q + sqrt(q^2 +
    # 4 q f)), which reaches 8 * EPS_INV at f = 8.064e-9 for q = 1e-6.
    small = 1e-6 * np.eye(2)
    with pytest.raises(AssumptionError, match="n_agents"):
        sim_2d_preset(**floor_only, eta_floor=8.05e-9, q_k=small, q_bar=small)
    cfg = sim_2d_preset(**floor_only, eta_floor=8.08e-9, q_k=small,
                        q_bar=small)
    m = simulate_run(cfg, "pheromone", "greedy-distributed", 400, 0,
                     stop_when_tracked=False)
    assert len(m.h_series) == 400


def test_gate_rejects_nonpositive_turn_rate():
    for turn in (0.0, -math.radians(15.0)):
        with pytest.raises(AssumptionError):
            WorldConfig(u_max=(0.4, turn))


def test_presets_pass_the_gate():
    for name, factory in PRESETS.items():
        factory().validate()
    cfg = sim_2d_preset()
    assert cfg.domain == (30.0, 30.0)
    assert cfg.n_agents == 6 and cfg.n_targets == 4
    hw = hardware_table_preset()
    assert hw.domain == (10.0, 6.0)
    assert hw.calibration_csv == ""


def test_config_json_roundtrip(tmp_path):
    cfg = sim_2d_preset(n_agents=3)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    loaded = WorldConfig.from_json(path)
    assert loaded.n_agents == 3
    assert loaded.domain == cfg.domain
    assert np.allclose(loaded.q_k, cfg.q_k)
    assert np.allclose(loaded.u_max, cfg.u_max)


def test_config_json_names_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_agents": 3, "r_sense": 4.0, "sead": 1}')
    with pytest.raises(AssumptionError, match=r"\['r_sense', 'sead'\]"):
        WorldConfig.from_json(path)


# -- state and streams -------------------------------------------------------


def test_make_state_shapes_and_bounds():
    state = make_state(sim_2d_preset(), 3)
    assert state.agent_pos.shape == (6, 2)
    assert state.target_pos.shape == (4, 2)
    assert (state.agent_pos >= 0).all() and (state.agent_pos <= 30).all()
    assert (state.target_pos >= 0).all() and (state.target_pos <= 30).all()
    assert (np.abs(state.agent_heading) <= math.pi).all()


def test_make_state_factors_noise_once_per_run():
    cfg = sim_2d_preset(r_dp=((2e-3, 1.5e-3), (1.5e-3, 2e-3)))
    state = make_state(cfg, 0)
    eps = 1e-15 * np.eye(2)
    assert state.q_chol.tobytes() == \
        np.linalg.cholesky(cfg.q_k + eps).tobytes()
    assert state.dp_chol.tobytes() == \
        np.linalg.cholesky(cfg.r_dp + eps).tobytes()
    # No displacement noise: no factor, and the measurement is exact.
    assert make_state(sim_2d_preset(), 0).dp_chol is None


def test_make_state_deterministic_per_seed():
    a = make_state(sim_2d_preset(), 5)
    b = make_state(sim_2d_preset(), 5)
    c = make_state(sim_2d_preset(), 6)
    assert np.array_equal(a.agent_pos, b.agent_pos)
    assert np.array_equal(a.target_pos, b.target_pos)
    assert not np.array_equal(a.target_pos, c.target_pos)


def test_target_noise_streams_independent_of_agent_count():
    hold = ControlInput(0.0, 0.0)
    few = make_state(sim_2d_preset(n_agents=2, n_targets=2), 9)
    many = make_state(sim_2d_preset(n_agents=6, n_targets=2), 9)
    d_few = few.target_pos.copy()
    d_many = many.target_pos.copy()
    step_dynamics(few, [hold] * 2, sim_2d_preset(n_agents=2, n_targets=2))
    step_dynamics(many, [hold] * 6, sim_2d_preset(n_agents=6, n_targets=2))
    assert np.allclose(few.target_pos - d_few, many.target_pos - d_many)


# -- dynamics ----------------------------------------------------------------


class ZeroNormal:
    """Stands in for a state's noise streams: every draw is zero."""

    def standard_normal(self, size=None):
        return np.zeros(size)


def quiet_state(cfg, seed=0):
    """``make_state`` with every noise stream drawing zeros, so targets do
    not move and sensing and the channel measure exactly."""
    state = make_state(cfg, seed)
    for streams in (state.target_rngs, state.sense_rngs, state.channel_rngs):
        streams[:] = [ZeroNormal()] * len(streams)
    return state


def cfg_quiet(**kw):
    """A one-agent, one-target config for the deterministic agent tests;
    pair it with :func:`quiet_state`."""
    base = dict(n_agents=1, n_targets=1)
    base.update(kw)
    return sim_2d_preset(**base)


def place(state, agent_pos, heading, target_pos):
    state.agent_pos[:] = agent_pos
    state.agent_heading[:] = heading
    state.target_pos[:] = target_pos


def test_unicycle_step():
    cfg = cfg_quiet()
    state = quiet_state(cfg)
    place(state, [[5.0, 5.0]], [0.0], [[20.0, 20.0]])
    step_dynamics(state, [ControlInput(0.4, math.radians(15.0))], cfg)
    assert np.allclose(state.agent_pos[0], [5.4, 5.0])
    assert math.isclose(state.agent_heading[0], math.radians(15.0))


def test_agents_clamped_to_domain():
    cfg = cfg_quiet()
    state = quiet_state(cfg)
    place(state, [[29.9, 0.05]], [-0.5], [[20.0, 20.0]])
    step_dynamics(state, [ControlInput(0.4, 0.0)], cfg)
    assert state.agent_pos[0, 0] == 30.0
    assert state.agent_pos[0, 1] == 0.0


def test_targets_reflect_and_stay_inside():
    cfg = sim_2d_preset(n_agents=1, n_targets=4)
    state = make_state(cfg, 11)
    hold = [ControlInput(0.0, 0.0)]
    for _ in range(500):
        step_dynamics(state, hold, cfg)
        assert (state.target_pos >= 0).all()
        assert (state.target_pos <= 30).all()
    # They do actually move.
    fresh = make_state(cfg, 11)
    assert not np.allclose(state.target_pos, fresh.target_pos)


# -- sensing -----------------------------------------------------------------


# (heading, sensor-relative point, inside?) for r_s = 4 and a 90 degree
# sector, whose half-angle edges (1, +-1) have exactly representable bearings.
SECTOR_CASES = [
    (0.0, (2.0, 0.0), True),                  # in front
    (0.0, (4.0, 0.0), True),                  # on the range edge
    (0.0, (4.0 + 1e-6, 0.0), False),          # just beyond it
    (0.0, (1.0, 1.0), True),                  # on the left half-angle edge
    (0.0, (1.0, -1.0), True),                 # on the right one
    (0.0, (1.0, 1.0 + 1e-6), False),          # just outside each edge
    (0.0, (1.0, -1.0 - 1e-6), False),
    (0.0, (-2.0, 0.0), False),                # behind
    (math.pi, (-2.0, 0.0), True),             # ahead once turned around
    (math.pi, (2.0, 0.0), False),             # behind once turned around
    (0.0, (0.0, 0.0), True),                  # at the agent itself
    (math.pi, (0.0, 0.0), True),
]


def test_one_sector_rule_for_every_caller():
    cfg = cfg_quiet(phi_c_deg=90.0)
    assert cfg.half_angle == math.pi / 4 and cfg.r_s == 4.0
    cmap = cfg.cov_map()
    state = quiet_state(cfg)
    for heading, (x, y), inside in SECTOR_CASES:
        place(state, [[10.0, 10.0]], [heading], [[10.0 + x, 10.0 + y]])
        polar = sector_polar(x, y, cfg.r_s, cfg.half_angle, heading)
        dets = sense_targets(state, 0, cfg)
        got = (polar is not None, len(dets) == 1)
        assert got == (inside,) * 2, (heading, x, y, got)
        if inside:
            # Noise-free, the detection is the true point, with the
            # covariance the map gives at the helper's (r, bearing).
            r, bearing = polar
            assert dets[0][1].mean == (x, y)
            var = max(cmap.eta(r, bearing), cmap.eta_floor)
            assert dets[0][1].cov == (var, 0.0, 0.0, var)


def test_sense_targets_noise_free_measurement():
    cfg = cfg_quiet()
    state = quiet_state(cfg)
    place(state, [[5.0, 5.0]], [0.0], [[7.0, 5.0]])
    dets = sense_targets(state, 0, cfg)
    assert len(dets) == 1
    tid, est = dets[0]
    assert tid == 1                                     # ids are 1-based
    assert np.allclose(est.mean, [2.0, 0.0])
    # r = r_bar exactly: the covariance sits at the floor.
    assert np.allclose(est.cov, cfg.eta_floor * np.eye(2).ravel())
    place(state, [[5.0, 5.0]], [0.0], [[1.0, 5.0]])
    assert sense_targets(state, 0, cfg) == []


def test_sense_targets_covariance_tracks_range():
    cfg = cfg_quiet()
    state = quiet_state(cfg)
    place(state, [[5.0, 5.0]], [0.0], [[8.5, 5.0]])     # r = 3.5
    _, est = sense_targets(state, 0, cfg)[0]
    assert np.allclose(est.cov, (3.5 - 2.0) ** 2 * np.eye(2).ravel())


def test_analytic_noise_shortcut_matches_cholesky_bit_for_bit():
    # sqrt(var) * z against the Cholesky factor of var * I times z.
    rng = np.random.default_rng(67)
    for _ in range(20000):
        var = float(10.0 ** rng.uniform(-4.0, 2.0))
        z = rng.standard_normal(2)
        want = np.linalg.cholesky(var * np.eye(2)) @ z
        assert (math.sqrt(var) * z).tobytes() == want.tobytes()
    # Whole measurements: the analytic map against the same covariance fed
    # through the general (Cholesky) path, drawing the same noise.
    cfg = sim_2d_preset(n_agents=3, n_targets=5, domain=(8.0, 8.0))
    cmap = cfg.cov_map()

    def general(r, phi):
        cov = max(cmap.eta(r, phi), cmap.eta_floor) * np.eye(2)
        return cov, np.linalg.cholesky(cov)

    seen = 0
    for seed in range(40):
        fast, slow = make_state(cfg, seed), make_state(cfg, seed)
        for agent in range(cfg.n_agents):
            got = sense_targets(fast, agent, cfg)
            want = sense_targets(slow, agent, cfg, general)
            assert [t for t, _ in got] == [t for t, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert [x.hex() for x in a.mean + a.cov] == \
                    [x.hex() for x in b.mean + b.cov]
            seen += len(got)
    assert seen > 20


def test_sense_displacement_exact_when_noiseless():
    cfg = cfg_quiet()
    state = quiet_state(cfg)
    place(state, [[5.0, 5.0]], [0.0], [[20.0, 20.0]])
    dp, sdp = sense_displacement(state, 0, [4.0, 5.5], cfg)
    assert np.allclose(dp, [1.0, -0.5])
    assert np.allclose(sdp, np.zeros((2, 2)))


# -- broadcast channel -------------------------------------------------------


def packet(sender):
    return BroadcastPacket(sender=sender, pheromones=no_deposits(),
                           targets=[])


def test_broadcasts_follow_schedule_and_radius():
    cfg = sim_2d_preset(n_agents=3, n_targets=1)
    state = quiet_state(cfg)
    state.agent_pos[:] = [[0.0, 0.0], [5.0, 0.0], [15.0, 0.0]]
    packets = {i: packet(i + 1) for i in range(3)}

    off_schedule = deliver_broadcasts(packets, state, 1, cfg)
    assert all(not v for v in off_schedule.values())

    rx = deliver_broadcasts(packets, state, 3, cfg)
    # r_c = 12: agent 0 hears only agent 1 (5 bl; agent 2 is 15 bl away);
    # agent 1 hears both (5 and 10 bl); agent 2 hears only agent 1.
    assert [p.sender for p, _ in rx[0]] == [2]
    assert [p.sender for p, _ in rx[1]] == [1, 3]
    assert [p.sender for p, _ in rx[2]] == [2]

    # Beside each packet, a receiver-side measurement of the sender.
    meas = rx[0][0][1]
    assert np.allclose(meas.mean, [5.0, 0.0])
    var = max(cfg.k_p * 5.0, cfg.eta_floor)
    assert np.allclose(meas.cov, var * np.eye(2).ravel())
    assert np.allclose(rx[2][0][1].mean, [-10.0, 0.0])


def test_delivered_packet_is_the_one_sent():
    # Every receiver gets the sender's packet object, not a copy.
    cfg = sim_2d_preset(n_agents=3, n_targets=1)
    state = make_state(cfg, 0)
    state.agent_pos[:] = [[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]]
    packets = {i: packet(i + 1) for i in range(3)}
    rx = deliver_broadcasts(packets, state, 0, cfg)
    assert [len(v) for v in rx.values()] == [2, 2, 2]
    for delivered in rx.values():
        for p, _ in delivered:
            assert p is packets[p.sender - 1]


def test_empty_air_draws_no_channel_noise():
    cfg = sim_2d_preset(n_agents=2, n_targets=1)
    state = make_state(cfg, 0)
    before = [r.bit_generator.state for r in state.channel_rngs]
    assert deliver_broadcasts({}, state, 0, cfg) == {0: [], 1: []}
    assert [r.bit_generator.state for r in state.channel_rngs] == before


def test_no_self_delivery():
    cfg = sim_2d_preset(n_agents=2, n_targets=1)
    state = quiet_state(cfg)
    state.agent_pos[:] = [[0.0, 0.0], [1.0, 0.0]]
    rx = deliver_broadcasts({i: packet(i + 1) for i in range(2)}, state, 0, cfg)
    assert [p.sender for p, _ in rx[0]] == [2]
    assert [p.sender for p, _ in rx[1]] == [1]
