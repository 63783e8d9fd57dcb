"""Golden replay: fixed seeds must reproduce the recorded outputs bit for bit.

Each case is a short ``simulate_run`` without early stop.  Its digest hashes
the exact float hex of the H series, the n_tracked series and
``time_to_track``, so any change in a single output bit fails the test.  The
cases cover every search x assign pair the CLI accepts, the hardware-table
preset (calibration-table sensing), the odometry-noise path (sim-2d with
``r_dp = 1e-3 I``, which diffuses every deposit) and correlated odometry
noise.

A change that is meant to alter the simulation re-records the digests with

    PYTHONPATH=src python tests/test_replay.py

and says why in CHANGES.md.
"""

import hashlib

import pytest

from pherotrack.harness import ASSIGN_ALGOS, SEARCH_ALGOS, simulate_run
from pherotrack.world import hardware_table_preset, sim_2d_preset

SEEDS = (0, 1)
PAIR_STEPS = 120


def _pair_cfg():
    # Small enough that every pair finds and fuses targets within the budget.
    return sim_2d_preset(domain=(16.0, 16.0), n_agents=4, n_targets=3)


CASES = {
    **{f"{s}/{a}": (_pair_cfg, s, a, PAIR_STEPS)
       for s in SEARCH_ALGOS for a in ASSIGN_ALGOS},
    "hardware-table": (hardware_table_preset, "pheromone",
                       "greedy-distributed", 150),
    # A team step costs about 0.05-0.2 s here, so the run stays short.
    "sim2d-odometry": (lambda: sim_2d_preset(r_dp=((1e-3, 0.0), (0.0, 1e-3))),
                       "pheromone", "greedy-distributed", 15),
    # Every other case has diagonal covariances only, which hide the rounding
    # of the fusion's matrix-vector products; correlated odometry noise makes
    # neighbor positions, and so lifted estimates, non-diagonal.
    "levy/correlated-odometry": (
        lambda: sim_2d_preset(domain=(16.0, 16.0), n_agents=4, n_targets=3,
                              r_dp=((2e-3, 1.5e-3), (1.5e-3, 2e-3))),
        "levy", "greedy-distributed", PAIR_STEPS),
}

GOLDEN = {
    "pheromone/greedy-distributed": ("40ae7d76145ba844", "8b3c52ab29675237"),
    "pheromone/auction": ("d9f34e819b386213", "2c57000c53d5854b"),
    "pheromone/local-greedy": ("cb481aa69e7eb37e", "cafeea41e8408ce5"),
    "levy/greedy-distributed": ("7b71e4f143a95fa1", "7bb5d21c6cdd9fc2"),
    "levy/auction": ("0f4c82427b55fe88", "9da75d1c4d97789b"),
    "levy/local-greedy": ("2dd6c94185626f12", "11b0353a5abef0c4"),
    "antiflocking/greedy-distributed": ("201ed5a3681e67a1", "6167f544486b08d9"),
    "antiflocking/auction": ("2865ff95ca8955a9", "2ac3180056676203"),
    "antiflocking/local-greedy": ("832c78e0b8986f53", "04c5dadb29962c98"),
    "hardware-table": ("723501f2d3de21e2", "23c77980c5fb09ca"),
    "sim2d-odometry": ("daaf5693712ccf65", "72ea7933709ae613"),
    "levy/correlated-odometry": ("37f1ade69b66a5bd", "8860aab6f3d98423"),
}


def digest(m) -> str:
    payload = "|".join([
        str(m.time_to_track),
        ",".join(float(h).hex() for h in m.h_series),
        ",".join(str(n) for n in m.n_tracked_series),
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_case(name):
    make_cfg, search, assign, steps = CASES[name]
    cfg = make_cfg()
    return tuple(digest(simulate_run(cfg, search, assign, steps, seed,
                                     stop_when_tracked=False))
                 for seed in SEEDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name):
    assert run_case(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in CASES:
        print(f"    {name!r}: {run_case(name)!r},")
