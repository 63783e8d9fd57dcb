"""Golden replay: fixed seeds must reproduce the recorded outputs bit for bit.

Each case is a short ``simulate_run`` without early stop.  Its digest hashes
the exact float hex of the H series, the n_tracked series and
``time_to_track``, so any change in a single output bit fails the test.  The
cases cover every search x assign pair the CLI accepts, the hardware-table
preset (calibration-table sensing), the odometry-noise path (sim-2d with
``r_dp = 1e-3 I``, which diffuses every deposit), correlated odometry noise
and correlated target motion.

A change that is meant to alter the simulation re-records the digests (both
tables below) with

    PYTHONPATH=src python tests/test_replay.py

and says why in CHANGES.md.

``FILE_GOLDEN`` extends the contract to the files a run writes: the
telemetry rows (waypoints as printed, so a signed zero shows as ``-0``) and
the PGM map dumps, for three cases that between them cover the pheromone
map, a baseline explorer and calibration-table sensing; and the CSVs of a
Monte-Carlo batch (runs.csv, series.csv, summary.csv) and of a sensing-radius
sweep (sweep.csv), one digest per file, with censored runs and empty, whole
and fractional means among their cells.
"""

import csv
import hashlib
import io
import os
from dataclasses import replace

import pytest

from pherotrack.harness import (ASSIGN_ALGOS, SEARCH_ALGOS, ExperimentSpec,
                                run_monte_carlo, run_sweep, simulate_run)
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
    # Correlated target motion makes the motion draw, every local record and
    # every record fusion non-diagonal.
    "pheromone/correlated-motion": (
        lambda: sim_2d_preset(domain=(16.0, 16.0), n_agents=4, n_targets=3,
                              q_k=((0.002, 0.0008), (0.0008, 0.001)),
                              q_bar=((0.003, 0.001), (0.001, 0.002))),
        "pheromone", "greedy-distributed", PAIR_STEPS),
}

GOLDEN = {
    "pheromone/greedy-distributed": ("40ae7d76145ba844", "8b3c52ab29675237"),
    "pheromone/auction": ("d9f34e819b386213", "0e033ede37ead170"),
    "pheromone/local-greedy": ("cb481aa69e7eb37e", "cafeea41e8408ce5"),
    "levy/greedy-distributed": ("7b71e4f143a95fa1", "7bb5d21c6cdd9fc2"),
    "levy/auction": ("0f4c82427b55fe88", "9da75d1c4d97789b"),
    "levy/local-greedy": ("2dd6c94185626f12", "11b0353a5abef0c4"),
    "antiflocking/greedy-distributed": ("201ed5a3681e67a1", "6167f544486b08d9"),
    "antiflocking/auction": ("2865ff95ca8955a9", "2ac3180056676203"),
    "antiflocking/local-greedy": ("832c78e0b8986f53", "04c5dadb29962c98"),
    "hardware-table": ("113b702d056add50", "94414d8c05be9118"),
    "sim2d-odometry": ("daaf5693712ccf65", "72ea7933709ae613"),
    "levy/correlated-odometry": ("37f1ade69b66a5bd", "8860aab6f3d98423"),
    "pheromone/correlated-motion": ("27068408493a46b7", "f6e6044d77b37f63"),
}

FILE_GOLDEN = {
    "pheromone/greedy-distributed": ("0afa925e9f4076e3", "0b52ced8693a7a40"),
    "levy/auction": ("0116d1b771373203", "5881e03dee08bf8f"),
    "hardware-table": ("b4a7d374b65c73d6", "bf3cb73d07a18fc8"),
    "csv/batch": ("ef732af67037dd5a", "02338d3df61fb286",
                  "e40682d630392bf3"),
    "csv/sweep-fov": ("eca7e6a57f164f2b",),
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


def file_digest(name, seed, maps_dir) -> str:
    """Digest of one run's telemetry rows and every PGM it dumps."""
    make_cfg, search, assign, steps = CASES[name]
    os.makedirs(maps_dir)
    telemetry = io.StringIO()
    simulate_run(make_cfg(), search, assign, steps, seed,
                 stop_when_tracked=False,
                 telemetry_writer=csv.writer(telemetry),
                 dump_maps_dir=str(maps_dir))
    h = hashlib.sha256(telemetry.getvalue().encode())
    for fname in sorted(os.listdir(maps_dir)):
        h.update(fname.encode())
        with open(os.path.join(maps_dir, fname), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def csv_digests(name, out_dir):
    """Digests of the CSVs a three-seed batch or a two-seed sweep writes."""
    spec = ExperimentSpec(_pair_cfg(), runs=3, max_steps=PAIR_STEPS,
                          out_dir=out_dir)
    if name == "csv/batch":
        run_monte_carlo(spec)
        files = ("runs.csv", "series.csv", "summary.csv")
    else:
        run_sweep(replace(spec, runs=2, max_steps=100), which="fov")
        files = ("sweep.csv",)
    digests = []
    for fname in files:
        with open(os.path.join(out_dir, fname), "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest()[:16])
    return tuple(digests)


def run_file_case(name, tmp_dir):
    if name.startswith("csv/"):
        return csv_digests(name, tmp_dir)
    return tuple(file_digest(name, seed, os.path.join(tmp_dir, str(seed)))
                 for seed in SEEDS)


@pytest.mark.parametrize("name", sorted(FILE_GOLDEN))
def test_golden_files(name, tmp_path):
    assert run_file_case(name, str(tmp_path)) == FILE_GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    for name in CASES:
        print(f"    {name!r}: {run_case(name)!r},")
    print("FILE_GOLDEN:")
    for name in FILE_GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {run_file_case(name, tmp)!r},")
