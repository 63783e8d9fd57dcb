"""Seeded config fuzzer: every config the gate accepts runs to the end.

Configs are drawn field by field from short value lists that hold each
field's edges: a sensing radius below the synthetic calibration grid's
1.5 bl, a floor-only camera (k1 = k2 = 0), noise floors just above the
inversion limit and just above the chain bound of 8 agents, a noiseless
neighbor channel (k_p = 0), a 360 degree sector, a reception period longer
than any run, no targets, one agent, a domain smaller than a pheromone cell
and a singular odometry noise.  Each accepted config runs a short episode of
a drawn search/assign pair with RuntimeWarning an error; a config that
cannot finish must be rejected by the gate instead.

The fast tier runs the first 200 draws.  A wider sample runs with

    PYTHONPATH=src python tests/test_config_fuzz.py 1000
"""

import math
import os
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest

from pherotrack import sensing
from pherotrack.harness import ASSIGN_ALGOS, SEARCH_ALGOS, simulate_run
from pherotrack.world import AssumptionError, WorldConfig, hardware_table_preset

FUZZ_SEED = 11
N_CONFIGS = 200

TURN = math.radians(15.0)
SINGULAR = ((1e-3, 1e-3), (1e-3, 1e-3))
# Grids and domains stay small so that 200 runs fit in the fast tier's
# budget: a pheromone grid is 2 r_c / cell_size cells a side, and every
# deposit under odometry noise costs one convolution of it.
FIELDS = {
    "domain": [(30.0, 30.0), (10.0, 6.0), (3.0, 1.0), (0.2, 0.2)],
    "n_agents": [1, 2, 4, 8],
    "n_targets": [0, 1, 2, 6],
    "r_s": [1.0, 1.5, 4.0, 5.5],
    "r_c": [4.0, 6.5],
    "rx_period": [1, 3, 1000],
    "phi_c_deg": [10.0, 120.0, 360.0],
    "k1": [0.0, 1.0],
    "k2": [0.0, 1.0],
    "r_bar": [0.0, 2.0],
    "eta_floor": [1.5e-9, 8.5e-9, 1e-3],
    "k_p": [0.0, 1.0],
    # (q_k, q_bar, u_max) of the two presets: the top speed must outrun
    # the target noise, so the three go together.
    "motion": [(((0.005, 0.0), (0.0, 0.005)), ((0.01, 0.0), (0.0, 0.01)),
                (0.4, TURN)),
               (((0.01, 0.0), (0.0, 0.01)), ((0.19, 0.0), (0.0, 0.15)),
                (0.6, TURN))],
    "r_dp": [((0.0, 0.0), (0.0, 0.0)), ((1e-3, 0.0), (0.0, 1e-3)), SINGULAR],
    "sigma_bar": [1.0, 3600.0],
    "cell_size": [0.25, 1.0],
    "q_star": [0.05, 0.5],
    "calibration_csv": [None, "", "csv"],
}


def draw(rng, csv_path):
    """One config's keyword arguments and run: (kwargs, search, assign,
    steps, seed)."""
    kw = {name: values[rng.integers(len(values))]
          for name, values in FIELDS.items()}
    kw["q_k"], kw["q_bar"], kw["u_max"] = kw.pop("motion")
    if kw["calibration_csv"] == "csv":
        kw["calibration_csv"] = csv_path
    search = SEARCH_ALGOS[rng.integers(len(SEARCH_ALGOS))]
    assign = ASSIGN_ALGOS[rng.integers(len(ASSIGN_ALGOS))]
    return kw, search, assign, int(rng.integers(15, 41)), \
        int(rng.integers(1000))


def write_table(path):
    """The hardware preset's synthetic table, as a calibration CSV."""
    cfg = hardware_table_preset()
    sensing.save_calibration_csv(sensing.synthetic_calibration_table(
        cfg.cov_map(), sensing.SectorFov(cfg.r_s, cfg.half_angle)), path)


def fuzz(n, csv_path):
    """Draw ``n`` configs and run each the gate accepts.  Returns the count
    of accepted configs and one line per run that failed."""
    rng = np.random.default_rng(FUZZ_SEED)
    accepted, failures = 0, []
    for k in range(n):
        kw, search, assign, steps, seed = draw(rng, csv_path)
        try:
            cfg = WorldConfig(**kw)
        except AssumptionError:
            continue
        accepted += 1
        try:
            m = simulate_run(cfg, search, assign, steps, seed,
                             stop_when_tracked=False)
            assert len(m.h_series) == steps
        except Exception as err:
            failures.append(f"draw {k}: {type(err).__name__}: {err}; "
                            f"{search}/{assign}, {steps} steps, seed {seed}, "
                            f"{kw}")
    return accepted, failures


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_accepted_config_runs(tmp_path):
    path = str(tmp_path / "table.csv")
    write_table(path)
    accepted, failures = fuzz(N_CONFIGS, path)
    assert failures == []
    # The draw must exercise runs, not only the gate.
    assert accepted >= N_CONFIGS // 4


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else N_CONFIGS
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write_table(path)
        start = time.perf_counter()
        accepted, failures = fuzz(n, path)
        print("\n".join(failures))
        print(f"{n} configs drawn: {accepted} accepted, {len(failures)} of "
              f"them failed; {n - accepted} rejected by the gate; "
              f"{time.perf_counter() - start:.1f} s")
