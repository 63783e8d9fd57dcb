"""The table-based sensor pipeline, end to end.

Instead of the closed-form camera noise model, hardware deployments carry a
calibration table: covariances sampled on a (range, bearing) grid during a
characterization pass, stored as CSV, and looked up at query time (the
nearest sample's covariance).  This demo builds such a table synthetically,
round-trips it through CSV, compares looked-up covariances against the closed
form, and runs a short episode on the small-arena preset using the loaded
table.

Usage: python demos/calibration_table_pipeline.py [--out DIR]
"""

import argparse
import math
import os
import tempfile

import numpy as np

from pherotrack.estimation import entropy
from pherotrack.harness import simulate_run
from pherotrack.sensing import (AnalyticCovMap, SectorFov, best_viewpoint,
                                interpolate_cov, load_calibration_csv,
                                save_calibration_csv,
                                synthetic_calibration_table)
from pherotrack.world import hardware_table_preset


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None,
                    help="directory for the calibration CSV "
                         "(default: a temp dir)")
    args = ap.parse_args()
    out = args.out or tempfile.mkdtemp(prefix="calibration_")
    os.makedirs(out, exist_ok=True)

    cfg = hardware_table_preset()
    fov = SectorFov(cfg.r_s, cfg.half_angle)
    cmap = cfg.cov_map()

    table = synthetic_calibration_table(cmap, fov)
    path = os.path.join(out, "camera_calibration.csv")
    save_calibration_csv(table, path)
    print(f"characterized {len(table.points)} grid points "
          f"(1 bl radial steps, 10 deg angular steps) -> {path}")

    loaded = load_calibration_csv(path)
    print("\nlooked-up vs closed-form noise scale (c11, bl^2):")
    print(f"{'range':>6}{'bearing':>9}{'table':>10}{'closed':>10}")
    for r, phi_deg in [(2.0, 0.0), (3.0, 0.0), (4.5, 20.0), (5.0, -40.0)]:
        phi = math.radians(phi_deg)
        c, _ = interpolate_cov(loaded, r, phi)
        print(f"{r:>6.1f}{phi_deg:>9.1f}{c[0, 0]:>10.3f}"
              f"{cmap.variance(r, phi):>10.3f}")

    vp_table = best_viewpoint(loaded, fov)
    vp_closed = best_viewpoint(cmap, fov)
    r_vp = math.hypot(vp_table[0], vp_table[1])
    phi_vp = math.atan2(vp_table[1], vp_table[0])
    print(f"\nbest viewpoint: table sample {np.round(vp_table, 2)} "
          f"(uncertainty {entropy(interpolate_cov(loaded, r_vp, phi_vp)[0]):.2e}),"
          f" closed form {vp_closed}")

    cfg = hardware_table_preset(calibration_csv=path)
    m = simulate_run(cfg, "pheromone", "greedy-distributed",
                     max_steps=600, seed=0)
    status = (f"tracked all targets at step {m.time_to_track}"
              if m.time_to_track is not None else "censored")
    print(f"\nepisode on the {cfg.domain[0]:g}x{cfg.domain[1]:g} bl arena "
          f"with the loaded table: {status}")


if __name__ == "__main__":
    main()
