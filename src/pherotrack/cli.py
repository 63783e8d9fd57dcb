"""Command-line entry point.

Two subcommands: ``run`` executes a Monte-Carlo batch for one algorithm
combination and writes runs.csv / series.csv / summary.csv; ``sweep``
iterates one of the study grids (agent/target counts, environment sizes, or
sensing radii) and additionally writes a sweep.csv roll-up.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .world import PRESETS, WorldConfig


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON world configuration file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="sim-2d", help="named configuration preset")
    p.add_argument("--search", choices=harness.SEARCH_ALGOS,
                   default="pheromone", help="exploration algorithm")
    p.add_argument("--assign", choices=harness.ASSIGN_ALGOS,
                   default="greedy-distributed", help="target assignment")
    p.add_argument("--runs", type=int, default=1,
                   help="number of Monte-Carlo runs")
    p.add_argument("--steps", type=int, default=2000,
                   help="step budget per run")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--dump-maps", action="store_true",
                   help="dump final per-agent pheromone maps as PGM")
    p.add_argument("--telemetry", action="store_true",
                   help="write per-step per-agent telemetry CSVs")
    p.add_argument("--no-early-stop", action="store_true",
                   help="always run the full step budget")


def _make_spec(args) -> harness.ExperimentSpec:
    if args.config:
        cfg = WorldConfig.from_json(args.config)
    else:
        cfg = PRESETS[args.preset]()
    return harness.ExperimentSpec(
        config=cfg,
        search=args.search,
        assign=args.assign,
        runs=args.runs,
        max_steps=args.steps,
        base_seed=args.seed,
        out_dir=args.out,
        dump_maps=args.dump_maps,
        dump_telemetry=args.telemetry,
        stop_when_tracked=not args.no_early_stop,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pherotrack",
        description="multi-agent search-and-track simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one Monte-Carlo batch")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="a grid of Monte-Carlo batches")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", choices=tuple(harness.SWEEP_GRIDS),
                         default="agents", help="which study grid to iterate")

    args = parser.parse_args(argv)
    try:
        spec = _make_spec(args)
    except (OSError, ValueError) as err:   # AssumptionError is a ValueError
        parser.error(str(err))

    if args.command == "run":
        summary, _ = harness.run_monte_carlo(spec)
        print(f"runs={summary['runs']} completed={summary['completed']} "
              f"censored={summary['censored']} "
              f"mean_time_to_track={summary['mean_time_to_track']}")
        return 0

    for label, s in harness.run_sweep(spec, which=args.grid):
        print(f"{label}: completed={s['completed']}/{s['runs']} "
              f"mean_time_to_track={s['mean_time_to_track']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
