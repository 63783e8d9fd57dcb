"""Write ``perfbench/digests.json``: the per-seed output digests of every
workload on the seed set of ``--seed 0``, at the current commit.

    python3 perfbench/record_digests.py

``run.py`` compares each run's digests with these (the replay contract of
ROADMAP.md).  Run it again only when a change is meant to alter the
simulation's outputs, or when a workload's step budget changes.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    run._import_package()
    from workloads import WORKLOADS
    out = {}
    for name, w in WORKLOADS.items():
        cfg = w.make_config()
        seeds = w.seeds(0)
        assert set(run.REPLAY_SEEDS) <= set(seeds), name
        checker = run.Checker(w.steps, cfg.n_targets)
        for s in seeds:
            ok, _ = run.run_op(w, cfg, s, checker)
            assert ok, checker.errors
        out[name] = {"steps": w.steps,
                     "digests": {str(s): checker.digests[s] for s in seeds}}
        print(f"{name}: {len(seeds)} seeds", flush=True)
    with open(run.DIGESTS, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
