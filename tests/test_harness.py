"""Tests for the Monte-Carlo harness: metrics, determinism, CSV artifacts."""

import csv
import filecmp
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from pherotrack.harness import (SUMMARY_KEYS, TELEMETRY_COLUMNS,
                                ExperimentSpec, objective_H, run_monte_carlo,
                                run_sweep, simulate_run, summarize)
from pherotrack.world import hardware_table_preset, sim_2d_preset
from pherotrack import cli, harness


def small_cfg(**kw):
    base = dict(n_agents=2, n_targets=1, domain=(12.0, 12.0), r_c=12.0)
    base.update(kw)
    return sim_2d_preset(**base)


# -- objective ---------------------------------------------------------------


def test_objective_exact_estimates_give_zero():
    true_rel = {(0, 1): np.array([1.0, 0.0]), (1, 1): np.array([2.0, 0.0])}
    estimates = {(0, 1): np.array([1.0, 0.0]), (1, 1): np.array([2.0, 0.0])}
    assert objective_H([1], true_rel, estimates, 2, 42.4) == 0.0


def test_objective_best_error_normalized_by_agents():
    true_rel = {(0, 1): np.array([1.0, 0.0]), (1, 1): np.array([2.0, 0.0])}
    estimates = {(0, 1): np.array([2.0, 0.0]),          # error 1
                 (1, 1): np.array([2.0, 3.0])}          # error 3
    assert objective_H([1], true_rel, estimates, 2, 42.4) == 0.5


def test_objective_unknown_target_contributes_diagonal():
    true_rel = {(0, 1): np.array([1.0, 0.0])}
    assert objective_H([1], true_rel, {}, 2, 42.4) == 21.2


def naive_objective(target_ids, true_rel, estimates, n_agents, diag):
    """Direct-formula oracle: explicit per-target min with a cap."""
    terms = []
    for k in target_ids:
        errors = [float(np.linalg.norm(true_rel[(i, k)] - estimates[(i, k)]))
                  for i in range(n_agents) if (i, k) in estimates]
        terms.append(min(errors) if errors else diag)
    return sum(terms) / n_agents


def test_objective_matches_naive_oracle_on_random_scenes():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        n_agents = int(rng.integers(1, 7))
        n_targets = int(rng.integers(1, 7))
        ids = list(range(1, n_targets + 1))
        true_rel, estimates = {}, {}
        for i in range(n_agents):
            for k in ids:
                true_rel[(i, k)] = rng.uniform(-30, 30, 2)
                if rng.random() < 0.7:
                    estimates[(i, k)] = rng.uniform(-30, 30, 2)
        diag = 30.0 * math.sqrt(2)
        got = objective_H(ids, true_rel, estimates, n_agents, diag)
        want = naive_objective(ids, true_rel, estimates, n_agents, diag)
        assert abs(got - want) <= 1e-12


def test_summarize():
    class M:
        def __init__(self, t):
            self.time_to_track = t
    s = summarize([M(10), M(None), M(30)])
    assert s["runs"] == 3 and s["completed"] == 2 and s["censored"] == 1
    assert s["mean_time_to_track"] == 20.0
    assert s["median_time_to_track"] == 20.0
    empty = summarize([M(None)])
    assert empty["mean_time_to_track"] is None


# -- experiment spec ---------------------------------------------------------


def test_spec_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, runs=0)
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, search="random")
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, assign="hungarian")


# -- end-to-end runs ---------------------------------------------------------


def test_trivial_world_all_censored(tmp_path):
    spec = ExperimentSpec(config=small_cfg(n_agents=1, n_targets=0),
                          runs=1, max_steps=10, out_dir=str(tmp_path))
    summary, results = run_monte_carlo(spec)
    assert summary == {"runs": 1, "completed": 0, "censored": 1,
                       "mean_time_to_track": None,
                       "median_time_to_track": None}
    assert results[0].censored


def test_run_produces_csv_schemas(tmp_path):
    spec = ExperimentSpec(config=small_cfg(), runs=2, max_steps=40,
                          base_seed=3, out_dir=str(tmp_path))
    summary, results = run_monte_carlo(spec)
    with open(tmp_path / "runs.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["seed", "time_to_track", "censored", "n_tracked_final"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["3", "4"]
    with open(tmp_path / "series.csv", newline="") as f:
        srows = list(csv.reader(f))
    assert srows[0] == ["seed", "t", "H", "n_tracked"]
    assert len(srows) - 1 == sum(len(m.h_series) for m in results)
    with open(tmp_path / "summary.csv", newline="") as f:
        hrow, vrow = list(csv.reader(f))
    assert hrow == ["runs", "completed", "censored", "mean_time_to_track",
                    "median_time_to_track"]
    assert vrow[0] == "2"


def test_summary_recomputable_from_runs_csv(tmp_path):
    spec = ExperimentSpec(config=small_cfg(), runs=3, max_steps=60,
                          out_dir=str(tmp_path))
    summary, _ = run_monte_carlo(spec)
    with open(tmp_path / "runs.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    times = [int(r["time_to_track"]) for r in rows if r["time_to_track"]]
    assert len(rows) == summary["runs"]
    assert len(times) == summary["completed"]
    if times:
        assert float(np.mean(times)) == summary["mean_time_to_track"]


def test_telemetry_header_matches_schema_and_readme(tmp_path):
    spec = ExperimentSpec(config=small_cfg(), runs=1, max_steps=5,
                          out_dir=str(tmp_path), dump_telemetry=True,
                          stop_when_tracked=False)
    run_monte_carlo(spec)
    with open(tmp_path / "telemetry_seed0.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == TELEMETRY_COLUMNS
    assert len(rows) == 1 + 5 * 2
    assert all(len(r) == len(TELEMETRY_COLUMNS) for r in rows)
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        assert f"`{', '.join(TELEMETRY_COLUMNS)}`" in f.read()


def test_telemetry_mode_follows_k_star(tmp_path):
    spec = ExperimentSpec(config=small_cfg(), runs=1, max_steps=60,
                          out_dir=str(tmp_path), dump_telemetry=True,
                          stop_when_tracked=False)
    run_monte_carlo(spec)
    with open(tmp_path / "telemetry_seed0.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        exploit = int(r["k_star"]) > 0
        assert r["mode"] == ("exploit" if exploit else "explore")
        assert (r["entropy"] != "") == exploit
    assert {r["mode"] for r in rows} == {"explore", "exploit"}


def test_byte_identical_replay(tmp_path):
    for sub in ("a", "b"):
        spec = ExperimentSpec(config=small_cfg(), runs=2, max_steps=50,
                              out_dir=str(tmp_path / sub),
                              dump_telemetry=True)
        run_monte_carlo(spec)
    for name in ("runs.csv", "series.csv", "summary.csv",
                 "telemetry_seed0.csv", "telemetry_seed1.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), f"{name} differs between replays"


def test_h_series_finite_and_metrics_consistent():
    m = simulate_run(small_cfg(), "pheromone", "greedy-distributed",
                     max_steps=80, seed=1, stop_when_tracked=False)
    assert len(m.h_series) == 80
    assert np.isfinite(m.h_series).all()
    assert m.n_tracked_final == m.n_tracked_series[-1]
    if m.time_to_track is not None:
        assert m.n_tracked_series[m.time_to_track] == 1


PAIR_CFG = small_cfg(n_agents=2, n_targets=2)


@pytest.fixture(scope="module")
def every_pair_runs():
    """One run per search x assign pair, carried on past time-to-track."""
    return [simulate_run(PAIR_CFG, search, assign, max_steps=120, seed=2,
                         stop_when_tracked=False)
            for search in ("pheromone", "levy", "antiflocking")
            for assign in ("greedy-distributed", "auction", "local-greedy")]


def test_every_search_and_assign_combination_runs(every_pair_runs):
    assert len(every_pair_runs) == 9
    for m in every_pair_runs:
        assert len(m.h_series) == 120
        assert np.isfinite(m.h_series).all()


def test_time_to_track_trivials(every_pair_runs):
    # Time to track is the first step at which as many targets are tracked
    # (selected, and truly in view of the selecting agent) as exist.
    tracked = 0
    for m in every_pair_runs:
        first = [t for t, k in enumerate(m.n_tracked_series)
                 if k == PAIR_CFG.n_targets][:1]
        assert [m.time_to_track] == (first or [None])
        tracked += m.time_to_track is not None
    assert tracked >= 5


@pytest.mark.parametrize("n_agents,n_targets", [(2, 4), (1, 3)])
def test_auction_with_more_targets_than_agents(tmp_path, n_agents, n_targets):
    # The auction then bids agents for targets; no run can ever track every
    # target at once, so each is censored, and no step tracks more targets
    # than there are agents.
    spec = ExperimentSpec(small_cfg(n_agents=n_agents, n_targets=n_targets),
                          search="pheromone", assign="auction", runs=2,
                          max_steps=150, out_dir=str(tmp_path))
    summary, results = run_monte_carlo(spec)
    assert summary["censored"] == 2 and summary["completed"] == 0
    for m in results:
        assert m.time_to_track is None
        assert len(m.n_tracked_series) == 150
        assert all(0 <= n <= n_agents for n in m.n_tracked_series)
    # Some agent did track, and some run knew more targets than agents.
    assert max(max(m.n_tracked_series) for m in results) >= 1
    assert max(len(m.first_detection) for m in results) > n_agents
    with open(tmp_path / "runs.csv", newline="") as f:
        assert [r["censored"] for r in csv.DictReader(f)] == ["1", "1"]


def test_hardware_table_preset_runs():
    m = simulate_run(hardware_table_preset(), "pheromone",
                     "greedy-distributed", max_steps=30, seed=0)
    assert len(m.h_series) >= 1


def test_brains_share_one_agent_config(monkeypatch):
    # The run's constants, the best viewpoint among them, are built once per
    # run.
    import pherotrack.agent as agent
    from pherotrack.harness import build_brains

    scans = []
    real_scan = agent.best_viewpoint

    def counted(*args):
        scans.append(args)
        return real_scan(*args)

    monkeypatch.setattr(agent, "best_viewpoint", counted)
    for search in ("pheromone", "levy", "antiflocking"):
        brains, _, _ = build_brains(hardware_table_preset(), search,
                                    "local-greedy", 0)
        assert len(brains) == 2
        assert all(b.cfg is brains[0].cfg for b in brains)
        assert brains[0].cfg.assign == "local-greedy"
    assert len(scans) == 3


def test_calibration_csv_config_roundtrip(tmp_path):
    # A run from a CSV of the preset's own synthetic table is the preset run,
    # bit for bit: the CSV keeps every sample's bits, so lookups agree.
    import pherotrack.sensing as sensing
    preset = hardware_table_preset()
    table = sensing.synthetic_calibration_table(
        preset.cov_map(), sensing.SectorFov(preset.r_s, preset.half_angle))
    path = tmp_path / "calib.csv"
    sensing.save_calibration_csv(table, path)
    cfg = hardware_table_preset(calibration_csv=str(path))
    for seed in range(3):
        runs = [simulate_run(c, "pheromone", "greedy-distributed",
                             max_steps=300, seed=seed,
                             stop_when_tracked=False) for c in (preset, cfg)]
        want, got = ([float(h).hex() for h in m.h_series] for m in runs)
        assert len(got) == 300 and got == want, seed


def test_calibration_csv_is_parsed_once_per_config(tmp_path, monkeypatch):
    import pherotrack.harness as harness
    import pherotrack.sensing as sensing
    import pherotrack.world as world
    preset = hardware_table_preset()
    table = sensing.synthetic_calibration_table(
        preset.cov_map(), sensing.SectorFov(preset.r_s, preset.half_angle))
    path = tmp_path / "calib.csv"
    sensing.save_calibration_csv(table, path)
    loads = []
    # Count the loads in every namespace the package looks the loader up in.
    for module in (world, harness):
        real = getattr(module, "load_calibration_csv", None)
        if real is not None:
            monkeypatch.setattr(
                module, "load_calibration_csv",
                lambda *a, real=real, **kw: loads.append(1) or real(*a, **kw))
    counts = []
    for runs in (1, 3):
        loads.clear()
        run_monte_carlo(ExperimentSpec(
            config=hardware_table_preset(calibration_csv=str(path)),
            runs=runs, max_steps=5))
        counts.append(len(loads))
    # One parse when the config is built and one when the batch re-checks
    # it; none per seed.
    assert counts == [2, 2]


def test_pheromone_map_dump(tmp_path):
    simulate_run(small_cfg(), "pheromone", "greedy-distributed",
                 max_steps=20, seed=4, stop_when_tracked=False,
                 dump_maps_dir=str(tmp_path))
    files = sorted(os.listdir(tmp_path))
    assert files == ["agent1_seed4.pgm", "agent2_seed4.pgm"]
    head = (tmp_path / files[0]).read_text().splitlines()
    assert head[0] == "P2"
    assert head[1] == "96 96"     # ceil(2 * 12 / 0.25) cells per side


def test_map_dump_is_the_map_the_agent_steers_by(tmp_path, monkeypatch):
    # Under odometry noise deposits carry a covariance and the agent steers
    # by the diffused map; the dump must show that map, not stamped disks.
    import pherotrack.harness as harness
    from pherotrack.pheromone import delta_map

    built = []
    real_build = harness.build_brains

    def capture(*args):
        out = real_build(*args)
        built.append(out[0])
        return out

    monkeypatch.setattr(harness, "build_brains", capture)
    noisy = small_cfg(r_dp=((1e-3, 0.0), (0.0, 1e-3)))
    for cfg, sub in ((noisy, "noisy"), (small_cfg(), "quiet")):
        simulate_run(cfg, "pheromone", "greedy-distributed", max_steps=4,
                     seed=2, stop_when_tracked=False,
                     dump_maps_dir=str(tmp_path / sub))
        for b in built.pop():
            name = f"agent{b.agent_id}_seed2.pgm"
            b.pheromone_map().to_pgm(tmp_path / "want.pgm")
            assert filecmp.cmp(tmp_path / sub / name, tmp_path / "want.pgm",
                               shallow=False)
            deposits = b._all_pheromones()
            stamped = delta_map(deposits[:, :2], deposits[:, 6],
                                b.cfg.pher_cfg.footprint_radius,
                                b.cfg.grid_geom)
            stamped.to_pgm(tmp_path / "stamped.pgm")
            # Noise-free, the dump is the stamped map it always was.
            assert filecmp.cmp(tmp_path / sub / name,
                               tmp_path / "stamped.pgm",
                               shallow=False) == (sub == "quiet")


def test_sweep_env_grid(tmp_path):
    base = ExperimentSpec(config=small_cfg(), runs=1, max_steps=10,
                          out_dir=str(tmp_path))
    out = run_sweep(base, which="env")
    assert [label for label, _ in out] == ["env10", "env30", "env50"]
    with open(tmp_path / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "point"
    assert len(rows) == 4
    with pytest.raises(ValueError):
        run_sweep(base, which="bogus")


# Every study grid's points in sweep.csv's order: (label, overrides).
SWEEP_POINTS = {
    "agents": [
        ("agents2_targets2", {"n_agents": 2, "n_targets": 2}),
        ("agents4_targets2", {"n_agents": 4, "n_targets": 2}),
        ("agents4_targets4", {"n_agents": 4, "n_targets": 4}),
        ("agents6_targets2", {"n_agents": 6, "n_targets": 2}),
        ("agents6_targets4", {"n_agents": 6, "n_targets": 4}),
        ("agents6_targets6", {"n_agents": 6, "n_targets": 6}),
        ("agents8_targets2", {"n_agents": 8, "n_targets": 2}),
        ("agents8_targets4", {"n_agents": 8, "n_targets": 4}),
        ("agents8_targets6", {"n_agents": 8, "n_targets": 6}),
    ],
    "env": [
        ("env10", {"domain": (10.0, 10.0)}),
        ("env30", {"domain": (30.0, 30.0)}),
        ("env50", {"domain": (50.0, 50.0)}),
    ],
    "fov": [
        ("fov2", {"r_s": 2.0}),
        ("fov4", {"r_s": 4.0}),
        ("fov6", {"r_s": 6.0}),
    ],
}


@pytest.mark.parametrize("grid", sorted(SWEEP_POINTS))
def test_sweep_grid_points(grid, monkeypatch):
    # The base config holds no value any grid point sets, so each batch's
    # config differs from it in exactly that point's overrides.
    base = ExperimentSpec(config=small_cfg(n_agents=1, r_s=3.0))
    changed = []

    def batch(spec):
        changed.append({
            f.name: getattr(spec.config, f.name) for f in fields(spec.config)
            if not np.array_equal(getattr(spec.config, f.name),
                                  getattr(base.config, f.name))})
        return dict.fromkeys(SUMMARY_KEYS), []

    monkeypatch.setattr(harness, "run_monte_carlo", batch)
    labels = [label for label, _ in run_sweep(base, which=grid)]
    assert list(zip(labels, changed)) == SWEEP_POINTS[grid]
    assert sorted(harness.SWEEP_GRIDS) == sorted(SWEEP_POINTS)


def test_cli_run_and_sweep(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "sim-2d", "--runs", "1", "--steps", "5",
                   "--seed", "0", "--out", str(tmp_path / "run"),
                   "--no-early-stop", "--dump-maps", "--telemetry"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "runs=1" in out
    produced = set(os.listdir(tmp_path / "run"))
    assert {"runs.csv", "series.csv", "summary.csv",
            "telemetry_seed0.csv", "maps"} <= produced

    cfg_path = tmp_path / "cfg.json"
    small_cfg(n_agents=2, n_targets=1).to_json(cfg_path)
    rc = cli.main(["run", "--config", str(cfg_path), "--search", "levy",
                   "--assign", "auction", "--runs", "1", "--steps", "5",
                   "--out", str(tmp_path / "run2")])
    assert rc == 0

    rc = cli.main(["sweep", "--config", str(cfg_path), "--grid", "env",
                   "--runs", "1", "--steps", "3",
                   "--out", str(tmp_path / "sweep")])
    assert rc == 0
    assert "env30" in capsys.readouterr().out
    assert (tmp_path / "sweep" / "sweep.csv").exists()


# A bad spec is a usage error (exit code 2 with the reason), not a traceback.


def cli_usage_error(capsys, *args):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--steps", "3", *args])
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_cli_zero_runs_is_usage_error(tmp_path, capsys):
    err = cli_usage_error(capsys, "--runs", "0", "--out", str(tmp_path))
    assert "need runs >= 1" in err
    assert not os.listdir(tmp_path)


def test_cli_negative_seed_is_usage_error(tmp_path, capsys):
    err = cli_usage_error(capsys, "--seed", "-1", "--out", str(tmp_path))
    assert "base_seed >= 0" in err
    assert not os.listdir(tmp_path)


def test_cli_config_failing_the_gate_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"r_s": 13.0, "r_c": 12.0}')
    err = cli_usage_error(capsys, "--config", str(path),
                          "--out", str(tmp_path / "out"))
    assert "r_s > r_c" in err
    # Wrongly typed files and values are usage errors too.
    for payload, reason in (
            ('5', "must be a JSON object"),
            ('{"n_agents": "six"}', "must be integers"),
            ('{"domain": 5}', "mistyped config value"),
            ('{"r_c": null}', "mistyped config value"),
            ('{"n_agents": 2.5}', "must be integers"),
            ('{"rx_period": 1.5}', "must be integers"),
            ('{"n_targets": true}', "must be integers"),
            ('{"q_k": [[0.001, 0.003], [0.003, 0.001]]}', "q_k must be"),
            ('{"r_dp": [[1e-3, 0], [0, -1e-13]]}', "r_dp must be"),
            ('{"q_bar": [[0.01, 0.5], [0.0, 0.01]]}', "q_bar must be"),
            ('{"q_star": 0}', "q_star must be positive")):
        path.write_text(payload)
        err = cli_usage_error(capsys, "--config", str(path),
                              "--out", str(tmp_path / "out"))
        assert reason in err, payload
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    err = cli_usage_error(capsys, "--config", str(tmp_path / "no.json"),
                          "--out", str(tmp_path / "out"))
    assert "no.json" in err


def test_cli_missing_calibration_csv_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"calibration_csv": str(tmp_path / "no.csv")}))
    err = cli_usage_error(capsys, "--config", str(path),
                          "--out", str(tmp_path / "out"))
    assert "no.csv" in err and "does not exist" in err
    assert not (tmp_path / "out").exists()
    # An empty name still means a synthetic table.
    assert hardware_table_preset(calibration_csv="").calibration_csv == ""


def test_cli_unknown_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_agents": 2, "n_agnets": 3}')
    err = cli_usage_error(capsys, "--config", str(path),
                          "--out", str(tmp_path / "out"))
    assert "unknown config keys: ['n_agnets']" in err
    # The seed is the run's (--seed), never the config's.
    for seed in (7, -1):
        path.write_text(json.dumps({"seed": seed}))
        err = cli_usage_error(capsys, "--config", str(path),
                              "--out", str(tmp_path / "out"))
        assert "unknown config keys: ['seed']" in err
    assert not (tmp_path / "out").exists()


def test_cli_bad_calibration_csv_is_usage_error(tmp_path, capsys):
    # Each of these tables passed the gate once and then failed mid-run
    # with a traceback (a Cholesky or inversion error, an empty table, a
    # missing column).
    import pherotrack.sensing as sensing
    preset = hardware_table_preset()
    table = sensing.synthetic_calibration_table(
        preset.cov_map(), sensing.SectorFov(preset.r_s, preset.half_angle))
    header = ",".join(sensing.CALIBRATION_CSV_FIELDS)
    points = [(r, math.degrees(phi)) for r, phi in table.points]

    def rows(c11, c12, c22):
        return "\n".join([header] + [f"{r},{b},{c11},{c12},{c22}"
                                     for r, b in points]) + "\n"
    singular = "smallest eigenvalue"
    path = tmp_path / "cfg.json"
    for name, text, reason in (
            ("zero", rows(0.0, 0.0, 0.0), singular),
            ("rank1", rows(1.0, 1.0, 1.0), singular),
            ("negative", rows(0.1, 0.0, -1e-10), singular),
            ("tiny", rows(1e-10, 0.0, 1e-10), singular),
            ("header-only", header + "\n", "calibration table is empty"),
            ("no-bearing", "\n".join(["r,c11,c12,c22"] + [
                f"{r},0.1,0.0,0.1" for r, _ in points]) + "\n",
             "bearing_deg")):
        table = tmp_path / f"{name}.csv"
        table.write_text(text)
        path.write_text(json.dumps(dict(
            domain=[10.0, 6.0], n_agents=2, n_targets=2, r_c=6.5, r_s=5.5,
            calibration_csv=str(table))))
        err = cli_usage_error(capsys, "--config", str(path),
                              "--out", str(tmp_path / "out"))
        assert reason in err and name in err, name
    assert not (tmp_path / "out").exists()


def test_cli_unrunnable_sensor_config_is_usage_error(tmp_path, capsys):
    # Each passed the gate once and then failed mid-run with a traceback: a
    # synthetic table with no sample inside a 1 bl sector (its grid starts
    # at 1.5 bl), a CSV table whose samples all lie beyond the sensing
    # radius, and a floor-only sensor whose 8-view fusion chains fall below
    # the inversion limit.
    import pherotrack.sensing as sensing
    far = tmp_path / "far.csv"
    sensing.save_calibration_csv(sensing.CalibrationTable(
        [[6.0, 0.0], [7.0, 0.0]], [np.eye(2), np.eye(2)]), far)
    path = tmp_path / "cfg.json"
    for payload, reason in (
            ({"calibration_csv": "", "r_s": 1.0},
             "calibration table (synthetic)"),
            ({"calibration_csv": str(far), "r_s": 5.5},
             "no sample inside the sensing sector"),
            ({"n_agents": 8, "n_targets": 6, "k1": 0, "k2": 0, "k_p": 0,
              "eta_floor": 2e-9}, "eta_floor must exceed n_agents")):
        path.write_text(json.dumps(payload))
        err = cli_usage_error(capsys, "--config", str(path),
                              "--out", str(tmp_path / "out"))
        assert reason in err, payload
    assert not (tmp_path / "out").exists()
