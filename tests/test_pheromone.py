"""Tests for pheromone storage, diffusion, map building, and exploration."""

import math

import numpy as np
import pytest

from pherotrack.pheromone import (ARGMIN_TOL, GridGeometry, PheromoneConfig,
                                  PheromoneGrid, build_map, delta_map,
                                  deposit_map, diffuse_region,
                                  exploration_waypoint, no_deposits,
                                  pheromone_value_at, update_pheromones)

ZERO2 = np.zeros(2)
ZERO22 = np.zeros((2, 2))


def default_cfg(**kw):
    base = dict(w_init=35.0, w_decay=0.16, w_floor=0.1,
                footprint_radius=4.0)
    base.update(kw)
    return PheromoneConfig(**base)


def step_own(own, cfg, n=1, shift=ZERO2, sigma=ZERO22):
    for _ in range(n):
        own = update_pheromones(own, {}, [], shift, sigma, cfg)
    return own


def deposit(position, cov, weight):
    """A one-row deposit list."""
    return np.concatenate((np.ravel(position), np.ravel(cov), (weight,)))[None]


def triple(rows):
    """(positions, covariances, weights) of a deposit list."""
    return rows[:, :2], rows[:, 2:6].reshape(-1, 2, 2), rows[:, 6]


def test_config_validation():
    with pytest.raises(ValueError):
        default_cfg(w_decay=0.0)
    with pytest.raises(ValueError):
        default_cfg(w_decay=1.0)
    with pytest.raises(ValueError):
        default_cfg(w_floor=40.0)


def test_single_decay_step():
    cfg = default_cfg()
    own = deposit([0.0, 0.0], ZERO22, 35.0)
    own = update_pheromones(own, {}, [], ZERO2, ZERO22, cfg)
    # Old deposit decays 35 -> 29.4; a fresh one is stamped at full weight.
    assert len(own) == 2
    assert math.isclose(sorted(triple(own)[2])[0], 29.4)
    assert math.isclose(sorted(triple(own)[2])[1], 35.0)


def test_deposit_deleted_at_floor():
    cfg = default_cfg()
    own = deposit([1.0, 1.0], ZERO22, 0.11)
    own = update_pheromones(own, {}, [], ZERO2, ZERO22, cfg)
    # 0.11 * 0.84 = 0.0924 <= 0.1: gone; only the fresh deposit remains.
    assert len(own) == 1
    assert math.isclose(triple(own)[2][0], 35.0)


def test_deposit_lifetime_is_exactly_34_steps():
    cfg = default_cfg()
    # Closed form: the weight after n decays is 35 * 0.84^n.
    assert 35.0 * 0.84 ** 33 > 0.1
    assert 35.0 * 0.84 ** 34 <= 0.1
    # Empirically: a marked deposit survives 34 storage rounds.
    # A distinguishable position.
    own = deposit([123.0, 0.0], ZERO22, cfg.w_init)
    alive = 0
    for _ in range(50):
        if any(p[0] == 123.0 for p in triple(own)[0]):
            alive += 1
        own = update_pheromones(own, {}, [], ZERO2, ZERO22, cfg)
    assert alive == 34


def test_steady_state_list_length_and_bound():
    cfg = default_cfg()
    own = step_own(no_deposits(), cfg, n=60)
    assert len(own) == 34
    assert len(own) <= cfg.max_list_length


def test_shift_and_covariance_growth():
    cfg = default_cfg()
    own = deposit([1.0, 2.0], ZERO22, 35.0)
    own = update_pheromones(own, {}, [], [0.5, -0.5], 0.01 * np.eye(2), cfg)
    positions, covs, _ = triple(own)
    assert np.allclose(positions[0], [1.5, 1.5])
    assert np.allclose(covs[0], 0.01 * np.eye(2))
    # The fresh deposit marks the previously-occupied point = the shift.
    assert np.allclose(positions[1], [0.5, -0.5])


def test_received_list_replaces_and_converts_frame():
    cfg = default_cfg()
    own = no_deposits()
    neighbors = {}
    incoming = deposit([1.0, 0.0], ZERO22, 10.0)
    own = update_pheromones(own, neighbors, [(2, incoming, [5.0, 5.0])],
                            ZERO2, ZERO22, cfg)
    assert np.allclose(triple(neighbors[2])[0][0], [6.0, 5.0])
    # The sender's copy is untouched.
    assert np.allclose(triple(incoming)[0][0], [1.0, 0.0])
    # Silent next round: the stored copy decays and shifts like our own.
    update_pheromones(own, neighbors, [], [1.0, 0.0], ZERO22, cfg)
    assert np.allclose(triple(neighbors[2])[0][0], [7.0, 5.0])
    assert math.isclose(triple(neighbors[2])[2][0], 8.4)


# -- diffusion and map building ---------------------------------------------


def test_diffuse_delta_cov_is_weighted_disk():
    geom = GridGeometry(3.0, 0.5)
    region = diffuse_region(ZERO2, ZERO22, 7.0, 1.0, geom)
    xs, ys = geom.centers
    want = 7.0 * ((xs ** 2 + ys ** 2) <= 1.0)
    assert np.array_equal(region, want)


def naive_diffuse(position, cov, weight, footprint_radius, geom):
    """Direct-convolution oracle for diffuse_region (delta-free path)."""
    xs, ys = geom.centers
    disk = ((xs - position[0]) ** 2
            + (ys - position[1]) ** 2 <= footprint_radius ** 2).astype(float)
    sig_max = math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))
    half = max(1, int(math.ceil(3.0 * sig_max / geom.cell_size)))
    inv = np.linalg.inv(cov + np.eye(2) * 1e-12)
    out = np.zeros_like(disk)
    n = geom.n
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for di in range(-half, half + 1):
                for dj in range(-half, half + 1):
                    si, sj = i - di, j - dj
                    if not (0 <= si < n and 0 <= sj < n):
                        continue
                    if disk[si, sj] == 0.0:
                        continue
                    kx = di * geom.cell_size
                    ky = dj * geom.cell_size
                    quad = (inv[0, 0] * kx * kx + 2 * inv[0, 1] * kx * ky
                            + inv[1, 1] * ky * ky)
                    if quad > 9.0:
                        continue
                    acc += math.exp(-0.5 * quad)
            out[i, j] = acc
    peak = out.max()
    if peak > 0:
        out *= weight / peak
    return out


def test_diffuse_matches_naive_convolution_oracle():
    rng = np.random.default_rng(31)
    geom = GridGeometry(2.0, 0.5)
    for _ in range(5):
        m = rng.standard_normal((2, 2)) * 0.3
        cov = m @ m.T + 0.05 * np.eye(2)
        deposit = (rng.uniform(-1.0, 1.0, 2), cov, rng.uniform(1.0, 30.0))
        got = diffuse_region(*deposit, 1.0, geom)
        want = naive_diffuse(*deposit, 1.0, geom)
        assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("var", [1e-3, 0.2])
def test_diffuse_singular_cov_is_a_line_kernel(var):
    # Odometry noise along one axis only: the covariance is singular, yet the
    # deposit still diffuses (along x) instead of failing or going NaN.
    geom = GridGeometry(2.0, 0.5)
    deposit = (np.array([0.3, -0.2]), np.array([[var, 0.0], [0.0, 0.0]]), 9.0)
    got = diffuse_region(*deposit, 1.0, geom)
    assert np.isfinite(got).all() and got.max() == pytest.approx(9.0)
    assert np.allclose(got, naive_diffuse(*deposit, 1.0, geom), atol=1e-9)


def test_diffuse_symmetry():
    geom = GridGeometry(3.0, 0.25)
    region = diffuse_region(ZERO2, 0.2 * np.eye(2), 10.0, 1.5, geom)
    assert np.allclose(region, region[::-1, :], atol=1e-9)
    assert np.allclose(region, region[:, ::-1], atol=1e-9)
    assert np.allclose(region, region.T, atol=1e-9)


def test_diffuse_validation_and_empty_disk():
    geom = GridGeometry(2.0, 0.5)
    with pytest.raises(ValueError):
        diffuse_region(ZERO2, ZERO22, 1.0, 0.0, geom)
    far = (np.array([50.0, 50.0]), 0.1 * np.eye(2), 1.0)
    assert np.array_equal(diffuse_region(*far, 1.0, geom),
                          np.zeros((geom.n, geom.n)))


def test_build_map_is_cellwise_max():
    geom = GridGeometry(2.0, 0.5)
    a = np.full((geom.n, geom.n), 1.0)
    b = np.zeros((geom.n, geom.n))
    b[0, 0] = 5.0
    grid = build_map([a, b], geom)
    assert grid.weights[0, 0] == 5.0
    assert grid.weights[1, 1] == 1.0
    empty = build_map([], geom)
    assert not empty.weights.any()
    with pytest.raises(ValueError):
        build_map([np.zeros((3, 3))], geom)


def test_delta_map_equals_build_map_over_diffused_regions():
    rng = np.random.default_rng(37)
    geom = GridGeometry(6.0, 0.25)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        positions = rng.uniform(-5.0, 5.0, size=(k, 2))
        weights = rng.uniform(0.5, 35.0, size=k)
        regions = [diffuse_region(p, ZERO22, w, 2.0, geom)
                   for p, w in zip(positions, weights)]
        want = build_map(regions, geom).weights
        got = delta_map(positions, weights, 2.0, geom).weights
        assert np.array_equal(got, want)


def test_deposit_map_stamps_delta_rows_and_diffuses_the_rest():
    geom = GridGeometry(4.0, 0.25)
    rows = np.concatenate([deposit([1.0, -1.0], ZERO22, 5.0),
                           deposit([-2.0, 0.5], ZERO22, 9.0)])
    want = delta_map(rows[:, :2], rows[:, 6], 1.5, geom).weights
    assert deposit_map(rows, 1.5, geom).weights.tobytes() == want.tobytes()
    rows[1, 2:6] = (0.04, 0.01, 0.01, 0.09)
    want = build_map([diffuse_region(p, c, w, 1.5, geom)
                      for p, c, w in zip(*triple(rows))], geom).weights
    assert deposit_map(rows, 1.5, geom).weights.tobytes() == want.tobytes()
    assert not deposit_map(no_deposits(), 1.5, geom).weights.any()


def test_pheromone_value_at_matches_delta_map():
    rng = np.random.default_rng(41)
    geom = GridGeometry(6.0, 0.25)
    positions = rng.uniform(-5.0, 5.0, size=(10, 2))
    weights = rng.uniform(0.5, 35.0, size=10)
    rows = np.concatenate([deposit(p, ZERO22, w)
                           for p, w in zip(positions, weights)])
    grid = delta_map(positions, weights, 2.0, geom)
    for _ in range(200):
        pt = rng.uniform(-6.0, 6.0, 2)
        assert pheromone_value_at(pt, rows, 2.0, geom) == grid.value_at(pt)
    assert pheromone_value_at([0.0, 0.0], no_deposits(), 2.0, geom) == 0.0


def test_pgm_dump(tmp_path):
    geom = GridGeometry(1.0, 0.5)
    grid = PheromoneGrid(geom, np.array([[0.0, 0.1], [1.0, 35.0]]))
    path = tmp_path / "map.pgm"
    grid.to_pgm(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "35000"
    vals = [int(v) for row in lines[3:] for v in row.split()]
    assert vals == [0, 100, 1000, 35000]


# -- exploration waypoint ----------------------------------------------------


def test_waypoint_minimality_over_randomized_maps():
    rng = np.random.default_rng(43)
    geom = GridGeometry(12.0, 0.25)
    mask = geom.in_ball_mask
    for _ in range(1000):
        weights = rng.uniform(0.0, 35.0, size=(geom.n, geom.n))
        grid = PheromoneGrid(geom, weights)
        wp, w = exploration_waypoint(grid, rng)
        vmin = weights[mask].min()
        assert w <= vmin + ARGMIN_TOL
        assert grid.value_at(wp) == w
        assert math.hypot(wp[0], wp[1]) <= 12.0 + geom.cell_size


def test_waypoint_uniform_tie_break_hits_all_minima():
    geom = GridGeometry(1.0, 0.5)      # 4x4 grid, tiny
    weights = np.ones((geom.n, geom.n))
    mask = geom.in_ball_mask
    lows = [(1, 1), (2, 2)]
    for i, j in lows:
        weights[i, j] = 0.0
    grid = PheromoneGrid(geom, weights)
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(100):
        wp, w = exploration_waypoint(grid, rng)
        assert w == 0.0
        seen.add(geom.index_of(wp))
    assert seen == set(lows)


def test_waypoint_valid_mask_restricts_candidates():
    geom = GridGeometry(2.0, 0.5)
    weights = np.ones((geom.n, geom.n))
    i, j = geom.index_of([-1.0, 0.0])
    weights[i, j] = 0.0                 # global minimum, but masked out
    valid = np.ones_like(weights, dtype=bool)
    valid[i, j] = False
    grid = PheromoneGrid(geom, weights)
    rng = np.random.default_rng(3)
    wp, w = exploration_waypoint(grid, rng, valid=valid)
    assert geom.index_of(wp) != (i, j)
    assert w == 1.0


# -- exactness of the fast paths at real sizes --------------------------------


def reference_delta_map(positions, weights, footprint_radius, geometry):
    """The previous stamping loop: strongest disk last, np.clip indexing."""
    n = geometry.n
    grid = np.zeros((n, n))
    half = int(math.ceil(footprint_radius / geometry.cell_size)) + 1
    r2 = footprint_radius ** 2
    for idx in np.argsort(weights):
        px, py = positions[idx]
        i0 = int(np.clip((px + geometry.radius) / geometry.cell_size, 0, n - 1))
        j0 = int(np.clip((py + geometry.radius) / geometry.cell_size, 0, n - 1))
        lo_i, hi_i = max(0, i0 - half), min(n, i0 + half + 1)
        lo_j, hi_j = max(0, j0 - half), min(n, j0 + half + 1)
        dx = geometry.coords[lo_i:hi_i] - px
        dy = geometry.coords[lo_j:hi_j] - py
        mask = dx[:, None] ** 2 + dy[None, :] ** 2 <= r2
        sub = grid[lo_i:hi_i, lo_j:hi_j]
        np.maximum(sub, np.where(mask, weights[idx], 0.0), out=sub)
    return grid


def awkward_positions(rng, geom, radius, k):
    """Deposits on cell edges, at exactly +-radius from a cell center,
    outside the grid, repeating an earlier deposit (a parked agent), at
    signed zeros, and anywhere."""
    edges = (np.arange(geom.n + 1) * geom.cell_size) - geom.radius
    kinds = rng.integers(0, 6, size=k)
    out = rng.uniform(-geom.radius - 6.0, geom.radius + 6.0, size=(k, 2))
    for r, (row, kind) in enumerate(zip(out, kinds)):
        if kind == 3 and r:
            row[:] = out[rng.integers(r)]
        elif kind == 4:
            row[:] = rng.choice([0.0, -0.0], 2)
        elif kind == 0:
            row[:] = rng.choice(edges, 2)
        elif kind == 1:
            c = rng.choice(geom.coords, 2)
            row[:] = c + rng.choice([-radius, radius]) * np.eye(2)[
                rng.integers(2)]
        elif kind == 2:
            row[:] = rng.choice([-1.0, 1.0], 2) * rng.uniform(
                geom.radius, geom.radius + 3 * radius, 2)
    return out


def test_delta_map_bit_identical_to_reference_at_real_sizes():
    rng = np.random.default_rng(53)
    geom = GridGeometry(12.0, 0.25)
    radius = 4.0
    levels = 35.0 * 0.84 ** np.arange(34)
    for trial in range(60):
        k = int(rng.integers(0, 251))
        positions = awkward_positions(rng, geom, radius, k)
        if trial % 2:
            weights = rng.choice(levels, k)        # many equal weights
        else:
            weights = rng.uniform(0.1, 35.0, k)
        got = delta_map(positions, weights, radius, geom).weights
        want = reference_delta_map(positions, weights, radius, geom)
        assert got.tobytes() == want.tobytes()


def test_delta_map_raises_on_nan_position_like_reference():
    geom = GridGeometry(12.0, 0.25)
    positions = np.array([[0.0, 0.0], [np.nan, 1.0]])
    weights = np.array([1.0, 2.0])
    with pytest.raises(ValueError) as want:
        reference_delta_map(positions, weights, 4.0, geom)
    with pytest.raises(ValueError) as got:
        delta_map(positions, weights, 4.0, geom)
    assert str(got.value) == str(want.value)


def test_index_of_matches_np_clip():
    geom = GridGeometry(12.0, 0.25)

    def clipped(v):
        return int(np.clip((v + geom.radius) / geom.cell_size, 0,
                           geom.n - 1))

    rng = np.random.default_rng(59)
    specials = [0.0, -0.0, -12.0, 12.0, -12.0 - 1e-15, 12.0 - 1e-15,
                math.inf, -math.inf, 1e300, -1e300, 5e-324, -5e-324]
    edges = list(np.arange(geom.n + 1) * geom.cell_size - geom.radius)
    values = specials + edges + list(rng.uniform(-20.0, 20.0, 5000)) \
        + list(rng.standard_normal(500) * 1e6)
    for v in values:
        for x in (v, np.float64(v)):
            assert geom.index_of((x, 0.0))[0] == clipped(v)
            assert geom.index_of(np.array([0.0, x]))[1] == clipped(v)
    with pytest.raises(ValueError) as want:
        clipped(math.nan)
    for point in ((math.nan, 0.0), np.array([0.0, math.nan])):
        with pytest.raises(ValueError) as got:
            geom.index_of(point)
        assert str(got.value) == str(want.value)


def test_geometry_caches_are_shared_and_read_only():
    geom = GridGeometry(3.0, 0.5)
    xs, ys = geom.centers
    assert geom.centers[0] is xs
    want_x, want_y = np.meshgrid(geom.coords, geom.coords, indexing="ij")
    assert np.array_equal(xs, want_x) and np.array_equal(ys, want_y)
    mask = geom.in_ball_mask
    assert geom.in_ball_mask is mask
    assert np.array_equal(mask, want_x ** 2 + want_y ** 2 <= 3.0 ** 2)
    with pytest.raises(ValueError):
        xs[0, 0] = 1.0
    with pytest.raises(ValueError):
        mask[0, 0] = False


def reference_update(own, neighbors, rx, shift, sigma, cfg):
    """The previous storage round on (positions, covs, weights) triples."""
    shift = np.asarray(shift, dtype=float)

    def decay(lst):
        p, c, w = lst
        if not len(w):
            return lst
        p, c, w = p + shift, c + sigma, w * (1.0 - cfg.w_decay)
        keep = w > cfg.w_floor
        return (p[keep], c[keep], w[keep]) if not keep.all() else (p, c, w)

    p, c, w = decay(own)
    own = (np.vstack([p, shift.reshape(1, 2)]),
           np.concatenate([c, sigma.reshape(1, 2, 2)]),
           np.append(w, cfg.w_init))
    heard = set()
    for sender, lst, offset in rx:
        heard.add(sender)
        neighbors[sender] = (lst[0] + np.reshape(offset, (1, 2)),
                             lst[1].copy(), lst[2].copy())
    for nid in neighbors:
        if nid not in heard:
            neighbors[nid] = decay(neighbors[nid])
    return own


def test_storage_round_bit_identical_to_reference():
    rng = np.random.default_rng(61)
    cfg = default_cfg()
    for trial in range(4):
        noisy = trial % 2 == 1
        own, neighbors = no_deposits(), {}
        ref_own, ref_neighbors = triple(own), {}
        senders = {s: no_deposits() for s in (2, 3, 4)}
        for t in range(120):
            shift = rng.normal(0.0, 0.3, 2)
            m = rng.normal(0.0, 0.03, (2, 2))
            sigma = m @ m.T if noisy else np.zeros((2, 2))
            rx = []
            if t % 3 == 0:
                for s in rng.choice(list(senders), int(rng.integers(0, 4)),
                                    replace=False):
                    senders[s] = step_own(senders[s], cfg,
                                          shift=rng.normal(0, 0.3, 2),
                                          sigma=sigma)
                    rx.append((int(s), senders[s], rng.normal(0, 4.0, 2)))
            ref_rx = [(s, triple(pl), off) for s, pl, off in rx]
            own = update_pheromones(own, neighbors, rx, shift, sigma, cfg)
            ref_own = reference_update(ref_own, ref_neighbors, ref_rx,
                                       shift, sigma, cfg)
            for got, want in [(own, ref_own)] + [
                    (neighbors[n], ref_neighbors[n]) for n in ref_neighbors]:
                for g, w in zip(triple(got), want):
                    assert g.shape == w.shape
                    assert g.tobytes() == np.ascontiguousarray(w).tobytes()
        assert len(own) == cfg.max_list_length - 1 == 34


def test_packets_and_received_lists_share_no_writes():
    cfg = default_cfg()
    snapshot = step_own(no_deposits(), cfg, n=5, shift=np.array([0.3, 0.0]))
    before = snapshot.copy()
    a, b = {}, {}
    update_pheromones(no_deposits(), a, [(2, snapshot, [1.0, 0.0])],
                      ZERO2, ZERO22, cfg)
    update_pheromones(no_deposits(), b, [(2, snapshot, [0.0, 2.0])],
                      ZERO2, ZERO22, cfg)
    # The sender moves on and the receivers decay their copies.
    step_own(snapshot, cfg, n=2, shift=np.array([0.5, 0.5]))
    update_pheromones(no_deposits(), a, [], [1.0, 1.0], ZERO22, cfg)
    assert snapshot.tobytes() == before.tobytes()
    assert np.array_equal(triple(b[2])[0], before[:, :2] + [0.0, 2.0])
    assert np.array_equal(triple(a[2])[0],
                          (before[:, :2] + [1.0, 0.0]) + [1.0, 1.0])
