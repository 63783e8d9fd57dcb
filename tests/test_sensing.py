"""Tests for sensor geometry, covariance maps, and the calibration pipeline."""

import csv
import math

import numpy as np
import pytest

from pherotrack.sensing import (AnalyticCovMap, CalibrationTable,
                                CALIBRATION_CSV_FIELDS, SectorFov,
                                analytic_cov_at, best_viewpoint, contains,
                                interpolate_cov, load_calibration_csv,
                                save_calibration_csv,
                                synthetic_calibration_table, wrap_angle)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert math.isclose(wrap_angle(3 * math.pi), math.pi)
    assert math.isclose(wrap_angle(-3 * math.pi), math.pi)
    assert math.isclose(wrap_angle(math.pi + 0.1), -math.pi + 0.1)
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(2 * math.pi) == 0.0
    # numpy scalars (headings read from the world state) wrap the same way.
    assert wrap_angle(np.float64(3 * math.pi)) == wrap_angle(3 * math.pi)


def test_sector_contains():
    fov = SectorFov(4.0, math.radians(60.0))
    assert contains(fov, [0.0, 0.0])                  # the agent itself
    assert contains(fov, [3.9, 0.0])
    assert not contains(fov, [4.1, 0.0])              # out of range
    assert contains(fov, [1.0, math.tan(math.radians(59.0))])
    assert not contains(fov, [-1.0, 0.0])             # behind
    rotated = SectorFov(4.0, math.radians(60.0), heading=math.pi)
    assert contains(rotated, [-1.0, 0.0])
    assert not contains(rotated, [1.0, 0.0])


def test_sector_validation():
    with pytest.raises(ValueError):
        SectorFov(0.0, 1.0)
    with pytest.raises(ValueError):
        SectorFov(1.0, 0.0)
    with pytest.raises(ValueError):
        SectorFov(1.0, math.pi + 0.1)


def test_analytic_cov_map_values():
    cmap = AnalyticCovMap(k1=1.0, k2=1.0, r_best=2.0, eta_floor=1e-3)
    # Exact optimum hits the floor rather than going singular.
    assert np.allclose(analytic_cov_at(cmap, 2.0, 0.0),
                       1e-3 * np.eye(2))
    assert np.allclose(analytic_cov_at(cmap, 4.0, 0.0),
                       4.0 * np.eye(2))
    phi = 0.5
    assert np.allclose(analytic_cov_at(cmap, 2.0, phi),
                       phi ** 4 * np.eye(2))
    # Quadratic in range, quartic in bearing.
    assert math.isclose(cmap.eta(5.0, 0.3), 9.0 + 0.3 ** 4)


def test_best_viewpoint_analytic():
    fov = SectorFov(4.0, math.radians(60.0))
    assert np.allclose(best_viewpoint(AnalyticCovMap(), fov), [2.0, 0.0])
    # FOV shorter than the optimum range: clamp to the boundary.
    short = SectorFov(1.5, math.radians(60.0))
    assert np.allclose(best_viewpoint(AnalyticCovMap(), short), [1.5, 0.0])
    # Flat range dependence: closest possible point.
    assert np.allclose(best_viewpoint(AnalyticCovMap(k1=0.0), fov), [0.0, 0.0])


def test_best_viewpoint_table_close_to_analytic():
    from pherotrack.estimation import entropy

    fov = SectorFov(4.0, math.radians(60.0))
    # Default calibration grid (radial step 1 bl from 1.5): the scan must
    # attain the cheapest sample's uncertainty, on the boresight.
    coarse = synthetic_calibration_table(AnalyticCovMap(), fov)
    vp = best_viewpoint(coarse, fov)
    best_sample = min(entropy(c) for c in coarse.covs)
    r, phi = math.hypot(vp[0], vp[1]), math.atan2(vp[1], vp[0])
    assert entropy(interpolate_cov(coarse, r, phi)) <= best_sample + 1e-12
    assert math.isclose(phi, 0.0, abs_tol=1e-12)
    # A grid dense enough to sample the true optimum at (2, 0): the scan
    # lands inside that sample's lookup cell.
    dense = synthetic_calibration_table(AnalyticCovMap(), fov, dr=0.5)
    vp = best_viewpoint(dense, fov)
    assert np.linalg.norm(vp - np.array([2.0, 0.0])) < 0.3


def test_interpolate_single_neighbor_is_voronoi_lookup():
    fov = SectorFov(4.0, math.radians(60.0))
    table = synthetic_calibration_table(AnalyticCovMap(), fov, n_neighbors=1)
    for (r, phi), cov in zip(table.points[:10], table.covs[:10]):
        got = interpolate_cov(table, r, phi)
        assert np.allclose(got, cov, atol=1e-12)


def test_interpolate_matches_weighted_oracle():
    rng = np.random.default_rng(3)
    fov = SectorFov(4.0, math.radians(60.0))
    table = synthetic_calibration_table(AnalyticCovMap(), fov, n_neighbors=3)
    for _ in range(100):
        r = rng.uniform(0.0, 4.0)
        phi = rng.uniform(-fov.half_angle, fov.half_angle)
        q = np.array([r * math.cos(phi), r * math.sin(phi)])
        d = np.linalg.norm(table._xy - q, axis=1)
        idx = np.argsort(d)[:3]
        w = 1.0 - d[idx] / table.r_max
        if w.sum() <= 0:
            w = np.ones_like(w)
        want = sum(wi * table.covs[i] for wi, i in zip(w, idx)) / w.sum()
        assert np.allclose(interpolate_cov(table, r, phi), want, atol=1e-9)


def test_calibration_table_validation():
    with pytest.raises(ValueError):
        CalibrationTable(np.empty((0, 2)), np.empty((0, 2, 2)))
    with pytest.raises(ValueError):
        CalibrationTable(np.array([[1.0, 0.0]]), np.array([np.eye(2)]),
                         n_neighbors=0)
    with pytest.raises(ValueError):
        CalibrationTable(np.array([[1.0, 0.0]]),
                         np.array([[[1.0, 0.0], [0.0, -1.0]]]))


def test_calibration_csv_roundtrip(tmp_path):
    fov = SectorFov(4.0, math.radians(60.0))
    table = synthetic_calibration_table(AnalyticCovMap(), fov)
    path = tmp_path / "calib.csv"
    save_calibration_csv(table, path)
    with open(path, newline="") as f:
        header = next(csv.reader(f))
    assert header == CALIBRATION_CSV_FIELDS
    loaded = load_calibration_csv(path)
    assert np.allclose(loaded.points, table.points, atol=1e-12)
    assert np.allclose(loaded.covs, table.covs, atol=1e-12)
