"""Tests for sensor geometry, covariance maps, and the calibration pipeline."""

import csv
import math

import numpy as np
import pytest

from pherotrack.sensing import (AnalyticCovMap, CalibrationTable,
                                CALIBRATION_CSV_FIELDS, SectorFov,
                                best_viewpoint, interpolate_cov,
                                load_calibration_csv,
                                save_calibration_csv, sector_polar,
                                synthetic_calibration_table, wrap_angle)
from pherotrack.world import hardware_table_preset


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
    half = math.radians(60.0)

    def contains(x, y, heading=0.0):
        return sector_polar(x, y, 4.0, half, heading) is not None

    assert contains(0.0, 0.0)                         # the agent itself
    assert contains(3.9, 0.0)
    assert not contains(4.1, 0.0)                     # out of range
    assert contains(1.0, math.tan(math.radians(59.0)))
    assert not contains(-1.0, 0.0)                    # behind
    assert contains(-1.0, 0.0, heading=math.pi)       # turned around
    assert not contains(1.0, 0.0, heading=math.pi)


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
    assert cmap.variance(2.0, 0.0) == 1e-3
    assert cmap.variance(4.0, 0.0) == 4.0
    phi = 0.5
    assert cmap.variance(2.0, phi) == phi ** 4
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
    # Default calibration grid (radial step 1 bl from 1.5): the viewpoint
    # is a sample of the least uncertainty, on the boresight.
    coarse = synthetic_calibration_table(AnalyticCovMap(), fov)
    vp = best_viewpoint(coarse, fov)
    best_sample = min(entropy(c) for c in coarse.covs)
    r, phi = math.hypot(vp[0], vp[1]), math.atan2(vp[1], vp[0])
    cov, _ = interpolate_cov(coarse, r, phi)
    assert entropy(cov) == best_sample
    assert any(vp.tobytes() == xy.tobytes() for xy in coarse._xy)
    # A table that also samples the true optimum at (2, 0) lands on it.
    cmap = AnalyticCovMap()
    points = np.vstack([coarse.points, [[2.0, 0.0]]])
    dense = CalibrationTable(
        points, [cmap.variance(r, phi) * np.eye(2) for r, phi in points])
    assert best_viewpoint(dense, fov).tolist() == [2.0, 0.0]
    # The viewpoint is a copy.
    vp[0] = -1.0
    assert best_viewpoint(coarse, fov).tobytes() != vp.tobytes()


def test_best_viewpoint_tie_rule():
    # On the hardware preset the boresight samples at 1.5 and 2.5 bl tie
    # exactly (variance (r - 2)^2 = 0.25): the smaller range wins.
    cfg = hardware_table_preset()
    fov = SectorFov(cfg.r_s, cfg.half_angle)
    table = synthetic_calibration_table(cfg.cov_map(), fov)
    assert table.covs[np.flatnonzero(
        (table.points == [1.5, 0.0]).all(axis=1))[0]].tobytes() == \
        table.covs[np.flatnonzero(
            (table.points == [2.5, 0.0]).all(axis=1))[0]].tobytes()
    assert best_viewpoint(table, fov).tolist() == [1.5, 0.0]
    # Equal entropy at +-bearing and at the boresight: the smaller |bearing|
    # wins; at exactly +-bearing, the lower row, in either order.
    c, phi = np.eye(2), math.radians(10.0)
    for points, want in (
            ([[2.0, phi], [2.0, -phi], [2.0, 0.0]], 2),
            ([[2.0, phi], [2.0, -phi]], 0),
            ([[2.0, -phi], [2.0, phi]], 0)):
        tie = CalibrationTable(np.array(points), np.array([c] * len(points)))
        assert best_viewpoint(tie, fov).tobytes() == tie._xy[want].tobytes()
    # A sharper sample wins over range and bearing; samples outside the
    # sector (too far, or beyond the half angle) never count.
    far = CalibrationTable(
        np.array([[7.0, 0.0], [2.0, 1.2], [3.0, -0.5], [1.0, 0.0]]),
        np.array([0.01 * c, 0.01 * c, 0.5 * c, c]))
    assert best_viewpoint(far, fov).tobytes() == far._xy[2].tobytes()
    with pytest.raises(ValueError, match="inside the sensing sector"):
        best_viewpoint(far, SectorFov(0.5, fov.half_angle))


def test_interpolate_single_neighbor_is_voronoi_lookup():
    # At a sample's own point the lookup is that sample and its factor, bit
    # for bit.
    fov = SectorFov(4.0, math.radians(60.0))
    table = synthetic_calibration_table(AnalyticCovMap(), fov)
    for (r, phi), cov, chol in zip(table.points, table.covs, table.chols):
        got_cov, got_chol = interpolate_cov(table, r, phi)
        assert got_cov.tobytes() == cov.tobytes()
        assert got_chol.tobytes() == chol.tobytes()


def test_stored_factor_is_the_per_call_cholesky(tmp_path):
    # The factor made when the table is built is the one each detection
    # used to make, bit for bit: on every sample of the preset's synthetic
    # table, and on a CSV table whose samples are correlated.
    cfg = hardware_table_preset()
    fov = SectorFov(cfg.r_s, cfg.half_angle)
    synthetic = synthetic_calibration_table(cfg.cov_map(), fov)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 2, 2))
    covs = a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(2)
    covs[:, 1, 0] = covs[:, 0, 1]
    points = np.stack([rng.uniform(0.5, 5.0, 200),
                       rng.uniform(-1.0, 1.0, 200)], axis=1)
    path = tmp_path / "correlated.csv"
    save_calibration_csv(CalibrationTable(points, covs), path)
    correlated = load_calibration_csv(path)
    assert np.abs(correlated.covs[:, 0, 1]).min() > 0
    for table in (synthetic, correlated):
        for cov, chol in zip(table.covs, table.chols):
            assert chol.tobytes() == np.linalg.cholesky(cov).tobytes()


def test_interpolate_is_the_nearest_sample():
    cfg = hardware_table_preset()
    fov = SectorFov(cfg.r_s, cfg.half_angle)
    table = synthetic_calibration_table(cfg.cov_map(), fov)
    before = table.covs.tobytes()
    rng = np.random.default_rng(0)
    for _ in range(20000):
        r = rng.uniform(0.0, fov.range_bl)
        phi = rng.uniform(-fov.half_angle, fov.half_angle)
        q = np.array([r * math.cos(phi), r * math.sin(phi)])
        i = np.argmin(np.linalg.norm(table._xy - q, axis=1))
        cov, chol = interpolate_cov(table, r, phi)
        assert cov.tobytes() == table.covs[i].tobytes()
        assert chol.tobytes() == table.chols[i].tobytes()
    # The lookup cannot be written, so the table stays as it was.
    for got in (cov, chol):
        with pytest.raises(ValueError):
            got[0, 0] = -1.0
    assert table.covs.tobytes() == before
    # An exact tie (the query 2 is 1 from both 1 and 3) goes to the lower
    # index, whichever sample sits there.
    a, b = np.eye(2), 2.0 * np.eye(2)
    for covs in ((a, b), (b, a)):
        tie = CalibrationTable(np.array([[1.0, 0.0], [3.0, 0.0]]),
                               np.array(covs))
        cov, _ = interpolate_cov(tie, 2.0, 0.0)
        assert cov.tobytes() == covs[0].tobytes()


def test_calibration_table_validation():
    with pytest.raises(ValueError):
        CalibrationTable(np.empty((0, 2)), np.empty((0, 2, 2)))
    one = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        CalibrationTable(one, np.array([[[1.0, 0.5], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="smallest eigenvalue"):
        CalibrationTable(one, np.array([[[1.0, 0.0], [0.0, -1.0]]]))
    # Symmetric within round-off is accepted.
    CalibrationTable(one, np.array([[[1.0, 1e-12], [0.0, 1.0]]]))
    # A sample at or below the inversion limit could not be fused.
    with pytest.raises(ValueError, match="smallest eigenvalue"):
        CalibrationTable(np.array([[1.0, 0.0]]), np.array([1e-10 * np.eye(2)]))


def test_calibration_csv_roundtrip(tmp_path):
    fov = SectorFov(4.0, math.radians(60.0))
    table = synthetic_calibration_table(AnalyticCovMap(), fov)
    path = tmp_path / "calib.csv"
    save_calibration_csv(table, path)
    with open(path, newline="") as f:
        header = next(csv.reader(f))
    assert header == CALIBRATION_CSV_FIELDS
    loaded = load_calibration_csv(path)
    # The reload is the same table, so every lookup gives the same bits.
    assert loaded.points.tobytes() == table.points.tobytes()
    assert loaded.covs.tobytes() == table.covs.tobytes()
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = rng.uniform(0.0, fov.range_bl)
        phi = rng.uniform(-fov.half_angle, fov.half_angle)
        for got, want in zip(interpolate_cov(loaded, r, phi),
                             interpolate_cov(table, r, phi)):
            assert got.tobytes() == want.tobytes()
