"""Sensor geometry and covariance maps.

Covers the sector FOV and its one test, :func:`sector_polar`, which every
caller calls directly; the analytic camera covariance map of the 2D simulation;
and the calibration table (N-nearest interpolation over a sampled covariance
grid, saved as CSV) that stands in for a hardware-characterized sensor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .estimation import check_cov, entropy


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]."""
    # Python floats round exactly as numpy's float64 scalars do.
    a = (float(a) + math.pi) % (2.0 * math.pi) - math.pi
    return a if a != -math.pi else math.pi


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass
class SectorFov:
    """Sector field of view of a sensor looking along its own +x axis."""

    range_bl: float
    half_angle: float

    def __post_init__(self):
        if self.range_bl <= 0:
            raise ValueError("FOV range must be positive")
        if not (0 < 2 * self.half_angle <= 2 * np.pi):
            raise ValueError("sector angle must be in (0, 2*pi]")


def sector_polar(x: float, y: float, range_bl: float, half_angle: float,
                 heading: float):
    """The one sector test: ``(r, bearing)`` of the sensor-relative point
    ``(x, y)`` if it is in the sector (edges and r = 0 included), else None."""
    r = math.hypot(x, y)
    if r > range_bl:
        return None
    if r == 0.0:
        return 0.0, 0.0
    bearing = wrap_angle(math.atan2(y, x) - heading)
    if abs(bearing) > half_angle:
        return None
    return r, bearing


@dataclass
class AnalyticCovMap:
    """Closed-form camera noise model of the 2D simulation.

    eta(r, phi) = k1 (r - r_best)^2 + k2 phi^4, floored at ``eta_floor`` so
    the exact optimum never yields a singular covariance.  The model is
    isotropic, so the bearing rotation of the noise frame cancels exactly.
    """

    k1: float = 1.0
    k2: float = 1.0
    r_best: float = 2.0
    eta_floor: float = 1e-3

    def eta(self, r, phi):
        return self.k1 * (r - self.r_best) ** 2 + self.k2 * phi ** 4


def analytic_cov_at(cmap: AnalyticCovMap, r, bearing) -> np.ndarray:
    """Measurement covariance at a polar location: max(eta, floor) * I."""
    eta = max(cmap.eta(r, bearing), cmap.eta_floor)
    return np.array([[eta, 0.0], [0.0, eta]])


@dataclass
class CalibrationTable:
    """Discrete covariance map sampled on a grid of sensor-frame points.

    ``points`` are (r, bearing) pairs; distances for interpolation are taken
    in the cartesian sensor frame.  ``r_max`` is the norm of the longest
    vector that fits inside the sensor's ``fov`` (the chord between extreme
    rays for wide sectors), which keeps all interpolation weights nonnegative.
    """

    points: np.ndarray           # (M, 2) of (r, bearing)
    covs: np.ndarray             # (M, 2, 2)
    fov: InitVar[SectorFov]
    n_neighbors: int = 1
    r_max: float = field(init=False)
    _xy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, fov):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.covs = np.asarray(self.covs, dtype=float).reshape(-1, 2, 2)
        if len(self.points) == 0:
            raise ValueError("calibration table is empty")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        for c in self.covs:
            check_cov(c)
        self.r_max = 2.0 * fov.range_bl * math.sin(min(fov.half_angle,
                                                        math.pi / 2))
        self._xy = np.stack(
            [
                self.points[:, 0] * np.cos(self.points[:, 1]),
                self.points[:, 0] * np.sin(self.points[:, 1]),
            ],
            axis=1,
        )


def interpolate_cov(table: CalibrationTable, r, bearing) -> np.ndarray:
    """N-nearest inverse-distance-weighted covariance at (r, bearing).

    Weights are 1 - d/r_max over the ``n_neighbors`` nearest table entries.
    One neighbor gives ``(w * c) / w``: the nearest entry ``c`` (a Voronoi
    lookup) up to rounding, which can move its last bit.
    """
    q = np.array([r * math.cos(bearing), r * math.sin(bearing)])
    d = np.linalg.norm(table._xy - q, axis=1)
    n = min(table.n_neighbors, len(d))
    idx = np.argpartition(d, n - 1)[:n] if n < len(d) else np.arange(len(d))
    w = 1.0 - d[idx] / table.r_max
    if w.sum() <= 0:
        w = np.ones_like(w)
    return np.einsum("m,mij->ij", w, table.covs[idx]) / w.sum()


# Table scans already made, by table contents and FOV: every seed of a batch
# builds an equal table, and the scan is the same for each.
_TABLE_VIEWPOINTS: dict = {}
_TABLE_VIEWPOINTS_MAX = 32


def best_viewpoint(cov_source, fov: SectorFov):
    """Sensor-frame point of minimum measurement uncertainty inside the FOV.

    Analytic maps have a closed-form optimum at (r_best, bearing 0); table
    maps are scanned on a grid of 0.1 bl by 1 degree.  Ties break toward
    smaller range, then smaller absolute bearing, for deterministic replay.
    A table's scan is made once per process for equal table contents and
    FOV.
    """
    if isinstance(cov_source, AnalyticCovMap):
        if cov_source.k1 > 0:
            r = min(cov_source.r_best, fov.range_bl)
        else:
            r = 0.0
        return np.array([r, 0.0])

    key = (cov_source.points.tobytes(), cov_source.covs.tobytes(),
           cov_source.n_neighbors, cov_source.r_max, fov.range_bl,
           fov.half_angle)
    viewpoint = _TABLE_VIEWPOINTS.get(key)
    if viewpoint is None:
        if len(_TABLE_VIEWPOINTS) >= _TABLE_VIEWPOINTS_MAX:
            _TABLE_VIEWPOINTS.clear()
        viewpoint = _TABLE_VIEWPOINTS[key] = _scan_table(cov_source, fov)
    return viewpoint.copy()


def _scan_table(table: CalibrationTable, fov: SectorFov):
    dr, dphi = 0.1, math.radians(1.0)
    ranges = np.arange(0.0, fov.range_bl + 0.5 * dr, dr)
    ranges[-1] = min(ranges[-1], fov.range_bl)
    n_phi = int(math.ceil(fov.half_angle / dphi))
    bearings = np.concatenate(
        [-np.arange(1, n_phi + 1)[::-1] * dphi, [0.0], np.arange(1, n_phi + 1) * dphi]
    )
    bearings = bearings[np.abs(bearings) <= fov.half_angle + 1e-12]
    best = None
    for r in ranges:
        for phi in bearings:
            score = entropy(interpolate_cov(table, r, phi))
            key = (score, r, abs(phi))
            if best is None or _vp_better(key, best[0]):
                best = (key, np.array([r * math.cos(phi), r * math.sin(phi)]))
    return best[1]


def _vp_better(key, ref, tol=1e-12):
    if key[0] < ref[0] - tol:
        return True
    if key[0] > ref[0] + tol:
        return False
    return (key[1], key[2]) < (ref[1], ref[2])


CALIBRATION_CSV_FIELDS = ["r", "bearing_deg", "c11", "c12", "c22"]


def save_calibration_csv(table: CalibrationTable, path):
    """Write a calibration table as (r, bearing_deg, c11, c12, c22) rows."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CALIBRATION_CSV_FIELDS)
        for (r, phi), c in zip(table.points, table.covs):
            w.writerow([r, math.degrees(phi), c[0, 0], c[0, 1], c[1, 1]])


def load_calibration_csv(path, fov: SectorFov,
                         n_neighbors=1) -> CalibrationTable:
    """Load a calibration table written by :func:`save_calibration_csv`
    for the sensor ``fov``."""
    points, covs = [], []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            points.append([float(row["r"]), math.radians(float(row["bearing_deg"]))])
            c12 = float(row["c12"])
            covs.append([[float(row["c11"]), c12], [c12, float(row["c22"])]])
    return CalibrationTable(np.array(points), np.array(covs), fov,
                            n_neighbors)


def synthetic_calibration_table(cmap: AnalyticCovMap, fov: SectorFov, dr=1.0,
                                n_neighbors=1) -> CalibrationTable:
    """Sample the analytic map on a hardware-style calibration grid.

    Mirrors the pan/tilt characterization procedure (10 degree angular steps,
    ``dr`` = 1 bl radial steps from 1.5 bl) so the table-based pipeline can
    be exercised without hardware data.
    """
    dphi = math.radians(10.0)
    n_phi = int(math.floor(fov.half_angle / dphi))
    points, covs = [], []
    r = 1.5
    while r <= fov.range_bl + 1e-9:
        for k in range(-n_phi, n_phi + 1):
            phi = k * dphi
            points.append([r, phi])
            covs.append(analytic_cov_at(cmap, r, phi))
        r += dr
    return CalibrationTable(np.array(points), np.array(covs), fov,
                            n_neighbors)
