"""Sensor geometry and covariance maps.

Covers the sector field of view, the analytic camera covariance map used by
the 2D simulation, and the calibration-table pipeline (bounding-box transform,
spherical conversion, conservative covariance, N-nearest interpolation) that
stands in for a hardware-characterized sensor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import GaussianEstimate, check_cov, entropy


def wrap_angle(a):
    """Wrap an angle, or an array of them, to (-pi, pi]."""
    if isinstance(a, np.ndarray) and a.ndim:
        a = (a + np.pi) % (2.0 * np.pi) - np.pi
        a[a == -np.pi] = np.pi
        return a
    # Python floats round exactly as numpy's float64 scalars do.
    a = (float(a) + math.pi) % (2.0 * math.pi) - math.pi
    return a if a != -math.pi else math.pi


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass
class SectorFov:
    """Sector field of view anchored at an agent pose.

    ``heading`` is the sector's center direction in the agent's local frame;
    the anchor position is the agent itself, so containment tests take points
    relative to the agent.
    """

    range_bl: float
    half_angle: float
    heading: float = 0.0

    def __post_init__(self):
        if self.range_bl <= 0:
            raise ValueError("FOV range must be positive")
        if not (0 < 2 * self.half_angle <= 2 * np.pi):
            raise ValueError("sector angle must be in (0, 2*pi]")


def contains(fov: SectorFov, point) -> bool:
    """Sector membership test for a point relative to the FOV's agent."""
    x, y = float(point[0]), float(point[1])
    r = math.hypot(x, y)
    if r > fov.range_bl:
        return False
    if r == 0.0:
        return True
    bearing = wrap_angle(math.atan2(y, x) - fov.heading)
    return abs(bearing) <= fov.half_angle


@dataclass
class PolarMeasurement:
    """Range/bearing measurement in the sensor frame.

    ``elevation`` is only meaningful for the 3D spherical transform; the 2D
    pipeline leaves it at zero.
    """

    range_bl: float
    bearing: float
    elevation: float = 0.0


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


def analytic_cov_at(cmap: AnalyticCovMap, meas: PolarMeasurement) -> np.ndarray:
    """Measurement covariance at a polar location: max(eta, floor) * I."""
    eta = max(cmap.eta(meas.range_bl, meas.bearing), cmap.eta_floor)
    return np.array([[eta, 0.0], [0.0, eta]])


def polar_to_estimate(
    meas: PolarMeasurement, cmap: AnalyticCovMap, heading: float = 0.0
) -> GaussianEstimate:
    """Convert a polar measurement to a cartesian estimate in the local frame.

    ``heading`` rotates the sensor frame into the agent's world-axis-aligned
    local frame.  The covariance is isotropic, so only the mean rotates.
    """
    ang = heading + meas.bearing
    mean = meas.range_bl * np.array([math.cos(ang), math.sin(ang)])
    return GaussianEstimate(mean, analytic_cov_at(cmap, meas))


@dataclass
class CalibrationTable:
    """Discrete covariance map sampled on a grid of sensor-frame points.

    ``points`` are (r, bearing) pairs; distances for interpolation are taken
    in the cartesian sensor frame.  ``r_max`` is the norm of the longest
    vector that fits inside the FOV (the chord between extreme rays for wide
    sectors), which keeps all interpolation weights nonnegative.
    """

    points: np.ndarray           # (M, 2) of (r, bearing)
    covs: np.ndarray             # (M, 2, 2)
    n_neighbors: int = 1
    r_max: float = 0.0
    _xy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.covs = np.asarray(self.covs, dtype=float).reshape(-1, 2, 2)
        if len(self.points) == 0:
            raise ValueError("calibration table is empty")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        for c in self.covs:
            check_cov(c)
        if self.r_max <= 0:
            self.r_max = float(self.points[:, 0].max() * 2.0)
        self._xy = np.stack(
            [
                self.points[:, 0] * np.cos(self.points[:, 1]),
                self.points[:, 0] * np.sin(self.points[:, 1]),
            ],
            axis=1,
        )


def interpolate_cov(table: CalibrationTable, r, bearing) -> np.ndarray:
    """N-nearest inverse-distance-weighted covariance at (r, bearing).

    Weights are 1 - d/r_max over the ``n_neighbors`` nearest table entries;
    with a single neighbor this degenerates to a Voronoi lookup.
    """
    q = np.array([r * math.cos(bearing), r * math.sin(bearing)])
    d = np.linalg.norm(table._xy - q, axis=1)
    n = min(table.n_neighbors, len(d))
    idx = np.argpartition(d, n - 1)[:n] if n < len(d) else np.arange(len(d))
    w = 1.0 - d[idx] / table.r_max
    if w.sum() <= 0:
        w = np.ones_like(w)
    return np.einsum("m,mij->ij", w, table.covs[idx]) / w.sum()


def conservative_cov(measured, true) -> np.ndarray:
    """Deliberately conservative covariance from paired calibration samples.

    diag(mean squared per-component error) + sample covariance of the errors.
    The bias term keeps systematic offsets visible even when the spread is
    small.
    """
    measured = np.asarray(measured, dtype=float)
    true = np.asarray(true, dtype=float)
    if measured.shape != true.shape or measured.ndim != 2:
        raise ValueError("measured/true sample arrays must share an (N, d) shape")
    if len(measured) < 2:
        raise ValueError("need at least 2 samples for a conservative covariance")
    err = measured - true
    bias = np.diag((err ** 2).mean(axis=0))
    spread = np.cov(err, rowvar=False)
    return bias + np.atleast_2d(spread)


@dataclass
class BoundingBox:
    """Normalized image-frame bounding box."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("bounding box must have positive extent")


def bbox_to_polar(bb: BoundingBox, k_r, k_theta, k_psi=0.0) -> PolarMeasurement:
    """Recover a polar measurement from a detector bounding box.

    Range scales as the inverse square root of the box area; bearing and
    elevation are linear in the box center with per-axis gains.
    """
    if k_r <= 0:
        raise ValueError("range gain k_r must be positive")
    area = (bb.x_max - bb.x_min) * (bb.y_max - bb.y_min)
    if area <= 0:
        raise ValueError("bounding box area must be positive")
    return PolarMeasurement(
        range_bl=math.sqrt(k_r / area),
        bearing=k_theta * 0.5 * (bb.x_max + bb.x_min),
        elevation=k_psi * 0.5 * (bb.y_max + bb.y_min),
    )


def spherical_to_euclidean(meas: PolarMeasurement) -> np.ndarray:
    """Spherical (r, theta, psi) to 3D euclidean, camera convention."""
    r, th, ps = meas.range_bl, meas.bearing, meas.elevation
    return np.array(
        [
            r * math.cos(th) * math.sin(ps),
            r * math.sin(th) * math.sin(ps),
            r * math.cos(ps),
        ]
    )


def best_viewpoint(cov_source, fov: SectorFov, grid_res=(0.1, math.radians(1.0))):
    """Sensor-frame point of minimum measurement uncertainty inside the FOV.

    Analytic maps have a closed-form optimum at (r_best, bearing 0); table
    maps are scanned on a (range, bearing) grid.  Ties break toward smaller
    range, then smaller absolute bearing, for deterministic replay.
    """
    if isinstance(cov_source, AnalyticCovMap):
        if cov_source.k1 > 0:
            r = min(cov_source.r_best, fov.range_bl)
        else:
            r = 0.0
        return np.array([r, 0.0])

    dr, dphi = grid_res
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
            score = entropy(interpolate_cov(cov_source, r, phi))
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


def load_calibration_csv(path, n_neighbors=1, r_max=0.0) -> CalibrationTable:
    """Load a calibration table written by :func:`save_calibration_csv`."""
    points, covs = [], []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            points.append([float(row["r"]), math.radians(float(row["bearing_deg"]))])
            c12 = float(row["c12"])
            covs.append([[float(row["c11"]), c12], [c12, float(row["c22"])]])
    return CalibrationTable(np.array(points), np.array(covs),
                            n_neighbors=n_neighbors, r_max=r_max)


def synthetic_calibration_table(
    cmap: AnalyticCovMap, fov: SectorFov, dr=1.0, dphi_deg=10.0,
    r_min=1.5, n_neighbors=1,
) -> CalibrationTable:
    """Sample the analytic map on a hardware-style calibration grid.

    Mirrors the pan/tilt characterization procedure (10 degree angular steps,
    1 bl radial steps) so the table-based pipeline can be exercised without
    hardware data.
    """
    dphi = math.radians(dphi_deg)
    n_phi = int(math.floor(fov.half_angle / dphi))
    points, covs = [], []
    r = r_min
    while r <= fov.range_bl + 1e-9:
        for k in range(-n_phi, n_phi + 1):
            phi = k * dphi
            points.append([r, phi])
            covs.append(analytic_cov_at(cmap, PolarMeasurement(r, phi)))
        r += dr
    r_max = 2.0 * fov.range_bl * math.sin(min(fov.half_angle, math.pi / 2))
    return CalibrationTable(np.array(points), np.array(covs),
                            n_neighbors=n_neighbors, r_max=r_max)
