"""Sensor geometry and covariance maps.

Covers the sector FOV and its one test, :func:`sector_polar`, which every
caller calls directly; the analytic camera covariance map of the 2D simulation;
and the calibration table (a covariance grid sampled in a characterization
pass, saved as CSV, factored once and looked up at its nearest sample) that
stands in for a hardware-characterized sensor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import EPS_INV, EYE2


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]."""
    # Python floats round exactly as numpy's float64 scalars do.
    a = (float(a) + math.pi) % (2.0 * math.pi) - math.pi
    return a if a != -math.pi else math.pi


def rot2(theta):
    """Flat rotation matrix ``(c, -s, s, c)`` for :func:`matvec2`."""
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s, s, c)


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

    def variance(self, r, phi):
        """Measurement variance at a polar location; the covariance is
        this times I."""
        return max(self.eta(r, phi), self.eta_floor)


@dataclass
class CalibrationTable:
    """Discrete covariance map sampled on a grid of sensor-frame points.

    ``points`` are (r, bearing) pairs; a lookup returns the sample nearest
    in the cartesian sensor frame.  Each sample's Cholesky factor is made
    once, here, and the arrays are read-only from then on.
    """

    points: np.ndarray           # (M, 2) of (r, bearing)
    covs: np.ndarray             # (M, 2, 2)
    chols: np.ndarray = field(init=False, repr=False)   # (M, 2, 2)
    _xy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.array(self.points, dtype=float).reshape(-1, 2)
        self.covs = np.array(self.covs, dtype=float).reshape(-1, 2, 2)
        if len(self.points) == 0:
            raise ValueError("calibration table is empty")
        # Every sample reaches fusion as a detection, so it must be
        # symmetric and clear the inversion limit that eta_floor clears on
        # the analytic map.
        if np.abs(self.covs[:, 0, 1] - self.covs[:, 1, 0]).max() > 1e-9:
            raise ValueError("calibration table holds an asymmetric "
                             "covariance")
        if not np.linalg.eigvalsh(self.covs)[:, 0].min() > EPS_INV:
            raise ValueError("calibration table holds a covariance with "
                             f"smallest eigenvalue <= {EPS_INV}")
        self.chols = np.linalg.cholesky(self.covs)
        self._xy = np.stack(
            [
                self.points[:, 0] * np.cos(self.points[:, 1]),
                self.points[:, 0] * np.sin(self.points[:, 1]),
            ],
            axis=1,
        )
        for a in (self.points, self.covs, self.chols, self._xy):
            a.flags.writeable = False


def interpolate_cov(table: CalibrationTable, r, bearing):
    """``(cov, factor)`` of the table sample nearest to (r, bearing), ties
    going to the lowest index (a Voronoi lookup); both are read-only."""
    q = np.array([r * math.cos(bearing), r * math.sin(bearing)])
    i = np.argmin(np.linalg.norm(table._xy - q, axis=1))
    return table.covs[i], table.chols[i]


def best_viewpoint(cov_source, fov: SectorFov):
    """Sensor-frame point of minimum measurement uncertainty inside the FOV.

    Analytic maps have a closed-form optimum at (r_best, bearing 0).  On a
    table it is the in-sector sample of least entropy; ties go to smaller
    range, then smaller absolute bearing, then the lower row.

    Raises:
        ValueError: if no table sample lies inside the sector.
    """
    if isinstance(cov_source, AnalyticCovMap):
        if cov_source.k1 > 0:
            r = min(cov_source.r_best, fov.range_bl)
        else:
            r = 0.0
        return np.array([r, 0.0])

    r, bearing = cov_source.points.T
    rows = np.flatnonzero((r <= fov.range_bl)
                          & (np.abs(bearing) <= fov.half_angle))
    if len(rows) == 0:
        raise ValueError("calibration table holds no sample inside the "
                         "sensing sector")
    c = cov_source.covs[rows]
    # Each sample's entropy(), in one array pass.
    h = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    # lexsort is stable, so equal keys keep the lower row first.
    best = rows[np.lexsort((np.abs(bearing[rows]), r[rows], h))[0]]
    return cov_source._xy[best].copy()


CALIBRATION_CSV_FIELDS = ["r", "bearing_deg", "c11", "c12", "c22"]


def save_calibration_csv(table: CalibrationTable, path):
    """Write a calibration table as (r, bearing_deg, c11, c12, c22) rows."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CALIBRATION_CSV_FIELDS)
        for (r, phi), c in zip(table.points, table.covs):
            w.writerow([r, math.degrees(phi), c[0, 0], c[0, 1], c[1, 1]])


def load_calibration_csv(path) -> CalibrationTable:
    """Load a calibration table written by :func:`save_calibration_csv`."""
    points, covs = [], []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            points.append([float(row["r"]), math.radians(float(row["bearing_deg"]))])
            c12 = float(row["c12"])
            covs.append([[float(row["c11"]), c12], [c12, float(row["c22"])]])
    return CalibrationTable(np.array(points), np.array(covs))


def synthetic_calibration_table(cmap: AnalyticCovMap,
                                fov: SectorFov) -> CalibrationTable:
    """Sample the analytic map on a hardware-style calibration grid.

    Mirrors the pan/tilt characterization procedure (10 degree angular steps,
    1 bl radial steps from 1.5 bl) so the table-based pipeline can be
    exercised without hardware data.
    """
    dphi = math.radians(10.0)
    n_phi = int(math.floor(fov.half_angle / dphi))
    points, covs = [], []
    r = 1.5
    while r <= fov.range_bl + 1e-9:
        for k in range(-n_phi, n_phi + 1):
            phi = k * dphi
            points.append([r, phi])
            covs.append(cmap.variance(r, phi) * EYE2)
        r += 1.0
    return CalibrationTable(np.array(points), np.array(covs))
