"""Virtual pheromone storage, diffusion, mapping, and exploration waypoints.

Pheromone deposits are (position, covariance, weight) triples, stored one
row per deposit and kept in the depositing agent's local frame.  Received neighbor deposits are converted
into the local frame at receipt (using the fused neighbor relative position)
so that every stored position can be shifted uniformly with agent motion.

The rasterized map covers the ball of radius ``r_c`` around the agent; a
cell's value is the maximum weight of any diffused deposit region covering
it, and exploration steers toward the least-weighted (least recently
visited) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import fftconvolve

from .estimation import EYE2, inv2

# Covariances whose largest entry is below this are treated as delta kernels.
_DELTA_COV_TOL = 1e-12
# Cells within this of the minimum count as argmin ties.
ARGMIN_TOL = 1e-9


# Columns of a deposit row: position (x, y), covariance entries (c00, c01,
# c10, c11) and weight.  A deposit list is a (K, 7) array of rows that is
# never changed in place: every update builds a new array, so a broadcast
# packet can carry its sender's array as it is.
_ROW_WIDTH = 7
_WEIGHT = 6


def no_deposits():
    """An empty deposit list."""
    return np.empty((0, _ROW_WIDTH))


def delta_only(rows) -> bool:
    """Whether every deposit's covariance is negligible (delta kernel)."""
    return not len(rows) or np.abs(rows[:, 2:6]).max() <= _DELTA_COV_TOL


@dataclass
class PheromoneConfig:
    w_init: float = 35.0
    w_decay: float = 0.16          # fractional decay per step
    w_floor: float = 0.1           # deposits at or below this are deleted
    footprint_radius: float = 4.0  # disk radius of a deposit's region (bl)

    def __post_init__(self):
        if not (0 < self.w_decay < 1):
            raise ValueError("decay rate must be in (0, 1)")
        if not (0 < self.w_floor < self.w_init):
            raise ValueError("need 0 < floor < initial weight")

    @cached_property
    def max_list_length(self):
        # A deposit survives until w_init (1 - decay)^n <= floor.
        return int(math.ceil(math.log(self.w_floor / self.w_init)
                             / math.log(1.0 - self.w_decay))) + 1


@dataclass
class GridGeometry:
    """Square raster centered on the agent, covering B(0, radius).

    The cell-center grids and the ball mask are built on first use and
    shared read-only by every caller.
    """

    radius: float
    cell_size: float = 0.25

    def __post_init__(self):
        self.n = int(math.ceil(2.0 * self.radius / self.cell_size))
        # Cell-center coordinates along one axis.
        self.coords = (np.arange(self.n) + 0.5) * self.cell_size - self.radius

    @cached_property
    def centers(self):
        xs, ys = np.meshgrid(self.coords, self.coords, indexing="ij")
        return _read_only(xs), _read_only(ys)

    @cached_property
    def in_ball_mask(self):
        """Cells whose centers lie within the grid radius of the origin."""
        xs, ys = self.centers
        return _read_only(xs ** 2 + ys ** 2 <= self.radius ** 2)

    def index_of(self, point):
        # min(max(x, 0), n - 1) is np.clip's rule for one float, and int()
        # raises the same ValueError on NaN.
        top = self.n - 1
        i = int(min(max((point[0] + self.radius) / self.cell_size, 0), top))
        j = int(min(max((point[1] + self.radius) / self.cell_size, 0), top))
        return i, j


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass
class PheromoneGrid:
    """Rasterized pheromone map on a :class:`GridGeometry`."""

    geometry: GridGeometry
    weights: np.ndarray

    def value_at(self, point) -> float:
        """Map value at the cell containing ``point``."""
        i, j = self.geometry.index_of(point)
        return float(self.weights[i, j])

    def to_pgm(self, path):
        """Dump as a plain-text portable graymap, weights scaled x1000."""
        vals = (self.weights * 1000.0).astype(int)
        maxval = max(1, int(vals.max()))
        with open(path, "w") as f:
            f.write(f"P2\n{self.weights.shape[1]} {self.weights.shape[0]}\n{maxval}\n")
            for row in vals:
                f.write(" ".join(str(v) for v in row) + "\n")


def update_pheromones(own, neighbor_lists: dict, rx_packets, shift,
                      sigma_shift, cfg: PheromoneConfig):
    """One pheromone storage round.

    Own deposits shift with the agent, grow in uncertainty, decay, and die at
    the floor; a fresh deposit marks the previously-visited point (which is
    exactly ``shift`` in the current frame).  Received lists replace the
    stored neighbor list, converted into the local frame via the supplied
    sender offset; silent neighbors' lists decay and are shifted so every
    stored position stays expressed in the current local frame.

    ``own`` and the values of ``neighbor_lists`` (sender id -> rows) are
    deposit lists.  ``rx_packets`` is a list of (sender_id, rows, offset)
    where ``offset`` is the sender's relative position in the local frame.
    Returns the new own rows and replaces entries of ``neighbor_lists``.
    """
    # One round scales a row by ``scale`` (the weight decays), then adds
    # ``growth`` (the shift to the position, its covariance to the
    # covariance).  A product with 1.0 and a sum with -0.0 change no bits.
    scale = np.array((1.0,) * _WEIGHT + (1.0 - cfg.w_decay,))
    growth = np.concatenate((np.ravel(shift), np.ravel(sigma_shift), (-0.0,)))
    fresh = growth.copy()
    fresh[_WEIGHT] = cfg.w_init

    heard_from = set()
    for sender, rows, offset in rx_packets:
        heard_from.add(sender)
        rows = rows.copy()
        rows[:, :2] += offset
        neighbor_lists[sender] = rows

    for nid, rows in neighbor_lists.items():
        if nid not in heard_from and len(rows):
            neighbor_lists[nid] = _decayed(rows, scale, growth, cfg)
    return np.concatenate((_decayed(own, scale, growth, cfg), fresh[None]))


def _decayed(rows, scale, growth, cfg: PheromoneConfig):
    """``rows`` after one round, without the deposits at or below the
    floor."""
    out = rows * scale
    out += growth
    return out.compress(out[:, _WEIGHT] > cfg.w_floor, axis=0)


def diffuse_region(position, cov, weight, footprint_radius: float,
                   geometry: GridGeometry) -> np.ndarray:
    """Rasterize the diffused region of one (position, cov, weight) deposit.

    The region is the disk of ``footprint_radius`` around the deposit,
    convolved with a Gaussian kernel of the deposit's covariance (truncated
    at 3 sigma) and rescaled so the peak equals the deposit weight.  With a
    negligible covariance this is exactly a weight-high plateau on the disk.
    """
    if footprint_radius <= 0:
        raise ValueError("footprint radius must be positive")
    xs, ys = geometry.centers
    dx = xs - position[0]
    dy = ys - position[1]
    disk = (dx ** 2 + dy ** 2 <= footprint_radius ** 2).astype(float)

    if np.abs(cov).max() <= _DELTA_COV_TOL:
        return weight * disk
    if not disk.any():
        return np.zeros_like(disk)

    sig_max = math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))
    half = max(1, int(math.ceil(3.0 * sig_max / geometry.cell_size)))
    ax = np.arange(-half, half + 1) * geometry.cell_size
    kx, ky = np.meshgrid(ax, ax, indexing="ij")
    # The jitter keeps a singular odometry covariance invertible.
    inv = inv2(cov + EYE2 * 1e-12, check=False)
    quad = inv[0, 0] * kx ** 2 + 2 * inv[0, 1] * kx * ky + inv[1, 1] * ky ** 2
    kernel = np.exp(-0.5 * quad)
    kernel[quad > 9.0] = 0.0  # truncate at 3 sigma (Mahalanobis)

    out = fftconvolve(disk, kernel, mode="same")
    peak = out.max()
    if peak > 0:
        out *= weight / peak
    np.clip(out, 0.0, None, out=out)
    return out


def build_map(regions, geometry: GridGeometry) -> PheromoneGrid:
    """Cell-wise maximum of diffused regions; empty input gives a zero map."""
    weights = np.zeros((geometry.n, geometry.n))
    for region in regions:
        if region.shape != weights.shape:
            raise ValueError(
                f"region shape {region.shape} does not match grid {weights.shape}"
            )
        np.maximum(weights, region, out=weights)
    return PheromoneGrid(geometry, weights)


def deposit_map(rows, footprint_radius: float,
                geometry: GridGeometry) -> PheromoneGrid:
    """The map of a deposit list: stamped disks when every deposit is a
    delta kernel, else the maximum of every deposit's diffused region."""
    positions, weights = rows[:, :2], rows[:, _WEIGHT]
    if delta_only(rows):
        return delta_map(positions, weights, footprint_radius, geometry)
    return build_map([diffuse_region(p, c, w, footprint_radius, geometry)
                      for p, c, w in zip(positions,
                                         rows[:, 2:6].reshape(-1, 2, 2),
                                         weights)], geometry)


def delta_map(positions, weights, footprint_radius: float,
              geometry: GridGeometry) -> PheromoneGrid:
    """Fast map build for delta-kernel (zero-covariance) deposits.

    Equivalent to :func:`build_map` over :func:`diffuse_region` outputs when
    every covariance is negligible, but stamps only the window of cells each
    disk can touch.  Weights must be finite and nonnegative.

    Each disk is painted with its weight over what is already there, in
    ascending weight order, so every cell ends at the largest weight of the
    disks covering it: the cell-wise maximum, whatever order the deposits
    come in.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    unplaceable = np.isnan(positions).any(axis=1)
    if unplaceable.any():
        # Raises int()'s ValueError, before any array cast can warn.
        geometry.index_of(positions[unplaceable.argmax()])

    # Disks at one position differ only in weight, so only the largest
    # counts (a parked agent leaves many such deposits): sorted by position
    # and then weight, the last row of each position is its strongest.
    x, y = positions.T
    order = np.lexsort((weights, y, x))
    last = np.ones(len(order), dtype=bool)
    np.logical_or(x[order[1:]] != x[order[:-1]],
                  y[order[1:]] != y[order[:-1]], out=last[:-1])
    strongest = order[last]
    strongest = strongest[np.argsort(weights[strongest], kind="stable")]
    centers = positions[strongest]

    n = geometry.n
    # Windows are width x width cells centered on the cell holding the
    # deposit (clipped into the grid like GridGeometry.index_of).  A cell
    # ``half`` + 1 or more cells from that one is at least r + cell / 2 from
    # the deposit, so no disk reaches past its window.  The raster is padded
    # by ``half`` cells per side so that every window fits; the padding is
    # cropped off.
    half = int(math.ceil(footprint_radius / geometry.cell_size))
    width = 2 * half + 1
    coords = ((np.arange(-half, n + half) + 0.5) * geometry.cell_size
              - geometry.radius)
    corner = (centers + geometry.radius) / geometry.cell_size
    np.clip(corner, 0, n - 1, out=corner)
    corner = corner.astype(np.intp)
    d2 = (coords[corner[:, :, None] + np.arange(width)]
          - centers[:, :, None]) ** 2
    # disks[a, k, b]: whether window cell (a, b) is in deposit k's disk.
    # sums[a, k * width + b] = d2[k, 0, a] + d2[k, 1, b] is the cell's
    # squared distance.  Repeating the row terms along b first makes the
    # add one long pass per window row, not one short one per (k, a).
    sums = np.repeat(d2[:, 0, :].T, width, axis=1)
    sums += d2[:, 1, :].reshape(1, -1)
    disks = (sums <= footprint_radius ** 2).reshape(width, -1, width)

    padded = np.zeros((n + 2 * half, n + 2 * half))
    for (i, j), w, disk in zip(corner.tolist(), weights[strongest].tolist(),
                               disks.transpose(1, 0, 2)):
        np.copyto(padded[i:i + width, j:j + width], w, where=disk)
    return PheromoneGrid(geometry, padded[half:-half, half:-half].copy())


def pheromone_value_at(point, rows, footprint_radius: float,
                       geometry: GridGeometry) -> float:
    """Map value at one point for delta-kernel deposit rows, without a
    raster.

    Evaluates at the containing cell's center so the result matches
    ``deposit_map(...).value_at(point)`` exactly.
    """
    if len(rows) == 0:
        return 0.0
    i, j = geometry.index_of(point)
    center = np.array([geometry.coords[i], geometry.coords[j]])
    d2 = ((rows[:, :2] - center) ** 2).sum(axis=1)
    hit = d2 <= footprint_radius ** 2
    return float(rows[hit, _WEIGHT].max()) if hit.any() else 0.0


def exploration_waypoint(grid: PheromoneGrid, rng, valid=None):
    """Exploration waypoint: a least-visited cell within the search ball.

    Draws uniformly among the minimum-weight cells of B(0, r_c), the grid's
    radius.  ``valid`` is an optional boolean cell mask restricting the
    candidates (used to keep waypoints inside the physical domain); it is
    ignored when it rules out every cell of the ball.

    Returns (waypoint, its weight).
    """
    geom = grid.geometry
    mask = geom.in_ball_mask
    if valid is not None:
        restricted = mask & valid
        if restricted.any():
            mask = restricted
    vals = np.where(mask, grid.weights, np.inf).ravel()
    # Row-major flat indices: the ties in np.argwhere's order.
    ties = np.flatnonzero(vals <= vals.min() + ARGMIN_TOL)
    pick = int(ties[rng.integers(len(ties))])
    i, j = divmod(pick, geom.n)
    wp = np.array([geom.coords[i], geom.coords[j]])
    return wp, float(grid.weights[i, j])
