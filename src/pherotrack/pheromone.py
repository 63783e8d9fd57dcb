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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.signal import fftconvolve

from .estimation import EYE2

# Covariances whose largest entry is below this are treated as delta kernels.
_DELTA_COV_TOL = 1e-12
# Cells within this of the minimum count as argmin ties.
ARGMIN_TOL = 1e-9


# Columns of a deposit row: position (x, y), covariance entries (c00, c01,
# c10, c11) and weight.
_ROW_WIDTH = 7
_WEIGHT = 6


@dataclass
class PheromoneList:
    """Deposits of one owner, one row each (see ``_ROW_WIDTH``).

    ``rows`` is never changed in place: every update builds a new array, so
    a broadcast snapshot (:meth:`copy`) shares it with the list it was taken
    from.
    """

    owner: int
    rows: np.ndarray = field(
        default_factory=lambda: np.empty((0, _ROW_WIDTH)))

    def __len__(self):
        return len(self.rows)

    @property
    def positions(self):
        return self.rows[:, :2]

    @property
    def covs(self):
        return self.rows[:, 2:6].reshape(-1, 2, 2)

    @property
    def weights(self):
        return self.rows[:, _WEIGHT]

    def delta_only(self) -> bool:
        """Whether every deposit's covariance is negligible (delta kernel)."""
        return not len(self.rows) \
            or np.abs(self.rows[:, 2:6]).max() <= _DELTA_COV_TOL

    def append(self, position, cov, weight):
        self.rows = np.vstack([self.rows, _row(position, cov, weight)])

    def copy(self):
        """A list of the same deposits; shares ``rows``, which nothing
        changes in place."""
        return PheromoneList(self.owner, self.rows)


def _row(position, cov, weight):
    return np.concatenate((np.ravel(position), np.ravel(cov), (weight,)))


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

    def max_list_length(self):
        return self._max_list_length

    @cached_property
    def _max_list_length(self):
        # A deposit survives until w_init (1 - decay)^n <= floor.
        return int(math.ceil(math.log(self.w_floor / self.w_init)
                             / math.log(1.0 - self.w_decay))) + 1


@dataclass
class GridGeometry:
    """Square raster centered on the agent, covering B(0, radius).

    The cell-center grids and ball masks are built on first use and shared
    read-only by every caller.
    """

    radius: float
    cell_size: float = 0.25

    def __post_init__(self):
        self.n = int(math.ceil(2.0 * self.radius / self.cell_size))
        # Cell-center coordinates along one axis.
        self.coords = (np.arange(self.n) + 0.5) * self.cell_size - self.radius
        self._ball_masks = {}

    def centers(self):
        return self._centers

    @cached_property
    def _centers(self):
        xs, ys = np.meshgrid(self.coords, self.coords, indexing="ij")
        return _read_only(xs), _read_only(ys)

    def in_ball_mask(self, r=None):
        """Cells whose centers lie within ``r`` of the origin; ``r`` is the
        grid radius when omitted and never exceeds it."""
        r = self.radius if r is None else min(r, self.radius)
        mask = self._ball_masks.get(r)
        if mask is None:
            xs, ys = self.centers()
            mask = self._ball_masks[r] = _read_only(xs ** 2 + ys ** 2
                                                    <= r ** 2)
        return mask

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


def update_pheromones(own: PheromoneList, neighbor_lists: dict, rx_packets,
                      shift, sigma_shift, cfg: PheromoneConfig):
    """One pheromone storage round.

    Own deposits shift with the agent, grow in uncertainty, decay, and die at
    the floor; a fresh deposit marks the previously-visited point (which is
    exactly ``shift`` in the current frame).  Received lists replace the
    stored neighbor list, converted into the local frame via the supplied
    sender offset; silent neighbors' lists decay and are shifted so every
    stored position stays expressed in the current local frame.

    ``rx_packets`` is a list of (sender_id, PheromoneList, offset) where
    ``offset`` is the sender's relative position in the local frame.
    Mutates ``own`` and ``neighbor_lists`` in place.
    """
    # One round scales a row by ``scale`` (the weight decays), then adds
    # ``growth`` (the shift to the position, its covariance to the
    # covariance).  A product with 1.0 and a sum with -0.0 change no bits.
    scale = np.array((1.0,) * _WEIGHT + (1.0 - cfg.w_decay,))
    growth = _row(shift, sigma_shift, -0.0)
    fresh = growth.copy()
    fresh[_WEIGHT] = cfg.w_init
    own.rows = np.concatenate((_decayed(own.rows, scale, growth, cfg),
                               fresh[None]))

    heard_from = set()
    for sender, plist, offset in rx_packets:
        heard_from.add(sender)
        rows = plist.rows.copy()
        rows[:, :2] += offset
        neighbor_lists[sender] = PheromoneList(plist.owner, rows)

    for nid, plist in neighbor_lists.items():
        if nid not in heard_from and len(plist):
            plist.rows = _decayed(plist.rows, scale, growth, cfg)


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
    xs, ys = geometry.centers()
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
    inv = np.linalg.inv(cov + EYE2 * 1e-12)
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


def delta_map(positions, weights, footprint_radius: float,
              geometry: GridGeometry) -> PheromoneGrid:
    """Fast map build for delta-kernel (zero-covariance) deposits.

    Equivalent to :func:`build_map` over :func:`diffuse_region` outputs when
    every covariance is negligible, but stamps only the window of cells each
    disk can touch.  Weights must be finite and nonnegative.
    """
    # A cell-wise max of constant weights does not depend on the order the
    # disks are stamped in, and disks at one position differ only in weight,
    # so only the largest counts (a parked agent leaves many such deposits).
    strongest = {}
    for point, w in zip(
            map(tuple, np.asarray(positions, dtype=float).reshape(-1, 2)
                .tolist()),
            np.asarray(weights, dtype=float).tolist()):
        if w > strongest.get(point, -math.inf):
            strongest[point] = w

    n = geometry.n
    half = int(math.ceil(footprint_radius / geometry.cell_size)) + 1
    width = 2 * half + 1
    # Windows are width x width cells centered on the cell holding the
    # deposit, on a raster padded by ``half`` cells per side so that every
    # window fits.  The padding is cropped off at the end, so what is
    # stamped there, and the coordinates it is given, do not matter.
    coords = np.pad(geometry.coords, half)
    corner = np.array([geometry.index_of(p) for p in strongest],
                      dtype=np.intp).reshape(-1, 2)
    centers = np.array(list(strongest)).reshape(-1, 2)
    d2 = (coords[corner[:, :, None] + np.arange(width)]
          - centers[:, :, None]) ** 2
    stamps = d2[:, 0, :, None] + d2[:, 1, None, :]
    # True * w is w and False * w is +0.0.
    np.multiply(stamps <= footprint_radius ** 2,
                np.array(list(strongest.values()))[:, None, None],
                out=stamps)
    padded = np.zeros((n + 2 * half, n + 2 * half))
    for (i, j), stamp in zip(corner.tolist(), stamps):
        window = padded[i:i + width, j:j + width]
        np.maximum(window, stamp, out=window)
    return PheromoneGrid(geometry, padded[half:-half, half:-half].copy())


def pheromone_value_at(point, positions, weights, footprint_radius: float,
                       geometry: GridGeometry) -> float:
    """Map value at one point for delta-kernel deposits, without a raster.

    Evaluates at the containing cell's center so the result matches
    ``delta_map(...).value_at(point)`` exactly.
    """
    if len(weights) == 0:
        return 0.0
    i, j = geometry.index_of(point)
    center = np.array([geometry.coords[i], geometry.coords[j]])
    d2 = ((positions - center) ** 2).sum(axis=1)
    hit = d2 <= footprint_radius ** 2
    return float(weights[hit].max()) if hit.any() else 0.0


def exploration_waypoint(grid: PheromoneGrid, carried, shift, r_c: float,
                         q_star: float, rng, valid=None):
    """Exploration waypoint: head for the least-visited cell nearby.

    ``carried`` is the previous (waypoint, stored weight) pair or None.  The
    carried waypoint shifts with the agent and is kept unless the agent has
    (nearly) reached it, the map value at it has risen above the stored
    weight, or it drifted outside the search ball; then a fresh waypoint is
    drawn uniformly among the minimum-weight cells within B(0, r_c).

    ``valid`` is an optional boolean cell mask restricting candidate cells
    (used to keep waypoints inside the physical domain).

    Returns (waypoint, stored weight).
    """
    shift = np.asarray(shift, dtype=float).reshape(2)
    recompute = carried is None
    if not recompute:
        wp = carried[0] + shift
        norm = math.hypot(wp[0], wp[1])
        if norm < q_star or norm > r_c:
            recompute = True
        elif valid is not None and not valid[grid.geometry.index_of(wp)]:
            recompute = True
        elif grid.value_at(wp) > carried[1] + ARGMIN_TOL:
            recompute = True

    if not recompute:
        return wp, grid.value_at(wp)

    geom = grid.geometry
    mask = geom.in_ball_mask(r_c)
    if valid is not None:
        mask = mask & valid
        if not mask.any():
            mask = geom.in_ball_mask(r_c)
    vals = np.where(mask, grid.weights, np.inf)
    vmin = vals.min()
    ties = np.argwhere(vals <= vmin + ARGMIN_TOL)
    pick = ties[rng.integers(len(ties))]
    wp = np.array([geom.coords[pick[0]], geom.coords[pick[1]]])
    return wp, float(grid.weights[pick[0], pick[1]])

