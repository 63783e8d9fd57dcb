"""Shared 2x2 Gaussian-estimate primitives.

All positions are relative vectors expressed in the owning agent's local
frame, measured in body lengths (bl).  The local frame is translation-relative
but world-axis-aligned: it moves with the agent and never rotates, so
propagating a stored estimate under agent motion is a pure vector shift.

Covariances are 2x2 symmetric PSD matrices in bl^2; the scalar uncertainty
("entropy") of an estimate is the determinant of its covariance, in bl^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Eigenvalue floor below which a covariance counts as singular for inversion.
EPS_INV = 1e-9

_F64 = np.dtype(float)

# The 2x2 identity, shared read-only; build scaled copies with ``s * EYE2``.
EYE2 = np.eye(2)
EYE2.flags.writeable = False


class SingularCovarianceError(ValueError):
    """A covariance could not be inverted safely.

    Usually signals a missing noise floor upstream, e.g. a sensor model that
    produced an exactly-zero covariance at its optimum.
    """


def check_cov(c, tol=1e-9):
    """Validate that ``c`` is a symmetric PSD 2x2 matrix and return it.

    Symmetry is required within ``tol``; eigenvalues may dip to ``-tol`` to
    absorb round-off.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (2, 2):
        raise ValueError(f"expected 2x2 covariance, got shape {c.shape}")
    if abs(c[0, 1] - c[1, 0]) > tol:
        raise ValueError("covariance is not symmetric")
    if float(np.linalg.eigvalsh(c)[0]) < -tol:
        raise ValueError("covariance is not positive semi-definite")
    return c


@dataclass
class GaussianEstimate:
    """Relative-position mean with its 2x2 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        # Most estimates are built from fresh float64 arrays; only convert
        # (and reshape) what is not one already.
        m, c = self.mean, self.cov
        if not (type(m) is np.ndarray and m.dtype is _F64
                and m.shape == (2,)):
            self.mean = np.asarray(m, dtype=float).reshape(2)
        if not (type(c) is np.ndarray and c.dtype is _F64
                and c.shape == (2, 2)):
            self.cov = np.asarray(c, dtype=float).reshape(2, 2)

    def copy(self) -> "GaussianEstimate":
        return GaussianEstimate(self.mean.copy(), self.cov.copy())


# The 2x2 kernels below work on the four entries of a matrix.  The entries
# are Python floats for a single matrix, which skips numpy's per-call
# overhead, or arrays for a stack of matrices.  +, -, *, / and sqrt round
# identically either way, so both give the same bits.  Matrix-vector
# products always go through np.matmul, whose summation order differs from
# a plain a*x + b*y.


def _min_eig(c00, c01, c10, c11):
    # Smallest eigenvalue of a symmetric 2x2 without calling eigvalsh.
    half_tr = 0.5 * (c00 + c11)
    det = c00 * c11 - c01 * c10
    disc = half_tr * half_tr - det
    if isinstance(disc, np.ndarray):
        return half_tr - np.sqrt(np.maximum(disc, 0.0))
    return half_tr - math.sqrt(max(disc, 0.0))


def _check_invertible(c00, c01, c10, c11):
    bad = _min_eig(c00, c01, c10, c11) <= EPS_INV
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise SingularCovarianceError(
            f"covariance with min eigenvalue <= {EPS_INV} cannot be inverted")


def _inv_entries(c00, c01, c10, c11):
    det = c00 * c11 - c01 * c10
    return c11 / det, -c01 / det, -c10 / det, c00 / det


# Entry order of a flattened 2x2 inverse: the adjugate's, then its signs.
_ADJ = np.array([3, 1, 2, 0])
_ADJ_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def inv2(c, check=True):
    """Closed-form inverse of a 2x2 matrix or of a stack of them (..., 2, 2).

    With ``check`` (the default) every matrix must be safely invertible;
    sums of inverses of checked covariances need no second check.

    Raises:
        SingularCovarianceError: if a smallest eigenvalue is at or below
            ``EPS_INV``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        (c00, c01), (c10, c11) = c.tolist()
        if check:
            _check_invertible(c00, c01, c10, c11)
        i00, i01, i10, i11 = _inv_entries(c00, c01, c10, c11)
        return np.array(((i00, i01), (i10, i11)))
    flat = c.reshape(-1, 4)
    c00, c01, c10, c11 = flat.T
    if check:
        _check_invertible(c00, c01, c10, c11)
    det = c00 * c11 - c01 * c10
    # Multiplying by -1 is an exact negation, so each entry rounds as the
    # single-matrix path's -c01 / det does.  take() keeps the result
    # C-contiguous: np.matmul picks its kernel, and so its rounding, by
    # memory layout.
    out = flat.take(_ADJ, axis=1) * _ADJ_SIGN
    out /= det[:, None]
    return out.reshape(c.shape)


def fuse(a: GaussianEstimate, b: GaussianEstimate) -> GaussianEstimate:
    """Information-form (error-ellipse) fusion of two independent estimates.

    cov  = (A^-1 + B^-1)^-1
    mean = cov (A^-1 a + B^-1 b)

    The result's determinant never exceeds that of either input.
    """
    (a00, a01), (a10, a11) = a.cov.tolist()
    (b00, b01), (b10, b11) = b.cov.tolist()
    _check_invertible(a00, a01, a10, a11)
    ia = _inv_entries(a00, a01, a10, a11)
    _check_invertible(b00, b01, b10, b11)
    ib = _inv_entries(b00, b01, b10, b11)
    c00, c01, c10, c11 = _inv_entries(ia[0] + ib[0], ia[1] + ib[1],
                                      ia[2] + ib[2], ia[3] + ib[3])
    cov = np.array(((c00, c01), (c10, c11)))
    info = (np.array(((ia[0], ia[1]), (ia[2], ia[3]))) @ a.mean
            + np.array(((ib[0], ib[1]), (ib[2], ib[3]))) @ b.mean)
    return GaussianEstimate(cov @ info, cov)


def fuse_stacked(a_mean, a_cov, b_mean, b_cov):
    """:func:`fuse` applied row by row to stacks (K, 2) and (K, 2, 2).

    Returns the fused (means, covs); every row has the bits :func:`fuse`
    gives for that pair.
    """
    return fuse_informed(a_mean, a_cov, *info_form(b_mean, b_cov))


def info_form(mean, cov):
    """Inverse covariances and information vectors (K, 2, 1) of a stack.

    Row by row these do not depend on the rest of the stack, so the second
    operands of many :func:`fuse_informed` calls can be formed in one go.
    """
    inv = inv2(cov)
    return inv, np.matmul(inv, mean[..., None])


def fuse_informed(a_mean, a_cov, ib, ib_b):
    """:func:`fuse_stacked` with its second operand in :func:`info_form`."""
    ia, ia_a = info_form(a_mean, a_cov)
    cov = inv2(ia + ib, check=False)
    return np.matmul(cov, ia_a + ib_b)[..., 0], cov


def propagate(e: GaussianEstimate, shift, growth) -> GaussianEstimate:
    """Shift the mean and grow the covariance (prediction under agent motion).

    ``shift`` is the frame shift p(t-1) - p(t) for quantities stored relative
    to the moving agent; ``growth`` is the additive process-noise bound.
    """
    if not (type(shift) is np.ndarray and shift.dtype is _F64
            and shift.shape == (2,)):
        shift = np.asarray(shift, dtype=float).reshape(2)
    if not (type(growth) is np.ndarray and growth.dtype is _F64
            and growth.shape == (2, 2)):
        growth = np.asarray(growth, dtype=float).reshape(2, 2)
    return GaussianEstimate(e.mean + shift, e.cov + growth)


def entropy(cov) -> float:
    """Scalar uncertainty of a covariance: its determinant (bl^4)."""
    (c00, c01), (c10, c11) = np.asarray(cov, dtype=float).tolist()
    return c00 * c11 - c01 * c10


# Estimates held in bulk (target records, neighbor positions) keep their
# mean as a tuple ``(x, y)`` and their covariance as the tuple of its entries
# ``(c00, c01, c10, c11)``, all Python floats.  The helpers below give the
# bits numpy's elementwise ops give on the same arrays; sums keep every
# entry, zeros too, because -0.0 + 0.0 is +0.0.


def flat_entropy(c) -> float:
    """:func:`entropy` of a covariance given by its entries."""
    return c[0] * c[3] - c[1] * c[2]


def add2(a, b):
    """Entrywise sum of two means (or a mean and a shift)."""
    return (a[0] + b[0], a[1] + b[1])


def add4(a, b):
    """Entrywise sum of two flat covariances."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def scaled_eye(s):
    """Flat ``s * EYE2``: its off-diagonal zeros are ``s * 0.0``."""
    return (s * 1.0, s * 0.0, s * 0.0, s * 1.0)


def to_flat(e: GaussianEstimate):
    """(mean, cov) tuples of an estimate."""
    (c00, c01), (c10, c11) = e.cov.tolist()
    return tuple(e.mean.tolist()), (c00, c01, c10, c11)


def from_flat(mean, cov) -> GaussianEstimate:
    """An estimate with fresh arrays built from (mean, cov) tuples."""
    return GaussianEstimate(np.array(mean), np.array(cov).reshape(2, 2))
