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

# The 2x2 identity, shared read-only; build scaled copies with ``s * EYE2``.
EYE2 = np.eye(2)
EYE2.flags.writeable = False


class SingularCovarianceError(ValueError):
    """A covariance could not be inverted safely.

    Usually signals a missing noise floor upstream, e.g. a sensor model that
    produced an exactly-zero covariance at its optimum.
    """


@dataclass
class GaussianEstimate:
    """Relative-position mean with its 2x2 covariance, built from anything
    numpy reads as two and four floats and held as the tracker's flat pair:
    ``mean`` the tuple ``(x, y)`` and ``cov`` ``(c00, c01, c10, c11)``."""

    mean: tuple
    cov: tuple

    def __post_init__(self):
        x, y = np.asarray(self.mean, float).ravel().tolist()
        c00, c01, c10, c11 = np.asarray(self.cov, float).ravel().tolist()
        self.mean, self.cov = (x, y), (c00, c01, c10, c11)


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


def inv2(c, check=True):
    """Closed-form inverse of a stack of 2x2 matrices (..., 2, 2).

    With ``check`` (the default) every matrix must be safely invertible;
    sums of inverses of checked covariances need no second check.

    Raises:
        SingularCovarianceError: if a smallest eigenvalue is at or below
            ``EPS_INV``.
    """
    c = np.asarray(c, dtype=float)
    entries = c.reshape(-1, 4).T
    if check:
        _check_invertible(*entries)
    # Written through the transpose of a C-contiguous buffer, so the result
    # is C-contiguous: np.matmul picks its kernel, and so its rounding, by
    # memory layout.
    out = np.empty((len(entries[0]), 4))
    rows = out.T
    rows[0], rows[1], rows[2], rows[3] = _inv_entries(*entries)
    return out.reshape(c.shape)


def fuse(a_mean, a_cov, b_mean, b_cov):
    """Information-form (error-ellipse) fusion of two independent estimates,
    each a flat ``(mean, cov)`` pair; returns the fused pair.

    cov  = (A^-1 + B^-1)^-1
    mean = cov (A^-1 a + B^-1 b)

    The result's determinant never exceeds that of either input.
    """
    _check_invertible(*a_cov)
    ia = _inv_entries(*a_cov)
    _check_invertible(*b_cov)
    ib = _inv_entries(*b_cov)
    cov = _inv_entries(ia[0] + ib[0], ia[1] + ib[1],
                       ia[2] + ib[2], ia[3] + ib[3])
    info = (np.array(((ia[0], ia[1]), (ia[2], ia[3]))) @ np.array(a_mean)
            + np.array(((ib[0], ib[1]), (ib[2], ib[3]))) @ np.array(b_mean))
    mean = np.array(((cov[0], cov[1]), (cov[2], cov[3]))) @ info
    return tuple(mean.tolist()), cov


def info_form(mean, cov):
    """Inverse covariances and information vectors (K, 2, 1) of a stack.

    Row by row these do not depend on the rest of the stack, so the second
    operands of many :func:`fuse_informed` calls can be formed in one go.
    """
    inv = inv2(cov)
    return inv, np.matmul(inv, mean[..., None])


def fuse_informed(a_mean, a_cov, ib, ib_b):
    """:func:`fuse` applied row by row to stacks (K, 2) and (K, 2, 2), with
    the second operand in :func:`info_form`.

    Returns the fused (means, covs); every row has the bits :func:`fuse`
    gives for that pair.
    """
    ia, ia_a = info_form(a_mean, a_cov)
    cov = inv2(ia + ib, check=False)
    return np.matmul(cov, ia_a + ib_b)[..., 0], cov


def entropy(cov) -> float:
    """Scalar uncertainty of a covariance: its determinant (bl^4)."""
    (c00, c01), (c10, c11) = np.asarray(cov, dtype=float).tolist()
    return c00 * c11 - c01 * c10


# The tracker holds every estimate (target records, neighbor positions,
# fused results) as a flat pair: its mean as a tuple ``(x, y)`` and its
# covariance as the tuple of its entries ``(c00, c01, c10, c11)``, all
# Python floats.  The helpers below give the
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


def propagate(mean, cov, shift, growth):
    """Shift a mean and grow its covariance (prediction under agent motion).

    ``shift`` is the frame shift p(t-1) - p(t) for quantities stored relative
    to the moving agent; ``growth`` is the additive process-noise bound.
    """
    return add2(mean, shift), add4(cov, growth)


def scaled_eye(s):
    """Flat ``s * EYE2``: its off-diagonal zeros are ``s * 0.0``."""
    return (s * 1.0, s * 0.0, s * 0.0, s * 1.0)
