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
# identically either way, so both give the same bits.  A single matrix times
# a vector goes through :func:`matvec2`, which rounds each row as one fused
# multiply-add, the rule numpy's matmul follows with its OpenBLAS; a plain
# a*x + b*y rounds twice and differs in the last bit on about a quarter of
# rows.

# Dekker's splitting constant, 2**27 + 1: it cuts a float into two halves
# whose products are exact.
_SPLIT = 134217729.0


def _fma(a, x, q):
    # a*x + q rounded once: the product's rounding error is split off
    # exactly, then fsum rounds the three-term sum correctly.  A zero sum is
    # +0.0, as fsum gives it and as numpy's gemv, which adds each row into a
    # zeroed output, leaves it.
    p = a * x
    if q == 0.0:
        return 0.0 + (p + q)
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * x
    xh = t - (t - x)
    al, xl = a - ah, x - xh
    err = ((ah * xh - p) + ah * xl + al * xh) + al * xl
    return math.fsum((p, err, q))


def matvec2(m, v):
    """Flat 2x2 ``m = (a, b, c, d)`` times ``v = (x, y)``, as a tuple.

    Each row is ``fma(a, x, b*y)``: the second product rounded, then added
    to the exact first one with a single rounding; a zero row is +0.0.
    These are the bits ``np.matmul`` gives for one 2x2 matrix and vector
    with the OpenBLAS (Haswell gemv kernel) that numpy ships, computed
    without numpy, so they no longer depend on which kernel numpy
    dispatches.  Exact for finite entries below 2**995 in magnitude (the
    split must not overflow) whose nonzero products a*x are at least
    2**-969 (their rounding error must itself be a float).
    """
    a, b, c, d = m
    x, y = v
    return _fma(a, x, b * y), _fma(c, x, d * y)


_SINGULAR = f"covariance with min eigenvalue <= {EPS_INV} cannot be inverted"


def _checked_inverse(c00, c01, c10, c11):
    # The inverse's entries, once the smallest eigenvalue (of a symmetric
    # 2x2, without eigvalsh) clears EPS_INV.
    half_tr = 0.5 * (c00 + c11)
    det = c00 * c11 - c01 * c10
    if half_tr - math.sqrt(max(half_tr * half_tr - det, 0.0)) <= EPS_INV:
        raise SingularCovarianceError(_SINGULAR)
    return c11 / det, -c01 / det, -c10 / det, c00 / det


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
        # _checked_inverse's test, one array pass over the stack.
        c00, c01, c10, c11 = entries
        half_tr = 0.5 * (c00 + c11)
        det = c00 * c11 - c01 * c10
        min_eig = half_tr - np.sqrt(np.maximum(half_tr * half_tr - det, 0.0))
        if (min_eig <= EPS_INV).any():
            raise SingularCovarianceError(_SINGULAR)
    # Written through the transpose of a C-contiguous buffer, so the result
    # is C-contiguous.
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
    ia = _checked_inverse(*a_cov)
    ib = _checked_inverse(*b_cov)
    cov = _inv_entries(*add4(ia, ib))
    return matvec2(cov, add2(matvec2(ia, a_mean), matvec2(ib, b_mean))), cov


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
