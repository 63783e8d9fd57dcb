"""Tests for the 2x2 Gaussian-estimate primitives.

The fusion oracle below is an independent implementation using
numpy.linalg.inv on stacked matrices; the library must match it to 1e-9
over a large randomized sample of well-conditioned inputs.
"""

import numpy as np
import pytest

from pherotrack.estimation import (EPS_INV, GaussianEstimate,
                                   SingularCovarianceError, _inv_entries,
                                   entropy, flat_entropy, fuse, fuse_stacked,
                                   inv2, propagate, to_flat)
from pherotrack.sensing import CalibrationTable


def random_pd(rng, floor=0.01):
    m = rng.standard_normal((2, 2))
    return m @ m.T + floor * np.eye(2)


def naive_fuse(a_mean, a_cov, b_mean, b_cov):
    ia = np.linalg.inv(a_cov)
    ib = np.linalg.inv(b_cov)
    cov = np.linalg.inv(ia + ib)
    mean = cov @ (ia @ a_mean + ib @ b_mean)
    return mean, cov


def flat(mean, cov):
    """A flat (mean, cov) pair, as the tracker holds estimates."""
    return to_flat(GaussianEstimate(mean, cov))


def test_fusion_matches_naive_oracle_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a_mean, a_cov = rng.standard_normal(2) * 5, random_pd(rng)
        b_mean, b_cov = rng.standard_normal(2) * 5, random_pd(rng)
        mean, cov = fuse(*flat(a_mean, a_cov), *flat(b_mean, b_cov))
        want_mean, want_cov = naive_fuse(a_mean, a_cov, b_mean, b_cov)
        assert np.allclose(mean, want_mean, atol=1e-9, rtol=0)
        assert np.allclose(cov, want_cov.ravel(), atol=1e-9, rtol=0)


def test_fusion_never_increases_entropy():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = flat(rng.standard_normal(2), random_pd(rng))
        b = flat(rng.standard_normal(2), random_pd(rng))
        _, cov = fuse(*a, *b)
        assert flat_entropy(cov) <= min(flat_entropy(a[1]),
                                        flat_entropy(b[1])) + 1e-12


def test_fusion_is_symmetric():
    rng = np.random.default_rng(13)
    a = flat(rng.standard_normal(2), random_pd(rng))
    b = flat(rng.standard_normal(2), random_pd(rng))
    ab = fuse(*a, *b)
    ba = fuse(*b, *a)
    assert np.allclose(ab[0], ba[0], atol=1e-12)
    assert np.allclose(ab[1], ba[1], atol=1e-12)


def test_fusion_of_equal_estimates_halves_covariance():
    e = ((1.0, -2.0), (2.0, 0.0, 0.0, 2.0))
    mean, cov = fuse(*e, *e)
    assert type(mean) is tuple and type(cov) is tuple
    assert np.allclose(mean, [1.0, -2.0])
    assert np.allclose(cov, [1.0, 0.0, 0.0, 1.0])


def test_inv2_matches_numpy_and_guards_singularity():
    rng = np.random.default_rng(17)
    for _ in range(200):
        c = random_pd(rng)
        assert np.allclose(inv2(c), np.linalg.inv(c), atol=1e-9)
    with pytest.raises(SingularCovarianceError):
        inv2(np.zeros((2, 2)))
    with pytest.raises(SingularCovarianceError):
        inv2(np.eye(2) * EPS_INV)


def test_stacked_kernels_match_single_matrix_kernels_bit_for_bit():
    rng = np.random.default_rng(29)
    k = 200
    a_mean, b_mean = rng.standard_normal((2, k, 2)) * 5
    a_cov = np.array([random_pd(rng) for _ in range(k)])
    b_cov = np.array([random_pd(rng) for _ in range(k)])
    inv = inv2(a_cov)
    mean, cov = fuse_stacked(a_mean, a_cov, b_mean, b_cov)
    for i in range(k):
        # The float kernel fuse() inverts with.
        want = _inv_entries(*a_cov[i].ravel().tolist())
        assert inv[i].tobytes() == np.array(want).tobytes()
        want_mean, want_cov = fuse(*flat(a_mean[i], a_cov[i]),
                                   *flat(b_mean[i], b_cov[i]))
        assert mean[i].tobytes() == np.array(want_mean).tobytes()
        assert cov[i].tobytes() == np.array(want_cov).tobytes()
    b_cov[k // 2] = 0.0
    with pytest.raises(SingularCovarianceError):
        fuse_stacked(a_mean, a_cov, b_mean, b_cov)


def test_fuse_raises_on_singular_input():
    good = ((0.0, 0.0), (1.0, 0.0, 0.0, 1.0))
    bad = ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(SingularCovarianceError):
        fuse(*good, *bad)
    with pytest.raises(SingularCovarianceError):
        fuse(*bad, *good)


def test_propagate_shifts_mean_and_grows_covariance():
    mean, cov = propagate((1.0, 1.0), (1.0, 0.0, 0.0, 1.0), (0.5, -0.5),
                          (0.01, 0.0, 0.0, 0.01))
    assert mean == (1.5, 0.5)
    assert cov == (1.01, 0.0, 0.0, 1.01)
    # The bits numpy gives on the same arrays, signed zeros included.
    rng = np.random.default_rng(31)
    for _ in range(200):
        m, d = rng.standard_normal((2, 2))
        c, g = random_pd(rng), random_pd(rng)
        d[int(rng.integers(2))] = rng.choice([0.0, -0.0])
        got = propagate(*flat(m, c), tuple(d.tolist()),
                        tuple(g.ravel().tolist()))
        want = flat(m + d, c + g)
        for x, y in zip(got, want):
            assert np.array(x).tobytes() == np.array(y).tobytes()


def test_entropy_is_determinant():
    assert entropy(np.eye(2)) == 1.0
    assert entropy([[2.0, 0.0], [0.0, 3.0]]) == 6.0
    assert entropy([[1.0, 1.0], [1.0, 1.0]]) == 0.0


def test_check_cov_validation():
    # A covariance from outside the program enters as a calibration sample,
    # which the table checks on a one-sample table.
    one = np.array([[1.0, 0.0]])
    table = CalibrationTable(one, np.eye(2))
    assert np.array_equal(table.covs[0], np.eye(2))
    with pytest.raises(ValueError):
        CalibrationTable(one, np.eye(3))
    with pytest.raises(ValueError):
        CalibrationTable(one, [[1.0, 0.5], [0.0, 1.0]])       # asymmetric
    with pytest.raises(ValueError):
        CalibrationTable(one, [[1.0, 0.0], [0.0, -1.0]])      # indefinite


def test_estimate_converts_only_what_is_not_float64_of_its_shape():
    m, c = np.array([1.0, 2.0]), np.eye(2)
    e = GaussianEstimate(m, c)
    assert e.mean is m and e.cov is c
    for mean, cov in (([1, 2], [[1, 0], [0, 1]]),
                      (np.array([[1.0, 2.0]]), np.eye(2).ravel()),
                      (np.array([1.0, 2.0], dtype=np.float32), c)):
        e = GaussianEstimate(mean, cov)
        assert e.mean.dtype == np.float64 and e.mean.shape == (2,)
        assert e.cov.dtype == np.float64 and e.cov.shape == (2, 2)
        assert np.array_equal(e.mean, [1.0, 2.0])
        assert np.array_equal(e.cov, np.eye(2))
