"""Tests for the 2x2 Gaussian-estimate primitives.

The fusion oracle below is an independent implementation using
numpy.linalg.inv on stacked matrices; the library must match it to 1e-9
over a large randomized sample of well-conditioned inputs.
"""

import numpy as np
import pytest

from pherotrack.estimation import (EPS_INV, GaussianEstimate,
                                   SingularCovarianceError, check_cov,
                                   _inv_entries, entropy, fuse,
                                   fuse_stacked, inv2, propagate)


def random_pd(rng, floor=0.01):
    m = rng.standard_normal((2, 2))
    return m @ m.T + floor * np.eye(2)


def naive_fuse(a_mean, a_cov, b_mean, b_cov):
    ia = np.linalg.inv(a_cov)
    ib = np.linalg.inv(b_cov)
    cov = np.linalg.inv(ia + ib)
    mean = cov @ (ia @ a_mean + ib @ b_mean)
    return mean, cov


def test_fusion_matches_naive_oracle_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a = GaussianEstimate(rng.standard_normal(2) * 5, random_pd(rng))
        b = GaussianEstimate(rng.standard_normal(2) * 5, random_pd(rng))
        got = fuse(a, b)
        want_mean, want_cov = naive_fuse(a.mean, a.cov, b.mean, b.cov)
        assert np.allclose(got.mean, want_mean, atol=1e-9, rtol=0)
        assert np.allclose(got.cov, want_cov, atol=1e-9, rtol=0)


def test_fusion_never_increases_entropy():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = GaussianEstimate(rng.standard_normal(2), random_pd(rng))
        b = GaussianEstimate(rng.standard_normal(2), random_pd(rng))
        fused = fuse(a, b)
        assert entropy(fused.cov) <= min(entropy(a.cov), entropy(b.cov)) + 1e-12


def test_fusion_is_symmetric():
    rng = np.random.default_rng(13)
    a = GaussianEstimate(rng.standard_normal(2), random_pd(rng))
    b = GaussianEstimate(rng.standard_normal(2), random_pd(rng))
    ab = fuse(a, b)
    ba = fuse(b, a)
    assert np.allclose(ab.mean, ba.mean, atol=1e-12)
    assert np.allclose(ab.cov, ba.cov, atol=1e-12)


def test_fusion_of_equal_estimates_halves_covariance():
    e = GaussianEstimate([1.0, -2.0], [[2.0, 0.0], [0.0, 2.0]])
    fused = fuse(e, e)
    assert np.allclose(fused.mean, [1.0, -2.0])
    assert np.allclose(fused.cov, np.eye(2))


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
        want = fuse(GaussianEstimate(a_mean[i], a_cov[i]),
                    GaussianEstimate(b_mean[i], b_cov[i]))
        assert mean[i].tobytes() == want.mean.tobytes()
        assert cov[i].tobytes() == want.cov.tobytes()
    b_cov[k // 2] = 0.0
    with pytest.raises(SingularCovarianceError):
        fuse_stacked(a_mean, a_cov, b_mean, b_cov)


def test_fuse_raises_on_singular_input():
    good = GaussianEstimate([0.0, 0.0], np.eye(2))
    bad = GaussianEstimate([0.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(SingularCovarianceError):
        fuse(good, bad)


def test_propagate_shifts_mean_and_grows_covariance():
    e = GaussianEstimate([1.0, 1.0], np.eye(2))
    out = propagate(e, [0.5, -0.5], 0.01 * np.eye(2))
    assert np.allclose(out.mean, [1.5, 0.5])
    assert np.allclose(out.cov, 1.01 * np.eye(2))
    # Input untouched.
    assert np.allclose(e.mean, [1.0, 1.0])


def test_entropy_is_determinant():
    assert entropy(np.eye(2)) == 1.0
    assert entropy([[2.0, 0.0], [0.0, 3.0]]) == 6.0
    assert entropy([[1.0, 1.0], [1.0, 1.0]]) == 0.0


def test_check_cov_validation():
    assert np.allclose(check_cov(np.eye(2)), np.eye(2))
    with pytest.raises(ValueError):
        check_cov(np.eye(3))
    with pytest.raises(ValueError):
        check_cov([[1.0, 0.5], [0.0, 1.0]])       # asymmetric
    with pytest.raises(ValueError):
        check_cov([[1.0, 0.0], [0.0, -1.0]])      # indefinite


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


def test_estimate_copy_is_deep():
    e = GaussianEstimate([1.0, 2.0], np.eye(2))
    c = e.copy()
    c.mean[0] = 99.0
    c.cov[0, 0] = 99.0
    assert e.mean[0] == 1.0
    assert e.cov[0, 0] == 1.0
