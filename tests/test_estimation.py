"""Tests for the 2x2 Gaussian-estimate primitives.

The fusion oracle below is an independent implementation using
numpy.linalg.inv on stacked matrices; the library must match it to 1e-9
over a large randomized sample of well-conditioned inputs.  A second oracle
fuses stacks through numpy's matmul, and the float kernels must give its
bits exactly.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from pherotrack.estimation import (EPS_INV, EYE2, GaussianEstimate,
                                   SingularCovarianceError, _inv_entries,
                                   entropy, flat_entropy, fuse, inv2,
                                   matvec2, propagate)
from pherotrack.sensing import CalibrationTable, interpolate_cov, rot2
from pherotrack.world import CHOL_JITTER, make_state, sim_2d_preset


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
    e = GaussianEstimate(mean, cov)
    return e.mean, e.cov


def info_form(mean, cov):
    """Inverse covariances and information vectors (K, 2, 1) of a stack."""
    inv = inv2(cov)
    return inv, np.matmul(inv, mean[..., None])


def fuse_informed(a_mean, a_cov, ib, ib_b):
    """Fusion row by row on stacks (K, 2) and (K, 2, 2) through numpy's
    stacked matmul, the second operand in :func:`info_form`."""
    ia, ia_a = info_form(a_mean, a_cov)
    cov = inv2(ia + ib, check=False)
    return np.matmul(cov, ia_a + ib_b)[..., 0], cov


def fuse_stacked(a_mean, a_cov, b_mean, b_cov):
    """:func:`fuse` row by row on stacks (K, 2) and (K, 2, 2)."""
    return fuse_informed(a_mean, a_cov, *info_form(b_mean, b_cov))


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
    # The stacked oracle multiplies through np.matmul, the float fuse()
    # through matvec2: equal bytes show the float kernel has numpy's bits.
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


def _matvec_cases(rng, n):
    """``n`` (flat 2x2, 2-vector) pairs of the kinds the program multiplies,
    plus wide-range full and diagonal ones with signed zeros."""
    cases = []
    state = make_state(sim_2d_preset(
        q_k=((0.002, 0.0008), (0.0008, 0.001)),
        r_dp=((2e-3, 1.5e-3), (1.5e-3, 2e-3))), 0)
    factors = [state.q_chol, state.dp_chol]
    for _ in range(n):
        kind = int(rng.integers(5))
        v = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-9, 9, 2)
        if kind == 0:      # full, entries from 1e-9 to 1e9
            m = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-9, 9, 4)
        elif kind == 1:    # diagonal
            m = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-9, 9, 4)
            m[1:3] = rng.choice([0.0, -0.0], 2)
        elif kind == 2:    # signed zeros anywhere, in matrix and vector
            m = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-9, 9, 4)
            m[rng.random(4) < 0.3] = rng.choice([0.0, -0.0])
            v[rng.random(2) < 0.3] = rng.choice([0.0, -0.0])
        elif kind == 3:    # a rotation, as the agent turns points
            m = np.array(rot2(rng.uniform(-np.pi, np.pi)))
            v = rng.uniform(-30.0, 30.0, 2)
        else:              # a noise factor, as make_state builds it
            if rng.random() < 0.1:
                m = factors[int(rng.integers(2))].ravel()
            else:
                g = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 1)
                m = np.linalg.cholesky(g @ g.T + EYE2 * CHOL_JITTER).ravel()
            v = rng.standard_normal(2)
        cases.append((tuple(m.tolist()), tuple(v.tolist())))
    return cases


def test_matvec2_is_numpy_matmul_bit_for_bit():
    rng = np.random.default_rng(41)
    cases = _matvec_cases(rng, 60_000)
    want = np.array([np.array(m).reshape(2, 2) @ np.array(v)
                     for m, v in cases])

    def mismatched_rows(kernel):
        got = np.array([kernel(m, v) for m, v in cases])
        return int((got.view(np.int64) != want.view(np.int64)).sum())

    def plain(m, v):
        return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])

    assert want.size >= 100_000
    assert mismatched_rows(matvec2) == 0
    # Rounding twice is not numpy's rule: the test can tell them apart.
    assert mismatched_rows(plain) > 1000
    # Every matrix slot held an exact -0.0 and an exact +0.0 somewhere.
    slots = np.array([m for m, _ in cases])
    neg = np.signbit(slots) & (slots == 0.0)
    pos = ~np.signbit(slots) & (slots == 0.0)
    assert neg.sum(axis=0).min() > 100 and pos.sum(axis=0).min() > 100


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


# -- the measurement form against the array estimate it replaced --------------
#
# An estimate used to hold numpy arrays, converted only where they were not
# float64 of their shape, and the tracker turned each into flat tuples with
# ``to_flat``.  Both are kept here, verbatim, as the reference.

_F64 = np.dtype(float)


@dataclass
class ArrayEstimate:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m, c = self.mean, self.cov
        if not (type(m) is np.ndarray and m.dtype is _F64
                and m.shape == (2,)):
            self.mean = np.asarray(m, dtype=float).reshape(2)
        if not (type(c) is np.ndarray and c.dtype is _F64
                and c.shape == (2, 2)):
            self.cov = np.asarray(c, dtype=float).reshape(2, 2)


def to_flat(e):
    (c00, c01), (c10, c11) = e.cov.tolist()
    return tuple(e.mean.tolist()), (c00, c01, c10, c11)


def hexes(xs):
    assert all(type(x) is float for x in xs)
    return [x.hex() for x in xs]


def test_estimate_tuples_match_the_array_estimate_bit_for_bit():
    rng = np.random.default_rng(37)
    covs = np.array([random_pd(rng) for _ in range(16)])
    covs[::3, 0, 1] = covs[::3, 1, 0] = -0.0
    table = CalibrationTable(rng.uniform([0.5, -1.0], [4.0, 1.0], (16, 2)),
                             covs)
    kinds, n_neg_zero = set(), 0
    for _ in range(3000):
        mean = rng.standard_normal(2) * 10.0
        cov = random_pd(rng, floor=rng.choice([1e-3, 1.0]))
        if rng.random() < 0.3:
            mean[int(rng.integers(2))] = rng.choice([0.0, -0.0])
        if rng.random() < 0.3:
            cov[0, 1] = cov[1, 0] = rng.choice([0.0, -0.0])
        kind = int(rng.integers(5))
        kinds.add(kind)
        if kind == 1:      # a read-only calibration-table view
            cov = interpolate_cov(table, *rng.uniform([0.5, -1.0],
                                                      [4.0, 1.0]))[0]
            assert not cov.flags.writeable
        elif kind == 2:    # lists
            mean, cov = mean.tolist(), cov.tolist()
        elif kind == 3:    # a row and a flat covariance
            mean, cov = mean[None], cov.ravel()
        elif kind == 4:    # float32, widened
            mean = mean.astype(np.float32)
        got = GaussianEstimate(mean, cov)
        want = to_flat(ArrayEstimate(mean, cov))
        assert type(got.mean) is tuple and type(got.cov) is tuple
        assert hexes(got.mean) == hexes(want[0])
        assert hexes(got.cov) == hexes(want[1])
        n_neg_zero += hexes(got.mean + got.cov).count((-0.0).hex())
    assert kinds == set(range(5)) and n_neg_zero > 300
