"""Tests for the dense-matrix kernels and truncated SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfid.linalg import (
    TruncatedFactors,
    add_noise,
    ratio_to_rank,
    reconstruct,
    truncated_svd,
)


def singular_values_by_eigh(h):
    """Singular values via eigendecomposition of H^T H (oracle path)."""
    evals = np.linalg.eigh(h.T @ h)[0]
    evals = np.clip(evals, 0.0, None)
    return np.sqrt(evals)[::-1]


def optimal_rank_k_error(h, k):
    """Frobenius error of the best rank-k approximation: sqrt(sum tail sv^2)."""
    sv = singular_values_by_eigh(h)
    return float(np.sqrt(np.sum(sv[k:] ** 2)))


class TestTruncatedSvd:
    def test_diagonal_rank_one(self):
        f = truncated_svd(np.diag([3.0, 1.0]), k=1, seed=0)
        assert np.allclose(f.s, [3.0])
        assert np.allclose(reconstruct(f), [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_full_rank_is_lossless(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((9, 6))
        f = truncated_svd(h, k=6, seed=3)
        err = np.linalg.norm(h - reconstruct(f)) / np.linalg.norm(h)
        assert err <= 1e-4

    def test_16x12_k4_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(42)
        h = rng.standard_normal((16, 12))
        f = truncated_svd(h, k=4, seed=0)
        err = np.linalg.norm(h - reconstruct(f))
        opt = optimal_rank_k_error(h, 4)
        assert abs(err - opt) / opt <= 1e-3
        # the reconstruction itself matches the oracle's best rank-4 approximation
        u, s, vt = np.linalg.svd(h)
        best = (u[:, :4] * s[:4]) @ vt[:4, :]
        assert np.linalg.norm(reconstruct(f) - best) / np.linalg.norm(best) <= 1e-3

    def test_k_out_of_range(self):
        h = np.ones((4, 3))
        for k in (0, 4, -1):
            with pytest.raises(ValueError, match="out of range"):
                truncated_svd(h, k=k, seed=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            truncated_svd(np.array([[np.inf, 0.0], [0.0, 1.0]]), k=1, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((40, 30))
        f1 = truncated_svd(h, k=6, seed=11)
        f2 = truncated_svd(h, k=6, seed=11)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.v, f2.v)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            d, n = rng.integers(2, 40, size=2)
            h = rng.standard_normal((d, n))
            k = int(rng.integers(1, min(d, n) + 1))
            f = truncated_svd(h, k=k, seed=trial)
            assert np.linalg.norm(f.u.T @ f.u - np.eye(k)) <= 1e-4 * k
            assert np.linalg.norm(f.v.T @ f.v - np.eye(k)) <= 1e-4 * k

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((10, 7))
        f = truncated_svd(h, k=5, seed=0)
        for j in range(f.k):
            col = f.u[:, j]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] >= 0

    def test_eckart_young_beats_random_rank_k(self):
        # truncation error never exceeds that of random rank-k matrices of
        # matched scale, and stays within 1e-3 relative of the oracle optimum
        rng = np.random.default_rng(123)
        for trial in range(200):
            d, n = rng.integers(2, 17, size=2)
            h = rng.standard_normal((d, n))
            scale = np.linalg.norm(h)
            for k in range(1, min(d, n) + 1):
                err = np.linalg.norm(h - reconstruct(truncated_svd(h, k=k, seed=trial)))
                opt = optimal_rank_k_error(h, k)
                if opt > 1e-6 * scale:
                    assert abs(err - opt) / opt <= 1e-3
                else:
                    # optimal error is zero up to eigh rounding noise
                    assert err <= 1e-6 * max(scale, 1.0)
                for probe in range(20):
                    g = rng.standard_normal((d, k)) @ rng.standard_normal((k, n))
                    g *= scale / max(np.linalg.norm(g), 1e-300)
                    assert err <= np.linalg.norm(h - g) + 1e-9

    def test_error_monotone_in_k(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((12, 15))
        errs = [
            np.linalg.norm(h - reconstruct(truncated_svd(h, k=k, seed=0)))
            for k in range(1, 13)
        ]
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))


class TestReconstruct:
    def test_full_rank_diagonal_roundtrip(self):
        h = np.diag([3.0, 1.0])
        assert np.allclose(reconstruct(truncated_svd(h, k=2, seed=0)), h, atol=1e-12)

    def test_zero_singular_values_give_zero_matrix(self):
        f = TruncatedFactors(
            u=np.eye(4)[:, :2], s=np.zeros(2), v=np.eye(3)[:, :2],
            orig_rows=4, orig_cols=3, k=2,
        )
        assert np.array_equal(reconstruct(f), np.zeros((4, 3)))


class TestTruncatedFactorsInvariants:
    def test_rejects_increasing_singular_values(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TruncatedFactors(
                u=np.eye(3)[:, :2], s=np.array([1.0, 2.0]), v=np.eye(3)[:, :2],
                orig_rows=3, orig_cols=3, k=2,
            )

    def test_rejects_non_orthonormal_u(self):
        with pytest.raises(ValueError, match="orthonormal"):
            TruncatedFactors(
                u=np.ones((3, 2)), s=np.array([2.0, 1.0]), v=np.eye(3)[:, :2],
                orig_rows=3, orig_cols=3, k=2,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            TruncatedFactors(
                u=np.eye(3)[:, :2], s=np.array([2.0, 1.0]), v=np.eye(4)[:, :2],
                orig_rows=3, orig_cols=3, k=2,
            )


class TestRatioToRank:
    @pytest.mark.parametrize(
        "p,d,n,expected",
        [
            (0.0, 64, 10, 10),
            (0.75, 64, 100, 16),
            (0.65, 64, 100, 22),
        ],
    )
    def test_reference_values(self, p, d, n, expected):
        assert ratio_to_rank(p, d, n) == expected

    def test_rejects_out_of_range_ratio(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                ratio_to_rank(p, 8, 8)

    @given(
        p=st.floats(min_value=0.0, max_value=0.999),
        d=st.integers(min_value=1, max_value=256),
        n=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_always_valid(self, p, d, n):
        k = ratio_to_rank(p, d, n)
        assert 1 <= k <= min(d, n)

    def test_index_based_not_energy_based(self):
        # the rank depends only on (p, min(d, n)), never on matrix content
        assert ratio_to_rank(0.5, 64, 100) == ratio_to_rank(0.5, 64, 5000)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        h = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(add_noise(h, 0.0, seed=1), h)

    def test_deterministic_per_seed(self):
        h = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(add_noise(h, 0.3, seed=2), add_noise(h, 0.3, seed=2))
        assert not np.array_equal(add_noise(h, 0.3, seed=2), add_noise(h, 0.3, seed=3))

    def test_empirical_std_matches_sigma(self):
        h = np.zeros((1000, 64))
        eps = add_noise(h, 0.1, seed=4) - h
        assert abs(eps.std() - 0.1) / 0.1 <= 0.05

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            add_noise(np.ones((2, 2)), -0.1, seed=0)

