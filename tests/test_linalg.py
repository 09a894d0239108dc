"""Tests for the dense-matrix kernels and truncated SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfid.corpus import heldout_prompts
from pfid.linalg import (
    GRAM_MIN_EIG_RATIO,
    TruncatedFactors,
    _gram_factors,
    ratio_to_rank,
    reconstruct,
    truncated_svd,
)
from pfid.protocol import ROLE_HEAD_FACTORS, PfidConfig, decode_packet, encode_packet
from pfid.shard import head_cache, head_forward, middle_forward, split


def optimal_rank_k_error(h, k):
    """Frobenius error of the best rank-k approximation, sqrt(sum tail sv^2),
    from LAPACK's singular values (an oracle apart from the Gram route)."""
    sv = np.linalg.svd(h, compute_uv=False)
    return float(np.sqrt(np.sum(sv[k:] ** 2)))


class TestTruncatedSvd:
    def test_diagonal_rank_one(self):
        f = truncated_svd(np.diag([3.0, 1.0]), k=1)
        assert np.allclose(f.s, [3.0])
        assert np.allclose(reconstruct(f), [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_full_rank_is_lossless(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((9, 6))
        f = truncated_svd(h, k=6)
        err = np.linalg.norm(h - reconstruct(f)) / np.linalg.norm(h)
        assert err <= 1e-4

    def test_16x12_k4_matches_the_lapack_oracle(self):
        rng = np.random.default_rng(42)
        h = rng.standard_normal((16, 12))
        f = truncated_svd(h, k=4)
        err = np.linalg.norm(h - reconstruct(f))
        opt = optimal_rank_k_error(h, 4)
        assert abs(err - opt) / opt <= 1e-12
        # the reconstruction itself matches the oracle's best rank-4 approximation
        u, s, vt = np.linalg.svd(h)
        best = (u[:, :4] * s[:4]) @ vt[:4, :]
        assert np.linalg.norm(reconstruct(f) - best) / np.linalg.norm(best) <= 1e-12

    def test_k_out_of_range(self):
        h = np.ones((4, 3))
        for k in (0, 4, -1):
            with pytest.raises(ValueError, match="out of range"):
                truncated_svd(h, k=k)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            truncated_svd(np.array([[np.inf, 0.0], [0.0, 1.0]]), k=1)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((40, 30))
        f1 = truncated_svd(h, k=6)
        f2 = truncated_svd(h.copy(), k=6)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.v, f2.v)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            d, n = rng.integers(2, 40, size=2)
            h = rng.standard_normal((d, n))
            k = int(rng.integers(1, min(d, n) + 1))
            f = truncated_svd(h, k=k)
            assert np.linalg.norm(f.u.T @ f.u - np.eye(k)) <= 1e-4 * k
            assert np.linalg.norm(f.v.T @ f.v - np.eye(k)) <= 1e-4 * k

    def test_eckart_young_beats_random_rank_k(self):
        # truncation error never exceeds that of random rank-k matrices of
        # matched scale, and stays within 1e-12 relative of the oracle optimum
        rng = np.random.default_rng(123)
        for trial in range(200):
            d, n = rng.integers(2, 17, size=2)
            h = rng.standard_normal((d, n))
            scale = np.linalg.norm(h)
            for k in range(1, min(d, n) + 1):
                err = np.linalg.norm(h - reconstruct(truncated_svd(h, k=k)))
                opt = optimal_rank_k_error(h, k)
                if opt > 0:
                    assert abs(err - opt) <= 1e-12 * opt
                else:  # k = min(d, n): nothing is truncated
                    assert err <= 1e-12 * scale
                for probe in range(20):
                    g = rng.standard_normal((d, k)) @ rng.standard_normal((k, n))
                    g *= scale / max(np.linalg.norm(g), 1e-300)
                    assert err <= np.linalg.norm(h - g) + 1e-9

    def test_error_monotone_in_k(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((12, 15))
        errs = [
            np.linalg.norm(h - reconstruct(truncated_svd(h, k=k)))
            for k in range(1, 13)
        ]
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))


def assert_exact_rank_k(h, k, f, orth_tol):
    """f is h's Eckart-Young optimum: its error matches LAPACK's to 1e-12
    relative (plus float64 rounding of h, for an optimum that is zero up to
    rounding), its reconstruction matches LAPACK's best rank-k matrix, and
    both factors are orthonormal to orth_tol."""
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    rec = reconstruct(f)
    opt, err = float(np.sqrt(np.sum(s[k:] ** 2))), float(np.linalg.norm(h - rec))
    assert abs(err - opt) <= 1e-12 * opt + 1e-14 * np.linalg.norm(h)
    best = (u[:, :k] * s[:k]) @ vt[:k]
    assert np.linalg.norm(rec - best) <= 1e-10 * np.linalg.norm(best)
    for m in (f.u, f.v):
        assert np.linalg.norm(m.T @ m - np.eye(k)) <= orth_tol


def test_model_shaped_states_get_the_exact_rank_k_svd(tiny_model, tokenizer):
    """Head outputs and middle outputs of the d = 64 model at every n from 1
    to 127, at the ranks the default phead and ptail keep."""
    config = PfidConfig()
    sharded = split(tiny_model, config.spec)
    client, middle = sharded.client(), sharded.middle()
    ids = tokenizer.encode(" ".join(heldout_prompts(6, seed=9876, prompt_len=39)))[:127]
    cache = head_cache(client)
    for n in range(1, len(ids) + 1):
        h_head = head_forward(client, ids[:n], cache)
        for h in (h_head.T, middle_forward(middle, h_head).T):
            for ratio in (config.phead, config.ptail):
                k = ratio_to_rank(ratio, *h.shape)
                assert_exact_rank_k(h, k, truncated_svd(h, k), orth_tol=1e-10)


def test_reconstruct_equals_the_plain_product_bitwise(tiny_model, tokenizer):
    """reconstruct's transposed n x d product has the bits of
    (U diag(s)) V^T on head outputs at every n from 1 to 127, at the ranks
    the default phead and ptail keep, and transposes to C order."""
    config = PfidConfig()
    client = split(tiny_model, config.spec).client()
    ids = tokenizer.encode(" ".join(heldout_prompts(6, seed=9876, prompt_len=39)))[:127]
    cache = head_cache(client)
    for n in range(1, len(ids) + 1):
        h = head_forward(client, ids[:n], cache).T
        for ratio in (config.phead, config.ptail):
            f = truncated_svd(h, ratio_to_rank(ratio, *h.shape))
            rec = reconstruct(f)
            assert rec.T.flags.c_contiguous
            assert rec.tobytes() == ((f.u * f.s) @ f.v.T).tobytes()


def conditioned(ratio, d, n, k=20):
    """d x n with lambda_k / lambda_1 = ratio for the Gram eigenvalues
    (sigma_k / sigma_1 = sqrt(ratio)) and a tail below sigma_k."""
    rng = np.random.default_rng(0)
    q1, _ = np.linalg.qr(rng.standard_normal((d, min(d, n))))
    q2, _ = np.linalg.qr(rng.standard_normal((n, min(d, n))))
    sk = np.sqrt(ratio)
    s = np.concatenate([np.geomspace(1.0, sk, k), sk * np.geomspace(0.5, 0.005, min(d, n) - k)])
    return (q1 * s) @ q2.T


@pytest.mark.parametrize("shape", [(64, 100), (100, 64)], ids=["wide", "tall"])
@pytest.mark.parametrize("ratio", [1e-6, 2e-8, 1.01e-8, 0.99e-8, 5e-9, 1e-12])
def test_both_sides_of_the_gram_conditioning_threshold_are_exact(ratio, shape):
    """Above GRAM_MIN_EIG_RATIO the Gram route runs, below it LAPACK's SVD;
    either way the factors are optimal and orthonormal well within
    binary32's resolution."""
    h, k = conditioned(ratio, *shape), 20
    assert (_gram_factors(h, k) is None) == (ratio <= GRAM_MIN_EIG_RATIO)
    assert_exact_rank_k(h, k, truncated_svd(h, k), orth_tol=np.finfo(np.float32).eps / 10)


@pytest.mark.parametrize("shape", [(64, 100), (100, 64)], ids=["wide", "tall"])
def test_zero_and_rank_one_inputs_take_the_lapack_fallback(shape):
    rng = np.random.default_rng(4)
    rank_one = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
    for h in (np.zeros(shape), rank_one):
        assert _gram_factors(h, 3) is None
        f = truncated_svd(h, 3)
        assert_exact_rank_k(h, 3, f, orth_tol=1e-12)
        assert np.all(f.s[1:] <= 1e-14 * max(f.s[0], 1.0))


def test_entries_that_overflow_the_gram_matrix_take_the_lapack_fallback():
    """h h^T of entries near 1e200 overflows (and would warn, which fails the
    test); LAPACK's SVD factors h itself."""
    rng = np.random.default_rng(4)
    h = rng.standard_normal((64, 100)) * 1e200
    assert _gram_factors(h, 64) is None
    f = truncated_svd(h, 64)
    assert np.max(np.abs(reconstruct(f) - h)) <= 1e-12 * np.max(np.abs(h))


@pytest.mark.parametrize("d,n,k", [(64, 16, 6), (64, 127, 22), (64, 16, 16)])
def test_column_signs_change_no_bit_a_reader_sees(d, n, k):
    """Negating paired columns of u and v leaves reconstruct's bytes and a
    decoded packet's hidden state unchanged: (-a)(-b) = ab exactly in IEEE
    arithmetic, and binary32 rounding is symmetric in sign. So the
    eigensolver's column signs need no canonical form."""
    rng = np.random.default_rng(d + n + k)
    f = truncated_svd(rng.standard_normal((d, n)), k)
    flip = rng.random(k) < 0.5
    flip[rng.integers(k)] = True
    g = TruncatedFactors(np.where(flip, -f.u, f.u), f.s, np.where(flip, -f.v, f.v))
    assert reconstruct(g).tobytes() == reconstruct(f).tobytes()
    hidden = [decode_packet(encode_packet(x, ROLE_HEAD_FACTORS, 0)).hidden() for x in (f, g)]
    assert hidden[1].tobytes() == hidden[0].tobytes()


class TestReconstruct:
    def test_full_rank_diagonal_roundtrip(self):
        h = np.diag([3.0, 1.0])
        assert np.allclose(reconstruct(truncated_svd(h, k=2)), h, atol=1e-12)

    def test_zero_singular_values_give_zero_matrix(self):
        f = TruncatedFactors(u=np.eye(4)[:, :2], s=np.zeros(2), v=np.eye(3)[:, :2])
        assert np.array_equal(reconstruct(f), np.zeros((4, 3)))


class TestTruncatedFactorsInvariants:
    def test_rejects_increasing_singular_values(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TruncatedFactors(u=np.eye(3)[:, :2], s=np.array([1.0, 2.0]), v=np.eye(3)[:, :2])

    @pytest.mark.parametrize("s", [[np.nan, 1.0], [2.0, np.nan], [2.0, -0.5], [1.0, 1.5],
                                   [np.nan]])
    def test_rejects_nan_negative_and_increasing_values(self, s):
        with pytest.raises(ValueError, match="non-increasing"):
            TruncatedFactors(u=np.eye(3)[:, :len(s)], s=np.array(s), v=np.eye(3)[:, :len(s)])

    @pytest.mark.parametrize("s", [[1.0, 1.0], [2.0, 0.0], [0.0, 0.0], [3.0]])
    def test_accepts_equal_values_and_trailing_zeros(self, s):
        TruncatedFactors(u=np.eye(3)[:, :len(s)], s=np.array(s), v=np.eye(3)[:, :len(s)])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"u \(3, 2\), s \(2,\), v \(4, 3\)"):
            TruncatedFactors(u=np.eye(3)[:, :2], s=np.array([2.0, 1.0]), v=np.eye(4)[:, :3])

    def test_rejects_a_rank_above_min_d_n(self):
        with pytest.raises(ValueError, match=r"u \(2, 3\), s \(3,\), v \(5, 3\)"):
            TruncatedFactors(u=np.ones((2, 3)), s=np.array([3.0, 2.0, 1.0]), v=np.eye(5)[:, :3])

    def test_rejects_an_s_whose_length_is_not_k(self):
        with pytest.raises(ValueError, match=r"u \(4, 2\), s \(3,\), v \(3, 2\)"):
            TruncatedFactors(u=np.eye(4)[:, :2], s=np.array([3.0, 2.0, 1.0]), v=np.eye(3)[:, :2])


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
