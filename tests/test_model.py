import numpy as np
import pytest

from pfid.model import (
    ModelConfig,
    SamplingParams,
    embed,
    filtered_distribution,
    forward_layers,
    init_model,
    logits,
    pipeline_generate,
    sample_next,
)
from pfid.model import RMS_EPS


def small_config(**kw):
    base = dict(n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab_size=20, max_seq=24, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestInit:
    def test_deterministic(self):
        a = init_model(small_config())
        b = init_model(small_config())
        for (na, wa), (nb, wb) in zip(a.param_tensors().items(), b.param_tensors().items()):
            assert na == nb and np.array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a = init_model(small_config(seed=0))
        b = init_model(small_config(seed=1))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_two_layers_rejected(self):
        with pytest.raises(ValueError, match="3-way split"):
            ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=20, max_seq=24)

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(n_layers=3, d_model=10, n_heads=3, d_ff=32, vocab_size=20, max_seq=24)

    def test_default_structure(self):
        m = init_model(ModelConfig(n_layers=8, d_model=64, n_heads=4, d_ff=256, vocab_size=96))
        assert len(m.layers) == 8
        assert m.embedding.shape == (96, 64)
        assert m.lm_head.shape == (64, 96)


class TestForward:
    def test_empty_range_is_identity(self):
        m = init_model(small_config())
        h = embed(m, [1, 2, 3])
        assert np.array_equal(forward_layers(m, 1, 1, h), h)

    def test_composition_identity_bitwise(self):
        m = init_model(small_config())
        h = embed(m, [4, 5, 6, 7])
        full = forward_layers(m, 0, 3, h)
        for split_at in (1, 2):
            part = forward_layers(m, split_at, 3, forward_layers(m, 0, split_at, h))
            assert np.array_equal(part, full)

    def test_shapes(self):
        m = init_model(small_config())
        h = embed(m, [0, 1])
        assert h.shape == (2, 16)
        assert logits(m, h).shape == (2, 20)

    def test_causality(self):
        m = init_model(small_config())
        a = [1, 2, 3, 4, 5]
        b = [1, 2, 3, 9, 9]
        la = logits(m, forward_layers(m, 0, 3, embed(m, a)))
        lb = logits(m, forward_layers(m, 0, 3, embed(m, b)))
        assert np.array_equal(la[:3], lb[:3])
        assert not np.array_equal(la[3], lb[3])

    def test_single_position_matches_hand_rolled_oracle(self):
        """For one position, softmax over a single score is 1, so attention
        passes the value straight through; the oracle rebuilds the whole
        layer from raw formulas."""
        m = init_model(small_config())
        h = embed(m, [3])  # 1 x d
        got = forward_layers(m, 0, 1, h)

        lw = m.layers[0]
        x = h[0]
        d, heads = 16, 2
        a = x / np.sqrt(np.mean(x * x) + RMS_EPS) * lw.g_attn
        v = a @ lw.wv  # per-head softmax(q k^T / sqrt()) v == v for n = 1
        x1 = x + v @ lw.wo
        b = x1 / np.sqrt(np.mean(x1 * x1) + RMS_EPS) * lw.g_ff
        u = b @ lw.w1
        gelu = 0.5 * u * (1 + np.tanh(0.7978845608028654 * (u + 0.044715 * u**3)))
        expected = x1 + gelu @ lw.w2
        assert np.allclose(got[0], expected, atol=1e-6)

    def test_bad_range_rejected(self):
        m = init_model(small_config())
        h = embed(m, [1])
        with pytest.raises(ValueError, match="layer range"):
            forward_layers(m, 2, 1, h)
        with pytest.raises(ValueError, match="layer range"):
            forward_layers(m, 0, 4, h)

    def test_wrong_width_rejected(self):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="columns"):
            forward_layers(m, 0, 1, np.zeros((3, 8)))


class TestEmbed:
    def test_empty_prompt_rejected(self):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="empty"):
            embed(m, [])

    def test_out_of_range_token_rejected(self):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="out of range"):
            embed(m, [25])

    def test_too_long_rejected(self):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="max_seq"):
            embed(m, [0] * 25)
        with pytest.raises(ValueError, match="max_seq"):
            embed(m, [0] * 5, offset=20)

    def test_positional_signal(self):
        m = init_model(small_config())
        h = embed(m, [5, 5])
        assert not np.array_equal(h[0], h[1])


class TestSampling:
    def test_greedy_argmax(self):
        p = SamplingParams(greedy=True)
        rng = np.random.default_rng(0)
        assert sample_next(np.array([0.1, 2.0, 0.3]), p, rng) == 1

    def test_greedy_tie_breaks_low_id(self):
        p = SamplingParams(greedy=True)
        rng = np.random.default_rng(0)
        assert sample_next(np.array([2.0, 2.0, 0.3]), p, rng) == 0

    def test_top_k_one_equals_greedy(self):
        rng = np.random.default_rng(0)
        lg = np.random.default_rng(5).standard_normal(30)
        p = SamplingParams(temperature=2.0, top_p=1.0, top_k=1)
        for _ in range(10):
            assert sample_next(lg, p, rng) == int(np.argmax(lg))

    def test_empirical_frequencies_match_filtered_distribution(self):
        """10^5 draws at temperature .7 / top-p .5 / top-k 50 against an
        analytically renormalized oracle distribution, within 2% absolute."""
        rng_logits = np.random.default_rng(11)
        lg = rng_logits.standard_normal(96) * 2.0
        params = SamplingParams(temperature=0.7, top_p=0.5, top_k=50, seed=3)

        # independent oracle: explicit filter chain
        z = lg / 0.7
        order = np.argsort(-z, kind="stable")[:50]
        probs = np.exp(z[order] - z[order].max())
        probs /= probs.sum()
        cum = np.cumsum(probs)
        keep = int(np.searchsorted(cum, 0.5, side="left")) + 1
        ids, p = order[:keep], probs[:keep] / probs[:keep].sum()
        oracle = dict(zip(ids.tolist(), p.tolist()))

        got_ids, got_p = filtered_distribution(lg, params)
        assert dict(zip(got_ids.tolist(), got_p.tolist())) == pytest.approx(oracle)

        rng = np.random.default_rng(params.seed)
        draws = np.array([sample_next(lg, params, rng) for _ in range(100_000)])
        for tid, prob in oracle.items():
            freq = np.mean(draws == tid)
            assert abs(freq - prob) <= 0.02

    def test_non_finite_rejected(self):
        p = SamplingParams(greedy=True)
        with pytest.raises(ValueError, match="finite"):
            sample_next(np.array([1.0, np.nan]), p, np.random.default_rng(0))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            SamplingParams(temperature=0.0)
        with pytest.raises(ValueError, match="top_p"):
            SamplingParams(top_p=0.0)
        with pytest.raises(ValueError, match="top_k"):
            SamplingParams(top_k=0)


class TestPipelineGenerate:
    def test_deterministic(self):
        m = init_model(small_config())
        p = SamplingParams(temperature=0.9, top_p=0.9, top_k=10, max_new_tokens=12, seed=4)
        a = pipeline_generate(m, [1, 2], p)
        b = pipeline_generate(m, [1, 2], p)
        assert a.token_ids == b.token_ids
        assert all(np.array_equal(x.logits, y.logits) for x, y in zip(a.steps, b.steps))

    def test_stops_at_eos(self):
        m = init_model(small_config())
        p = SamplingParams(greedy=True, max_new_tokens=20)
        probe = pipeline_generate(m, [1, 2], p)
        eos = probe.token_ids[0]
        tr = pipeline_generate(m, [1, 2], p, eos_id=eos)
        assert tr.stop_reason == "eos"
        assert tr.token_ids == [eos]

    def test_respects_max_seq(self):
        m = init_model(small_config())
        p = SamplingParams(greedy=True, max_new_tokens=100)
        tr = pipeline_generate(m, [1] * 20, p)
        assert tr.stop_reason == "max_seq"
        assert len(tr.steps) == 4  # 24 - 20

    def test_empty_prompt_rejected(self):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="nonempty"):
            pipeline_generate(m, [], SamplingParams(greedy=True))
