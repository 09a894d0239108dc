import platform

import numpy as np
import pytest

from pfid.model import ModelConfig, init_model
from pfid.shard import ShardSpec, head_cache, head_forward, middle_forward, split, tail_forward
from reference import full_logits, full_tail


def small_config(**kw):
    base = dict(n_layers=8, d_model=16, n_heads=2, d_ff=32, vocab_size=24, max_seq=40, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def held(shard):
    """Absolute indices of the layers a shard view holds."""
    return [i for i, lw in enumerate(shard.layers) if lw is not None]


class TestSplit:
    def test_default_split_sizes(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        assert held(s) == list(range(8))
        assert held(s.client()) == [0, 1, 2, 5, 6, 7]
        assert held(s.middle()) == [3, 4]

    def test_paper_scale_split_sizes(self):
        m = init_model(ModelConfig(n_layers=32, d_model=8, n_heads=2, d_ff=16,
                                   vocab_size=10, max_seq=8, seed=0))
        s = split(m, ShardSpec(13, 19))
        assert held(s.client()) == list(range(13)) + list(range(19, 32))
        assert held(s.middle()) == list(range(13, 19))

    def test_empty_head_rejected(self):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="K=0, N=5, n_layers=8"):
            split(m, ShardSpec(0, 5))

    @pytest.mark.parametrize("k,n", [(5, 3), (3, 3), (3, 8), (-1, 2)])
    def test_invalid_specs_rejected(self, k, n):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="shard spec"):
            split(m, ShardSpec(k, n))

    def test_partition_is_exhaustive_and_copy_free(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(2, 6))
        combined = [c if c is not None else mid
                    for c, mid in zip(s.client().layers, s.middle().layers)]
        assert [id(lw) for lw in combined] == [id(lw) for lw in m.layers]

    def test_middle_view_holds_only_the_middle_layers(self):
        m = init_model(small_config())
        middle = split(m, ShardSpec(3, 5)).middle()
        assert middle.embedding is None and middle.pos is None
        assert middle.g_final is None and middle.lm_head is None
        assert held(middle) == [3, 4]
        assert list(middle.param_tensors()) == [
            f"layer{i}.{name}" for i in (3, 4)
            for name in ("wq", "wk", "wv", "wo", "w1", "w2", "g_attn", "g_ff")
        ]

    def test_client_view_holds_no_middle_layer(self):
        m = init_model(small_config())
        client = split(m, ShardSpec(3, 5)).client()
        assert client.layers[3] is None and client.layers[4] is None
        assert not any(name.startswith(("layer3.", "layer4.")) for name in client.param_tensors())
        for name in ("embedding", "pos", "g_final", "lm_head"):
            assert getattr(client, name) is getattr(m, name)

    def test_original_model_unchanged(self):
        m = init_model(small_config())
        before = {k: v.copy() for k, v in m.param_tensors().items()}
        split(m, ShardSpec(3, 5))
        for k, v in m.param_tensors().items():
            assert np.array_equal(v, before[k])


class TestShardForwards:
    def test_composition_equals_monolithic_exactly(self):
        """On the every-row reference tail."""
        m = init_model(small_config())
        rng = np.random.default_rng(0)
        specs = [ShardSpec(1, 2), ShardSpec(3, 5), ShardSpec(2, 7), ShardSpec(6, 7)]
        for spec in specs:
            s = split(m, spec)
            for _ in range(5):
                tokens = list(rng.integers(0, 24, size=rng.integers(1, 12)))
                composed = full_tail(s, middle_forward(s, head_forward(s, tokens)))
                assert np.array_equal(composed, full_logits(m, tokens))

    @pytest.mark.parametrize("spec", [ShardSpec(1, 2), ShardSpec(3, 5), ShardSpec(2, 7),
                                      ShardSpec(6, 7)])
    def test_tail_returns_the_last_row_of_the_reference(self, spec):
        """The next-token logits as an owned (vocab,) row, within 1e-12 of
        the every-row tail's last row (measured: about 1e-16)."""
        s = split(init_model(small_config()), spec)
        rng = np.random.default_rng(2)
        for n in (1, 2, 7, 16, 40):
            h = rng.standard_normal((n, 16))
            lg = tail_forward(s, h)
            assert lg.shape == (24,)
            assert lg.base is None and lg.flags.owndata
            assert np.abs(lg - full_tail(s, h)[-1]).max() <= 1e-12

    def test_head_output_shape(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        assert head_forward(s, [1, 2, 3, 4]).shape == (4, 16)

    def test_narrowed_views_match_full_sharded(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        client, middle = s.client(), s.middle()
        tokens = [5, 6, 7]
        h = head_forward(client, tokens)
        assert np.array_equal(h, head_forward(s, tokens))
        hm = middle_forward(middle, h)
        assert np.array_equal(hm, middle_forward(s, h))
        assert np.array_equal(tail_forward(client, hm), tail_forward(s, hm))
        assert np.array_equal(full_tail(client, hm), full_tail(s, hm))

    def test_tail_weight_isolation(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        tokens = [1, 2, 3]
        h_head = head_forward(s, tokens)
        h_mid = middle_forward(s, h_head)
        lg_before = tail_forward(s, h_mid)
        s.layers[5].wq[0, 0] += 1.0
        assert np.array_equal(head_forward(s, tokens), h_head)
        assert np.array_equal(middle_forward(s, h_head), h_mid)
        assert not np.array_equal(tail_forward(s, h_mid), lg_before)

    def test_shape_mismatch_rejected(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        with pytest.raises(ValueError, match="columns"):
            middle_forward(s, np.zeros((2, 4)))


class TestHeadCache:
    def test_cached_rows_match_the_full_recompute(self, tiny_model):
        """At every n from a 16-token prompt to max_seq, on the untrained
        default model, within 1e-14 (measured: about 4e-17)."""
        client = split(tiny_model, ShardSpec(3, 5)).client()
        max_seq = tiny_model.config.max_seq
        tokens = np.random.default_rng(0).integers(0, 96, size=max_seq).tolist()
        cache = head_cache(client)
        for n in range(16, max_seq + 1):
            h = head_forward(client, tokens[:n], cache)
            assert h.shape == (n, tiny_model.config.d_model)
            assert np.abs(h - head_forward(client, tokens[:n])).max() <= 1e-14

    def test_extending_by_several_tokens_matches_the_full_recompute(self):
        """New rows after cached ones see the cache and each other causally."""
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        tokens = np.random.default_rng(1).integers(0, 24, size=40).tolist()
        cache = head_cache(s)
        for n in (3, 4, 9, 20, 40):
            h = head_forward(s, tokens[:n], cache)
            assert np.abs(h - head_forward(s, tokens[:n])).max() <= 1e-14

    def test_tokens_that_do_not_extend_the_cache_are_rejected(self):
        m = init_model(small_config())
        s = split(m, ShardSpec(3, 5))
        cache = head_cache(s)
        first = np.array(head_forward(s, [1, 2, 3], cache))
        for tokens in ([1, 2, 3], [1, 2], [1, 5, 3, 4], [2, 2, 3, 4], [1, 2, 3] + [1] * 38):
            with pytest.raises(ValueError):
                head_forward(s, tokens, cache)
        assert np.array_equal(head_forward(s, [1, 2, 3, 4], cache)[:3], first)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_decoder_layers_reuse_their_heap(tiny_model):
    """pfid fixes glibc's malloc thresholds at import, so the freed
    temporaries of one call stay in the heap for the next instead of being
    unmapped or trimmed and faulted back in."""
    import resource

    sharded = split(tiny_model, ShardSpec(3, 5))
    middle, client = sharded.middle(), sharded.client()
    h = np.random.default_rng(0).standard_normal((127, tiny_model.config.d_model))
    for _ in range(2):
        tail_forward(client, middle_forward(middle, h))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        tail_forward(client, middle_forward(middle, h))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 16
