import tracemalloc

import numpy as np
import pytest

from pfid.model import ModelConfig, SamplingParams, _gelu_with_tanh, init_model, pipeline_generate
from pfid.tokenizer import Tokenizer
from pfid.training import _gelu_backward, _sample_windows, loss_and_grads, train
from reference import reference_gelu_backward


def small_config(**kw):
    base = dict(n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab_size=96, max_seq=32, seed=0)
    base.update(kw)
    return ModelConfig(**base)


@pytest.mark.parametrize("shape", [(2, 10), (1, 1), (3, 7)], ids=["2x10", "1x1", "3x7"])
def test_gradients_match_central_finite_differences(shape):
    """10 sampled coordinates per weight tensor, eps 1e-4, 1e-3 relative.
    Every RMS gain is drawn away from its initial 1, so a backward that
    leaves a gain out differs from the finite differences."""
    cfg = ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab_size=20,
                      max_seq=24, seed=0)
    model = init_model(cfg)
    gains = np.random.default_rng(2)
    for gain in (model.g_final, *(g for lw in model.layers for g in (lw.g_attn, lw.g_ff))):
        gain[:] = 1.0 + 0.3 * gains.standard_normal(gain.shape)
    rng = np.random.default_rng(1)
    inputs = rng.integers(0, 20, size=shape)
    targets = rng.integers(0, 20, size=shape)
    _, grads = loss_and_grads(model, inputs, targets)

    eps = 1e-4
    for name, w in model.param_tensors().items():
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        coords = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            up = loss_and_grads(model, inputs, targets)[0]
            flat[c] = orig - eps
            down = loss_and_grads(model, inputs, targets)[0]
            flat[c] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[c]), 1e-8)
            assert abs(fd - gflat[c]) / denom <= 1e-3, f"{name}[{c}]: {fd} vs {gflat[c]}"


@pytest.mark.parametrize("shape", [(12, 32, 256), (3, 7, 256), (1, 1, 256)])
def test_the_in_place_gelu_backward_matches_the_reference_bit_for_bit(shape):
    """The in-place kernel against the out-of-place expression; the first
    inputs are large enough that tanh saturates to exactly +-1."""
    rng = np.random.default_rng(shape[1])
    x = 3 * rng.standard_normal(shape)
    x.flat[:4] = (-40.0, -9.0, 9.0, 40.0)
    t = _gelu_with_tanh(x)[1]
    assert set(t.flat[:4]) == {-1.0, 1.0}
    dy = rng.standard_normal(shape)
    want = reference_gelu_backward(dy, x, t)
    got = _gelu_backward(dy.copy(), x, t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_the_backward_holds_little_beyond_the_cached_activations():
    """A 12 x 32 batch's backward needs the activations its forward caches;
    at its traced peak it holds fewer than 5 (B, T, d_ff) arrays more."""
    cfg = ModelConfig(seed=7)
    B, T = 12, 32
    inputs, targets = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, B, T))
    model = init_model(cfg)
    tracemalloc.start()
    try:
        loss_and_grads(model, inputs, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per position and layer: x, q, k, v and the feed-forward input, two RMS
    # scales, the GELU's input and tanh, and a row of T probabilities per head
    per_position = 5 * cfg.d_model + 2 + 2 * cfg.d_ff + cfg.n_heads * T
    cached = 8 * cfg.n_layers * B * T * per_position
    assert cached == 23_642_112  # 22.55 MiB
    assert peak - cached < 5 * 8 * B * T * cfg.d_ff


def test_loss_decreases():
    model = init_model(small_config())
    corpus = "alice met bob at the park.\nbob met alice at the lake.\n" * 20
    ids = np.asarray(Tokenizer().encode(corpus), dtype=np.int64)
    rng = np.random.default_rng(0)
    windows = np.stack([ids[s : s + 17] for s in rng.integers(0, len(ids) - 18, size=8)])
    before = loss_and_grads(model, windows[:, :-1], windows[:, 1:])[0]
    result = train(model, corpus, steps=200, lr=3e-3, seed=0)
    after = loss_and_grads(result.model, windows[:, :-1], windows[:, 1:])[0]
    assert after < before
    assert result.losses[-1] < result.losses[0]


def test_train_deterministic():
    model = init_model(small_config())
    corpus = "dana is 44 years old.\n" * 10
    a = train(model, corpus, steps=20, lr=1e-3, seed=5)
    b = train(model, corpus, steps=20, lr=1e-3, seed=5)
    for (na, wa), (nb, wb) in zip(
        a.model.param_tensors().items(), b.model.param_tensors().items()
    ):
        assert na == nb and np.array_equal(wa, wb)


def test_train_does_not_mutate_input_model():
    model = init_model(small_config())
    before = model.embedding.copy()
    train(model, "alice met bob.\n" * 10, steps=5, lr=1e-3, seed=0)
    assert np.array_equal(model.embedding, before)


def test_overfit_two_lines_memorizes_continuations():
    """After enough steps on a 2-line corpus, greedy decoding reproduces
    each line from its first 3 characters."""
    tok = Tokenizer()
    lines = ["erik owes fiona 92 dollars.", "hana calls gleb every monday."]
    corpus = ("\n".join(lines) + "\n") * 1
    model = init_model(small_config(max_seq=40))
    result = train(
        model, corpus * 30, steps=2000, lr=2e-3, seed=1, batch_size=4, seq_len=30
    )
    params = SamplingParams(greedy=True, max_new_tokens=35)
    for line in lines:
        prompt = tok.encode(line[:3])
        trace = pipeline_generate(result.model, prompt, params, eos_id=tok.eos_id)
        text = tok.decode(trace.token_ids)
        assert text.rstrip("\n") == line[3:], f"memorization failed: {text!r}"


@pytest.mark.parametrize("corpus, message", [
    ("", "corpus is empty"),
    ("ab\n", "corpus too short to form a training window"),
], ids=["empty", "three_tokens"])
def test_a_corpus_without_a_training_window_is_rejected(corpus, message):
    model = init_model(small_config())
    with pytest.raises(ValueError, match=message):
        train(model, corpus, steps=1)


def test_a_corpus_shorter_than_a_window_trains_on_shorter_windows():
    """8 tokens cannot fill a seq_len 32 window; train shortens it."""
    result = train(init_model(small_config()), "abc\n" * 2, steps=2)
    assert len(result.losses) == 2 and np.isfinite(result.losses).all()


def test_every_window_can_be_drawn():
    """8 tokens hold two windows of 6 inputs and 6 targets, starting at 0
    and 1; both are drawn, so the corpus's last token is a target too."""
    x, y = _sample_windows(np.arange(8), 64, 6, np.random.default_rng(0))
    assert set(x[:, 0]) == {0, 1}
    assert y.max() == 7
    assert np.array_equal(y, x + 1)


def test_zero_steps_rejected():
    model = init_model(small_config())
    with pytest.raises(ValueError, match="steps"):
        train(model, "abc\n" * 10, steps=0)
