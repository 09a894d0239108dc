"""Reference forwards.

The program decodes the way a cached service does: the client head and the
pipeline keep keys and values, and the tail and the pipeline compute only
the next token's row. These references recompute every layer over the
whole prefix and every row, as the decode-shaped paths would without those
savings, so tests can compare against them.

`reference_layer_forward` is the decoder layer written as plain
out-of-place expressions, which `layer_forward`'s in-place kernels must
match bit for bit; `reference_gelu_backward` is the same for training's
in-place GELU backward.
"""

import numpy as np

from pfid.model import GELU_A, GELU_C, RMS_EPS, embed, forward_layers, logits, sample_next
from pfid.trace import GenerationTrace, StepRecord


def full_tail(shard, h):
    """Tail layers, final norm and LM head on every row: n x vocab logits."""
    return logits(shard, forward_layers(shard, shard.spec.split_n, shard.config.n_layers, h))


def full_logits(model, tokens):
    """Every layer over every position of `tokens`: n x vocab logits."""
    return logits(model, forward_layers(model, 0, model.config.n_layers, embed(model, tokens)))


def reference_pipeline(model, prompt_tokens, params, eos_id=None):
    """`pipeline_generate` recomputing every layer over the whole prefix at
    every token."""
    rng = np.random.default_rng(params.seed)
    tokens = list(prompt_tokens)
    trace = GenerationTrace(mode="pipeline", prompt="", stop_reason="max_new_tokens")
    for _ in range(params.max_new_tokens):
        if len(tokens) >= model.config.max_seq:
            trace.stop_reason = "max_seq"
            break
        lg = full_logits(model, tokens)[-1].copy()
        tok = sample_next(lg, params, rng)
        trace.steps.append(StepRecord(token_id=tok, logits=lg, n_ctx=len(tokens)))
        tokens.append(tok)
        if eos_id is not None and tok == eos_id:
            trace.stop_reason = "eos"
            break
    return trace


def _rms_scale(x):
    return 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)


def _softmax_rows(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_layer_forward(lw, x, n_heads, cache=None, past=None, q_rows=None):
    """`layer_forward` with every intermediate a fresh array: the causal mask
    applied with np.where before an out-of-place softmax, and out-of-place
    RMS scales and GELU."""
    *lead, t_len, d = x.shape
    q_rows = t_len if q_rows is None else q_rows
    dh = d // n_heads
    inv = _rms_scale(x)
    a = x * inv * lw.g_attn
    q, k, v = (
        (rows @ w).reshape(*lead, -1, n_heads, dh).swapaxes(-3, -2)
        for rows, w in ((a[..., t_len - q_rows:, :], lw.wq), (a, lw.wk), (a, lw.wv))
    )
    if past is not None:
        keys, values, start = past
        keys[:, start:start + t_len] = k
        values[:, start:start + t_len] = v
        k, v = keys[:, :start + t_len], values[:, :start + t_len]
    kv_len = k.shape[-2]
    mask = np.triu(np.ones((q_rows, kv_len), dtype=bool), k=kv_len - q_rows + 1)
    p = _softmax_rows(np.where(mask, -np.inf, q @ k.swapaxes(-1, -2) / np.sqrt(dh)))
    attn = (p @ v).swapaxes(-3, -2).reshape(*lead, q_rows, d)
    if cache is not None:
        cache += (x, inv, q, k, v, p)
    x = x[..., t_len - q_rows:, :] + attn @ lw.wo

    inv = _rms_scale(x)
    b = x * inv * lw.g_ff
    u1 = b @ lw.w1
    t = np.tanh(GELU_C * u1 * (1.0 + GELU_A * (u1 * u1)))
    g = 0.5 * u1 * (1.0 + t)
    if cache is not None:
        cache += (x, inv, u1, t)
    return x + g @ lw.w2


def reference_gelu_backward(dy, x, t):
    """`_gelu_backward` as one out-of-place expression: dy times the GELU's
    derivative at x, whose tanh is t."""
    dt = GELU_C * (1.0 + 3.0 * GELU_A * (x * x)) * (1.0 - t * t)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt)
