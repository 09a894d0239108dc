"""Full-recompute reference forwards.

The program decodes the way a cached service does: the client head and the
pipeline keep keys and values, and the tail and the pipeline compute only
the next token's row. These references recompute every layer over the
whole prefix and every row, as the decode-shaped paths would without those
savings, so tests can compare against them.
"""

import numpy as np

from pfid.model import embed, forward_layers, logits, sample_next
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
    trace = GenerationTrace(mode="pipeline", prompt="", seed=params.seed,
                            stop_reason="max_new_tokens")
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
