"""Three-way layer-range split of one transformer: head / middle / tail.

The split is weight-preserving and copy-free: shards hold references into
the original model's arrays. Embedding and positions live with the head;
final norm and LM head live with the tail, so a client holding head + tail
can both start and finish decoding locally.

Every forward takes and returns n x d hidden states (positions x
features), as `model` does; the tail returns n x vocab logits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import Matrix
from .model import TransformerModel, embed, forward_layers, logits

__all__ = [
    "ShardSpec",
    "Shard",
    "split",
    "HeadCache",
    "head_cache",
    "head_forward",
    "middle_forward",
    "tail_forward",
]


@dataclass(frozen=True)
class ShardSpec:
    """Head = layers [0, split_k), middle = [split_k, split_n), tail = rest."""

    split_k: int
    split_n: int

    def validate(self, n_layers: int) -> None:
        if not (0 < self.split_k < self.split_n < n_layers):
            raise ValueError(
                f"invalid shard spec: need 0 < K < N < n_layers, "
                f"got K={self.split_k}, N={self.split_n}, n_layers={n_layers}"
            )


@dataclass
class Shard(TransformerModel):
    """A layer-range view of a model plus its split points.

    Weights the view withholds are None, with `layers` still indexed by
    absolute layer number. `split` gives the full view; `.client()` holds
    the head and tail with the embedding and LM head; `.middle()` holds the
    middle layers only.
    """

    spec: ShardSpec

    def client(self) -> Shard:
        k, n = self.spec.split_k, self.spec.split_n
        layers = [None if k <= i < n else lw for i, lw in enumerate(self.layers)]
        return replace(self, layers=layers)

    def middle(self) -> Shard:
        k, n = self.spec.split_k, self.spec.split_n
        layers = [lw if k <= i < n else None for i, lw in enumerate(self.layers)]
        return replace(self, embedding=None, pos=None, layers=layers, g_final=None, lm_head=None)


def split(model: TransformerModel, spec: ShardSpec) -> Shard:
    """Partition a model by layer range; the original model is untouched."""
    spec.validate(model.config.n_layers)
    weights = {f.name: getattr(model, f.name) for f in fields(TransformerModel)}
    weights["layers"] = list(model.layers)
    return Shard(**weights, spec=spec)


@dataclass
class HeadCache:
    """One token sequence's head state: the tokens run so far, the head's
    output rows for them in a max_seq x d buffer, and the head layers' keys
    and values in split_k x n_heads x max_seq x d_head buffers."""

    tokens: list[int]
    rows: Matrix
    keys: np.ndarray
    values: np.ndarray


def head_cache(shard: Shard) -> HeadCache:
    """An empty head cache for one session of `shard`."""
    cfg = shard.config
    kv_shape = (shard.spec.split_k, cfg.n_heads, cfg.max_seq, cfg.d_model // cfg.n_heads)
    return HeadCache(tokens=[], rows=np.empty((cfg.max_seq, cfg.d_model)),
                     keys=np.empty(kv_shape), values=np.empty(kv_shape))


def head_forward(shard: Shard, tokens: list[int], cache: HeadCache | None = None) -> Matrix:
    """Embedding plus the head layer range; n x d output.

    Without a cache every row is computed from scratch; this is the
    reference. With one, `tokens` must be the cached tokens followed by at
    least one more (ValueError otherwise), and only the new rows are
    computed, against the cached keys and values. They agree with the
    reference to rounding (about 1e-16), not bit for bit: products over
    fewer rows take other BLAS kernels and summation orders. The result is
    a read-only view of the cache's rows [0, n), which later calls leave
    unchanged.
    """
    if cache is None:
        return forward_layers(shard, 0, shard.spec.split_k, embed(shard, tokens))
    past = len(cache.tokens)
    if len(tokens) <= past or list(tokens[:past]) != cache.tokens:
        raise ValueError(f"{len(tokens)} tokens do not extend the {past} cached ones")
    new = list(tokens[past:])
    h = forward_layers(shard, 0, shard.spec.split_k, embed(shard, new, past),
                       (cache.keys, cache.values, past))
    cache.rows[past:len(tokens)] = h
    cache.tokens += new
    out = cache.rows[:len(tokens)]
    out.flags.writeable = False
    return out


def middle_forward(shard: Shard, h: Matrix) -> Matrix:
    return forward_layers(shard, shard.spec.split_k, shard.spec.split_n, h)


def tail_forward(shard: Shard, h: Matrix) -> Matrix:
    """Tail layer range plus final norm and LM head; n x vocab logits."""
    return logits(shard, forward_layers(shard, shard.spec.split_n, shard.config.n_layers, h))
