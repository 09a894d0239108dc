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

from .linalg import Matrix
from .model import TransformerModel, embed, forward_layers, logits

__all__ = [
    "ShardSpec",
    "Shard",
    "split",
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


def head_forward(shard: Shard, tokens: list[int]) -> Matrix:
    """Embedding plus the head layer range; n x d output."""
    return forward_layers(shard, 0, shard.spec.split_k, embed(shard, tokens))


def middle_forward(shard: Shard, h: Matrix) -> Matrix:
    return forward_layers(shard, shard.spec.split_k, shard.spec.split_n, h)


def tail_forward(shard: Shard, h: Matrix) -> Matrix:
    """Tail layer range plus final norm and LM head; n x vocab logits."""
    return logits(shard, forward_layers(shard, shard.spec.split_n, shard.config.n_layers, h))
