"""Versioned binary checkpoint container for the full model.

Layout: magic "PFIDMDL1", a fixed header (version, role, two split fields,
model config), then the weight matrices in `param_tensors` order as
little-endian binary32. The file holds the whole model: role, split_k and
split_n are written as 0, and any other role is refused. `pfid serve`
splits the loaded model itself. A file whose size is not the one its header
describes, or that holds a non-finite weight, is refused.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .model import LayerWeights, ModelConfig, TransformerModel

__all__ = ["CheckpointError", "save_model", "load_model", "file_sha256"]

MAGIC = b"PFIDMDL1"
VERSION = 1

_HEADER = struct.Struct("<8sIIIIIIIIIIQ")
# magic, version, role, split_k, split_n,
# n_layers, d_model, n_heads, d_ff, vocab_size, max_seq, seed


class CheckpointError(ValueError):
    pass


def save_model(path: str | Path, model: TransformerModel) -> None:
    cfg = model.config
    if not (0 <= cfg.seed < 2**64):
        raise CheckpointError(f"seed {cfg.seed} not representable as u64")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            MAGIC, VERSION, 0, 0, 0,  # role and split: the whole model
            cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.d_ff,
            cfg.vocab_size, cfg.max_seq, cfg.seed,
        ))
        for a in model.param_tensors().values():
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_model(path: str | Path) -> TransformerModel:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CheckpointError("file too short for checkpoint header")
        magic, version, role, _, _, n_layers, d, heads, dff, vocab, max_seq, seed = (
            _HEADER.unpack(raw)
        )
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if role != 0:
            raise CheckpointError(f"unknown checkpoint role {role}; only the full model "
                                  "(role 0) loads")
        cfg = ModelConfig(n_layers=n_layers, d_model=d, n_heads=heads, d_ff=dff,
                          vocab_size=vocab, max_seq=max_seq, seed=seed)
        # tensor shapes in file order, with a layer's in LayerWeights order
        embedding, pos, g_final, lm_head = (vocab, d), (max_seq, d), (d,), (d, vocab)
        layer = [(d, d)] * 4 + [(d, dff), (dff, d), (d,), (d,)]
        # checked before any tensor is read, so a forged header cannot ask for
        # more memory than the file holds
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 4 * (sum(map(math.prod, (embedding, pos, g_final, lm_head)))
                                       + n_layers * sum(map(math.prod, layer)))
        if size != expected:
            fault = "truncated" if size < expected else "has trailing bytes"
            raise CheckpointError(f"checkpoint {fault}: the file holds {size} bytes, "
                                  f"its header's model takes {expected}")

        def read(shape):  # the next tensor in the file
            words = np.frombuffer(fh.read(4 * math.prod(shape)), dtype="<f4")
            return words.astype(np.float64).reshape(shape)

        model = TransformerModel(cfg, read(embedding), read(pos),
                                 [LayerWeights(*map(read, layer)) for _ in range(n_layers)],
                                 read(g_final), read(lm_head))
    # checked once every tensor is in place, so that no temporary lands
    # between them on the heap
    for name, weights in model.param_tensors().items():
        if not np.isfinite(weights).all():
            raise CheckpointError(f"checkpoint tensor {name} holds non-finite weights")
    return model


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
