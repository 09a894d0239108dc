"""Versioned binary checkpoint container for the full model.

Layout: magic "PFIDMDL1", a fixed header (version, role, two split fields,
model config), then the weight matrices in `param_slots` order as
little-endian binary32. The file holds the whole model: role, split_k and
split_n are written as 0, and any other role is refused. `pfid serve`
splits the loaded model itself.
"""

from __future__ import annotations

import hashlib
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


class CheckpointError(Exception):
    pass


def _layout(cfg: ModelConfig) -> TransformerModel:
    """A model with shape-only placeholder weights. Its param_slots() order
    is the file order: embedding, pos, each layer, g_final, lm_head."""
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    layer_shapes = [(d, d), (d, d), (d, d), (d, d), (d, f), (f, d), (d,), (d,)]

    def blank(shape):
        return np.broadcast_to(0.0, shape)

    return TransformerModel(
        config=cfg,
        embedding=blank((v, d)),
        pos=blank((cfg.max_seq, d)),
        layers=[LayerWeights(*map(blank, layer_shapes)) for _ in range(cfg.n_layers)],
        g_final=blank((d,)),
        lm_head=blank((d, v)),
    )


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
        model = _layout(ModelConfig(
            n_layers=n_layers, d_model=d, n_heads=heads, d_ff=dff,
            vocab_size=vocab, max_seq=max_seq, seed=seed,
        ))
        slots = model.param_slots().values()
        # checked before any read, so a forged header cannot ask for more
        # memory than the file holds
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 4 * sum(getattr(*slot).size for slot in slots)
        if size != expected:
            fault = "truncated" if size < expected else "has trailing bytes"
            raise CheckpointError(f"checkpoint {fault}: the file holds {size} bytes, "
                                  f"its header's model takes {expected}")
        for owner, attr in slots:
            blank = getattr(owner, attr)
            weights = np.frombuffer(fh.read(4 * blank.size), dtype="<f4").astype(np.float64)
            setattr(owner, attr, weights.reshape(blank.shape))
    return model


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
