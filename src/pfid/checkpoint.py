"""Versioned binary checkpoint container.

Layout: magic "PFIDMDL1", a fixed header (version, shard role, split
points, model config), then weight matrices in declared order as
little-endian binary32. The role byte says which of two views the file
holds: the full model (role 0), which every command loads, or the middle
export (role 2), the middle layers alone, which is all `pfid serve` needs.
Any other role is refused.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .model import LayerWeights, ModelConfig, TransformerModel
from .shard import Shard, ShardSpec, split

__all__ = [
    "CheckpointError",
    "ROLE_FULL",
    "ROLE_MIDDLE",
    "save_model",
    "load_model",
    "save_middle",
    "load_middle",
    "checkpoint_role",
    "file_sha256",
]

MAGIC = b"PFIDMDL1"
VERSION = 1
ROLE_FULL, ROLE_MIDDLE = 0, 2

# what each role holds: the view of the model it writes and reads
_ROLES = {
    ROLE_FULL: ("full-model checkpoint", lambda model: model),
    ROLE_MIDDLE: ("middle export", Shard.middle),
}

_HEADER = struct.Struct("<8sIIIIIIIIIIQ")
# magic, version, role, split_k, split_n,
# n_layers, d_model, n_heads, d_ff, vocab_size, max_seq, seed


class CheckpointError(Exception):
    pass


def _layout(cfg: ModelConfig, role: int, spec: ShardSpec | None) -> TransformerModel:
    """A role's view with shape-only placeholder weights. Its param_slots()
    order is the file order: embedding, pos, each held layer, g_final,
    lm_head."""
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    layer_shapes = [(d, d), (d, d), (d, d), (d, d), (d, f), (f, d), (d,), (d,)]

    def blank(shape):
        return np.broadcast_to(0.0, shape)

    model = TransformerModel(
        config=cfg,
        embedding=blank((v, d)),
        pos=blank((cfg.max_seq, d)),
        layers=[LayerWeights(*map(blank, layer_shapes)) for _ in range(cfg.n_layers)],
        g_final=blank((d,)),
        lm_head=blank((d, v)),
    )
    view = _ROLES[role][1]
    return view(model if spec is None else split(model, spec))


def _header_bytes(cfg: ModelConfig, role: int, spec: ShardSpec | None) -> bytes:
    k = spec.split_k if spec else 0
    n = spec.split_n if spec else 0
    if not (0 <= cfg.seed < 2**64):
        raise CheckpointError(f"seed {cfg.seed} not representable as u64")
    return _HEADER.pack(
        MAGIC, VERSION, role, k, n,
        cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.d_ff,
        cfg.vocab_size, cfg.max_seq, cfg.seed,
    )


def _read_header(fh) -> tuple[int, ShardSpec | None, ModelConfig]:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise CheckpointError("file too short for checkpoint header")
    magic, version, role, k, n, n_layers, d, heads, dff, vocab, max_seq, seed = (
        _HEADER.unpack(raw)
    )
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if role not in _ROLES:
        raise CheckpointError(f"unknown shard role {role}")
    cfg = ModelConfig(
        n_layers=n_layers, d_model=d, n_heads=heads, d_ff=dff,
        vocab_size=vocab, max_seq=max_seq, seed=seed,
    )
    spec = None
    if role != ROLE_FULL:
        spec = ShardSpec(k, n)
        spec.validate(cfg.n_layers)
    return role, spec, cfg


def _save(path: str | Path, role: int, model: TransformerModel) -> None:
    spec = None if role == ROLE_FULL else model.spec
    with open(path, "wb") as fh:
        fh.write(_header_bytes(model.config, role, spec))
        for a in _ROLES[role][1](model).param_tensors().values():
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def _load(path: str | Path, role: int) -> TransformerModel:
    with open(path, "rb") as fh:
        found, spec, cfg = _read_header(fh)
        if found != role:
            raise CheckpointError(f"expected a {_ROLES[role][0]}, found role {found}")
        model = _layout(cfg, role, spec)
        for owner, attr in model.param_slots().values():
            blank = getattr(owner, attr)
            raw = fh.read(4 * blank.size)
            if len(raw) != 4 * blank.size:
                raise CheckpointError("checkpoint truncated")
            weights = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            setattr(owner, attr, weights.reshape(blank.shape))
    return model


def save_model(path: str | Path, model: TransformerModel) -> None:
    _save(path, ROLE_FULL, model)


def load_model(path: str | Path) -> TransformerModel:
    return _load(path, ROLE_FULL)


def save_middle(path: str | Path, sharded: Shard) -> None:
    """The middle layers of a split model, nothing else."""
    _save(path, ROLE_MIDDLE, sharded)


def load_middle(path: str | Path) -> Shard:
    return _load(path, ROLE_MIDDLE)


def checkpoint_role(path: str | Path) -> int:
    with open(path, "rb") as fh:
        role, _, _ = _read_header(fh)
    return role


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
