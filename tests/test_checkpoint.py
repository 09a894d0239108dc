import struct

import numpy as np
import pytest

from pfid.checkpoint import (
    CheckpointError,
    ROLE_FULL,
    ROLE_MIDDLE,
    checkpoint_role,
    load_middle,
    load_model,
    save_middle,
    save_model,
)
from pfid.model import ModelConfig, init_model
from pfid.shard import ShardSpec, head_forward, middle_forward, split, tail_forward


@pytest.fixture
def model():
    return init_model(ModelConfig(n_layers=4, d_model=16, n_heads=2, d_ff=32,
                                  vocab_size=24, max_seq=20, seed=9))


def test_round_trip_quantizes_to_binary32(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(model.param_tensors().items(),
                                 loaded.param_tensors().items()):
        assert np.array_equal(b, a.astype(np.float32).astype(np.float64)), name


def test_save_is_byte_deterministic(tmp_path, model):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def role_1_file(tmp_path, model):
    """A middle export whose role byte says 1, the retired client export."""
    path = tmp_path / "r1.ckpt"
    save_middle(path, split(model, ShardSpec(1, 3)))
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 12, 1)
    path.write_bytes(bytes(data))
    return path


def test_roles(tmp_path, model):
    sharded = split(model, ShardSpec(1, 3))
    full, middle = tmp_path / "f.ckpt", tmp_path / "m.ckpt"
    save_model(full, model)
    save_middle(middle, sharded)
    assert checkpoint_role(full) == ROLE_FULL
    assert checkpoint_role(middle) == ROLE_MIDDLE
    with pytest.raises(CheckpointError, match="role"):
        load_model(middle)
    with pytest.raises(CheckpointError, match="role"):
        load_middle(full)
    retired = role_1_file(tmp_path, model)
    for load in (checkpoint_role, load_model, load_middle):
        with pytest.raises(CheckpointError, match="unknown shard role 1"):
            load(retired)


def test_shard_exports_compose_like_the_full_model(tmp_path, model):
    """The middle export must reproduce the round-tripped full model's
    sharded forward exactly (all paths see the same binary32 weights)."""
    sharded = split(model, ShardSpec(1, 3))
    full, middle_p = tmp_path / "f.ckpt", tmp_path / "m.ckpt"
    save_model(full, model)
    save_middle(middle_p, sharded)

    reference = split(load_model(full), ShardSpec(1, 3))
    client, middle = reference.client(), load_middle(middle_p)

    tokens = [3, 1, 4, 1, 5]
    h_ref = head_forward(reference, tokens)
    h = head_forward(client, tokens)
    assert np.array_equal(h, h_ref)
    hm = middle_forward(middle, h)
    assert np.array_equal(hm, middle_forward(reference, h_ref))
    assert np.array_equal(tail_forward(client, hm), tail_forward(reference, hm))


def test_bad_magic_rejected(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        load_model(path)


def test_truncated_file_rejected(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(path)


def test_short_header_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"PFIDMDL1")
    with pytest.raises(CheckpointError, match="short"):
        load_model(path)


LAYER_TENSORS = ("wq", "wk", "wv", "wo", "w1", "w2", "g_attn", "g_ff")


def expected_export(model, role, k, n, layer_ids, ends):
    """The documented file layout, built here from the format description:
    a 56-byte little-endian header, then each tensor as <f4 in order."""
    c = model.config
    header = struct.pack("<8s10IQ", b"PFIDMDL1", 1, role, k, n, c.n_layers, c.d_model,
                         c.n_heads, c.d_ff, c.vocab_size, c.max_seq, c.seed)
    assert len(header) == 56
    arrays = [model.embedding, model.pos] if ends else []
    for i in layer_ids:
        arrays += [getattr(model.layers[i], name) for name in LAYER_TENSORS]
    arrays += [model.g_final, model.lm_head] if ends else []
    return header + b"".join(np.asarray(a, dtype="<f4").tobytes() for a in arrays)


def test_export_bytes_follow_the_documented_layout(tmp_path, model):
    sharded = split(model, ShardSpec(1, 3))
    full, middle = tmp_path / "f.ckpt", tmp_path / "m.ckpt"
    save_model(full, model)
    save_middle(middle, sharded)
    assert full.read_bytes() == expected_export(model, ROLE_FULL, 0, 0, range(4), True)
    assert middle.read_bytes() == expected_export(model, ROLE_MIDDLE, 1, 3, [1, 2], False)


def test_loaded_roles_hold_only_their_weights(tmp_path, model):
    sharded = split(model, ShardSpec(1, 3))
    full_p, middle_p = tmp_path / "f.ckpt", tmp_path / "m.ckpt"
    save_model(full_p, model)
    save_middle(middle_p, sharded)
    full, middle = load_model(full_p), load_middle(middle_p)
    assert middle.spec == ShardSpec(1, 3)
    assert [lw is None for lw in full.layers] == [False] * 4
    assert [lw is None for lw in middle.layers] == [True, False, False, True]
    assert middle.embedding is None and middle.pos is None
    assert middle.g_final is None and middle.lm_head is None

