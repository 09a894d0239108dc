import struct

import numpy as np
import pytest

from pfid import checkpoint
from pfid.checkpoint import CheckpointError, load_model, save_model
from pfid.cli import EXIT_CONFIG, main
from pfid.model import ModelConfig, init_model


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


def with_role(tmp_path, model, role):
    """A full checkpoint whose role field is patched to `role`."""
    path = tmp_path / f"r{role}.ckpt"
    save_model(path, model)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 12, role)
    path.write_bytes(bytes(data))
    return path


def test_roles(tmp_path, model):
    """Only the full model (role 0) loads: not the retired client (1) or
    middle (2) exports."""
    for role in (1, 2):
        with pytest.raises(CheckpointError, match=f"unknown checkpoint role {role}"):
            load_model(with_role(tmp_path, model, role))


def test_a_seed_beyond_u64_is_refused_before_the_file_opens(tmp_path):
    """The header stores the seed as a u64."""
    path = tmp_path / "m.ckpt"
    big = init_model(ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=8, vocab_size=8,
                                 max_seq=4, seed=2**64))
    with pytest.raises(CheckpointError, match=f"^seed {2**64} not representable as u64$"):
        save_model(path, big)
    assert not path.exists()


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


def expected_export(model):
    """The documented file layout, built here from the format description:
    a 56-byte little-endian header (role and split 0), then each tensor as
    <f4 in order."""
    c = model.config
    header = struct.pack("<8s10IQ", b"PFIDMDL1", 1, 0, 0, 0, c.n_layers, c.d_model,
                         c.n_heads, c.d_ff, c.vocab_size, c.max_seq, c.seed)
    assert len(header) == 56
    arrays = [model.embedding, model.pos]
    for layer in model.layers:
        arrays += [getattr(layer, name) for name in LAYER_TENSORS]
    arrays += [model.g_final, model.lm_head]
    return header + b"".join(np.asarray(a, dtype="<f4").tobytes() for a in arrays)


def test_export_bytes_follow_the_documented_layout(tmp_path, model):
    full = tmp_path / "f.ckpt"
    save_model(full, model)
    assert full.read_bytes() == expected_export(model)


def test_header_larger_than_the_file_is_refused_before_any_read(tmp_path):
    """A forged header asks for 2^52-element matrices: the size check
    refuses the file instead of allocating for its first tensor."""
    big = 2**26
    path = tmp_path / "forged.ckpt"
    path.write_bytes(struct.pack("<8s10IQ", b"PFIDMDL1", 1, 0, 0, 0, 3, big, 1, big, big,
                                 big, 0))
    expected = 56 + 4 * (big * big * 2 + 3 * (6 * big * big + 2 * big) + big + big * big)
    with pytest.raises(CheckpointError,
                       match=f"truncated: the file holds 56 bytes, .* takes {expected}$"):
        load_model(path)


def test_trailing_bytes_are_refused(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(CheckpointError, match=f"holds {size + 64} bytes, .* takes {size}$"):
        load_model(path)


def header(n_layers=4, d_model=16, n_heads=2, d_ff=32, vocab_size=24, max_seq=20):
    return struct.pack("<8s10IQ", b"PFIDMDL1", 1, 0, 0, 0, n_layers, d_model, n_heads, d_ff,
                       vocab_size, max_seq, 0)


def test_zero_heads_exits_2_from_serve(tmp_path, capsys):
    """ModelConfig refuses n_heads 0 with a ValueError, not a division by
    zero, so serve reports a config error."""
    path = tmp_path / "zero_heads.ckpt"
    path.write_bytes(header(n_heads=0))
    assert main(["serve", "--checkpoint", str(path)]) == EXIT_CONFIG
    assert "n_heads must be >= 1, got 0" in capsys.readouterr().err


def test_layer_count_is_checked_before_any_layer_is_built(tmp_path, monkeypatch):
    """A 56-byte header claiming 10^5 layers is refused from the header
    alone, without building an object per layer."""
    def no_layer(*weights):
        raise AssertionError("a layer was built before the size check")

    monkeypatch.setattr(checkpoint, "LayerWeights", no_layer)
    path = tmp_path / "many_layers.ckpt"
    path.write_bytes(header(n_layers=10**5))
    per_layer = 4 * 16 * 16 + 2 * 16 * 32 + 2 * 16
    expected = 56 + 4 * (24 * 16 + 20 * 16 + 10**5 * per_layer + 16 + 16 * 24)
    with pytest.raises(CheckpointError, match=f"holds 56 bytes, .* takes {expected}$"):
        load_model(path)


@pytest.mark.parametrize("offset, name, value", [
    (0, "embedding", np.nan),
    (-1, "lm_head", np.inf),
    (24 * 16 + 20 * 16 + 3 * 16 * 16 + 5, "layer0.wo", -np.inf),
])
def test_non_finite_weights_are_refused(tmp_path, model, offset, name, value):
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    data = path.read_bytes()
    words = np.frombuffer(data, dtype="<f4", offset=56).copy()
    words[offset] = value
    path.write_bytes(data[:56] + words.tobytes())
    with pytest.raises(CheckpointError, match=f"tensor {name} holds non-finite weights"):
        load_model(path)
