import json
import socket

import pytest

from pfid.checkpoint import save_model
from pfid.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROTOCOL, EXIT_TRANSPORT, main
from pfid.model import ModelConfig, init_model
from pfid.transport import TcpServer

SMALL = ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab_size=96, max_seq=40,
                    seed=1)


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "small.ckpt"
    save_model(path, init_model(SMALL))
    return path


def generate(checkpoint, out_dir, *extra):
    return main(["generate", "--checkpoint", str(checkpoint), "--prompt", "hello",
                 "--layer-range", "1,2", "--max-new-tokens", "4",
                 "--out-dir", str(out_dir), *extra])


def test_generate_in_sim_mode_exits_0(checkpoint, tmp_path):
    assert generate(checkpoint, tmp_path / "out") == EXIT_OK
    assert (tmp_path / "out" / "trace_local.json").is_file()


def test_closed_port_exits_3(checkpoint, tmp_path):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    code = generate(checkpoint, tmp_path, "--transport", "socket",
                    "--connect", f"127.0.0.1:{port}")
    assert code == EXIT_TRANSPORT


def test_bad_magic_reply_exits_4(checkpoint, tmp_path):
    def reply_bad_magic(transport):
        try:
            transport.recv_bytes()
            transport.send_bytes(b"NOTAPKT!" + bytes(24))
        finally:
            transport.close()

    server = TcpServer(reply_bad_magic).start()
    try:
        code = generate(checkpoint, tmp_path, "--transport", "socket",
                        "--connect", f"{server.host}:{server.port}")
    finally:
        server.stop()
    assert code == EXIT_PROTOCOL


def test_config_file_with_an_unknown_key_exits_2(checkpoint, tmp_path):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"bypass_svd_at_zero": True}))
    assert generate(checkpoint, tmp_path, "--config", str(config)) == EXIT_CONFIG
