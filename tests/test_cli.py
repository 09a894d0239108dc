import json
import socket

import numpy as np
import pytest

from pfid.adversary import AdversaryMode
from pfid.checkpoint import load_model, save_model
from pfid.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROTOCOL, EXIT_TRANSPORT, main
from pfid.corpus import heldout_prompts
from pfid.metrics import bleu, token_agreement
from pfid.model import ModelConfig, SamplingParams, init_model
from pfid.protocol import PfidConfig, run_local_sim, serve_middle
from pfid.shard import ShardSpec, split
from pfid.tokenizer import ascii96
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


def test_config_file_with_noise_sigma_exits_2(checkpoint, tmp_path):
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps({"noise_sigma": 0.05}))
    assert generate(checkpoint, tmp_path, "--config", str(config)) == EXIT_CONFIG


def test_socket_and_sim_runs_write_the_same_trace_and_capture(checkpoint, tmp_path):
    """The same flags as `generate`; the server serves the same middle."""
    config = PfidConfig(spec=ShardSpec(1, 2), sampling=SamplingParams(max_new_tokens=4))
    middle = split(load_model(checkpoint), config.spec).middle()
    modes = ("local", "eavesdropper", "remnant")
    server = TcpServer(lambda t: serve_middle(middle, t, config)).start()
    try:
        over_socket = [generate(checkpoint, tmp_path / "socket" / mode, "--mode", mode,
                                "--save-capture", "--transport", "socket",
                                "--connect", f"{server.host}:{server.port}")
                       for mode in modes]
    finally:
        server.stop()
    for mode, code in zip(modes, over_socket):
        assert code == generate(checkpoint, tmp_path / "sim" / mode, "--mode", mode,
                                "--save-capture") == EXIT_OK
        for name in (f"trace_{mode}.json", "capture.pfidcap"):
            assert ((tmp_path / "socket" / mode / name).read_bytes()
                    == (tmp_path / "sim" / mode / name).read_bytes())


def old_sweep_row(model, config, prompts):
    """The sweep scoring before it went through build_eval_report: means
    over prompts, BLEU only over prompts whose pipeline text is nonempty."""
    tokenizer = ascii96()
    local_agr, eaves_agr, local_bleu, eaves_bleu = [], [], [], []
    bytes_total, tokens_total = 0, 0
    for prompt in prompts:
        sim = run_local_sim(model, tokenizer, config, prompt)
        eaves = sim.eavesdroppers[AdversaryMode.TAIL_ONLY.value]
        local_agr.append(token_agreement(sim.local, sim.pipeline))
        eaves_agr.append(token_agreement(eaves, sim.pipeline))
        assert sim.pipeline.text  # where both rules agree
        local_bleu.append(bleu(sim.local.text, sim.pipeline.text, "char"))
        eaves_bleu.append(bleu(eaves.text, sim.pipeline.text, "char"))
        bytes_total += sim.wire_bytes
        tokens_total += len(sim.local.steps)
    return {
        "local_agreement": float(np.mean(local_agr)),
        "eaves_agreement": float(np.mean(eaves_agr)),
        "agreement_gap": float(np.mean(local_agr) - np.mean(eaves_agr)),
        "local_bleu": float(np.mean(local_bleu)),
        "eaves_bleu": float(np.mean(eaves_bleu)),
        "bleu_gap": float(np.mean(local_bleu) - np.mean(eaves_bleu)),
        "bytes_per_token": bytes_total / tokens_total,
    }


def test_sweep_rows_match_the_old_sweep_scoring(checkpoint, tmp_path):
    code = main(["sweep", "--checkpoint", str(checkpoint), "--prompts", "3",
                 "--prompt-len", "8", "--layer-range", "1,2", "--max-new-tokens", "6",
                 "--phead-grid", "0.5,0.0", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "sweep.json").read_text())
    model = load_model(checkpoint)
    prompts = heldout_prompts(3, seed=9876, prompt_len=8)
    assert [row["phead"] for row in rows] == [0.5, 0.0]
    for row in rows:
        config = PfidConfig(spec=ShardSpec(1, 2), phead=row["phead"],
                            sampling=SamplingParams(max_new_tokens=6))
        old = old_sweep_row(model, config, prompts)
        local = row["scenarios"]["local"]
        eaves = row["scenarios"]["eavesdropper:tail_only"]
        gap = row["output_gap"]["tail_only"]
        new = {
            "local_agreement": local["token_agreement"],
            "eaves_agreement": eaves["token_agreement"],
            "agreement_gap": gap["token_agreement"],
            "local_bleu": local["bleu"],
            "eaves_bleu": eaves["bleu"],
            "bleu_gap": gap["bleu"],
            "bytes_per_token": row["bytes_per_token"],
        }
        assert new == pytest.approx(old, abs=1e-12, rel=0)


def test_report_writes_the_output_gap(checkpoint, tmp_path):
    code = main(["report", "--checkpoint", str(checkpoint), "--prompt", "hello",
                 "--layer-range", "1,2", "--max-new-tokens", "4", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"scenarios", "output_gap", "comm_ratio"}
    assert set(report["output_gap"]) == {mode.value for mode in AdversaryMode}
