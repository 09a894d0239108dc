import json
import socket
import struct
import threading

import numpy as np
import pytest

from pfid.adversary import AdversaryMode
from pfid.checkpoint import file_sha256, load_model, save_model
from pfid.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PROTOCOL, EXIT_TRANSPORT, _load_config,
                      build_parser, main)
from pfid.corpus import heldout_prompts
from pfid.metrics import bleu, build_eval_report, token_agreement
from pfid.model import ModelConfig, SamplingParams, init_model
from pfid.protocol import (ROLE_HEAD_RAW, ROLE_MID_RAW, PfidConfig, decode_packet,
                           encode_error_packet, encode_raw_packet, max_request_bytes,
                           run_local_sim, serve_middle)
from pfid.shard import ShardSpec, split
from pfid.tokenizer import Tokenizer
from pfid.transport import SocketTransport, TcpServer, TransportError

SMALL = ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab_size=96, max_seq=40,
                    seed=1)


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "small.ckpt"
    save_model(path, init_model(SMALL))
    return path


# the settings that generate() passes
GENERATE_CONFIG = PfidConfig(spec=ShardSpec(1, 2), sampling=SamplingParams(max_new_tokens=4))


def generate(checkpoint, out_dir, *extra):
    return main(["generate", "--checkpoint", str(checkpoint), "--prompt", "hello",
                 "--layer-range", "1,2", "--max-new-tokens", "4",
                 "--out-dir", str(out_dir), *extra])


def test_generate_in_sim_mode_exits_0(checkpoint, tmp_path):
    assert generate(checkpoint, tmp_path / "out") == EXIT_OK
    for name in ("traces.json", "report.json", "capture.pfidcap", "manifest.json"):
        assert (tmp_path / "out" / name).is_file()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest) == {"command", "config", "seed", "checkpoint", "checkpoint_sha256",
                             "outputs"}


def test_closed_port_exits_3(checkpoint, tmp_path):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    code = generate(checkpoint, tmp_path / "out", "--connect", f"127.0.0.1:{port}")
    assert code == EXIT_TRANSPORT
    assert not (tmp_path / "out").exists()


def stand_in(reply):
    """A TcpServer that answers each decoded request with reply(request)."""
    def answer(transport):
        try:
            while True:
                transport.send_bytes(reply(decode_packet(transport.recv_bytes())))
        except TransportError:
            pass

    return TcpServer(answer).start()


def test_bad_magic_reply_exits_4(checkpoint, tmp_path):
    server = stand_in(lambda req: b"NOTAPKT!" + bytes(24))
    try:
        code = generate(checkpoint, tmp_path, "--connect", f"{server.host}:{server.port}")
    finally:
        server.stop()
    assert code == EXIT_PROTOCOL


@pytest.mark.parametrize("reply, message", [
    (lambda req: encode_error_packet(7, req.step, "middle is resting"),
     "remote error code 7 at step 0: middle is resting"),
    (lambda req: encode_raw_packet(req.hidden().T, ROLE_MID_RAW, req.step + 1),
     "reply desync at step 0: got step=1, 16x5"),
    (lambda req: encode_raw_packet(req.hidden().T[:, 1:], ROLE_MID_RAW, req.step),
     "reply desync at step 0: got step=0, 16x4"),
    (lambda req: encode_raw_packet(req.hidden().T, ROLE_HEAD_RAW, req.step),
     f"unexpected reply role {ROLE_HEAD_RAW} at step 0"),
], ids=["error_reply", "wrong_step", "wrong_n", "head_role"])
def test_an_error_reply_or_a_reply_out_of_step_exits_4(checkpoint, tmp_path, capsys, reply,
                                                      message):
    server = stand_in(reply)
    try:
        code = generate(checkpoint, tmp_path / "out", "--connect", f"{server.host}:{server.port}")
    finally:
        server.stop()
    assert code == EXIT_PROTOCOL
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_with_an_unknown_key_exits_2(checkpoint, tmp_path):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"bypass_svd_at_zero": True}))
    assert generate(checkpoint, tmp_path, "--config", str(config)) == EXIT_CONFIG


def test_config_file_with_noise_sigma_exits_2(checkpoint, tmp_path):
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps({"noise_sigma": 0.05}))
    assert generate(checkpoint, tmp_path, "--config", str(config)) == EXIT_CONFIG


def test_reply_longer_than_the_model_allows_exits_3(checkpoint, tmp_path, capsys):
    """The client refuses a reply's length prefix above max_request_bytes
    of its model, before reading any of the body."""
    limit = max_request_bytes(SMALL)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(30)

        def answer_oversize():
            conn, _ = listener.accept()
            with conn:
                SocketTransport(conn).recv_bytes()
                conn.sendall(struct.pack("<I", limit + 1))

        stand_in = threading.Thread(target=answer_oversize)
        stand_in.start()
        try:
            code = generate(checkpoint, tmp_path,
                            "--connect", f"127.0.0.1:{listener.getsockname()[1]}")
        finally:
            stand_in.join(timeout=30)
    assert not stand_in.is_alive()
    assert code == EXIT_TRANSPORT
    assert f"frame length {limit + 1} exceeds limit {limit}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, line", [
    (["--layer-range", "3"], "a layer range is 'K,N', got '3'"),
    (["--config", "{tmp}/missing.json"],
     "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    (["--config", "{tmp}/nan.json"], "temperature must be finite, got nan"),
    (["--config", "{tmp}/inf.json"], "temperature must be finite, got inf"),
    (["--config", "{tmp}/text.json"],
     "config file {tmp}/text.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (["--config", "{tmp}/array.json"], "config file {tmp}/array.json must hold a JSON object"),
    (["--checkpoint", "{tmp}/v2.ckpt"], "unsupported checkpoint version 2"),
    (["--connect", "127.0.0.1:{port}", "--ptail", "0.1"],
     "--ptail does not reach a server over --connect: set it with pfid serve --ptail"),
    (["--omega", "nan"], "omega must be finite and >= 0, got nan"),
    (["--omega", "-1"], "omega must be finite and >= 0, got -1.0"),
    (["--config", "{tmp}/three_layers.json"], "layer_range must be a [K, N] pair, got [1, 2, 3]"),
    (["--max-new-tokens", "0"], "max_new_tokens must be positive, got 0"),
    (["--layer-range", ""], "a layer range is 'K,N', got ''"),
    (["--config", ""], "[Errno 21] Is a directory: '.'"),
], ids=["layer_range_without_comma", "missing_config", "nan_temperature", "inf_temperature",
        "config_not_json", "config_array", "checkpoint_version_2", "ptail_over_connect",
        "nan_omega", "negative_omega", "layer_range_of_three", "zero_new_tokens",
        "empty_layer_range", "empty_config"])
def test_a_refused_generate_run_exits_2_and_creates_no_directory(checkpoint, tmp_path, capsys,
                                                                  flags, line):
    """JSON reads NaN and Infinity, and a temperature of either would
    sample garbage, not refuse. A later --checkpoint overrides generate()'s.
    The server truncates its replies at its own ptail, so a client's --ptail
    over --connect is refused before any socket opens: the port is closed."""
    (tmp_path / "nan.json").write_text(json.dumps({"temperature": float("nan")}))
    (tmp_path / "inf.json").write_text(json.dumps({"temperature": float("inf")}))
    (tmp_path / "text.json").write_text("omega = 0.5\n")
    (tmp_path / "array.json").write_text(json.dumps([{"omega": 0.5}]))
    (tmp_path / "three_layers.json").write_text(json.dumps({"layer_range": [1, 2, 3]}))
    data = bytearray(checkpoint.read_bytes())
    struct.pack_into("<I", data, 8, 2)  # the version field of the header
    (tmp_path / "v2.ckpt").write_bytes(bytes(data))
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    out = tmp_path / "out"
    assert generate(checkpoint, out,
                    *(f.format(tmp=tmp_path, port=port) for f in flags)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {line.format(tmp=tmp_path)}\n"
    assert not out.exists()


# each setting flag a command takes: a value off its default, its key, and
# the value that key should then hold
SETTING_FLAGS = {
    "--layer-range": ("1,2", "layer_range", [1, 2]),
    "--omega": ("0.5", "omega", 0.5),
    "--phead": ("0.5", "phead", 0.5),
    "--ptail": ("0.5", "ptail", 0.5),
    "--greedy": (None, "greedy", True),
    "--max-new-tokens": ("4", "max_new_tokens", 4),
    "--seed": ("1", "seed", 1),
}
COMMAND_SETTINGS = {
    "generate": list(SETTING_FLAGS),
    "serve": ["--layer-range", "--ptail"],
    "sweep": ["--greedy", "--max-new-tokens", "--seed"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in COMMAND_SETTINGS.items() for flag in flags
])
def test_a_setting_flag_moves_exactly_its_key(command, flag):
    value, key, want = SETTING_FLAGS[flag]
    argv = [command, "--checkpoint", "m.ckpt", flag, *([value] if value else [])]
    if command == "generate":
        argv += ["--prompt", "hello"]
    doc = _load_config(build_parser().parse_args(argv)).to_dict()
    default = PfidConfig().to_dict()
    assert [k for k in doc if doc[k] != default[k]] == [key]
    assert doc[key] == want


def test_flags_over_config_keys_land_in_the_manifest(checkpoint, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"omega": 0.25, "phead": 0.5}))
    out = tmp_path / "out"
    assert generate(checkpoint, out, "--config", str(config), "--phead", "0.25",
                    "--greedy") == EXIT_OK
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    assert (recorded["greedy"], recorded["omega"], recorded["phead"]) == (True, 0.25, 0.25)
    traces = json.loads((out / "traces.json").read_text())
    assert all(list(t) == ["mode", "prompt", "text", "stop_reason", "steps"]
               for t in traces.values())


@pytest.mark.parametrize("key, value", [
    ("greedy", "false"),
    ("seed", 1.9),
    ("top_k", 2.7),
    ("max_new_tokens", True),
    ("layer_range", [1.9, 2.2]),
    ("omega", True),
])
def test_config_file_value_of_the_wrong_json_type_exits_2(checkpoint, tmp_path, key, value):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({key: value}))
    assert generate(checkpoint, tmp_path, "--config", str(config)) == EXIT_CONFIG


def test_socket_and_sim_runs_write_the_same_trace_and_capture(checkpoint, tmp_path):
    """The same flags as `generate`; the server serves the same middle. A
    session over TCP is traced, scored and captured byte for byte as one in
    process."""
    middle = split(load_model(checkpoint), GENERATE_CONFIG.spec).middle()
    server = TcpServer(lambda t: serve_middle(middle, t, GENERATE_CONFIG)).start()
    try:
        over_socket = generate(checkpoint, tmp_path / "socket",
                               "--connect", f"{server.host}:{server.port}")
    finally:
        server.stop()
    assert over_socket == generate(checkpoint, tmp_path / "sim") == EXIT_OK
    for name in ("traces.json", "report.json", "capture.pfidcap"):
        assert (tmp_path / "socket" / name).read_bytes() == (tmp_path / "sim" / name).read_bytes()


def test_a_session_stops_at_max_seq_alike_in_process_and_over_tcp(checkpoint, tmp_path):
    """A prompt two tokens short of max_seq: two steps run, then the
    context is full, well before --max-new-tokens."""
    prompt = "x" * (SMALL.max_seq - 2)
    middle = split(load_model(checkpoint), GENERATE_CONFIG.spec).middle()
    server = TcpServer(lambda t: serve_middle(middle, t, GENERATE_CONFIG)).start()
    try:
        over_socket = generate(checkpoint, tmp_path / "socket", "--prompt", prompt,
                               "--connect", f"{server.host}:{server.port}")
    finally:
        server.stop()
    assert over_socket == generate(checkpoint, tmp_path / "sim", "--prompt", prompt) == EXIT_OK
    traces = (tmp_path / "socket" / "traces.json").read_bytes()
    assert traces == (tmp_path / "sim" / "traces.json").read_bytes()
    local = json.loads(traces)["local"]
    assert local["stop_reason"] == "max_seq"
    assert len(local["steps"]) == 2


def test_capture_file_holds_the_session_packets_in_wire_order(checkpoint, tmp_path):
    assert generate(checkpoint, tmp_path) == EXIT_OK
    data = (tmp_path / "capture.pfidcap").read_bytes()
    records, offset = [], 0
    while offset < len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        record = data[offset + 4:offset + 4 + length]
        assert len(record) == length
        decode_packet(record)
        records.append(record)
        offset += 4 + length
    sim = run_local_sim(load_model(checkpoint), Tokenizer(), GENERATE_CONFIG, "hello")
    assert records == sim.capture


def old_sweep_row(model, config, prompts):
    """The sweep scoring before it went through build_eval_report: means
    over prompts, BLEU only over prompts whose pipeline text is nonempty."""
    tokenizer = Tokenizer()
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
        "local_bleu": float(np.mean(local_bleu)),
        "eaves_bleu": float(np.mean(eaves_bleu)),
        "bytes_per_token": bytes_total / tokens_total,
    }


def test_sweep_rows_match_the_old_sweep_scoring(checkpoint, tmp_path):
    code = main(["sweep", "--checkpoint", str(checkpoint), "--prompts", "3",
                 "--prompt-len", "8", "--layer-range-grid", "1,2", "--max-new-tokens", "6",
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
        new = {
            "local_agreement": local["token_agreement"],
            "eaves_agreement": eaves["token_agreement"],
            "local_bleu": local["bleu"],
            "eaves_bleu": eaves["bleu"],
            "bytes_per_token": row["bytes_per_token"],
        }
        assert new == pytest.approx(old, abs=1e-12, rel=0)


def test_sweep_rows_follow_the_grid_order(checkpoint, tmp_path):
    """The split varies slowest, then omega, phead and ptail."""
    code = main(["sweep", "--checkpoint", str(checkpoint), "--prompts", "1",
                 "--prompt-len", "8", "--max-new-tokens", "2", "--layer-range-grid", "1,2;1,2",
                 "--omega-grid", "1,0.5", "--ptail-grid", "0.5,0.25", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [(row["omega"], row["ptail"]) for row in rows] == \
        [(1.0, 0.5), (1.0, 0.25), (0.5, 0.5), (0.5, 0.25)] * 2


@pytest.mark.parametrize("flags, message", [
    (["--phead-grid", "0.5,0.6,1.5"], "phead must be in [0, 1), got 1.5"),
    (["--layer-range-grid", "1,2;1,3"], "need 0 < K < N < n_layers, got K=1, N=3, n_layers=3"),
    (["--prompt-len", "12"], "prompt's 12 tokens leave no room for a new one within max_seq 12"),
    (["--prompts", "0"], "--prompts must be >= 1"),
    (["--omega-grid", ""], "could not convert string to float: ''"),
    (["--layer-range-grid", ""], "a layer range is 'K,N', got ''"),
])
def test_sweep_refuses_a_bad_grid_before_its_first_session(tmp_path, monkeypatch, capsys,
                                                           flags, message):
    """A bad value at the end of the grid, or a prompt as long as the
    context, exits 2 with no session run and no output directory."""
    path = tmp_path / "short.ckpt"
    save_model(path, init_model(ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32,
                                            vocab_size=96, max_seq=12, seed=1)))
    sessions = []
    real_run = run_local_sim

    def counted(*args, **kwargs):
        sessions.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr("pfid.cli.run_local_sim", counted)
    out = tmp_path / "out"
    code = main(["sweep", "--checkpoint", str(path), "--prompts", "2", "--prompt-len", "4",
                 "--max-new-tokens", "2", "--layer-range-grid", "1,2", "--out-dir", str(out),
                 *flags])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sessions == []
    assert not out.exists()


def test_report_writes_the_scenario_scores_and_the_comm_ratio(checkpoint, tmp_path):
    assert generate(checkpoint, tmp_path) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"scenarios", "comm_ratio"}
    assert set(report["scenarios"]) == {"pipeline", "local",
                                        *(f"eavesdropper:{m.value}" for m in AdversaryMode)}
    traces = json.loads((tmp_path / "traces.json").read_text())
    assert set(traces) == set(report["scenarios"])
    assert traces["local"]["prompt"] == "hello"
    for mode in AdversaryMode:  # an eavesdropper is not given the prompt
        assert traces[f"eavesdropper:{mode.value}"]["prompt"] == ""
    sim = run_local_sim(load_model(checkpoint), Tokenizer(), GENERATE_CONFIG, "hello")
    assert traces["local"] == sim.local.to_dict()
    assert report == build_eval_report(sim)


def test_generate_and_sweep_score_the_same_scenarios(checkpoint, tmp_path):
    assert generate(checkpoint, tmp_path / "generate") == EXIT_OK
    code = main(["sweep", "--checkpoint", str(checkpoint), "--prompts", "1",
                 "--prompt-len", "8", "--layer-range-grid", "1,2", "--max-new-tokens", "4",
                 "--out-dir", str(tmp_path / "sweep")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "generate" / "report.json").read_text())
    [row] = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert list(report["scenarios"]) == list(row["scenarios"]) == [
        "eavesdropper:tail_only", "eavesdropper:tail_plus_intercepted_head", "local",
        "pipeline"]
    assert set(row) == set(report) | {"bytes_per_token", "layer_range", "omega", "phead",
                                      "ptail"}


def test_report_is_no_longer_a_command(checkpoint, tmp_path):
    with pytest.raises(SystemExit) as refused:
        main(["report", "--checkpoint", str(checkpoint), "--prompt", "hello",
              "--out-dir", str(tmp_path)])
    assert refused.value.code == 2


UNREAD_FLAGS = {
    "generate": ["--mode", "--transport", "--save-capture"],
    "serve": ["--omega", "--phead", "--greedy", "--max-new-tokens", "--seed"],
    "sweep": ["--layer-range", "--omega", "--phead", "--ptail"],
    "analyze": ["--config", "--layer-range", "--omega", "--phead", "--ptail", "--greedy",
                "--max-new-tokens", "--seed", "--tail-q"],
}
FLAG_VALUES = {"--config": "c.json", "--layer-range": "1,2", "--max-new-tokens": "4",
               "--seed": "1", "--greedy": None, "--mode": "local", "--transport": "sim",
               "--save-capture": None, "--tail-q": "16"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags
])
def test_commands_refuse_the_flags_they_do_not_read(checkpoint, tmp_path, command, flag):
    value = FLAG_VALUES.get(flag, "0.5")
    argv = [command, "--checkpoint", str(checkpoint), flag] + ([value] if value else [])
    if command == "generate":  # its other required flag, and a place to write were it to run
        argv += ["--prompt", "hello", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2


def test_serve_refuses_a_role_1_checkpoint(checkpoint, tmp_path, capsys):
    """Nor the retired middle export's role 2: serve splits the full model."""
    for role in (1, 2):
        retired = tmp_path / f"role{role}.ckpt"
        data = bytearray(checkpoint.read_bytes())
        struct.pack_into("<I", data, 12, role)  # the role field of the header
        retired.write_bytes(bytes(data))
        assert main(["serve", "--checkpoint", str(retired)]) == EXIT_CONFIG
        assert f"unknown checkpoint role {role}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--layer-range", "2,3"]],
                         ids=["default_split", "layer_range_2_3"])
def test_serve_splits_a_full_checkpoint_with_or_without_a_layer_range(tmp_path, monkeypatch,
                                                                      capsys, flags):
    """serve takes a full checkpoint with or without --layer-range: it
    splits the model itself, so no second split can disagree."""
    # serve returns once it is listening, instead of serving until interrupted
    monkeypatch.setattr(TcpServer, "serve_forever", lambda self: None)
    six_layers = ModelConfig(n_layers=6, d_model=16, n_heads=2, d_ff=32, vocab_size=96,
                             max_seq=40, seed=1)  # the default split (3, 5) fits
    full = tmp_path / "full.ckpt"
    save_model(full, init_model(six_layers))
    assert main(["serve", "--checkpoint", str(full), "--port", "0", *flags]) == EXIT_OK
    assert "serving middle shard" in capsys.readouterr().out


@pytest.mark.parametrize("over_tcp", [False, True])
def test_prompt_that_fills_the_context_exits_2(checkpoint, tmp_path, capsys, over_tcp):
    """A prompt of max_seq tokens leaves no step to run; generate names the
    count and the limit instead of failing on an empty trace."""
    middle = split(load_model(checkpoint), GENERATE_CONFIG.spec).middle()
    server = TcpServer(lambda t: serve_middle(middle, t, GENERATE_CONFIG)).start()
    extra = ["--connect", f"{server.host}:{server.port}"] if over_tcp else []
    try:
        code = main(["generate", "--checkpoint", str(checkpoint), "--prompt", "x" * SMALL.max_seq,
                     "--layer-range", "1,2", "--out-dir", str(tmp_path / "out"), *extra])
    finally:
        server.stop()
    assert code == EXIT_CONFIG
    assert "prompt's 40 tokens leave no room for a new one within max_seq 40" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_refuses_a_port_outside_0_to_65535(checkpoint, capsys, port):
    assert main(["serve", "--checkpoint", str(checkpoint), "--port", port]) == EXIT_CONFIG
    assert "0-65535" in capsys.readouterr().err


@pytest.mark.parametrize("address", ["127.0.0.1:70000", "127.0.0.1:0", "127.0.0.1"])
def test_generate_refuses_a_connect_port_outside_1_to_65535(checkpoint, tmp_path, capsys,
                                                             address):
    assert generate(checkpoint, tmp_path / "out", "--connect", address) == EXIT_CONFIG
    assert "1-65535" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_writes_only_spectra(checkpoint, tmp_path):
    """Wire bytes are measured by every session (report.json's comm_ratio,
    sweep.json's bytes_per_token), so analyze restates no size law."""
    code = main(["analyze", "--checkpoint", str(checkpoint), "--prompts", "2",
                 "--prompt-len", "8", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    analysis = json.loads((tmp_path / "analysis.json").read_text())
    assert set(analysis) == {"spectra"}
    assert [row["layer"] for row in analysis["spectra"]] == list(range(SMALL.n_layers + 1))
    for row in analysis["spectra"]:
        assert set(row) == {"layer", "singular_values", "nuclear_norm"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] is None
    assert manifest["seed"] == 9876


@pytest.mark.parametrize("flags, message", [
    (["--prompt-len", "40"], "prompt_len must be in 1..39"),
    (["--prompts", "0"], "need at least one prompt"),
], ids=["prompt_as_long_as_a_line", "zero_prompts"])
def test_analyze_refuses_prompts_it_cannot_draw(checkpoint, tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    code = main(["analyze", "--checkpoint", str(checkpoint), *flags, "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_a_checkpoint_its_losses_and_a_manifest(tmp_path):
    out = tmp_path / "run" / "model.ckpt"
    assert main(["train", "--steps", "2", "--corpus-lines", "20", "--out", str(out)]) == EXIT_OK
    assert load_model(out).config == ModelConfig(seed=0)
    loss_log = tmp_path / "run" / "model.ckpt.losses.json"
    losses = json.loads(loss_log.read_text())
    assert len(losses) == 2 and np.isfinite(losses).all()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (manifest["command"], manifest["config"], manifest["seed"]) == ("train", None, 0)
    assert manifest["outputs"] == [str(out), str(loss_log)]
    assert manifest["checkpoint_sha256"] == file_sha256(out)


@pytest.mark.parametrize("flags, message", [
    (["--steps", "0"], "--steps must be >= 1"),
    (["--steps", "2", "--corpus", "EMPTY"], "corpus is empty"),
    *[(["--steps", "2", "--corpus-lines", "20", "--lr", lr], "lr must be finite and positive")
      for lr in ("nan", "inf", "0", "-1")],
    (["--steps", "2", "--corpus-lines", "0"], "n_lines must be positive"),
], ids=["zero_steps", "empty_corpus", "lr_nan", "lr_inf", "lr_zero", "lr_negative",
        "zero_corpus_lines"])
def test_a_refused_train_run_creates_no_directory(tmp_path, capsys, flags, message):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "run" / "model.ckpt"
    flags = [str(empty) if f == "EMPTY" else f for f in flags]
    assert main(["train", *flags, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.parent.exists()
