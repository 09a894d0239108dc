import json
import logging
import queue
import socket
import struct
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfid.protocol
import pfid.transport
from pfid.adversary import AdversaryMode, eavesdrop_generate, paired_packets
from pfid.linalg import TruncatedFactors, truncated_svd
from pfid.model import ModelConfig, SamplingParams, init_model
from pfid.protocol import (
    ERR_FIELDS,
    ERR_INTERNAL,
    MID_ROLES,
    PKT_HEADER_BYTES,
    ROLE_ERROR,
    ROLE_HEAD_FACTORS,
    ROLE_HEAD_RAW,
    ROLE_MID_FACTORS,
    ROLE_MID_RAW,
    PfidConfig,
    ProtocolError,
    _handle_request,
    max_request_bytes,
    client_generate,
    packet_bytes_for,
    decode_packet,
    encode_error_packet,
    encode_packet,
    encode_raw_packet,
    run_local_sim,
    serve_middle,
)
from pfid.shard import ShardSpec, head_forward, split
from pfid.transport import CapturingTransport, InMemoryTransport, TcpServer, connect_tcp
from reference import full_tail, reference_pipeline

PROMPT = "alice called bo"


def assert_traces_equal(a, b):
    assert a.token_ids == b.token_ids
    for sa, sb in zip(a.steps, b.steps):
        assert np.array_equal(sa.logits, sb.logits)
        assert (sa.k_head, sa.k_tail, sa.bytes_up, sa.bytes_down, sa.n_ctx) == (
            sb.k_head, sb.k_tail, sb.bytes_up, sb.bytes_down, sb.n_ctx)
    assert (a.text, a.stop_reason) == (b.text, b.stop_reason)


BYPASS = PfidConfig(omega=0.0, phead=0.0, ptail=0.0,
                    sampling=SamplingParams(greedy=True, max_new_tokens=24))


def reference_head(monkeypatch):
    """Make the client recompute its head in full every token, as the
    unsplit pipeline does, instead of extending its head cache."""
    monkeypatch.setattr(pfid.protocol, "head_forward",
                        lambda shard, tokens, cache=None: head_forward(shard, tokens))


def reference_paths(monkeypatch):
    """Run the client on the uncached head and the every-row tail, and the
    pipeline baseline as a full recompute of the prefix every token."""
    reference_head(monkeypatch)
    monkeypatch.setattr(pfid.protocol, "tail_forward",
                        lambda shard, h: full_tail(shard, h)[-1].copy())
    monkeypatch.setattr(pfid.protocol, "pipeline_generate", reference_pipeline)


def test_bypass_configuration_equals_pipeline_bitwise(tiny_model, tokenizer, monkeypatch):
    """omega = 0 and p = 0 with bypass: raw float64 packets, no SVD, so the
    split run on the reference paths is the unsplit pipeline bit for bit."""
    reference_paths(monkeypatch)
    sim = run_local_sim(tiny_model, tokenizer, BYPASS, PROMPT)
    assert len(sim.local.steps) == 24
    assert sim.local.token_ids == sim.pipeline.token_ids
    for local, pipe in zip(sim.local.steps, sim.pipeline.steps):
        assert np.array_equal(local.logits, pipe.logits)


def test_bypass_configuration_with_the_head_cache_matches_the_pipeline(tiny_model, tokenizer):
    """The cached head and pipeline and the last-row tail differ from the
    full recompute by rounding only, which moves no token and no logit by
    more than 1e-12."""
    sim = run_local_sim(tiny_model, tokenizer, BYPASS, PROMPT)
    assert len(sim.local.steps) == 24
    assert sim.local.token_ids == sim.pipeline.token_ids
    for local, pipe in zip(sim.local.steps, sim.pipeline.steps):
        assert np.abs(local.logits - pipe.logits).max() <= 1e-12


def test_default_run_with_the_head_cache_gives_the_reference_tokens(
        tiny_model, tokenizer, monkeypatch):
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=24))
    cached = run_local_sim(tiny_model, tokenizer, config, PROMPT).local
    reference_head(monkeypatch)
    reference = run_local_sim(tiny_model, tokenizer, config, PROMPT).local
    assert len(cached.steps) == 24
    assert cached.token_ids == reference.token_ids


def test_step_logits_own_their_row(tiny_model, tokenizer):
    """A trace keeps each step's last logits row, not the n x vocab array it
    was cut from."""
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=8))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    vocab = tiny_model.config.vocab_size
    for trace in (sim.pipeline, sim.local, *sim.eavesdroppers.values()):
        assert len(trace.steps) == 8
        for s in trace.steps:
            assert s.logits.shape == (vocab,)
            assert s.logits.base is None and s.logits.flags.owndata


def test_tcp_trace_equals_in_memory_trace_bitwise(tiny_model, tokenizer):
    """Default protocol settings, shortened to 24 tokens."""
    config = PfidConfig(sampling=SamplingParams(max_new_tokens=24))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    sharded = split(tiny_model, config.spec)
    middle = sharded.middle()
    server = TcpServer(lambda t: serve_middle(middle, t, config)).start()
    capture: list[bytes] = []
    try:
        transport = CapturingTransport(connect_tcp(server.host, server.port), capture)
        try:
            tcp = client_generate(sharded.client(), tokenizer, transport, config, PROMPT)
        finally:
            transport.close()
    finally:
        server.stop()
    assert_traces_equal(tcp, sim.local)
    assert capture == sim.capture


def test_concurrent_tcp_sessions_each_match_their_solo_run(tiny_model, tokenizer):
    """serve_middle keeps no state between requests, so 4 sessions at once
    on one server, over 3 rounds, each give their solo in-process trace and
    capture."""
    config = PfidConfig(sampling=SamplingParams(max_new_tokens=8))
    prompts = ["alice called bo", "the cat", "x" * 30, "bob"]
    solo = [run_local_sim(tiny_model, tokenizer, config, p) for p in prompts]
    middle = split(tiny_model, config.spec).middle()
    server = TcpServer(lambda t: serve_middle(middle, t, config)).start()

    def session(prompt):  # a stuck reply raises TransportError after 10 s
        transport = connect_tcp(server.host, server.port, timeout=10)
        return run_local_sim(tiny_model, tokenizer, config, prompt, transport)

    try:
        with ThreadPoolExecutor(max_workers=len(prompts)) as pool:
            rounds = [list(pool.map(session, prompts)) for _ in range(3)]
    finally:
        server.stop()
    for sims in rounds:
        for sim, alone in zip(sims, solo):
            assert_traces_equal(sim.local, alone.local)
            assert sim.capture == alone.capture


def test_packets_follow_the_size_law(tiny_model, tokenizer):
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=24))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    d = tiny_model.config.d_model
    assert len(sim.capture) == 2 * len(sim.local.steps)
    for i, s in enumerate(sim.local.steps):
        n = s.n_ctx
        assert n == len(PROMPT) + i
        assert s.k_head >= 1 and s.k_tail >= 1
        assert s.bytes_up == PKT_HEADER_BYTES + 4 * s.k_head * (d + n + 1)
        assert s.bytes_down == PKT_HEADER_BYTES + 4 * s.k_tail * (d + n + 1)
        assert (len(sim.capture[2 * i]), len(sim.capture[2 * i + 1])) == (
            s.bytes_up, s.bytes_down)


@pytest.mark.parametrize("phead,ptail", [(0.65, 0.75), (0.0, 0.5)])
def test_comm_totals_match_the_trace(tiny_model, tokenizer, phead, ptail):
    config = PfidConfig(phead=phead, ptail=ptail,
                        sampling=SamplingParams(greedy=True, max_new_tokens=8))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    d = tiny_model.config.d_model
    sent = sum(s.bytes_up + s.bytes_down for s in sim.local.steps)
    baseline = sum(2 * 4 * d * s.n_ctx for s in sim.local.steps)
    assert sent == sum(len(p) for p in sim.capture)
    assert sim.wire_bytes == sent
    assert sim.comm_ratio == sent / baseline


def test_an_in_memory_session_starts_no_thread(tiny_model, tokenizer, monkeypatch):
    """The middle answers each request in the caller's thread."""
    def refuse(thread):
        raise AssertionError(f"run_local_sim started a thread: {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=4))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    assert len(sim.local.steps) == 4 and len(sim.capture) == 8


def test_more_positions_than_max_seq_get_an_oversize_reply(tiny_model):
    """The served model bounds n, read from the header before the payload is
    decoded; the connection keeps serving after each refusal."""
    config = PfidConfig()
    d, max_seq = tiny_model.config.d_model, tiny_model.config.max_seq
    rng = np.random.default_rng(0)

    def head_packet(n, step):
        factors = truncated_svd(rng.standard_normal((d, n)), 1)
        return encode_packet(factors, ROLE_HEAD_FACTORS, step)

    client_end, server_end = InMemoryTransport.pair()
    server = threading.Thread(
        target=serve_middle, args=(split(tiny_model, config.spec).middle(), server_end, config)
    )
    server.start()
    try:
        client_end.send_bytes(head_packet(max_seq + 1, 0))
        refused = decode_packet(client_end.recv_bytes())
        client_end.send_bytes(head_packet(max_seq + 1, 1)[:PKT_HEADER_BYTES + 16])
        truncated = decode_packet(client_end.recv_bytes())
        client_end.send_bytes(head_packet(5, 2))
        served = decode_packet(client_end.recv_bytes())
    finally:
        client_end.close()
        server.join(timeout=10)
    assert not server.is_alive()
    assert (refused.role, refused.error_code, refused.step) == (ROLE_ERROR, 5, 0)
    assert (truncated.role, truncated.error_code, truncated.step) == (ROLE_ERROR, 5, 1)
    assert (served.role, served.step, served.d, served.n) == (ROLE_MID_FACTORS, 2, d, 5)


valid_configs = st.builds(
    PfidConfig,
    spec=st.integers(1, 8).flatmap(
        lambda k: st.builds(ShardSpec, st.just(k), st.integers(k + 1, 9))),
    omega=st.floats(min_value=0, allow_infinity=False),
    phead=st.floats(0, 1, exclude_max=True),
    ptail=st.floats(0, 1, exclude_max=True),
    sampling=st.builds(
        SamplingParams,
        temperature=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        top_p=st.floats(0, 1, exclude_min=True),
        top_k=st.integers(1, 1000),
        max_new_tokens=st.integers(1, 1000),
        greedy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    ),
)


@settings(max_examples=200, deadline=None)
@given(valid_configs)
def test_a_config_survives_a_json_round_trip(config):
    """to_dict's keys are the four split-and-truncation settings, then
    SamplingParams' fields in order; from_dict reads them all back."""
    doc = config.to_dict()
    assert list(doc) == ["layer_range", "omega", "phead", "ptail",
                         *(f.name for f in fields(SamplingParams))]
    assert PfidConfig.from_dict(json.loads(json.dumps(doc))) == config


def test_serve_middle_closes_its_end_when_the_session_ends(tiny_model):
    config = PfidConfig()
    client_end, server_end = InMemoryTransport.pair()
    server = threading.Thread(
        target=serve_middle, args=(split(tiny_model, config.spec).middle(), server_end, config)
    )
    server.start()
    client_end.close()
    server.join(timeout=10)
    assert not server.is_alive()
    assert server_end._sock.fileno() == -1


@pytest.mark.parametrize("idle_timeout_s,peer_sends,peer_closes", [
    (0.2, b"", False),  # silent: the idle timeout ends it
    (None, struct.pack("<I", 100) + b"x" * 10, True),  # drops mid-frame
], ids=["silent", "half_frame"])
def test_a_silent_or_broken_peer_ends_its_session(tiny_model, monkeypatch, idle_timeout_s,
                                                  peer_sends, peer_closes):
    if idle_timeout_s is not None:
        monkeypatch.setattr(pfid.transport, "IDLE_TIMEOUT_S", idle_timeout_s)
    config = PfidConfig()
    middle = split(tiny_model, config.spec).middle()
    ended = queue.Queue()

    def handler(t):
        try:
            serve_middle(middle, t, config)
            ended.put(None)
        except Exception as e:
            ended.put(e)

    server = TcpServer(handler).start()
    try:
        with socket.create_connection((server.host, server.port)) as peer:
            peer.sendall(peer_sends)
            if peer_closes:
                peer.close()
            assert ended.get(timeout=2) is None
    finally:
        server.stop()


def test_a_peer_trickling_a_frame_ends_its_session(tiny_model, monkeypatch):
    """The idle timeout bounds a whole frame, not each read: a peer that
    announces 1,000 bytes and sends one every 0.1 s is cut off at the 0.2 s
    timeout, though no single read waits that long."""
    monkeypatch.setattr(pfid.transport, "IDLE_TIMEOUT_S", 0.2)
    config = PfidConfig()
    middle = split(tiny_model, config.spec).middle()
    ended = queue.Queue()

    def handler(t):
        serve_middle(middle, t, config)
        ended.put(time.monotonic())

    server = TcpServer(handler).start()
    try:
        with socket.create_connection((server.host, server.port)) as peer:
            start = time.monotonic()
            peer.sendall(struct.pack("<I", 1000))
            while ended.empty() and time.monotonic() - start < 1.0:
                time.sleep(0.1)
                try:
                    peer.sendall(b"x")
                except OSError:
                    break  # the server end is already closed
            assert ended.get(timeout=0.5) - start < 1.0
    finally:
        server.stop()


def test_an_oversize_frame_prefix_ends_the_session_before_its_body(tiny_model):
    """`pfid serve`'s frame limit is the served model's largest request: a
    raw head packet of max_seq positions. A length prefix one byte over it
    ends the session at once, with no body sent; a request of exactly the
    limit on a fresh connection is still served."""
    config = PfidConfig()
    cfg = tiny_model.config
    limit = max_request_bytes(cfg)
    assert limit == PKT_HEADER_BYTES + 8 * cfg.d_model * cfg.max_seq == 65_568
    middle = split(tiny_model, config.spec).middle()
    ended = queue.Queue()

    def handler(t):
        serve_middle(middle, t, config)
        ended.put(None)

    server = TcpServer(handler, max_frame=limit).start()
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as peer:
            peer.sendall(struct.pack("<I", limit + 1))
            ended.get(timeout=2)
            assert peer.recv(1) == b""
        largest = encode_raw_packet(np.ones((cfg.d_model, cfg.max_seq)), ROLE_HEAD_RAW, 0)
        assert len(largest) == limit
        client = connect_tcp(server.host, server.port, timeout=10)
        try:
            client.send_bytes(largest)
            reply = decode_packet(client.recv_bytes())
        finally:
            client.close()
        assert (reply.role, reply.n) == (ROLE_MID_FACTORS, cfg.max_seq)
    finally:
        server.stop()


def test_replaying_a_capture_is_deterministic(tiny_model, tokenizer):
    """Sampled decoding, so a replay that drew from an unseeded generator
    would differ."""
    config = PfidConfig(sampling=SamplingParams(max_new_tokens=12))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    sharded = split(tiny_model, config.spec)
    for mode in AdversaryMode:
        first, second = (
            eavesdrop_generate(sharded.client(), sim.capture, mode, config, tokenizer)
            for _ in range(2)
        )
        assert len(first.steps) == 12
        assert first.prompt == ""
        assert_traces_equal(first, second)
        assert_traces_equal(first, sim.eavesdroppers[mode.value])


def test_captured_packets_pair_in_wire_order(tiny_model, tokenizer):
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=4))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    pairs = paired_packets(sim.capture)
    assert [(up.step, down.step) for up, down in pairs] == [(i, i) for i in range(4)]
    assert [(up.k, down.k) for up, down in pairs] == \
        [(s.k_head, s.k_tail) for s in sim.local.steps]


@pytest.mark.parametrize("reorder, message", [
    (lambda c: c[:-1], "capture of 7 frames ends on an unanswered request"),
    (lambda c: [c[1], c[0], *c[2:]], "capture frame 0 is a role 2 packet of step 0, "
                                     "not a head packet of step 0"),
    (lambda c: c[:4] + c[2:], "capture frame 4 is a role 1 packet of step 1, "
                              "not a head packet of step 2"),
    (lambda c: c[:2] + c[4:], "capture frame 2 is a role 1 packet of step 2, "
                              "not a head packet of step 1"),
], ids=["odd_count", "swapped_pair", "repeated_step", "step_gap"])
def test_a_capture_out_of_wire_order_is_a_field_error(tiny_model, tokenizer, reorder, message):
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=4))
    capture = run_local_sim(tiny_model, tokenizer, config, PROMPT).capture
    with pytest.raises(ProtocolError, match=message) as refused:
        paired_packets(reorder(capture))
    assert refused.value.code == ERR_FIELDS


@pytest.mark.parametrize("d, n", [(1, 1), (64, 16), (16, 64), (64, 128)])
def test_packet_bytes_for_covers_both_packet_kinds(d, n):
    h = np.random.default_rng(d * n).standard_normal((d, n))
    assert packet_bytes_for(d, n, 0) == len(encode_raw_packet(h, ROLE_HEAD_RAW, 0))
    for k in {1, min(d, n)}:
        factors = truncated_svd(h, k)
        assert packet_bytes_for(d, n, k) == len(encode_packet(factors, ROLE_HEAD_FACTORS, 0))


FUZZ_MODEL = init_model(ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16,
                                    vocab_size=96, max_seq=12, seed=1))
FUZZ_CONFIG = PfidConfig(spec=ShardSpec(1, 2))
FUZZ_MIDDLE = split(FUZZ_MODEL, FUZZ_CONFIG.spec).middle()


_H = np.random.default_rng(0).standard_normal((8, 5))
VALID_PACKETS = [
    encode_packet(truncated_svd(_H, 2), ROLE_HEAD_FACTORS, 3),
    encode_packet(truncated_svd(_H, 2), ROLE_MID_FACTORS, 3),
    encode_raw_packet(_H, ROLE_HEAD_RAW, 3),
    encode_error_packet(4, 3, "bad fields"),
]
_U32 = st.one_of(st.integers(0, 20), st.sampled_from([2**31, 2**32 - 1]))
_WORD = st.one_of(st.binary(min_size=4, max_size=4),
                  st.floats(width=32).map(lambda x: struct.pack("<f", x)))


@st.composite
def mutated_packets(draw):
    """A valid packet with one to three edits: a header word (magic,
    version, role, d, n, k or step) set to a small or extreme value, a
    payload word overwritten by random bytes or a binary32 value (huge,
    tiny, infinite and NaN ones included), a cut, or bytes appended.
    Payload edits are drawn twice as often, since they are the ones that
    can leave a packet valid."""
    data = bytearray(draw(st.sampled_from(VALID_PACKETS)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["header", "payload", "payload", "cut", "append"]))
        if edit == "header":
            at = 4 * draw(st.integers(0, 7))
            data[at:at + 4] = draw(_U32).to_bytes(4, "little")
        elif edit == "payload":
            if len(data) >= PKT_HEADER_BYTES + 4:
                at = draw(st.integers(PKT_HEADER_BYTES, len(data) - 4))
                data[at:at + 4] = draw(_WORD)
        elif edit == "cut":
            del data[draw(st.integers(0, len(data))):]
        else:
            data += draw(st.binary(max_size=64))
    return bytes(data)


_RAW = encode_raw_packet(_H, ROLE_HEAD_RAW, 3)
# name: (request, then the server's reply code, step and message)
WIRE_DEFECTS = {
    "bad_magic": (b"NOTAPKT!" + _RAW[8:], 1, 3, "bad magic b'NOTAPKT!'"),
    "bad_version": (_RAW[:8] + struct.pack("<I", 9) + _RAW[12:], 2, 3,
                    "unsupported packet version 9"),
    "short_header": (_RAW[:10], 3, 2**32 - 1,
                     "packet is 10 bytes, shorter than the 32-byte header"),
    "wrong_length": (_RAW[:-8], 3, 3, "packet is 344 bytes, expected 352 for d=8 n=5 k=0"),
    "unknown_role": (_RAW[:12] + struct.pack("<I", 9) + _RAW[16:], 4, 3,
                     "unknown packet role 9"),
    "mid_role": (encode_raw_packet(_H, ROLE_MID_RAW, 3), 4, 3,
                 "server expects head packets, got role 4"),
    "wrong_width": (encode_raw_packet(_H[:7], ROLE_HEAD_RAW, 3), 4, 3,
                    "hidden size 7 does not match served model (8)"),
    "oversize": (encode_raw_packet(np.ones((8, 13)), ROLE_HEAD_RAW, 3), 5, 3,
                 "13 positions exceed the limit of 12"),
    "middle_raises": (encode_raw_packet(np.full((8, 5), 1e38), ROLE_HEAD_RAW, 3), 6, 3,
                      "server failure: factors overflow binary32"),
    "zero_positions": (_RAW[:20] + struct.pack("<I", 0) + _RAW[24:32], 4, 3,
                       "bad dimensions d=8, n=0"),
    "raw_with_rank": (_RAW[:24] + struct.pack("<I", 1) + _RAW[28:], 4, 3,
                      "raw packet must carry k=0, got k=1"),
}
# defects that decode_packet lets through and the server refuses itself
SERVER_REFUSALS = {"mid_role", "wrong_width", "middle_raises"}


@pytest.mark.parametrize("defect", WIRE_DEFECTS)
def test_each_wire_defect_gets_its_error_code_and_the_server_keeps_serving(defect, caplog):
    """A refusal leaves no server-side record; an internal failure leaves one
    ERROR record with its traceback."""
    request, code, step, message = WIRE_DEFECTS[defect]
    client_end, server_end = InMemoryTransport.pair()
    server = threading.Thread(target=serve_middle, args=(FUZZ_MIDDLE, server_end, FUZZ_CONFIG))
    server.start()
    try:
        client_end.send_bytes(request)
        refused = decode_packet(client_end.recv_bytes())
        client_end.send_bytes(_RAW)
        served = decode_packet(client_end.recv_bytes())
    finally:
        client_end.close()
        server.join(timeout=10)
    assert not server.is_alive()
    assert (refused.role, refused.error_code, refused.step, refused.error_message) == (
        ROLE_ERROR, code, step, message)
    assert (served.role, served.step, served.d, served.n) == (ROLE_MID_FACTORS, 3, 8, 5)
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    if code == ERR_INTERNAL:
        [record] = errors
        assert (record.name, record.getMessage()) == ("pfid.protocol", "request for step 3 failed")
        assert record.exc_info[0] is ProtocolError
        assert "Traceback" in caplog.text and "overflow binary32" in caplog.text
    else:
        assert errors == []
    if defect in SERVER_REFUSALS:
        decode_packet(request, FUZZ_MODEL.config.max_seq)
    else:
        with pytest.raises(ProtocolError) as raised:
            decode_packet(request, FUZZ_MODEL.config.max_seq)
        assert (raised.value.code, str(raised.value)) == (code, message)


def test_a_reply_that_overflows_binary32_is_an_error_reply():
    """A raw request within the binary32 range whose middle output is too
    large for binary32 factors gets an internal-error reply, not factors
    decode_packet refuses."""
    h = np.full((8, 5), 1e38)
    reply = decode_packet(_handle_request(FUZZ_MIDDLE, FUZZ_CONFIG,
                                          encode_raw_packet(h, ROLE_HEAD_RAW, 3)))
    assert (reply.role, reply.error_code, reply.step) == (ROLE_ERROR, 6, 3)


def test_a_raw_request_beyond_the_binary32_range_is_refused_before_the_middle():
    """A finite 1e300 would overflow the middle's RMS norm; decode_packet
    refuses it as a field error, so no layer runs and nothing warns."""
    h = np.full((8, 5), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reply = decode_packet(_handle_request(FUZZ_MIDDLE, FUZZ_CONFIG,
                                              encode_raw_packet(h, ROLE_HEAD_RAW, 3)))
    assert (reply.role, reply.error_code, reply.step) == (ROLE_ERROR, 4, 3)


@pytest.mark.parametrize("part", ["u", "s", "v"])
@pytest.mark.parametrize("word", [0x7F800001, 0xFFA00000, 0x7F800000], ids=["snan", "neg_snan", "inf"])
def test_a_non_finite_factor_word_is_a_field_error_without_a_warning(part, word):
    """A signalling NaN warns when cast to float64, so finiteness is checked
    on the binary32 words before the cast."""
    f = truncated_svd(_H, 2)
    (d, k), n = f.u.shape, f.v.shape[0]
    at = {"u": 0, "s": d * k, "v": (d + 1) * k + n * k - 1}[part]
    data = bytearray(encode_packet(f, ROLE_HEAD_FACTORS, 3))
    data[PKT_HEADER_BYTES + 4 * at:PKT_HEADER_BYTES + 4 * at + 4] = struct.pack("<I", word)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProtocolError, match="non-finite") as refused:
            decode_packet(bytes(data))
    assert refused.value.code == ERR_FIELDS


def test_a_non_orthonormal_factor_packet_is_a_field_error():
    """Orthonormality is checked where factors arrive from outside: a packet
    whose u columns are not orthonormal is refused by decode_packet, and
    the server answers it with an ERR_FIELDS reply."""
    f = TruncatedFactors(u=np.ones((8, 2)), s=np.array([2.0, 1.0]), v=np.eye(5)[:, :2])
    data = encode_packet(f, ROLE_HEAD_FACTORS, 3)
    with pytest.raises(ProtocolError, match="u columns not orthonormal") as refused:
        decode_packet(data)
    assert refused.value.code == ERR_FIELDS
    reply = decode_packet(_handle_request(FUZZ_MIDDLE, FUZZ_CONFIG, data))
    assert (reply.role, reply.error_code, reply.step) == (ROLE_ERROR, 4, 3)


def test_an_all_zero_raw_head_packet_gets_factors_back():
    """The middle maps a zero state to exactly zero, which the SVD's LAPACK
    fallback factors with zero singular values."""
    h = np.zeros((8, 5))
    reply = decode_packet(_handle_request(FUZZ_MIDDLE, FUZZ_CONFIG,
                                          encode_raw_packet(h, ROLE_HEAD_RAW, 3)))
    assert (reply.role, reply.step, reply.d, reply.n) == (ROLE_MID_FACTORS, 3, 8, 5)
    assert np.array_equal(reply.factors.s, np.zeros(reply.k))
    assert np.array_equal(reply.hidden(), np.zeros((5, 8)))


@given(mutated_packets())
@settings(max_examples=300, deadline=None)
def test_decoding_a_mutated_packet_raises_only_protocol_errors(data):
    for max_n in (None, FUZZ_MODEL.config.max_seq):
        try:
            decode_packet(data, max_n)
        except ProtocolError:
            pass


@given(mutated_packets())
@settings(max_examples=150, deadline=None)
def test_the_server_answers_a_mutated_packet_with_a_decodable_reply(data):
    reply = decode_packet(_handle_request(FUZZ_MIDDLE, FUZZ_CONFIG, data))
    assert reply.role == ROLE_ERROR or reply.role in MID_ROLES
