import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfid.protocol
from pfid.adversary import AdversaryMode, eavesdrop_generate, remnant_generate
from pfid.linalg import truncated_svd
from pfid.model import ModelConfig, SamplingParams, init_model
from pfid.protocol import (
    MID_ROLES,
    PKT_HEADER_BYTES,
    ROLE_ERROR,
    ROLE_HEAD_FACTORS,
    ROLE_HEAD_RAW,
    ROLE_MID_FACTORS,
    PfidConfig,
    ProtocolError,
    _handle_request,
    client_generate,
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


def test_bypass_remnant_is_empty(tiny_model, tokenizer):
    """The remnant decoder recomputes the head rows the client sent, so with
    raw packets the truncation residual is exactly zero."""
    sim = run_local_sim(tiny_model, tokenizer, BYPASS, PROMPT)
    sharded = split(tiny_model, BYPASS.spec)
    remnant = remnant_generate(sharded, sim.local, sim.capture, tokenizer)
    assert remnant.stop_reason == "empty_remnant"
    assert len(remnant.steps) == 24


def test_step_logits_own_their_row(tiny_model, tokenizer):
    """A trace keeps each step's last logits row, not the n x vocab array it
    was cut from."""
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=8))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    remnant = remnant_generate(split(tiny_model, config.spec), sim.local, sim.capture, tokenizer)
    vocab = tiny_model.config.vocab_size
    for trace in (sim.pipeline, sim.local, *sim.eavesdroppers.values(), remnant):
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


def test_a_server_thread_that_outlives_the_join_timeout_raises(tiny_model, tokenizer,
                                                              monkeypatch):
    """The in-memory server serves the session, then blocks past the join
    timeout; run_local_sim raises instead of returning with it running."""
    release, ended = threading.Event(), threading.Event()

    def stuck_server(middle, transport, config):
        serve_middle(middle, transport, config)
        release.wait()
        ended.set()

    monkeypatch.setattr(pfid.protocol, "serve_middle", stuck_server)
    monkeypatch.setattr(pfid.protocol, "SERVER_JOIN_TIMEOUT_S", 0.05)
    config = PfidConfig(sampling=SamplingParams(greedy=True, max_new_tokens=2))
    try:
        with pytest.raises(RuntimeError, match="server thread still running"):
            run_local_sim(tiny_model, tokenizer, config, PROMPT)
    finally:
        release.set()
        assert ended.wait(timeout=10)


def test_more_positions_than_max_seq_get_an_oversize_reply(tiny_model):
    """The served model bounds n, read from the header before the payload is
    decoded; the connection keeps serving after each refusal."""
    config = PfidConfig()
    d, max_seq = tiny_model.config.d_model, tiny_model.config.max_seq
    rng = np.random.default_rng(0)

    def head_packet(n, step):
        factors = truncated_svd(rng.standard_normal((d, n)), 1, seed=0)
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


def test_noise_is_seeded_and_changes_the_server_replies(tiny_model, tokenizer):
    sampling = SamplingParams(greedy=True, max_new_tokens=8)
    noisy = PfidConfig(noise_sigma=0.05, sampling=sampling)
    a = run_local_sim(tiny_model, tokenizer, noisy, PROMPT)
    b = run_local_sim(tiny_model, tokenizer, noisy, PROMPT)
    assert a.capture == b.capture
    for name in ("pipeline", "local"):
        assert_traces_equal(getattr(a, name), getattr(b, name))
    for name in a.eavesdroppers:
        assert_traces_equal(a.eavesdroppers[name], b.eavesdroppers[name])

    clean = run_local_sim(tiny_model, tokenizer, PfidConfig(sampling=sampling), PROMPT)
    assert a.capture[0] == clean.capture[0]
    assert all(x != y for x, y in zip(a.capture[1::2], clean.capture[1::2]))

    with pytest.raises(ValueError, match="noise_sigma"):
        PfidConfig(noise_sigma=-0.05)


def test_replaying_a_capture_is_deterministic(tiny_model, tokenizer):
    """Sampled decoding, so a replay that drew from an unseeded generator
    would differ."""
    config = PfidConfig(sampling=SamplingParams(max_new_tokens=12))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    sharded = split(tiny_model, config.spec)
    for mode in AdversaryMode:
        first, second = (
            eavesdrop_generate(sharded.client(), sim.capture, mode, config, tokenizer, PROMPT)
            for _ in range(2)
        )
        assert len(first.steps) == 12
        assert_traces_equal(first, second)
        assert_traces_equal(first, sim.eavesdroppers[mode.value])
    first, second = (remnant_generate(sharded, sim.local, sim.capture, tokenizer)
                     for _ in range(2))
    assert len(first.steps) == 12
    assert_traces_equal(first, second)


FUZZ_MODEL = init_model(ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16,
                                    vocab_size=96, max_seq=12, seed=1))
FUZZ_CONFIG = PfidConfig(spec=ShardSpec(1, 2))
FUZZ_MIDDLE = split(FUZZ_MODEL, FUZZ_CONFIG.spec).middle()


_H = np.random.default_rng(0).standard_normal((8, 5))
VALID_PACKETS = [
    encode_packet(truncated_svd(_H, 2, seed=0), ROLE_HEAD_FACTORS, 3),
    encode_packet(truncated_svd(_H, 2, seed=0), ROLE_MID_FACTORS, 3),
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
