import threading

import numpy as np
import pytest

import pfid.protocol
from pfid.adversary import remnant_generate
from pfid.linalg import truncated_svd
from pfid.model import SamplingParams
from pfid.protocol import (
    PKT_HEADER_BYTES,
    ROLE_ERROR,
    ROLE_HEAD_FACTORS,
    ROLE_MID_FACTORS,
    PfidConfig,
    client_generate,
    decode_packet,
    encode_packet,
    run_local_sim,
    serve_middle,
)
from pfid.shard import head_forward, split
from pfid.transport import CapturingTransport, InMemoryTransport, TcpServer, connect_tcp

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


def test_bypass_configuration_equals_pipeline_bitwise(tiny_model, tokenizer, monkeypatch):
    """omega = 0 and p = 0 with bypass: raw float64 packets, no SVD, so the
    split run with the reference head is the unsplit pipeline bit for bit."""
    reference_head(monkeypatch)
    sim = run_local_sim(tiny_model, tokenizer, BYPASS, PROMPT)
    assert len(sim.local.steps) == 24
    assert sim.local.token_ids == sim.pipeline.token_ids
    for local, pipe in zip(sim.local.steps, sim.pipeline.steps):
        assert np.array_equal(local.logits, pipe.logits)


def test_bypass_configuration_with_the_head_cache_matches_the_pipeline(tiny_model, tokenizer):
    """The cached head rows differ from the full recompute by rounding only,
    which moves no token and no logit by more than 1e-12."""
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
