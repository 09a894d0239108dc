import numpy as np
import pytest

from pfid.model import SamplingParams
from pfid.protocol import (
    PKT_HEADER_BYTES,
    PfidConfig,
    client_generate,
    run_local_sim,
    serve_middle,
)
from pfid.shard import split
from pfid.transport import CapturingTransport, TcpServer, connect_tcp

PROMPT = "alice called bo"


def assert_traces_equal(a, b):
    assert a.token_ids == b.token_ids
    for sa, sb in zip(a.steps, b.steps):
        assert np.array_equal(sa.logits, sb.logits)
        assert (sa.k_head, sa.k_tail, sa.bytes_up, sa.bytes_down, sa.n_ctx) == (
            sb.k_head, sb.k_tail, sb.bytes_up, sb.bytes_down, sb.n_ctx)
    assert (a.text, a.stop_reason) == (b.text, b.stop_reason)


def test_bypass_configuration_equals_pipeline_bitwise(tiny_model, tokenizer):
    """omega = 0 and p = 0 with bypass: raw float64 packets, no SVD, so the
    split run is the unsplit pipeline bit for bit."""
    config = PfidConfig(omega=0.0, phead=0.0, ptail=0.0,
                        sampling=SamplingParams(greedy=True, max_new_tokens=24))
    sim = run_local_sim(tiny_model, tokenizer, config, PROMPT)
    assert len(sim.local.steps) == 24
    assert sim.local.token_ids == sim.pipeline.token_ids
    for local, pipe in zip(sim.local.steps, sim.pipeline.steps):
        assert np.array_equal(local.logits, pipe.logits)


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
