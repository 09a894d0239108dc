"""Tests of the benchmark's own output checks and its spec.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import checks
import spec
from pfid.linalg import truncated_svd
from pfid.model import ModelConfig, SamplingParams, init_model, pipeline_generate
from pfid.protocol import (
    ROLE_HEAD_FACTORS,
    PfidConfig,
    client_generate,
    encode_packet,
    encode_raw_packet,
    serve_middle,
)
from pfid.shard import ShardSpec, split
from pfid.training import loss_and_grads
from pfid.transport import CapturingTransport, InMemoryTransport
from workloads import FixedLengthTokenizer

SMALL = ModelConfig(n_layers=4, d_model=16, n_heads=2, d_ff=32, vocab_size=96, max_seq=40,
                    seed=3)


@pytest.fixture(scope="module")
def model():
    return init_model(SMALL)


def test_reference_forward_matches_pipeline_logits(model):
    prompt = [5, 17, 42, 8, 33]
    trace = pipeline_generate(model, prompt, SamplingParams(greedy=True, max_new_tokens=12))
    tokens = list(prompt)
    for step in trace.steps:
        want = checks.ref_full_logits(model, tokens)[:, -1]
        checks.check_close(step.logits, want, checks.LOGIT_ATOL, "pipeline logits")
        tokens.append(step.token_id)


def test_reference_forward_notices_a_changed_weight(model):
    tokens = [1, 2, 3, 4]
    before = checks.ref_full_logits(model, tokens)
    w = model.layers[1].w1
    saved = w[0, 0]
    w[0, 0] += 0.5
    try:
        after = checks.ref_full_logits(model, tokens)
    finally:
        w[0, 0] = saved
    with pytest.raises(checks.CheckFailed):
        checks.check_close(after, before, checks.LOGIT_ATOL, "logits")


@pytest.mark.parametrize("p,d,n,k", [(0.65, 64, 16, 6), (0.65, 64, 127, 22),
                                     (0.75, 64, 64, 16), (0.0, 64, 10, 10), (0.99, 4, 4, 1)])
def test_kept_rank(p, d, n, k):
    assert checks.kept_rank(p, d, n) == k


def test_size_law_and_parse_of_program_packets():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((16, 20))
    k = checks.kept_rank(0.65, 16, 20)
    raw = encode_packet(truncated_svd(h, k, seed=0), ROLE_HEAD_FACTORS, 4)
    assert len(raw) == checks.packet_size(16, 20, k) == 32 + 4 * k * (16 + 20 + 1)
    pkt = checks.check_packet(raw, checks.ROLE_HEAD_FACTORS, 4, 16, 20, 0.65)
    checks.check_eckart_young(h, pkt["matrix"], k, "packet")
    with pytest.raises(checks.CheckFailed):
        checks.check_packet(raw[:-4], checks.ROLE_HEAD_FACTORS, 4, 16, 20, 0.65)
    with pytest.raises(checks.CheckFailed):  # wrong ratio, wrong rank
        checks.check_packet(raw, checks.ROLE_HEAD_FACTORS, 4, 16, 20, 0.25)
    raw64 = encode_raw_packet(h, 3, 0)
    np.testing.assert_array_equal(checks.parse_packet(raw64)["matrix"], h)


def test_eckart_young_bound_rejects_a_worse_approximation():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((12, 30))
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    best = (u[:, :4] * s[:4]) @ vt[:4]
    checks.check_eckart_young(h, best, 4, "optimal")
    skip = (u[:, 1:5] * s[1:5]) @ vt[1:5]  # drops the leading component
    with pytest.raises(checks.CheckFailed):
        checks.check_eckart_young(h, skip, 4, "suboptimal")


def test_session_check_on_an_in_memory_session(model):
    config = PfidConfig(spec=ShardSpec(1, 3),
                        sampling=SamplingParams(greedy=True, max_new_tokens=10))
    sharded = split(model, config.spec)
    client_end, server_end = InMemoryTransport.pair()
    server = threading.Thread(target=serve_middle, args=(sharded.middle(), server_end, config))
    server.start()
    capture = []
    tok = FixedLengthTokenizer()
    try:
        trace = client_generate(sharded.client(), tok,
                                CapturingTransport(client_end, capture), config, "hello wor")
    finally:
        client_end.close()
        server.join(timeout=30)
    assert len(trace.steps) == 10 and len(tok.stamps) == 10
    checks.check_session(model, config, tok.encode("hello wor"), trace, capture, heavy=True)
    trace.steps[3].logits = trace.steps[3].logits + 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_session(model, config, tok.encode("hello wor"), trace, capture, heavy=True)


def test_finite_differences_accept_program_gradients(model):
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 96, size=(2, 9))
    checks.check_finite_differences(model, loss_and_grads, ids[:, :-1], ids[:, 1:], 6, rng)

    def wrong(m, x, y):
        loss, grads = loss_and_grads(m, x, y)
        return loss, {k: 2 * g for k, g in grads.items()}

    with pytest.raises(checks.CheckFailed):
        checks.check_finite_differences(model, wrong, ids[:, :-1], ids[:, 1:], 6,
                                        np.random.default_rng(2))


def test_initial_loss_is_near_log_vocab(model):
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 96, size=(2, 9))
    assert abs(checks.ref_loss(model, ids[:, :-1], ids[:, 1:]) - math.log(96)) < 0.1


def test_benchmark_json_is_the_rendered_spec():
    committed = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert committed == spec.document()
