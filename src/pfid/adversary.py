"""Eavesdropper decoders.

An eavesdropper holds copies of the public head/tail shards, knows the
sampling parameters and seed, and sees every packet on the wire. Both of its
modes decode outputs only: they push each intercepted reply through the
public tail, with or without the intercepted upstream packet added back, and
sample as the client does. They are not given the prompt, and do not try to
read it off the wire, which gives it away to anyone holding the public head
(ROADMAP item 1), so their scores bound nothing about privacy.
"""

from __future__ import annotations

import enum

import numpy as np

from .model import sample_next
from .protocol import (HEAD_ROLES, MID_ROLES, Packet, PfidConfig, ProtocolError, decode_packet,
                       reprivatize)
from .shard import Shard, tail_forward
from .tokenizer import Tokenizer
from .trace import GenerationTrace, StepRecord

__all__ = [
    "AdversaryMode",
    "eavesdrop_generate",
    "paired_packets",
]


class AdversaryMode(enum.Enum):
    TAIL_ONLY = "tail_only"
    TAIL_PLUS_INTERCEPTED_HEAD = "tail_plus_intercepted_head"


def paired_packets(capture: list[bytes]) -> list[tuple[Packet, Packet]]:
    """Step i's (request, reply) from frames 2i and 2i + 1 of a captured
    stream. Refuses a stream that does not alternate head and middle
    packets of steps 0, 1, 2, ..., or that ends on an unanswered request."""
    if len(capture) % 2:
        raise ProtocolError(f"capture of {len(capture)} frames ends on an unanswered request")
    packets = [decode_packet(raw) for raw in capture]
    for i, pkt in enumerate(packets):
        side, roles = ("middle", MID_ROLES) if i % 2 else ("head", HEAD_ROLES)
        if pkt.role not in roles or pkt.step != i // 2:
            raise ProtocolError(f"capture frame {i} is a role {pkt.role} packet of step "
                                f"{pkt.step}, not a {side} packet of step {i // 2}")
    return list(zip(packets[0::2], packets[1::2]))


def eavesdrop_generate(
    public: Shard,
    capture: list[bytes],
    mode: AdversaryMode,
    config: PfidConfig,
    tokenizer: Tokenizer,
) -> GenerationTrace:
    """Decode an intercepted packet stream with the public shards.

    TAIL_ONLY feeds the server's reply straight into the tail;
    TAIL_PLUS_INTERCEPTED_HEAD additionally adds omega times the
    reconstructed upstream packet, mimicking re-privatization with the best
    information an interceptor has. The trace records no prompt.
    """
    params = config.sampling
    rng = np.random.default_rng(params.seed)
    trace = GenerationTrace(mode=f"eavesdropper:{mode.value}", prompt="")
    for up, down in paired_packets(capture):
        h = down.hidden()
        if mode is AdversaryMode.TAIL_PLUS_INTERCEPTED_HEAD:
            h = reprivatize(h, up.hidden(), config.omega)
        lg = tail_forward(public, h)
        tok = sample_next(lg, params, rng)
        trace.steps.append(
            StepRecord(token_id=tok, logits=lg, k_head=up.k, k_tail=down.k, n_ctx=down.n)
        )
    trace.text = tokenizer.decode(trace.token_ids).rstrip("\n")
    trace.stop_reason = "stream_end"
    return trace
