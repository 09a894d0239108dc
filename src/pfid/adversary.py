"""Eavesdropper and remnant decoders.

The eavesdropper is a worst-case interceptor: it holds copies of the public
head/tail shards, knows the sampling parameters and seed, and sees every
packet on the wire. Whatever output gap remains against the local client is
attributable solely to withheld information (the full head output and the
discarded singular components).

The remnant decoder is a client-side diagnostic: it pushes the truncation
residual H_head - H_head_hat through middle + tail to surface what the
withheld components alone encode.
"""

from __future__ import annotations

import enum
import struct
from pathlib import Path

import numpy as np

from .model import sample_next
from .protocol import HEAD_ROLES, MID_ROLES, FieldError, Packet, PfidConfig, decode_packet
from .shard import Shard, head_cache, head_forward, middle_forward, tail_forward
from .tokenizer import Tokenizer
from .trace import GenerationTrace, StepRecord

__all__ = [
    "AdversaryMode",
    "eavesdrop_generate",
    "remnant_generate",
    "save_capture",
    "paired_packets",
]

_LEN = struct.Struct("<I")


class AdversaryMode(enum.Enum):
    TAIL_ONLY = "tail_only"
    TAIL_PLUS_INTERCEPTED_HEAD = "tail_plus_intercepted_head"


def paired_packets(capture: list[bytes]) -> list[tuple[Packet, Packet]]:
    """Group a captured stream into per-step (upstream, downstream) pairs."""
    ups: dict[int, Packet] = {}
    downs: dict[int, Packet] = {}
    for raw in capture:
        pkt = decode_packet(raw)
        if pkt.role in HEAD_ROLES:
            ups[pkt.step] = pkt
        elif pkt.role in MID_ROLES:
            downs[pkt.step] = pkt
        else:
            raise FieldError(f"capture contains role {pkt.role} packet at step {pkt.step}")
    pairs = []
    for step in sorted(downs):
        if step not in ups:
            raise FieldError(f"stream desync: downstream step {step} has no upstream packet")
        pairs.append((ups[step], downs[step]))
    return pairs


def eavesdrop_generate(
    public: Shard,
    capture: list[bytes],
    mode: AdversaryMode,
    config: PfidConfig,
    tokenizer: Tokenizer,
    prompt: str = "",
) -> GenerationTrace:
    """Decode an intercepted packet stream with the public shards.

    TAIL_ONLY feeds the server's reply straight into the tail;
    TAIL_PLUS_INTERCEPTED_HEAD additionally adds omega times the
    reconstructed upstream packet, mimicking re-privatization with the best
    information an interceptor has.
    """
    params = config.sampling
    rng = np.random.default_rng(params.seed)
    trace = GenerationTrace(
        mode=f"eavesdropper:{mode.value}", prompt=prompt, seed=params.seed,
        config=config.to_dict(),
    )
    for up, down in paired_packets(capture):
        h = down.hidden()
        if mode is AdversaryMode.TAIL_PLUS_INTERCEPTED_HEAD:
            h = h + config.omega * up.hidden()
        lg = tail_forward(public, h)
        tok = sample_next(lg, params, rng)
        trace.steps.append(
            StepRecord(token_id=tok, logits=lg, k_head=up.k, k_tail=down.k, n_ctx=down.n)
        )
    trace.text = tokenizer.decode(trace.token_ids).rstrip("\n")
    trace.stop_reason = "stream_end"
    return trace


def remnant_generate(
    sharded: Shard,
    local_trace: GenerationTrace,
    capture: list[bytes],
    tokenizer: Tokenizer,
) -> GenerationTrace:
    """Greedily decode the truncation residual through middle + tail.

    Requires full local access: the client recomputes its own head outputs
    for the token prefixes it actually generated, through a head cache as
    `client_generate` does so that they equal what it sent, and subtracts
    what the wire carried. With no truncation the residual is exactly zero
    and the run is flagged as an empty remnant.
    """
    prompt_ids = tokenizer.encode(local_trace.prompt)
    chosen = local_trace.token_ids
    trace = GenerationTrace(
        mode="remnant", prompt=local_trace.prompt, seed=local_trace.seed,
        config=dict(local_trace.config),
    )
    all_zero = True
    cache = head_cache(sharded)
    for step, (up, _) in enumerate(paired_packets(capture)):
        context = prompt_ids + chosen[:step]
        h_head = head_forward(sharded, context, cache)
        residual = h_head - up.hidden()
        if np.any(residual):
            all_zero = False
        h_mid = middle_forward(sharded, residual)
        lg = tail_forward(sharded, h_mid)
        tok = int(np.argmax(lg))
        trace.steps.append(StepRecord(token_id=tok, logits=lg, k_head=up.k, n_ctx=up.n))
    if all_zero:
        trace.stop_reason = "empty_remnant"
        trace.text = ""
    else:
        trace.stop_reason = "stream_end"
        trace.text = tokenizer.decode(trace.token_ids).rstrip("\n")
    return trace


def save_capture(path: str | Path, capture: list[bytes]) -> None:
    """Packet-capture file: length-prefixed packets in wire order."""
    with open(path, "wb") as fh:
        for raw in capture:
            fh.write(_LEN.pack(len(raw)))
            fh.write(raw)
