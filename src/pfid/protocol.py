"""The split-inference token-generation protocol.

Per token: the client runs the head on the full current sequence, truncates
the hidden state by SVD, and ships the factors; the server reconstructs,
runs the middle, truncates again, and ships back; the client reconstructs,
re-privatizes with its retained full head output (H' = H_mid_hat +
omega * H_head), runs the tail and samples. The full prefix matrix is
re-truncated every step, by the exact rank-k SVD. That SVD draws no random
numbers, so in-memory and TCP sessions give the same trace bit for bit.

The head sees exact tokens, so its output rows for a prefix never change:
the client keeps a per-session head cache and computes only the new
token's row each step, while still shipping and re-privatizing the whole
n x d H_head. The middle and the tail cannot be cached. Their inputs are
reconstructions of a fresh rank-k truncation of the whole prefix, so every
row of them changes every step. The middle runs in full on every request,
since every row of its output is shipped, and the server keeps no state
between requests. The tail needs every row only up to its last layer's
keys and values, and computes the rest for the next token's row alone.

Wire format: 32-byte header (magic "PFIDPKT1", version, role, d, n, k,
step) + binary32 factor payload U | s | V of exactly 4*k*(d+n+1) bytes.
When a truncation ratio is zero, the SVD and its binary32 quantization are
skipped and the raw float64 matrix crosses the wire instead (role RAW, k=0,
payload 8*d*n bytes). `packet_bytes_for` is the size law of both kinds.
So the bypass configuration (omega and both ratios zero) sends hidden
states losslessly: with the head and tail recomputed in full it equals the
unsplit pipeline bit for bit, and on the cached paths to 1e-12.

The wire carries hidden states as d x n (features x positions) matrices.
That layout exists only in the packet codec here: `_encode_hidden` encodes
the transpose of an n x d state, and `Packet.hidden` returns one.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .linalg import (
    Matrix,
    TruncatedFactors,
    check_matrix,
    ratio_to_rank,
    reconstruct,
    truncated_svd,
)
from .model import ModelConfig, SamplingParams, TransformerModel, pipeline_generate, sample_next
from .shard import Shard, ShardSpec, head_cache, head_forward, middle_forward, split, tail_forward
from .tokenizer import Tokenizer
from .trace import GenerationTrace, StepRecord
from .transport import CapturingTransport, TransportError

__all__ = [
    "ProtocolError",
    "PfidConfig",
    "Packet",
    "SimResult",
    "PKT_MAGIC",
    "PKT_HEADER_BYTES",
    "ROLE_HEAD_FACTORS",
    "ROLE_MID_FACTORS",
    "ROLE_HEAD_RAW",
    "ROLE_MID_RAW",
    "ROLE_ERROR",
    "HEAD_ROLES",
    "MID_ROLES",
    "encode_packet",
    "encode_raw_packet",
    "encode_error_packet",
    "decode_packet",
    "reprivatize",
    "client_generate",
    "serve_middle",
    "check_prompt_fits",
    "run_local_sim",
    "packet_bytes_for",
    "max_request_bytes",
]

PKT_MAGIC = b"PFIDPKT1"
PKT_VERSION = 1
_HDR = struct.Struct("<8sIIIIII")  # magic, version, role, d, n, k, step
PKT_HEADER_BYTES = _HDR.size  # 32

ROLE_HEAD_FACTORS = 1
ROLE_MID_FACTORS = 2
ROLE_HEAD_RAW = 3
ROLE_MID_RAW = 4
ROLE_ERROR = 5
_ROLES = {ROLE_HEAD_FACTORS, ROLE_MID_FACTORS, ROLE_HEAD_RAW, ROLE_MID_RAW, ROLE_ERROR}

HEAD_ROLES = (ROLE_HEAD_FACTORS, ROLE_HEAD_RAW)
MID_ROLES = (ROLE_MID_FACTORS, ROLE_MID_RAW)

ERR_BAD_MAGIC = 1
ERR_BAD_VERSION = 2
ERR_LENGTH = 3
ERR_FIELDS = 4
ERR_OVERSIZE = 5
ERR_INTERNAL = 6

_NO_STEP = 0xFFFFFFFF
_F32_MAX = float(np.finfo(np.float32).max)
# Bound on |F^T F - I|_F / k for a decoded factor F. Orthonormal columns
# rounded to binary32 stay near 1e-7; larger errors were not sent by an SVD.
ORTHONORMALITY_TOL = 1e-4


class ProtocolError(Exception):
    """A packet defect, or a peer's error reply; code is the ERR_* value
    that names it on the wire."""

    def __init__(self, message: str, code: int = ERR_FIELDS):
        super().__init__(message)
        self.code = code


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


def _json_typed(key: str, value: Any, kind: type) -> Any:
    """value as kind, refused unless it has kind's JSON type: a bool field
    takes only a boolean, an int field only an integer that is not a
    boolean, a float field only a number that is not a boolean."""
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        number = numbers.Integral if kind is int else numbers.Real
        ok = isinstance(value, number) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"config key {key!r} takes {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class PfidConfig:
    spec: ShardSpec = ShardSpec(3, 5)
    omega: float = 1.0
    phead: float = 0.65
    ptail: float = 0.75
    sampling: SamplingParams = SamplingParams()

    def __post_init__(self) -> None:
        if not np.isfinite(self.omega) or self.omega < 0:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        for name, r in (("phead", self.phead), ("ptail", self.ptail)):
            if not (0.0 <= r < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "layer_range": [self.spec.split_k, self.spec.split_n],
            "omega": self.omega,
            "phead": self.phead,
            "ptail": self.ptail,
            **vars(self.sampling),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PfidConfig":
        """The config a to_dict()-shaped doc describes; a missing key keeps
        its default. Values keep their JSON types: see _json_typed."""
        defaults = cls().to_dict()
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        lr = doc.get("layer_range", defaults.pop("layer_range"))
        if not (isinstance(lr, (list, tuple)) and len(lr) == 2):
            raise ValueError(f"layer_range must be a [K, N] pair, got {lr!r}")
        values = {key: _json_typed(key, doc.get(key, default), type(default))
                  for key, default in defaults.items()}
        spec = ShardSpec(*(_json_typed("layer_range", x, int) for x in lr))
        sampling = SamplingParams(**{f.name: values.pop(f.name) for f in fields(SamplingParams)})
        return cls(spec=spec, sampling=sampling, **values)

    @classmethod
    def load(cls, path: str | Path) -> "PfidConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        return cls.from_dict(doc)


@dataclass
class Packet:
    role: int
    step: int
    d: int
    n: int
    k: int
    factors: TruncatedFactors | None = None
    matrix: Matrix | None = None
    error_code: int = 0
    error_message: str = ""

    def hidden(self) -> Matrix:
        """The n x d hidden state this packet carries (reconstructing factors)."""
        if self.matrix is not None:
            return np.ascontiguousarray(self.matrix.T)
        if self.factors is not None:
            return np.ascontiguousarray(reconstruct(self.factors).T)
        raise ProtocolError(f"packet role {self.role} carries no hidden state")


def encode_packet(f: TruncatedFactors, role: int, step: int) -> bytes:
    """Factor packet: header + binary32 U | s | V."""
    if role not in (ROLE_HEAD_FACTORS, ROLE_MID_FACTORS):
        raise ProtocolError(f"role {role} is not a factor-packet role")
    header = _HDR.pack(PKT_MAGIC, PKT_VERSION, role, f.u.shape[0], f.v.shape[0], f.s.size, step)
    with np.errstate(over="ignore"):
        payload = np.concatenate([f.u.ravel(), f.s, f.v.ravel()]).astype("<f4")
    # decode_packet refuses non-finite factors, so refuse to send them.
    if not np.isfinite(payload).all():
        raise ProtocolError("factors overflow binary32")
    return header + payload.tobytes()


def encode_raw_packet(h: Matrix, role: int, step: int) -> bytes:
    """Lossless float64 packet used when truncation is bypassed."""
    if role not in (ROLE_HEAD_RAW, ROLE_MID_RAW):
        raise ProtocolError(f"role {role} is not a raw-packet role")
    h = check_matrix(h, "h")
    header = _HDR.pack(PKT_MAGIC, PKT_VERSION, role, h.shape[0], h.shape[1], 0, step)
    return header + np.ascontiguousarray(h, dtype="<f8").tobytes()


def encode_error_packet(code: int, step: int, message: str) -> bytes:
    body = message.encode("utf-8")
    header = _HDR.pack(PKT_MAGIC, PKT_VERSION, ROLE_ERROR, 0, 0, code, step)
    return header + body


def decode_packet(data: bytes, max_n: int | None = None) -> Packet:
    """Parse and validate one packet. Each defect raises a ProtocolError
    whose code names it: ERR_LENGTH for a short header or a length off the
    size law, ERR_BAD_MAGIC, ERR_BAD_VERSION, ERR_OVERSIZE for more than
    max_n positions (read from the header before the payload is looked at)
    and ERR_FIELDS for any other field or payload defect.
    """
    if len(data) < PKT_HEADER_BYTES:
        raise ProtocolError(
            f"packet is {len(data)} bytes, shorter than the {PKT_HEADER_BYTES}-byte header",
            ERR_LENGTH,
        )
    magic, version, role, d, n, k, step = _HDR.unpack_from(data)
    if magic != PKT_MAGIC:
        raise ProtocolError(f"bad magic {magic!r}", ERR_BAD_MAGIC)
    if version != PKT_VERSION:
        raise ProtocolError(f"unsupported packet version {version}", ERR_BAD_VERSION)
    if role not in _ROLES:
        raise ProtocolError(f"unknown packet role {role}")
    if max_n is not None and n > max_n:
        raise ProtocolError(f"{n} positions exceed the limit of {max_n}", ERR_OVERSIZE)
    payload = data[PKT_HEADER_BYTES:]

    if role == ROLE_ERROR:
        return Packet(role=role, step=step, d=d, n=n, k=0,
                      error_code=k, error_message=payload.decode("utf-8", "replace"))

    if d < 1 or n < 1:
        raise ProtocolError(f"bad dimensions d={d}, n={n}")
    raw = role in (ROLE_HEAD_RAW, ROLE_MID_RAW)
    if raw and k != 0:
        raise ProtocolError(f"raw packet must carry k=0, got k={k}")
    if not raw and not (1 <= k <= min(d, n)):
        raise ProtocolError(f"inconsistent rank k={k} for {d}x{n}")
    expect = packet_bytes_for(d, n, k)
    if len(data) != expect:
        raise ProtocolError(
            f"packet is {len(data)} bytes, expected {expect} for d={d} n={n} k={k}", ERR_LENGTH
        )

    if raw:
        h = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(d, n)
        # Also false for NaN and inf. A larger state cannot come back as
        # binary32 factors, and above about 1e154 the RMS norm's squares
        # overflow float64.
        if not (np.abs(h) <= _F32_MAX).all():
            raise ProtocolError("raw payload values must be finite and within the binary32 range")
        return Packet(role=role, step=step, d=d, n=n, k=0, matrix=h)

    words = np.frombuffer(payload, dtype="<f4")
    # Checked before the cast: casting a signalling NaN raises a warning.
    if not np.isfinite(words).all():
        raise ProtocolError("factor payload contains non-finite values")
    values = words.astype(np.float64)
    u = values[:d * k].reshape(d, k)
    s = values[d * k:(d + 1) * k]
    v = values[(d + 1) * k:].reshape(n, k)
    try:
        factors = TruncatedFactors(u, s, v)
    except ValueError as e:
        raise ProtocolError(f"factor payload violates invariants: {e}") from e
    eye = np.eye(k)
    for mat, label in ((u, "u"), (v, "v")):
        gram_err = np.linalg.norm(mat.T @ mat - eye)
        if gram_err > ORTHONORMALITY_TOL * k:
            raise ProtocolError(f"{label} columns not orthonormal (|g - I|_F = {gram_err:.2e})")
    return Packet(role=role, step=step, d=d, n=n, k=k, factors=factors)


def packet_bytes_for(d: int, n: int, k: int) -> int:
    """Exact packet size: header + 4*k*(d+n+1) for rank-k factors, or
    header + 8*d*n for a raw packet (k = 0)."""
    return PKT_HEADER_BYTES + (4 * k * (d + n + 1) if k else 8 * d * n)


def max_request_bytes(cfg: ModelConfig) -> int:
    """Largest request a server of this model accepts: a raw head packet of
    max_seq positions. Every legal factor packet is smaller."""
    return packet_bytes_for(cfg.d_model, cfg.max_seq, 0)


def reprivatize(h_mid_hat: Matrix, h_head: Matrix, omega: float) -> Matrix:
    """H' = H_mid_hat + omega * H_head, elementwise."""
    h_mid_hat = check_matrix(h_mid_hat, "h_mid_hat")
    h_head = check_matrix(h_head, "h_head")
    if h_mid_hat.shape != h_head.shape:
        raise ValueError(f"shape mismatch: {h_mid_hat.shape} vs {h_head.shape}")
    return h_mid_hat + omega * h_head


def _encode_hidden(h: Matrix, ratio: float, roles: tuple[int, int], step: int) -> tuple[bytes, int]:
    """Packet of an n x d hidden state and its kept rank: the d x n
    transpose as rank-k factors with roles[0], or raw with roles[1] (k = 0)
    when the truncation ratio is zero."""
    factor_role, raw_role = roles
    wire = h.T
    if ratio == 0.0:
        return encode_raw_packet(wire, raw_role, step), 0
    k = ratio_to_rank(ratio, *wire.shape)
    return encode_packet(truncated_svd(wire, k), factor_role, step), k


def client_generate(
    client: Shard,
    tokenizer: Tokenizer,
    transport,
    config: PfidConfig,
    prompt: str,
) -> GenerationTrace:
    """Run the client side of the protocol for one prompt."""
    tokens = tokenizer.encode(prompt)
    if not tokens:
        raise ValueError("prompt must be nonempty")
    cfg = client.config
    params = config.sampling
    rng = np.random.default_rng(params.seed)
    trace = GenerationTrace(mode="local", prompt=prompt)
    stop_reason = "max_new_tokens"
    cache = head_cache(client)
    for step in range(params.max_new_tokens):
        if len(tokens) >= cfg.max_seq:
            stop_reason = "max_seq"
            break
        h_head = head_forward(client, tokens, cache)
        n, d = h_head.shape

        request, k_h = _encode_hidden(h_head, config.phead, HEAD_ROLES, step)
        try:
            transport.send_bytes(request)
            reply_bytes = transport.recv_bytes()
        except TransportError as e:
            raise TransportError(f"transport failure at step {step}: {e}") from e

        try:
            reply = decode_packet(reply_bytes)
        except ProtocolError as e:
            raise ProtocolError(f"malformed reply at step {step}: {e}", e.code) from e
        if reply.role == ROLE_ERROR:
            raise ProtocolError(f"remote error code {reply.error_code} at step {reply.step}: "
                                f"{reply.error_message}", reply.error_code)
        if reply.role not in MID_ROLES:
            raise ProtocolError(f"unexpected reply role {reply.role} at step {step}")
        if reply.step != step or (reply.d, reply.n) != (d, n):
            raise ProtocolError(
                f"reply desync at step {step}: got step={reply.step}, {reply.d}x{reply.n}"
            )

        h_prime = reprivatize(reply.hidden(), h_head, config.omega)
        lg = tail_forward(client, h_prime)
        tok = sample_next(lg, params, rng)
        trace.steps.append(
            StepRecord(
                token_id=tok, logits=lg, k_head=k_h, k_tail=reply.k,
                bytes_up=len(request), bytes_down=len(reply_bytes), n_ctx=n,
            )
        )
        tokens.append(tok)
        if tok == tokenizer.eos_id:
            stop_reason = "eos"
            break
    trace.stop_reason = stop_reason
    trace.set_text(tokenizer)
    return trace


def _handle_request(middle: Shard, config: PfidConfig, data: bytes) -> bytes:
    step = _NO_STEP
    if len(data) >= PKT_HEADER_BYTES:
        step = _HDR.unpack_from(data)[6]
    try:
        # The served model bounds n: refuse oversize requests from the header.
        pkt = decode_packet(data, max_n=middle.config.max_seq)
        if pkt.role not in HEAD_ROLES:
            raise ProtocolError(f"server expects head packets, got role {pkt.role}")
        if pkt.d != middle.config.d_model:
            raise ProtocolError(
                f"hidden size {pkt.d} does not match served model ({middle.config.d_model})"
            )
    except ProtocolError as e:
        return encode_error_packet(e.code, step, str(e))

    try:
        h_mid = middle_forward(middle, pkt.hidden())
        return _encode_hidden(h_mid, config.ptail, MID_ROLES, step)[0]
    except Exception as e:  # never crash the serving loop on one request
        import logging  # only on failure, so serving starts without it

        logging.getLogger(__name__).exception("request for step %d failed", step)
        return encode_error_packet(ERR_INTERNAL, step, f"server failure: {e}")


def serve_middle(middle: Shard, transport, config: PfidConfig) -> None:
    """Serve requests on one connection until the peer closes it, stays
    silent past the transport's timeout or drops mid-frame; then close the
    transport.

    Stateless between tokens: every request carries its own dimensions and
    step index, so independent sessions can interleave freely across
    connections. An in-process session (`run_local_sim` without a
    transport) calls the same request handler in its own thread instead.
    """
    try:
        while True:
            transport.send_bytes(_handle_request(middle, config, transport.recv_bytes()))
    except TransportError:
        return
    finally:
        transport.close()


@dataclass
class SimResult:
    pipeline: GenerationTrace
    local: GenerationTrace
    eavesdroppers: dict[str, GenerationTrace]
    capture: list[bytes]
    wire_bytes: int
    comm_ratio: float  # wire bytes over the binary32 baseline


class _InlineServer:
    """Client end of an in-process session: each request is answered in the
    caller's thread. The middle keeps no state between requests and the
    client strictly alternates one send with one receive, so no server
    thread or channel is needed."""

    def __init__(self, middle: Shard, config: PfidConfig):
        self._middle = middle
        self._config = config
        self._reply = b""

    def send_bytes(self, data: bytes) -> None:
        self._reply = _handle_request(self._middle, self._config, data)

    def recv_bytes(self) -> bytes:
        return self._reply

    def close(self) -> None:
        pass


def check_prompt_fits(prompt_ids: list[int], cfg: ModelConfig) -> None:
    """Refuse a prompt that leaves no room for a new token within max_seq."""
    if len(prompt_ids) >= cfg.max_seq:
        raise ValueError(f"the prompt's {len(prompt_ids)} tokens leave no room for a new "
                         f"one within max_seq {cfg.max_seq}")


def run_local_sim(
    model: TransformerModel,
    tokenizer: Tokenizer,
    config: PfidConfig,
    prompt: str,
    transport=None,
) -> SimResult:
    """Run one protocol session and everything scored against it: the
    pipeline baseline, the client, and both eavesdropper modes replaying
    the captured packet stream.

    Without a transport the middle answers each request in the caller's
    thread, through the same request handler `serve_middle` uses; with one
    (a client connection to a serving middle shard) the client runs over
    it, and it is closed when the session ends, or when the run is refused.
    A prompt that fills max_seq is refused with a ValueError.
    """
    from .adversary import AdversaryMode, eavesdrop_generate

    capture: list[bytes] = []
    try:
        sharded = split(model, config.spec)
        prompt_ids = tokenizer.encode(prompt)
        check_prompt_fits(prompt_ids, model.config)
        pipeline = pipeline_generate(model, prompt_ids, config.sampling, eos_id=tokenizer.eos_id)
        pipeline.prompt = prompt
        pipeline.set_text(tokenizer)

        if transport is None:
            transport = _InlineServer(sharded.middle(), config)
        local = client_generate(
            sharded.client(), tokenizer, CapturingTransport(transport, capture),
            config, prompt,
        )
    finally:
        if transport is not None:
            transport.close()

    eavesdroppers = {
        mode.value: eavesdrop_generate(sharded.client(), capture, mode, config, tokenizer)
        for mode in AdversaryMode
    }
    # wire bytes both ways, against one binary32 d x n matrix per direction per token
    sent = sum(s.bytes_up + s.bytes_down for s in local.steps)
    baseline = sum(2 * 4 * model.config.d_model * s.n_ctx for s in local.steps)
    return SimResult(
        pipeline=pipeline,
        local=local,
        eavesdroppers=eavesdroppers,
        capture=capture,
        wire_bytes=sent,
        comm_ratio=sent / baseline if baseline else float("nan"),
    )
