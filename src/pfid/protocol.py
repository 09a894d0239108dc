"""The split-inference token-generation protocol.

Per token: the client runs the head on the full current sequence, truncates
the hidden state by SVD, and ships the factors; the server reconstructs,
runs the middle, truncates again, and ships back; the client reconstructs,
re-privatizes with its retained full head output (H' = H_mid_hat +
omega * H_head), runs the tail and samples. The full prefix matrix is
re-truncated every step.

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
payload 8*d*n bytes); this is what makes the degenerate configuration
bit-exactly equal to the unsplit pipeline.

The wire carries hidden states as d x n (features x positions) matrices.
That layout exists only in the packet codec here: `_encode_hidden` encodes
the transpose of an n x d state, and `Packet.hidden` returns one.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
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
from .model import SamplingParams, TransformerModel, pipeline_generate, sample_next
from .shard import Shard, ShardSpec, head_cache, head_forward, middle_forward, split, tail_forward
from .tokenizer import Tokenizer
from .trace import GenerationTrace, StepRecord
from .transport import CapturingTransport, TransportError

__all__ = [
    "ProtocolError",
    "BadMagicError",
    "BadVersionError",
    "LengthMismatchError",
    "FieldError",
    "OversizeError",
    "RemoteProtocolError",
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
    "run_local_sim",
    "comm_bytes",
    "packet_bytes_for",
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


class ProtocolError(Exception):
    pass


class BadMagicError(ProtocolError):
    code = ERR_BAD_MAGIC


class BadVersionError(ProtocolError):
    code = ERR_BAD_VERSION


class LengthMismatchError(ProtocolError):
    code = ERR_LENGTH


class FieldError(ProtocolError):
    code = ERR_FIELDS


class OversizeError(ProtocolError):
    code = ERR_OVERSIZE


class RemoteProtocolError(ProtocolError):
    """The peer replied with an error packet."""

    def __init__(self, code: int, step: int, message: str):
        super().__init__(f"remote error code {code} at step {step}: {message}")
        self.code = code
        self.step = step


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
            "temperature": self.sampling.temperature,
            "top_p": self.sampling.top_p,
            "top_k": self.sampling.top_k,
            "max_new_tokens": self.sampling.max_new_tokens,
            "greedy": self.sampling.greedy,
            "seed": self.sampling.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PfidConfig":
        unknown = set(doc) - set(cls().to_dict())
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        base = cls()
        lr = doc.get("layer_range", [base.spec.split_k, base.spec.split_n])
        if not (isinstance(lr, (list, tuple)) and len(lr) == 2):
            raise ValueError(f"layer_range must be a [K, N] pair, got {lr!r}")
        sampling = SamplingParams(
            temperature=float(doc.get("temperature", base.sampling.temperature)),
            top_p=float(doc.get("top_p", base.sampling.top_p)),
            top_k=int(doc.get("top_k", base.sampling.top_k)),
            max_new_tokens=int(doc.get("max_new_tokens", base.sampling.max_new_tokens)),
            greedy=bool(doc.get("greedy", base.sampling.greedy)),
            seed=int(doc.get("seed", base.sampling.seed)),
        )
        return cls(
            spec=ShardSpec(int(lr[0]), int(lr[1])),
            omega=float(doc.get("omega", base.omega)),
            phead=float(doc.get("phead", base.phead)),
            ptail=float(doc.get("ptail", base.ptail)),
            sampling=sampling,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

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
        raise FieldError(f"packet role {self.role} carries no hidden state")


def encode_packet(f: TruncatedFactors, role: int, step: int) -> bytes:
    """Factor packet: header + binary32 U | s | V."""
    if role not in (ROLE_HEAD_FACTORS, ROLE_MID_FACTORS):
        raise FieldError(f"role {role} is not a factor-packet role")
    header = _HDR.pack(PKT_MAGIC, PKT_VERSION, role, f.orig_rows, f.orig_cols, f.k, step)
    with np.errstate(over="ignore"):
        payload = np.concatenate([f.u.ravel(), f.s, f.v.ravel()]).astype("<f4")
    # decode_packet refuses non-finite factors, so refuse to send them.
    if not np.isfinite(payload).all():
        raise FieldError("factors overflow binary32")
    return header + payload.tobytes()


def encode_raw_packet(h: Matrix, role: int, step: int) -> bytes:
    """Lossless float64 packet used when truncation is bypassed."""
    if role not in (ROLE_HEAD_RAW, ROLE_MID_RAW):
        raise FieldError(f"role {role} is not a raw-packet role")
    h = check_matrix(h, "h")
    header = _HDR.pack(PKT_MAGIC, PKT_VERSION, role, h.shape[0], h.shape[1], 0, step)
    return header + np.ascontiguousarray(h, dtype="<f8").tobytes()


def encode_error_packet(code: int, step: int, message: str) -> bytes:
    body = message.encode("utf-8")
    header = _HDR.pack(PKT_MAGIC, PKT_VERSION, ROLE_ERROR, 0, 0, code, step)
    return header + body


def decode_packet(data: bytes, max_n: int | None = None) -> Packet:
    """Parse and validate one packet; raises a distinct error per defect.

    A header with more than max_n positions is refused (OversizeError)
    before the payload is looked at.
    """
    if len(data) < PKT_HEADER_BYTES:
        raise LengthMismatchError(
            f"packet is {len(data)} bytes, shorter than the {PKT_HEADER_BYTES}-byte header"
        )
    magic, version, role, d, n, k, step = _HDR.unpack_from(data)
    if magic != PKT_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != PKT_VERSION:
        raise BadVersionError(f"unsupported packet version {version}")
    if role not in _ROLES:
        raise FieldError(f"unknown packet role {role}")
    if max_n is not None and n > max_n:
        raise OversizeError(f"{n} positions exceed the limit of {max_n}")
    payload = data[PKT_HEADER_BYTES:]

    if role == ROLE_ERROR:
        return Packet(role=role, step=step, d=d, n=n, k=0,
                      error_code=k, error_message=payload.decode("utf-8", "replace"))

    if d < 1 or n < 1:
        raise FieldError(f"bad dimensions d={d}, n={n}")

    if role in (ROLE_HEAD_RAW, ROLE_MID_RAW):
        if k != 0:
            raise FieldError(f"raw packet must carry k=0, got k={k}")
        expect = 8 * d * n
        if len(payload) != expect:
            raise LengthMismatchError(
                f"raw payload is {len(payload)} bytes, expected {expect} for {d}x{n}"
            )
        h = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(d, n)
        # Also false for NaN and inf. A larger state cannot come back as
        # binary32 factors, and above about 1e154 the RMS norm's squares
        # overflow float64.
        if not (np.abs(h) <= _F32_MAX).all():
            raise FieldError("raw payload values must be finite and within the binary32 range")
        return Packet(role=role, step=step, d=d, n=n, k=0, matrix=h)

    if not (1 <= k <= min(d, n)):
        raise FieldError(f"inconsistent rank k={k} for {d}x{n}")
    expect = 4 * k * (d + n + 1)
    if len(payload) != expect:
        raise LengthMismatchError(
            f"factor payload is {len(payload)} bytes, expected {expect} for d={d} n={n} k={k}"
        )
    u_end = 4 * d * k
    s_end = u_end + 4 * k
    u = np.frombuffer(payload[:u_end], dtype="<f4").astype(np.float64).reshape(d, k)
    s = np.frombuffer(payload[u_end:s_end], dtype="<f4").astype(np.float64)
    v = np.frombuffer(payload[s_end:], dtype="<f4").astype(np.float64).reshape(n, k)
    if not (np.isfinite(u).all() and np.isfinite(s).all() and np.isfinite(v).all()):
        raise FieldError("factor payload contains non-finite values")
    try:
        factors = TruncatedFactors(u=u, s=s, v=v, orig_rows=d, orig_cols=n, k=k)
    except ValueError as e:
        raise FieldError(f"factor payload violates invariants: {e}") from e
    return Packet(role=role, step=step, d=d, n=n, k=k, factors=factors)


def packet_bytes_for(d: int, n: int, k: int) -> int:
    """Exact factor-packet size: header + 4*k*(d+n+1)."""
    return PKT_HEADER_BYTES + 4 * k * (d + n + 1)


def reprivatize(h_mid_hat: Matrix, h_head: Matrix, omega: float) -> Matrix:
    """H' = H_mid_hat + omega * H_head, elementwise."""
    h_mid_hat = check_matrix(h_mid_hat, "h_mid_hat")
    h_head = check_matrix(h_head, "h_head")
    if h_mid_hat.shape != h_head.shape:
        raise ValueError(f"shape mismatch: {h_mid_hat.shape} vs {h_head.shape}")
    return h_mid_hat + omega * h_head


# Deterministic per-step seeds keep sim and socket runs bit-identical:
# client-side SVD uses 2*step, server-side SVD 2*step + 1.
def _client_svd_seed(step: int) -> int:
    return 2 * step


def _server_svd_seed(step: int) -> int:
    return 2 * step + 1


def _encode_hidden(
    h: Matrix, ratio: float, roles: tuple[int, int], step: int, seed: int
) -> tuple[bytes, int]:
    """Packet of an n x d hidden state and its kept rank: the d x n
    transpose as rank-k factors with roles[0], or raw with roles[1] (k = 0)
    when the truncation ratio is zero."""
    factor_role, raw_role = roles
    wire = h.T
    if ratio == 0.0:
        return encode_raw_packet(wire, raw_role, step), 0
    k = ratio_to_rank(ratio, *wire.shape)
    return encode_packet(truncated_svd(wire, k, seed=seed), factor_role, step), k


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
    trace = GenerationTrace(
        mode="local", prompt=prompt, seed=params.seed, config=config.to_dict()
    )
    stop_reason = "max_new_tokens"
    cache = head_cache(client)
    for step in range(params.max_new_tokens):
        if len(tokens) >= cfg.max_seq:
            stop_reason = "max_seq"
            break
        h_head = head_forward(client, tokens, cache)
        n, d = h_head.shape

        request, k_h = _encode_hidden(
            h_head, config.phead, HEAD_ROLES, step, _client_svd_seed(step)
        )
        try:
            transport.send_bytes(request)
            reply_bytes = transport.recv_bytes()
        except TransportError as e:
            raise TransportError(f"transport failure at step {step}: {e}") from e

        try:
            reply = decode_packet(reply_bytes)
        except ProtocolError as e:
            raise type(e)(f"malformed reply at step {step}: {e}") from e
        if reply.role == ROLE_ERROR:
            raise RemoteProtocolError(reply.error_code, reply.step, reply.error_message)
        if reply.role not in MID_ROLES:
            raise FieldError(f"unexpected reply role {reply.role} at step {step}")
        if reply.step != step or (reply.d, reply.n) != (d, n):
            raise FieldError(
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
    except ProtocolError as e:
        return encode_error_packet(getattr(e, "code", ERR_FIELDS), step, str(e))
    step = pkt.step

    if pkt.role not in HEAD_ROLES:
        return encode_error_packet(
            ERR_FIELDS, step, f"server expects head packets, got role {pkt.role}"
        )
    if pkt.d != middle.config.d_model:
        return encode_error_packet(
            ERR_FIELDS, step,
            f"hidden size {pkt.d} does not match served model ({middle.config.d_model})",
        )

    try:
        h_mid = middle_forward(middle, pkt.hidden())
        return _encode_hidden(h_mid, config.ptail, MID_ROLES, step, _server_svd_seed(step))[0]
    except Exception as e:  # never crash the serving loop on one request
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


def comm_bytes(trace: GenerationTrace, d: int) -> tuple[int, int]:
    """Wire bytes of a trace, both directions, and the untruncated baseline
    of one binary32 d x n matrix per direction per token."""
    sent = sum(s.bytes_up + s.bytes_down for s in trace.steps)
    return sent, sum(2 * 4 * d * s.n_ctx for s in trace.steps)


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
    it, and it is closed when the session ends.
    """
    from .adversary import AdversaryMode, eavesdrop_generate

    sharded = split(model, config.spec)
    pipeline = pipeline_generate(
        model, tokenizer.encode(prompt), config.sampling, eos_id=tokenizer.eos_id
    )
    pipeline.prompt = prompt
    pipeline.set_text(tokenizer)

    if transport is None:
        transport = _InlineServer(sharded.middle(), config)
    capture: list[bytes] = []
    try:
        local = client_generate(
            sharded.client(), tokenizer, CapturingTransport(transport, capture),
            config, prompt,
        )
    finally:
        transport.close()

    eavesdroppers = {
        mode.value: eavesdrop_generate(
            sharded.client(), capture, mode, config, tokenizer, prompt
        )
        for mode in AdversaryMode
    }
    sent, baseline = comm_bytes(local, model.config.d_model)
    return SimResult(
        pipeline=pipeline,
        local=local,
        eavesdroppers=eavesdroppers,
        capture=capture,
        wire_bytes=sent,
        comm_ratio=sent / baseline if baseline else float("nan"),
    )
