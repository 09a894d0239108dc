"""Output checks computed apart from the program under test.

Everything here is plain numpy written from the documented architecture and
wire format, not from pfid's code: a reference forward pass (pre-norm RMS
normalisation, causal multi-head attention, tanh-GELU feed-forward, learned
positions, LM head), a packet parser with the size law, and the
Eckart-Young bound on rank-k reconstruction error. The benchmark runs these
outside its timed window; a failed check raises CheckFailed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

RMS_EPS = 1e-5
HEADER = struct.Struct("<8sIIIIII")  # magic, version, role, d, n, k, step
MAGIC = b"PFIDPKT1"
ROLE_HEAD_FACTORS, ROLE_MID_FACTORS, ROLE_HEAD_RAW, ROLE_MID_RAW = 1, 2, 3, 4

# Tolerances. The reference forward sums in another order than the program,
# so float64 logits agree to ~1e-13; binary32 factors add ~1e-7 relative
# rounding. The dense LAPACK path (taken when k plus the sketch's
# oversampling of 8 covers min(d, n)) is exactly optimal. The randomized
# path is not: over 40 random prompts at n = 13..127 on the default model
# its error came within 1.7 % of the optimal rank-k error, so it is held to
# 5 %. (pfid.linalg's comment claims 1e-3; that does not hold here.)
LOGIT_ATOL = 1e-8
SKETCH_OVERSAMPLE = 8
EY_RTOL_DENSE = 1e-6
EY_RTOL_RANDOMIZED = 5e-2
FP32_SLACK = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-7


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- reference forward -------------------------------------------------------

def _rms(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_EPS) * gain


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def ref_layer(lw, x: np.ndarray, n_heads: int) -> np.ndarray:
    """One decoder block on an n x d sequence, one head at a time."""
    n, d = x.shape
    dh = d // n_heads
    a = _rms(x, lw.g_attn)
    q, k, v = a @ lw.wq, a @ lw.wk, a @ lw.wv
    heads = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        scores[np.triu_indices(n, 1)] = -np.inf
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
    x = x + np.concatenate(heads, axis=1) @ lw.wo
    return x + _gelu(_rms(x, lw.g_ff) @ lw.w1) @ lw.w2


def ref_layers(model, layers: range, h: np.ndarray) -> np.ndarray:
    """Layers `layers` applied to a d x n hidden state; returns d x n."""
    x = np.array(h.T, dtype=np.float64)
    for i in layers:
        x = ref_layer(model.layers[i], x, model.config.n_heads)
    return x.T


def ref_embed(model, tokens) -> np.ndarray:
    ids = np.asarray(tokens)
    return (model.embedding[ids] + model.pos[: len(ids)]).T


def ref_logits(model, h: np.ndarray) -> np.ndarray:
    """Final norm and LM head: d x n state to vocab x n logits."""
    return (_rms(h.T, model.g_final) @ model.lm_head).T


def ref_head(model, split_k: int, tokens) -> np.ndarray:
    return ref_layers(model, range(split_k), ref_embed(model, tokens))


def ref_middle(model, split_k: int, split_n: int, h: np.ndarray) -> np.ndarray:
    return ref_layers(model, range(split_k, split_n), h)


def ref_tail_logits(model, split_n: int, h: np.ndarray) -> np.ndarray:
    return ref_logits(model, ref_layers(model, range(split_n, model.config.n_layers), h))


def ref_full_logits(model, tokens) -> np.ndarray:
    h = ref_layers(model, range(model.config.n_layers), ref_embed(model, tokens))
    return ref_logits(model, h)


def ref_loss(model, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross-entropy over a (B, T) batch."""
    total = 0.0
    for row_in, row_t in zip(inputs, targets):
        z = ref_full_logits(model, row_in).T
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total -= logp[np.arange(len(row_t)), row_t].sum()
    return total / inputs.size


# --- wire format -------------------------------------------------------------

def kept_rank(p: float, d: int, n: int) -> int:
    """k = max(1, floor((1 - p) * min(d, n) + 1/2))."""
    return max(1, math.floor((1.0 - p) * min(d, n) + 0.5))


def packet_size(d: int, n: int, k: int) -> int:
    """Factor packet: 32-byte header plus binary32 U | s | V."""
    return 32 + 4 * k * (d + n + 1)


def parse_packet(raw: bytes) -> dict:
    """Header fields plus the carried matrix, factors reconstructed."""
    require(len(raw) >= HEADER.size, f"packet of {len(raw)} bytes has no header")
    magic, version, role, d, n, k, step = HEADER.unpack_from(raw)
    require(magic == MAGIC and version == 1, f"bad magic/version {magic!r}/{version}")
    body = np.frombuffer(raw, offset=HEADER.size, dtype="<f4" if k else "<f8")
    out = {"role": role, "d": d, "n": n, "k": k, "step": step, "size": len(raw)}
    if k == 0:
        require(role in (ROLE_HEAD_RAW, ROLE_MID_RAW), f"k=0 on role {role}")
        require(len(raw) == 32 + 8 * d * n, f"raw packet is {len(raw)} bytes for {d}x{n}")
        out["matrix"] = body.astype(np.float64).reshape(d, n)
        return out
    require(role in (ROLE_HEAD_FACTORS, ROLE_MID_FACTORS), f"factors on role {role}")
    require(len(raw) == packet_size(d, n, k),
            f"factor packet is {len(raw)} bytes, size law gives {packet_size(d, n, k)}")
    f = body.astype(np.float64)
    u = f[: d * k].reshape(d, k)
    s = f[d * k: d * k + k]
    v = f[d * k + k:].reshape(n, k)
    out["matrix"] = (u * s) @ v.T
    return out


def check_packet(raw: bytes, role: int, step: int, d: int, n: int, p: float) -> dict:
    """Parse one packet and hold it to the size law for ratio p."""
    pkt = parse_packet(raw)
    k = 0 if pkt["k"] == 0 else kept_rank(p, d, n)
    require((pkt["role"], pkt["step"], pkt["d"], pkt["n"], pkt["k"]) == (role, step, d, n, k),
            f"packet header {pkt['role'], pkt['step'], pkt['d'], pkt['n'], pkt['k']} "
            f"!= expected {role, step, d, n, k}")
    return pkt


def check_eckart_young(h: np.ndarray, h_hat: np.ndarray, k: int, what: str) -> None:
    """||h - h_hat||_F within the optimal rank-k error (Eckart-Young, from the
    singular values of h) plus binary32 slack."""
    sv = np.linalg.svd(h, compute_uv=False)
    optimal = float(np.sqrt(np.sum(sv[k:] ** 2)))
    err = float(np.linalg.norm(h - h_hat))
    dense = k + SKETCH_OVERSAMPLE >= min(h.shape)
    rtol = EY_RTOL_DENSE if dense else EY_RTOL_RANDOMIZED
    limit = optimal * (1.0 + rtol) + FP32_SLACK * float(np.linalg.norm(h))
    require(err <= limit, f"{what}: rank-{k} error {err:.6g} exceeds Eckart-Young {optimal:.6g}")


def check_close(a: np.ndarray, b: np.ndarray, atol: float, what: str) -> None:
    diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    require(diff <= atol, f"{what}: max |diff| {diff:.3g} > {atol:.3g}")


# --- one TCP/in-memory protocol session ----------------------------------------

def check_session(model, cfg, prompt_ids, trace, capture, heavy: bool) -> None:
    """Hold one client session's packets and logits to the references.

    Light checks (every packet parses and obeys the size law, replies match
    their requests) run on every session; heavy checks (Eckart-Young on both
    directions, logits against the reference tail) on the sessions the caller
    picks.
    """
    spec = cfg.spec
    d = model.config.d_model
    steps = trace.steps
    require(len(capture) == 2 * len(steps), f"{len(capture)} packets for {len(steps)} tokens")
    tokens = list(prompt_ids)
    for i, rec in enumerate(steps):
        n = len(tokens)
        up = check_packet(capture[2 * i], ROLE_HEAD_FACTORS, i, d, n, cfg.phead)
        down = check_packet(capture[2 * i + 1], ROLE_MID_FACTORS, i, d, n, cfg.ptail)
        require((rec.bytes_up, rec.bytes_down) == (up["size"], down["size"]),
                f"step {i}: trace bytes disagree with the wire")
        if heavy:
            h_head = ref_head(model, spec.split_k, tokens)
            check_eckart_young(h_head, up["matrix"], up["k"], f"step {i} head")
            h_mid = ref_middle(model, spec.split_k, spec.split_n, up["matrix"])
            check_eckart_young(h_mid, down["matrix"], down["k"], f"step {i} middle")
            want = ref_tail_logits(model, spec.split_n, down["matrix"] + cfg.omega * h_head)
            check_close(rec.logits, want[:, -1], LOGIT_ATOL, f"step {i} client logits")
        tokens.append(rec.token_id)


def check_finite_differences(model, loss_and_grads, inputs, targets, picks: int,
                             rng: np.random.Generator, eps: float = 1e-5) -> None:
    """The program's analytic gradients against central differences of the
    reference loss, on `picks` sampled coordinates; also compares losses."""
    loss, grads = loss_and_grads(model, inputs, targets)
    check_close(loss, ref_loss(model, inputs, targets), 1e-10, "training loss")
    tensors = model.param_tensors()
    names = sorted(tensors)
    for _ in range(picks):
        name = names[rng.integers(len(names))]
        w = tensors[name]
        idx = tuple(int(rng.integers(s)) for s in w.shape)
        saved = w[idx]
        w[idx] = saved + eps
        up = ref_loss(model, inputs, targets)
        w[idx] = saved - eps
        down = ref_loss(model, inputs, targets)
        w[idx] = saved
        fd = (up - down) / (2 * eps)
        g = float(grads[name][idx])
        require(abs(fd - g) <= FD_ATOL + FD_RTOL * abs(g),
                f"gradient of {name}{list(idx)}: analytic {g:.6g} vs finite difference {fd:.6g}")
