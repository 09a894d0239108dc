"""Next-token training for the toy transformer.

Forward, analytic backward and an Adam loop, all in numpy float64. The
forward pass is model.layer_forward itself, run on B x T x d with its
intermediates cached for the backward pass, so finite-difference checks
validate the real inference path.

The cache holds only what the backward cannot cheaply rebuild. The
backward rebuilds each block's normed input, the attention output and the
GELU output with the forward's own operations in the forward's order, so
they have the forward's bits.

The backward runs the output head, then each layer from the last: its
feed-forward block, then its attention block. Each block's backward pops
the cache entries its forward appended and returns only the gradient it
passes on, so its temporaries and those entries end with it. The peak is
the cached activations plus one block's temporaries.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .model import GELU_A, GELU_C, TransformerModel, _rms_scale, _softmax_rows, layer_forward
from .tokenizer import Tokenizer

__all__ = ["train", "loss_and_grads", "TrainResult"]


@dataclass
class TrainResult:
    model: TransformerModel
    losses: list[float]


def _rms_backward(dy, x, inv, gain):
    n = x.shape[-1]
    dgain = np.sum(dy * x * inv, axis=tuple(range(x.ndim - 1)))
    dyg = dy * gain
    dx = dyg * inv - x * (inv**3 / n) * np.sum(dyg * x, axis=-1, keepdims=True)
    return dx, dgain


def _gelu_backward(dy, x, t):
    # dy * (0.5 * (1 + t) + 0.5 * x * dt), dt = GELU_C * (1 + 3 GELU_A x^2)
    # * (1 - t^2), in that operation order, into dy
    dt = x * x
    dt *= 3.0 * GELU_A
    dt += 1.0
    dt *= GELU_C
    s = t * t
    np.subtract(1.0, s, out=s)
    dt *= s
    np.multiply(0.5, x, out=s)
    s *= dt
    np.add(1.0, t, out=dt)
    dt *= 0.5
    dt += s
    dy *= dt
    return dy


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def _output_backward(model, x, targets, grads):
    """Final norm, LM head and mean cross-entropy on the last layer's output
    x; returns the loss and its gradient with respect to x."""
    B, T = targets.shape
    inv = _rms_scale(x)
    y = x * inv * model.g_final
    probs = _softmax_rows(y @ model.lm_head)
    idx_b, idx_t = np.meshgrid(np.arange(B), np.arange(T), indexing="ij")
    nll = -np.log(np.maximum(probs[idx_b, idx_t, targets], 1e-300))
    dlg = probs
    dlg[idx_b, idx_t, targets] -= 1.0
    dlg /= B * T
    grads["lm_head"] = _flat(y).T @ _flat(dlg)
    dx, grads["g_final"] = _rms_backward(dlg @ model.lm_head.T, x, inv, model.g_final)
    return float(nll.mean()), dx


def _feed_forward_backward(lw, dout, cache, grads, name):
    """Pops the 4 entries `_feed_forward_block` cached; returns the gradient
    with respect to the block's input, the residual included."""
    x, inv, u1, t = cache[-4:]
    del cache[-4:]
    du1 = _gelu_backward(dout @ lw.w2.T, u1, t)
    # g and b are rebuilt as the forward built them
    g = 0.5 * u1
    g *= 1.0 + t
    grads[name + "w2"] = _flat(g).T @ _flat(dout)
    del u1, t, g  # the (B, T, d_ff) arrays end at their last use
    b = x * inv
    b *= lw.g_ff
    grads[name + "w1"] = _flat(b).T @ _flat(du1)
    db = du1 @ lw.w1.T
    del du1
    dx, grads[name + "g_ff"] = _rms_backward(db, x, inv, lw.g_ff)
    dx += dout
    return dx


def _attention_backward(lw, dout, cache, grads, name):
    """Pops the 6 entries `_attention_block` cached; returns the gradient
    with respect to the block's input, the residual included."""
    x, inv, q, k, v, p = cache[-6:]
    del cache[-6:]
    B, T, d = x.shape
    H, dh = q.shape[1], q.shape[3]
    # attn and a are rebuilt as the forward built them
    attn = (p @ v).swapaxes(-3, -2).reshape(B, T, d)
    grads[name + "wo"] = _flat(attn).T @ _flat(dout)
    dattn = (dout @ lw.wo.T).reshape(B, T, H, dh).transpose(0, 2, 1, 3)
    dp = dattn @ v.transpose(0, 1, 3, 2)
    dv = p.transpose(0, 1, 3, 2) @ dattn
    ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
    dq = ds @ k / np.sqrt(dh)
    dk = ds.transpose(0, 1, 3, 2) @ q / np.sqrt(dh)
    dq = dq.transpose(0, 2, 1, 3).reshape(B, T, d)
    dk = dk.transpose(0, 2, 1, 3).reshape(B, T, d)
    dv = dv.transpose(0, 2, 1, 3).reshape(B, T, d)
    a = x * inv
    a *= lw.g_attn
    grads[name + "wq"] = _flat(a).T @ _flat(dq)
    grads[name + "wk"] = _flat(a).T @ _flat(dk)
    grads[name + "wv"] = _flat(a).T @ _flat(dv)
    da = dq @ lw.wq.T + dk @ lw.wk.T + dv @ lw.wv.T
    dx, grads[name + "g_attn"] = _rms_backward(da, x, inv, lw.g_attn)
    return dout + dx


def loss_and_grads(
    model: TransformerModel, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean next-token cross-entropy over a (B, T) batch, plus its analytic
    gradient for every weight tensor. The model is not mutated."""
    T = inputs.shape[1]
    x = model.embedding[inputs] + model.pos[:T]
    cache = []  # every layer's 10 entries, in layer order
    for lw in model.layers:
        x = layer_forward(lw, x, model.config.n_heads, cache)

    # Every other gradient is assigned once below; these two are summed into.
    grads = {name: np.zeros_like(getattr(model, name)) for name in ("embedding", "pos")}
    loss, dx = _output_backward(model, x, targets, grads)
    for i in reversed(range(len(model.layers))):
        lw = model.layers[i]
        dx = _feed_forward_backward(lw, dx, cache, grads, f"layer{i}.")
        dx = _attention_backward(lw, dx, cache, grads, f"layer{i}.")

    np.add.at(grads["embedding"], inputs, dx)
    grads["pos"][:T] = dx.sum(axis=0)
    return loss, grads


def _sample_windows(ids: np.ndarray, batch: int, seq: int, rng: np.random.Generator):
    starts = rng.integers(0, len(ids) - seq, size=batch)
    windows = np.stack([ids[s : s + seq + 1] for s in starts])
    return windows[:, :-1], windows[:, 1:]


def train(
    model: TransformerModel,
    corpus: str,
    steps: int,
    lr: float = 3e-3,
    seed: int = 0,
    batch_size: int = 12,
    seq_len: int = 32,
    log_every: int = 100,
) -> TrainResult:
    """Adam training on next-token cross-entropy; deterministic per seed.

    Returns the updated model and the per-log-interval loss curve. The input
    model is not mutated.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    if not corpus:
        raise ValueError("corpus is empty")
    ids = np.asarray(Tokenizer().encode(corpus), dtype=np.int64)
    seq_len = min(seq_len, model.config.max_seq)
    if len(ids) < seq_len + 2:
        seq_len = max(2, len(ids) - 2)
    if len(ids) < 4:
        raise ValueError("corpus too short to form a training window")

    work = copy.deepcopy(model)
    params = work.param_tensors()  # work's own arrays, updated in place below
    m1 = {k: np.zeros_like(v) for k, v in params.items()}
    m2 = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    rng = np.random.default_rng(seed)
    losses = []
    for step in range(1, steps + 1):
        inputs, targets = _sample_windows(ids, batch_size, seq_len, rng)
        loss, grads = loss_and_grads(work, inputs, targets)
        if step == 1 or step % log_every == 0 or step == steps:
            losses.append(loss)
        for name in params:
            g = grads[name]
            m1[name] = beta1 * m1[name] + (1 - beta1) * g
            m2[name] = beta2 * m2[name] + (1 - beta2) * g * g
            mhat = m1[name] / (1 - beta1**step)
            vhat = m2[name] / (1 - beta2**step)
            params[name] -= lr * mhat / (np.sqrt(vhat) + eps)
        del grads  # so the next step's backward runs without them
    return TrainResult(model=work, losses=losses)

