"""Next-token training for the toy transformer.

Forward, analytic backward and an Adam loop, all in numpy float64. The
forward pass is model.layer_forward itself, run on B x T x d with its
intermediates cached for the backward pass, so finite-difference checks
validate the real inference path.

The cache holds only what the backward cannot cheaply rebuild. The
backward rebuilds each block's normed input, the attention output and the
GELU output with the forward's own operations in the forward's order, so
they have the forward's bits, and it drops each layer's cache once that
layer is done.
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
    dt = GELU_C * (1.0 + 3.0 * GELU_A * (x * x)) * (1.0 - t * t)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt)


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def loss_and_grads(
    model: TransformerModel, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean next-token cross-entropy over a (B, T) batch, plus its analytic
    gradient for every weight tensor. The model is not mutated."""
    cfg = model.config
    B, T = inputs.shape
    H, dh = cfg.n_heads, cfg.d_model // cfg.n_heads

    x = model.embedding[inputs] + model.pos[:T]
    caches = []
    for lw in model.layers:
        caches.append([])
        x = layer_forward(lw, x, H, caches[-1])

    inv_f = _rms_scale(x)
    y = x * inv_f * model.g_final
    lg = y @ model.lm_head
    probs = _softmax_rows(lg)
    idx_b, idx_t = np.meshgrid(np.arange(B), np.arange(T), indexing="ij")
    nll = -np.log(np.maximum(probs[idx_b, idx_t, targets], 1e-300))
    loss = float(nll.mean())

    # Every other gradient is assigned once below; these two are summed into.
    grads = {name: np.zeros_like(getattr(model, name)) for name in ("embedding", "pos")}

    dlg = probs.copy()
    dlg[idx_b, idx_t, targets] -= 1.0
    dlg /= B * T
    grads["lm_head"] = _flat(y).T @ _flat(dlg)
    dy = dlg @ model.lm_head.T
    dx, grads["g_final"] = _rms_backward(dy, x, inv_f, model.g_final)

    for i in reversed(range(cfg.n_layers)):
        lw = model.layers[i]
        x_in, inv1, q, k, v, p, x_mid, inv2, u1, t = caches.pop()

        # feed-forward branch; g and b are rebuilt as the forward built them
        g = 0.5 * u1
        g *= 1.0 + t
        grads[f"layer{i}.w2"] = _flat(g).T @ _flat(dx)
        dg = dx @ lw.w2.T
        du1 = _gelu_backward(dg, u1, t)
        b = x_mid * inv2
        b *= lw.g_ff
        grads[f"layer{i}.w1"] = _flat(b).T @ _flat(du1)
        db = du1 @ lw.w1.T
        dx_mid, grads[f"layer{i}.g_ff"] = _rms_backward(db, x_mid, inv2, lw.g_ff)
        dx_mid += dx

        # attention branch; attn and a are rebuilt as the forward built them
        attn = (p @ v).swapaxes(-3, -2).reshape(B, T, cfg.d_model)
        grads[f"layer{i}.wo"] = _flat(attn).T @ _flat(dx_mid)
        dattn = (dx_mid @ lw.wo.T).reshape(B, T, H, dh).transpose(0, 2, 1, 3)
        dp = dattn @ v.transpose(0, 1, 3, 2)
        dv = p.transpose(0, 1, 3, 2) @ dattn
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        dq = ds @ k / np.sqrt(dh)
        dk = ds.transpose(0, 1, 3, 2) @ q / np.sqrt(dh)
        dq = dq.transpose(0, 2, 1, 3).reshape(B, T, cfg.d_model)
        dk = dk.transpose(0, 2, 1, 3).reshape(B, T, cfg.d_model)
        dv = dv.transpose(0, 2, 1, 3).reshape(B, T, cfg.d_model)
        a = x_in * inv1
        a *= lw.g_attn
        grads[f"layer{i}.wq"] = _flat(a).T @ _flat(dq)
        grads[f"layer{i}.wk"] = _flat(a).T @ _flat(dk)
        grads[f"layer{i}.wv"] = _flat(a).T @ _flat(dv)
        da = dq @ lw.wq.T + dk @ lw.wk.T + dv @ lw.wv.T
        dx_in, grads[f"layer{i}.g_attn"] = _rms_backward(da, x_in, inv1, lw.g_attn)
        dx = dx_mid + dx_in

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
    return TrainResult(model=work, losses=losses)

