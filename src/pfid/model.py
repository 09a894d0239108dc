"""Desk-scale decoder-only transformer.

Pre-norm residual blocks with RMS normalization, causal multi-head
attention, GELU feed-forward, learned absolute positional embeddings, and a
linear LM head. All weights and activations are float64.

Hidden states are n x d matrices (positions x features), one row per
sequence position, in and out of every function here; training runs the
same layer on B x T x d. Only the packet codec in `protocol` uses the
transposed d x n layout.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, fields

import numpy as np

from .linalg import Matrix, check_matrix
from .trace import GenerationTrace, StepRecord

__all__ = [
    "ModelConfig",
    "LayerWeights",
    "TransformerModel",
    "SamplingParams",
    "init_model",
    "layer_forward",
    "embed",
    "kv_buffers",
    "forward_layers",
    "logits",
    "filtered_distribution",
    "sample_next",
    "pipeline_generate",
]

RMS_EPS = 1e-5
GELU_C = 0.7978845608028654  # sqrt(2 / pi)
GELU_A = 0.044715

# Fixed glibc thresholds (mmap 32 MiB, trim 64 MiB) keep a layer's freed
# temporaries in the heap for the next layer, instead of unmapping or
# trimming them and faulting them back in on every token.
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
except (OSError, AttributeError, TypeError):  # no mallopt to call
    pass


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 8
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 96
    max_seq: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_layers < 3:
            raise ValueError(f"n_layers must be >= 3 to admit a 3-way split, got {self.n_layers}")
        if self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if min(self.d_ff, self.vocab_size, self.max_seq) < 1:
            raise ValueError("d_ff, vocab_size and max_seq must be positive")


@dataclass
class LayerWeights:
    wq: Matrix
    wk: Matrix
    wv: Matrix
    wo: Matrix
    w1: Matrix
    w2: Matrix
    g_attn: np.ndarray
    g_ff: np.ndarray


@dataclass
class TransformerModel:
    config: ModelConfig
    embedding: Matrix          # vocab x d
    pos: Matrix                # max_seq x d
    layers: list[LayerWeights]
    g_final: np.ndarray        # d
    lm_head: Matrix            # d x vocab

    def param_slots(self) -> dict[str, tuple[object, str]]:
        """Where each weight tensor lives, as (owner, attribute), by name in
        a stable declared order; weights a shard withholds (None) are left
        out."""
        out = {"embedding": (self, "embedding"), "pos": (self, "pos")}
        for i, lw in enumerate(self.layers):
            if lw is not None:
                for f in fields(LayerWeights):
                    out[f"layer{i}.{f.name}"] = (lw, f.name)
        out["g_final"] = (self, "g_final")
        out["lm_head"] = (self, "lm_head")
        return {name: slot for name, slot in out.items() if getattr(*slot) is not None}

    def param_tensors(self) -> dict[str, np.ndarray]:
        """Named weight tensors, in param_slots order."""
        return {name: getattr(*slot) for name, slot in self.param_slots().items()}


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.7
    top_p: float = 0.5
    top_k: int = 50
    max_new_tokens: int = 300
    greedy: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (0 < self.top_p <= 1):
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be positive, got {self.max_new_tokens}")


def init_model(config: ModelConfig) -> TransformerModel:
    """Seeded Gaussian init; residual output projections are down-scaled by
    1/sqrt(2 * n_layers) to keep the residual stream tame at depth."""
    rng = np.random.default_rng(config.seed)
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    std = 0.02
    res_std = std / np.sqrt(2.0 * config.n_layers)

    def w(rows, cols, scale):
        return scale * rng.standard_normal((rows, cols))

    layers = [
        LayerWeights(
            wq=w(d, d, std), wk=w(d, d, std), wv=w(d, d, std), wo=w(d, d, res_std),
            w1=w(d, dff, std), w2=w(dff, d, res_std),
            g_attn=np.ones(d), g_ff=np.ones(d),
        )
        for _ in range(config.n_layers)
    ]
    return TransformerModel(
        config=config,
        embedding=w(v, d, std),
        pos=w(config.max_seq, d, std),
        layers=layers,
        g_final=np.ones(d),
        lm_head=w(d, v, std),
    )


def _rms_scale(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)


def _gelu_with_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # tanh approximation; x*x instead of x**2 to stay on the fast ufunc path
    t = np.tanh(GELU_C * x * (1.0 + GELU_A * (x * x)))
    return 0.5 * x * (1.0 + t), t


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_block(
    lw: LayerWeights, x: np.ndarray, n_heads: int, cache: list | None, past: tuple | None,
    q_rows: int,
) -> np.ndarray:
    *lead, t_len, d = x.shape
    dh = d // n_heads
    inv = _rms_scale(x)
    a = x * inv * lw.g_attn
    q, k, v = (
        (rows @ w).reshape(*lead, -1, n_heads, dh).swapaxes(-3, -2)
        for rows, w in ((a[..., t_len - q_rows:, :], lw.wq), (a, lw.wk), (a, lw.wv))
    )
    if past is not None:
        keys, values, start = past
        keys[:, start:start + t_len] = k
        values[:, start:start + t_len] = v
        k, v = keys[:, :start + t_len], values[:, :start + t_len]
    # Query row i is position kv_len - q_rows + i and sees the positions up to its own.
    kv_len = k.shape[-2]
    mask = np.triu(np.ones((q_rows, kv_len), dtype=bool), k=kv_len - q_rows + 1)
    p = _softmax_rows(np.where(mask, -np.inf, q @ k.swapaxes(-1, -2) / np.sqrt(dh)))
    attn = (p @ v).swapaxes(-3, -2).reshape(*lead, q_rows, d)
    if cache is not None:
        cache += (x, inv, a, q, k, v, p, attn)
    return attn @ lw.wo


def _feed_forward_block(lw: LayerWeights, x: np.ndarray, cache: list | None) -> np.ndarray:
    inv = _rms_scale(x)
    b = x * inv * lw.g_ff
    u1 = b @ lw.w1
    g, t = _gelu_with_tanh(u1)
    if cache is not None:
        cache += (x, inv, b, u1, g, t)
    return g @ lw.w2


def layer_forward(
    lw: LayerWeights,
    x: np.ndarray,
    n_heads: int,
    cache: list | None = None,
    past: tuple[np.ndarray, np.ndarray, int] | None = None,
    q_rows: int | None = None,
) -> np.ndarray:
    """One pre-norm decoder block on a (..., T, d) state with causal masking.

    Inference runs it on n x d, training on B x T x d. When a cache list is
    given, the 14 intermediates the analytic backward pass needs are
    appended to it.

    `past` = (keys, values, start) makes x the rows of positions start,
    start + 1, ... of an n x d state whose earlier positions this layer has
    already seen: their keys and values are in rows [0, start) of the
    n_heads x max_seq x d_head buffers, the new rows' are written after
    them, and the new rows attend to all of them.

    `q_rows` computes the queries, attention output and feed-forward for
    the last q_rows rows of x only, and returns those rows; keys and values
    still come from every row. Unset, every row is computed.
    """
    t_len = x.shape[-2]
    q_rows = t_len if q_rows is None else q_rows
    x = x[..., t_len - q_rows:, :] + _attention_block(lw, x, n_heads, cache, past, q_rows)
    return x + _feed_forward_block(lw, x, cache)


def _check_hidden(model: TransformerModel, h: Matrix, name: str) -> Matrix:
    h = check_matrix(h, name)
    if h.shape[1] != model.config.d_model:
        raise ValueError(
            f"hidden state has {h.shape[1]} columns, expected {model.config.d_model}"
        )
    return h


def embed(model: TransformerModel, tokens: list[int], offset: int = 0) -> Matrix:
    """Token + positional embedding, as an n x d hidden state; the tokens
    sit at positions offset, offset + 1, ..."""
    if len(tokens) == 0:
        raise ValueError("cannot embed an empty token sequence")
    if offset + len(tokens) > model.pos.shape[0]:
        raise ValueError(
            f"sequence length {offset + len(tokens)} exceeds max_seq {model.pos.shape[0]}"
        )
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= model.config.vocab_size:
        raise ValueError(f"token id out of range 0..{model.config.vocab_size - 1}")
    return model.embedding[ids] + model.pos[offset:offset + len(ids)]


def kv_buffers(config: ModelConfig, n_layers: int) -> tuple[np.ndarray, np.ndarray]:
    """Empty key and value buffers for `n_layers` layers of one token
    sequence, each n_layers x n_heads x max_seq x d_head."""
    shape = (n_layers, config.n_heads, config.max_seq, config.d_model // config.n_heads)
    return np.empty(shape), np.empty(shape)


def forward_layers(
    model: TransformerModel,
    start: int,
    stop: int,
    h_in: Matrix,
    past: tuple[np.ndarray, np.ndarray, int] | None = None,
    q_rows: int | None = None,
) -> Matrix:
    """Apply decoder layers [start, stop) with causal masking to an n x d state.

    `past` = (keys, values, n_past) makes h_in the positions after n_past
    ones these layers have already seen; keys[i] and values[i] are the
    buffers `layer_forward` takes for the i-th layer of the range.
    `q_rows` makes the range's last layer compute, and return, only the
    last q_rows rows; the layers before it need every row for its keys.
    """
    if not (0 <= start <= stop <= model.config.n_layers):
        raise ValueError(
            f"bad layer range [{start}, {stop}) for {model.config.n_layers} layers"
        )
    x = _check_hidden(model, h_in, "h_in")
    if q_rows is not None and not (0 < q_rows <= x.shape[0]):
        raise ValueError(f"q_rows {q_rows} out of range 1..{x.shape[0]}")
    for i, lw in enumerate(model.layers[start:stop]):
        layer_past = None if past is None else (past[0][i], past[1][i], past[2])
        x = layer_forward(lw, x, model.config.n_heads, past=layer_past,
                          q_rows=q_rows if start + i == stop - 1 else None)
    return x


def logits(model: TransformerModel, h: Matrix) -> Matrix:
    """Final norm + LM head: n x d hidden state to n x vocab logits."""
    x = _check_hidden(model, h, "h")
    return x * _rms_scale(x) * model.g_final @ model.lm_head


def filtered_distribution(
    logits_last: np.ndarray, params: SamplingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Token ids and probabilities after temperature, top-k, then top-p.

    Candidates are ordered by descending logit (ties by ascending id); the
    nucleus is the shortest prefix whose probability mass reaches top_p.
    """
    z = np.asarray(logits_last, dtype=np.float64) / params.temperature
    order = np.argsort(-z, kind="stable")
    kept = order[: min(params.top_k, z.size)]
    probs = _softmax_rows(z[kept])
    cum = np.cumsum(probs)
    cut = int(np.searchsorted(cum, params.top_p, side="left")) + 1
    kept = kept[:cut]
    probs = probs[:cut] / probs[:cut].sum()
    return kept, probs


def sample_next(logits_last: np.ndarray, params: SamplingParams, rng: np.random.Generator) -> int:
    """Draw the next token id; greedy mode is a pure argmax (ties: lowest id)."""
    logits_last = np.asarray(logits_last, dtype=np.float64)
    if logits_last.ndim != 1 or not np.isfinite(logits_last).all():
        raise ValueError("logits must be a finite 1-D vector")
    if params.greedy:
        return int(np.argmax(logits_last))
    ids, probs = filtered_distribution(logits_last, params)
    u = rng.random()
    return int(ids[np.searchsorted(np.cumsum(probs), u, side="right").clip(0, ids.size - 1)])


def pipeline_generate(
    model: TransformerModel,
    prompt_tokens: list[int],
    params: SamplingParams,
    eos_id: int | None = None,
) -> GenerationTrace:
    """Monolithic autoregressive decoding, the unsplit baseline.

    Decodes as a cached LLM service does: every layer keeps the keys and
    values of the positions it has seen, so each step runs only the new
    tokens through the layers, and the last layer and the LM head only the
    last of them. The logits agree with a full recompute of the prefix to
    rounding (about 1e-16), not bit for bit.
    """
    if not prompt_tokens:
        raise ValueError("prompt must be nonempty")
    n_layers = model.config.n_layers
    rng = np.random.default_rng(params.seed)
    tokens = list(prompt_tokens)
    trace = GenerationTrace(mode="pipeline", prompt="", seed=params.seed)
    keys, values = kv_buffers(model.config, n_layers)
    n_past = 0
    stop_reason = "max_new_tokens"
    for _ in range(params.max_new_tokens):
        n = len(tokens)
        if n >= model.config.max_seq:
            stop_reason = "max_seq"
            break
        h = forward_layers(model, 0, n_layers, embed(model, tokens[n_past:], n_past),
                           (keys, values, n_past), q_rows=1)
        n_past = n
        lg = logits(model, h)[0].copy()
        tok = sample_next(lg, params, rng)
        trace.steps.append(StepRecord(token_id=tok, logits=lg, n_ctx=n))
        tokens.append(tok)
        if eos_id is not None and tok == eos_id:
            stop_reason = "eos"
            break
    trace.stop_reason = stop_reason
    return trace
