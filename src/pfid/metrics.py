"""Fidelity and output-gap metrics: BLEU, token agreement, logit
divergence, per-layer spectrum reports and communication ratios."""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

import numpy as np

from .model import TransformerModel, embed, forward_layers
from .trace import GenerationTrace

__all__ = [
    "bleu",
    "token_agreement",
    "logit_kl",
    "spectra_report",
    "tail_share",
    "build_eval_report",
]

_MAX_ORDER = 4


def _tokens(text: str, mode: str) -> list[str]:
    if mode == "word":
        return text.split()
    if mode == "char":
        return list(text)
    raise ValueError(f"unknown tokenization mode {mode!r}")


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: str, reference: str, mode: str = "word") -> float:
    """Corpus-style BLEU on [0, 100]: modified n-gram precision up to
    4-grams, geometric mean, brevity penalty.

    Orders with zero matches get add-one smoothing on both numerator and
    denominator. A candidate sharing no unigram with the reference scores 0.
    """
    ref = _tokens(reference, mode)
    cand = _tokens(candidate, mode)
    if not ref:
        raise ValueError("reference must be nonempty")
    if not cand:
        return 0.0

    log_sum = 0.0
    for order in range(1, _MAX_ORDER + 1):
        counts = _ngrams(cand, order)
        ref_counts = _ngrams(ref, order)
        clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
        total = sum(counts.values())
        if order == 1 and clipped == 0:
            return 0.0
        if clipped == 0:
            clipped, total = clipped + 1, total + 1
        log_sum += np.log(clipped / total) / _MAX_ORDER

    c, r = len(cand), len(ref)
    brevity = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(100.0 * brevity * np.exp(log_sum))


def _ids(x) -> list[int]:
    return x.token_ids if isinstance(x, GenerationTrace) else list(x)


def token_agreement(a, b) -> float:
    """Fraction of agreeing positions; a length mismatch scales the score by
    min/max length, i.e. matches over the longer length."""
    ids_a, ids_b = _ids(a), _ids(b)
    if not ids_a or not ids_b:
        raise ValueError("traces must be nonempty")
    m = min(len(ids_a), len(ids_b))
    matches = sum(1 for x, y in zip(ids_a[:m], ids_b[:m]) if x == y)
    return matches / max(len(ids_a), len(ids_b))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def logit_kl(a: GenerationTrace, b: GenerationTrace) -> float:
    """Mean KL(softmax(a) || softmax(b)) over the shared prefix of steps."""
    m = min(len(a.steps), len(b.steps))
    if m == 0:
        raise ValueError("traces must be nonempty")
    total = 0.0
    for sa, sb in zip(a.steps[:m], b.steps[:m]):
        if sa.logits is None or sb.logits is None:
            raise ValueError("traces are missing per-step logits")
        lp = _log_softmax(np.asarray(sa.logits))
        lq = _log_softmax(np.asarray(sb.logits))
        total += float(np.sum(np.exp(lp) * (lp - lq)))
    return max(total / m, 0.0)


def tail_share(singular_values: np.ndarray, q: int) -> float:
    """Share of the spectrum's mass held by the q smallest singular values."""
    s = np.asarray(singular_values, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular values must be a nonempty vector")
    q = max(0, min(q, s.size))
    total = float(s.sum())
    if total == 0.0:
        return 0.0
    return float(np.sort(s)[:q].sum() / total)


def spectra_report(
    model: TransformerModel,
    prompts_tokens: list[list[int]],
    tail_q: int = 16,
) -> list[dict[str, Any]]:
    """Per-layer singular spectrum of the hidden states, averaged over
    prompts: mean singular values, nuclear norm, and the share held by the
    tail_q smallest components."""
    if not prompts_tokens:
        raise ValueError("need at least one prompt")
    n_layers = model.config.n_layers
    per_layer_svs: list[list[np.ndarray]] = [[] for _ in range(n_layers + 1)]
    for tokens in prompts_tokens:
        h = embed(model, tokens)
        per_layer_svs[0].append(np.linalg.svd(h, compute_uv=False))
        for layer in range(n_layers):
            h = forward_layers(model, layer, layer + 1, h)
            per_layer_svs[layer + 1].append(np.linalg.svd(h, compute_uv=False))

    report = []
    for layer, svs in enumerate(per_layer_svs):
        width = min(len(s) for s in svs)
        mean_sv = np.mean([s[:width] for s in svs], axis=0)
        report.append(
            {
                "layer": layer,  # 0 is the embedding output
                "singular_values": [float(x) for x in mean_sv],
                "nuclear_norm": float(mean_sv.sum()),
                "tail_q": int(min(tail_q, width)),
                "tail_share": tail_share(mean_sv, tail_q),
            }
        )
    return report


def _score(trace: GenerationTrace, pipeline: GenerationTrace, bleu_mode: str) -> dict[str, float]:
    return {
        "bleu": bleu(trace.text, pipeline.text, mode=bleu_mode) if pipeline.text else 0.0,
        "token_agreement": token_agreement(trace, pipeline),
        "mean_logit_kl": logit_kl(trace, pipeline),
    }


def build_eval_report(
    pipeline: GenerationTrace,
    local: GenerationTrace,
    eavesdroppers: dict[str, GenerationTrace],
    remnant: GenerationTrace | None = None,
    comm_ratio: float = float("nan"),
    bleu_mode: str = "char",
) -> dict[str, Any]:
    """Score one session against its pipeline baseline.

    Returns {"scenarios": {label: {"bleu", "token_agreement",
    "mean_logit_kl"}}, "output_gap": {eavesdropper mode: {"bleu",
    "token_agreement"}}, "comm_ratio": comm_ratio}. The scenario labels
    are "pipeline", "local", "eavesdropper:<mode>" and, for a remnant with
    steps, "remnant". The output gap is the local client's score minus the
    eavesdropper's: how much better the client decodes than someone
    replaying its traffic. It measures output agreement, not whether the
    prompt can be read off the wire.

    When the pipeline decoded no text (its first token was the
    end-of-sequence token), BLEU has no reference and is 0 for every
    scenario; `sweep` still counts that prompt in its means.
    """
    scenarios = {"pipeline": _score(pipeline, pipeline, bleu_mode),
                 "local": _score(local, pipeline, bleu_mode)}
    for name, trace in eavesdroppers.items():
        scenarios[f"eavesdropper:{name}"] = _score(trace, pipeline, bleu_mode)
    if remnant is not None and remnant.steps:
        scenarios["remnant"] = _score(remnant, pipeline, bleu_mode)
    output_gap = {
        name: {key: scenarios["local"][key] - scenarios[f"eavesdropper:{name}"][key]
               for key in ("bleu", "token_agreement")}
        for name in eavesdroppers
    }
    return {"scenarios": scenarios, "output_gap": output_gap, "comm_ratio": comm_ratio}
