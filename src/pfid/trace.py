"""Per-token generation records, the common currency of all reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["StepRecord", "GenerationTrace", "top5_fingerprint"]


def top5_fingerprint(logits: np.ndarray) -> list[tuple[int, float]]:
    """(token id, logit) for the five highest logits, ids ascending on ties."""
    order = np.argsort(-logits, kind="stable")[:5]
    return [(int(i), float(logits[i])) for i in order]


@dataclass
class StepRecord:
    token_id: int
    logits: np.ndarray | None = None
    k_head: int = 0
    k_tail: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    n_ctx: int = 0


@dataclass
class GenerationTrace:
    """What one decoder saw and produced; the run's settings and seed are in its manifest."""

    mode: str
    prompt: str
    text: str = ""
    stop_reason: str = ""
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def token_ids(self) -> list[int]:
        return [s.token_id for s in self.steps]

    def set_text(self, tokenizer) -> None:
        """Decode the generated ids into `text`, leaving out the
        end-of-sequence token when it is what stopped the run."""
        ids = self.token_ids
        self.text = tokenizer.decode(ids[:-1] if self.stop_reason == "eos" else ids)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form: each step's full logit vector is dropped and
        its top five are kept ([] for a step without logits)."""
        return {
            **vars(self),
            "steps": [
                {
                    "token_id": s.token_id,
                    "top5": ([[i, v] for i, v in top5_fingerprint(s.logits)]
                             if s.logits is not None else []),
                    "k_head": s.k_head,
                    "k_tail": s.k_tail,
                    "bytes_up": s.bytes_up,
                    "bytes_down": s.bytes_down,
                    "n_ctx": s.n_ctx,
                }
                for s in self.steps
            ],
        }
