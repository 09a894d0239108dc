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
    top5: list[tuple[int, float]] = field(default_factory=list)
    k_head: int = 0
    k_tail: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    n_ctx: int = 0


@dataclass
class GenerationTrace:
    mode: str
    prompt: str
    steps: list[StepRecord] = field(default_factory=list)
    text: str = ""
    config: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    stop_reason: str = ""

    @property
    def token_ids(self) -> list[int]:
        return [s.token_id for s in self.steps]

    def set_text(self, tokenizer) -> None:
        """Decode the generated ids into `text`, leaving out the
        end-of-sequence token when it is what stopped the run."""
        ids = self.token_ids
        self.text = tokenizer.decode(ids[:-1] if self.stop_reason == "eos" else ids)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form; full logit vectors are dropped, top-5 kept."""
        return {
            "mode": self.mode,
            "prompt": self.prompt,
            "text": self.text,
            "seed": self.seed,
            "stop_reason": self.stop_reason,
            "config": self.config,
            "steps": [
                {
                    "token_id": s.token_id,
                    "top5": [[i, v] for i, v in s.top5],
                    "k_head": s.k_head,
                    "k_tail": s.k_tail,
                    "bytes_up": s.bytes_up,
                    "bytes_down": s.bytes_down,
                }
                for s in self.steps
            ],
        }
