"""Bundled synthetic corpus: templated sentences carrying privacy-style
details (names, phone numbers, percentages, amounts).

Lines are lowercase printable ASCII terminated by newline, short enough that
prompt + continuation fits the toy model's context window.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_corpus", "heldout_prompts", "DEFAULT_PROMPT_LEN", "MAX_LINE_LEN"]

DEFAULT_PROMPT_LEN = 12

_NAMES = ["alice", "bob", "carol", "dana", "erik", "fiona", "gleb", "hana"]
_INDICES = ["nasdaq", "dax", "ftse", "nikkei", "hangseng"]
_STREETS = ["oak", "elm", "main", "park", "lake"]
_DAYS = ["monday", "tuesday", "wednesday", "thursday", "friday"]

# Details come from small fixed pools so the model can actually learn them:
# each detail is sharply predictable in context for the full model yet
# unrecoverable once truncation has removed the discriminating features.
_PHONES = ["0142", "0987", "2316", "4205", "5571", "6628", "7394", "8863"]
_PCTS = ["0.85", "1.24", "2.68", "3.07", "4.51", "5.93", "7.62", "8.40"]
_AGES = ["21", "25", "34", "38", "47", "52", "63", "74"]
_AMOUNTS = ["120", "385", "742", "1650", "2875", "4210", "6031", "8456"]
_ACCOUNTS = ["1109", "2648", "3327", "4856", "5583", "7219", "8071", "9934"]
_HOUSE_NUMS = ["7", "12", "23", "38", "45", "61", "77", "94"]
_HOURS = ["1", "2", "3", "4", "5", "6", "7", "8"]


# One template per line kind; each takes the line's two names and a pick
# function that draws from a pool. Pools are drawn in reading order.
_TEMPLATES = [
    lambda name, other, pick: f"{name} called {other} at 555-{pick(_PHONES)}.",
    lambda name, other, pick: f"the {pick(_INDICES)} index rose {pick(_PCTS)}% yesterday.",
    lambda name, other, pick: f"{name} is {pick(_AGES)} years old.",
    lambda name, other, pick: f"send {pick(_AMOUNTS)} dollars to account {pick(_ACCOUNTS)}.",
    lambda name, other, pick: f"{name} lives at {pick(_HOUSE_NUMS)} {pick(_STREETS)} street.",
    lambda name, other, pick: f"meet {name} at {pick(_HOURS)} pm on {pick(_DAYS)}.",
]


def _longest(pool: list[str]) -> str:
    return max(pool, key=len)


# the longest line any template can produce
MAX_LINE_LEN = max(len(t(_longest(_NAMES), _longest(_NAMES), _longest)) for t in _TEMPLATES)


def _line(rng: np.random.Generator) -> str:
    def pick(pool: list[str]) -> str:
        return pool[rng.integers(len(pool))]

    name, other = pick(_NAMES), pick(_NAMES)
    return _TEMPLATES[int(rng.integers(len(_TEMPLATES)))](name, other, pick)


def build_corpus(n_lines: int = 600, seed: int = 1234) -> str:
    """Training text: n_lines templated sentences, one per line."""
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    rng = np.random.default_rng(seed)
    return "".join(_line(rng) + "\n" for _ in range(n_lines))


def heldout_prompts(
    n: int = 50, seed: int = 9876, prompt_len: int = DEFAULT_PROMPT_LEN
) -> list[str]:
    """Evaluation prompts: prefixes of fresh lines drawn from the same
    templates with a different seed. Only lines longer than prompt_len
    qualify, so prompt_len must be below MAX_LINE_LEN."""
    if not (1 <= prompt_len < MAX_LINE_LEN):
        raise ValueError(f"prompt_len must be in 1..{MAX_LINE_LEN - 1}, got {prompt_len}")
    rng = np.random.default_rng(seed)
    prompts = []
    while len(prompts) < n:
        line = _line(rng)
        if len(line) > prompt_len:
            prompts.append(line[:prompt_len])
    return prompts
