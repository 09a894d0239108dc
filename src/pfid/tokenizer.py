"""Character-level tokenizer over a fixed ASCII alphabet."""

from __future__ import annotations

__all__ = ["Tokenizer"]

# newline first so the end-of-sequence token is id 0
_ASCII96 = "\n" + "".join(chr(c) for c in range(0x20, 0x7F))
_IDS = {ch: i for i, ch in enumerate(_ASCII96)}


class Tokenizer:
    """Char <-> id mapping over 96 characters: newline, which is the
    end-of-sequence token (id 0), then printable ASCII.

    encode(decode(ids)) and decode(encode(s)) are identities on in-alphabet
    strings. encode replaces any other character by '?' (total but lossy).
    """

    alphabet = _ASCII96
    vocab_size = len(_ASCII96)
    eos_id = 0

    def encode(self, text: str) -> list[int]:
        return [_IDS.get(ch, _IDS["?"]) for ch in text]

    def decode(self, ids: list[int]) -> str:
        out = []
        for tid in ids:
            if not (0 <= tid < self.vocab_size):
                raise ValueError(f"token id {tid} out of range 0..{self.vocab_size - 1}")
            out.append(self.alphabet[tid])
        return "".join(out)

