import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfid.tokenizer import Tokenizer


def test_default_alphabet_is_96_chars():
    tok = Tokenizer()
    assert tok.vocab_size == 96
    assert tok.alphabet[0] == "\n"
    assert tok.eos_id == 0


def test_round_trip_simple():
    tok = Tokenizer()
    s = "alice called bob at 555-0142.\n"
    assert tok.decode(tok.encode(s)) == s


@given(st.text(alphabet=Tokenizer().alphabet, max_size=200))
@settings(max_examples=100, deadline=None)
def test_round_trip_identity_on_alphabet(s):
    tok = Tokenizer()
    assert tok.decode(tok.encode(s)) == s


def test_byte_fallback_replaces_unknown():
    tok = Tokenizer()
    ids = tok.encode("café")
    assert tok.decode(ids) == "caf?"


def test_decode_rejects_out_of_range():
    tok = Tokenizer()
    with pytest.raises(ValueError, match="out of range"):
        tok.decode([96])
