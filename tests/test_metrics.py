import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfid.metrics import build_eval_report, bleu, logit_kl, tail_share, token_agreement
from pfid.model import SamplingParams
from pfid.protocol import PfidConfig, run_local_sim
from pfid.trace import GenerationTrace, StepRecord


def oracle_bleu(candidate, reference):
    """Independent word-BLEU implementation for cross-checking: explicit
    loops, same smoothing convention (add-one on zero-match orders)."""
    cand, ref = candidate.split(), reference.split()
    if not cand:
        return 0.0
    logs = []
    for n in range(1, 5):
        cgrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
        rgrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        seen = Counter(cgrams)
        num = 0
        for g, c in seen.items():
            num += min(c, rgrams.get(g, 0))
        den = len(cgrams)
        if n == 1 and num == 0:
            return 0.0
        if num == 0:
            num, den = 1, den + 1
        logs.append(math.log(num / den))
    bp = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / max(len(cand), 1))
    return 100.0 * bp * math.exp(sum(logs) / 4.0)


class TestBleu:
    def test_identity_is_100(self):
        assert bleu("the cat sat down", "the cat sat down") == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert bleu("x y z", "a b c") == 0.0

    def test_hand_computed_case(self):
        # unigram precision 1, all higher orders saturate, brevity exp(1 - 4/3)
        expected = 100.0 * math.exp(1.0 - 4.0 / 3.0)
        assert bleu("the cat sat", "the cat sat down") == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(71.65313, abs=1e-4)

    def test_matches_independent_oracle_on_random_strings(self):
        rng = np.random.default_rng(3)
        words = ["a", "b", "c", "dd", "ee", "ff", "g"]
        for _ in range(100):
            cand = " ".join(rng.choice(words, size=rng.integers(1, 12)))
            ref = " ".join(rng.choice(words, size=rng.integers(1, 12)))
            assert bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), rel=1e-9)

    def test_char_mode(self):
        assert bleu("abcd", "abcd", mode="char") == pytest.approx(100.0)
        assert bleu("abcd", "abce", mode="char") < 100.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            bleu("a", "")

    def test_empty_candidate_scores_zero(self):
        assert bleu("", "a b") == 0.0

    @given(st.text(alphabet="ab ", min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_self_bleu_is_100(self, s):
        if s.split():
            assert bleu(s, s) == pytest.approx(100.0)


def _trace(ids, logits=None):
    t = GenerationTrace(mode="t", prompt="p")
    for i, tid in enumerate(ids):
        lg = None if logits is None else np.asarray(logits[i], dtype=float)
        t.steps.append(StepRecord(token_id=tid, logits=lg))
    return t


class TestTokenAgreement:
    def test_identical(self):
        assert token_agreement([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint_equal_length(self):
        assert token_agreement([1, 2, 3], [4, 5, 6]) == 0.0

    def test_length_mismatch_penalty(self):
        # 2 matches over max length 4
        assert token_agreement([1, 2], [1, 2, 9, 9]) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = list(rng.integers(0, 5, size=rng.integers(1, 10)))
            b = list(rng.integers(0, 5, size=rng.integers(1, 10)))
            assert token_agreement(a, b) == token_agreement(b, a)

    def test_accepts_traces(self):
        assert token_agreement(_trace([1, 2]), _trace([1, 2])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            token_agreement([], [1])


class TestLogitKl:
    def test_self_kl_is_zero(self):
        a = _trace([0, 1], logits=[[1.0, 2.0, 0.5], [0.0, 0.1, 0.2]])
        assert logit_kl(a, a) == 0.0

    def test_hand_computed_three_class(self):
        # p = (.5, .3, .2), q = (.4, .4, .2) via log-probability logits
        a = _trace([0], logits=[[math.log(0.5), math.log(0.3), math.log(0.2)]])
        b = _trace([0], logits=[[math.log(0.4), math.log(0.4), math.log(0.2)]])
        hand = 0.5 * math.log(0.5 / 0.4) + 0.3 * math.log(0.3 / 0.4) + 0.2 * math.log(0.2 / 0.2)
        assert logit_kl(a, b) == pytest.approx(hand, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = _trace([0], logits=[rng.standard_normal(6)])
            b = _trace([0], logits=[rng.standard_normal(6)])
            assert logit_kl(a, b) >= 0.0

    def test_missing_logits_rejected(self):
        a = _trace([0], logits=[[1.0, 2.0]])
        b = _trace([0])
        with pytest.raises(ValueError, match="logits"):
            logit_kl(a, b)


class TestTailShare:
    def test_uniform_spectrum(self):
        s = np.ones(16)
        assert tail_share(s, 4) == pytest.approx(4 / 16)

    def test_zero_spectrum(self):
        assert tail_share(np.zeros(5), 2) == 0.0

    def test_q_clamped(self):
        assert tail_share(np.array([3.0, 1.0]), 10) == pytest.approx(1.0)


class TestBuildEvalReport:
    def test_bypass_scores_the_local_client_as_the_pipeline(self, tiny_model, tokenizer):
        """omega = 0 and raw packets: the client and the tail-only
        eavesdropper both decode the pipeline's tokens. The cached paths
        differ from the pipeline by rounding, so the KL is 0 to rounding."""
        config = PfidConfig(omega=0.0, phead=0.0, ptail=0.0,
                            sampling=SamplingParams(greedy=True, max_new_tokens=8))
        sim = run_local_sim(tiny_model, tokenizer, config, "alice called bo")
        report = build_eval_report(sim.pipeline, sim.local, sim.eavesdroppers)
        local = report["scenarios"]["local"]
        assert local["token_agreement"] == 1.0
        assert local["mean_logit_kl"] == pytest.approx(0.0, abs=1e-12)
        assert report["output_gap"]["tail_only"] == {"bleu": 0.0, "token_agreement": 0.0}

    def test_an_empty_pipeline_text_scores_bleu_zero_everywhere(self):
        logits = [[1.0, 0.0], [0.0, 1.0]]
        pipeline, local, eaves = (_trace([0, 1], logits) for _ in range(3))
        eaves.steps[1].token_id = 0
        local.text = eaves.text = "ab"
        report = build_eval_report(pipeline, local, {"tail_only": eaves})
        for scores in report["scenarios"].values():
            assert scores["bleu"] == 0.0
        assert report["scenarios"]["local"]["token_agreement"] == 1.0
        assert report["output_gap"]["tail_only"] == {"bleu": 0.0, "token_agreement": 0.5}
