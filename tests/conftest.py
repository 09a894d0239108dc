"""Shared fixtures.

The trained toy model takes a few minutes to build, so it is trained once
and cached as a checkpoint under .cache/; the cache key covers everything
that determines the weights. Tests always consume the checkpoint round-trip
(binary32 weights) so cached and fresh runs see identical models.
"""

from pathlib import Path

import pytest

from pfid.checkpoint import load_model, save_model
from pfid.corpus import build_corpus, heldout_prompts
from pfid.model import ModelConfig, init_model
from pfid.tokenizer import Tokenizer
from pfid.training import train

TRAIN_STEPS = 4000
TRAIN_LR = 3e-3
TRAIN_SEED = 0
CORPUS_LINES = 600
CORPUS_SEED = 1234
# Names the window sampler's rule, so .cache/ never serves a checkpoint
# trained under an earlier one ("allstarts": every start, the last included).
SAMPLER = "allstarts"

_CACHE = Path(__file__).resolve().parent.parent / ".cache"


def trained_checkpoint_path() -> Path:
    _CACHE.mkdir(exist_ok=True)
    key = (f"toy_l8_d64_s{TRAIN_STEPS}_lr{TRAIN_LR}_seed{TRAIN_SEED}_c{CORPUS_LINES}_{CORPUS_SEED}"
           f"_{SAMPLER}")
    path = _CACHE / f"{key}.ckpt"
    if not path.exists():
        corpus = build_corpus(CORPUS_LINES, seed=CORPUS_SEED)
        model = init_model(ModelConfig(seed=TRAIN_SEED))
        result = train(model, corpus, steps=TRAIN_STEPS, lr=TRAIN_LR, seed=TRAIN_SEED)
        save_model(path, result.model)
    return path


@pytest.fixture(scope="session")
def tokenizer():
    return Tokenizer()


@pytest.fixture(scope="session")
def trained_model():
    return load_model(trained_checkpoint_path())


@pytest.fixture(scope="session")
def trained_ckpt():
    return trained_checkpoint_path()


@pytest.fixture(scope="session")
def eval_prompts():
    return heldout_prompts(50, seed=9876, prompt_len=16)


@pytest.fixture(scope="session")
def tiny_model():
    """Small untrained model for structural and protocol-shape tests."""
    return init_model(ModelConfig(seed=7))
