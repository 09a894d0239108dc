import pytest

from pfid.checkpoint import save_model
from pfid.cli import EXIT_CONFIG, main
from pfid.corpus import MAX_LINE_LEN, build_corpus, heldout_prompts
from pfid.model import ModelConfig, init_model


def test_longest_line_bounds_the_corpus():
    lines = build_corpus(2000, seed=5).splitlines()
    assert max(len(line) for line in lines) == MAX_LINE_LEN == 40


def test_longest_admissible_prompt_length():
    prompts = heldout_prompts(3, prompt_len=MAX_LINE_LEN - 1)
    assert len(prompts) == 3
    assert all(len(p) == 39 for p in prompts)


@pytest.mark.parametrize("prompt_len", [0, -1, 40, 41])
def test_prompt_length_no_line_can_exceed_is_rejected(prompt_len):
    with pytest.raises(ValueError, match="prompt_len"):
        heldout_prompts(3, prompt_len=prompt_len)


def test_sweep_with_too_long_prompt_length_exits_with_config_error(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_model(ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16,
                                            vocab_size=96, max_seq=48)))
    code = main(["sweep", "--checkpoint", str(ckpt), "--prompt-len", "40",
                 "--out-dir", str(tmp_path / "sweep")])
    assert code == EXIT_CONFIG
    assert "prompt_len" in capsys.readouterr().err
