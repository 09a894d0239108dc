"""Compare pfid's outputs bit for bit between this checkout and another.

    python3 tools/bitwise_check.py OTHER_SRC

runs one fixed set of sessions, training steps and gradients twice, each in
a fresh interpreter with one BLAS thread: once on this checkout's `src/` and
once on OTHER_SRC, the `src/` directory of another checkout (for example the
parent commit's). It prints the SHA-256 of every output on both sides and
exits with status 1 when any of them differ. There is no tolerance.

The outputs are, for 4 prompt lengths x 4 settings (sampled, greedy,
dense-SVD and bypass), on the untrained `ModelConfig(seed=7)`:
the captured wire bytes; the hidden states decoded from them, which do not
depend on the factors' column signs; every step's token and logits for the
local client, the pipeline baseline and both eavesdroppers. Then
`loss_and_grads` on a 12 x 32, a 3 x 7 and a 1 x 1 batch of corpus windows
drawn here, so that a change to training's own sampler leaves them alone,
and the losses and final weights of 5 `train` steps. Last, the files the
CLI writes, through `pfid.cli.main` on a temporary binary32 checkpoint of
the same model: `report.json`, `traces.json` and `capture.pfidcap` from one
`generate`, `sweep.json` from a 2 x 2 `sweep` grid, and `analysis.json`
from one `analyze` of 2 prompts. A second, sampled `generate` reads its
settings from a `--config` file, two of which `--phead` and `--seed`
override; its `traces.json` and its manifest's config are hashed. Then the
refusals: the exit code and stderr, with the temporary directory's path
masked, of 11 CLI runs that are refused, and the server's error reply
(`_handle_request`'s bytes) to 11 defective requests, at least one of each
defect a reply code names. That makes 129 outputs. One refused run gives
`--ptail` with `--connect` to port 1 of 127.0.0.1, where no server is
expected to listen.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _trace_digest(trace) -> str:
    return _digest([s.token_id for s in trace.steps], *[s.logits for s in trace.steps])


def dump() -> dict[str, str]:
    from pfid.checkpoint import save_model
    from pfid.cli import main as cli_main
    from pfid.corpus import build_corpus
    from pfid.model import ModelConfig, SamplingParams, init_model
    from pfid.protocol import (ROLE_HEAD_RAW, ROLE_MID_RAW, PfidConfig, _handle_request,
                               decode_packet, encode_raw_packet, run_local_sim)
    from pfid.shard import split
    from pfid.tokenizer import Tokenizer
    from pfid.training import loss_and_grads, train

    model = init_model(ModelConfig(seed=7))
    tok = Tokenizer()
    corpus = build_corpus()
    settings = {
        "sampled": PfidConfig(sampling=SamplingParams(max_new_tokens=28, seed=3)),
        "greedy": PfidConfig(sampling=SamplingParams(max_new_tokens=28, greedy=True)),
        "dense_svd": PfidConfig(phead=0.1, ptail=0.1,
                                sampling=SamplingParams(max_new_tokens=28, greedy=True)),
        "bypass": PfidConfig(omega=0.0, phead=0.0, ptail=0.0,
                             sampling=SamplingParams(max_new_tokens=28, seed=3)),
    }
    out = {}
    # The longest prompt first, so the shorter ones attend through slices of
    # an already grown causal mask.
    for n in (100, 8, 64, 24):
        prompt = corpus[1000 + n:1000 + 2 * n]
        for name, config in settings.items():
            sim = run_local_sim(model, tok, config, prompt)
            key = f"n{n}.{name}"
            out[f"{key}.capture"] = hashlib.sha256(b"".join(sim.capture)).hexdigest()
            out[f"{key}.wire_states"] = _digest(*[decode_packet(f).hidden() for f in sim.capture])
            out[f"{key}.local"] = _trace_digest(sim.local)
            out[f"{key}.pipeline"] = _trace_digest(sim.pipeline)
            for mode, trace in sorted(sim.eavesdroppers.items()):
                out[f"{key}.eavesdrop.{mode}"] = _trace_digest(trace)

    ids = np.asarray(tok.encode(corpus), dtype=np.int64)
    # Short batches reach other BLAS kernels than the 12 x 32 one.
    for key, batch, seq in (("", 12, 32), (".3x7", 3, 7), (".1x1", 1, 1)):
        starts = np.random.default_rng(11).integers(0, len(ids) - seq - 1, size=batch)
        windows = np.stack([ids[s:s + seq + 1] for s in starts])
        inputs, targets = windows[:, :-1], windows[:, 1:]
        loss, grads = loss_and_grads(model, inputs, targets)
        out[f"loss_and_grads{key}"] = _digest(loss, *[grads[k] for k in sorted(grads)])
    result = train(model, corpus, steps=5, seed=5, log_every=1)
    params = result.model.param_tensors()
    out["train5"] = _digest(result.losses, *[params[k] for k in sorted(params)])

    # stdout carries this dump's JSON, so the commands' printing is dropped
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        save_model(tmp / "model.ckpt", model)
        common = ["--checkpoint", str(tmp / "model.ckpt"), "--max-new-tokens", "12"]
        (tmp / "sampled.json").write_text(json.dumps(
            {"omega": 0.5, "phead": 0.3, "top_k": 7, "temperature": 1.3, "seed": 11}))
        for argv in (["generate", "--prompt", corpus[1000:1024], "--phead", "0.7",
                      "--seed", "5", "--out-dir", str(tmp / "generate")],
                     ["generate", "--prompt", corpus[1024:1040], "--config",
                      str(tmp / "sampled.json"), "--phead", "0.6", "--seed", "4",
                      "--out-dir", str(tmp / "configured")],
                     ["sweep", "--prompts", "2", "--omega-grid", "1,0.5",
                      "--phead-grid", "0.5,0", "--out-dir", str(tmp / "sweep")]):
            if cli_main(argv + common) != 0:
                raise SystemExit(f"pfid {argv[0]} failed")
        if cli_main(["analyze", "--checkpoint", str(tmp / "model.ckpt"), "--prompts", "2",
                     "--out-dir", str(tmp / "analyze")]) != 0:
            raise SystemExit("pfid analyze failed")
        for path in ("generate/report.json", "generate/traces.json",
                     "generate/capture.pfidcap", "configured/traces.json", "sweep/sweep.json",
                     "analyze/analysis.json"):
            out[path] = hashlib.sha256((tmp / path).read_bytes()).hexdigest()
        config = json.loads((tmp / "configured/manifest.json").read_text())["config"]
        out["configured/manifest.config"] = hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest()

        (tmp / "greedy.json").write_text('{"greedy": "false"}')

        def generate(*flags, checkpoint="model.ckpt", prompt="hello"):
            return ["generate", "--checkpoint", str(tmp / checkpoint), "--prompt", prompt,
                    "--out-dir", str(tmp / "refused"), *flags]

        refused = {
            "layer_range_without_comma": generate("--layer-range", "3"),
            "sweep_zero_prompts": ["sweep", "--checkpoint", str(tmp / "model.ckpt"),
                                   "--prompts", "0", "--out-dir", str(tmp / "refused")],
            "missing_config": generate("--config", str(tmp / "missing.json")),
            "train_zero_steps": ["train", "--steps", "0", "--out", str(tmp / "refused/m.ckpt")],
            "serve_port_70000": ["serve", "--checkpoint", str(tmp / "model.ckpt"),
                                 "--port", "70000"],
            "prompt_fills_max_seq": generate(prompt="x" * 128),
            "missing_checkpoint": generate(checkpoint="missing.ckpt"),
            "connect_without_port": generate("--connect", "x"),
            "ptail_over_connect": generate("--connect", "127.0.0.1:1", "--ptail", "0.1"),
            "greedy_as_a_string": generate("--config", str(tmp / "greedy.json")),
            "train_lr_nan": ["train", "--steps", "2", "--corpus-lines", "20", "--lr", "nan",
                             "--out", str(tmp / "refused/m.ckpt")],
        }
        for name, argv in refused.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main(argv)
            text = f"{code}\n{err.getvalue()}".replace(str(tmp), "TMP")
            out[f"refused.{name}"] = hashlib.sha256(text.encode()).hexdigest()

    config = PfidConfig()
    middle = split(model, config.spec).middle()
    h = np.random.default_rng(13).standard_normal((model.config.d_model, 5))
    raw = encode_raw_packet(h, ROLE_HEAD_RAW, 3)
    defects = {
        "bad_magic": b"NOTAPKT!" + raw[8:],
        "bad_version": raw[:8] + (9).to_bytes(4, "little") + raw[12:],
        "short_header": raw[:10],
        "wrong_length": raw[:-8],
        "unknown_role": raw[:12] + (9).to_bytes(4, "little") + raw[16:],
        "zero_positions": raw[:20] + (0).to_bytes(4, "little") + raw[24:32],
        "raw_with_rank": raw[:24] + (1).to_bytes(4, "little") + raw[28:],
        "mid_role": encode_raw_packet(h, ROLE_MID_RAW, 3),
        "wrong_width": encode_raw_packet(h[1:], ROLE_HEAD_RAW, 3),
        "oversize": encode_raw_packet(np.ones((h.shape[0], model.config.max_seq + 1)),
                                      ROLE_HEAD_RAW, 3),
        "middle_raises": encode_raw_packet(np.full(h.shape, 1e38), ROLE_HEAD_RAW, 3),
    }
    for name, request in defects.items():
        reply = _handle_request(middle, config, request)
        out[f"reply.{name}"] = hashlib.sha256(reply).hexdigest()
    return out


def _run(src: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--dump"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> int:
    if sys.argv[1:] == ["--dump"]:
        print(json.dumps(dump()))
        return 0
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    here = _run(str(Path(__file__).resolve().parents[1] / "src"))
    other = _run(str(Path(sys.argv[1]).resolve()))
    differ = sorted(k for k in here.keys() | other.keys() if here.get(k) != other.get(k))
    for key in sorted(here.keys() | other.keys()):
        mark = "DIFFERS" if key in differ else "same"
        print(f"{key:40s} {here.get(key, '-')[:16]} {other.get(key, '-')[:16]} {mark}")
    print(f"{len(differ)} of {len(here.keys() | other.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
