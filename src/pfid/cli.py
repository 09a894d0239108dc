"""Operator entry point.

Five commands, each deterministic given its manifest's seeds, each writing
a run manifest (`manifest.json`) next to its outputs:

- `train` trains the toy model and writes a checkpoint;
- `generate` runs one session on one prompt and scores every scenario;
- `serve` splits a full-model checkpoint and serves its middle shard over TCP;
- `sweep` scores held-out prompts over a grid of settings;
- `analyze` writes per-layer spectra.

Settings: `--config FILE` loads a `PfidConfig` from JSON, and a flag per
setting overrides one key. Each command takes only the settings it reads:
`generate` all eight (`--config`, `--layer-range`, `--omega`, `--phead`,
`--ptail`, `--greedy`, `--max-new-tokens`, `--seed`), but not `--ptail`
with `--connect`, where the server's `--ptail` sets the reply's rank;
`serve`, which runs only the middle, `--config`, `--layer-range` and
`--ptail`; `sweep`, whose `*-grid` flags set the split, omega, phead and
ptail, `--config`, `--greedy`, `--max-new-tokens` and `--seed`; `train`
and `analyze` none, and their manifests record `"config": null`.

`generate` runs its session through `run_local_sim`: in process, where the
middle answers each request in the caller's thread, or over a TCP
connection to `pfid serve` when `--connect HOST:PORT` is given. Both give
the same bytes. Once the session has run and been scored, it writes to
`--out-dir`:

- `traces.json`, each scenario's trace keyed by its mode: `pipeline`,
  `local` and `eavesdropper:<mode>` for both eavesdropper modes (the
  run's settings and seed are in `manifest.json` alone);
- `report.json`, `build_eval_report`'s scores of those scenarios against
  the pipeline, and the session's communication ratio;
- `capture.pfidcap`, the session's packets in wire order, each prefixed
  by its length as a little-endian u32.

It prints the score table. `sweep` scores its sessions the same way, over
the same four scenarios, and writes the mean of each setting's reports. It
checks its whole grid first: every point's settings and split, and every
prompt's length against the model's max_seq. A bad value anywhere exits 2
before the first session runs and before `--out-dir` is created. No
command creates its output directory for a run it refuses.

Exit codes: 0 success; 2 a refused setting or file, a `ValueError`
(`CheckpointError` among them) or an `OSError`; 3 a `TransportError`; 4 a
`ProtocolError`, a malformed reply or an error reply, whose code it names;
1 anything else.

A client and `pfid serve` on one host compete for its cores: run both with
one BLAS thread (OPENBLAS_NUM_THREADS=1 for OpenBLAS). On a 2-vCPU host at
OpenBLAS's default thread count, a TCP session decoded 21 instead of 41
tokens/s.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import Any

import numpy as np

from . import checkpoint as ckpt
from .corpus import build_corpus, heldout_prompts
from .metrics import build_eval_report, spectra_report
from .model import ModelConfig, init_model
from .protocol import (PfidConfig, ProtocolError, check_prompt_fits, max_request_bytes,
                       run_local_sim, serve_middle)
from .shard import ShardSpec, split
from .tokenizer import Tokenizer
from .training import train
from .transport import TcpServer, TransportError, connect_tcp, save_capture

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_PROTOCOL = 4


def _parse_layer_range(text: str) -> list[int]:
    try:
        k, n = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"a layer range is 'K,N', got {text!r}") from None
    return [k, n]


def _load_config(args) -> PfidConfig:
    """--config's PfidConfig (or the defaults) with each setting flag that
    the command takes and the user gave written over its key."""
    doc = (PfidConfig.load(args.config) if args.config is not None else PfidConfig()).to_dict()
    for key in doc:
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = _parse_layer_range(value) if key == "layer_range" else value
    return PfidConfig.from_dict(doc)


def _write_manifest(out_dir: Path, command: str, config: PfidConfig | None,
                    checkpoint_path: str | None, outputs: list[str], seed: int) -> Path:
    manifest = {
        "command": command,
        "config": config.to_dict() if config else None,
        "seed": seed,
        "checkpoint": checkpoint_path,
        "checkpoint_sha256": ckpt.file_sha256(checkpoint_path) if checkpoint_path else None,
        "outputs": outputs,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_train(args) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    out = Path(args.out)
    if args.corpus:
        corpus = Path(args.corpus).read_text()
    else:
        corpus = build_corpus(args.corpus_lines, seed=args.corpus_seed)
    model = init_model(ModelConfig(seed=args.seed))
    result = train(model, corpus, steps=args.steps, lr=args.lr, seed=args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    ckpt.save_model(out, result.model)
    loss_log = out.with_suffix(out.suffix + ".losses.json")
    loss_log.write_text(json.dumps(result.losses) + "\n")
    _write_manifest(out.parent, "train", None, str(out), [str(out), str(loss_log)], args.seed)
    print(f"checkpoint: {out}")
    print(f"loss: {result.losses[0]:.4f} -> {result.losses[-1]:.4f} over {args.steps} steps")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.connect is not None and args.ptail is not None:
        raise ValueError("--ptail does not reach a server over --connect: "
                         "set it with pfid serve --ptail")
    config = _load_config(args)
    tokenizer = Tokenizer()
    model = ckpt.load_model(args.checkpoint)
    transport = None
    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        if not (host and port.isdecimal() and 1 <= int(port) <= 65535):
            raise ValueError(f"--connect is HOST:PORT with PORT in 1-65535, got {args.connect!r}")
        # no reply is longer than the largest request this model takes
        transport = connect_tcp(host, int(port), max_frame=max_request_bytes(model.config))
    sim = run_local_sim(model, tokenizer, config, args.prompt, transport)
    report = build_eval_report(sim)
    traces = [sim.pipeline, sim.local, *sim.eavesdroppers.values()]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces_path = out_dir / "traces.json"
    traces_path.write_text(json.dumps({t.mode: t.to_dict() for t in traces}, indent=2) + "\n")
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    capture_path = out_dir / "capture.pfidcap"
    save_capture(capture_path, sim.capture)
    _write_manifest(out_dir, "generate", config, args.checkpoint,
                    [str(traces_path), str(report_path), str(capture_path)],
                    config.sampling.seed)
    print(f"[local] {sim.local.text!r}")
    for name, scores in report["scenarios"].items():
        print(f"{name:40s} bleu={scores['bleu']:6.2f} "
              f"agreement={scores['token_agreement']:.3f} kl={scores['mean_logit_kl']:.4f}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be in 0-65535, got {args.port}")
    config = _load_config(args)
    middle = split(ckpt.load_model(args.checkpoint), config.spec).middle()
    server = TcpServer(lambda t: serve_middle(middle, t, config), host=args.host, port=args.port,
                       max_frame=max_request_bytes(middle.config))
    print(f"serving middle shard on {server.host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.prompts < 1:
        raise ValueError("--prompts must be >= 1")
    config = _load_config(args)
    tokenizer = Tokenizer()
    model = ckpt.load_model(args.checkpoint)
    prompts = heldout_prompts(args.prompts, seed=args.prompt_seed, prompt_len=args.prompt_len)

    def parse_grid(text, default):
        return [float(x) for x in text.split(",")] if text is not None else [default]

    specs = ([ShardSpec(*_parse_layer_range(r)) for r in args.layer_range_grid.split(";")]
             if args.layer_range_grid is not None else [config.spec])
    # the whole grid is checked before the first session runs
    points = [replace(config, spec=s, omega=o, phead=p, ptail=t) for s, o, p, t in product(
        specs, parse_grid(args.omega_grid, config.omega),
        parse_grid(args.phead_grid, config.phead), parse_grid(args.ptail_grid, config.ptail))]
    for point in points:
        point.spec.validate(model.config.n_layers)
    for prompt in prompts:
        check_prompt_fits(tokenizer.encode(prompt), model.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for point in points:
        reports, sent, tokens = [], 0, 0
        for prompt in prompts:
            sim = run_local_sim(model, tokenizer, point, prompt)
            reports.append(build_eval_report(sim))
            sent += sim.wire_bytes
            tokens += len(sim.local.steps)
        layer_range = f"{point.spec.split_k},{point.spec.split_n}"
        row = _mean(reports)
        row.update({"bytes_per_token": sent / tokens, "layer_range": layer_range,
                    "omega": point.omega, "phead": point.phead, "ptail": point.ptail})
        rows.append(row)
        local = row["scenarios"]["local"]
        eaves = row["scenarios"]["eavesdropper:tail_only"]
        print(f"range=({layer_range}) omega={point.omega} phead={point.phead} "
              f"ptail={point.ptail} | local_agr={local['token_agreement']:.3f} "
              f"eaves_agr={eaves['token_agreement']:.3f} "
              f"bytes/tok={row['bytes_per_token']:.0f}")
    table_path = out_dir / "sweep.json"
    table_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "sweep", config, args.checkpoint, [str(table_path)],
                    config.sampling.seed)
    print(f"table: {table_path}")
    return EXIT_OK


def _mean(reports: list) -> Any:
    """Key-by-key mean of equally keyed (nested) score dicts."""
    if isinstance(reports[0], dict):
        return {key: _mean([r[key] for r in reports]) for key in reports[0]}
    return float(np.mean(reports))


def cmd_analyze(args) -> int:
    tokenizer = Tokenizer()
    model = ckpt.load_model(args.checkpoint)
    prompts = heldout_prompts(args.prompts, seed=args.prompt_seed, prompt_len=args.prompt_len)
    spectra = spectra_report(model, [tokenizer.encode(p) for p in prompts])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "analysis.json"
    report_path.write_text(json.dumps({"spectra": spectra}, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "analyze", None, args.checkpoint, [str(report_path)],
                    args.prompt_seed)
    print(f"{'layer':>5} {'nuclear':>10}")
    for row in spectra:
        print(f"{row['layer']:>5} {row['nuclear_norm']:>10.2f}")
    print(f"report: {report_path}")
    return EXIT_OK


# Every flag, declared once. Each command attaches the flags it reads and
# sets its own defaults (build_parser).
_FLAGS: dict[str, dict[str, Any]] = {
    "--checkpoint": {"required": True, "help": "full-model checkpoint"},
    "--prompt": {"required": True},
    "--prompts": {"type": int, "help": "number of held-out prompts"},
    "--prompt-seed": {"type": int, "default": 9876},
    "--prompt-len": {"type": int, "default": 16},
    "--out-dir": {"help": "output directory; defaults to runs/COMMAND"},
    "--corpus": {"help": "text file; defaults to the bundled synthetic corpus"},
    "--corpus-lines": {"type": int, "default": 600},
    "--corpus-seed": {"type": int, "default": 1234},
    "--steps": {"type": int, "default": 4000},
    "--lr": {"type": float, "default": 3e-3},
    "--out": {"required": True, "help": "checkpoint output path"},
    "--connect": {"help": "HOST:PORT of a serving middle shard; in process without it"},
    "--host": {"default": "127.0.0.1"},
    "--port": {"type": int, "default": 0},
    "--omega-grid": {"help": "comma-separated omegas"},
    "--phead-grid": {},
    "--ptail-grid": {},
    "--layer-range-grid": {"help": "semicolon-separated K,N pairs"},
    # --config, then the protocol settings: each setting flag's dest is its
    # key of PfidConfig.to_dict(), which _load_config writes over when given
    "--config": {"help": "JSON config file mirroring PfidConfig"},
    "--layer-range": {"help": "K,N split points"},
    "--omega": {"type": float},
    "--phead": {"type": float},
    "--ptail": {"type": float},
    "--greedy": {"action": "store_true", "default": None},
    "--max-new-tokens": {"type": int},
    "--seed": {"type": int, "help": "train: weights and batches; otherwise sampling"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfid",
        description="Split-transformer inference with truncated-SVD privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags, **defaults):
        # no abbreviations: sweep would read --omega as --omega-grid
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if "--out-dir" in flags:
            defaults.setdefault("out_dir", f"runs/{name}")
        p.set_defaults(func=func, **defaults)

    command("train", cmd_train, "train the bundled toy model",
            ["--corpus", "--corpus-lines", "--corpus-seed", "--steps", "--lr", "--seed", "--out"],
            seed=0)
    command("generate", cmd_generate, "run one session and score every scenario",
            ["--checkpoint", "--prompt", "--connect", "--out-dir", "--config", "--layer-range",
             "--omega", "--phead", "--ptail", "--greedy", "--max-new-tokens", "--seed"])
    command("serve", cmd_serve, "serve a middle shard over TCP",
            ["--checkpoint", "--host", "--port", "--config", "--layer-range", "--ptail"])
    command("sweep", cmd_sweep, "grid-sweep hyperparameters",
            ["--checkpoint", "--omega-grid", "--phead-grid", "--ptail-grid", "--layer-range-grid",
             "--prompts", "--prompt-seed", "--prompt-len", "--out-dir",
             "--config", "--greedy", "--max-new-tokens", "--seed"], prompts=20)
    command("analyze", cmd_analyze, "per-layer spectra of held-out prompts",
            ["--checkpoint", "--prompts", "--prompt-seed", "--prompt-len", "--out-dir"],
            prompts=10)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TransportError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ProtocolError as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
