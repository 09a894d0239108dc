"""Operator entry point.

Subcommands: train the toy model, generate under any scenario (pipeline,
local over sim or socket, eavesdropper, remnant), serve a middle shard,
sweep hyperparameters, report one prompt, and emit spectrum/communication
analyses. Every command is deterministic given the manifest seeds and
writes a run manifest next to its outputs.

`generate`, `sweep` and `report` run a session through `run_local_sim`:
in process, where the middle answers each request in the caller's thread,
or, for `generate --transport socket`, over a TCP connection to
`pfid serve`. `sweep` and `report` score it with `build_eval_report`:
each scenario against the pipeline, and the output gap, the local
client's score minus an eavesdropper's.

Exit codes: 0 success, 2 config error, 3 transport error, 4 protocol error,
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
from pathlib import Path
from typing import Any

import numpy as np

from . import checkpoint as ckpt
from .adversary import AdversaryMode, remnant_generate, save_capture
from .corpus import build_corpus, heldout_prompts
from .linalg import ratio_to_rank
from .metrics import build_eval_report, spectra_report
from .model import ModelConfig, init_model, pipeline_generate
from .protocol import (PfidConfig, ProtocolError, max_request_bytes, packet_bytes_for,
                       run_local_sim, serve_middle)
from .shard import ShardSpec, split
from .tokenizer import ascii96
from .training import train
from .transport import TcpServer, TransportError, connect_tcp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_PROTOCOL = 4

_TAIL_ONLY = AdversaryMode.TAIL_ONLY.value


class ConfigError(Exception):
    pass


def _parse_layer_range(text: str) -> ShardSpec:
    try:
        k, n = (int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--layer-range expects 'K,N', got {text!r}") from None
    return ShardSpec(k, n)


def _load_config(args) -> PfidConfig:
    try:
        cfg = PfidConfig.load(args.config) if getattr(args, "config", None) else PfidConfig()
        overrides = {}
        if getattr(args, "layer_range", None):
            spec = _parse_layer_range(args.layer_range)
            overrides["layer_range"] = [spec.split_k, spec.split_n]
        for key in ("omega", "phead", "ptail", "max_new_tokens"):
            val = getattr(args, key, None)
            if val is not None:
                overrides[key] = val
        if getattr(args, "greedy", False):
            overrides["greedy"] = True
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        doc = cfg.to_dict()
        doc.update(overrides)
        return PfidConfig.from_dict(doc)
    except (ValueError, OSError) as e:
        raise ConfigError(str(e)) from e


def _write_manifest(out_dir: Path, command: str, config: PfidConfig | None,
                    checkpoint_path: str | None, scenarios: list[str],
                    outputs: list[str], seed: int) -> Path:
    manifest = {
        "command": command,
        "config": config.to_dict() if config else None,
        "seed": seed,
        "checkpoint": checkpoint_path,
        "checkpoint_sha256": ckpt.file_sha256(checkpoint_path) if checkpoint_path else None,
        "scenarios": scenarios,
        "outputs": outputs,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_train(args) -> int:
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.corpus:
        corpus = Path(args.corpus).read_text()
    else:
        corpus = build_corpus(args.corpus_lines, seed=args.corpus_seed)
    model = init_model(ModelConfig(seed=args.seed))
    result = train(model, corpus, steps=args.steps, lr=args.lr, seed=args.seed)
    ckpt.save_model(out, result.model)
    loss_log = out.with_suffix(out.suffix + ".losses.json")
    loss_log.write_text(json.dumps(result.losses) + "\n")
    _write_manifest(out.parent, "train", None, str(out), [], [str(out), str(loss_log)],
                    args.seed)
    print(f"checkpoint: {out}")
    print(f"loss: {result.losses[0]:.4f} -> {result.losses[-1]:.4f} over {args.steps} steps")
    return EXIT_OK


def cmd_generate(args) -> int:
    config = _load_config(args)
    tokenizer = ascii96()
    model = ckpt.load_model(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mode == "pipeline":
        ids = tokenizer.encode(args.prompt)
        picked = pipeline_generate(model, ids, config.sampling, eos_id=tokenizer.eos_id)
        picked.prompt = args.prompt
        picked.set_text(tokenizer)
    else:
        transport = None
        if args.transport == "socket":
            if args.connect is None:
                raise ConfigError("--connect HOST:PORT is required with --transport socket")
            host, _, port = args.connect.partition(":")
            transport = connect_tcp(host, int(port))
        sim = run_local_sim(model, tokenizer, config, args.prompt, transport)
        if args.mode == "local":
            picked = sim.local
        elif args.mode == "eavesdropper":
            picked = sim.eavesdroppers[_TAIL_ONLY]
        else:
            picked = remnant_generate(split(model, config.spec), sim.local, sim.capture,
                                      tokenizer)
        if args.save_capture:
            save_capture(out_dir / "capture.pfidcap", sim.capture)

    trace_path = out_dir / f"trace_{args.mode}.json"
    trace_path.write_text(json.dumps(picked.to_dict(), indent=2) + "\n")
    _write_manifest(out_dir, "generate", config, args.checkpoint, [args.mode],
                    [str(trace_path)], config.sampling.seed)
    print(f"[{args.mode}] {picked.text!r}")
    print(f"trace: {trace_path}")
    return EXIT_OK


def cmd_serve(args) -> int:
    config = _load_config(args)
    role = ckpt.checkpoint_role(args.checkpoint)
    if role == ckpt.ROLE_MIDDLE:
        middle = ckpt.load_middle(args.checkpoint)
    elif role == ckpt.ROLE_FULL:
        middle = split(ckpt.load_model(args.checkpoint), config.spec).middle()
    else:
        raise ConfigError("serve needs a middle export or a full checkpoint")
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
        raise ConfigError("--prompts must be >= 1")
    config = _load_config(args)
    tokenizer = ascii96()
    model = ckpt.load_model(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prompts = heldout_prompts(args.prompts, seed=args.prompt_seed, prompt_len=args.prompt_len)

    def parse_grid(text, cast=float):
        return [cast(x) for x in text.split(",")] if text else None

    omegas = parse_grid(args.omega_grid) or [config.omega]
    pheads = parse_grid(args.phead_grid) or [config.phead]
    ptails = parse_grid(args.ptail_grid) or [config.ptail]
    ranges = (
        [_parse_layer_range(r) for r in args.layer_range_grid.split(";")]
        if args.layer_range_grid else [config.spec]
    )

    rows = []
    base = config.to_dict()
    for spec in ranges:
        for omega in omegas:
            for phead in pheads:
                for ptail in ptails:
                    doc = dict(base)
                    doc.update({
                        "layer_range": [spec.split_k, spec.split_n],
                        "omega": omega, "phead": phead, "ptail": ptail,
                    })
                    cfg = PfidConfig.from_dict(doc)
                    reports, sent, tokens = [], 0, 0
                    for prompt in prompts:
                        sim = run_local_sim(model, tokenizer, cfg, prompt)
                        reports.append(build_eval_report(
                            sim.pipeline, sim.local, sim.eavesdroppers,
                            comm_ratio=sim.comm_ratio,
                        ))
                        sent += sim.wire_bytes
                        tokens += len(sim.local.steps)
                    row = _mean(reports)
                    row.update({
                        "bytes_per_token": sent / tokens if tokens else 0.0,
                        "layer_range": f"{spec.split_k},{spec.split_n}",
                        "omega": omega, "phead": phead, "ptail": ptail,
                    })
                    rows.append(row)
                    local = row["scenarios"]["local"]
                    eaves = row["scenarios"][f"eavesdropper:{_TAIL_ONLY}"]
                    print(
                        f"range=({spec.split_k},{spec.split_n}) omega={omega} "
                        f"phead={phead} ptail={ptail} | "
                        f"local_agr={local['token_agreement']:.3f} "
                        f"eaves_agr={eaves['token_agreement']:.3f} "
                        f"gap={row['output_gap'][_TAIL_ONLY]['token_agreement']:+.3f} "
                        f"bytes/tok={row['bytes_per_token']:.0f}"
                    )
    table_path = out_dir / "sweep.json"
    table_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "sweep", config, args.checkpoint,
                    ["sweep"], [str(table_path)], config.sampling.seed)
    print(f"table: {table_path}")
    return EXIT_OK


def _mean(reports: list) -> Any:
    """Key-by-key mean of equally keyed (nested) score dicts."""
    if isinstance(reports[0], dict):
        return {key: _mean([r[key] for r in reports]) for key in reports[0]}
    return float(np.mean(reports))


def cmd_analyze(args) -> int:
    config = _load_config(args)
    tokenizer = ascii96()
    model = ckpt.load_model(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prompts = heldout_prompts(args.prompts, seed=args.prompt_seed, prompt_len=args.prompt_len)

    # communication table: exact affine bytes-vs-k law at representative dims
    d = model.config.d_model
    comm_rows = []
    for n in (16, 32, 64, 128):
        for p in (0.0, 0.25, 0.5, 0.65, 0.75, 0.9):
            k = ratio_to_rank(p, d, n)
            comm_rows.append({
                "d": d, "n": n, "ratio": p, "k": k,
                "packet_bytes": packet_bytes_for(d, n, k),
                "baseline_bytes": 4 * d * n,
            })

    spectra = spectra_report(model, [tokenizer.encode(p) for p in prompts], tail_q=args.tail_q)

    report = {
        "comm_table": comm_rows,
        "spectra": spectra,
    }
    report_path = out_dir / "analysis.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "analyze", config, args.checkpoint,
                    ["analyze"], [str(report_path)], config.sampling.seed)
    print(f"\nper-layer spectrum (tail_q={args.tail_q}):")
    print(f"{'layer':>5} {'nuclear':>10} {'tail_share':>10}")
    for row in spectra:
        print(f"{row['layer']:>5} {row['nuclear_norm']:>10.2f} {row['tail_share']:>10.4f}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    config = _load_config(args)
    tokenizer = ascii96()
    model = ckpt.load_model(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = run_local_sim(model, tokenizer, config, args.prompt)
    remnant = remnant_generate(split(model, config.spec), sim.local, sim.capture, tokenizer)
    report = build_eval_report(
        sim.pipeline, sim.local, sim.eavesdroppers, remnant=remnant,
        comm_ratio=sim.comm_ratio,
    )
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, scores in report["scenarios"].items():
        print(f"{name:40s} bleu={scores['bleu']:6.2f} "
              f"agreement={scores['token_agreement']:.3f} kl={scores['mean_logit_kl']:.4f}")
    print(f"report: {report_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfid",
        description="Split-transformer inference with truncated-SVD privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the bundled toy model")
    p.add_argument("--corpus", help="text file; defaults to the bundled synthetic corpus")
    p.add_argument("--corpus-lines", type=int, default=600)
    p.add_argument("--corpus-seed", type=int, default=1234)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON config file mirroring PfidConfig")
        p.add_argument("--layer-range", help="K,N split points")
        p.add_argument("--omega", type=float, default=None)
        p.add_argument("--phead", type=float, default=None)
        p.add_argument("--ptail", type=float, default=None)
        p.add_argument("--greedy", action="store_true")
        p.add_argument("--max-new-tokens", dest="max_new_tokens", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("generate", help="decode one prompt under a scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--mode", choices=["pipeline", "local", "eavesdropper", "remnant"],
                   default="local")
    p.add_argument("--transport", choices=["sim", "socket"], default="sim")
    p.add_argument("--connect", help="HOST:PORT of a serving middle shard")
    p.add_argument("--out-dir", default="runs/generate")
    p.add_argument("--save-capture", action="store_true")
    add_config_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("serve", help="serve a middle shard over TCP")
    p.add_argument("--checkpoint", required=True, help="middle export or full checkpoint")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    add_config_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("sweep", help="grid-sweep hyperparameters")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--omega-grid", help="comma-separated omegas")
    p.add_argument("--phead-grid")
    p.add_argument("--ptail-grid")
    p.add_argument("--layer-range-grid", help="semicolon-separated K,N pairs")
    p.add_argument("--prompts", type=int, default=20)
    p.add_argument("--prompt-seed", type=int, default=9876)
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--out-dir", default="runs/sweep")
    add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="spectrum and communication reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompts", type=int, default=10)
    p.add_argument("--prompt-seed", type=int, default=9876)
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--tail-q", type=int, default=16)
    p.add_argument("--out-dir", default="runs/analyze")
    add_config_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="full scenario comparison for one prompt")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--out-dir", default="runs/report")
    add_config_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ProtocolError as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ValueError, OSError, ckpt.CheckpointError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
