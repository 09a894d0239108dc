#!/usr/bin/env python3
"""Benchmark of pfid: split decoding over TCP, the in-process sweep and training.

    python3 perfbench/run.py --workload translate_tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --write-spec

With --trace 0 the named workload runs untraced and the last line of output
is a JSON object with its end-to-end metrics. With --trace 1 the traced
profile runs instead and reports the per-layer metrics: a slice of the
named workload untraced, a traced slice of every workload, and per-stage
probes at n = 16, 64 and 127. `--workload all` runs every workload untraced
and prints one table. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread in this process and in the server it starts: on two cores
# a multithreaded BLAS doubles CPU per token and halves tokens/s once the
# server and the client share the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "pfid" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no pfid sources under {SRC}; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import CLIENT_SITES, METHOD_SITES, Tracer, load_spans  # noqa: E402

OUT_DIR = ROOT / ".perfbench"

# The 2-vCPU VM this was tuned on changes speed with its host's load: all CPU
# work slows by 15-30 % together for minutes at a time, so two sets of runs
# minutes apart differed by more than any useful bound. Every time-based
# end-to-end metric is therefore reported at a nominal host speed: a fixed
# calibration kernel (the benchmark's own code, not pfid's) runs between
# rounds, and the metrics are scaled by its median time over the run against
# CAL_NOMINAL_S, its time on that VM. Over 10 s windows a training step kept
# within +-3.5 % of a fixed multiple of a small-matmul kernel like this one
# while both moved by +-11 %.
CAL_NOMINAL_S = 0.0155
CAL_EVERY_S = 0.5
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((48, 64)) * 0.1
_CAL_W = _CAL_RNG.standard_normal((64, 64)) * 0.3


def calibration_s() -> float:
    """Seconds for a fixed mix of small BLAS products, elementwise numpy and
    interpreter work, with arrays small enough to stay on the heap."""
    t0 = time.perf_counter()
    x = _CAL_X
    for _ in range(300):
        x = np.tanh(x @ _CAL_W)
        x = x / np.sqrt((x * x).mean(axis=1, keepdims=True) + 1e-9)
    total = 0
    for i in range(20000):
        total += i % 7
    return time.perf_counter() - t0


class Result:
    """One workload's run: its rounds and what it measured around them."""

    def __init__(self, workload, setup_times, rounds, peak_rss, server_rss, calibrations):
        self.workload = workload
        self.setup_times = setup_times
        self.rounds = rounds
        self.peak_rss = peak_rss
        self.server_rss = server_rss
        # host speed against nominal: below 1 when the host ran slow
        self.speed = CAL_NOMINAL_S / statistics.median(calibrations)

    def total(self, attr: str):
        return sum(getattr(r, attr) for r in self.rounds)

    def pooled(self, attr: str) -> list:
        return [x for r in self.rounds for x in getattr(r, attr)]

    @property
    def tokens(self) -> int:
        return self.total("tokens")

    @property
    def windows(self) -> list[tuple[float, float]]:
        return self.pooled("windows")

    def tokens_per_s(self) -> float:
        # median of per-round rates, so a short burst of outside load moves
        # one round and not the figure
        return statistics.median(r.tokens / r.wall for r in self.rounds if r.tokens)


def run_workload(name: str, seed: int, seconds: float, work_dir: Path,
                 spans_dir: Path | None = None, setup_reps: int | None = None) -> Result:
    """Set up several times (the workload's `setup_reps` unless given), warm
    up with one round, then repeat rounds until `seconds` of timed work;
    heavy checks follow the timed window."""
    w = workloads.WORKLOADS[name](ROOT, seed, work_dir, spans_dir)
    calibrations = [calibration_s()]
    try:
        setup_times = []
        for _ in range(setup_reps or w.setup_reps):
            w.close()
            t0 = time.perf_counter()
            w.setup()
            setup_times.append(time.perf_counter() - t0)
        w.round(-1)  # warm-up: caches and lazy initialisation, untimed
        rounds, elapsed, i, last_cal = [], 0.0, 0, time.perf_counter()
        while elapsed < seconds:
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                calibrations.append(calibration_s())
                last_cal = time.perf_counter()
            rounds.append(w.round(i))
            elapsed += rounds[-1].wall
            i += 1
        peak = workloads.peak_rss_mb()
        calibrations.append(calibration_s())
        server_rss = w.server.peak_rss_mb() if getattr(w, "server", None) else 0.0
        w.check(w.final_checks)
    finally:
        w.close()
    if not any(r.tokens for r in rounds):
        raise RuntimeError(f"{name}: no operation succeeded: {w.errors[:3]}")
    return Result(w, setup_times, rounds, peak, server_rss, calibrations)


def end_to_end(res: Result, at_nominal_speed: bool = True) -> dict:
    """The end-to-end metrics; times scaled to the nominal host speed unless
    `at_nominal_speed` is false."""
    k = res.speed if at_nominal_speed else 1.0
    return {
        "setup_s": statistics.median(res.setup_times) * k,
        "tokens_per_s": res.tokens_per_s() / k,
        "cpu_ms_per_token": res.total("cpu") / res.tokens * 1e3 * k,
        "peak_rss_mb": res.peak_rss,
        "step_ms_p50": float(np.percentile(res.pooled("steps"), 50)) * 1e3 * k,
    }


def tail_extras(res: Result) -> dict:
    """Step-time tails, printed with the end-to-end table but not bounded:
    over ten runs the p90 spread 33 % on `chat_tcp` (wake-ups between the
    processes on a loaded VM), more than any bound allows."""
    steps_ms = np.asarray(res.pooled("steps")) * 1e3
    return {"step_ms_p90": (float(np.percentile(steps_ms, 90)), "ms"),
            "steps": (int(steps_ms.size), "count")}


def tcp_extras(res: Result) -> dict:
    """The TCP-only figures, printed with the end-to-end table."""
    gaps = np.asarray(res.pooled("steps")) * 1e3
    return {
        "ttft_ms_p50": (float(np.percentile(np.asarray(res.pooled("ttfts")) * 1e3, 50)), "ms"),
        # a p99 with fewer than ten gaps beyond it is no tail
        "tpot_ms_p99": (float(np.percentile(gaps, 99)) if gaps.size >= 1000 else None, "ms"),
        "server_cpu_ms_per_token": (res.total("server_cpu") / res.tokens * 1e3, "ms/tok"),
        "server_peak_rss_mb": (res.server_rss, "MiB"),
        "wire_bytes_per_token":
            ((res.total("bytes_up") + res.total("bytes_down")) / res.tokens, "B/tok"),
    }


# --- traced profile -------------------------------------------------------------

def _within(spans, windows):
    """(index, span) pairs whose start lies inside one of the windows."""
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    out = []
    for idx, s in spans:
        j = np.searchsorted(starts, s.start, side="right") - 1
        if j >= 0 and s.start <= windows[j][1]:
            out.append((idx, s))
    return out


def _durs(spans, name) -> list[float]:
    return [s.end - s.start for _, s in spans if s.name == name]


def _count(spans, name) -> int:
    return sum(1 for _, s in spans if s.name == name)


def _p50(xs) -> float:
    return float(np.percentile(xs, 50))


def profile(named: str, seed: int, seconds: float) -> tuple[dict, list, int, int]:
    """Per-layer metrics, failed checks, attempted and failed operations.

    Each slice runs in a fresh process, as the untraced runs do: glibc raises
    its mmap threshold after large frees, so a slice that ran after `train`
    in the same process would fault and run differently."""
    slice_s = seconds / (len(workloads.WORKLOADS) + 2)
    parts = [(named, 0), *[(name, 1) for name in workloads.WORKLOADS], ("probes", 1)]
    m, failures, attempted, failed, untraced_tps = {}, [], 0, 0, None
    for name, traced in parts:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--slice", name,
               "--trace", str(traced), "--seed", str(seed), "--seconds", str(slice_s)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"profile slice {name} exited with {out.returncode}")
        part = json.loads(out.stdout.strip().splitlines()[-1])
        failures += part["failures"]
        attempted += part["attempted"]
        failed += part["failed"]
        if not traced:
            untraced_tps = part["metrics"]["tokens_per_s"]
            continue
        for k, v in part["metrics"].items():
            if k == "tokens_per_s":
                if name == named:
                    m["trace.overhead_pct"] = (untraced_tps - v) / untraced_tps * 100.0
            else:  # only protocol.error_replies comes from two slices
                m[k] = m.get(k, 0) + v
    return m, failures, attempted, failed


def run_slice(name: str, traced: bool, seed: int, seconds: float, work_dir: Path) -> dict:
    """One slice of the traced profile, in this process."""
    if name == "probes":
        tracer = Tracer()
        tracer.install(CLIENT_SITES)
        try:
            m = stage_probes(tracer, work_dir, seed)
        finally:
            tracer.uninstall()
        return {"metrics": m, "failures": [], "attempted": 0, "failed": 0}
    tracer = Tracer()
    if traced:
        tracer.install(CLIENT_SITES, METHOD_SITES)
    try:
        res = run_workload(name, seed, seconds, work_dir, spans_dir=work_dir if traced else None,
                           setup_reps=1)
    finally:
        tracer.uninstall()
    m = {"tokens_per_s": res.tokens_per_s()}
    failures = list(res.workload.failures)
    for e in res.workload.errors:
        print(f"# FAILED OPERATION {e}", file=sys.stderr)
    if traced:
        client = _within(list(enumerate(tracer.spans)), res.windows)
        path = work_dir / f"{name}.server.json"
        server = _within(list(enumerate(load_spans(path))), res.windows) if path.exists() else []
        if isinstance(res.workload, workloads.TcpWorkload):
            failures += span_self_check(name, res.tokens, client, server)
        m.update(LAYER_METRICS[name](res, client, server))
    return {"metrics": m, "failures": failures,
            "attempted": res.total("ops"), "failed": res.total("failed")}


def translate_layers(t: Result, tc, ts) -> dict:
    tok = t.tokens
    return {
        "shard.head_forward.ms_per_token": sum(_durs(tc, "shard.head_forward")) / tok * 1e3,
        "shard.tail_forward.ms_per_token": sum(_durs(tc, "shard.tail_forward")) / tok * 1e3,
        "shard.middle_forward.ms_per_token": sum(_durs(ts, "shard.middle_forward")) / tok * 1e3,
        "protocol.bytes_up_per_token": t.total("bytes_up") / tok,
        "protocol.bytes_down_per_token": t.total("bytes_down") / tok,
        "protocol.baseline_bytes_per_token": t.total("baseline_bytes") / tok,
        "protocol.k_head_mean": float(np.mean(t.pooled("k_head"))),
        "protocol.k_tail_mean": float(np.mean(t.pooled("k_tail"))),
        "protocol.error_replies": t.total("error_replies"),
        "process.minor_faults_per_token": t.total("faults") / tok,
        "server.minor_faults_per_token": t.total("server_faults") / tok,
        "server.cpu_ms_per_token": t.total("server_cpu") / tok * 1e3,
        "server.peak_rss_mb": t.server_rss,
    }


def chat_layers(p: Result, pc, ps) -> dict:
    both = pc + ps
    tok = p.tokens
    busy = [(s.end - s.start, s.cpu) for _, s in ps if s.name == "protocol.handle_request"]
    m = {
        "linalg.truncated_svd.ms_per_token": sum(_durs(both, "linalg.truncated_svd")) / tok * 1e3,
        "linalg.reconstruct.us_per_token": sum(_durs(both, "linalg.reconstruct")) / tok * 1e6,
        "protocol.server_busy_ms_p50": _p50([b for b, _ in busy]) * 1e3,
        "protocol.server_wait_ms_p50": _p50([b - c for b, c in busy]) * 1e3,
        "protocol.error_replies": p.total("error_replies"),
        "transport.connect_ms_p50": _p50(_durs(pc, "transport.connect_tcp")) * 1e3,
        "transport.round_trip_overhead_ms_per_token":
            (round_trips(pc) - sum(b for b, _ in busy)) / tok * 1e3,
        "session.ttft_ms_p50": _p50(p.pooled("ttfts")) * 1e3,
        "session.tpot_ms_p99": float(np.percentile(p.pooled("steps"), 99)) * 1e3,
    }
    for name in ("encode_packet", "decode_packet", "reprivatize"):
        m[f"protocol.{name}.us_per_token"] = sum(_durs(both, f"protocol.{name}")) / tok * 1e6
    return m


def sweep_layers(sw: Result, sc, _server) -> dict:
    tok = sw.tokens
    svd = {i for i, s in sc if s.name == "linalg.truncated_svd"}
    sketched = {s.parent for _, s in sc if s.name == "linalg.qr" and s.parent in svd}
    return {
        "linalg.truncated_svd.dense_calls_per_token": (len(svd) - len(sketched)) / tok,
        "model.forward_layers.ms_per_token": sum(_durs(sc, "model.forward_layers")) / tok * 1e3,
        "model.logits.us_per_token": sum(_durs(sc, "model.logits")) / tok * 1e6,
        "model.sample_next.us_per_token": sum(_durs(sc, "model.sample_next")) / tok * 1e6,
        "adversary.eavesdrop_generate.ms_per_token":
            sum(_durs(sc, "adversary.eavesdrop_generate")) / tok * 1e3,
        "metrics.score_ms_per_session": float(np.mean(sw.pooled("score_times"))) * 1e3,
    }


def train_layers(tr: Result, trc, _server) -> dict:
    steps = tr.total("ops") - tr.total("failed")
    grads = sum(_durs(trc, "training.loss_and_grads"))
    return {
        "training.loss_and_grads.ms_per_step": grads / steps * 1e3,
        "training.update_ms_per_step": (sum(_durs(trc, "training.train")) - grads) / steps * 1e3,
        "training.minor_faults_per_step": tr.total("faults") / steps,
    }


LAYER_METRICS = {"translate_tcp": translate_layers, "chat_tcp": chat_layers,
                 "sweep_sim": sweep_layers, "train": train_layers}


def span_self_check(name, tokens, client_spans, server_spans) -> list[str]:
    """At the default config over TCP each token takes one head, middle and
    tail span and two truncated_svd spans (one per side). A wrapper put at a
    name no caller reads shows up here instead of as a zero."""
    counts = {
        "shard.head_forward": _count(client_spans, "shard.head_forward"),
        "shard.tail_forward": _count(client_spans, "shard.tail_forward"),
        "shard.middle_forward": _count(server_spans, "shard.middle_forward"),
        "linalg.truncated_svd": (_count(client_spans, "linalg.truncated_svd")
                                 + _count(server_spans, "linalg.truncated_svd")) / 2,
    }
    return [f"{name}: {span} spans {count} for {tokens} tokens"
            for span, count in counts.items() if count != tokens]


def round_trips(spans) -> float:
    """Total client time from sending a request to receiving its reply."""
    total, pending = 0.0, {}
    for _, s in sorted(spans, key=lambda p: p[1].start):
        if s.name == "transport.send":
            pending[s.session] = s.start
        elif s.name == "transport.recv" and s.session in pending:
            total += s.end - pending.pop(s.session)
    return total


def stage_probes(tracer: Tracer, work_dir: Path, seed: int, reps: int = 15) -> dict:
    """Each stage called directly at n = 16, 64 and 127 through the names the
    protocol module calls them by (so they are traced), plus checkpoint
    save and load; medians of the span durations."""
    import pfid.protocol as protocol
    from pfid.shard import split

    for _ in range(5):
        model = workloads.fixed_model(work_dir / "probe.ckpt")
    config = protocol.PfidConfig()
    sharded = split(model, config.spec)
    client, middle = sharded.client(), sharded.middle()
    ids = np.random.default_rng(seed).integers(1, model.config.vocab_size, 127).tolist()
    d = model.config.d_model
    every = list(enumerate(tracer.spans))
    m = {f"checkpoint.{name}.ms": _p50(_durs(every, f"checkpoint.{name}")) * 1e3
         for name in ("save_model", "load_model")}
    for n in (16, 64, 127):
        lo = len(tracer.spans)
        for _ in range(reps):
            h = protocol.head_forward(client, ids[:n])
            f = protocol.truncated_svd(h, checks.kept_rank(config.phead, d, n), seed=0)
            protocol.decode_packet(protocol.encode_packet(f, protocol.ROLE_HEAD_FACTORS, 0))
            protocol.tail_forward(client, protocol.middle_forward(middle, h))
        spans = list(enumerate(tracer.spans))[lo:]
        for stage in ("shard.head_forward", "shard.middle_forward", "shard.tail_forward",
                      "linalg.truncated_svd"):
            m[f"{stage}.ms_p50.n{n}"] = _p50(_durs(spans, stage)) * 1e3
        m[f"protocol.decode_packet.us_p50.n{n}"] = _p50(_durs(spans, "protocol.decode_packet")) * 1e6
    return m


# --- output ---------------------------------------------------------------------

def fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def env_line() -> str:
    import numpy
    return (f"# numpy {numpy.__version__}, OPENBLAS_NUM_THREADS="
            f"{os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    ap.add_argument("--slice", choices=[*workloads.WORKLOADS, "probes"],
                    help=argparse.SUPPRESS)  # one part of the traced profile
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.document(), indent=2) + "\n")
        return 0
    if args.slice is None:
        if args.workload is None:
            ap.error("--workload is required")
        print(env_line())
    if args.workload == "all":
        return run_all(args)
    if args.trace and args.slice is None:
        metrics, failures, attempted, failed = profile(args.workload, args.seed, args.seconds)
        return report(args.workload, metrics, {n: u for n, u, _ in spec.PER_LAYER},
                      failures, attempted, failed)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        if args.slice:
            print(json.dumps(run_slice(args.slice, bool(args.trace), args.seed, args.seconds,
                                       work_dir)))
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, work_dir)
        print(f"# {args.workload} host_speed = {res.speed:.4f} (nominal 1; the metrics "
              f"below the raw_ lines are scaled by it)")
        for k, v in end_to_end(res, at_nominal_speed=False).items():
            print(f"# {args.workload} raw_{k} = {fmt(v)}")
        extras = tail_extras(res)
        if isinstance(res.workload, workloads.TcpWorkload):
            extras.update(tcp_extras(res))
        for k, (v, u) in extras.items():
            print(f"# {args.workload} {k} = {fmt(v)} {u} (raw)")
        for e in res.workload.errors:
            print(f"# FAILED OPERATION {e}", file=sys.stderr)
        return report(args.workload, end_to_end(res), {n: u for n, u, _, _ in spec.END_TO_END},
                      res.workload.failures, res.total("ops"), res.total("failed"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(workload: str, metrics: dict, units: dict, failures: list, attempted: int,
           failed: int) -> int:
    """Print every metric with its unit, then the result as the last line."""
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and spec disagree on {sorted(missing)}")
    for k in units:
        print(f"# {workload} {k} = {fmt(metrics[k])} {units[k]}")
    for f in failures:
        print(f"# CHECK FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload untraced, each in its own process, as a single
    `--workload NAME` run would measure it."""
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if out.stdout.strip() else {}
        print(f"{name}: attempted {result.get('attempted')}, failed {result.get('failed')}, "
              f"correct {result.get('correct')}, exit {out.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("# numpy")))
        ok = ok and out.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
