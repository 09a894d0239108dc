"""The four workloads, each run as closed-loop rounds of identical operations.

A round is the unit the timed loop repeats: one TCP session (`translate_tcp`,
`chat_tcp`), one prompt at three protocol settings (`sweep_sim`) or a fixed
number of training steps (`train`). Only
the operations inside a round are timed; the light output checks run between
rounds and the heavy ones after the timed window.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import pfid.training
import pfid.transport
from pfid import checkpoint
from pfid.corpus import build_corpus, heldout_prompts
from pfid.metrics import bleu, logit_kl, token_agreement
from pfid.model import ModelConfig, SamplingParams, init_model
from pfid.protocol import PfidConfig, client_generate, decode_packet, run_local_sim, serve_middle
from pfid.shard import split
from pfid.tokenizer import Tokenizer
from pfid.transport import InMemoryTransport

HERE = Path(__file__).resolve().parent
MODEL_SEED = 7
CLK_TCK = os.sysconf("SC_CLK_TCK")


class FixedLengthTokenizer(Tokenizer):
    """The default 96-character tokenizer with an end-of-sequence id outside
    the vocabulary, so sampling never stops a session early.

    The program reads `eos_id` once per generated token, right after
    sampling it; the time of each read is recorded as that token's emission
    time, which needs no change to the program.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    @property
    def eos_id(self) -> int:
        self.stamps.append(time.perf_counter())
        return self.vocab_size


def proc_stat(pid: int) -> tuple[float, int]:
    """(CPU seconds, minor faults) of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK, int(fields[7])


def self_usage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Round:
    """What one round did and cost. Times are seconds."""

    ops: int = 0
    failed: int = 0
    tokens: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    server_cpu: float = 0.0
    faults: int = 0
    server_faults: int = 0
    steps: list[float] = field(default_factory=list)  # per-step latencies
    ttfts: list[float] = field(default_factory=list)
    bytes_up: int = 0
    bytes_down: int = 0
    baseline_bytes: int = 0
    k_head: list[int] = field(default_factory=list)
    k_tail: list[int] = field(default_factory=list)
    error_replies: int = 0
    score_times: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)  # timed intervals


class Meter:
    """Wall, CPU and minor faults of this process, plus the server's, over a
    `with` block."""

    def __init__(self, rnd: Round, server_pid: int | None = None):
        self.rnd = rnd
        self.pid = server_pid

    def __enter__(self):
        self.server0 = proc_stat(self.pid) if self.pid else (0.0, 0)
        self.self0 = self_usage()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.rnd.wall += t1 - self.t0
        self.rnd.windows.append((self.t0, t1))
        cpu, faults = self_usage()
        server_cpu, server_faults = proc_stat(self.pid) if self.pid else (0.0, 0)
        self.rnd.cpu += cpu - self.self0[0] + server_cpu - self.server0[0]
        self.rnd.server_cpu += server_cpu - self.server0[0]
        self.rnd.faults += faults - self.self0[1]
        self.rnd.server_faults += server_faults - self.server0[1]
        return False


def fixed_model(path: Path):
    """The untrained default model, through a binary32 checkpoint."""
    checkpoint.save_model(path, init_model(ModelConfig(seed=MODEL_SEED)))
    return checkpoint.load_model(path)


class ServerProcess:
    """`pfid serve` in its own process; traced through serve_traced.py."""

    def __init__(self, root: Path, ckpt: Path, spans_path: Path | None = None):
        serve = ["serve", "--checkpoint", str(ckpt), "--port", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "pfid.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path), *serve]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving middle shard on "):
            self.stop()
            raise RuntimeError(f"pfid serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Tee:
    """Keeps every frame a transport carries, in wire order, for the output
    checks. The benchmark's own (no copies) rather than pfid's
    CapturingTransport, so the instrument is not part of the code measured."""

    def __init__(self, inner):
        self.inner = inner
        self.frames: list[bytes] = []

    def send_bytes(self, data: bytes) -> None:
        self.frames.append(data)
        self.inner.send_bytes(data)

    def recv_bytes(self) -> bytes:
        data = self.inner.recv_bytes()
        self.frames.append(data)
        return data

    def close(self) -> None:
        self.inner.close()


class Workload:
    name = ""
    setup_reps = 15  # set-ups of a few ms need many repeats for a steady median

    def __init__(self, root: Path, seed: int, work_dir: Path, spans_dir: Path | None = None):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.spans_dir = spans_dir  # set: the server runs traced
        self.failures: list[str] = []  # failed checks
        self.errors: list[str] = []  # failed operations

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, i: int) -> Round:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Heavy checks on what the rounds kept, after the timed window."""

    def close(self) -> None:
        pass

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as e:  # any exception inside a check fails the check
            self.failures.append(f"{self.name}: {type(e).__name__}: {e}")


class TcpWorkload(Workload):
    """Closed-loop sessions against `pfid serve`, one at a time, each on a
    fresh connection and decoding exactly `new_tokens` tokens."""

    setup_reps = 5  # each starts a server process, about 0.3 s
    prompt_len = 0
    new_tokens = 0
    heavy_rounds = 1  # the first timed rounds' sessions get the heavy checks

    server: ServerProcess | None = None

    def setup(self) -> None:
        ckpt = self.work_dir / f"{self.name}.ckpt"
        self.model = fixed_model(ckpt)
        self.config = PfidConfig(sampling=SamplingParams(
            greedy=True, max_new_tokens=self.new_tokens))
        sharded = split(self.model, self.config.spec)
        self.client = sharded.client()
        self.middle = sharded.middle()
        spans = self.spans_dir / f"{self.name}.server.json" if self.spans_dir else None
        self.server = ServerProcess(self.root, ckpt, spans)
        self.corpus = build_corpus()
        self.rng = np.random.default_rng(self.seed)
        self.kept: list[tuple] = []  # (prompt, trace, frames) for the heavy checks

    def prompt(self) -> str:
        start = int(self.rng.integers(len(self.corpus) - self.prompt_len))
        return self.corpus[start:start + self.prompt_len]

    def session(self, prompt: str):
        """(trace, frames, connect time, token times, error) of one session."""
        tok = FixedLengthTokenizer()
        t0 = time.perf_counter()
        try:
            transport = Tee(pfid.transport.connect_tcp("127.0.0.1", self.server.port))
            try:
                trace = client_generate(self.client, tok, transport, self.config, prompt)
            finally:
                transport.close()
        except Exception as e:  # a failed operation is counted, not fatal
            return None, [], t0, tok.stamps, f"{type(e).__name__}: {e}"
        return trace, transport.frames, t0, tok.stamps, None

    def round(self, i: int) -> Round:
        rnd = Round(ops=1)
        prompt = self.prompt()
        with Meter(rnd, self.server.pid):
            trace, frames, t0, stamps, error = self.session(prompt)
        rnd.error_replies = sum(1 for f in frames[1::2] if len(f) >= 32
                                and checks.HEADER.unpack_from(f)[2] == 5)
        if error is not None:
            rnd.failed = 1
            self.errors.append(f"{self.name}: {error}")
            return rnd
        self.check(self.light_check, prompt, trace, frames, stamps)
        rnd.tokens = len(trace.steps)
        rnd.ttfts.append(stamps[0] - t0)
        rnd.steps.extend(np.diff(stamps).tolist())
        d = self.model.config.d_model
        for s in trace.steps:
            rnd.bytes_up += s.bytes_up
            rnd.bytes_down += s.bytes_down
            rnd.baseline_bytes += 2 * 4 * d * s.n_ctx
            rnd.k_head.append(s.k_head)
            rnd.k_tail.append(s.k_tail)
        if 0 <= i < self.heavy_rounds:
            self.kept.append((prompt, trace, frames))
        return rnd

    def light_check(self, prompt, trace, frames, stamps) -> None:
        checks.require(len(trace.steps) == self.expected_tokens(prompt),
                       f"session gave {len(trace.steps)} tokens, "
                       f"expected {self.expected_tokens(prompt)}")
        checks.require(len(stamps) == len(trace.steps),
                       f"{len(stamps)} eos_id reads for {len(trace.steps)} tokens")
        for raw in frames:
            decode_packet(raw)
        ids = FixedLengthTokenizer().encode(prompt)
        checks.check_session(self.model, self.config, ids, trace, frames, heavy=False)

    def expected_tokens(self, prompt: str) -> int:
        return min(self.new_tokens, self.model.config.max_seq - len(prompt))

    def final_checks(self) -> None:
        checks.require(bool(self.kept), "no session was kept for the heavy checks")
        for prompt, trace, frames in self.kept:
            ids = FixedLengthTokenizer().encode(prompt)
            self.check(checks.check_session, self.model, self.config, ids, trace, frames, True)
            self.check(self.in_memory_rerun, prompt, trace)

    def in_memory_rerun(self, prompt: str, trace) -> None:
        client_end, server_end = InMemoryTransport.pair()
        server = threading.Thread(target=serve_middle, args=(self.middle, server_end, self.config))
        server.start()
        try:
            again = client_generate(self.client, FixedLengthTokenizer(), client_end,
                                    self.config, prompt)
        finally:
            client_end.close()
            server.join(timeout=60)
        checks.require(not server.is_alive(), "in-memory server thread did not stop")
        checks.require(again.token_ids == trace.token_ids,
                       "in-memory rerun gave other tokens than TCP")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


class TranslateTcp(TcpWorkload):
    name = "translate_tcp"
    prompt_len = 64
    new_tokens = 1000  # decodes to the context limit: n runs 64 -> 127


class ChatTcp(TcpWorkload):
    name = "chat_tcp"
    prompt_len = 12
    new_tokens = 20  # n runs 12 -> 31
    heavy_rounds = 8


class SweepSim(Workload):
    """`run_local_sim` plus the sweep/report scoring, at three settings."""

    name = "sweep_sim"
    new_tokens = 32  # n runs 16 -> 47
    n_prompts = 64

    def setup(self) -> None:
        self.model = fixed_model(self.work_dir / f"{self.name}.ckpt")
        self.prompts = heldout_prompts(self.n_prompts, seed=self.seed, prompt_len=16)
        sampling = SamplingParams(greedy=True, max_new_tokens=self.new_tokens)
        self.settings = {
            "default": PfidConfig(sampling=sampling),
            "dense_svd": PfidConfig(sampling=sampling, phead=0.1, ptail=0.1),
            "bypass": PfidConfig(sampling=sampling, omega=0.0, phead=0.0, ptail=0.0),
        }
        self.kept: list = []

    def round(self, i: int) -> Round:
        rnd = Round()
        prompt = self.prompts[i % self.n_prompts]
        sims = {}
        for label, cfg in self.settings.items():
            tok = FixedLengthTokenizer()
            rnd.ops += 1
            with Meter(rnd):
                try:
                    sim = run_local_sim(self.model, tok, cfg, prompt)
                    eaves = sim.eavesdroppers["tail_only"]
                    t_score = time.perf_counter()
                    scores = (token_agreement(sim.local, sim.pipeline),
                              token_agreement(eaves, sim.pipeline),
                              bleu(sim.local.text, sim.pipeline.text, "char"),
                              bleu(eaves.text, sim.pipeline.text, "char"),
                              logit_kl(sim.local, sim.pipeline))
                    rnd.score_times.append(time.perf_counter() - t_score)
                except Exception as e:  # a failed operation is counted, not fatal
                    rnd.failed += 1
                    self.errors.append(f"{self.name}/{label}: {type(e).__name__}: {e}")
                    continue
            sims[label] = sim
            rnd.tokens += len(sim.local.steps)
            # the pipeline reads eos_id once; then one read per local token
            local = tok.stamps[1:]
            self.check(checks.require, len(local) == len(sim.local.steps),
                       f"{len(tok.stamps)} eos_id reads for {len(sim.local.steps)} tokens")
            rnd.steps.extend(np.diff(local).tolist())
            rnd.bytes_up += sum(len(f) for f in sim.capture[0::2])
            rnd.bytes_down += sum(len(f) for f in sim.capture[1::2])
            self.check(self.light_check, label, cfg, prompt, sim, scores)
        if 0 <= i < 2 and "bypass" in sims:
            self.kept.append((prompt, sims["bypass"].pipeline))
        return rnd

    def light_check(self, label, cfg, prompt, sim, scores) -> None:
        d = self.model.config.d_model
        steps = sim.local.steps
        checks.require(len(steps) == self.new_tokens == len(sim.pipeline.steps),
                       f"{label}: {len(steps)} local tokens, expected {self.new_tokens}")
        checks.require(len(sim.capture) == 2 * len(steps), f"{label}: capture length")
        raw = cfg.phead == 0.0
        n = len(prompt)
        for step, (up, down) in enumerate(zip(sim.capture[0::2], sim.capture[1::2])):
            decode_packet(up)
            decode_packet(down)
            checks.check_packet(up, checks.ROLE_HEAD_RAW if raw else checks.ROLE_HEAD_FACTORS,
                                step, d, n + step, cfg.phead)
            checks.check_packet(down, checks.ROLE_MID_RAW if raw else checks.ROLE_MID_FACTORS,
                                step, d, n + step, cfg.ptail)
        agree = np.mean(np.equal(sim.local.token_ids, sim.pipeline.token_ids))
        checks.require(abs(scores[0] - agree) < 1e-12, f"{label}: token_agreement {scores[0]}")
        if label == "bypass":
            checks.require(sim.local.token_ids == sim.pipeline.token_ids,
                           "bypass tokens differ from the pipeline's")
            for a, b in zip(steps, sim.pipeline.steps):
                checks.check_close(a.logits, b.logits, 1e-12, "bypass logits vs pipeline")
            checks.require(sim.eavesdroppers["tail_only"].token_ids == sim.local.token_ids,
                           "with omega = 0 the tail-only eavesdropper differs from the client")
            checks.require(scores[4] < 1e-12, f"bypass logit KL {scores[4]}")

    def final_checks(self) -> None:
        checks.require(bool(self.kept), "no prompt was kept for the heavy checks")
        for prompt, pipeline in self.kept:
            tokens = FixedLengthTokenizer().encode(prompt)
            for s in pipeline.steps:
                want = checks.ref_full_logits(self.model, tokens)[:, -1]
                self.check(checks.check_close, s.logits, want, checks.LOGIT_ATOL,
                           "pipeline logits vs reference forward")
                tokens.append(s.token_id)


class Train(Workload):
    """`training.train` at its default batch of 12 x 32 on the bundled corpus,
    a fixed number of steps per round, the model carried across rounds."""

    name = "train"
    steps_per_round = 10
    batch, seq = 12, 32

    def setup(self) -> None:
        self.model = init_model(ModelConfig(seed=MODEL_SEED))
        self.corpus = build_corpus()
        self.losses: list[float] = []

    def round(self, i: int) -> Round:
        rnd = Round(ops=self.steps_per_round)
        stamps: list[float] = []
        inner = pfid.training.loss_and_grads

        def stamped(*args):  # one clock read per step marks the step boundaries
            stamps.append(time.perf_counter())
            return inner(*args)

        pfid.training.loss_and_grads = stamped
        try:
            with Meter(rnd):
                result = pfid.training.train(
                    self.model, self.corpus, steps=self.steps_per_round,
                    seed=self.seed * 100_003 + i + 1, log_every=self.steps_per_round)
                end = time.perf_counter()
        except Exception as e:  # a failed operation is counted, not fatal
            rnd.failed = rnd.ops
            self.errors.append(f"{self.name}: {type(e).__name__}: {e}")
            return rnd
        finally:
            pfid.training.loss_and_grads = inner
        self.model = result.model
        self.losses.extend(result.losses)
        rnd.tokens = self.steps_per_round * self.batch * self.seq
        rnd.steps = np.diff(stamps + [end]).tolist()
        return rnd

    def final_checks(self) -> None:
        from pfid.training import loss_and_grads

        first, last = self.losses[0], self.losses[-1]
        self.check(checks.require, abs(first - np.log(96)) <= 0.1,
                   f"first loss {first:.4f} is not within 0.1 of ln 96")
        self.check(checks.require, last < first, f"last loss {last:.4f} >= first {first:.4f}")
        ids = np.asarray(FixedLengthTokenizer().encode(self.corpus))
        rng = np.random.default_rng(self.seed)
        starts = rng.integers(0, len(ids) - 17, size=2)
        windows = np.stack([ids[s:s + 17] for s in starts])
        self.check(checks.check_finite_differences, self.model, loss_and_grads,
                   windows[:, :-1], windows[:, 1:], 12, rng)


WORKLOADS = {w.name: w for w in (TranslateTcp, ChatTcp, SweepSim, Train)}
