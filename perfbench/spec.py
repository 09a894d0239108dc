"""The benchmark's fixed description; `run.py --write-spec` renders it to
BENCHMARK.json at the repository root."""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("translate_tcp",
     "one TCP session at a time to pfid serve, n 64->127: decoder layers and their page faults "
     "dominate, so layer/attention/KV-cache work shows and SVD/codec work barely does"),
    ("chat_tcp",
     "short TCP sessions to pfid serve, n 12->31: layers are cheap, so SVD, packet codec, "
     "framing and connect dominate; a head KV cache should move nothing here"),
    ("sweep_sim",
     "run_local_sim plus sweep scoring at default, dense-SVD and bypass settings: the only path "
     "through the pipeline baseline, in-memory transport and eavesdropper replay"),
    ("train",
     "training.train at its default 12 x 32 batch: the only path through the batched "
     "forward/backward, so merging the two decoder-layer implementations shows here"),
]

# (name, unit, better, bound)
# Time-based bounds are the largest allowed: on the 2-vCPU VM this was
# tuned on, the host's other load moves CPU speed by up to +-15 % over tens
# of seconds (a fixed numpy loop swung between 110 and 170 ms per chunk).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("tokens_per_s", "tok/s", "higher", 0.25),
    ("cpu_ms_per_token", "ms/tok", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("step_ms_p50", "ms", "lower", 0.25),
]

_STAGES = [f"{stage}.{n}" for stage in (
    "shard.head_forward.ms_p50", "shard.middle_forward.ms_p50", "shard.tail_forward.ms_p50",
    "linalg.truncated_svd.ms_p50", "protocol.decode_packet.us_p50",
) for n in ("n16", "n64", "n127")]

# (name, unit, better)
PER_LAYER = [
    ("shard.head_forward.ms_per_token", "ms/tok", "lower"),
    ("shard.middle_forward.ms_per_token", "ms/tok", "lower"),
    ("shard.tail_forward.ms_per_token", "ms/tok", "lower"),
    *[(name, name.rsplit(".", 2)[1].split("_")[0], "lower") for name in _STAGES],
    ("linalg.truncated_svd.ms_per_token", "ms/tok", "lower"),
    ("linalg.reconstruct.us_per_token", "us/tok", "lower"),
    ("linalg.truncated_svd.dense_calls_per_token", "calls/tok", "lower"),
    ("protocol.encode_packet.us_per_token", "us/tok", "lower"),
    ("protocol.decode_packet.us_per_token", "us/tok", "lower"),
    ("protocol.reprivatize.us_per_token", "us/tok", "lower"),
    ("protocol.server_busy_ms_p50", "ms", "lower"),
    ("protocol.server_wait_ms_p50", "ms", "lower"),
    ("protocol.error_replies", "count", "lower"),
    ("transport.connect_ms_p50", "ms", "lower"),
    ("transport.round_trip_overhead_ms_per_token", "ms/tok", "lower"),
    ("protocol.bytes_up_per_token", "B/tok", "lower"),
    ("protocol.bytes_down_per_token", "B/tok", "lower"),
    ("protocol.baseline_bytes_per_token", "B/tok", "lower"),
    ("protocol.k_head_mean", "rank", "lower"),
    ("protocol.k_tail_mean", "rank", "lower"),
    ("session.ttft_ms_p50", "ms", "lower"),
    ("session.tpot_ms_p99", "ms", "lower"),
    ("server.cpu_ms_per_token", "ms/tok", "lower"),
    ("server.peak_rss_mb", "MiB", "lower"),
    ("model.forward_layers.ms_per_token", "ms/tok", "lower"),
    ("model.logits.us_per_token", "us/tok", "lower"),
    ("model.sample_next.us_per_token", "us/tok", "lower"),
    ("adversary.eavesdrop_generate.ms_per_token", "ms/tok", "lower"),
    ("metrics.score_ms_per_session", "ms", "lower"),
    ("training.loss_and_grads.ms_per_step", "ms/step", "lower"),
    ("training.update_ms_per_step", "ms/step", "lower"),
    ("training.minor_faults_per_step", "faults/step", "lower"),
    ("checkpoint.save_model.ms", "ms", "lower"),
    ("checkpoint.load_model.ms", "ms", "lower"),
    ("process.minor_faults_per_token", "faults/tok", "lower"),
    ("server.minor_faults_per_token", "faults/tok", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def document() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
