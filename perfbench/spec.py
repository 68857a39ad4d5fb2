"""Workload definitions and metric catalogue of the benchmark.

Everything a run needs to know about a workload lives here: the ORAM
configuration it drives, its input sizes, and (for the serve workloads)
the calibrated offered rates and phase sizes.  The names
and units printed by ``run.py`` come from :data:`END_TO_END` and
:data:`PER_LAYER`; ``BENCHMARK.json`` must list the same names.
"""

from __future__ import annotations

#: Recorded sim inputs are keyed by ``seed % SEED_SPACE``: every ``--seed``
#: maps onto one of these, each with a recorded result digest.
SEED_SPACE = 20

#: Every workload runs the paper's headline scheme, dynamic-3.
SIM_WORKLOADS = {
    # The paper's default configuration.
    "sim-shadow": {
        "workload": "h264ref",
        "levels": 14,
        "requests": 20_000,
        "timing_protection": False,
        "integrity": False,
    },
    # Same controller with dummy requests and Merkle integrity on.
    "sim-tp-merkle": {
        "workload": "mcf",
        "levels": 14,
        "requests": 8_000,
        "timing_protection": True,
        "integrity": True,
    },
}

SERVE_WORKLOADS = {
    # One ORAM behind the wire protocol; the hot set fits the stash.  Not
    # listed in BENCHMARK.json: on a 2-vCPU VM its open-loop latency moved
    # by 2-6x between runs (idle-vCPU wake-ups), past any usable bound.
    "serve-zipf": {
        "levels": 14,
        "shards": 1,
        "alpha": 1.2,
        "write_frac": 0.1,
        "setup_starts": 4,
        "job_requests": 2000,
        "warmup_requests": 1000,
        "rate": 1000.0,
        "phases": [("high", 2500), ("tail", 2500), ("saturate", 5000)],
    },
    # Four process-housed shards with padded rounds, intent logs and
    # periodic per-shard JSON checkpoints at the shipped cadence.  Phase
    # sizes put no checkpoint round in the job (rounds 0-200), the high
    # phase (200-400) or the saturated batch (550-900), and exactly one
    # in each tail phase (400-550 and 900-1050).
    "serve-shards": {
        "levels": 12,
        "shards": 4,
        "alpha": 0.0,
        "write_frac": 0.5,
        "setup_starts": 5,
        "job_requests": 200,
        "warmup_requests": 0,
        "rate": 100.0,
        "phases": [("high", 200), ("tail", 150), ("saturate", 350),
                   ("tail", 150)],
        "checkpoint_every": 500,
    },
}

WORKLOADS = {**SIM_WORKLOADS, **SERVE_WORKLOADS}

#: Admission-queue bound of both serve workloads: deep enough that a
#: checkpoint stall queues requests instead of shedding them.
QUEUE_DEPTH = 4096
#: Per-request deadline sent with every request (milliseconds).
DEADLINE_MS = 30_000.0
#: Requests kept in flight per connection for the saturated batches
#: (half the server's default session window).
SATURATION_WINDOW = 16
#: Responses per throughput sample of a saturated batch: ``ops_per_s``
#: is the median of these samples.
RATE_CHUNK = 50

#: End-to-end metrics, printed by every untraced run of every workload.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> (unit, what it should move).
PER_LAYER = {
    "cli.import_s": ("s", "run_s on sim-*, setup_s on serve-shards"),
    "trace.build_s": ("s", "run_s on sim-shadow"),
    "trace.misses": ("count", "ops_per_s on sim-*"),
    "system.frontend_self_s": ("s", "ops_per_s on sim-*"),
    "system.launch_real_self_s": ("s", "ops_per_s on sim-tp-merkle"),
    "system.dummy_requests": ("count", "ops_per_s on sim-tp-merkle"),
    "oram.access_us.plain": ("us", "ops_per_s on sim-shadow, p50_ms on serve-shards"),
    "oram.access_us.evict": ("us", "ops_per_s on sim-shadow, p99_ms on sim-*"),
    "oram.dummy_access_us": ("us", "ops_per_s on sim-tp-merkle"),
    "oram.path_reads": ("count", "ops_per_s on sim-*, p50_ms on serve-shards"),
    "oram.path_writes": ("count", "ops_per_s on sim-*"),
    "oram.evictions": ("count", "ops_per_s on sim-*"),
    "oram.blocks_on_bus": ("count", "ops_per_s on sim-*"),
    "oram.blocks_internal": ("count", "ops_per_s on sim-*"),
    "oram.onchip_serves": ("count", "ops_per_s on sim-shadow"),
    "oram.shadow_path_serves": ("count", "ops_per_s on sim-shadow"),
    "oram.stash_peak": ("count", "peak_rss_mb on sim-*"),
    "oram.stash_merges": ("count", "ops_per_s on sim-shadow"),
    "core.fill_ratio": ("ratio", "ops_per_s on sim-shadow"),
    "core.shadow_yield": ("ratio", "ops_per_s on sim-shadow"),
    "mem.timer_s": ("s", "ops_per_s on sim-* (small)"),
    "integrity.update_path_s": ("s", "ops_per_s on sim-tp-merkle"),
    "integrity.update_path_calls": ("count", "ops_per_s on sim-tp-merkle"),
    "integrity.build_s": ("s", "setup_s on sim-tp-merkle"),
    "serve.decode_us": ("us", "p50_ms, p99_ms, ops_per_s on serve-shards"),
    "serve.encode_us": ("us", "p50_ms, p99_ms, ops_per_s on serve-shards"),
    "serve.bridge_access_us.p50": ("us", "p50_ms on serve-shards"),
    "serve.bridge_access_us.p99": ("us", "p99_ms on serve-shards"),
    "serve.queue_wait_ms.p50": ("ms", "p50_ms on serve-shards"),
    "serve.queue_wait_ms.p99": ("ms", "p99_ms on serve-shards"),
    "serve.net_ms.p50": ("ms", "p50_ms on serve-shards"),
    "serve.gen_lag_ms.p99": ("ms", "none: generator health"),
    "serve.queue_highwater": ("count", "p99_ms on serve-shards"),
    "serve.shed": ("count", "ops_per_s on serve-shards"),
    "serve.expired": ("count", "ops_per_s on serve-shards"),
    "serve.wire_bytes_out": ("bytes", "p50_ms on serve-shards"),
    "serve.wire_bytes_in": ("bytes", "p50_ms on serve-shards"),
    "shard.round_us": ("us", "p50_ms, ops_per_s on serve-shards"),
    "shard.slot_us": ("us", "p50_ms, ops_per_s on serve-shards"),
    "shard.pipe_msgs": ("count", "p50_ms on serve-shards"),
    "shard.intent_append_us": ("us", "p50_ms on serve-shards"),
    "shard.intents": ("count", "p50_ms on serve-shards"),
    "shard.intent_bytes": ("bytes", "p50_ms on serve-shards"),
    "shard.spawn_s": ("s", "setup_s on serve-shards"),
    "checkpoint.save_ms.p50": ("ms", "p99_ms on serve-shards"),
    "checkpoint.save_s": ("s", "p99_ms on serve-shards"),
    "checkpoint.saves": ("count", "p99_ms on serve-shards"),
    "checkpoint.bytes": ("bytes", "p99_ms on serve-shards"),
    "trace.overhead.run_s.untraced": ("s", "none: tracing overhead"),
    "trace.overhead.run_s.traced": ("s", "none: tracing overhead"),
    "trace.overhead.p50_ms.untraced": ("ms", "none: tracing overhead"),
    "trace.overhead.p50_ms.traced": ("ms", "none: tracing overhead"),
    "trace.overhead.frac": ("ratio", "none: tracing overhead"),
    "trace.spans": ("count", "none: tracing volume"),
}

#: Shard-layer counters that must match the request count exactly.
EXACT_SHARD_COUNTERS = ("shard.intents", "shard.pipe_msgs", "checkpoint.saves")

#: Small inputs for the benchmark's self-test (``--size tiny``).
TINY = {
    "sim-shadow": {"requests": 2_000, "levels": 10},
    "sim-tp-merkle": {"requests": 1_500, "levels": 10},
    "serve-zipf": {"levels": 10, "setup_starts": 1, "warmup_requests": 100},
    "serve-shards": {"levels": 10, "setup_starts": 1, "checkpoint_every": 50},
}


def workload(name: str, size: str = "full") -> dict:
    """The workload's settings; ``size="tiny"`` shrinks its inputs."""
    out = dict(WORKLOADS[name])
    if size == "tiny":
        out.update(TINY[name])
    return out
