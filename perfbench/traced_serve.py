"""``repro serve`` with spans around the public calls into each layer.

Usage (from ``run.py``; ``PERFBENCH_TRACE_DIR`` names the output dir)::

    python3 perfbench/traced_serve.py serve --scheme dynamic-3 ...

The wrappers are installed from this file before the CLI runs; nothing in
``src/`` is edited.  At exit the server process writes its spans to
``server.spans.jsonl`` and its per-layer numbers to ``server.json``.

Spawned shard workers re-import this file as ``__mp_main__`` (the
``spawn`` start method runs the parent's main module first), which is
where the worker-side wrappers go in: each worker writes
``worker-<pid>.json`` with its ORAM timings and counters when it stops.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, mean, percentile

TRACER = Tracer()
OUT_DIR = Path(os.environ.get("PERFBENCH_TRACE_DIR", "."))


def _instrument_oram(tracer: Tracer, bridges: list) -> None:
    """Spans around controller accesses; remember every bridge built."""
    from repro.oram.tiny import TinyOramController
    from repro.serve.scheduler_bridge import OramServeBridge

    tracer.wrap_method(
        TinyOramController, "access", "oram.access",
        rename=lambda r: "oram.access.evict" if r.evicted else "oram.access.plain",
    )
    tracer.wrap_method(TinyOramController, "dummy_access", "oram.dummy_access")
    init = OramServeBridge.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bridges.append(self)

    OramServeBridge.__init__ = remember


def oram_layers(tracer: Tracer, bridges: list) -> dict:
    """ORAM per-layer numbers over every bridge this process built."""
    stats = [b.controller.stats for b in bridges]
    shadow = [b.controller.shadow_stats for b in bridges]
    filled = sum(s.dummy_slots_filled for s in shadow)
    seen = sum(s.dummy_slots_seen for s in shadow)
    written = sum(s.rd_shadows + s.hd_shadows for s in shadow)
    served = sum(s.shadow_path_serves + s.shadow_stash_hits for s in stats)
    return {
        "oram.access_s.plain": tracer.total("oram.access.plain"),
        "oram.access_n.plain": len(tracer.durations("oram.access.plain")),
        "oram.access_s.evict": tracer.total("oram.access.evict"),
        "oram.access_n.evict": len(tracer.durations("oram.access.evict")),
        "oram.path_reads": sum(s.path_reads for s in stats),
        "oram.path_writes": sum(s.path_writes for s in stats),
        "oram.evictions": sum(s.evictions for s in stats),
        "oram.blocks_on_bus": sum(s.blocks_on_bus for s in stats),
        "oram.blocks_internal": sum(s.blocks_internal for s in stats),
        "oram.onchip_serves": sum(s.onchip_serves for s in stats),
        "oram.shadow_path_serves": sum(s.shadow_path_serves for s in stats),
        "oram.stash_peak": max(
            (b.controller.stash.peak_real for b in bridges), default=0
        ),
        "oram.stash_merges": sum(b.controller.stash.merges for b in bridges),
        "core.dummy_slots_filled": filled,
        "core.dummy_slots_seen": seen,
        "core.shadows_written": written,
        "core.shadow_serves": served,
    }


# ----------------------------------------------------------------------
# Shard worker side (runs in each spawned worker process)
# ----------------------------------------------------------------------
def _instrument_worker() -> None:
    import repro.shard.worker as worker

    bridges: list = []
    _instrument_oram(TRACER, bridges)
    inner = worker.shard_worker_main

    def traced_main(conn, shard, *args):
        try:
            inner(conn, shard, *args)
        finally:
            out = oram_layers(TRACER, bridges)
            out["shard"] = shard
            path = OUT_DIR / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(out), encoding="utf-8")

    worker.shard_worker_main = traced_main


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class _ServerProbe:
    """Per-request bookkeeping joining the bridge span to its response."""

    def __init__(self) -> None:
        self.last_bridge: list | None = None
        self.queue_wait_ms: list[float] = []
        self.intent_bytes = 0
        self.checkpoint_bytes = 0


def _instrument_server(tracer: Tracer, bridges: list) -> _ServerProbe:
    import repro.serve.protocol as protocol
    import repro.serve.session as session_mod
    from repro.shard.intent_log import IntentLog
    from repro.shard.supervisor import ShardSupervisor
    from repro.shard.worker import ProcessShard
    from repro.serve.scheduler_bridge import OramServeBridge
    from repro.system.checkpoint import Checkpointer

    probe = _ServerProbe()
    _instrument_oram(tracer, bridges)
    decode, encode = protocol.decode, session_mod.encode

    def traced_decode(line):
        span = tracer.open("serve.decode")
        try:
            message = decode(line)
        finally:
            tracer.close(span)
        span[5] = message.get("id")
        return message

    def traced_encode(message):
        span = tracer.open("serve.encode")
        span[5] = message.get("id")
        try:
            return encode(message)
        finally:
            tracer.close(span)

    protocol.decode = traced_decode
    session_mod.encode = traced_encode

    def bridge_access(name, fn):
        def traced(self, addr, op, payload=None):
            span = tracer.open(name)
            try:
                return fn(self, addr, op, payload)
            finally:
                tracer.close(span)
                probe.last_bridge = span

        return traced

    OramServeBridge.access = bridge_access(
        "serve.bridge_access", OramServeBridge.access
    )
    ShardSupervisor.access = bridge_access("shard.round", ShardSupervisor.access)
    tracer.wrap_method(ProcessShard, "access", "shard.slot")
    tracer.wrap_method(ProcessShard, "snapshot", "shard.snapshot")
    tracer.wrap_method(ProcessShard, "__init__", "shard.spawn")

    append = IntentLog.append

    def traced_append(self, intent):
        span = tracer.open("shard.intent_append")
        try:
            append(self, intent)
        finally:
            tracer.close(span)
        probe.intent_bytes += len(intent.to_line()) + 1

    IntentLog.append = traced_append
    save = Checkpointer.save

    def traced_save(self, access_index, state):
        span = tracer.open("checkpoint.save")
        try:
            path = save(self, access_index, state)
        finally:
            tracer.close(span)
        probe.checkpoint_bytes += os.path.getsize(path)
        return path

    Checkpointer.save = traced_save
    send = session_mod.Session.send

    def traced_send(self, message, release_window=False):
        # The dispatcher sends an ok response right after its bridge
        # access returns, with no await in between: join the two.
        if message.get("status") == protocol.STATUS_OK and probe.last_bridge:
            bridge = probe.last_bridge
            probe.last_bridge = None
            end = perf_counter()
            start = end - float(message["latency_ms"]) / 1e3
            # Admission to response; these spans overlap, so the "queue"
            # layer's self time is waiting, not busy time.
            request = tracer.record(
                "queue.request", start, end, message.get("id")
            )
            bridge[4] = request[0]
            bridge[5] = message.get("id")
            probe.queue_wait_ms.append(
                float(message["latency_ms"]) - (bridge[3] - bridge[2]) * 1e3
            )
        return send(self, message, release_window)

    session_mod.Session.send = traced_send
    return probe


def server_layers(tracer: Tracer, probe: _ServerProbe, bridges: list) -> dict:
    bridge = tracer.durations("serve.bridge_access") or tracer.durations(
        "shard.round"
    )
    saves = tracer.durations("checkpoint.save")
    out = oram_layers(tracer, bridges)
    out.update({
        "serve.decode_us": mean(tracer.durations("serve.decode")) * 1e6,
        "serve.encode_us": mean(tracer.durations("serve.encode")) * 1e6,
        "serve.bridge_access_us.p50": percentile(bridge, 50) * 1e6,
        "serve.bridge_access_us.p99": percentile(bridge, 99) * 1e6,
        "serve.queue_wait_ms.p50": percentile(probe.queue_wait_ms, 50),
        "serve.queue_wait_ms.p99": percentile(probe.queue_wait_ms, 99),
        "shard.round_us": mean(tracer.durations("shard.round")) * 1e6,
        "shard.slot_us": mean(tracer.durations("shard.slot")) * 1e6,
        "shard.pipe_msgs": (
            tracer.count("shard.slot") + tracer.count("shard.snapshot")
        ),
        "shard.intent_append_us": (
            mean(tracer.durations("shard.intent_append")) * 1e6
        ),
        "shard.intents": tracer.count("shard.intent_append"),
        "shard.intent_bytes": probe.intent_bytes,
        "shard.spawn_s": tracer.total("shard.spawn"),
        "checkpoint.save_ms.p50": percentile(saves, 50) * 1e3,
        "checkpoint.save_s": sum(saves),
        "checkpoint.saves": len(saves),
        "checkpoint.bytes": probe.checkpoint_bytes,
        "trace.spans": len(tracer.spans),
        "self_s": tracer.self_times(),
    })
    return out


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import repro.cli as cli

    import_s = perf_counter() - t0
    bridges: list = []
    probe = _instrument_server(TRACER, bridges)
    try:
        return cli.main(argv)
    finally:
        out = server_layers(TRACER, probe, bridges)
        out["cli.import_s"] = import_s
        (OUT_DIR / "server.json").write_text(json.dumps(out), encoding="utf-8")
        TRACER.write_jsonl(str(OUT_DIR / "server.spans.jsonl"))


if __name__ == "__mp_main__":
    _instrument_worker()
elif __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
