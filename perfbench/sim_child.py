"""One fresh-interpreter simulation, as ``repro run`` pays for it.

Run by ``run.py`` once per repetition, with the workload's settings from
``spec.py`` plus ``seed`` as one JSON argument::

    python3 perfbench/sim_child.py '{"workload": "h264ref", "levels": 14,
        "requests": 20000, "timing_protection": false, "integrity": false,
        "seed": 3}'

The child imports the CLI cold, builds the workload's configuration,
generates the LLC-miss trace, simulates it and prints one JSON line with
its timings, the result digest and the exact work counters.  With
``"trace": true`` it also wraps the public calls into each layer with
spans (see ``tracer.py``), hashes the adversary-visible path trace, and
adds the per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from time import perf_counter

T_START = perf_counter()


def _config(spec: dict):
    from repro.oram.config import OramConfig
    from repro.system.config import SystemConfig

    config = SystemConfig.dynamic(
        3, oram=OramConfig(levels=spec["levels"], integrity=spec["integrity"])
    )
    if spec["timing_protection"]:
        config = config.with_timing_protection(800.0)
    return config


class _TimedBackend:
    """Backend decorator timing each LLC miss (serve plus its writeback)."""

    def __init__(self, inner, latencies: list[float], tracer=None) -> None:
        self.inner = inner
        self.controller = inner.controller
        self.latencies = latencies
        self.tracer = tracer

    def serve(self, miss, ready):
        tracer = self.tracer
        if tracer is not None:
            tracer.set_request(len(self.latencies))
            span = tracer.open("system.serve")
        t0 = perf_counter()
        out = self.inner.serve(miss, ready)
        self.latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
        return out

    def writeback(self, addr, now):
        tracer = self.tracer
        if tracer is not None:
            span = tracer.open("system.writeback")
        t0 = perf_counter()
        out = self.inner.writeback(addr, now)
        self.latencies[-1] += perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        return out

    def finalize(self, *args):
        return self.inner.finalize(*args)


def _instrument(tracer, backend) -> None:
    """Wrap the controller, scheduler, DRAM timer and Merkle tree."""
    from tracer import TimerProxy

    controller = backend.controller
    controller.access = tracer.wrap(
        "oram.access",
        controller.access,
        rename=lambda r: "oram.access.evict" if r.evicted else "oram.access.plain",
    )
    controller.dummy_access = tracer.wrap(
        "oram.dummy_access", controller.dummy_access
    )
    controller.timer = TimerProxy(tracer, controller.timer)
    backend.scheduler.launch_real = tracer.wrap(
        "system.launch_real", backend.scheduler.launch_real
    )
    if controller.integrity is not None:
        controller.integrity.update_path = tracer.wrap(
            "integrity.update_path", controller.integrity.update_path
        )


def main(spec: dict) -> dict:
    t0 = perf_counter()
    import repro.cli  # noqa: F401 - the cold import `repro run` pays

    import_s = perf_counter() - t0
    from repro.serialize import stable_hash
    from repro.system.simulator import build_miss_trace, simulate

    trace_on = bool(spec.get("trace"))
    tracer = None
    if trace_on:
        from tracer import Tracer

        tracer = Tracer()
        from repro.oram.integrity import MerkleTree

        tracer.wrap_method(MerkleTree, "__init__", "integrity.build")

    config = _config(spec)
    seed = spec["seed"]
    t_cfg = perf_counter()
    if tracer is not None:
        span = tracer.open("workloads.build_miss_trace")
    trace = build_miss_trace(
        spec["workload"], spec["requests"], seed, config.oram.num_blocks,
        config.cache,
    )
    if tracer is not None:
        tracer.close(span)
    trace_s = perf_counter() - t_cfg

    marks: dict[str, object] = {}
    latencies: list[float] = []

    def backend_filter(backend):
        marks["setup"] = perf_counter()
        marks["backend"] = backend
        if tracer is not None:
            _instrument(tracer, backend)
        return _TimedBackend(backend, latencies, tracer)

    observer = None
    adversary = hashlib.sha256()
    if trace_on:
        def observer(event):
            adversary.update(repr(event).encode())

    t_sim = perf_counter()
    result = simulate(
        config, spec["workload"], spec["requests"], seed=seed,
        observer=observer, backend_filter=backend_filter,
    )
    t_end = perf_counter()
    controller = marks["backend"].controller
    stats = result.oram_stats
    sstats = result.shadow_stats
    oram = config.oram
    counters = {
        "trace.misses": len(trace.misses),
        "system.dummy_requests": result.dummy_requests,
        "oram.path_reads": stats.path_reads,
        "oram.path_writes": stats.path_writes,
        "oram.evictions": stats.evictions,
        "oram.blocks_on_bus": stats.blocks_on_bus,
        "oram.blocks_internal": stats.blocks_internal,
        "oram.onchip_serves": stats.onchip_serves,
        "oram.shadow_path_serves": stats.shadow_path_serves,
        "oram.stash_peak": result.stash_peak,
        "oram.stash_merges": controller.stash.merges,
        "core.fill_ratio": (
            sstats.dummy_slots_filled / sstats.dummy_slots_seen
            if sstats.dummy_slots_seen else 0.0
        ),
        "core.shadow_yield": (
            (stats.shadow_path_serves + stats.shadow_stash_hits)
            / (sstats.rd_shadows + sstats.hd_shadows)
            if sstats.rd_shadows + sstats.hd_shadows else 0.0
        ),
        "integrity.update_path_calls": (
            stats.path_reads + stats.path_writes
            if controller.integrity is not None else 0
        ),
    }
    per_path = oram.z * (oram.levels + 1 - oram.treetop_levels)
    if spec.get("drift_counter"):
        counters["oram.path_reads"] += 1
    out = {
        "import_s": import_s,
        "trace_s": trace_s,
        "setup_s": marks["setup"] - t_sim,
        "drive_s": t_end - marks["setup"],
        "misses": result.llc_misses,
        "latencies": latencies,
        "digest": stable_hash(result.to_dict()),
        "counters": counters,
        "identity_ok": (
            stats.blocks_internal
            == (stats.path_reads + stats.path_writes) * per_path
        ),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["adversary"] = adversary.hexdigest()
        out["layers"] = _layer_metrics(tracer, out)
        if spec.get("spans_path"):
            tracer.write_jsonl(spec["spans_path"])
    return out


def _layer_metrics(tracer, out: dict) -> dict[str, float]:
    from tracer import mean

    serve_s = tracer.total("system.serve") + tracer.total("system.writeback")
    self_times = tracer.self_times()
    counts_update = tracer.count("integrity.update_path")
    if counts_update != out["counters"]["integrity.update_path_calls"]:
        out["identity_ok"] = False
    return {
        "cli.import_s": out["import_s"],
        "trace.build_s": tracer.total("workloads.build_miss_trace"),
        "system.frontend_self_s": out["drive_s"] - serve_s,
        "system.launch_real_self_s": tracer.self_times(by_name=True).get(
            "system.launch_real", 0.0
        ),
        "oram.access_us.plain": mean(tracer.durations("oram.access.plain")) * 1e6,
        "oram.access_us.evict": mean(tracer.durations("oram.access.evict")) * 1e6,
        "oram.dummy_access_us": mean(tracer.durations("oram.dummy_access")) * 1e6,
        "mem.timer_s": self_times.get("mem", 0.0),
        "integrity.update_path_s": tracer.total("integrity.update_path"),
        "integrity.build_s": tracer.total("integrity.build"),
        "trace.spans": len(tracer.spans),
        "self_s": self_times,
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    result["child_s"] = perf_counter() - T_START
    sys.stdout.write(json.dumps(result) + "\n")
