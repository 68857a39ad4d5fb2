"""The repository benchmark: one command, every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-shadow --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics, including the tracing overhead against an untraced run of the
same inputs.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness gate makes ``correct`` false and the exit code 1.

Workloads and calibrated rates are defined in ``spec.py``; recorded
result digests and work counters of the sim workloads in
``expected.json`` (refresh with ``record.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spec
from tracer import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
#: Phase sizes in ``spec.py`` are for runs of this many seconds.
REFERENCE_SECONDS = 30.0
#: Fresh-interpreter repetitions per sim run, at least.
MIN_REPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's small inputs")
    p.add_argument("--expected", type=Path, default=HERE / "expected.json",
                   help="recorded sim digests and counters")
    p.add_argument("--inject", choices=("corrupt-read", "drift-counter"),
                   help="self-test seam: break one output on purpose")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Sim workloads
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment of the program's processes: this checkout's sources,
    and one fixed string-hash seed so dict layouts repeat across runs."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def sim_child(settings: dict) -> dict:
    """Run one fresh-interpreter simulation; adds its wall time."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "sim_child.py"), json.dumps(settings)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    run_s = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"simulation failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["run_s"] = run_s
    return out


def check_sim(rep: dict, ref: dict | None, traced: bool) -> list[str]:
    problems = []
    if ref is None:
        return ["no recorded digest for this workload and seed"]
    if rep["digest"] != ref["result"]:
        problems.append(f"result digest {rep['digest'][:12]} != "
                        f"recorded {ref['result'][:12]}")
    for name, value in ref["counters"].items():
        if rep["counters"].get(name) != value:
            problems.append(f"counter {name}={rep['counters'].get(name)} "
                            f"!= recorded {value}")
    if not rep["identity_ok"]:
        problems.append("blocks_internal != (path_reads + path_writes) * "
                        "Z * (L + 1 - treetop), or update_path count drifted")
    if traced and rep.get("adversary") != ref["adversary"]:
        problems.append("adversary-trace digest differs from the recording")
    return problems


def run_sim(name: str, wl: dict, args) -> dict:
    seed = args.seed % spec.SEED_SPACE
    expected = json.loads(args.expected.read_text(encoding="utf-8"))
    ref = expected.get(f"{name}@{args.size}", {}).get(str(seed))
    child = dict(wl, seed=seed, drift_counter=args.inject == "drift-counter")
    plain, traced = [], []
    end = perf_counter() + args.seconds
    while len(plain) < MIN_REPS or perf_counter() < end:
        plain.append(sim_child(child))
        if args.trace:
            last = OUT / f"{name}-seed{args.seed}.spans.jsonl"
            traced.append(sim_child(dict(child, trace=True, spans_path=str(last))))
        # Only the first repetition may carry the injected drift.
        child["drift_counter"] = False

    problems, failed = [], 0
    for rep, is_traced in [(r, False) for r in plain] + [(r, True) for r in traced]:
        found = check_sim(rep, ref, is_traced)
        if rep["counters"] != plain[0]["counters"]:
            found.append("work counters differ between repetitions")
        if found:
            failed += rep["misses"]
            problems.extend(found)
    med = statistics.median
    metrics = {
        "run_s": med(r["run_s"] for r in plain),
        "setup_s": med(r["setup_s"] for r in plain),
        "ops_per_s": med(r["misses"] / r["drive_s"] for r in plain),
        "p50_ms": med(percentile(r["latencies"], 50) for r in plain) * 1e3,
        "p99_ms": med(percentile(r["latencies"], 99) for r in plain) * 1e3,
        "peak_rss_mb": med(r["rss_mb"] for r in plain),
    }
    layers = {}
    if traced:
        layers = {
            key: med(r["layers"][key] for r in traced)
            for key in traced[0]["layers"] if key != "self_s"
        }
        layers["self_s"] = traced[-1]["layers"]["self_s"]
        layers.update(plain[0]["counters"])
        layers["trace.overhead.run_s.untraced"] = metrics["run_s"]
        layers["trace.overhead.run_s.traced"] = med(r["run_s"] for r in traced)
        layers["trace.overhead.p50_ms.untraced"] = metrics["p50_ms"]
        layers["trace.overhead.p50_ms.traced"] = med(
            percentile(r["latencies"], 50) for r in traced
        ) * 1e3
    print(f"{name}: {len(plain)} untraced and {len(traced)} traced fresh "
          f"runs of {plain[0]['misses']} LLC misses (input seed {seed})")
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": sum(r["misses"] for r in plain + traced),
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def serve_cmd(wl: dict, seed: int, traced: bool, shard_dir: Path) -> list[str]:
    head = (
        [sys.executable, str(HERE / "traced_serve.py")] if traced
        else [sys.executable, "-m", "repro"]
    )
    cmd = head + [
        "serve", "--scheme", "dynamic-3", "--levels", str(wl["levels"]),
        "--seed", str(seed), "--port", "0",
        "--queue-depth", str(spec.QUEUE_DEPTH),
    ]
    if wl["shards"] > 1:
        cmd += [
            "--shards", str(wl["shards"]), "--shard-mode", "process",
            "--shard-dir", str(shard_dir),
            "--checkpoint-every", str(wl["checkpoint_every"]),
        ]
    return cmd


def split_cpus() -> set[int] | None:
    """Give the generator the last CPU and the server the others.

    Pinning keeps the server and the generator from migrating between
    CPUs from one run to the next, which otherwise moves wire latency by
    whole multiples.  Returns the server's CPUs (``None`` on one CPU).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[-1]})
    return set(cpus[:-1])


def launch(wl: dict, seed: int, traced: bool, tag: str,
           cpus: set[int] | None):
    import loadgen as lg

    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    if traced:
        env["PERFBENCH_TRACE_DIR"] = str(work)
    return lg.start_server(
        serve_cmd(wl, seed, traced, work / "shards"), env, ROOT,
        work / "server.log", cpus,
    ), work


def stop_server(server) -> None:
    """Drain the server, wait for it and its workers, drop shard state."""
    import loadgen as lg

    pids = lg.descendants(server.proc.pid)
    code = server.stop()
    lg.wait_gone(pids)
    shutil.rmtree(server.log_path.parent / "shards", ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"server exited with code {code}; "
                           f"see {server.log_path}")


async def drive(server, wl: dict, seed: int, scale: float, args,
                traced: bool) -> dict:
    """One fresh server's measurements: the job, warm-up, then the
    workload's phases in order -- open-loop ``high`` (p50) and ``tail``
    (p99) phases and, untraced, the ``saturate`` batch (ops/s)."""
    import loadgen as lg

    conns = min(2, os.cpu_count() or 1)
    client = lg.WireClient(server.host, server.port, spec.DEADLINE_MS)
    await client.connect(conns)
    space = client.conns[0].space
    state = {"rid": 0}
    drain = 60.0

    def schedule(tag: str, count: int, rate: float):
        rng = random.Random(f"{seed}:{tag}")
        out = lg.make_schedule(rng, state["rid"], max(1, int(count)), rate,
                               conns, space, wl["alpha"], wl["write_frac"])
        state["rid"] += len(out)
        return out

    async def saturate(reqs) -> float:
        """Run ``reqs`` saturated; returns first send to last response."""
        t0 = perf_counter()
        await client.saturate(reqs, spec.SATURATION_WINDOW, drain)
        result["measured"].append(reqs)
        return perf_counter() - t0

    result = {"phases": {}, "measured": [], "scale": scale, "rates": []}
    # The fresh-server job, a fixed saturated batch.  ``run_s`` adds the
    # saturated batch below: all the closed-loop work one server does.
    # Set-up is timed on its own, as ``setup_s``.
    result["job_s"] = await saturate(
        schedule("job", wl["job_requests"] * scale, 1.0)
    )
    result["run_s"] = result["job_s"]
    if wl["warmup_requests"]:
        await client.run_phase(
            schedule("warmup", wl["warmup_requests"] * scale, wl["rate"]),
            drain,
        )
    if args.inject == "corrupt-read":
        client.corrupt_next_read = True
    for i, (name, count) in enumerate(wl["phases"]):
        if name == "saturate":
            if not traced:
                reqs = schedule(name, count * scale, 1.0)
                result["run_s"] += await saturate(reqs)
                result["rates"] += lg.chunk_rates(reqs, spec.RATE_CHUNK)
            continue
        reqs = await client.run_phase(
            schedule(f"{name}{i}", count * scale, wl["rate"]),
            drain,
        )
        result["phases"].setdefault(name, []).append(
            lg.summarize(reqs, wl["rate"])
        )
        result["measured"].append(reqs)
    if traced:
        result["stats"] = await client.stats()
        result["bytes"] = (client.bytes_out, client.bytes_in)
    result["wrong_reads"] = client.wrong_reads
    await client.close()
    return result


def run_serve(name: str, wl: dict, args) -> dict:
    import loadgen as lg

    seed = args.seed
    scale = args.seconds / REFERENCE_SECONDS
    server, setups, jobs, rss = None, [], [], []
    cpus = split_cpus()
    waker = lg.start_waker(cpus) if cpus else None
    try:
        # Every start measures everything once, so each figure is a median
        # over starts spread across the whole run.
        for _ in range(wl["setup_starts"]):
            server, _ = launch(wl, seed, False, f"{name}-seed{seed}", cpus)
            setups.append(server.setup_s)
            jobs.append(asyncio.run(
                drive(server, wl, seed, scale, args, traced=False)
            ))
            rss.append(server.rss_mb())
            stop_server(server)
            server = None
        traced = None
        if args.trace:
            server, work = launch(
                wl, seed, True, f"{name}-seed{seed}-traced", cpus
            )
            traced = asyncio.run(
                drive(server, wl, seed, scale, args, traced=True)
            )
            stop_server(server)
            server = None
            lg.write_client_spans(work / "client.spans.jsonl", traced["measured"])
            traced["server"] = json.loads((work / "server.json").read_text())
            traced["workers"] = [
                json.loads(p.read_text()) for p in work.glob("worker-*.json")
            ]
    finally:
        if server is not None:
            lg.kill_group(server.proc)
        if waker is not None:
            lg.kill_group(waker)

    runs = jobs + ([traced] if traced else [])
    problems = [w for r in runs for w in r["wrong_reads"]]
    attempted = failed = 0
    for run in runs:
        for reqs in run["measured"]:
            attempted += len(reqs)
            failed += sum(1 for r in reqs if r.status != "ok")
    med = statistics.median
    metrics = {
        "run_s": med(j["run_s"] for j in jobs),
        "setup_s": med(setups),
        "ops_per_s": med(r for j in jobs for r in j["rates"]),
        "p50_ms": percentile(
            [x for j in jobs for h in j["phases"]["high"] for x in h["lat_ms"]],
            50,
        ),
        "p99_ms": med(t["p99_ms"] for j in jobs for t in j["phases"]["tail"]),
        "peak_rss_mb": med(rss),
    }
    for k, job in enumerate(jobs):
        for phase, sm in ((n, x) for n, xs in job["phases"].items() for x in xs):
            print(f"{name} start {k} {phase}: {sm['rate']:g}/s offered, "
                  f"{sm['attempted']} sent, {sm['failed']} failed "
                  f"{sm['statuses']}, p50 {sm['p50_ms']:.2f} ms, "
                  f"p99 {sm['p99_ms']:.2f} ms, "
                  f"generator lag p99 {sm['gen_lag_ms_p99']:.2f} ms")
    print(f"{name}: set-up {' '.join('%.3f' % v for v in setups)} s, "
          f"saturated work {' '.join('%.3f' % j['run_s'] for j in jobs)} s")
    layers = {}
    if traced:
        layers = serve_layers(
            dict(metrics, job_s=med(j["job_s"] for j in jobs)), traced
        )
        problems.extend(check_shard_counters(wl, traced, layers))
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def check_shard_counters(wl: dict, traced: dict, layers: dict) -> list[str]:
    """Intent, pipe-message and checkpoint counts follow from the number
    of padded rounds (one intent and one slot per shard per round)."""
    if wl["shards"] == 1:
        return []
    rounds = sum(len(reqs) for reqs in traced["measured"]) + (
        int(wl["warmup_requests"] * traced["scale"])
    )
    shards, every = wl["shards"], wl["checkpoint_every"]
    saves = shards * (rounds // every)
    want = {
        "shard.intents": shards * rounds,
        "checkpoint.saves": saves,
        "shard.pipe_msgs": shards * rounds + saves,
    }
    return [
        f"{name}={layers[name]} but {rounds} rounds imply {value}"
        for name, value in want.items() if layers[name] != value
    ]


def serve_layers(metrics: dict, traced: dict) -> dict:
    srv = traced["server"]
    oram = dict(srv)
    for worker in traced["workers"]:
        for key, value in worker.items():
            if key.startswith(("oram.", "core.")):
                oram[key] = (
                    max(oram[key], value) if key == "oram.stash_peak"
                    else oram[key] + value
                )
    layers = {k: v for k, v in srv.items() if k.startswith(
        ("serve.", "shard.", "checkpoint.", "trace.", "cli.", "self_s")
    )}
    layers.update({
        k: oram[k] for k in (
            "oram.path_reads", "oram.path_writes", "oram.evictions",
            "oram.blocks_on_bus", "oram.blocks_internal",
            "oram.onchip_serves", "oram.shadow_path_serves",
            "oram.stash_peak", "oram.stash_merges",
        )
    })
    for kind in ("plain", "evict"):
        n = oram[f"oram.access_n.{kind}"]
        layers[f"oram.access_us.{kind}"] = (
            oram[f"oram.access_s.{kind}"] / n * 1e6 if n else 0.0
        )
    seen, written = oram["core.dummy_slots_seen"], oram["core.shadows_written"]
    layers["core.fill_ratio"] = oram["core.dummy_slots_filled"] / seen if seen else 0.0
    layers["core.shadow_yield"] = oram["core.shadow_serves"] / written if written else 0.0
    stats = traced["stats"]
    layers["serve.queue_highwater"] = stats["queue"]["high_water"]
    layers["serve.shed"] = stats["counters"]["serve/shed"]
    layers["serve.expired"] = stats["counters"]["serve/expired"]
    layers["serve.wire_bytes_out"], layers["serve.wire_bytes_in"] = traced["bytes"]
    high = traced["phases"]["high"][0]
    layers["serve.net_ms.p50"] = percentile(high["net_ms"], 50)
    layers["serve.gen_lag_ms.p99"] = max(
        s["gen_lag_ms_p99"] for xs in traced["phases"].values() for s in xs
    )
    layers["trace.overhead.run_s.untraced"] = metrics["job_s"]
    layers["trace.overhead.run_s.traced"] = traced["job_s"]
    layers["trace.overhead.p50_ms.untraced"] = metrics["p50_ms"]
    layers["trace.overhead.p50_ms.traced"] = high["p50_ms"]
    return layers


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = spec.workload(args.workload, args.size)
    OUT.mkdir(exist_ok=True)
    runner = run_sim if args.workload in spec.SIM_WORKLOADS else run_serve
    res = runner(args.workload, wl, args)
    for problem in res["problems"]:
        print(f"GATE FAILED: {problem}")
    if args.trace:
        layers = res["layers"]
        untraced = layers.get("trace.overhead.run_s.untraced")
        layers["trace.overhead.frac"] = (
            layers["trace.overhead.run_s.traced"] / untraced - 1.0
            if untraced else 0.0
        )
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _moves) in spec.PER_LAYER.items()
        }
        if "self_s" in layers:
            print(f"self time by layer, s: {layers['self_s']}")
    else:
        metrics = {
            name: {"value": float(res["metrics"][name]), "unit": unit}
            for name, unit in spec.END_TO_END.items()
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not res["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
