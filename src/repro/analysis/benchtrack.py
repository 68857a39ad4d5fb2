"""Perf-regression tracking for ``python -m repro bench``.

The simulator's own speed is a deliverable: PR 3 made sweeps parallel
and cached, but nothing guarded against the simulator quietly getting
slower (or its served/ORAM counters quietly drifting after a refactor).
This module records benchmark runs into an append-only per-host history
file and compares new runs against a recorded baseline:

* :func:`measure` times ``repeats`` uninstrumented simulation passes
  (best-of wall clock is the tracked statistic) and then runs one
  instrumented pass to snapshot the deterministic ``served/*`` /
  ``oram/*`` / ``requests/*`` counters;
* :class:`BenchHistory` appends entries to
  ``benchmarks/results/BENCH_<host>.json`` keyed by a config fingerprint
  (config + workload + requests + seed) and the current git revision —
  per-host files because wall-clock numbers are only comparable on the
  same machine;
* :func:`compare` gates wall-clock drift through
  :func:`repro.analysis.stats.regression_gate` (threshold + min-repeat
  gating, so one noisy run cannot flag or mask a regression) and treats
  *any* tracked-counter drift as a regression, because the simulator is
  deterministic: same fingerprint must mean same counters.

``perf_counter`` is bound at module level so tests can monkeypatch
``repro.analysis.benchtrack.perf_counter`` to synthesize fast/slow runs
without real sleeping.
"""

from __future__ import annotations

import json
import re
import socket
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.analysis.stats import RegressionCheck, regression_gate
from repro.durable import atomic_write
from repro.obs.events import EventBus
from repro.obs.log import git_describe
from repro.obs.metrics import MetricsCollector
from repro.serialize import stable_hash
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

# Counter namespaces snapshotted into every history entry.  They are
# deterministic functions of the config fingerprint, so any drift in a
# comparison means simulator behaviour changed, not noise.
TRACKED_COUNTER_PREFIXES = ("served/", "oram/", "requests/")

DEFAULT_HISTORY_DIR = Path("benchmarks") / "results"


def bench_key(
    config: SystemConfig, workload: str, requests: int, seed: int
) -> str:
    """Stable fingerprint identifying comparable benchmark runs."""
    return stable_hash({
        "config": config.to_dict(),
        "workload": workload,
        "requests": requests,
        "seed": seed,
    })


def host_slug(host: str | None = None) -> str:
    """Hostname reduced to a filesystem-safe slug."""
    raw = host if host is not None else socket.gethostname()
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", raw).strip("-.")
    return slug or "unknown"


def tracked_counters(registry) -> dict[str, int]:
    """The deterministic counter subset recorded into history entries."""
    return {
        name: counter.value
        for name, counter in sorted(registry._counters.items())
        if name.startswith(TRACKED_COUNTER_PREFIXES)
    }


def measure(
    config: SystemConfig,
    workload: str,
    requests: int,
    seed: int = 1,
    repeats: int = 3,
) -> dict[str, object]:
    """Run the benchmark and return one (not yet appended) history entry.

    The ``repeats`` timing passes run *uninstrumented* (no bus, so the
    hot paths take their zero-subscriber fast path); the counter
    snapshot comes from one extra instrumented pass that is not timed.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    wall: list[float] = []
    for _ in range(repeats):
        start = perf_counter()
        simulate(config, workload, num_requests=requests, seed=seed)
        wall.append(perf_counter() - start)

    bus = EventBus()
    collector = MetricsCollector(bus)
    simulate(config, workload, num_requests=requests, seed=seed, bus=bus)
    return {
        "key": bench_key(config, workload, requests, seed),
        "recorded_at": datetime.now(timezone.utc).isoformat(),
        "git": git_describe(),
        "host": host_slug(),
        "scheme": config.name,
        "workload": workload,
        "requests": requests,
        "seed": seed,
        "wall_s": [round(w, 6) for w in wall],
        "counters": tracked_counters(collector.registry),
    }


def sharded_bench_key(
    config: SystemConfig, workload: str, requests: int, seed: int, shards: int
) -> str:
    """Fingerprint for sharded-serve throughput entries.

    Includes the shard count (4-shard and 8-shard runs are different
    experiments) and a ``mode`` marker so a sharded entry can never be
    compared against a single-controller :func:`measure` entry for the
    same config.
    """
    return stable_hash({
        "config": config.to_dict(),
        "workload": workload,
        "requests": requests,
        "seed": seed,
        "shards": shards,
        "mode": "sharded-serve",
    })


def measure_sharded(
    config: SystemConfig,
    workload: str,
    requests: int,
    seed: int = 1,
    repeats: int = 3,
    shards: int = 4,
) -> dict[str, object]:
    """Time ``requests`` padded dispatch rounds through an in-proc fleet.

    Each pass builds a fresh :class:`~repro.shard.supervisor.ShardSupervisor`
    (inproc housing, periodic checkpoints off — the fleet's steady-state
    dispatch cost is the tracked statistic, not snapshot serialization)
    in its own temp state directory and drives the workload's request
    stream through padded rounds.  The final pass's ``fleet/`` counters
    are snapshotted; they are deterministic for the fingerprint, so any
    drift under ``--compare`` is a behaviour change.
    """
    from repro.shard.supervisor import ShardSettings, ShardSupervisor
    from repro.workloads.spec import get_workload

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    settings = ShardSettings(
        num_shards=shards, mode="inproc", checkpoint_every=0
    )

    def one_pass() -> tuple[float, ShardSupervisor]:
        sup = ShardSupervisor(config, seed=seed, settings=settings)
        try:
            sup.start()
            reqs = get_workload(workload).requests(
                seed, requests, sup.num_blocks
            )
            start = perf_counter()
            for req in reqs:
                sup.access(req.addr, req.op,
                           req.addr if req.op == "write" else None)
            elapsed = perf_counter() - start
        finally:
            sup.close()
        return elapsed, sup

    wall: list[float] = []
    sup = None
    for _ in range(repeats):
        elapsed, sup = one_pass()
        wall.append(elapsed)
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    sup.export_metrics(registry)
    counters = {
        name: counter.value
        for name, counter in sorted(registry._counters.items())
        if name.startswith("fleet/")
    }
    return {
        "key": sharded_bench_key(config, workload, requests, seed, shards),
        "recorded_at": datetime.now(timezone.utc).isoformat(),
        "git": git_describe(),
        "host": host_slug(),
        "scheme": config.name,
        "workload": workload,
        "requests": requests,
        "seed": seed,
        "shards": shards,
        "wall_s": [round(w, 6) for w in wall],
        "counters": counters,
    }


class BenchHistory:
    """Append-only per-host benchmark history (``BENCH_<host>.json``).

    The file holds ``{"schema": 1, "entries": [...]}``; appends are a
    read-modify-write published with ``atomic_write``, so a crashed bench
    run can never leave a torn file behind.
    """

    SCHEMA = 1

    def __init__(self, directory: Path | str = DEFAULT_HISTORY_DIR,
                 host: str | None = None) -> None:
        self.directory = Path(directory)
        self.host = host_slug(host)
        self.path = self.directory / f"BENCH_{self.host}.json"

    def load(self) -> list[dict[str, object]]:
        """All recorded entries, oldest first (empty if no file yet)."""
        if not self.path.exists():
            return []
        with open(self.path) as stream:
            payload = json.load(stream)
        if payload.get("schema") != self.SCHEMA:
            return []
        return list(payload.get("entries", []))

    def _write(self, entries: list[dict[str, object]]) -> None:
        """Atomically persist ``entries`` (:func:`atomic_write`)."""
        self.directory.mkdir(parents=True, exist_ok=True)

        def write(stream) -> None:
            json.dump({"schema": self.SCHEMA, "entries": entries}, stream,
                      indent=2, sort_keys=False)
            stream.write("\n")

        atomic_write(self.path, write)

    def append(self, entry: dict[str, object]) -> int:
        """Append ``entry``; returns the total entry count after the write."""
        entries = self.load()
        entries.append(entry)
        self._write(entries)
        return len(entries)

    def replace_latest(self, entry: dict[str, object]) -> int:
        """Overwrite the newest entry sharing ``entry``'s fingerprint.

        This is the ``--update-baseline`` primitive: after an intentional
        perf change (a refactor that makes the simulator faster), the
        recorded baseline for a config fingerprint must be re-recorded
        in place rather than appended, or ``--compare`` would keep gating
        against the stale pre-change number forever.  Entries for *other*
        fingerprints — including deliberately retained pre-change records
        under a different config — are untouched.  Falls back to a plain
        append when the fingerprint has no prior entry.  The write is the
        same atomic read-modify-write as :meth:`append`.

        Returns the total entry count after the write.
        """
        entries = self.load()
        for i in range(len(entries) - 1, -1, -1):
            if entries[i].get("key") == entry.get("key"):
                entries[i] = entry
                break
        else:
            entries.append(entry)
        self._write(entries)
        return len(entries)

    def find_baseline(
        self, key: str, base: str = "latest"
    ) -> dict[str, object] | None:
        """Newest entry matching ``key`` (and git-prefix ``base``).

        ``base="latest"`` picks the most recent entry for the key;
        anything else is matched as a prefix of the entry's recorded
        ``git`` description, so ``--compare a1b2c3`` pins a revision.
        """
        for entry in reversed(self.load()):
            if entry.get("key") != key:
                continue
            if base != "latest":
                if not str(entry.get("git", "")).startswith(base):
                    continue
            return entry
        return None


@dataclass(frozen=True, slots=True)
class BenchComparison:
    """Outcome of comparing one new entry against a recorded baseline."""

    baseline_git: str
    current_git: str
    checks: tuple[RegressionCheck, ...]

    @property
    def regressed(self) -> bool:
        return any(check.regressed for check in self.checks)

    def describe(self) -> list[str]:
        lines = [f"baseline {self.baseline_git} -> current {self.current_git}"]
        lines.extend(f"  {check.describe()}" for check in self.checks)
        return lines


def compare(
    baseline: dict[str, object],
    current: dict[str, object],
    threshold: float = 0.25,
    min_repeats: int = 2,
) -> BenchComparison:
    """Gate ``current`` against ``baseline``: wall clock and counters.

    Wall clock goes through :func:`regression_gate` (best-of aggregate).
    Tracked counters are compared exactly — the simulator is
    deterministic for a given fingerprint, so any drift is a behaviour
    change, reported as a regression with a zero-tolerance threshold.
    """
    if baseline.get("key") != current.get("key"):
        raise ValueError(
            "refusing to compare different benchmark fingerprints "
            f"({baseline.get('key')!r} vs {current.get('key')!r})"
        )
    checks: list[RegressionCheck] = [
        regression_gate(
            [float(w) for w in baseline.get("wall_s", [])],
            [float(w) for w in current.get("wall_s", [])],
            metric="wall_s",
            threshold=threshold,
            min_repeats=min_repeats,
        )
    ]
    base_counters: dict[str, int] = dict(baseline.get("counters", {}))
    cur_counters: dict[str, int] = dict(current.get("counters", {}))
    for name in sorted(set(base_counters) | set(cur_counters)):
        base_v = int(base_counters.get(name, 0))
        cur_v = int(cur_counters.get(name, 0))
        ratio = (cur_v / base_v) if base_v else (1.0 if cur_v == 0 else float("inf"))
        if base_v == cur_v:
            checks.append(RegressionCheck(
                name, base_v, cur_v, 1.0, 0.0, False, "exact match"))
        else:
            checks.append(RegressionCheck(
                name, base_v, cur_v, ratio, 0.0, True,
                "deterministic counter drift"))
    return BenchComparison(
        baseline_git=str(baseline.get("git", "unknown")),
        current_git=str(current.get("git", "unknown")),
        checks=tuple(checks),
    )


def summarize_entry(entry: dict[str, object]) -> list[list[object]]:
    """Table rows describing one history entry (CLI rendering)."""
    wall: Sequence[float] = [float(w) for w in entry.get("wall_s", [])]
    rows: list[list[object]] = [
        ["fingerprint", str(entry.get("key", ""))[:16]],
        ["git", entry.get("git", "unknown")],
        ["host", entry.get("host", "unknown")],
        ["scheme / workload",
         f"{entry.get('scheme')} / {entry.get('workload')}"],
        ["requests x repeats",
         f"{entry.get('requests')} x {len(wall)}"],
    ]
    if entry.get("shards"):
        rows.append(["shards (padded dispatch)", entry["shards"]])
    if wall:
        rows.append(["wall best / mean",
                     f"{min(wall):.3f}s / {sum(wall) / len(wall):.3f}s"])
    rows.append(["tracked counters", len(entry.get("counters", {}))])
    return rows
