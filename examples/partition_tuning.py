#!/usr/bin/env python3
"""Partition tuning study: static sweep vs the dynamic DRI counter.

Reproduces the Section IV-D workflow for one workload: sweep the static
partitioning level, find the optimum, then show that dynamic partitioning
gets there without tuning — and watch the partitioning level adapt to the
workload's phases over time (the Figure 6 behaviour).

Usage::

    python examples/partition_tuning.py [workload]
"""

import sys

from repro.analysis.report import print_table
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

NUM_REQUESTS = 15_000


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "hmmer"

    tiny = simulate(
        SystemConfig.tiny().with_timing_protection(),
        workload,
        num_requests=NUM_REQUESTS,
    )
    levels = tiny.oram_stats and SystemConfig.tiny().oram.levels
    sweep_points = [0, 2, 4, 7, 10, 13, levels + 1]

    rows = []
    best = (None, float("inf"))
    for p in sweep_points:
        r = simulate(
            SystemConfig.static(p).with_timing_protection(),
            workload,
            num_requests=NUM_REQUESTS,
        )
        norm = r.total_cycles / tiny.total_cycles
        rows.append([p, norm, r.onchip_hit_rate, r.shadow_path_serves])
        if norm < best[1]:
            best = (p, norm)
    print_table(
        ["partition level P", "total vs Tiny", "on-chip hit rate", "advanced"],
        rows,
        title=f"Static partitioning sweep: {workload} (timing protection on)",
    )
    print(f"best static level: P={best[0]} at {best[1]:.3f}x Tiny")

    dyn = simulate(
        SystemConfig.dynamic(3).with_timing_protection(),
        workload,
        num_requests=NUM_REQUESTS,
        record_progress=True,
    )
    print(f"dynamic-3 (no tuning needed): "
          f"{dyn.total_cycles / tiny.total_cycles:.3f}x Tiny")

    # How the DRI counter steered the level over the run.
    trace = dyn.partition_levels
    if trace:
        window = max(1, len(trace) // 12)
        rows = [
            [i, sum(trace[i : i + window]) / len(trace[i : i + window])]
            for i in range(0, len(trace) - window + 1, window)
        ]
        print_table(
            ["LLC miss #", "mean partitioning level"],
            rows,
            title="Dynamic partitioning level over time (phase adaptation)",
            float_fmt="{:.1f}",
        )


if __name__ == "__main__":
    main()
