#!/usr/bin/env python3
"""Quickstart: compare Tiny ORAM against the shadow-block schemes.

Runs one SPEC-like workload through the full-system simulator under five
schemes and prints the paper's headline metrics.  Takes ~30 s.

Usage::

    python examples/quickstart.py [workload] [num_requests]
"""

import sys

from repro.analysis.report import print_table
from repro.system.config import SystemConfig
from repro.system.simulator import simulate


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "h264ref"
    num_requests = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    schemes = [
        SystemConfig.insecure_system(),
        SystemConfig.tiny(),
        SystemConfig.rd_dup(),
        SystemConfig.hd_dup(),
        SystemConfig.dynamic(3),
    ]

    print(f"Simulating {workload!r} ({num_requests} memory instructions) ...")
    results = {}
    for config in schemes:
        results[config.name] = simulate(config, workload, num_requests=num_requests)
        print(f"  {config.describe()} done")

    tiny = results["Tiny"]
    insecure = results["insecure"]
    rows = []
    for name, r in results.items():
        rows.append([
            name,
            r.total_cycles / 1e6,
            r.total_cycles / insecure.total_cycles,
            tiny.total_cycles / r.total_cycles if name != "insecure" else float("nan"),
            r.onchip_hit_rate,
            r.shadow_path_serves,
        ])
    print_table(
        ["scheme", "Mcycles", "slowdown vs insecure", "speedup vs Tiny",
         "on-chip hit rate", "advanced serves"],
        rows,
        title=f"Shadow Block quickstart: {workload}",
    )

    dyn = results["dynamic-3"]
    saved = 1 - dyn.total_cycles / tiny.total_cycles
    print(f"dynamic-3 saves {saved:.1%} of Tiny ORAM's execution time on "
          f"{workload} (paper average with timing protection: 32%).")


if __name__ == "__main__":
    main()
