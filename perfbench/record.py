"""Record the sim workloads' result digests and exact work counters.

Run from the root of a checkout when the simulated behaviour changes on
purpose (it must not change for a performance change)::

    python3 perfbench/record.py                 # every seed, full size
    python3 perfbench/record.py --size tiny --out /tmp/expected.json

Each entry comes from one traced fresh-interpreter run, so it holds the
result digest, the adversary-trace digest and the counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import spec


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--seeds", type=int, nargs="*",
                   default=list(range(spec.SEED_SPACE)))
    p.add_argument("--workloads", nargs="*", default=list(spec.SIM_WORKLOADS))
    p.add_argument("--out", type=Path, default=run.HERE / "expected.json")
    args = p.parse_args(argv)
    data = (
        json.loads(args.out.read_text(encoding="utf-8"))
        if args.out.exists() else {}
    )
    for name in args.workloads:
        wl = spec.workload(name, args.size)
        entries = data.setdefault(f"{name}@{args.size}", {})
        for seed in args.seeds:
            rep = run.sim_child(dict(wl, seed=seed, trace=True))
            entries[str(seed)] = {
                "result": rep["digest"],
                "adversary": rep["adversary"],
                "counters": rep["counters"],
            }
            print(f"{name} seed {seed}: {rep['digest'][:16]}", flush=True)
        args.out.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
