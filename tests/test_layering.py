"""Import layering: the ORAM core and its worker entry points stay small.

A sweep worker or process shard imports the controller, the simulator or
the shard worker module and nothing else.  None of them may pull in the
event-loop, thread-pool, sweep/analysis or serving/export machinery.
Each check runs in a fresh interpreter, so modules the test session has
already imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

FORBIDDEN = {
    "asyncio",
    "concurrent.futures",
    "repro.analysis",
    "repro.serve.server",
    "repro.obs.export",
    "repro.obs.aggregate",
    "repro.obs.flightrec",
    "repro.obs.slo",
}


def _loaded_modules(module: str) -> list[str]:
    code = (
        "import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "module",
    ["repro.core.controller", "repro.system.simulator", "repro.shard.worker"],
)
def test_core_import_stays_off_the_serving_and_analysis_stack(module):
    loaded = _loaded_modules(module)
    assert module in loaded
    offending = [
        name for name in loaded
        if name in FORBIDDEN or name.startswith("repro.analysis.")
    ]
    assert offending == [], f"importing {module} loaded {offending}"
