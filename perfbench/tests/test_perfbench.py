"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced; the printed metric
names and units must match ``BENCHMARK.json``.  Three broken outputs must
each fail the run: a wrong expected digest, a corrupted read value and a
drifted work counter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1


def bench(*args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny",
         "--seed", str(SEED), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> Path:
    """Digests and counters of the tiny sim inputs, recorded afresh."""
    out = tmp_path_factory.mktemp("perfbench") / "expected.json"
    subprocess.run(
        [sys.executable, str(BENCH / "record.py"), "--size", "tiny",
         "--seeds", str(SEED), "--out", str(out)],
        cwd=ROOT, check=True, capture_output=True, timeout=170,
    )
    return out


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_metrics_match_contract(workload, trace, expected):
    code, result, log = bench(
        "--workload", workload, "--seconds", "2", "--trace", str(trace),
        "--expected", str(expected),
    )
    assert code == 0, log
    assert result["correct"] is True, log
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units(section)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), log


def test_wrong_expected_digest_fails(expected, tmp_path):
    data = json.loads(expected.read_text(encoding="utf-8"))
    data["sim-shadow@tiny"][str(SEED)]["result"] = "0" * 64
    broken = tmp_path / "expected.json"
    broken.write_text(json.dumps(data), encoding="utf-8")
    code, result, log = bench(
        "--workload", "sim-shadow", "--seconds", "1", "--expected", str(broken)
    )
    assert code != 0 and result["correct"] is False
    assert "result digest" in log


def test_drifted_counter_fails(expected):
    code, result, log = bench(
        "--workload", "sim-shadow", "--seconds", "1",
        "--expected", str(expected), "--inject", "drift-counter",
    )
    assert code != 0 and result["correct"] is False
    assert "counter oram.path_reads" in log


def test_corrupted_read_fails():
    code, result, log = bench(
        "--workload", "serve-zipf", "--seconds", "2", "--inject", "corrupt-read"
    )
    assert code != 0 and result["correct"] is False
    assert "corrupted-" in log


def test_unknown_checkout_exits_nonzero(tmp_path):
    """Without the program's sources the benchmark refuses to run."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "sim-shadow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
