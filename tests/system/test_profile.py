"""``repro profile``: host wall time per span phase, from one traced run.

The profile reads the same span trees ``trace analyze`` does, so a phase
that stops being emitted (a refactor that drops or renames a span site)
shows up here as a missing or zero row instead of a silently empty one.
"""

import json

import pytest

from repro import cli
from repro.analysis.spans_report import wall_attribution
from repro.cli import main
from repro.obs.spans import Span, SpanTrace
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

SMALL = ["--workload", "mcf", "--requests", "2000", "--levels", "8"]


def profile(tmp_path, *flags):
    path = tmp_path / "profile.json"
    assert main(["profile", *SMALL, *flags, "--json", str(path)]) == 0
    stages = json.loads(path.read_text())["stages"]
    return {name: stage["seconds"] for name, stage in stages.items()}


def trace(trace_id, root):
    return SpanTrace(trace_id=trace_id, core=-1, root=root)


class TestWallAttribution:
    def test_children_are_subtracted_from_parents(self):
        read = Span("path_read", 0, 1, wall_start=1.0, wall_end=3.0)
        access = Span("oram_access", 0, 1, wall_start=0.5, wall_end=4.0,
                      children=[read])
        root = Span("request", 0, 1, wall_start=0.0, wall_end=5.0,
                    children=[access])
        assert wall_attribution([trace(0, root)]) == {
            "request": 1.5, "oram_access": 1.5, "path_read": 2.0,
        }

    def test_nested_root_counts_once(self):
        # A timing-protection dummy is its own trace, but its wall time
        # passes inside the enclosing request's span.
        dummy = Span("dummy", 0, 1, wall_start=1.0, wall_end=2.0)
        stall = Span("stall", 0, 1, wall_start=2.0, wall_end=2.5)
        request = Span("request", 0, 1, wall_start=0.0, wall_end=3.0,
                       children=[stall])
        later = Span("request", 1, 2, wall_start=4.0, wall_end=4.5)
        walls = wall_attribution(
            [trace(1, dummy), trace(0, request), trace(2, later)]
        )
        assert walls == {"dummy": 1.0, "stall": 0.5, "request": 2.0}
        assert sum(walls.values()) == 3.5


class TestProfileStages:
    def test_shadow_run_attributes_controller_phases(self, tmp_path):
        seconds = profile(tmp_path, "--scheme", "dynamic-3")
        for phase in ("trace build", "outside spans", "request",
                      "oram_access", "path_read", "eviction_write",
                      "shadow_fill", "stash_scan"):
            assert seconds.get(phase, 0.0) > 0.0, (
                f"phase {phase!r} attributed no wall time"
            )
        assert "merkle" not in seconds
        assert "dummy" not in seconds

    def test_integrity_adds_merkle(self, tmp_path):
        seconds = profile(tmp_path, "--scheme", "dynamic-3", "--integrity")
        assert seconds.get("merkle", 0.0) > 0.0

    def test_timing_protection_adds_dummy(self, tmp_path):
        seconds = profile(tmp_path, "--scheme", "dynamic-3",
                          "--timing-protection")
        assert seconds.get("dummy", 0.0) > 0.0

    def test_insecure_config_has_no_oram_access(self, tmp_path):
        seconds = profile(tmp_path, "--scheme", "insecure")
        assert "oram_access" not in seconds
        assert seconds["request"] > 0.0
        assert seconds["trace build"] > 0.0

    @pytest.mark.parametrize("flags", [[], ["--timing-protection"]],
                             ids=["plain", "timing-protection"])
    def test_json_shares_sum_to_one(self, tmp_path, flags):
        path = tmp_path / "profile.json"
        assert main(["profile", *SMALL, *flags, "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        stages = payload["stages"]
        assert sum(s["share"] for s in stages.values()) == pytest.approx(1.0)
        assert sum(s["seconds"] for s in stages.values()) == pytest.approx(
            payload["host_seconds"]
        )
        # Dummies nest inside a request's wall interval; counting them
        # twice would push "outside spans" below zero.
        assert all(s["seconds"] >= 0.0 for s in stages.values())


class TestProfiledResult:
    @pytest.mark.parametrize("config", [
        SystemConfig.dynamic(3, oram=OramConfig(levels=8)),
        SystemConfig.dynamic(3, oram=OramConfig(levels=8))
        .with_timing_protection(800),
    ], ids=["dynamic-3", "dynamic-3-tp"])
    def test_result_equals_untraced_simulate(self, config, monkeypatch,
                                             capsys):
        untraced = simulate(config.with_(seed=5), "mcf", num_requests=2000,
                            seed=5)
        results = []
        run = cli.SystemSimulator.run

        def spy(sim, *args, **kwargs):
            results.append(run(sim, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli.SystemSimulator, "run", spy)
        flags = ["--timing-protection"] if config.timing.enabled else []
        assert main(["profile", *SMALL, "--scheme", "dynamic-3",
                     "--seed", "5", *flags]) == 0
        assert "outside spans" in capsys.readouterr().out
        assert results == [untraced]


class TestTraceAnalyzeWall:
    def test_wall_shares_sum_to_one(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(["run", *SMALL, "--timing-protection",
                     "--spans", str(spans)]) == 0
        capsys.readouterr()
        assert main(["trace", "analyze", str(spans), "--json"]) == 0
        phases = json.loads(capsys.readouterr().out)["phase_attribution"]
        assert sum(p["wall_share"] for p in phases.values()) == (
            pytest.approx(1.0)
        )
        assert all(p["exclusive_wall_s"] >= 0.0 for p in phases.values())
        assert phases["dummy"]["exclusive_wall_s"] > 0.0

    def test_table_has_wall_column(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(["run", *SMALL, "--spans", str(spans)]) == 0
        capsys.readouterr()
        assert main(["trace", "analyze", str(spans)]) == 0
        assert "exclusive wall s" in capsys.readouterr().out
