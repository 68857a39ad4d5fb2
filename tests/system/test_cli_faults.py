"""CLI tests for fault-tolerant sweeps and the faults subcommand."""

import pytest

from repro.cli import EXIT_SWEEP_FAILED, main
from repro.exit_codes import EXIT_USAGE

FAST = [
    "--workloads", "mcf", "--schemes", "tiny", "--requests", "600",
    "--levels", "8",
]


class TestFaultsCommand:
    def test_list_prints_taxonomy(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for kind in ("worker-crash", "worker-hang", "cache-corrupt",
                     "cache-os-error", "stash-pressure", "bit-flip",
                     "posmap-corrupt"):
            assert kind in out

    def test_no_action_exits(self):
        with pytest.raises(SystemExit):
            main(["faults"] + FAST)

    def test_bad_spec_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--inject", "solar-flare@9"] + FAST)
        assert exc.value.code == EXIT_USAGE
        assert "bad --inject" in capsys.readouterr().err

    def test_crash_inject_run(self, capsys):
        code = main(
            ["faults", "--inject", "worker-crash@0", "--retries", "1",
             "--no-cache"] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retried" in out
        assert "runtime invariants" in out

    def test_unrecovered_crash_returns_failure_code(self, capsys):
        code = main(
            ["faults", "--inject", "worker-crash@0", "--no-cache"] + FAST
        )
        assert code == EXIT_SWEEP_FAILED
        assert "failed" in capsys.readouterr().out


class TestCorruptionRecovery:
    def test_bit_flip_detected_and_recovered(self, capsys):
        code = main(
            ["faults", "--inject", "bit-flip:at_access=3", "--no-cache",
             "--scrub-interval", "1"] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "enabling --integrity" in out
        assert "bit-flip@access3" in out
        assert "recovery (recover): 1 corruption(s) detected, 1 recovered" in out

    def test_bit_flip_under_raise_policy_aborts(self, capsys):
        code = main(
            ["faults", "--inject", "bit-flip:at_access=3", "--no-cache",
             "--scrub-interval", "1", "--recovery-policy", "raise"] + FAST
        )
        out = capsys.readouterr().out
        assert code == EXIT_SWEEP_FAILED
        assert "IntegrityError" in out
        assert "integrity layer aborted the run" in out

    def test_posmap_corrupt_inject_runs_clean(self, capsys):
        code = main(
            ["faults", "--inject", "posmap-corrupt:at_access=3", "--no-cache",
             "--scrub-interval", "1"] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "posmap-corrupt@access3" in out
        assert "posmap repair(s)" in out


class TestSweepFaultFlags:
    def test_sweep_accepts_robustness_flags(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(
            ["sweep", "--cache-dir", cache_dir, "--timeout", "60",
             "--retries", "2", "--backoff", "0.1", "--jobs", "1"] + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep report:" in out
        assert (tmp_path / "cache" / "sweep-ledger.jsonl").exists()

    def test_sweep_resume_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--cache-dir", cache_dir] + FAST) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--cache-dir", cache_dir, "--resume"] + FAST
        ) == 0
        out = capsys.readouterr().out
        assert "cached" in out

    def test_resume_without_cache_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--no-cache", "--resume"] + FAST)
        assert exc.value.code == EXIT_USAGE
        assert "--resume needs" in capsys.readouterr().err
