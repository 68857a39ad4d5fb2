"""Determinism and durability contract of :class:`OramServeBridge`."""

import pytest

from repro.oram.config import OramConfig
from repro.serve.scheduler_bridge import OramServeBridge
from repro.system.config import SystemConfig


def small_config(**kwargs):
    return SystemConfig.dynamic(3, oram=OramConfig(levels=8), **kwargs)


def drive(bridge, addrs, op="read"):
    return [bridge.access(addr, op) for addr in addrs]


class TestAccess:
    def test_sequence_is_deterministic(self):
        addrs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        a = OramServeBridge(small_config(), seed=7)
        b = OramServeBridge(small_config(), seed=7)
        ra = drive(a, addrs)
        rb = drive(b, addrs)
        assert [r.finish for r in ra] == [r.finish for r in rb]
        assert [r.served_from for r in ra] == [r.served_from for r in rb]
        assert a.state_digest() == b.state_digest()

    def test_clock_and_served_advance(self):
        bridge = OramServeBridge(small_config(), seed=1)
        before = bridge.clock
        result = bridge.access(0, "read")
        assert bridge.served == 1
        assert bridge.clock >= before
        assert result.latency_cycles >= 0

    def test_write_read_roundtrip(self):
        bridge = OramServeBridge(small_config(), seed=1)
        bridge.access(5, "write", payload="hello")
        result = bridge.access(5, "read")
        assert result.value == "hello"

    def test_insecure_config_rejected(self):
        config = SystemConfig.insecure_system(oram=OramConfig(levels=8))
        with pytest.raises(ValueError, match="insecure"):
            OramServeBridge(config, seed=1)

    def test_seed_changes_digest(self):
        a = OramServeBridge(small_config(), seed=1)
        b = OramServeBridge(small_config(), seed=2)
        drive(a, [0, 1, 2])
        drive(b, [0, 1, 2])
        assert a.state_digest() != b.state_digest()


class TestDurability:
    def test_snapshot_restore_resumes_bit_identical(self):
        addrs = list(range(20)) + [2, 4, 6, 8] * 3
        reference = OramServeBridge(small_config(), seed=3)
        drive(reference, addrs)

        first = OramServeBridge(small_config(), seed=3)
        drive(first, addrs[:12])
        state = first.snapshot_state()

        resumed = OramServeBridge(small_config(), seed=3)
        resumed.restore_state(state)
        assert resumed.served == 12
        tail_a = drive(resumed, addrs[12:])
        tail_b = drive(first, addrs[12:])
        assert [r.finish for r in tail_a] == [r.finish for r in tail_b]
        assert resumed.state_digest() == reference.state_digest()

    def test_snapshot_is_json_safe(self):
        import json

        bridge = OramServeBridge(small_config(), seed=1)
        bridge.access(3, "write", payload="payload")
        drive(bridge, [0, 1, 2])
        json.dumps(bridge.snapshot_state())
