"""Distinguisher tests for the inter-shard dispatch stream.

The RRWP-k argument lifted to the shard links (DESIGN.md §11): under an
unpadded dispatch the slot stream mirrors the workload's shard-locality,
so two same-length request sequences are distinguishable; under padded
rounds the stream is the fixed round-robin whatever the requests are —
including across a crash-and-recover window, which must contribute zero
distinguishing advantage.
"""

from repro.faults.injector import FaultPlan
from repro.oram.config import OramConfig
from repro.security.adversary import ShardTraceObserver
from repro.security.distinguisher import shard_rrwp_rate, shard_trace_advantage
from repro.shard.supervisor import ShardSettings, ShardSupervisor
from repro.system.config import SystemConfig

SEED = 7
N_REQUESTS = 48


def small_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=6))


def traced_run(state_dir, addresses, injector=None, padded=True):
    trace = ShardTraceObserver()
    sup = ShardSupervisor(
        small_config(), seed=SEED, state_dir=state_dir,
        settings=ShardSettings(num_shards=3, degraded="deny",
                               checkpoint_every=16, padded=padded),
        injector=injector, trace=trace,
    )
    sup.start()
    for addr in addresses:
        sup.access(addr % sup.num_blocks, "read")
    sup.close()
    return sup, trace


def scan_addrs(n):
    return list(range(n))


def cyclic_addrs(n, cycle=2):
    return [i % cycle for i in range(n)]


class TestPaddedIndistinguishability:
    def test_crash_and_recover_trace_equals_clean_trace(self, tmp_path):
        _, clean = traced_run(tmp_path / "clean", scan_addrs(N_REQUESTS))
        injector = FaultPlan.parse(
            ["shard-crash:shard=1,at_access=20"], seed=0
        ).injector(in_worker=False)
        crashed_sup, crashed = traced_run(
            tmp_path / "crashed", scan_addrs(N_REQUESTS), injector=injector
        )
        assert crashed_sup.recoveries == 1  # the fault really fired
        assert crashed.events == clean.events
        assert shard_trace_advantage(
            clean.shard_stream(), crashed.shard_stream(), num_shards=3
        ) == 0.0

    def test_workloads_are_indistinguishable_when_padded(self, tmp_path):
        _, scan = traced_run(tmp_path / "scan", scan_addrs(N_REQUESTS))
        _, cyclic = traced_run(tmp_path / "cyc", cyclic_addrs(N_REQUESTS))
        assert shard_trace_advantage(
            scan.shard_stream(), cyclic.shard_stream(), num_shards=3
        ) == 0.0
        # The padded slot stream is the fixed round-robin, so its RRWP-k
        # rate is a workload-independent constant.
        assert shard_rrwp_rate(scan.shard_stream(), k=3) == shard_rrwp_rate(
            cyclic.shard_stream(), k=3
        )

    def test_padded_round_touches_all_shards_in_order(self, tmp_path):
        _, trace = traced_run(tmp_path / "t", scan_addrs(6))
        for round_no in range(6):
            slots = [s for r, s in trace.events if r == round_no]
            assert slots == [0, 1, 2]


class TestUnpaddedBaselineLeaks:
    def test_unpadded_dispatch_is_distinguishable(self, tmp_path):
        _, scan = traced_run(
            tmp_path / "scan", scan_addrs(N_REQUESTS), padded=False
        )
        _, cyclic = traced_run(
            tmp_path / "cyc", cyclic_addrs(N_REQUESTS), padded=False
        )
        assert shard_trace_advantage(
            scan.shard_stream(), cyclic.shard_stream(), num_shards=3
        ) > 0.0

    def test_rrwp_rate_separates_hot_from_scan(self, tmp_path):
        _, scan = traced_run(
            tmp_path / "scan", scan_addrs(N_REQUESTS), padded=False
        )
        _, cyclic = traced_run(
            tmp_path / "cyc", cyclic_addrs(N_REQUESTS, cycle=1),
            padded=False,
        )
        # A single hot address re-addresses its shard on every slot but
        # the first (the window starts empty).
        assert shard_rrwp_rate(cyclic.shard_stream(), k=4) == (
            (N_REQUESTS - 1) / N_REQUESTS
        )
        assert shard_rrwp_rate(cyclic.shard_stream(), k=4) > shard_rrwp_rate(
            scan.shard_stream(), k=4
        )


class TestAdvantageMetric:
    def test_identical_streams_have_zero_advantage(self):
        stream = [0, 1, 2] * 30
        assert shard_trace_advantage(stream, list(stream), 3) == 0.0

    def test_length_mismatch_is_a_distinguisher(self):
        assert shard_trace_advantage([0, 1, 2], [0, 1], 3) == 1.0

    def test_windowed_divergence_is_detected(self):
        a = [0, 1, 2] * 30
        b = [0, 1, 2] * 20 + [0, 0, 0] * 10
        assert shard_trace_advantage(a, b, 3, window=10) > 0.0

    def test_empty_stream_rate_is_zero(self):
        assert shard_rrwp_rate([], k=4) == 0.0
