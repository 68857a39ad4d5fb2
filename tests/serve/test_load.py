"""Load-generator tests: schedule determinism, retries, client faults."""

import asyncio

from repro.faults.injector import FaultPlan
from repro.faults.spec import ClientDisconnect, SlowClient
from repro.oram.config import OramConfig
from repro.serve.load import LoadGenerator, LoadSettings
from repro.serve.server import OramServer, ServeSettings
from repro.system.config import SystemConfig


def small_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=8))


def run(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def with_server(load_settings, injector=None, **server_kwargs):
    server = OramServer(
        small_config(),
        seed=1,
        settings=ServeSettings(port=0, max_clients=8),
        **server_kwargs,
    )
    await server.start()
    load_settings.port = server.address[1]
    report = await LoadGenerator(load_settings, injector=injector).run()
    server.request_drain("test over")
    await asyncio.wait_for(server._drained.wait(), 10)
    await server._shutdown()
    return report, server


class TestSchedule:
    def test_same_seed_same_schedule(self):
        settings = LoadSettings(requests=50, seed=42)
        a = LoadGenerator(settings).build_schedule()
        b = LoadGenerator(settings).build_schedule()
        assert [(s.at, s.client, s.addr, s.op) for s in a] == [
            (s.at, s.client, s.addr, s.op) for s in b
        ]

    def test_different_seed_differs(self):
        a = LoadGenerator(LoadSettings(requests=50, seed=1)).build_schedule()
        b = LoadGenerator(LoadSettings(requests=50, seed=2)).build_schedule()
        assert [s.addr for s in a] != [s.addr for s in b]

    def test_arrivals_are_monotonic_open_loop(self):
        schedule = LoadGenerator(
            LoadSettings(requests=100, rate=500.0)
        ).build_schedule()
        times = [s.at for s in schedule]
        assert times == sorted(times)
        assert times[-1] > 0

    def test_write_fraction_respected(self):
        schedule = LoadGenerator(
            LoadSettings(requests=2000, write_frac=0.3, seed=5)
        ).build_schedule()
        writes = sum(1 for s in schedule if s.op == "write")
        assert 0.25 < writes / len(schedule) < 0.35
        assert all(
            (s.value is not None) == (s.op == "write") for s in schedule
        )


class TestAgainstServer:
    def test_report_counts_and_percentiles(self):
        report, server = run(
            with_server(
                LoadSettings(clients=3, requests=60, rate=1500.0, seed=3)
            )
        )
        assert report["sent"] == 60
        assert report["served"] == 60
        assert (
            report["served"] + report["expired"] + report["rejected"]
            + report["gave_up"] == report["sent"]
        )
        assert report["latency_ms_p50"] > 0
        assert (
            report["latency_ms_p50"]
            <= report["latency_ms_p95"]
            <= report["latency_ms_p99"]
        )
        assert report["throughput_rps"] > 0
        assert server.stats_snapshot()["serve/served"] == 60

    def test_client_disconnect_fault_recovers_via_retry(self):
        injector = FaultPlan(
            specs=(ClientDisconnect(at_request=5),), seed=0
        ).injector()
        report, server = run(
            with_server(
                LoadSettings(
                    clients=2, requests=30, rate=1500.0, seed=4, retries=4
                ),
                injector=injector,
            )
        )
        assert "client-disconnect@req5" in injector.fired()
        assert report["reconnects"] >= 1
        # The aborted attempt is retried on a fresh connection; nothing
        # is lost from the client's point of view.
        assert report["served"] == 30
        assert report["gave_up"] == 0

    def test_slow_client_fault_stalls_then_completes(self):
        injector = FaultPlan(
            specs=(SlowClient(at_request=3, stall_s=0.2),), seed=0
        ).injector()
        report, _ = run(
            with_server(
                LoadSettings(
                    clients=1, requests=10, rate=2000.0, seed=7,
                    timeout_s=5.0,
                ),
                injector=injector,
            )
        )
        assert "slow-client@req3:0.2s" in injector.fired()
        assert report["served"] == 10

    def test_unreachable_server_gives_up_after_retries(self):
        async def main():
            settings = LoadSettings(
                clients=1, requests=2, rate=1000.0, port=1,
                retries=1, backoff_s=0.01, timeout_s=0.5,
            )
            return await LoadGenerator(settings).run()

        report = run(main())
        assert report["served"] == 0
        assert report["gave_up"] == 2
        assert report["disconnects"] > 0
