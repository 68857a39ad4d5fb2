"""Deterministic robustness tests for :class:`OramServer`.

Every test drives the server in-process over real sockets (port 0).  The
``dispatch_gate`` test seam pauses the dispatcher before each ORAM
access, making queue-depth-dependent behaviour (shedding, deadline
expiry, drain ordering) exactly reproducible instead of racy.
"""

import asyncio

import pytest

from repro.faults.injector import FaultPlan
from repro.faults.spec import ServerCrash
from repro.oram.config import OramConfig
from repro.serve import protocol
from repro.serve.server import OramServer, ServeSettings
from repro.shard.supervisor import ShardSettings, ShardSupervisor
from repro.system.config import SystemConfig


def small_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=8))


def run(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_settings(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_clients", 4)
    kwargs.setdefault("default_deadline_ms", None)
    return ServeSettings(**kwargs)


class Client:
    """Minimal raw-protocol test client."""

    def __init__(self, reader, writer, welcome):
        self.reader = reader
        self.writer = writer
        self.welcome = welcome

    @classmethod
    async def connect(cls, server, space=None):
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        hello = {"type": "hello", "client": "test"}
        if space is not None:
            hello["space"] = space
        writer.write(protocol.encode(hello))
        await writer.drain()
        welcome = protocol.decode(await reader.readline())
        return cls(reader, writer, welcome)

    async def send(self, message):
        self.writer.write(protocol.encode(message))
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    async def req(self, req_id, addr, op="read", **extra):
        await self.send(
            {"type": "req", "id": req_id, "op": op, "addr": addr, **extra}
        )
        return await self.recv()

    async def close(self):
        self.writer.close()


async def drain_and_stop(server):
    server.request_drain("test")
    await asyncio.wait_for(server._drained.wait(), 10)
    await server._shutdown()


class TestBasicServing:
    def test_serves_reads_and_writes(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            client = await Client.connect(server)
            assert client.welcome["type"] == "welcome"
            resp = await client.req(0, 3, op="write", value="v0")
            assert resp["status"] == protocol.STATUS_OK
            resp = await client.req(1, 3)
            assert resp["status"] == protocol.STATUS_OK
            assert resp["value"] == "v0"
            assert resp["latency_cycles"] > 0
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/served"] == 2
            assert stats["serve/admitted"] == 2

        run(main())

    def test_digest_message_matches_bridge(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            client = await Client.connect(server)
            for i in range(5):
                await client.req(i, i)
            await client.send({"type": "digest"})
            reply = await client.recv()
            assert reply["digest"] == server.bridge.state_digest()
            assert reply["served"] == 5
            await client.close()
            await drain_and_stop(server)

        run(main())

    def test_sessions_get_disjoint_slots_and_spaces(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            a = await Client.connect(server)
            b = await Client.connect(server)
            assert a.welcome["slot"] != b.welcome["slot"]
            assert a.welcome["base"] != b.welcome["base"]
            await a.close()
            await b.close()
            await drain_and_stop(server)

        run(main())

    def test_connections_past_max_clients_are_refused(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings(max_clients=1)
            )
            await server.start()
            keeper = await Client.connect(server)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode({"type": "hello"}))
            await writer.drain()
            reply = protocol.decode(await reader.readline())
            assert reply["type"] == "error"
            assert "full" in reply["error"]
            writer.close()
            await keeper.close()
            await drain_and_stop(server)
            assert server.stats_snapshot()["serve/sessions_refused"] == 1

        run(main())

    def test_malformed_request_is_rejected_not_fatal(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            client = await Client.connect(server)
            space = client.welcome["space"]
            resp = await client.req(0, space + 5)  # out of range
            assert resp["status"] == protocol.STATUS_ERROR
            # Session survives; a valid request still works.
            resp = await client.req(1, 0)
            assert resp["status"] == protocol.STATUS_OK
            await client.close()
            await drain_and_stop(server)

        run(main())


class TestOverload:
    def test_shed_past_highwater_with_exact_counts(self):
        async def main():
            server = OramServer(
                small_config(),
                seed=1,
                settings=make_settings(queue_depth=8, shed_highwater=4),
            )
            await server.start()
            server.dispatch_gate.clear()
            client = await Client.connect(server)
            for i in range(10):
                await client.send(
                    {"type": "req", "id": i, "op": "read", "addr": 0}
                )
            # Shed responses are written at admission time, before any
            # dispatch happens.
            statuses = {}
            for _ in range(6):
                resp = await client.recv()
                statuses[resp["id"]] = resp["status"]
                assert resp["status"] == protocol.STATUS_RETRY_AFTER
                assert resp["retry_after_ms"] > 0
            server.dispatch_gate.set()
            for _ in range(4):
                resp = await client.recv()
                statuses[resp["id"]] = resp["status"]
            assert sorted(statuses) == list(range(10))
            assert sum(
                1 for s in statuses.values() if s == protocol.STATUS_OK
            ) == 4
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/admitted"] == 4
            assert stats["serve/served"] == 4
            assert stats["serve/shed"] == 6
            assert server.bridge.served == 4

        run(main())

    def test_expired_requests_never_spend_an_oram_access(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            server.dispatch_gate.clear()
            client = await Client.connect(server)
            for i in range(5):
                await client.send(
                    {
                        "type": "req", "id": i, "op": "read", "addr": i,
                        "deadline_ms": 10,
                    }
                )
            await asyncio.sleep(0.08)  # let every deadline lapse
            server.dispatch_gate.set()
            for _ in range(5):
                resp = await client.recv()
                assert resp["status"] == protocol.STATUS_EXPIRED
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/expired"] == 5
            assert stats["serve/served"] == 0
            assert server.bridge.served == 0  # the whole point

        run(main())

    def test_accounting_identity(self):
        # admitted == served + expired + abandoned, shed never admitted.
        async def main():
            server = OramServer(
                small_config(),
                seed=1,
                settings=make_settings(queue_depth=8, shed_highwater=3),
            )
            await server.start()
            server.dispatch_gate.clear()
            client = await Client.connect(server)
            for i in range(8):
                await client.send(
                    {"type": "req", "id": i, "op": "read", "addr": 0}
                )
            await asyncio.sleep(0.02)
            server.dispatch_gate.set()
            for _ in range(8):
                await client.recv()
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/accepted"] == 8
            assert stats["serve/admitted"] == (
                stats["serve/served"]
                + stats["serve/expired"]
                + stats["serve/abandoned"]
            )
            assert (
                stats["serve/admitted"] + stats["serve/shed"]
                == stats["serve/accepted"]
            )

        run(main())


class TestDrain:
    def test_drain_completes_admitted_work_then_refuses(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            server.dispatch_gate.clear()
            client = await Client.connect(server)
            for i in range(3):
                await client.send(
                    {"type": "req", "id": i, "op": "read", "addr": i}
                )
            await asyncio.sleep(0.02)  # let admission consume the lines
            server.request_drain("test drain")
            await asyncio.sleep(0.02)
            await client.send(
                {"type": "req", "id": 99, "op": "read", "addr": 0}
            )
            server.dispatch_gate.set()
            statuses = {}
            for _ in range(4):
                resp = await client.recv()
                statuses[resp["id"]] = resp["status"]
            assert statuses[99] == protocol.STATUS_DRAINING
            assert all(
                statuses[i] == protocol.STATUS_OK for i in range(3)
            )
            await asyncio.wait_for(server._drained.wait(), 5)
            await server._shutdown()
            stats = server.stats_snapshot()
            assert stats["serve/served"] == 3
            assert server.drain_reason == "test drain"
            assert server.crashed is None

        run(main())

    def test_draining_server_refuses_new_sessions(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            client = await Client.connect(server)
            server.request_drain("closing")
            await asyncio.sleep(0.02)
            host, port = server.address
            with pytest.raises((ConnectionError, OSError)):
                late = await asyncio.open_connection(host, port)
                late[1].write(protocol.encode({"type": "hello"}))
                await late[1].drain()
                reply = protocol.decode(await late[0].readline())
                assert reply["type"] == "error"
                raise ConnectionError(reply["error"])
            await client.close()
            await asyncio.wait_for(server._drained.wait(), 5)
            await server._shutdown()

        run(main())

    def test_run_returns_exit_ok_after_drain(self):
        from repro.exit_codes import EXIT_OK

        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            run_task = asyncio.get_running_loop().create_task(
                server.run(install_signal_handlers=False)
            )
            while server.address is None:
                await asyncio.sleep(0.005)
            client = await Client.connect(server)
            assert (await client.req(0, 1))["status"] == protocol.STATUS_OK
            await client.send({"type": "shutdown"})
            assert (await client.recv())["type"] == "ok"
            await client.close()
            assert await asyncio.wait_for(run_task, 10) == EXIT_OK

        run(main())


class TestClientFailures:
    def test_abrupt_disconnect_does_not_kill_the_server(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            victim = await Client.connect(server)
            server.dispatch_gate.clear()
            for i in range(3):
                await victim.send(
                    {"type": "req", "id": i, "op": "read", "addr": i}
                )
            await asyncio.sleep(0.02)
            victim.writer.transport.abort()  # vanish mid-flight
            await asyncio.sleep(0.02)
            server.dispatch_gate.set()
            survivor = await Client.connect(server)
            resp = await survivor.req(0, 1)
            assert resp["status"] == protocol.STATUS_OK
            await survivor.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            # The victim's queued work was either abandoned before its
            # access or served into the void; either way the server kept
            # the accounting identity and lived on.
            assert stats["serve/admitted"] == (
                stats["serve/served"]
                + stats["serve/expired"]
                + stats["serve/abandoned"]
            )
            assert stats["serve/sessions_closed"] >= 1

        run(main())

    def test_slot_is_recycled_after_disconnect(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings(max_clients=1)
            )
            await server.start()
            first = await Client.connect(server)
            slot = first.welcome["slot"]
            await first.send({"type": "bye"})
            await asyncio.sleep(0.05)
            second = await Client.connect(server)
            assert second.welcome["slot"] == slot
            await second.close()
            await drain_and_stop(server)

        run(main())


def durable_fleet(state_dir, observer):
    """The default server's 1-shard fleet, kept in ``state_dir``."""
    return ShardSupervisor(
        small_config(), 1, state_dir,
        settings=ShardSettings(num_shards=1, checkpoint_every=5),
        observer=observer,
    )


class TestCrashRecovery:
    ADDRS = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]

    def crash_and_restore(self, tmp_path, crash_at):
        """Kill the server before access ``crash_at + 1``, restore, finish.

        Returns the restored run's final digest and adversary trace, the
        crashed run's trace, and an uninterrupted reference's digest and
        trace for the same access sequence.
        """
        addrs = self.ADDRS

        reference_trace = []
        reference = durable_fleet(
            tmp_path / "reference", reference_trace.append
        )
        reference.start()
        for addr in addrs:
            reference.access(addr, "read")
        reference.close()

        async def crashing_half():
            injector = FaultPlan(
                specs=(ServerCrash(at_access=crash_at, mode="exception"),)
            ).injector()
            server = OramServer(
                small_config(),
                seed=1,
                settings=make_settings(max_clients=1),
                injector=injector,
                bridge=durable_fleet(tmp_path / "fleet", first_trace.append),
            )
            await server.start()
            client = await Client.connect(server)
            served = 0
            for i, addr in enumerate(addrs):
                await client.send(
                    {"type": "req", "id": i, "op": "read", "addr": addr}
                )
                try:
                    resp = await asyncio.wait_for(client.recv(), 2)
                except (asyncio.TimeoutError, ConnectionError):
                    break
                assert resp["status"] == protocol.STATUS_OK
                served += 1
            await client.close()
            assert server.crashed is not None
            assert served == crash_at
            assert server.bridge.served == crash_at
            await server._shutdown()

        first_trace = []
        run(crashing_half())

        async def restored_half():
            server = OramServer(
                small_config(),
                seed=1,
                settings=make_settings(max_clients=1),
                restore=True,
                bridge=durable_fleet(tmp_path / "fleet", resumed_trace.append),
            )
            await server.start()
            assert server.bridge.served == crash_at
            client = await Client.connect(server)
            for i, addr in enumerate(addrs[crash_at:], start=crash_at):
                resp = await client.req(i, addr)
                assert resp["status"] == protocol.STATUS_OK
            await client.close()
            await drain_and_stop(server)
            assert server.stats_snapshot()["serve/restored"] == 1
            return server.bridge.state_digest()

        resumed_trace = []
        digest = run(restored_half())
        return (digest, first_trace, resumed_trace,
                reference.state_digest(), reference_trace)

    def test_crash_then_restore_is_bit_identical(self, tmp_path):
        """Kill at a checkpoint boundary, restore, finish: the ORAM state
        and the adversary trace match an uninterrupted run exactly."""
        digest, first, resumed, ref_digest, ref_trace = (
            self.crash_and_restore(tmp_path, crash_at=10)
        )
        # Bit-identity: same digest as the uninterrupted reference...
        assert digest == ref_digest
        # ...and the adversary-visible path sequence lines up: what the
        # restarted server emitted is exactly the reference's tail.
        assert resumed == ref_trace[len(first):]
        assert first == ref_trace[: len(first)]

    def test_crash_between_checkpoints_loses_nothing(self, tmp_path):
        """Kill two accesses past the last snapshot (checkpoint_every=5):
        the restore replays accesses 6-7 from the intent log, so the
        state and the post-restore trace still match the reference."""
        digest, first, resumed, ref_digest, ref_trace = (
            self.crash_and_restore(tmp_path, crash_at=7)
        )
        assert digest == ref_digest
        assert resumed == ref_trace[len(first):]
        assert first == ref_trace[: len(first)]

    def test_crash_sets_exit_code(self):
        from repro.exit_codes import EXIT_SERVE_FAILED

        async def main():
            injector = FaultPlan(
                specs=(ServerCrash(at_access=2, mode="exception"),)
            ).injector()
            server = OramServer(
                small_config(),
                seed=1,
                settings=make_settings(),
                injector=injector,
            )
            run_task = asyncio.get_running_loop().create_task(
                server.run(install_signal_handlers=False)
            )
            while server.address is None:
                await asyncio.sleep(0.005)
            client = await Client.connect(server)
            for i in range(3):
                await client.send(
                    {"type": "req", "id": i, "op": "read", "addr": i}
                )
            code = await asyncio.wait_for(run_task, 10)
            assert code == EXIT_SERVE_FAILED
            assert server.crashed is not None
            assert injector.fired() == ["server-crash@access2:exception"]
            await client.close()

        run(main())


class TestSettings:
    def test_highwater_defaults_to_three_quarters(self):
        settings = ServeSettings(queue_depth=100)
        assert settings.shed_highwater == 75

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_clients": 0},
            {"queue_depth": 0},
            {"queue_depth": 10, "shed_highwater": 11},
            {"queue_depth": 10, "shed_highwater": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeSettings(**kwargs)

    def test_default_space_is_the_oram_capacity(self):
        server = OramServer(small_config(), settings=make_settings())
        assert server.bridge.settings.num_shards == 1
        assert server.bridge.num_blocks == small_config().oram.num_blocks

    def test_oversubscribed_address_space_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            OramServer(
                small_config(),
                settings=make_settings(max_clients=4, client_space=10**6),
            )
