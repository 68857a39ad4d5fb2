"""The benchmark's open-loop load generator and server lifecycle.

The generator speaks ``repro.serve.protocol`` from one process and one
thread (asyncio), over at most ``nproc`` connections.  Each phase has a
precomputed, seeded Poisson schedule; every request is timed from the
moment it was *due*, so a stall also counts against the requests queued
behind it, and the generator's own lateness (send minus due) is kept.
Percentiles come from the raw samples.  Nothing is retried: every
response other than ``ok`` is a failure.  While a phase sends, the
generator polls rather than sleeps, and an idle-priority busy loop keeps
the server's CPUs awake (:func:`start_waker`), so that neither end pays
a varying host wake-up delay per request.

Reads are checked per connection: a read must return the value of the
last earlier write to that address on the same connection (the server
serves one session's requests in order), or ``None`` before any write.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.serve import protocol
from repro.workloads.generator import ZipfSampler

from tracer import percentile


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class ServerError(RuntimeError):
    """The server did not start, or did not stop cleanly."""


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    setup_s: float
    log_path: Path

    def rss_mb(self) -> float:
        """Peak RSS of the server plus every live descendant (VmHWM)."""
        return sum(_vm_hwm_kb(pid) for pid in descendants(self.proc.pid)) / 1024

    def stop(self, timeout: float = 60.0) -> int:
        """Ask for a graceful drain; kill the process group if it hangs."""
        if self.proc.poll() is None:
            try:
                asyncio.run(_send_shutdown(self.host, self.port))
            except (OSError, asyncio.TimeoutError):
                pass
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_group(self.proc)
            raise ServerError(f"server did not drain within {timeout:.0f}s")


def start_waker(cpus: set[int]) -> subprocess.Popen | None:
    """A busy loop at the lowest priority on the server's CPUs.

    It runs only when nothing else on those CPUs wants to, and keeps the
    virtual CPUs from halting between requests: waking a halted vCPU
    goes through the host, whose load then shows up as a varying share
    of every open-loop latency.  The loop is ``SCHED_IDLE`` inside its
    own session, and that session's scheduling group gets nice 19, so it
    takes no more than about 1.5% of a CPU the server wants.  Returns
    ``None`` (no waker) where the group's priority cannot be lowered.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", "while True: pass"], start_new_session=True,
    )
    try:
        os.sched_setaffinity(proc.pid, cpus)
        os.sched_setscheduler(proc.pid, os.SCHED_IDLE, os.sched_param(0))
        group = Path(f"/proc/{proc.pid}/autogroup")
        if group.exists():
            group.write_text("19")
    except OSError:
        kill_group(proc)
        return None
    except BaseException:
        kill_group(proc)
        raise
    return proc


def kill_group(proc: subprocess.Popen) -> None:
    """Kill ``proc``'s whole process group and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def start_server(cmd: list[str], env: dict, cwd: Path, log_path: Path,
                 cpus: set[int] | None = None, timeout: float = 60.0) -> Server:
    """Launch ``cmd`` and wait for its ``listening on host:port`` line.

    ``setup_s`` is process start to accepting connections, including the
    interpreter start, the import, the ORAM build and any worker spawn.
    ``cpus`` pins the server (and so its workers) to those CPUs.
    """
    log = open(log_path, "w", encoding="utf-8")
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=log,
        text=True, start_new_session=True,
    )
    if cpus:
        # Threads and worker processes started later inherit this.
        os.sched_setaffinity(proc.pid, cpus)
    deadline = t0 + timeout
    try:
        for line in proc.stdout:
            log.write(line)
            if line.startswith("listening on "):
                setup_s = perf_counter() - t0
                host, port = line.split()[2].rsplit(":", 1)
                break
            if perf_counter() > deadline:
                raise ServerError("server start timed out")
        else:
            raise ServerError(f"server exited early (see {log_path})")
    except BaseException:
        kill_group(proc)
        log.close()
        raise
    # Keep draining stdout so the server never blocks on a full pipe.
    _drain_async(proc, log)
    return Server(proc, host, int(port), setup_s, log_path)


def _drain_async(proc: subprocess.Popen, log) -> None:
    import threading

    def pump() -> None:
        for line in proc.stdout:
            log.write(line)
        log.close()

    threading.Thread(target=pump, daemon=True).start()


async def _send_shutdown(host: str, port: int) -> None:
    async def ask() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(protocol.encode({"type": "hello", "client": "perfbench-stop"}))
        await reader.readline()
        writer.write(protocol.encode({"type": "shutdown"}))
        await writer.drain()
        await reader.readline()
        writer.close()

    await asyncio.wait_for(ask(), timeout=30.0)


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        cur = todo.pop()
        out.append(cur)
        todo.extend(children.get(cur, []))
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Request:
    """One scheduled request and what became of it."""

    rid: int
    offset: float
    conn: int
    addr: int
    op: str
    value: str | None
    due: float = 0.0
    send: float = 0.0
    recv: float = 0.0
    status: str = "timeout"
    server_ms: float = 0.0
    expect: object = None  # the earlier write a read must observe


def make_schedule(rng: random.Random, first_rid: int, count: int,
                  rate: float, conns: int, space: int, alpha: float,
                  write_frac: float) -> list[Request]:
    """A seeded open-loop Poisson schedule of ``count`` requests."""
    sampler = ZipfSampler(space, alpha) if alpha > 0 else None
    out, at = [], 0.0
    for i in range(count):
        at += rng.expovariate(rate)
        addr = sampler.sample(rng) if sampler else rng.randrange(space)
        write = rng.random() < write_frac
        rid = first_rid + i
        out.append(Request(
            rid=rid, offset=at, conn=rng.randrange(conns), addr=addr,
            op="write" if write else "read",
            value=f"v{rid}" if write else None,
        ))
    return out


# ----------------------------------------------------------------------
# The wire client
# ----------------------------------------------------------------------
@dataclass
class Conn:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    space: int
    pending: dict = field(default_factory=dict)
    last_write: dict = field(default_factory=dict)
    task: asyncio.Task | None = None


class WireClient:
    """Open-loop client over a fixed set of connections."""

    def __init__(self, host: str, port: int, deadline_ms: float) -> None:
        self.host = host
        self.port = port
        self.deadline_ms = deadline_ms
        self.conns: list[Conn] = []
        self.bytes_out = 0
        self.bytes_in = 0
        self.wrong_reads: list[str] = []
        self.corrupt_next_read = False
        self._idle = asyncio.Event()
        self._on_done = None

    async def connect(self, count: int) -> None:
        for i in range(count):
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=protocol.MAX_LINE_BYTES * 4
            )
            self._write(writer, {"type": "hello", "client": f"perfbench-{i}"})
            welcome = protocol.decode(await reader.readline())
            if welcome.get("type") != "welcome":
                raise ConnectionError(f"server refused connection: {welcome}")
            conn = Conn(reader, writer, welcome["space"])
            conn.task = asyncio.get_running_loop().create_task(
                self._read_loop(conn)
            )
            self.conns.append(conn)

    def _write(self, writer: asyncio.StreamWriter, message: dict) -> None:
        line = protocol.encode(message)
        self.bytes_out += len(line)
        writer.write(line)

    async def _read_loop(self, conn: Conn) -> None:
        while True:
            line = await conn.reader.readline()
            if not line:
                return
            now = perf_counter()
            self.bytes_in += len(line)
            message = protocol.decode(line)
            req = conn.pending.pop(message.get("id"), None)
            if req is None:
                continue
            req.recv = now
            req.status = message.get("status", "error")
            req.server_ms = float(message.get("latency_ms", 0.0))
            if req.op == "read" and req.status == protocol.STATUS_OK:
                self._check_read(req, message.get("value"))
            if self._on_done is not None:
                self._on_done(req)
            if not any(c.pending for c in self.conns):
                self._idle.set()

    def _check_read(self, req: Request, value: object) -> None:
        if self.corrupt_next_read:
            self.corrupt_next_read = False
            value = f"corrupted-{value}"
        write = req.expect
        if write is None:
            expected = None
        elif write.status == protocol.STATUS_OK:
            expected = write.value
        else:
            return  # the earlier write failed: nothing to check against
        if value != expected:
            self.wrong_reads.append(
                f"read rid={req.rid} addr={req.addr}: got {value!r}, "
                f"expected {expected!r}"
            )

    async def run_phase(self, schedule: list[Request],
                        drain_timeout: float) -> list[Request]:
        """Send ``schedule`` open loop; wait for every response.

        The generator's own garbage collection is paused for the phase so
        its pauses do not show up as server latency.
        """
        gc.collect()
        gc.disable()
        try:
            return await self._run_phase(schedule, drain_timeout)
        finally:
            gc.enable()

    async def _run_phase(self, schedule: list[Request],
                         drain_timeout: float) -> list[Request]:
        loop_sleep = asyncio.sleep
        t0 = perf_counter() + 0.01
        n = len(schedule)
        i = 0
        while i < n:
            now = perf_counter()
            due = t0 + schedule[i].offset
            if due > now:
                # Poll instead of sleeping: the event loop sleeps in whole
                # milliseconds, and an idle vCPU wakes late, which would
                # show as generator lag in every latency.
                await loop_sleep(0)
                continue
            while i < n and t0 + schedule[i].offset <= now:
                self._send(schedule[i], t0)
                i += 1
            await loop_sleep(0)
        end = perf_counter() + drain_timeout
        while any(c.pending for c in self.conns):
            self._idle.clear()
            try:
                await asyncio.wait_for(
                    self._idle.wait(), max(0.0, end - perf_counter())
                )
            except asyncio.TimeoutError:
                for conn in self.conns:
                    conn.pending.clear()
        return schedule

    def _send(self, req: Request, t0: float) -> None:
        conn = self.conns[req.conn]
        req.due = t0 + req.offset
        message = {
            "type": "req", "id": req.rid, "op": req.op, "addr": req.addr,
            "deadline_ms": self.deadline_ms,
        }
        if req.op == "write":
            message["value"] = req.value
            conn.last_write[req.addr] = req
        else:
            req.expect = conn.last_write.get(req.addr)
        conn.pending[req.rid] = req
        req.send = perf_counter()
        self._write(conn.writer, message)

    async def saturate(self, schedule: list[Request], window: int,
                       drain_timeout: float) -> float:
        """Keep ``window`` requests in flight per connection until
        ``schedule`` is done; returns the completed requests per second."""
        sems = [asyncio.Semaphore(window) for _ in self.conns]
        self._on_done = lambda req: sems[req.conn].release()
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            for req in schedule:
                await asyncio.wait_for(sems[req.conn].acquire(), drain_timeout)
                self._send(req, perf_counter() - req.offset)
            await self._run_phase([], drain_timeout)
            elapsed = perf_counter() - t0
        finally:
            gc.enable()
            self._on_done = None
        done = sum(1 for r in schedule if r.status == protocol.STATUS_OK)
        return done / elapsed

    async def stats(self) -> dict:
        """The server's ``stats`` reply, over a short-lived connection."""
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=64 * 1024 * 1024
        )
        writer.write(protocol.encode({"type": "hello", "client": "perfbench-stats"}))
        await reader.readline()
        writer.write(protocol.encode({"type": "stats"}))
        reply = json.loads(await reader.readline())
        writer.close()
        return reply

    async def close(self) -> None:
        for conn in self.conns:
            self._write(conn.writer, {"type": "bye"})
            conn.writer.close()
            if conn.task is not None:
                conn.task.cancel()


# ----------------------------------------------------------------------
# Phase summaries
# ----------------------------------------------------------------------
def summarize(schedule: list[Request], rate: float) -> dict:
    """Latency from due time, failures and generator lag of one phase."""
    ok = [r for r in schedule if r.status == protocol.STATUS_OK]
    lat = [(r.recv - r.due) * 1e3 for r in ok]
    failed = len(schedule) - len(ok)
    span = (
        max(r.recv for r in ok) - schedule[0].due if ok else float("inf")
    )
    return {
        "rate": rate,
        "attempted": len(schedule),
        "failed": failed,
        "statuses": dict(Counter(r.status for r in schedule if r.status != "ok")),
        "lat_ms": lat,
        "p50_ms": percentile(lat, 50),
        "p99_ms": percentile(lat, 99),
        "samples": len(lat),
        "achieved_rps": len(ok) / span if span > 0 else 0.0,
        "gen_lag_ms_p99": percentile(
            [(r.send - r.due) * 1e3 for r in schedule], 99
        ),
        "net_ms": [
            (r.recv - r.send) * 1e3 - r.server_ms for r in ok
        ],
    }


def chunk_rates(schedule: list[Request], chunk: int) -> list[float]:
    """Responses per second over consecutive runs of ``chunk`` responses.

    The median of these is the batch's throughput with a short host
    stall confined to the few chunks it hits.
    """
    t = sorted(r.recv for r in schedule if r.status == protocol.STATUS_OK)
    chunk = max(1, min(chunk, (len(t) - 1) // 2))  # tiny batches: two chunks
    return [
        chunk / (t[i + chunk] - t[i])
        for i in range(0, len(t) - chunk, chunk) if t[i + chunk] > t[i]
    ]


def write_client_spans(path: Path, phases: list[list[Request]]) -> None:
    """The generator's spans of a traced run, as JSONL.

    Each request gives ``client.request`` (due to response) with a child
    ``client.wire`` (send to response).  The request id is the wire id the
    server's spans carry too, and ``perf_counter`` is the system-wide
    monotonic clock, so the server's spans of a request nest inside its
    ``client.wire`` span.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for req in (r for phase in phases for r in phase if r.recv):
            for sid, name, start, parent in (
                (2 * req.rid, "client.request", req.due, -1),
                (2 * req.rid + 1, "client.wire", req.send, 2 * req.rid),
            ):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": req.recv,
                    "parent": parent, "rid": req.rid,
                }, separators=(",", ":")) + "\n")


def wait_gone(pids: list[int], timeout: float = 10.0) -> None:
    """Wait until every pid in ``pids`` has exited (grandchildren too)."""
    end = time.monotonic() + timeout
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < end:
            try:
                with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                    if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.05)

