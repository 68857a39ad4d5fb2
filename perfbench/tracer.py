"""In-memory span tracing for the traced benchmark runs.

Spans are recorded around the *public* calls into each layer of the
program, from the benchmark's side: the program itself is not edited.
Each span keeps its name, start, end, parent span and a request id that
all spans of one request share.  Spans stay in memory and are written as
JSONL once, at the end of the run.

A span's layer is the part of its name before the first dot
(``oram.access.plain`` belongs to ``oram``).  A layer's self time is the
summed duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter


class Tracer:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Stamp spans opened by this thread with request id ``rid``."""
        self._local.rid = rid

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [
            next(self._ids),
            name,
            perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            getattr(self._local, "rid", None),
        ]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def record(self, name: str, start: float, end: float, rid) -> list:
        """Add a finished root span measured elsewhere."""
        span = [next(self._ids), name, start, end, -1, rid]
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, rename=None):
        """``fn`` with a span around every call.

        ``rename(result)`` may return a more specific span name once the
        call has returned (for example to split accesses that evicted).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if rename is not None:
                span[1] = rename(result)
            return result

        return traced

    def wrap_method(self, cls, attr: str, name: str, rename=None) -> None:
        """Trace every call of ``cls.attr`` (a class-level patch)."""
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), rename))

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of the closed spans called ``name``."""
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[3]]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def self_times(self, by_name: bool = False) -> dict[str, float]:
        """Self time (seconds) per layer, or per span name, over every
        closed span: its duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[4] >= 0 and span[3]:
                child_time[span[4]] = (
                    child_time.get(span[4], 0.0) + span[3] - span[2]
                )
        out: dict[str, float] = {}
        for span in self.spans:
            if not span[3]:
                continue
            key = span[1] if by_name else span[1].split(".", 1)[0]
            own = span[3] - span[2] - child_time.get(span[0], 0.0)
            out[key] = out.get(key, 0.0) + own
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid,
                }, separators=(",", ":")))
                fh.write("\n")


class TimerProxy:
    """Times ``PathTimer.read``/``write`` (the class has ``__slots__``, so
    the controller's ``timer`` attribute is replaced by this proxy)."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._inner = inner
        self.read = tracer.wrap("mem.timer.read", inner.read)
        self.write = tracer.wrap("mem.timer.write", inner.write)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def percentile(values: list[float], q: float) -> float:
    """Exact nearest-rank percentile of raw samples (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
