"""Per-request tracing: the request-level fields of span traces.

A :class:`~repro.obs.spans.SpanTracer` on the bus annotates each trace
with the :class:`~repro.obs.events.RequestCompleted` of the access it
wraps (address, op, serving source, issue/data-ready/finish times,
latency, eviction), and ``write_jsonl`` / ``load_traces`` round-trip them.
"""

import io
import json
from collections import Counter
from random import Random

from repro.analysis.spans_report import analyze
from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.mem.dram import DramConfig, DramModel
from repro.obs.events import (
    EventBus,
    RequestCompleted,
    SpanFinished,
    SpanStarted,
)
from repro.obs.spans import SpanTracer, load_traces
from repro.oram.config import OramConfig

CFG = OramConfig(levels=6, utilization=0.25, stash_capacity=200)


def traced_controller(seed=4):
    bus = EventBus()
    tracer = SpanTracer(bus)
    ctl = ShadowOramController(
        CFG, Random(seed), ShadowConfig.static(3),
        dram=DramModel(DramConfig(), CFG.levels, CFG.z), bus=bus,
    )
    return tracer, ctl


def drive(ctl, n, seed=5, write_frac=0.2):
    """Issue ``n`` back-to-back accesses; return their ``AccessResult``s."""
    rng = Random(seed)
    results = []
    now = 0.0
    for i in range(n):
        op = "write" if rng.random() < write_frac else "read"
        result = ctl.access(
            rng.randrange(ctl.num_blocks), op,
            payload=i if op == "write" else None, now=now,
        )
        results.append(result)
        now = result.finish
    return results


def make_tracer(n=300, seed=4):
    tracer, ctl = traced_controller(seed)
    drive(ctl, n, seed=seed + 1)
    return tracer


def served_from_histogram(traces):
    return Counter(t.served_from for t in traces)


class TestTracer:
    def test_one_record_per_request(self):
        tracer = make_tracer(200)
        assert len(tracer) == 200
        assert [t.trace_id for t in tracer.traces] == list(range(200))
        assert all(t.annotated for t in tracer.traces)

    def test_latency_and_ordering(self):
        tracer = make_tracer(200)
        assert any(t.latency > 0 for t in tracer.traces)
        for trace in tracer.traces:
            assert trace.latency == trace.data_ready - trace.issue >= 0
            assert trace.finish >= trace.data_ready >= trace.issue
        finishes = [t.finish for t in tracer.traces]
        assert finishes == sorted(finishes)

    def test_histogram_covers_all_sources(self):
        tracer = make_tracer(400)
        hist = served_from_histogram(tracer.traces)
        assert sum(hist.values()) == 400
        assert "path" in hist
        assert "" not in hist

    def test_advanced_fraction_in_unit_range(self):
        """Some but not all requests are advanced by a shadow on the path."""
        tracer = make_tracer(300)
        advanced = served_from_histogram(tracer.traces)["shadow_path"]
        assert 0 < advanced / len(tracer) < 1

    def test_empty_tracer_stats(self):
        tracer = SpanTracer(EventBus())
        assert len(tracer) == 0
        report = analyze(tracer.traces)
        assert report["traces"] == 0
        assert report["phase_attribution"] == {}
        assert report["latency_by_source"] == {}


def label(op, served_from):
    """The ``served_from`` a trace gets from one ``RequestCompleted``."""
    bus = EventBus()
    tracer = SpanTracer(bus)
    bus.emit(SpanStarted(name="request", ts=0.0))
    bus.emit(RequestCompleted(
        addr=3 if op != "dummy" else -1, op=op, served_from=served_from,
        issue=0.0, data_ready=10.0, finish=20.0, evicted=False,
        path_accesses=1, core=-1,
    ))
    bus.emit(SpanFinished(name="request", ts=20.0))
    (trace,) = tracer.traces
    return trace.served_from


class TestServedFromLabeling:
    def test_real_request_without_source_is_unknown_not_dummy(self):
        assert label("read", None) == "unknown"

    def test_dummy_request_is_labelled_dummy(self):
        assert label("dummy", None) == "dummy"

    def test_real_source_passes_through(self):
        assert label("read", "path") == "path"


class TestBusSubscriber:
    def test_tracer_records_via_bus(self):
        tracer, ctl = traced_controller()
        rng = Random(5)
        for _ in range(150):
            ctl.access(rng.randrange(ctl.num_blocks))
        assert len(tracer) == 150
        assert sum(served_from_histogram(tracer.traces).values()) == 150
        for trace in tracer.traces:
            assert trace.finish >= trace.data_ready >= trace.issue

    def test_bus_tracer_matches_manual_tracer(self):
        """Each trace's annotation equals the controller's own result."""
        tracer, ctl = traced_controller()
        results = drive(ctl, 100)
        assert [
            (t.addr, t.op, t.served_from, t.issue, t.data_ready, t.finish,
             t.evicted)
            for t in tracer.traces
        ] == [
            (r.addr, r.op, r.served_from, r.issue, r.data_ready, r.finish,
             r.evicted)
            for r in results
        ]


def round_trip(tracer):
    buffer = io.StringIO()
    tracer.write_jsonl(buffer)
    buffer.seek(0)
    return buffer.getvalue(), load_traces(buffer)


class TestJsonlRoundTrip:
    def test_write_and_read_back(self):
        tracer = make_tracer(150)
        _, reloaded = round_trip(tracer)
        assert len(reloaded) == len(tracer)
        for a, b in zip(tracer.traces, reloaded):
            assert (a.addr, a.op, a.served_from, a.evicted) == (
                b.addr, b.op, b.served_from, b.evicted
            )
            assert a.latency == b.latency

    def test_jsonl_has_meta_line(self):
        tracer = make_tracer(5)
        text, _ = round_trip(tracer)
        meta = json.loads(text.splitlines()[0])["meta"]
        assert meta == {"sample_every": 1, "traces": 5, "dropped": 0}

    def test_shadow_duplication_run_round_trips(self):
        """Shadow-sourced traces survive the JSONL round-trip exactly.

        A long run against a small tree guarantees shadow_path and
        shadow_stash hits and evictions, so the round-trip is exercised
        on every served_from value and on the boolean field.
        """
        tracer = make_tracer(1200, seed=9)
        hist = served_from_histogram(tracer.traces)
        assert {"shadow_path", "shadow_stash", "path"} <= set(hist)
        assert any(t.evicted for t in tracer.traces)

        _, reloaded = round_trip(tracer)
        assert [t.to_dict() for t in reloaded] == [
            t.to_dict() for t in tracer.traces
        ]
        assert served_from_histogram(reloaded) == hist

    def test_bool_fields_load_as_bools(self):
        tracer = make_tracer(400, seed=9)
        _, reloaded = round_trip(tracer)
        assert {t.evicted for t in reloaded} == {True, False}
        for trace in reloaded:
            assert isinstance(trace.evicted, bool)
            assert isinstance(trace.annotated, bool)
