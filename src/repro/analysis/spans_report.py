"""Span-trace analysis: phase attribution and per-request breakdowns.

This module is the reporting half of :mod:`repro.obs.spans`: given the
JSONL trace file a ``repro run --spans`` invocation wrote, it produces

* a **phase attribution report** — exclusive cycles per phase across all
  traces (cycle-exact: per trace the exclusive times sum to the root
  duration, so attributed cycles across a run add up to total traced
  occupancy with zero residue), beside the exclusive host wall seconds
  of :func:`wall_attribution`, which ``repro profile`` reports too;
* a **per-request latency breakdown** — request counts and latency
  percentiles grouped by serving source, fed through the shared
  :class:`~repro.obs.metrics.Histogram` ladder;
* the **invariant audit** — every tree re-checked against the structural
  and cycle-exact rules of :func:`~repro.obs.spans.validate_trace`;
* the **top-K slowest requests**, each rendered as an ASCII span tree.

``python -m repro trace analyze`` is a thin CLI shell over
:func:`analyze`; tests drive the same entry point.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.report import format_table
from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.obs.spans import (
    SPAN_PHASES,
    Span,
    SpanTrace,
    exclusive_by_phase,
    render_tree,
    top_slowest,
    validate_trace,
)


def phase_attribution(traces: list[SpanTrace]) -> dict[str, Fraction]:
    """Total exclusive cycles per phase over all traces (exact)."""
    totals: dict[str, Fraction] = {}
    for trace in traces:
        for phase, excl in exclusive_by_phase(trace.root).items():
            totals[phase] = totals.get(phase, Fraction(0)) + excl
    return totals


def wall_attribution(traces: list[SpanTrace]) -> dict[str, float]:
    """Total exclusive host wall seconds per phase over all traces.

    A span's exclusive wall time is its wall duration minus that of every
    span directly inside it, whichever trace that span belongs to: a
    timing-protection dummy is its own trace, yet its wall time passes
    inside the enclosing request's span.  Spans from one process nest in
    wall time (the tracer stamps begin/finish in emission order), so one
    sweep in start order finds each span's parent, and the per-phase
    totals sum to the wall time the traces cover, counted once.
    """
    spans = sorted(
        (span for trace in traces for span in trace.root.walk()),
        key=lambda span: (span.wall_start, -span.wall_end),
    )
    totals: dict[str, float] = {}
    open_spans: list[Span] = []
    for span in spans:
        while open_spans and open_spans[-1].wall_end < span.wall_end:
            open_spans.pop()
        wall = span.wall_duration
        totals[span.name] = totals.get(span.name, 0.0) + wall
        if open_spans:
            parent = open_spans[-1].name
            totals[parent] -= wall
        open_spans.append(span)
    return totals


def latency_histograms(traces: list[SpanTrace]) -> dict[str, Histogram]:
    """Per-serving-source latency histograms over annotated request traces.

    Unannotated traces (e.g. the insecure backend, which has no
    ``RequestCompleted`` emitter) fall back to the root span's duration
    under the source key ``"untracked"``.
    """
    hists: dict[str, Histogram] = {}
    for trace in traces:
        if trace.kind == "dummy":
            continue
        if trace.annotated:
            key, value = trace.served_from or "unknown", trace.latency
        else:
            key, value = "untracked", trace.duration
        hist = hists.get(key)
        if hist is None:
            hist = hists[key] = Histogram(LATENCY_BUCKETS)
        hist.observe(value)
    return hists


def audit(traces: list[SpanTrace]) -> list[tuple[SpanTrace, list[str]]]:
    """Re-validate every trace; returns the offenders with their problems."""
    failures = []
    for trace in traces:
        problems = validate_trace(trace)
        if problems:
            failures.append((trace, problems))
    return failures


def analyze(traces: list[SpanTrace], top: int = 5) -> dict[str, object]:
    """Machine-readable analysis of one trace file (the ``--json`` shape)."""
    kinds: dict[str, int] = {}
    for trace in traces:
        kinds[trace.kind] = kinds.get(trace.kind, 0) + 1
    phases = phase_attribution(traces)
    total = sum(phases.values(), start=Fraction(0))
    walls = wall_attribution(traces)
    wall_total = sum(walls.values())
    failures = audit(traces)
    return {
        "traces": len(traces),
        "kinds": dict(sorted(kinds.items())),
        "phase_attribution": {
            phase: {
                "exclusive_cycles": float(excl),
                "share": float(excl / total) if total else 0.0,
                "exclusive_wall_s": walls[phase],
                "wall_share": walls[phase] / wall_total if wall_total else 0.0,
                "meaning": SPAN_PHASES.get(phase, ""),
            }
            for phase, excl in sorted(phases.items(), key=lambda kv: -kv[1])
        },
        "latency_by_source": {
            source: hist.to_dict()
            for source, hist in sorted(latency_histograms(traces).items())
        },
        "invariant": {
            "checked": len(traces),
            "violations": len(failures),
            "problems": [
                {"trace_id": trace.trace_id, "problems": problems}
                for trace, problems in failures[:20]
            ],
        },
        "top_slowest": [
            trace.to_dict() for trace in top_slowest(traces, top)
        ],
    }


def render_report(traces: list[SpanTrace], top: int = 5) -> tuple[str, bool]:
    """Human-readable analysis; returns ``(text, invariants_ok)``."""
    sections: list[str] = []
    kinds: dict[str, int] = {}
    for trace in traces:
        kinds[trace.kind] = kinds.get(trace.kind, 0) + 1
    summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
    sections.append(f"{len(traces)} trace(s): {summary or 'none'}")

    phases = phase_attribution(traces)
    total = sum(phases.values(), start=Fraction(0))
    walls = wall_attribution(traces)
    rows = [
        [
            phase,
            f"{float(excl):,.0f}",
            f"{float(excl / total):.1%}" if total else "-",
            f"{walls[phase]:.4f}",
            SPAN_PHASES.get(phase, ""),
        ]
        for phase, excl in sorted(phases.items(), key=lambda kv: -kv[1])
    ]
    rows.append(["total", f"{float(total):,.0f}", "100.0%",
                 f"{sum(walls.values()):.4f}", ""])
    sections.append(format_table(
        ["phase", "exclusive cycles", "share", "exclusive wall s", "covers"],
        rows,
        title="Phase attribution (exclusive cycles, cycle-exact; host wall)",
    ))

    hists = latency_histograms(traces)
    if hists:
        rows = [
            [
                source,
                hist.total,
                f"{hist.mean:,.0f}",
                f"{hist.percentile(50):,.0f}",
                f"{hist.percentile(95):,.0f}",
                f"{hist.percentile(99):,.0f}",
            ]
            for source, hist in sorted(hists.items())
        ]
        sections.append(format_table(
            ["served from", "requests", "mean", "p50", "p95", "p99"], rows,
            title="Request latency breakdown (cycles, by serving source)",
        ))

    failures = audit(traces)
    if failures:
        lines = [
            f"INVARIANT VIOLATIONS: {len(failures)} of {len(traces)} "
            "trace(s) failed validation"
        ]
        for trace, problems in failures[:10]:
            lines.append(f"  trace #{trace.trace_id}: {problems[0]}")
        sections.append("\n".join(lines))
    else:
        sections.append(
            f"invariant check: all {len(traces)} trace(s) satisfy "
            "sum(exclusive) == root duration (cycle-exact)"
        )

    slowest = top_slowest(traces, top)
    if slowest:
        lines = [f"Top {len(slowest)} slowest request(s):"]
        for trace in slowest:
            lines.append(render_tree(trace))
            lines.append("")
        sections.append("\n".join(lines).rstrip())

    return "\n\n".join(sections), not failures
