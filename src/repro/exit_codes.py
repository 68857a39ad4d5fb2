"""The one table of process exit codes every ``repro`` subcommand uses.

Historically these constants were scattered through :mod:`repro.cli`;
they live here so the CLI, the serve/load stack, CI jobs, and the README
all agree on one contract.  Code 1 is left to Python itself (unhandled
exception); 130 follows the shell convention of ``128 + SIGINT``.

============================  ====  ===============================================
constant                      code  meaning
============================  ====  ===============================================
``EXIT_OK``                      0  success
``EXIT_USAGE``                   2  bad command line: argparse rejected it,
                                    a flag value no config accepts (e.g.
                                    ``--levels 0``, ``--requests -5``, an
                                    unknown ``--scheme``), a flag combination
                                    no run can honour (e.g. ``serve
                                    --restore`` without ``--shard-dir``), or
                                    a ``trace analyze`` input that is missing
                                    or not JSONL
``EXIT_SWEEP_FAILED``            3  a sweep/faults run finished with failed or
                                    unresolved grid points (``sweep --resume``
                                    still owed points also exits 3)
``EXIT_BENCH_REGRESSION``        4  ``bench --compare`` detected a perf
                                    regression against the recorded baseline
``EXIT_TRACE_INVALID``           5  ``trace analyze`` found a span tree violating
                                    the cycle-exact exclusive-time invariant
``EXIT_SERVE_FAILED``            6  ``serve`` aborted before a clean drain
                                    (fatal server error / injected crash), the
                                    shard fleet failed unrecoverably (torn
                                    intent log mid-history or respawn budget
                                    exhausted -- a degraded-mode recovery that
                                    drains cleanly still exits 0), or ``load``
                                    finished with zero served requests
``EXIT_SLO_BREACH``              7  ``serve --slo-fatal`` drained because the
                                    rolling SLO monitor entered ``breached``;
                                    the drain itself was clean (admitted work
                                    completed, post-mortem dumped)
``EXIT_INTERRUPTED``           130  Ctrl-C; completed sweep points are flushed
                                    and resumable
============================  ====  ===============================================
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SWEEP_FAILED = 3
EXIT_BENCH_REGRESSION = 4
EXIT_TRACE_INVALID = 5
EXIT_SERVE_FAILED = 6
EXIT_SLO_BREACH = 7
EXIT_INTERRUPTED = 130

#: code -> one-line description, for ``--help`` epilogs and docs.
EXIT_CODES: dict[int, str] = {
    EXIT_OK: "success",
    EXIT_USAGE: "bad command line (usage error)",
    EXIT_SWEEP_FAILED: "sweep finished with failed or unresolved points",
    EXIT_BENCH_REGRESSION: "bench --compare detected a perf regression",
    EXIT_TRACE_INVALID: "trace analyze found an invalid span tree",
    EXIT_SERVE_FAILED: "serve aborted before a clean drain / load served zero",
    EXIT_SLO_BREACH: "serve --slo-fatal drained on a breached SLO",
    EXIT_INTERRUPTED: "interrupted by Ctrl-C (sweeps stay resumable)",
}

__all__ = [
    "EXIT_CODES",
    "EXIT_BENCH_REGRESSION",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "EXIT_SERVE_FAILED",
    "EXIT_SLO_BREACH",
    "EXIT_SWEEP_FAILED",
    "EXIT_TRACE_INVALID",
    "EXIT_USAGE",
]
