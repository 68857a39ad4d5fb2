"""repro: reproduction of "Shadow Block: Accelerating ORAM Accesses with
Data Duplication" (Zhang et al., MICRO 2018).

The package provides:

* a functional + timed Tiny ORAM (RAW Path ORAM) controller;
* the paper's shadow-block mechanism (RD-Dup, HD-Dup, static/dynamic
  partitioning) on top of it;
* the substrates the evaluation needs: a DDR3 timing model, a two-level
  cache hierarchy, CPU issue models and ten synthetic SPEC-like workloads;
* a full-system simulator plus the security harness used to validate the
  obliviousness arguments.

Quickstart::

    from repro.system.config import SystemConfig
    from repro.system.simulator import simulate
    tiny = simulate(SystemConfig.tiny(), "mcf", num_requests=20_000)
    shadow = simulate(SystemConfig.dynamic(3), "mcf", num_requests=20_000)
    print(tiny.total_cycles / shadow.total_cycles)  # speedup
"""
