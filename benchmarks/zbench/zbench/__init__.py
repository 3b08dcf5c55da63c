"""ZBench: the measurement harness behind ``BENCHMARK.json``.

Everything here measures :mod:`repro` **from outside**: it times calls
into the public functions of each layer and records its own spans; it
touches no file outside ``benchmarks/zbench/``. ``README.md`` next to
this package is the user guide.

- :mod:`zbench.metrics` — the workload and metric tables (one source for
  ``BENCHMARK.json``, ``compare.py``, the README and the self-test).
- :mod:`zbench.spans` — the benchmark-owned span recorder.
- :mod:`zbench.passes` — the three measured passes (design sweep,
  associativity CDFs, cache service).
- :mod:`zbench.ladder` — the per-layer micro-rungs on standalone arrays.
- :mod:`zbench.harness` — one workload run: set-up, timed repeats,
  traced pass, output checks.
"""
