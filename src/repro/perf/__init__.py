"""Performance layer: interned reference data and benchmarking.

* :mod:`repro.perf.reference_store` -- process-wide interning of
  benign block contents;
* :mod:`repro.perf.bench` -- the seeded ``repro bench`` micro/macro
  suite that records throughput numbers in ``BENCH_<rev>.json`` and
  fails comparisons on >20% regression.

Run-level caching (skipping whole fleet runs) lives in
:mod:`repro.fleet.store`; this package covers within-run hot paths.
"""
