"""Measurement spine: the repo's benchmark (see ../README.md).

* :mod:`spinelib.timing` — quartiles, the chunk-median wall estimator and
  the host fingerprint;
* :mod:`spinelib.tracing` — span recorder plus run-time instrumentation
  resolved by dotted name;
* :mod:`spinelib.layers` — the per-layer metric table;
* :mod:`spinelib.workloads` — the four workloads;
* :mod:`spinelib.runner` — the measurement loop and the report.
"""
