"""Observability for the simulated stack: tracing, export, attribution.

The pieces:

* :mod:`repro.obs.names` — the metric-name and span-category registry.
* :mod:`repro.obs.tracer` — :class:`Tracer`, recording simulated-time
  spans, instants and counter samples.
* :mod:`repro.obs.session` — :func:`instrument` arms tracing,
  sanitizing and profiling for a region of host code; every program
  constructed inside picks up its sinks via :func:`arm`.
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export.
* :mod:`repro.obs.critical_path` — attribution of end-to-end simulated
  time to compute/network/barrier/steal, plus comm-matrix and per-link
  utilization reports.
* :mod:`repro.obs.validate` — trace-event schema checks for tests/CI.
"""

from repro.obs import names
from repro.obs.critical_path import (
    attribute_run,
    breakdown_rows,
    comm_matrix_rows,
    link_utilization_rows,
)
from repro.obs.export import (
    chrome_trace_events,
    dump_chrome_trace,
    write_chrome_trace,
)
from repro.obs.session import InstrumentSession, arm, instrument
from repro.obs.tracer import (
    META_TRACK,
    Span,
    Tracer,
    link_track,
    node_track,
    thread_track,
)

__all__ = [
    "names",
    "Tracer", "Span",
    "thread_track", "link_track", "node_track", "META_TRACK",
    "InstrumentSession", "instrument", "arm",
    "chrome_trace_events", "dump_chrome_trace", "write_chrome_trace",
    "attribute_run", "breakdown_rows", "comm_matrix_rows",
    "link_utilization_rows",
]
