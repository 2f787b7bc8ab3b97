"""``repro.trace`` — end-to-end span tracing for the host/SSD stack.

Public surface:

* :class:`Tracer` / :class:`NullTracer` / :data:`NULL_TRACER` — the span
  recorder (see :mod:`repro.trace.tracer` for the design constraints);
* :func:`write_chrome_trace` / :func:`validate_trace_file` — Chrome
  ``trace_event`` export, loadable in Perfetto;
* :func:`summarize` and the table renderers — derived metrics;
* :data:`TRACE`, the trace plane's switch (:class:`repro.obs.plane.Plane`):
  ``repro run <exp> --trace`` arms it, and every system constructed while
  it is on installs a tracer (:func:`install_tracer`) and registers it
  for one merged export.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import arm
from repro.obs.plane import Plane
from repro.trace.export import (
    trace_document,
    trace_events,
    validate_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.trace.metrics import (
    TraceSummary,
    component_table,
    histogram_rows,
    phase_table,
    queue_split_table,
    summarize,
)
from repro.trace.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    StageStat,
    TraceConfig,
    Tracer,
)

__all__ = [
    "NULL_SPAN", "NULL_TRACER", "NullTracer", "Span", "StageStat",
    "TraceConfig", "Tracer", "TraceSummary",
    "trace_document", "trace_events", "validate_trace",
    "validate_trace_file", "write_chrome_trace",
    "summarize", "component_table", "phase_table", "queue_split_table",
    "histogram_rows",
    "TRACE", "install_tracer", "clear_runs",
]

TRACE = Plane()
"""The process-wide trace switch and the tracers built under it."""

clear_runs = TRACE.clear


def install_tracer(sim: Any, label: str = "run") -> Tracer:
    """Attach a fresh tracer to ``sim``, arm its point-event path and
    register the tracer for export."""
    tracer = Tracer(sim)
    sim.tracer = tracer
    arm(sim)
    TRACE.register(label, tracer)
    return tracer
