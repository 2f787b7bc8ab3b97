"""``repro.obs`` — latency attribution ("blame"), point events, forensics.

Public surface:

* :class:`StageClock` / :class:`RequestLedger` / :func:`fold_completion`
  — the attribution primitives threaded along the request path: one
  lap per measured window, one fold per device command (see
  :mod:`repro.obs.blame` for the conservation invariant);
* :class:`BlameCollector` / :class:`BlameRunReport` and the table
  renderers — per-tenant summaries, tail profiles, exemplars;
* :func:`write_blame_jsonl` / :func:`validate_blame_file` — the
  ``repro-blame/v1`` JSONL export;
* :data:`BLAME`, the blame plane's switch
  (:class:`repro.obs.plane.Plane`): every system constructed while it
  is on builds per-tenant collectors and registers its run report;
* :data:`repro.obs.events.EVENTS` and :class:`repro.obs.events.Observer`
  — the declared point-event vocabulary and the one emit path that fans
  each event out to the trace, the flight ring and incident triggers;
* the **flight recorder** (:mod:`repro.obs.flightrec`) and the
  ``repro-incident/v1`` forensics bundle (:mod:`repro.obs.incident`):
  the always-on black box every layer appends high-signal events to,
  and the cross-plane dump triggered when something goes wrong.
"""

from __future__ import annotations

from repro.obs.blame import (
    CATEGORIES,
    CKPT_FAMILY,
    RESIDUAL,
    BlameCollector,
    BlameError,
    BlameRecord,
    BlameRunReport,
    RequestLedger,
    StageClock,
    TailProfile,
    blame_table,
    exemplar_table,
    fold_completion,
    tail_table,
)
from repro.obs.export import (
    SCHEMA,
    blame_records,
    validate_blame_file,
    write_blame_jsonl,
)
from repro.obs.flightrec import (
    FLIGHT,
    FlightRecorder,
    disable_flightrec,
    enable_flightrec,
    flightrec_enabled,
)
from repro.obs.incident import (
    build_timeline,
    dominant_stage,
    incident_records,
    load_incident_file,
    pair_incident_records,
    resolve_against_trace,
    timeline_table,
    validate_incident_file,
    write_incident_jsonl,
)
from repro.obs.plane import Plane

__all__ = [
    "CATEGORIES", "CKPT_FAMILY", "RESIDUAL",
    "BlameCollector", "BlameError", "BlameRecord", "BlameRunReport",
    "RequestLedger", "StageClock", "TailProfile", "fold_completion",
    "blame_table", "tail_table", "exemplar_table",
    "SCHEMA", "blame_records", "validate_blame_file", "write_blame_jsonl",
    "BLAME", "clear_blame",
    "FLIGHT", "FlightRecorder", "enable_flightrec", "disable_flightrec",
    "flightrec_enabled",
    "incident_records", "pair_incident_records", "write_incident_jsonl",
    "validate_incident_file", "load_incident_file",
    "resolve_against_trace", "build_timeline", "dominant_stage",
    "timeline_table",
]

BLAME = Plane()
"""The process-wide blame switch and the run reports built under it."""

clear_blame = BLAME.clear
