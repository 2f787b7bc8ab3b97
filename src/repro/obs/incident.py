"""Incident forensics: the ``repro-incident/v1`` bundle and timeline.

When something goes wrong mid-run — a watchdog error-edge, a power cut,
a promote, degraded-mode entry — the evidence is scattered across four
planes that export separately: the trace (spans), telemetry (series +
watchdog edges + SMART frames), blame (per-request attribution) and the
flight recorder (the black-box event ring).  The incident dump pulls one
coherent evidence bundle out of all four, bracketed around the trigger:

* line 1 — a ``header`` record (``schema``, label, node, trigger);
* one ``trigger`` record per recorded trigger, in order;
* one ``flight`` record per retained flight-recorder event;
* one ``span`` record per trace span referenced by a flight event —
  the cross-plane link: every flight ``span_id`` must resolve here
  (and in the full trace dump, which carries ``span_id`` in ``args``);
* ``series`` / ``event`` records — the telemetry window bracketing the
  trigger and the watchdog edges inside it;
* one ``blame`` record naming the dominant stage for the incident
  window, plus the worst-K ``exemplar`` records;
* one ``health`` record — the active SMART frame at dump time;
* one optional ``repl`` record per node with ship-lag at dump time
  (cross-node bundles from a :class:`ReplicatedPair`);
* a final ``footer`` record with counts.

:func:`build_timeline` re-reads a bundle into one merged causal
timeline — cross-node bundles interleave both nodes' events in merged
time, annotated with the shipper's lag — and
:func:`dominant_stage` names the blame stage that ate the window.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.jsonl import (
    load_jsonl,
    read_jsonl,
    validate_jsonl_file,
    write_jsonl,
)
from repro.common.units import MS

SCHEMA = "repro-incident/v1"

DEFAULT_WINDOW_NS = 10 * MS
"""Telemetry bracket half-width around the trigger."""

DEFAULT_EXEMPLARS = 8
"""Worst-K blame exemplars carried per tenant."""

_REQUIRED = {
    "header": ("schema", "label", "node", "triggers", "flight_events",
               "window_ns"),
    "trigger": ("t_ns", "reason", "node"),
    "flight": ("t_ns", "layer", "kind", "span_id", "node"),
    "span": ("span_id", "component", "name", "start_ns"),
    "series": ("tenant", "layer", "kind", "name", "points"),
    "event": ("t_ns", "watchdog", "kind", "tenant", "severity"),
    "blame": ("tenant", "dominant_stage", "p", "ckpt_tail_share"),
    "exemplar": ("tenant", "rank", "op", "key", "total_ns",
                 "during_ckpt", "span_id", "charges"),
    "health": ("t_ns", "wear_mean", "bad_blocks", "spare_remaining"),
    "repl": ("node", "ship_lag_ops", "ship_lag_bytes", "nacks"),
    "footer": ("triggers", "flight_events", "spans", "series", "events",
               "exemplars"),
}


# ----------------------------------------------------------------------
# bundle assembly
# ----------------------------------------------------------------------
def _node_records(system: Any, node: Optional[str],
                  window_ns: int, k: int) -> Dict[str, List[Dict[str, Any]]]:
    """One system's contribution to a bundle, grouped by record type."""
    groups: Dict[str, List[Dict[str, Any]]] = {
        "trigger": [], "flight": [], "span": [], "series": [],
        "event": [], "blame": [], "exemplar": [], "health": [],
    }
    recorder = system.sim.flightrec
    if recorder is None:
        return groups

    for t_ns, reason, detail in recorder.triggers:
        groups["trigger"].append({
            "type": "trigger", "t_ns": t_ns, "reason": reason,
            "node": node, "detail": detail,
        })
    for t_ns, layer, kind, span_id, detail in recorder.events:
        groups["flight"].append({
            "type": "flight", "t_ns": t_ns, "layer": layer, "kind": kind,
            "span_id": span_id, "node": node, "detail": detail,
        })

    # Cross-plane links: every span id a flight event carries gets its
    # span resolved into the bundle, so the dump is self-validating even
    # without the full trace export next to it.  Spans still open when
    # the run ended (a GC pass cut off mid-collect) go in with
    # ``end_ns: null``.
    wanted = set(recorder.span_ids())
    tracer = system.sim.tracer
    if wanted and tracer.enabled:
        for span in tracer.spans() + tracer.unfinished():
            if span.span_id in wanted:
                groups["span"].append({
                    "type": "span", "span_id": span.span_id,
                    "component": span.component, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "node": node,
                })

    # Telemetry bracket: series points and watchdog edges inside
    # [trigger - window, trigger + window] (everything when untriggered).
    trigger = recorder.first_trigger
    sampler = system.telemetry
    if sampler is not None:
        lo = hi = None
        if trigger is not None:
            lo, hi = trigger[0] - window_ns, trigger[0] + window_ns
        for series in sampler.all_series():
            points = [[t, value] for t, value in series.points
                      if lo is None or lo <= t <= hi]
            if points:
                groups["series"].append({
                    "type": "series", "tenant": series.tenant,
                    "layer": series.layer, "kind": series.kind,
                    "name": series.name, "points": points, "node": node,
                })
        for event in sampler.events:
            if lo is None or lo <= event.t_ns <= hi:
                record = event.as_dict()
                record["node"] = node
                groups["event"].append(record)
        if sampler.health is not None and sampler.health.latest is not None:
            frame = dict(sampler.health.latest)
            frame["node"] = node
            groups["health"].append(frame)

    # Blame: the dominant stage for the incident window (tail-profiled,
    # matching the gated-tail acceptance) plus worst-K exemplars.
    report = system.blame_report
    if report is not None:
        for tenant, collector in report.tenants:
            if collector.requests == 0:
                continue
            profile = collector.tail_profile(99.0)
            groups["blame"].append({
                "type": "blame", "tenant": tenant,
                "dominant_stage": (profile.dominant_tail_category()
                                   or collector.dominant_category()),
                "p": profile.p,
                "ckpt_tail_share": profile.ckpt_tail_share,
                "node": node,
            })
            for rank, (total_ns, op, key, during_ckpt, span_id, charges) \
                    in enumerate(collector.exemplars(k), 1):
                groups["exemplar"].append({
                    "type": "exemplar", "tenant": tenant, "rank": rank,
                    "op": op, "key": key, "total_ns": total_ns,
                    "during_ckpt": during_ckpt, "span_id": span_id,
                    "charges": charges, "node": node,
                })
    return groups


def _assemble(label: str, node: Optional[str],
              groups: Dict[str, List[Dict[str, Any]]],
              window_ns: int,
              repl: Optional[List[Dict[str, Any]]] = None,
              ) -> List[Dict[str, Any]]:
    triggers = sorted(groups["trigger"], key=lambda r: r["t_ns"])
    first = triggers[0] if triggers else None
    records: List[Dict[str, Any]] = [{
        "type": "header", "schema": SCHEMA, "label": label, "node": node,
        "triggers": len(triggers), "flight_events": len(groups["flight"]),
        "window_ns": window_ns,
        "trigger_t_ns": first["t_ns"] if first else None,
        "trigger_reason": first["reason"] if first else None,
    }]
    records.extend(triggers)
    records.extend(sorted(groups["flight"], key=lambda r: r["t_ns"]))
    records.extend(groups["span"])
    records.extend(groups["series"])
    records.extend(groups["event"])
    records.extend(groups["blame"])
    records.extend(groups["exemplar"])
    records.extend(groups["health"])
    if repl:
        records.extend(repl)
    records.append({
        "type": "footer",
        "triggers": len(triggers),
        "flight_events": len(groups["flight"]),
        "spans": len(groups["span"]),
        "series": len(groups["series"]),
        "events": len(groups["event"]),
        "exemplars": len(groups["exemplar"]),
    })
    return records


def incident_records(system: Any, *, window_ns: int = DEFAULT_WINDOW_NS,
                     k: int = DEFAULT_EXEMPLARS) -> List[Dict[str, Any]]:
    """One system's incident bundle as a list of JSONL records."""
    groups = _node_records(system, None, window_ns, k)
    return _assemble(system.config.mode, None, groups, window_ns)


def pair_incident_records(pair: Any, *,
                          window_ns: int = DEFAULT_WINDOW_NS,
                          k: int = DEFAULT_EXEMPLARS
                          ) -> List[Dict[str, Any]]:
    """Cross-node bundle for a :class:`ReplicatedPair`.

    Both nodes' flight events merge into one bundle (tagged ``node``) in
    merged simulated time; the ``repl`` records carry the shipper's lag
    so the timeline can annotate how far behind the replica was.
    """
    merged: Dict[str, List[Dict[str, Any]]] = {
        "trigger": [], "flight": [], "span": [], "series": [],
        "event": [], "blame": [], "exemplar": [], "health": [],
    }
    for node, system in (("primary", pair.primary),
                         ("replica", pair.replica)):
        for kind, records in _node_records(system, node, window_ns,
                                           k).items():
            merged[kind].extend(records)
    repl = [{
        "type": "repl", "node": "primary",
        "ship_lag_ops": pair.shipper.ship_lag_ops,
        "ship_lag_bytes": pair.shipper.ship_lag_bytes,
        "nacks": pair.shipper.nacks,
        "applied_offset": pair.applier.applied_offset,
        "kill_t_ns": pair._t_kill,
    }]
    return _assemble(pair.config.mode, "pair", merged, window_ns, repl)


def write_incident_jsonl(path: str,
                         records: List[Dict[str, Any]]) -> int:
    """Dump a bundle to ``path``; returns the record count."""
    return write_jsonl(path, records)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_incident_file(path: str) -> List[str]:
    """Structural + cross-plane validation; returns problems found."""
    problems = validate_jsonl_file(
        path, schema=SCHEMA, required=_REQUIRED,
        counted={"trigger": "triggers", "flight": "flight_events",
                 "span": "spans", "series": "series", "event": "events",
                 "exemplar": "exemplars"},
        what="incident")
    records, _ = read_jsonl(path)
    # Cross-plane link check: every span id a flight event carries must
    # resolve to a span record in the same bundle.
    resolved = {record.get("span_id") for record in records
                if record.get("type") == "span"}
    for record in records:
        if record.get("type") != "flight":
            continue
        span_id = record.get("span_id")
        if span_id is not None and span_id not in resolved:
            problems.append(
                f"flight event {record.get('layer')}/{record.get('kind')}"
                f" at t={record.get('t_ns')}: span_id {span_id} does not"
                " resolve in the bundle")
    return problems


def resolve_against_trace(records: List[Dict[str, Any]],
                          trace_document: Any) -> List[str]:
    """Check flight span ids against a full Chrome trace dump.

    The trace export carries each span's ``span_id`` in ``args``; every
    id a flight event references must appear there.  Returns problems.
    """
    exported = set()
    for event in (trace_document or {}).get("traceEvents", []):
        span_id = (event.get("args") or {}).get("span_id")
        if span_id is not None:
            exported.add(span_id)
    problems = []
    for record in records:
        if record.get("type") != "flight":
            continue
        span_id = record.get("span_id")
        if span_id is not None and span_id not in exported:
            problems.append(
                f"flight span_id {span_id} "
                f"({record.get('layer')}/{record.get('kind')}) missing "
                "from the trace dump")
    return problems


# ----------------------------------------------------------------------
# timeline reconstruction
# ----------------------------------------------------------------------
def load_incident_file(path: str) -> List[Dict[str, Any]]:
    """Strict bundle loader (raises ``UnknownSchemaError`` on foreign
    dumps)."""
    return load_jsonl(path, SCHEMA)


def _describe(detail: Optional[Dict[str, Any]]) -> str:
    if not detail:
        return ""
    return " ".join(f"{key}={value}" for key, value in detail.items())


def build_timeline(records: List[Dict[str, Any]]
                   ) -> List[Tuple[int, str, str, str, str]]:
    """Merge a bundle into one causal timeline.

    Returns rows ``(t_ns, node, plane, what, detail)`` sorted by merged
    simulated time; flight events, watchdog edges and triggers
    interleave, and replication-layer rows are annotated with the
    shipper's lag from the bundle's ``repl`` record.
    """
    lag = next((record for record in records
                if record.get("type") == "repl"), None)
    lag_note = (f"ship_lag={lag['ship_lag_ops']}ops"
                f"/{lag['ship_lag_bytes']}B" if lag else "")
    rows: List[Tuple[int, str, str, str, str]] = []
    for record in records:
        kind = record.get("type")
        node = record.get("node") or "-"
        if kind == "flight":
            what = f"{record['layer']}.{record['kind']}"
            detail = _describe(record.get("detail"))
            if record.get("span_id") is not None:
                detail = f"span={record['span_id']} {detail}".rstrip()
            if record["layer"] == "repl" and lag_note:
                detail = f"{detail} [{lag_note}]".lstrip()
            rows.append((record["t_ns"], node, "flight", what, detail))
        elif kind == "event":
            what = f"{record['watchdog']}:{record['kind']}"
            detail = (f"severity={record['severity']} "
                      f"value={record.get('value', 0):g}")
            if record.get("blame"):
                detail += f" blame={record['blame']}"
            rows.append((record["t_ns"], node, "watchdog", what, detail))
        elif kind == "trigger":
            rows.append((record["t_ns"], node, "TRIGGER",
                         record["reason"], _describe(record.get("detail"))))
    rows.sort(key=lambda row: (row[0], row[2] != "TRIGGER"))
    return rows


def dominant_stage(records: List[Dict[str, Any]]) -> Optional[str]:
    """The blame stage that dominated the incident window.

    Single-node bundles have one ``blame`` record per tenant; the stage
    of the tenant with the largest checkpoint-tail share wins (they
    agree on single-tenant runs).
    """
    blames = [record for record in records
              if record.get("type") == "blame"]
    if not blames:
        return None
    best = max(blames, key=lambda record: record.get("ckpt_tail_share", 0))
    return best.get("dominant_stage")


def timeline_table(records: List[Dict[str, Any]], title: str = "") -> str:
    """Render a bundle's merged timeline as a fixed-width table."""
    from repro.analysis.tables import format_table
    rows = [[f"{t_ns / 1e6:.3f}", node, plane, what, detail]
            for t_ns, node, plane, what, detail in build_timeline(records)]
    header = records[0] if records else {}
    stage = dominant_stage(records)
    return format_table(
        ["t_ms", "node", "plane", "what", "detail"], rows,
        title=title or (
            f"incident: {header.get('label', '?')} — trigger "
            f"{header.get('trigger_reason') or 'none'}"
            + (f", dominant stage {stage}" if stage else "")))
