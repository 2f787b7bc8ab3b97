"""Black-box flight recorder: a bounded ring of high-signal events.

Every layer of the stack already *detects* its own transients — watchdog
edges, admission sheds, checkpoint phases, media retries, bad-block
retirements, GC victim picks, replication NACKs, degraded-mode entry —
but the evidence evaporates into three mutually-unaware exporters. The
flight recorder is the always-on black box: a :class:`collections.deque`
ring of plain tuples that call sites append to **synchronously** (zero
added simulator yields, so enabling it cannot perturb simulated time),
bounded so a week-long run costs the same memory as a short one.

Wiring follows the house tracer pattern: ``Simulator.flightrec`` is
``None`` by default, and layers never call the recorder directly — they
emit declared point events (:mod:`repro.obs.events`) behind one
``sim.obs is not None`` guard, so disabled runs allocate nothing and
stay byte-identical (the CI incident-smoke job asserts this, like the
other observability planes).

Event tuples are ``(t_ns, layer, kind, span_id, detail)``:

* ``layer`` / ``kind`` — e.g. ``("ckpt", "phase_begin")``,
  ``("admission", "shed")``, ``("ftl", "degraded")``;
* ``span_id`` — the trace span the event belongs to (``None`` when the
  run is untraced); these are the cross-plane links the incident bundle
  resolves against the trace dump;
* ``detail`` — a small dict of event-specific fields (or ``None``).

Incident **triggers** (watchdog error-edges, crash/power-cut, promote,
degraded entry) are recorded on the same object via :meth:`trip`; the
incident dumper brackets its evidence window around the first one.
Which events trip which trigger is declared in
:data:`repro.obs.events.EVENTS`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.plane import Plane

FlightEvent = Tuple[int, str, str, Optional[int], Optional[Dict[str, Any]]]
Trigger = Tuple[int, str, Optional[Dict[str, Any]]]

DEFAULT_CAPACITY = 1024
"""Ring size: enough to hold the run-up to any single incident."""

MAX_TRIGGERS = 64
"""Triggers kept (a degraded run can re-trip watchdogs indefinitely)."""


class FlightRecorder:
    """Bounded in-memory ring of ``(t_ns, layer, kind, span_id, detail)``.

    Appends are plain-tuple pushes onto a ``deque(maxlen=...)`` — no
    yields, no I/O, no clock reads — so an enabled recorder observes the
    run without participating in it.
    """

    __slots__ = ("capacity", "events", "triggers", "dropped", "node")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 node: Optional[str] = None) -> None:
        self.capacity = capacity
        self.events: "deque[FlightEvent]" = deque(maxlen=capacity)
        self.triggers: List[Trigger] = []
        self.dropped = 0
        self.node = node

    def record(self, t_ns: int, layer: str, kind: str,
               span_id: Optional[int] = None,
               detail: Optional[Dict[str, Any]] = None) -> None:
        """Append one event; evicts the oldest when the ring is full."""
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append((t_ns, layer, kind, span_id, detail))

    def trip(self, t_ns: int, reason: str,
             detail: Optional[Dict[str, Any]] = None) -> None:
        """Mark an incident trigger (and record it as a ring event)."""
        if len(self.triggers) < MAX_TRIGGERS:
            self.triggers.append((t_ns, reason, detail))
        self.record(t_ns, "incident", "trigger", None,
                    dict(detail or (), reason=reason))

    @property
    def first_trigger(self) -> Optional[Trigger]:
        return self.triggers[0] if self.triggers else None

    def tail(self, n: Optional[int] = None) -> List[FlightEvent]:
        """The most recent ``n`` events (all retained when ``None``)."""
        events = list(self.events)
        return events if n is None else events[-n:]

    def span_ids(self) -> List[int]:
        """Distinct trace span ids referenced by retained events."""
        seen = {event[3] for event in self.events if event[3] is not None}
        return sorted(seen)

    def __len__(self) -> int:
        return len(self.events)


FLIGHT = Plane()
"""The process-wide switch that arms a recorder in every new system."""

enable_flightrec = FLIGHT.enable
disable_flightrec = FLIGHT.disable
flightrec_enabled = FLIGHT.enabled
