"""The point-event vocabulary and its one emit path.

A *point event* is something that happens at one instant in one layer:
a checkpoint phase starts, a command is retried, the FTL goes
read-only, a replica refuses a frame.  :data:`EVENTS` declares every
``(layer, kind)`` the simulator emits and where each goes beyond the
call site:

* ``span`` — also a zero-duration trace span, with ``layer``/``kind``
  as its component/name and the event detail as its attributes;
* ``ring`` — appended to the flight-recorder ring;
* ``trigger`` — the incident trigger it trips on the flight recorder.

Call sites emit through :meth:`Observer.emit`, guarded by one check::

    obs = self.sim.obs
    if obs is not None:
        obs.emit("ftl", "degraded", reason=reason)

``Simulator.obs`` stays ``None`` until :func:`arm` runs, which only the
code that installs a tracer or arms a flight recorder calls, so an
unobserved run builds no detail dicts and allocates nothing.  Because
every plane reads the same ``(layer, kind)``, a trace, a flight-ring
tail and an incident bundle name one event the same way.

A leaf module: it imports nothing from ``repro``.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple


class Route(NamedTuple):
    """Where one declared point event goes (see the module docstring)."""

    span: bool
    ring: bool
    trigger: Optional[str] = None


EVENTS: Dict[Tuple[str, str], Route] = {
    ("admission", "shed"): Route(span=False, ring=True),
    ("ckpt", "begin"): Route(span=False, ring=True),
    ("ckpt", "phase_begin"): Route(span=False, ring=True),
    ("ckpt", "phase_end"): Route(span=False, ring=True),
    ("ckpt", "end"): Route(span=False, ring=True),
    ("ckpt", "aborted"): Route(span=False, ring=True),
    ("engine", "degraded"):
        Route(span=True, ring=True, trigger="degraded_entry"),
    ("fault", "power_cut"): Route(span=False, ring=False, trigger="crash"),
    ("flash", "read_uecc"): Route(span=False, ring=True),
    ("ftl", "degraded"): Route(span=True, ring=True, trigger="degraded_entry"),
    ("ftl", "block_retired"): Route(span=False, ring=True),
    ("gc", "victim_pick"): Route(span=False, ring=True),
    ("isce", "cow_batch"): Route(span=False, ring=True),
    ("media", "cmd_retry"): Route(span=True, ring=True),
    ("media", "cmd_error"): Route(span=True, ring=True),
    ("repl", "ship"): Route(span=True, ring=False),
    ("repl", "nack_rewind"): Route(span=False, ring=True),
    ("repl", "refuse"): Route(span=True, ring=True),
    ("repl", "primary_lost"): Route(span=False, ring=True),
    ("repl", "promote"): Route(span=False, ring=True, trigger="promote"),
    ("telemetry", "watchdog_fired"): Route(span=False, ring=True),
    ("telemetry", "watchdog_cleared"): Route(span=False, ring=True),
    ("telemetry", "watchdog_error"):
        Route(span=False, ring=False, trigger="watchdog_error"),
}


class Observer:
    """Fans declared point events out to one simulator's armed planes.

    Reads ``sim.tracer`` and ``sim.flightrec`` at emit time, so a
    tracer installed after a recorder (or the other way round) is seen.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: Any) -> None:
        self.sim = sim

    def emit(self, layer: str, kind: str, span: Any = None,
             t_ns: Optional[int] = None, **detail: Any) -> None:
        """Record one point event on every plane its route names.

        ``span`` is the trace span the event belongs to (the parent of
        its own span when the event is itself a span); the ring event
        carries the event's own span id, else ``span``'s.  ``t_ns``
        stamps the ring and trigger (default ``sim.now``).  A trigger's
        detail is ``{"layer", "kind"}`` followed by the event detail.
        """
        route = EVENTS.get((layer, kind))
        if route is None:
            raise ValueError(f"undeclared point event {layer}/{kind}: "
                             "add it to repro.obs.events.EVENTS")
        sim = self.sim
        span_id = None if span is None else span.span_id
        tracer = sim.tracer
        if route.span and tracer.enabled:
            span_id = tracer.end(
                tracer.begin(layer, kind, parent=span, **detail)).span_id
        recorder = sim.flightrec
        if recorder is None:
            return
        if t_ns is None:
            t_ns = sim.now
        if route.ring:
            recorder.record(t_ns, layer, kind, span_id, detail)
        if route.trigger is not None:
            recorder.trip(t_ns, route.trigger,
                          {"layer": layer, "kind": kind, **detail})


def arm(sim: Any) -> None:
    """Give ``sim`` its emit path (idempotent)."""
    if sim.obs is None:
        sim.obs = Observer(sim)
