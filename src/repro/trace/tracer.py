"""Span tracer for the simulated host/SSD stack.

A :class:`Span` is one timed stage of work — a client operation, a host
command on the device, a checkpoint phase, a flash page program — carrying
a component tag, integer-ns start/end timestamps read from the simulation
clock, and key/value attributes (LPN ranges, byte counts, queue depth).

Design constraints, in order:

1. **Zero overhead when disabled.**  Every call site guards on
   ``tracer.enabled`` before building attributes, and the disabled tracer
   (:data:`NULL_TRACER`) allocates nothing — ``begin`` hands back one
   shared :data:`NULL_SPAN` singleton.  A traced run and an untraced run
   execute the identical simulated event sequence, so their counter
   snapshots are byte-identical (CI asserts this).
2. **Bounded memory.**  Finished spans land in per-component ring buffers
   (:attr:`TraceConfig.max_spans_per_component`); long runs keep the tail
   of every component's timeline instead of the head of one.  Aggregated
   stage statistics (:attr:`Tracer.stage_stats`) and checkpoint phase
   summaries are accumulated at ``end()`` time and are therefore exact
   regardless of ring eviction.
3. **Explicit parenting.**  Simulation processes interleave arbitrarily,
   so there is no implicit "current span" stack: nesting is expressed by
   passing ``parent=``.  Checkpoints use this to nest their named phases
   (journal scan, CoW/remap, data write, deallocation, mapping persist)
   under one parent span per checkpoint.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.telemetry.names import safe_ratio

SPAN_KIND = "span"
INSTANT_KIND = "instant"


class Span:
    """One timed stage of work in a single component."""

    __slots__ = ("span_id", "parent", "component", "name", "start_ns",
                 "end_ns", "track", "attrs", "kind", "phases")

    def __init__(self, span_id: int, component: str, name: str,
                 start_ns: int, parent: Optional["Span"] = None,
                 track: int = 0,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent = parent
        self.component = component
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.track = track
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.kind = SPAN_KIND
        self.phases: Optional[Dict[str, int]] = None
        """Per-phase child durations, accumulated on checkpoint roots."""

    @property
    def finished(self) -> bool:
        """True once :meth:`Tracer.end` ran."""
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        """Span length (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def parent_id(self) -> Optional[int]:
        """The parent span's id, if any."""
        return self.parent.span_id if self.parent is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = self.end_ns if self.end_ns is not None else "…"
        return (f"Span#{self.span_id}({self.component}/{self.name} "
                f"[{self.start_ns}, {end}])")


class _NullSpan:
    """The shared do-nothing span handed out by the disabled tracer."""

    __slots__ = ()
    finished = False
    duration_ns = 0
    parent = None
    parent_id = None
    phases = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NullSpan"


NULL_SPAN = _NullSpan()
"""Singleton returned by :class:`NullTracer` — never allocated per call."""


@dataclass(frozen=True)
class TraceConfig:
    """Tracer knobs."""

    max_spans_per_component: int = 4096
    """Ring-buffer capacity per component tag (bounded memory for long
    runs; the timeline export keeps the newest spans of every track)."""


@dataclass
class StageStat:
    """Exact aggregate over every finished span of one (component, name)."""

    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    queue_ns: int = 0
    """Sum of the ``queue_ns`` attribute — admission-queue wait inside the
    span, used for the queue-wait vs service-time split."""

    bytes: int = 0
    hist: Dict[int, int] = field(default_factory=dict)
    """Log2 duration histogram: ``bit_length(duration_ns) -> count``."""

    def observe(self, duration_ns: int, queue_ns: int, num_bytes: int) -> None:
        """Fold one finished span in."""
        self.count += 1
        self.total_ns += duration_ns
        if duration_ns > self.max_ns:
            self.max_ns = duration_ns
        self.queue_ns += queue_ns
        self.bytes += num_bytes
        bucket = duration_ns.bit_length()
        self.hist[bucket] = self.hist.get(bucket, 0) + 1

    @property
    def mean_ns(self) -> float:
        """Average span duration."""
        return safe_ratio(self.total_ns, self.count)

    @property
    def service_ns(self) -> int:
        """Time inside spans not spent waiting for admission."""
        return self.total_ns - self.queue_ns


class Tracer:
    """Simulation-aware span recorder for one system instance."""

    enabled = True

    def __init__(self, sim: Any = None, config: Optional[TraceConfig] = None,
                 clock: Optional[Callable[[], int]] = None) -> None:
        if sim is None and clock is None:
            raise ValueError("Tracer needs a simulator or an explicit clock")
        self._sim = sim
        self._clock = clock if clock is not None else (lambda: sim.now)
        self.config = config if config is not None else TraceConfig()
        self._next_id = 0
        self._rings: Dict[str, Deque[Span]] = {}
        self._open: Dict[int, Span] = {}
        """Spans begun but not yet ended, by id."""
        self.stage_stats: Dict[Tuple[str, str], StageStat] = {}
        self.checkpoint_summaries: List[Dict[str, Any]] = []
        """One entry per completed checkpoint root span: strategy, start,
        duration and the per-phase breakdown."""

        self.dropped = 0
        """Finished spans evicted from a full ring (aggregates keep them)."""

    @classmethod
    def wallclock(cls, config: Optional[TraceConfig] = None) -> "Tracer":
        """A tracer on the host's monotonic clock (ns).

        Used where no simulated time can pass — e.g. timing the forensic
        SPOR recovery scan after a power cut.
        """
        return cls(config=config, clock=time.perf_counter_ns)

    # ------------------------------------------------------------------
    def begin(self, component: str, name: str, parent: Optional[Span] = None,
              track: int = 0, **attrs: Any) -> Span:
        """Open a span at the current clock; close it with :meth:`end`."""
        self._next_id += 1
        span = Span(self._next_id, component, name, self._clock(),
                    parent=parent, track=track, attrs=attrs)
        self._open[span.span_id] = span
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current clock and record it."""
        if span.end_ns is not None:
            raise ValueError(f"span already ended: {span!r}")
        span.end_ns = self._clock()
        del self._open[span.span_id]
        if attrs:
            span.attrs.update(attrs)
        self._aggregate(span)
        self._retain(span)
        return span

    def instant(self, component: str, name: str, track: int = 0,
                **attrs: Any) -> Span:
        """Record a zero-duration mark (an event, not a stage)."""
        self._next_id += 1
        now = self._clock()
        span = Span(self._next_id, component, name, now, track=track,
                    attrs=attrs)
        span.end_ns = now
        span.kind = INSTANT_KIND
        self._retain(span)
        return span

    # ------------------------------------------------------------------
    def _aggregate(self, span: Span) -> None:
        stat = self.stage_stats.get((span.component, span.name))
        if stat is None:
            stat = StageStat()
            self.stage_stats[(span.component, span.name)] = stat
        stat.observe(span.duration_ns,
                     int(span.attrs.get("queue_ns", 0)),
                     int(span.attrs.get("bytes", 0)))

        # Checkpoint phase accounting: a phase span folds its duration
        # into its checkpoint root; a finished root becomes one summary.
        parent = span.parent
        if parent is not None and parent.component == "ckpt":
            if parent.phases is None:
                parent.phases = {}
            parent.phases[span.name] = \
                parent.phases.get(span.name, 0) + span.duration_ns
        if span.component == "ckpt" and \
                (parent is None or parent.component != "ckpt"):
            summary = {"strategy": span.attrs.get("strategy", span.name),
                       "start_ns": span.start_ns,
                       "duration_ns": span.duration_ns,
                       "phases": dict(span.phases or {})}
            summary.update({key: value for key, value in span.attrs.items()
                            if key not in summary})
            self.checkpoint_summaries.append(summary)

    def _retain(self, span: Span) -> None:
        ring = self._rings.get(span.component)
        if ring is None:
            ring = deque(maxlen=self.config.max_spans_per_component)
            self._rings[span.component] = ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(span)

    # ------------------------------------------------------------------
    def components(self) -> List[str]:
        """Component tags that recorded at least one span."""
        return sorted(self._rings)

    def spans(self, component: Optional[str] = None) -> List[Span]:
        """Retained (ring-buffered) spans, oldest first."""
        if component is not None:
            return list(self._rings.get(component, ()))
        result: List[Span] = []
        for ring in self._rings.values():
            result.extend(ring)
        result.sort(key=lambda span: (span.start_ns, span.span_id))
        return result

    @property
    def open_spans(self) -> int:
        """Spans begun but never ended (e.g. daemons killed mid-span)."""
        return len(self._open)

    def unfinished(self) -> List[Span]:
        """The open spans themselves, oldest first."""
        return list(self._open.values())

    def validate(self) -> List[str]:
        """Structural invariant check over the retained spans.

        Verifies that every finished span has ``end >= start`` and that no
        child span outlives its parent (children must close within the
        parent's window).  Returns human-readable violations.
        """
        problems: List[str] = []
        for span in self.spans():
            if span.end_ns is None:
                continue
            if span.end_ns < span.start_ns:
                problems.append(f"{span!r}: ends before it starts")
            parent = span.parent
            if parent is None:
                continue
            if span.start_ns < parent.start_ns:
                problems.append(f"{span!r}: starts before parent {parent!r}")
            if parent.end_ns is not None and span.end_ns > parent.end_ns:
                problems.append(f"{span!r}: outlives parent {parent!r}")
        return problems


class NullTracer:
    """Disabled tracer: every operation is a no-op, nothing is allocated."""

    enabled = False
    stage_stats: Dict[Tuple[str, str], StageStat] = {}
    checkpoint_summaries: List[Dict[str, Any]] = []
    dropped = 0
    open_spans = 0

    def begin(self, component: str, name: str, parent: Any = None,
              track: int = 0, **attrs: Any) -> _NullSpan:
        """Return the shared null span (no allocation)."""
        return NULL_SPAN

    def end(self, span: Any, **attrs: Any) -> _NullSpan:
        """Do nothing."""
        return NULL_SPAN

    def instant(self, component: str, name: str, track: int = 0,
                **attrs: Any) -> None:
        """Do nothing."""
        return None

    def components(self) -> List[str]:
        """No components."""
        return []

    def spans(self, component: Optional[str] = None) -> List[Span]:
        """No spans."""
        return []

    def validate(self) -> List[str]:
        """Nothing to violate."""
        return []


NULL_TRACER = NullTracer()
"""The shared disabled tracer every :class:`Simulator` starts with."""
