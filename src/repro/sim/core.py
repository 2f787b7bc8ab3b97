"""Discrete-event simulation core: the event loop and the Event primitive.

The kernel is deliberately small and simpy-like.  A :class:`Simulator` owns
an integer-nanosecond clock and two queues of ``fn(arg)`` callbacks: a
binary heap of ``(when, seq, fn, arg)`` entries for callbacks due later,
and a same-instant FIFO of ``(fn, arg)`` entries for callbacks due now
(event wake-ups, process starts, interrupts, ``schedule(0, ...)``).
Generator-based processes (see :mod:`repro.sim.process`) are built on top of
:class:`Event`; :data:`GRANTED` stands in for an Event that would be
granted at once.

Determinism: ties in time are broken by a monotonically increasing sequence
number, so two runs with the same seeds produce identical event orderings.
Splitting off the FIFO keeps that order exactly: a heap entry due at ``now``
was scheduled before ``now``, so it precedes every FIFO entry, and the
loops fire it first; FIFO entries fire in append order, which is the order
their sequence numbers would have had.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.trace.tracer import NULL_TRACER

HeapEntry = Tuple[int, int, Callable[[Any], None], Any]
ReadyEntry = Tuple[Callable[[Any], None], Any]


class Simulator:
    """The event loop.

    Example::

        sim = Simulator()
        sim.schedule(10, lambda: print(sim.now))
        sim.run()

    ``strict_failures`` (default on) makes :meth:`run` raise when a failed
    event drained out of the loop without any waiter ever observing the
    exception — otherwise a failed flash op can vanish without trace.
    """

    #: Dead-entry compaction kicks in once at least this many cancelled
    #: timers sit in the heap *and* they outnumber the live ones.
    COMPACT_MIN_DEAD = 64

    def __init__(self, strict_failures: bool = True) -> None:
        self._now = 0
        self._seq = 0
        self._heap: List[HeapEntry] = []
        self._ready: Deque[ReadyEntry] = deque()
        self._dead_timers = 0
        self.strict_failures = strict_failures
        self._unconsumed_failures: Dict[int, "Event"] = {}
        self._crashed = False
        self._live_processes: Dict[int, Any] = {}  # id -> Process, in spawn order
        self.tracer: Any = NULL_TRACER
        """Span recorder every component reads; :data:`NULL_TRACER` until a
        real :class:`repro.trace.Tracer` is installed (``--trace``)."""
        self.flightrec: Any = None
        """Black-box flight recorder (:mod:`repro.obs.flightrec`);
        ``None`` unless armed."""
        self.obs: Any = None
        """Point-event emit path (:class:`repro.obs.events.Observer`);
        ``None`` until a tracer is installed or a flight recorder armed —
        every emitting site guards on it, so unobserved runs allocate
        nothing."""

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def crashed(self) -> bool:
        """True after :meth:`power_cut`; the loop no longer accepts work."""
        return self._crashed

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> "_Timer":
        """Run ``fn(*args)`` after ``delay`` ns; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if self._crashed:
            # Power is gone: nothing scheduled after the cut may ever run.
            timer = _Timer(None, fn, args)
            timer.cancelled = True
            return timer
        timer = _Timer(self, fn, args)
        self._push(delay, _fire_timer, timer)
        return timer

    def _push(self, delay: int, fn: Callable[[Any], None], arg: Any) -> Any:
        """Queue ``fn(arg)`` after ``delay`` ns; returns its queue entry.

        Process starts, sleeps and interrupts call this directly, so they
        allocate no :class:`_Timer`; :meth:`_unschedule` takes the entry
        back out.  Suppressed (returns None) after a power cut.
        """
        if self._crashed:
            return None
        if delay == 0:
            entry: Any = (fn, arg)
            self._ready.append(entry)
        else:
            self._seq += 1
            entry = (self._now + delay, self._seq, fn, arg)
            heapq.heappush(self._heap, entry)
        return entry

    def _unschedule(self, entry: Any) -> None:
        """Remove a queued process wake-up in place (interrupt and kill only).

        The entry disappears as if it had never been queued, so it is not
        counted by :meth:`step`, reported by :meth:`peek` or allowed to
        advance the clock.  Removal is by identity; an entry that already
        fired or was discarded by :meth:`power_cut` is simply not found.
        """
        queue: Any = self._ready if len(entry) == 2 else self._heap
        for index, queued in enumerate(queue):
            if queued is entry:
                del queue[index]
                if queue is self._heap:
                    heapq.heapify(queue)
                return

    def power_cut(self) -> int:
        """Kill the simulation at the current event boundary (power loss).

        Every pending timer and same-instant callback is discarded and
        every live process is torn down without resuming it — generators
        are closed so their ``finally`` blocks run, but anything they try
        to schedule is suppressed.  Returns the number of processes
        killed.  After the cut only forensic (zero-time) inspection of
        durable state is meaningful; :meth:`run`/:meth:`step` find both
        queues empty.
        """
        if self._crashed:
            return 0
        self._crashed = True
        # Cleared in place: a loop that called us holds local bindings.
        self._heap.clear()
        self._ready.clear()
        self._dead_timers = 0
        victims = list(self._live_processes.values())
        for process in victims:
            process.kill()
        self._live_processes.clear()
        self._unconsumed_failures.clear()
        return len(victims)

    # -- unconsumed-failure tracking ------------------------------------
    def _note_unconsumed_failure(self, event: "Event") -> None:
        if not self._crashed:
            self._unconsumed_failures[id(event)] = event

    def _consume_failure(self, event: "Event") -> None:
        self._unconsumed_failures.pop(id(event), None)

    def unconsumed_failures(self) -> List[BaseException]:
        """Exceptions from failed events that no waiter has observed."""
        return [event.exception for event in self._unconsumed_failures.values()
                if event.exception is not None]

    def _check_unconsumed(self) -> None:
        if not self.strict_failures or self._crashed:
            return
        failures = self.unconsumed_failures()
        if failures:
            raise SimulationError(
                f"{len(failures)} event failure(s) were never consumed by any "
                f"waiter (first: {failures[0]!r})") from failures[0]

    def event(self) -> "Event":
        """Create a fresh untriggered event bound to this simulator."""
        return Event(self)

    # -- dispatch --------------------------------------------------------
    # Every loop below applies one rule: fire the heap head if it is due
    # at ``now`` (it was scheduled before ``now``, so it precedes every
    # FIFO entry), else the FIFO head, else advance the clock to the heap
    # head.  Heap entries due at ``now`` cannot appear while the FIFO
    # drains — a delay-0 callback goes to the FIFO — so once the heap head
    # lies in the future the FIFO may be drained without looking again.
    # Heap and FIFO are bound to locals once and never rebound (power_cut
    # and compaction work in place); a cancelled public timer stays in the
    # heap as a dead entry and is skipped without touching the clock.

    def step(self) -> bool:
        """Execute the next pending callback; return False when idle."""
        heap = self._heap
        ready = self._ready
        while True:
            if ready and (not heap or heap[0][0] != self._now):
                fn, arg = ready.popleft()
                fn(arg)
                return True
            if not heap:
                return False
            when, _seq, fn, arg = heapq.heappop(heap)
            if fn is _fire_timer and arg.cancelled:
                self._dead_timers -= 1
                continue
            if when < self._now:
                raise SimulationError("event heap yielded a past timestamp")
            self._now = when
            fn(arg)
            return True

    def run(self, until: Optional[int] = None) -> None:
        """Run until both queues drain, or until simulated time ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.
        """
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = heapq.heappop
        fire = _fire_timer
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is before now={self._now}")
        while True:
            if ready and (not heap or heap[0][0] != self._now):
                while ready:
                    fn, arg = popleft()
                    fn(arg)
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                break
            when, _seq, fn, arg = pop(heap)
            if fn is fire and arg.cancelled:
                self._dead_timers -= 1
                continue
            self._now = when
            fn(arg)
        if until is not None:
            self._now = until
        self._check_unconsumed()

    def run_until_triggered(self, event: "Event", name: str = "event") -> None:
        """Drive the loop until ``event`` resolves (the hot join path).

        Raises when both queues drain first — a joined process that can no
        longer make progress is a deadlock, not quiet success.
        """
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = heapq.heappop
        fire = _fire_timer
        while not event._resolved:
            if ready and (not heap or heap[0][0] != self._now):
                while ready:
                    fn, arg = popleft()
                    fn(arg)
                    if event._resolved:
                        return
                continue
            if not heap:
                raise SimulationError(
                    f"event loop drained while waiting for {name}")
            when, _seq, fn, arg = pop(heap)
            if fn is fire and arg.cancelled:
                self._dead_timers -= 1
                continue
            self._now = when
            fn(arg)

    def peek(self) -> Optional[int]:
        """Timestamp of the next live event, or None when idle."""
        if self._ready:
            return self._now
        heap = self._heap
        while heap and heap[0][2] is _fire_timer and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead_timers -= 1
        return heap[0][0] if heap else None

    def _timer_cancelled(self, timer: "_Timer") -> None:
        """Take a cancelled public timer out of service.

        A same-instant timer leaves the FIFO at once.  A heap timer stays
        as a dead entry; once dead entries dominate, the heap is compacted
        *in place* (slice assignment) so the local bindings held by
        :meth:`run`/:meth:`step` stay valid, and the survivors keep their
        (when, seq) keys, so the firing order is untouched.
        """
        ready = self._ready
        for index, (_fn, arg) in enumerate(ready):
            if arg is timer:
                del ready[index]
                return
        self._dead_timers += 1
        heap = self._heap
        if self._dead_timers >= self.COMPACT_MIN_DEAD and \
                self._dead_timers * 2 >= len(heap):
            heap[:] = [entry for entry in heap
                       if entry[2] is not _fire_timer or not entry[3].cancelled]
            heapq.heapify(heap)
            self._dead_timers = 0


class _Timer:
    """Handle for a callback queued by :meth:`Simulator.schedule`."""

    __slots__ = ("_sim", "_fn", "_args", "cancelled")

    def __init__(self, sim: Optional[Simulator],
                 fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self._sim = sim
        self._fn = fn
        self._args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._timer_cancelled(self)


def _fire_timer(timer: _Timer) -> None:
    """Queue-entry function of every public timer."""
    timer._fn(*timer._args)


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*; a single call to :meth:`succeed` or
    :meth:`fail` resolves it and wakes every waiter.  Waiters registered
    after resolution are woken immediately (same timestamp).
    """

    __slots__ = ("sim", "_callbacks", "_resolved", "value", "exception",
                 "_defused")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self._resolved = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event succeeded or failed."""
        return self._resolved

    @property
    def ok(self) -> bool:
        """True when the event resolved successfully."""
        return self._resolved and self.exception is None

    def succeed(self, value: Any = None) -> "Event":
        """Resolve successfully with an optional value."""
        self._resolve(value, None)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Resolve with an exception; waiters will see it re-raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._resolve(None, exception)
        return self

    def _resolve(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._resolved:
            raise SimulationError("event already triggered")
        self._resolved = True
        self.value = value
        self.exception = exception
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            sim = self.sim
            if not sim._crashed:
                append = sim._ready.append
                for callback in callbacks:
                    append((callback, self))
        elif exception is not None and not self._defused:
            # Nobody is waiting: remember the failure so it cannot vanish
            # silently (surfaced at run() exit under strict_failures).
            self.sim._note_unconsumed_failure(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when resolved (immediately if already)."""
        if self._resolved:
            sim = self.sim
            if self.exception is not None:
                sim._consume_failure(self)
            if not sim._crashed:
                sim._ready.append((callback, self))
        else:
            self._callbacks.append(callback)

    def defuse(self) -> "Event":
        """Declare this event's failure handled (strict-mode opt-out).

        Works before or after resolution: a defused event never counts as
        an unconsumed failure.
        """
        self._defused = True
        self.sim._consume_failure(self)
        return self


class _Granted:
    """Type of :data:`GRANTED`: an already-succeeded, valueless wait."""

    __slots__ = ()
    triggered = True
    value = None

    def __repr__(self) -> str:
        return "GRANTED"


GRANTED = _Granted()
"""What :meth:`Resource.acquire` returns for an uncontended grant.

A process that yields it resumes exactly where a yielded
already-succeeded :class:`Event` would — appended to the same-instant
FIFO, receiving ``None`` — but no Event is built.  Only a process may
wait on it: it has no callbacks, so it cannot join ``all_of``/``any_of``.
"""


def _absorb_late_failure(done: Event, late: Event) -> None:
    """Fold a post-resolution input failure into an already-settled combinator.

    Fail-fast combinators keep their callbacks registered on the inputs
    that have not resolved yet, so a *later* failure used to land in a
    no-op callback: :meth:`Event._resolve` saw a waiter and never flagged
    the exception, and it vanished without reaching ``strict_failures``.
    The combinator genuinely observes these failures, so it defuses them
    explicitly and aggregates them onto the first exception
    (``exc.late_failures``) where the joiner can still inspect them.
    """
    late.defuse()
    first = done.exception
    if first is None:
        return
    try:
        collected = getattr(first, "late_failures", None)
        if collected is None:
            collected = []
            first.late_failures = collected
        collected.append(late.exception)
    except AttributeError:
        pass  # exception type forbids attributes; defusal already recorded it


def all_of(sim: Simulator, events: List[Event]) -> Event:
    """An event that succeeds once every input event has resolved.

    Fails fast with the first failure observed; failures of the *other*
    inputs after that point are defused and collected on the first
    exception's ``late_failures`` list.  The value is the list of input
    event values in input order.
    """
    done = sim.event()
    if not events:
        done.succeed([])
        return done
    remaining = [len(events)]

    def on_resolved(_ev: Event) -> None:
        if done.triggered:
            if _ev.exception is not None:
                _absorb_late_failure(done, _ev)
            return
        if _ev.exception is not None:
            done.fail(_ev.exception)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            done.succeed([e.value for e in events])

    for event in events:
        event.add_callback(on_resolved)
    return done


def any_of(sim: Simulator, events: List[Event]) -> Event:
    """An event that resolves as soon as any input event does.

    Input failures arriving after the race is decided are defused (and
    collected when the winner was itself a failure) instead of silently
    vanishing in the already-resolved combinator.
    """
    done = sim.event()
    if not events:
        raise SimulationError("any_of requires at least one event")

    def on_resolved(_ev: Event) -> None:
        if done.triggered:
            if _ev.exception is not None:
                _absorb_late_failure(done, _ev)
            return
        if _ev.exception is not None:
            done.fail(_ev.exception)
        else:
            done.succeed(_ev.value)

    for event in events:
        event.add_callback(on_resolved)
    return done
