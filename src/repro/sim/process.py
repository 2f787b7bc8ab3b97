"""Generator-based simulation processes.

A *process* is a Python generator driven by the event loop.  Inside the
generator you may::

    yield 500            # sleep 500 ns
    value = yield event  # wait for an Event; receives event.value
    yield resource.acquire()  # an Event, or GRANTED when a slot is free
    result = yield proc  # join another Process; receives its return value

Processes are themselves :class:`~repro.sim.core.Event` subclasses that
resolve when the generator returns (value = the ``return`` value) or raises
(failure).  Failures propagate to joiners; a failure nobody joins is
re-raised out of :meth:`Simulator.run` unless the process is ``defused``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple, Union

from repro.common.errors import PowerLossError, SimulationError
from repro.sim.core import GRANTED, Event, Simulator

ProcessGenerator = Generator[Union[int, Event], Any, Any]


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator coroutine; also an Event for joining."""

    __slots__ = ("_generator", "name", "defused", "_waiting_on", "_sleep_entry")

    def __init__(self, sim: Simulator, generator: ProcessGenerator,
                 name: str = "process") -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name
        self.defused = False
        self._waiting_on: Union[Event, Tuple["Process"], None] = None
        """The Event being waited on, or the 1-tuple token of a pending
        :data:`GRANTED` wake-up."""
        self._sleep_entry: Any = None
        sim._live_processes[id(self)] = self
        sim._push(0, Process._resume, self)

    def _resolve(self, value: Any, exception: Optional[BaseException]) -> None:
        super()._resolve(value, exception)
        self.sim._live_processes.pop(id(self), None)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process blocked on an event stops waiting for it; a sleeping
        process wakes early.  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self._detach_wait()
        self.sim._push(0, self._throw, Interrupt(cause))

    def kill(self) -> None:
        """Tear the process down without resuming it (power-cut unwinding).

        The generator is closed so ``finally`` blocks run, then the
        process resolves with :class:`PowerLossError`.  Only meaningful
        during :meth:`Simulator.power_cut`, when scheduling is suppressed
        — nothing the teardown triggers can execute afterwards.
        """
        if self.triggered:
            return
        self._detach_wait()
        self.defused = True
        try:
            self._generator.close()
        except BaseException:  # noqa: BLE001 - teardown must not propagate
            pass
        if not self.triggered:
            self.fail(PowerLossError(f"process {self.name} lost power"))
            self.sim._consume_failure(self)

    def _detach_wait(self) -> None:
        """Stop waiting: unqueue a pending sleep, deregister from an event.

        The sleep's queue entry is removed in place, so the abandoned
        wake-up is never counted by ``step()``, reported by ``peek()`` or
        allowed to advance the clock.  Deregistering from an event matters
        beyond the callback-list leak: a stale ``_on_event`` left behind
        makes :meth:`Event._resolve` believe a waiter exists, so if the
        abandoned event later *fails* the exception is considered consumed
        and never reaches ``strict_failures``.  (An event that already
        resolved has handed its callbacks to the scheduler; the
        stale-wake-up guard in :meth:`_on_event` covers that window.  A
        :data:`GRANTED` wake-up is in that state from the start: its
        queued entry stays and fires as a no-op step, exactly like the
        wake-up of an Event that was granted at once.)
        """
        if self._sleep_entry is not None:
            self.sim._unschedule(self._sleep_entry)
            self._sleep_entry = None
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            if isinstance(waiting, Event) and not waiting.triggered:
                try:
                    waiting._callbacks.remove(self._on_event)
                except ValueError:
                    pass

    # -- driving the generator ------------------------------------------
    def _resume(self, value: Any = None,
                exc: Optional[BaseException] = None) -> None:
        """Send ``value`` (or throw ``exc``) in, then queue what it yields."""
        if self._resolved:
            return
        try:
            if exc is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as raised:  # noqa: BLE001 - deliberate fail-path
            self._handle_failure(raised)
            return
        if target is GRANTED:
            # Same FIFO slot as add_callback() on a resolved Event; the
            # token tells this wake-up apart from a stale one.
            token = (self,)
            self._waiting_on = token
            sim = self.sim
            if not sim._crashed:
                sim._ready.append((_on_grant, token))
            return
        if isinstance(target, int):
            if target < 0:
                self._handle_failure(
                    SimulationError(f"process {self.name} slept {target} ns"))
            else:
                self._sleep_entry = self.sim._push(target, Process._wake, self)
            return
        if isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._on_event)
            return
        self._handle_failure(SimulationError(
            f"process {self.name} yielded {type(target).__name__}; "
            "expected int delay, Event or GRANTED"))

    def _throw(self, exc: BaseException) -> None:
        self._resume(None, exc)

    def _wake(self) -> None:
        self._sleep_entry = None
        self._resume()

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up after an interrupt
        self._waiting_on = None
        self._resume(event.value, event.exception)

    def _handle_failure(self, exc: BaseException) -> None:
        self.defused = self.defused or bool(self._callbacks)
        try:
            self.fail(exc)
        except SimulationError:
            raise exc
        # The failure is surfaced here, by re-raise or deliberate defusal;
        # it must not also count as an unconsumed event failure.
        self.sim._consume_failure(self)
        if not self.defused:
            raise exc


def _on_grant(token: Tuple[Process]) -> None:
    """Queue-entry function of a :data:`GRANTED` wake-up."""
    process = token[0]
    if process._waiting_on is not token:
        return  # stale wake-up after an interrupt
    process._waiting_on = None
    process._resume()


def spawn(sim: Simulator, generator: ProcessGenerator, name: str = "process") -> Process:
    """Start a new process running ``generator``."""
    return Process(sim, generator, name=name)


def sleep_event(sim: Simulator, delay: int) -> Event:
    """An event that succeeds after ``delay`` ns (composable with any_of)."""
    event = sim.event()
    sim.schedule(delay, event.succeed)
    return event
