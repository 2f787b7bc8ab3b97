"""Shared-resource primitives for processes: Resource, Store, Lock.

These model contention points in the system: NVMe submission-queue slots,
flash channels and dies, the storage engine's worker pool, and so on.
All grant orderings are FIFO, which keeps runs deterministic.  An
uncontended :meth:`Resource.acquire` builds nothing: it returns the
shared :data:`~repro.sim.core.GRANTED` marker.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Union

from repro.common.errors import SimulationError
from repro.sim.core import GRANTED, Event, Simulator, _Granted


class Resource:
    """A counting resource with FIFO grant order.

    Usage inside a process::

        yield resource.acquire()   # GRANTED when free, else a pending Event
        try:
            ...critical section...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquirers still waiting."""
        return len(self._waiters)

    def acquire(self) -> Union[Event, _Granted]:
        """Request one slot; yield the result from a process.

        A free slot is taken at once and the shared :data:`GRANTED`
        marker is returned, so an uncontended grant allocates nothing.
        Otherwise the caller queues behind earlier acquirers and gets a
        pending Event that succeeds when :meth:`release` hands it the
        slot.  Either way the yielding process resumes in the same order
        as if it had waited on an Event.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return GRANTED
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one slot, waking the longest-waiting acquirer."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1

    def try_acquire(self) -> bool:
        """Grab a slot without waiting; True on success."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False


class Lock(Resource):
    """A mutex: a Resource of capacity one."""

    def __init__(self, sim: Simulator, name: str = "lock") -> None:
        super().__init__(sim, 1, name=name)

    @property
    def locked(self) -> bool:
        """True while held."""
        return self._in_use > 0


class Store:
    """An unbounded-or-bounded FIFO queue between processes."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "store") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying .value = item

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; succeeds when space is available."""
        event = self.sim.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            event.value = item
            self._putters.append(event)
        return event

    def get(self) -> Event:
        """Dequeue the oldest item; succeeds (with the item) when available."""
        event = self.sim.event()
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            event.succeed(item)
        elif self._putters:
            putter = self._putters.popleft()
            item = putter.value
            putter.value = None
            putter.succeed()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and (
                self.capacity is None or len(self._items) < self.capacity):
            putter = self._putters.popleft()
            self._items.append(putter.value)
            putter.value = None
            putter.succeed()
