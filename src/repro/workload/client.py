"""Client pools: closed-loop threads and open-loop arrival dispatch.

Two ways to offer load:

* :class:`ClientPool` — the paper's closed-loop YCSB threads.  Each
  simulated application thread issues one operation at a time, so the
  pool self-throttles to whatever the system sustains (4 to 128 threads
  in the paper's sweep).
* :class:`OpenLoopClientPool` — arrivals on their own clock (see
  :mod:`repro.workload.arrivals`).  Each arrival instant spawns an
  independent in-flight operation regardless of how slow the system is,
  so saturation shows up as queueing and shedding instead of silently
  depressed throughput.

Both pools can sit behind a front-door
:class:`~repro.engine.admission.AdmissionController`: every submitted
operation then gets exactly one typed completion — executed (``ok``) or
shed with a reason — and time spent queued at the front door is charged
to the ``admission`` blame stage.  With no controller the closed-loop
path is byte-identical to the historical behaviour.

Every completed operation reports its latency (plus whether a checkpoint
was running when it *arrived*, which feeds the Figure 3(c) analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.common.errors import WorkloadError
from repro.engine.admission import AdmissionController
from repro.engine.engine import StorageEngine
from repro.obs.blame import ADMISSION, BlameCollector, RequestLedger
from repro.sim.core import Simulator, all_of
from repro.sim.process import Process, spawn
from repro.workload.ycsb import OpKind, Operation, OperationGenerator

LatencySink = Callable[[Operation, int, bool], None]
"""Callback: (operation, latency_ns, checkpoint_was_running)."""

OK = "ok"
"""Typed-completion bucket for operations that executed to completion."""


class _Pool:
    """The per-operation path both pools share.

    Subclasses set ``sim``, ``engine``, ``admission``, ``blame`` and
    ``on_complete``; each counts its own ``ok`` completions.
    """

    def _observed_op(self, operation: Operation, track: int, start: int,
                     ticket: Any) -> Generator[Any, Any, None]:
        """Run one admitted operation under its client span and ledger.

        ``start`` is when the operation arrived at the front door: the
        time since then is the ``admission`` stage and the latency the
        client reports runs from it.
        """
        sim = self.sim
        engine = self.engine
        tracer = sim.tracer
        ckpt_at_start = engine.checkpoint_running
        span = tracer.begin("client", operation.kind.value, track=track,
                            key=operation.key, during_ckpt=ckpt_at_start) \
            if tracer.enabled else None
        ledger = RequestLedger(
            sim, operation.kind.value, operation.key, ckpt_at_start,
            span.span_id if span is not None else None, since=start) \
            if self.blame is not None else None
        if ledger is not None:
            ledger.lap(ADMISSION)
        if operation.kind is OpKind.READ:
            yield from engine.get(operation.key, trace_parent=span,
                                  blame=ledger)
        elif operation.kind is OpKind.UPDATE:
            yield from engine.put(operation.key, trace_parent=span,
                                  blame=ledger)
        else:
            yield from engine.read_modify_write(
                operation.key, trace_parent=span, blame=ledger)
        if ticket is not None:
            self.admission.release()
        if span is not None:
            tracer.end(span)
        latency = sim.now - start
        if ledger is not None:
            ledger.finalize(latency)
            self.blame.record(ledger)
        if self.on_complete is not None:
            self.on_complete(operation, latency, ckpt_at_start)


@dataclass
class ClientPoolResult:
    """Summary of one pool run."""

    operations: int
    started_at: int
    finished_at: int
    completions: Dict[str, int] = field(default_factory=dict)
    """Typed-completion histogram (``ok`` plus shed reasons); empty for
    runs without an admission controller."""

    @property
    def duration_ns(self) -> int:
        """Wall-clock span of the measured phase."""
        return self.finished_at - self.started_at


class ClientPool(_Pool):
    """A fixed number of closed-loop threads sharing an operation budget."""

    def __init__(self, sim: Simulator, engine: StorageEngine,
                 generators: List[OperationGenerator],
                 total_operations: int,
                 on_complete: Optional[LatencySink] = None,
                 label: str = "",
                 blame: Optional[BlameCollector] = None,
                 admission: Optional[AdmissionController] = None) -> None:
        if not generators:
            raise WorkloadError("need at least one client thread")
        if total_operations < 1:
            raise WorkloadError("total_operations must be >= 1")
        self.sim = sim
        self.engine = engine
        self.generators = generators
        self.total_operations = total_operations
        self.on_complete = on_complete
        self.label = label
        """Process-name prefix; multi-tenant runs tag each tenant's
        threads (e.g. "tenant1.client0") for readable traces."""
        self.blame = blame
        """When set, every operation carries a blame ledger and lands in
        this collector at completion (see :mod:`repro.obs.blame`)."""
        self.admission = admission
        """Optional front door; ``None`` keeps the legacy path intact."""
        self.completions: Dict[str, int] = {}
        self._remaining = total_operations
        self._issued = 0

    @property
    def threads(self) -> int:
        """Thread count of the pool."""
        return len(self.generators)

    def start(self) -> Process:
        """Spawn every thread; returns a process to join for completion."""
        started_at = self.sim.now
        prefix = f"{self.label}." if self.label else ""
        workers = [spawn(self.sim, self._thread_loop(generator, i),
                         name=f"{prefix}client{i}")
                   for i, generator in enumerate(self.generators)]

        def waiter():
            yield all_of(self.sim, workers)
            return ClientPoolResult(operations=self._issued,
                                    started_at=started_at,
                                    finished_at=self.sim.now,
                                    completions=dict(self.completions))

        return spawn(self.sim, waiter(), name=f"{prefix}client-pool")

    def _thread_loop(self, generator: OperationGenerator,
                     thread: int) -> Generator[Any, Any, None]:
        while self._remaining > 0:
            self._remaining -= 1
            operation = generator.next_operation()
            started = self.sim.now
            ticket = None
            if self.admission is not None:
                ticket = self.admission.try_admit(
                    operation.kind is OpKind.READ)
                if ticket.shed:
                    self.completions[ticket.outcome] = \
                        self.completions.get(ticket.outcome, 0) + 1
                    continue
                if ticket.queued:
                    yield ticket.event
            yield from self._observed_op(operation, thread, started, ticket)
            if ticket is not None:
                self.completions[OK] = self.completions.get(OK, 0) + 1
            self._issued += 1


@dataclass
class OpenLoopResult:
    """Summary of one open-loop run: every arrival accounted for."""

    submitted: int
    completions: Dict[str, int]
    started_at: int
    finished_at: int

    @property
    def operations(self) -> int:
        """Operations that executed to completion (``ok`` bucket)."""
        return self.completions.get(OK, 0)

    @property
    def shed_total(self) -> int:
        return sum(count for reason, count in self.completions.items()
                   if reason != OK)

    @property
    def duration_ns(self) -> int:
        return self.finished_at - self.started_at

    def reconciles(self) -> bool:
        """No zombies: every arrival got exactly one typed completion."""
        return self.submitted == sum(self.completions.values())


class OpenLoopClientPool(_Pool):
    """Dispatch operations at externally generated arrival instants.

    A single dispatcher process sleeps to each arrival time (relative to
    pool start), takes the front-door decision synchronously, and spawns
    an independent worker for every admitted operation — the open-loop
    property: in-flight count is bounded only by the admission
    controller, never by a thread count.  Latency is measured from the
    *arrival* instant, so front-door queueing is part of the number the
    client sees (and is charged to the ``admission`` blame stage).
    """

    def __init__(self, sim: Simulator, engine: StorageEngine,
                 generator: OperationGenerator,
                 arrivals: Sequence[int],
                 admission: Optional[AdmissionController] = None,
                 on_complete: Optional[LatencySink] = None,
                 label: str = "",
                 blame: Optional[BlameCollector] = None) -> None:
        if not arrivals:
            raise WorkloadError("need at least one arrival instant")
        self.sim = sim
        self.engine = engine
        self.generator = generator
        self.arrivals = arrivals
        self.admission = admission
        self.on_complete = on_complete
        self.label = label
        self.blame = blame
        self.completions: Dict[str, int] = {}
        self.submitted = 0
        self._workers: List[Process] = []

    def start(self) -> Process:
        started_at = self.sim.now
        prefix = f"{self.label}." if self.label else ""
        dispatcher = spawn(self.sim, self._dispatch(prefix),
                           name=f"{prefix}dispatch")

        def waiter():
            yield dispatcher
            if self._workers:
                yield all_of(self.sim, self._workers)
            return OpenLoopResult(submitted=self.submitted,
                                  completions=dict(self.completions),
                                  started_at=started_at,
                                  finished_at=self.sim.now)

        return spawn(self.sim, waiter(), name=f"{prefix}open-loop-pool")

    def _dispatch(self, prefix: str) -> Generator[Any, Any, None]:
        base = self.sim.now
        for index, instant in enumerate(self.arrivals):
            target = base + instant
            if target > self.sim.now:
                yield target - self.sim.now
            operation = self.generator.next_operation()
            self.submitted += 1
            ticket = None
            if self.admission is not None:
                ticket = self.admission.try_admit(
                    operation.kind is OpKind.READ)
                if ticket.shed:
                    # Typed completion at dispatch time: the op never
                    # touches the engine, and is never acknowledged.
                    self.completions[ticket.outcome] = \
                        self.completions.get(ticket.outcome, 0) + 1
                    continue
            self._workers.append(
                spawn(self.sim, self._worker(operation, ticket, index),
                      name=f"{prefix}op{index}"))

    def _worker(self, operation: Operation, ticket: Any,
                index: int) -> Generator[Any, Any, None]:
        arrived = self.sim.now
        if ticket is not None and ticket.queued:
            yield ticket.event
        yield from self._observed_op(operation, index, arrived, ticket)
        self.completions[OK] = self.completions.get(OK, 0) + 1
