"""Primary-side replication log and journal shipper.

The :class:`ReplicationLog` is the primary's append-only record of every
locally-committed update, in commit order.  It is the *source of truth*
for the whole replication path: the shipper reads batches out of it, the
snapshot store folds prefixes of it into epochs, and a NACKed replica is
healed by re-shipping from it — nothing downstream ever needs to be
trusted, because everything downstream can be regenerated from the log.

The :class:`JournalShipper` is a process on the *primary's* simulator
that ships un-acked log suffixes to the replica as framed byte streams
(see :mod:`repro.replication.frames`) over a simulated link with
configurable latency and bandwidth, subject to a bounded in-flight
window (the "ship queue").  It tracks three monotone offsets::

    acked_offset <= shipped_offset <= len(log)

``acked_offset`` is the durability contract floor at failover: a
promoted replica must serve every write at or below it.  Writes between
``acked_offset`` and ``shipped_offset`` are *on the wire* — they may or
may not survive a primary kill.  Writes past ``shipped_offset`` are
definitively lost with the primary (asynchronous replication) unless
semi-sync mode made their puts wait via :meth:`wait_acked`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.sim.core import Event, Simulator


@dataclass(frozen=True)
class LinkSpec:
    """The simulated primary→replica link and shipping policy."""

    latency_ns: int = 50_000
    """One-way propagation delay (both directions)."""

    gbit_per_s: float = 10.0
    """Link bandwidth; 1 Gbit/s is exactly 1 bit/ns, so the serialization
    delay of ``n`` bytes is ``8 * n / gbit_per_s`` ns."""

    batch_ops: int = 64
    """Log entries per shipped batch (one framed stream per batch)."""

    queue_depth: int = 4
    """Bounded ship queue: un-acked batches in flight before the shipper
    stalls.  Depth 1 degenerates to ship-and-wait."""

    poll_ns: int = 20_000
    """Shipper wake-up granularity when idle-waiting for new commits."""

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise ConfigError("link latency_ns must be >= 0")
        if self.gbit_per_s <= 0:
            raise ConfigError("link gbit_per_s must be > 0")
        if self.batch_ops < 1 or self.queue_depth < 1:
            raise ConfigError("batch_ops and queue_depth must be >= 1")
        if self.poll_ns < 1:
            raise ConfigError("poll_ns must be >= 1")

    def transfer_ns(self, nbytes: int) -> int:
        """Serialization delay of ``nbytes`` on this link."""
        return int(round(8.0 * nbytes / self.gbit_per_s))


class ReplicationLog:
    """Append-only commit-ordered log of ``(offset, key, version, nbytes)``.

    Offsets are 1-based op counts: entry ``i`` (0-based) has offset
    ``i + 1``, and "state at offset N" means the fold of the first N
    entries.  This makes ``len(log)``, ``shipped_offset`` and
    ``acked_offset`` directly comparable.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[int, int, int, int]] = []
        self.total_bytes = 0
        self._on_append: List[Callable[[int], None]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, key: int, version: int, nbytes: int) -> int:
        """Record one committed update; returns its (1-based) offset."""
        offset = len(self.entries) + 1
        self.entries.append((offset, key, version, nbytes))
        self.total_bytes += nbytes
        for hook in self._on_append:
            hook(offset)
        return offset

    def subscribe(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(offset)`` after every append (shipper wake-up)."""
        self._on_append.append(hook)

    def bytes_through(self, offset: int) -> int:
        """Total payload bytes of the first ``offset`` entries."""
        return sum(entry[3] for entry in self.entries[:offset])

    def fold(self, offset: int) -> dict:
        """Key -> newest version over the first ``offset`` entries."""
        state: dict = {}
        for _off, key, version, _nbytes in self.entries[:offset]:
            state[key] = version
        return state


class JournalShipper:
    """Ships un-acked :class:`ReplicationLog` suffixes to the replica.

    ``transmit(nbytes, deliver)`` is injected by the pair driver: it
    models the link (latency + serialization, FIFO) and arranges for
    ``deliver(data)`` to run on the replica's simulator.  The shipper
    itself never touches the other simulator.
    """

    def __init__(self, sim: Simulator, log: ReplicationLog, spec: LinkSpec,
                 transmit: Callable[[bytes, str], None],
                 stats: Any = None) -> None:
        self.sim = sim
        self.log = log
        self.spec = spec
        self.transmit = transmit
        self.shipped_offset = 0
        self.acked_offset = 0
        self.acked_bytes = 0
        self.nacks = 0
        self.reshipped_ops = 0
        self.batches_shipped = 0
        self.bytes_shipped = 0
        self._in_flight = 0
        self._wake: Optional[Event] = None
        self._ack_waiters: List[Tuple[int, Event]] = []
        self._stats = stats
        log.subscribe(lambda _offset: self.notify())

    # -- lag probes (telemetry gauges read these) ----------------------
    @property
    def ship_lag_ops(self) -> int:
        """Committed-but-unacked ops (the RPO exposure right now)."""
        return len(self.log) - self.acked_offset

    @property
    def ship_lag_bytes(self) -> int:
        """Committed-but-unacked payload bytes."""
        return self.log.total_bytes - self.acked_bytes

    # -- shipping process ----------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        """The shipper daemon (spawn on the primary simulator)."""
        from repro.replication.frames import encode_stream
        while True:
            while (self.shipped_offset >= len(self.log)
                   or self._in_flight >= self.spec.queue_depth):
                self._wake = self.sim.event()
                yield self._wake
                self._wake = None
            base = self.shipped_offset
            batch = self.log.entries[base:base + self.spec.batch_ops]
            data = encode_stream({"kind": "ship", "base": base},
                                 [list(entry) for entry in batch])
            self.shipped_offset = base + len(batch)
            self._in_flight += 1
            self.batches_shipped += 1
            self.bytes_shipped += len(data)
            if self._stats is not None:
                self._stats.counter("repl.batches_shipped").add(
                    1, num_bytes=len(data))
            obs = self.sim.obs
            if obs is not None:
                obs.emit("repl", "ship", base=base, ops=len(batch),
                         bytes=len(data))
            self.transmit(data, "ship")
            # Pace successive batches by the batch's own wire time so a
            # slow link backs pressure into the ship queue instead of
            # teleporting unbounded data per simulated instant.
            yield self.spec.transfer_ns(len(data))

    def notify(self) -> None:
        """Wake the shipper (new commit or freed window slot)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    # -- replica feedback (delivered onto the primary sim) -------------
    def on_ack(self, offset: int) -> None:
        """The replica has durably applied everything through ``offset``."""
        if offset <= self.acked_offset:
            return
        self.acked_offset = offset
        self.acked_bytes = self.log.bytes_through(offset)
        self._in_flight = max(
            0, -(-(self.shipped_offset - offset) // self.spec.batch_ops))
        still_waiting: List[Tuple[int, Event]] = []
        for want, event in self._ack_waiters:
            if want <= offset:
                event.succeed(offset)
            else:
                still_waiting.append((want, event))
        self._ack_waiters = still_waiting
        self.notify()

    def on_nack(self, offset: int) -> None:
        """The replica refused a stream; rewind and re-ship from the log.

        ``offset`` is the replica's applied offset — the log prefix it
        still trusts.  Everything after it is re-shipped; the log is the
        source of truth, so recovery is a pure rewind.
        """
        self.nacks += 1
        if self._stats is not None:
            self._stats.counter("repl.nacks").add(1)
        rewound = 0
        if offset < self.shipped_offset:
            rewound = self.shipped_offset - offset
            self.reshipped_ops += rewound
            self.shipped_offset = offset
        obs = self.sim.obs
        if obs is not None:
            obs.emit("repl", "nack_rewind", offset=offset,
                     rewound_ops=rewound, nacks=self.nacks,
                     ship_lag_ops=self.ship_lag_ops)
        self._in_flight = 0
        self.notify()

    # -- semi-sync -----------------------------------------------------
    def wait_acked(self, offset: int) -> Optional[Event]:
        """Event that fires once ``offset`` is replica-acked (None if
        already acked) — the engine's ``repl_wait`` hook."""
        if offset <= self.acked_offset:
            return None
        event = self.sim.event()
        self._ack_waiters.append((offset, event))
        return event

    def abandon_waiters(self) -> None:
        """Fail-open any semi-sync waiters (used at teardown)."""
        for _want, event in self._ack_waiters:
            if not event.triggered:
                event.succeed(None)
        self._ack_waiters = []
