"""Primary + warm replica as a co-simulated pair, with promote-on-failure.

:class:`ReplicatedPair` owns two full :class:`~repro.system.system.KvSystem`
instances — each with its *own* simulator, because
:func:`~repro.fault.crash.power_cut` kills an entire event loop and the
replica must survive the primary's death — and drives them with a
merged-time loop: :meth:`step` always fires the globally-earliest event
across both heaps.  That invariant makes the link trivial: at any send
instant the target's clock is at or behind the sender's, so a delivery
at ``send + latency + serialization`` can be scheduled straight into the
target simulator with a non-negative delay.  No pending-delivery queue,
no clock skew.

The replica is *warm*: a :class:`ReplicaApplier` process replays shipped
batches through ``engine.apply_replicated`` (same journal path as a
primary put, explicit versions), and a replica-side checkpoint trigger
keeps its journal from filling — so at promote time it is a running
system, not a pile of bytes.

Failure protocol: any typed frame error (or offset gap from a dropped
batch) makes the applier *refuse* the stream — it discards everything
queued after the damage and NACKs its applied offset back; the shipper
rewinds to that offset and re-ships from the
:class:`~repro.replication.ship.ReplicationLog`, the source of truth.
Corruption therefore costs latency, never correctness.

Promote protocol (:meth:`promote`): drain what is already on the wire
(deliveries scheduled before the kill still arrive — they were in
flight), wait out the failover detection delay, then serve the first
read.  RTO is first-read completion minus kill time; RPO is the
primary-committed suffix the replica never applied.  The durability
contract checked everywhere: ``acked_offset <= applied_offset``, and the
replica's key→version state equals the primary log folded to exactly
``applied_offset`` — so no acked write can be lost (shed∩lost = ∅).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.common.errors import (
    ConfigError,
    ReplicationError,
    SimulationError,
    SnapshotFrameError,
)
from repro.fault.crash import CrashReport, power_cut
from repro.replication.frames import decode_stream
from repro.replication.ship import JournalShipper, LinkSpec, ReplicationLog
from repro.replication.store import CheckpointStore
from repro.sim.core import Event
from repro.sim.process import Interrupt, Process, spawn
from repro.system.config import SystemConfig
from repro.system.system import KvSystem

ACK_BYTES = 32
"""Modeled wire size of an ack/nack control message."""

DEFAULT_FAILOVER_DETECT_NS = 500_000
"""Time between the primary dying and the replica deciding to promote
(health-check timeout in a real deployment)."""


def state_digest(versions: Dict[int, int]) -> str:
    """Order-independent 16-hex digest of a key→version state map."""
    blob = ";".join(f"{key}:{versions[key]}" for key in sorted(versions))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def read_back(system: KvSystem, acked_state: Dict[int, int],
              role: str) -> int:
    """Read every acked key through ``system``'s engine; raise
    :class:`ReplicationError` if one serves an older version than was
    acked.  Returns the number of reads."""
    for key in sorted(acked_state):
        read = spawn(system.sim, system.engine.get(key),
                     name=f"{role}-verify-{key}")
        system.sim.run_until_triggered(read, name=f"{role}-verify")
        if not read.ok:
            raise read.exception
        if read.value < acked_state[key]:
            raise ReplicationError(
                f"acked write lost in {role}: key {key} acked at version "
                f"{acked_state[key]}, served {read.value}")
    return len(acked_state)


@dataclass
class PromoteReport:
    """Everything a promote-on-failure measured and verified."""

    kill_ns: int
    promoted_ns: int
    """Replica time when its first post-failover read completed."""

    rto_ns: int
    """promoted_ns - kill_ns: simulated time to first served read."""

    rpo_ops: int
    """Primary-committed ops the promoted replica never applied."""

    primary_ops: int
    shipped_offset: int
    acked_offset: int
    applied_offset: int
    digest: str
    """Digest of the promoted replica's key→version state."""

    expected_digest: str
    """Digest of the primary log folded to ``applied_offset``."""

    verified_reads: int
    """Acked keys actually read back through the promoted engine."""

    nacks: int
    frames_refused: int

    @property
    def contract_ok(self) -> bool:
        """No acked write lost and state exactly matches the log fold."""
        return (self.acked_offset <= self.applied_offset
                and self.digest == self.expected_digest)


class ReplicaApplier:
    """Replica-side process: decode, validate, apply, ack.

    Batches arrive via :meth:`deliver` (scheduled onto the replica's
    simulator by the pair's link model).  A batch that fails frame
    validation — or opens an offset gap, meaning an earlier batch was
    lost or refused — is *refused*: the queue is purged (everything
    behind damage is suspect) and a NACK carrying ``applied_offset``
    goes back so the shipper can rewind and re-ship.
    """

    def __init__(self, system: KvSystem,
                 feedback: Callable[[str, int], None]) -> None:
        self.system = system
        self.engine = system.engine
        self.feedback = feedback
        self.applied_offset = 0
        self.replay_applied = 0
        self.batches_applied = 0
        self.frames_refused = 0
        self.queue: List[bytes] = []
        self.busy = False
        self._wake: Optional[Event] = None

    def deliver(self, data: bytes) -> None:
        """A shipped batch arrived off the wire (replica-sim callback)."""
        self.queue.append(data)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _refuse(self, reason: str) -> None:
        self.frames_refused += 1
        self.engine.stats.counter("repl.frames_refused").add(1)
        self.queue.clear()
        obs = self.system.sim.obs
        if obs is not None:
            obs.emit("repl", "refuse", reason=reason[:80],
                     applied_offset=self.applied_offset,
                     frames_refused=self.frames_refused)
        self.feedback("nack", self.applied_offset)

    def run(self) -> Generator[Any, Any, None]:
        """The applier daemon (spawn on the replica simulator)."""
        sim = self.system.sim
        try:
            while True:
                while not self.queue:
                    self._wake = sim.event()
                    yield self._wake
                    self._wake = None
                data = self.queue.pop(0)
                self.busy = True
                try:
                    try:
                        meta, records = decode_stream(data)
                    except SnapshotFrameError as exc:
                        self._refuse(str(exc))
                        continue
                    if meta.get("kind") != "ship":
                        self._refuse(f"unexpected stream kind "
                                     f"{meta.get('kind')!r}")
                        continue
                    gap = False
                    for offset, key, version, _nbytes in records:
                        if offset <= self.applied_offset:
                            continue  # re-shipped overlap; already applied
                        if offset != self.applied_offset + 1:
                            gap = True
                            break
                        yield from self.engine.apply_replicated(key, version)
                        self.applied_offset = offset
                        self.replay_applied += 1
                    if gap:
                        self._refuse("offset gap: an earlier batch was "
                                     "lost or refused")
                        continue
                    self.batches_applied += 1
                    self.feedback("ack", self.applied_offset)
                finally:
                    self.busy = False
        except Interrupt:
            return


class ReplicatedPair:
    """A primary and its warm replica, joined by a simulated link."""

    def __init__(self, config: SystemConfig,
                 link: Optional[LinkSpec] = None,
                 semi_sync: bool = False,
                 snapshot_retain: int = 3,
                 tamper: Optional[Callable[[bytes, int], Optional[bytes]]]
                 = None) -> None:
        if config.tenants is not None:
            raise ConfigError("replication drives single-tenant systems")
        if config.arrivals is not None and semi_sync:
            raise ConfigError("semi-sync replication needs closed-loop "
                              "clients (open-loop acks would be unbounded)")
        self.config = config
        self.link = link if link is not None else LinkSpec()
        self.semi_sync = semi_sync
        self.tamper = tamper
        self.primary = KvSystem(config)
        # The replica is the same system minus the observability the
        # experiment attached to the primary; it runs no clients.
        self.replica = KvSystem(replace(config, telemetry=None, trace=False,
                                        blame=False, arrivals=None))
        self.log = ReplicationLog()
        self.store = CheckpointStore(self.log, retain=snapshot_retain)
        self._link_free = {"ship": 0, "ack": 0}
        self._last_delivery_ns = 0
        self._batches_sent = 0
        self.shipper = JournalShipper(self.primary.sim, self.log, self.link,
                                      transmit=self._ship,
                                      stats=self.primary.ssd.stats)
        self.applier = ReplicaApplier(self.replica, feedback=self._feedback)
        engine = self.primary.engine
        engine.repl_log = self.log.append
        if semi_sync:
            engine.repl_wait = self.shipper.wait_acked
        engine.on_checkpoint.append(
            lambda _engine, _report: self.store.checkpoint())
        if self.primary.telemetry is not None:
            from repro.telemetry.probes import register_replication_probes
            register_replication_probes(self.primary.telemetry,
                                        self.shipper, self.applier)
        self._daemons: List[Process] = []
        self._t_kill: Optional[int] = None
        self._started = False

    # -- link model ----------------------------------------------------
    def _transmit(self, src: KvSystem, dst: KvSystem, nbytes: int,
                  direction: str, fn: Callable[..., None],
                  *args: Any) -> int:
        """FIFO link: serialize after the previous frame, then propagate.

        Returns the delivery timestamp.  The merged-time drive loop
        guarantees ``dst.sim.now <= src.sim.now`` at every send, so the
        computed delay is non-negative; the ``max`` guards direct use
        outside the loop.
        """
        depart = max(src.sim.now, self._link_free[direction]) \
            + self.link.transfer_ns(nbytes)
        self._link_free[direction] = depart
        deliver_at = depart + self.link.latency_ns
        dst.sim.schedule(max(0, deliver_at - dst.sim.now), fn, *args)
        return deliver_at

    def _ship(self, data: bytes, _kind: str) -> None:
        batch_index = self._batches_sent
        self._batches_sent += 1
        if self.tamper is not None:
            data = self.tamper(data, batch_index)
            if data is None:
                return  # the wire ate the batch; the gap will NACK
        self._last_delivery_ns = self._transmit(
            self.primary, self.replica, len(data), "ship",
            self.applier.deliver, data)

    def _feedback(self, kind: str, offset: int) -> None:
        fn = self.shipper.on_ack if kind == "ack" else self.shipper.on_nack
        # A crashed primary's simulator silently drops the schedule —
        # acks in flight at the kill die on the wire, as they should.
        self._transmit(self.replica, self.primary, ACK_BYTES, "ack",
                       fn, offset)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Load both systems and start engines + replication daemons."""
        if self._started:
            return
        self._started = True
        self.primary.load()
        self.replica.load()
        self.primary.engine.start()
        self.replica.engine.start()
        if self.primary.telemetry is not None:
            self.primary.telemetry.start()
        self._daemons = [
            spawn(self.primary.sim, self.shipper.run(), name="repl-shipper"),
            spawn(self.replica.sim, self.applier.run(), name="repl-applier"),
            spawn(self.primary.sim, self._ckpt_trigger(self.primary),
                  name="primary-ckpt-trigger"),
            spawn(self.replica.sim, self._ckpt_trigger(self.replica),
                  name="replica-ckpt-trigger"),
        ]

    def _ckpt_trigger(self, system: KvSystem) -> Generator[Any, Any, None]:
        """Interval/quota checkpoint policy (mirrors ``KvSystem.run``).

        On the primary each completed checkpoint also cuts a snapshot
        epoch (via ``on_checkpoint``); on the replica it is what keeps
        the journal drained — the warmth of the warm replica.
        """
        view = system.config
        engine = system.engine
        sim = system.sim
        last = sim.now
        try:
            while True:
                yield view.trigger_poll_ns
                if engine.checkpoint_running or engine.degraded:
                    continue
                if len(engine.journal.active_jmt) == 0:
                    continue
                if (sim.now - last < view.checkpoint_interval_ns
                        and engine.journal_pressure()
                        < view.checkpoint_journal_quota):
                    continue
                yield from engine.checkpoint()
                last = sim.now
        except Interrupt:
            return

    # -- merged-time drive loop ----------------------------------------
    def step(self) -> bool:
        """Fire the globally-earliest event across both simulators."""
        t_primary = self.primary.sim.peek()
        t_replica = self.replica.sim.peek()
        if t_primary is None and t_replica is None:
            return False
        if t_replica is None or (t_primary is not None
                                 and t_primary <= t_replica):
            return self.primary.sim.step()
        return self.replica.sim.step()

    def run_until(self, event: Any, name: str = "event") -> None:
        """Drive both loops until ``event`` resolves."""
        while not event.triggered:
            if not self.step():
                raise SimulationError(
                    f"both event loops drained waiting for {name}")
        if isinstance(event, Process) and not event.ok:
            raise event.exception

    def run_workload(self, kill_step: Optional[int] = None
                     ) -> Tuple[int, bool]:
        """Drive the primary's client pool; optionally stop early.

        Returns ``(steps_taken, finished)``.  With ``kill_step`` the
        loop stops after that many merged-time steps — the caller then
        kills the primary at that exact event boundary (the same
        arbitrary-boundary discipline as the fault harness).
        """
        done = self.primary.make_client_pool().start()
        steps = 0
        while not done.triggered:
            if not self.step():
                raise SimulationError("event loops drained mid-workload")
            steps += 1
            if kill_step is not None and steps >= kill_step:
                return steps, False
        return steps, True

    def drain(self, max_steps: int = 2_000_000) -> None:
        """Step both sims until the replica applied + acked the whole
        log — quiescence without a kill (tests and clean shutdowns)."""
        def settled() -> bool:
            return (self.shipper.acked_offset >= len(self.log)
                    and self.applier.applied_offset >= len(self.log)
                    and not self.applier.queue and not self.applier.busy)
        for _ in range(max_steps):
            if settled():
                return
            if not self.step():
                break
        if not settled():
            raise ReplicationError(
                f"replication did not drain: acked "
                f"{self.shipper.acked_offset}, applied "
                f"{self.applier.applied_offset} of {len(self.log)}")

    # -- failure + promote ---------------------------------------------
    def kill_primary(self, rng: Any) -> CrashReport:
        """Power-cut the primary at the current event boundary."""
        self._t_kill = self.primary.sim.now
        obs = self.replica.sim.obs
        if obs is not None:
            # The primary's recorder dies with it (power_cut records the
            # forensic event there); the surviving node logs the loss.
            obs.emit("repl", "primary_lost", t_kill_ns=self._t_kill,
                     ship_lag_ops=self.shipper.ship_lag_ops)
        self.shipper.abandon_waiters()
        return power_cut(self.primary, rng)

    def promote(self,
                failover_detect_ns: int = DEFAULT_FAILOVER_DETECT_NS
                ) -> PromoteReport:
        """Promote the replica; measure RTO/RPO and verify the contract.

        Must be called after :meth:`kill_primary`.  Deliveries already
        scheduled into the replica's heap at kill time were on the wire
        and still arrive; nothing new can be sent.
        """
        if self._t_kill is None:
            raise ReplicationError("promote() requires kill_primary() first")
        t_kill = self._t_kill
        replica = self.replica
        # 1. Drain the wire and the apply queue: process replica events
        #    while batches remain in flight or mid-apply.
        while True:
            if self.applier.queue or self.applier.busy:
                if not replica.sim.step():
                    raise SimulationError(
                        "replica drained mid-apply during promote")
                continue
            upcoming = replica.sim.peek()
            if upcoming is not None and upcoming <= self._last_delivery_ns:
                replica.sim.step()
                continue
            break
        # 2. Failover detection: the replica only *decides* to promote
        #    after the health-check timeout elapses.
        t_ready = max(replica.sim.now, t_kill + failover_detect_ns)
        if replica.sim.now < t_ready:
            replica.sim.run(until=t_ready)
        # 3. First served read — the RTO endpoint.
        applied = self.applier.applied_offset
        acked = self.shipper.acked_offset
        first_key = self.log.entries[acked - 1][1] if acked > 0 \
            else next(iter(k for k, _ in self._initial_keys()), 0)
        first = spawn(replica.sim, replica.engine.get(first_key),
                      name="promote-first-read")
        replica.sim.run_until_triggered(first, name="promote-first-read")
        if not first.ok:
            raise first.exception
        promoted_ns = replica.sim.now
        # 4. Verify: exact state equality at applied_offset, and read
        #    every acked key back through the promoted engine.
        expected = {key: 0 for key, _ in self._initial_keys()}
        expected.update(self.log.fold(applied))
        observed = {record.key: record.version
                    for record in replica.engine.kvmap.records()}
        reads_done = read_back(replica, self.log.fold(acked), "promote")
        obs = replica.sim.obs
        if obs is not None:
            obs.emit("repl", "promote", t_ns=promoted_ns,
                     rto_ns=promoted_ns - t_kill,
                     rpo_ops=len(self.log) - applied,
                     applied_offset=applied, acked_offset=acked)
        return PromoteReport(
            kill_ns=t_kill, promoted_ns=promoted_ns,
            rto_ns=promoted_ns - t_kill,
            rpo_ops=len(self.log) - applied,
            primary_ops=len(self.log),
            shipped_offset=self.shipper.shipped_offset,
            acked_offset=acked, applied_offset=applied,
            digest=state_digest(observed),
            expected_digest=state_digest(expected),
            verified_reads=reads_done,
            nacks=self.shipper.nacks,
            frames_refused=self.applier.frames_refused)

    def _initial_keys(self):
        return ((record.key, record.version)
                for record in self.primary.engine.kvmap.records())

    def stop(self) -> None:
        """Interrupt replication daemons (post-experiment teardown)."""
        for daemon in self._daemons:
            if daemon.alive:
                daemon.interrupt("pair stopped")
        self._daemons = []
