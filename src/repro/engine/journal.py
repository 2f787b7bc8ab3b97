"""Journal manager: group commit, journal-area halves, freeze/release.

Updates are buffered briefly (group commit) and written to the journal
area as one sector-aligned block write per transaction — "journal
synchronization" (§II-A).  The journal area is split into two halves so a
checkpoint can work on a *frozen* half (and its JMT) while new updates
keep journaling into the other half without blocking, exactly as the case
study describes ("new journal area and JMT are already built as an
alternative").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.common.errors import EngineError
from repro.common.units import SECTOR_SIZE, US
from repro.engine.aligner import JournalFormatter, UpdateRequest
from repro.engine.jmt import JournalMappingTable
from repro.obs.blame import RequestLedger, StageClock, fold_completion
from repro.sim.core import Event, Simulator
from repro.sim.process import Interrupt, spawn
from repro.ssd.commands import Status, write_command
from repro.ssd.ssd import Ssd


@dataclass(frozen=True)
class JournalConfig:
    """Journal area geometry and commit policy."""

    lba_start: int = 0
    total_sectors: int = 32768
    """Whole journal area (split into two halves)."""

    group_commit_ns: int = 20 * US
    """Gathering window before a transaction is written."""

    max_txn_logs: int = 256
    """Upper bound on logs batched into one transaction."""

    txn_align_sectors: int = 1
    """Transactions start on this sector boundary.  Real write-ahead logs
    append in whole log blocks, so the journal stream itself does not
    read-modify-write against the FTL mapping unit — only the checkpoint's
    scattered small writes do."""

    media_retry_limit: int = 4
    """Fresh-command re-submissions of a journal transaction after the
    device reports a media error, before the engine degrades."""

    def __post_init__(self) -> None:
        if self.total_sectors < 4 or self.total_sectors % 2:
            raise EngineError("journal area needs an even sector count >= 4")
        if self.group_commit_ns < 0:
            raise EngineError("group_commit_ns must be >= 0")
        if self.max_txn_logs < 1:
            raise EngineError("max_txn_logs must be >= 1")
        if self.txn_align_sectors < 1:
            raise EngineError("txn_align_sectors must be >= 1")
        if self.media_retry_limit < 0:
            raise EngineError("media_retry_limit must be >= 0")

    @property
    def half_sectors(self) -> int:
        """Capacity of each journal half."""
        return self.total_sectors // 2


@dataclass
class FrozenEpoch:
    """A journal half plus its JMT, handed to the checkpointer."""

    jmt: JournalMappingTable
    lba_start: int
    used_sectors: int

    @property
    def journal_range(self) -> Tuple[int, int]:
        """``(lba, nsectors)`` to deallocate once the checkpoint is durable."""
        return (self.lba_start, self.used_sectors)


class _Half:
    """Sequential allocation state of one journal half."""

    def __init__(self, lba_start: int, sectors: int) -> None:
        self.lba_start = lba_start
        self.sectors = sectors
        self.head = 0

    def allocate(self, nsectors: int, align: int = 1) -> Optional[int]:
        start = self.head
        if start % align:
            start += align - (start % align)
        if start + nsectors > self.sectors:
            return None
        self.head = start + nsectors
        return self.lba_start + start

    def reset(self) -> None:
        self.head = 0


class JournalManager:
    """Buffers updates, writes transactions, maintains the active JMT."""

    def __init__(self, sim: Simulator, ssd: Ssd, formatter: JournalFormatter,
                 config: Optional[JournalConfig] = None) -> None:
        self.sim = sim
        self.ssd = ssd
        self.formatter = formatter
        self.config = config if config is not None else JournalConfig()
        half = self.config.half_sectors
        self._halves = [_Half(self.config.lba_start, half),
                        _Half(self.config.lba_start + half, half)]
        self._active_index = 0
        self._epoch = 0
        self.active_jmt = JournalMappingTable(epoch=0)
        self.frozen: Optional[FrozenEpoch] = None
        self._pending: List[Tuple[UpdateRequest, Event,
                                  Optional[RequestLedger]]] = []
        self._arrival: Optional[Event] = None
        self._space_freed: Optional[Event] = None
        self._committer = None
        self._inflight_txns = 0
        self._rotating = False
        self._quiesced: Optional[Event] = None
        self._rotation_done: Optional[Event] = None
        self.degraded = False
        """True once a journal transaction could not be made durable
        (media-retry budget exhausted or the device went read-only)."""
        self.degraded_reason = ""
        self.stats = ssd.stats
        # Per-transaction hot path: get-or-create counters resolved once
        # at construction (the config scalars are cached by the ``config``
        # setter, which also covers tests swapping the config afterwards).
        self._txn_counter = self.stats.counter("journal.transactions")
        self._payload_counter = self.stats.counter("journal.payload")
        self._padding_counter = self.stats.counter("journal.padding")

    @property
    def config(self) -> JournalConfig:
        """The journal configuration (replaceable; scalars re-cached)."""
        return self._config

    @config.setter
    def config(self, value: JournalConfig) -> None:
        self._config = value
        self._group_commit_ns = value.group_commit_ns
        self._max_txn_logs = value.max_txn_logs
        self._txn_align_sectors = value.txn_align_sectors

    # ------------------------------------------------------------------
    # submission API (called from query processes)
    # ------------------------------------------------------------------
    def submit(self, request: UpdateRequest,
               ledger: Optional[RequestLedger] = None) -> Event:
        """Queue an update for journaling; event fires when committed.

        ``ledger`` opts the update into blame attribution: its mark moves
        to now, and the committer laps every batch member's ledger from
        there — ``journal_queue`` until the batch is picked, then the
        rotation and journal-full stalls and the device write itself.
        """
        commit_event = self.sim.event()
        if ledger is not None:
            ledger.skip()
        self._pending.append((request, commit_event, ledger))
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()
        return commit_event

    @property
    def active_bytes_logged(self) -> int:
        """Stored journal bytes in the active epoch (checkpoint trigger)."""
        return self.active_jmt.bytes_logged

    @property
    def active_head_sectors(self) -> int:
        """Sectors consumed in the active half."""
        return self._halves[self._active_index].head

    # ------------------------------------------------------------------
    # committer daemon
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the group-commit daemon."""
        if self._committer is None:
            self._committer = spawn(self.sim, self._commit_loop(),
                                    name="journal-committer")

    def shutdown(self) -> None:
        """Stop the daemon (end of run)."""
        if self._committer is not None and self._committer.alive:
            self._committer.interrupt("shutdown")
        self._committer = None

    def _commit_loop(self) -> Generator[Any, Any, None]:
        try:
            while True:
                if not self._pending:
                    self._arrival = self.sim.event()
                    yield self._arrival
                if self._group_commit_ns:
                    yield self._group_commit_ns
                while self._pending:
                    batch = self._pending[:self._max_txn_logs]
                    del self._pending[:len(batch)]
                    yield from self._commit_transaction(batch)
        except Interrupt:
            return

    def _commit_transaction(
            self, batch: List[Tuple[UpdateRequest, Event,
                                    Optional[RequestLedger]]]
            ) -> Generator[Any, Any, None]:
        ledgers = [ledger for _r, _e, ledger in batch if ledger is not None]
        # Every batch member queued from its own submit time until this
        # pick (group-commit gathering + committer backlog).  From here
        # on the members' windows coincide, so each lap below runs on
        # every ledger (no-op loops when nobody is blamed).
        for ledger in ledgers:
            ledger.lap("journal_queue")
        requests = [request for request, _event, _ledger in batch]
        layout = self.formatter.layout(requests, first_lba=0)
        nsectors = layout.nsectors
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant("aligner", "layout", logs=len(batch),
                           nsectors=nsectors,
                           payload_bytes=layout.payload_bytes,
                           padded_bytes=layout.padded_bytes)
        if nsectors > self.config.half_sectors:
            raise EngineError(
                f"transaction of {nsectors} sectors exceeds a journal half")

        # Allocation must not overlap a half rotation: a transaction that
        # allocated in a half about to be frozen under an already-captured
        # JMT would have its sectors trimmed away.  From the moment the
        # allocation succeeds until the JMT entries are in place, the
        # transaction is 'in flight' and blocks freezes.
        align = self._txn_align_sectors
        lba = None
        while lba is None:
            if self.degraded:
                # No space will ever be freed again (checkpoints stopped);
                # fail the batch instead of parking its waiters forever.
                self.stats.counter("journal.failed_txns").add(1)
                for _request, event, _ledger in batch:
                    event.succeed(None)
                return
            while self._rotating:
                self._rotation_done = self.sim.event()
                yield self._rotation_done
                # Held at the door while the checkpoint rotates halves.
                for ledger in ledgers:
                    ledger.lap("ckpt_freeze_stall")
            lba = self._halves[self._active_index].allocate(nsectors, align)
            if lba is None:
                # Journal half full: wait for a checkpoint to rotate halves.
                self.stats.counter("journal.full_stalls").add(1)
                self._space_freed = self.sim.event()
                yield self._space_freed
                for ledger in ledgers:
                    ledger.lap("journal_full_stall")
        self._inflight_txns += 1
        try:
            yield from self._write_and_commit(batch, ledgers, layout, lba,
                                              nsectors)
        finally:
            self._inflight_txns -= 1
            if self._inflight_txns == 0 and self._quiesced is not None \
                    and not self._quiesced.triggered:
                self._quiesced.succeed()

    def _write_and_commit(
            self, batch: List[Tuple[UpdateRequest, Event,
                                    Optional[RequestLedger]]],
            ledgers: List[RequestLedger], layout, lba: int,
            nsectors: int) -> Generator[Any, Any, None]:
        for entry in layout.entries:
            entry.journal_lba += lba
        tracer = self.sim.tracer
        span = tracer.begin("journal", "txn", lba=lba, nsectors=nsectors,
                            logs=len(batch),
                            bytes=nsectors * SECTOR_SIZE) \
            if tracer.enabled else None
        # The controller already retries internally; on a MEDIA_ERROR
        # completion we re-issue the whole transaction as a fresh command
        # a bounded number of times before giving up.  A failed
        # transaction never acks its waiters with a committed entry:
        # every commit event resolves to None and the journal degrades.
        attempts = 0
        while True:
            command = write_command(
                lba, nsectors, tags=layout.sector_tags, fua=True,
                stream="journal", cause="journal")
            command.span = span
            if ledgers:
                command.blame = StageClock(self.sim)
            completion = yield from self.ssd.run(command)
            # Every batch member waited this same absolute window; the
            # device breakdown folds into each ledger, leaving the
            # host-side residual to journal_commit (media_retry when the
            # attempt failed).
            for ledger in ledgers:
                fold_completion(ledger, command.blame,
                                "journal_commit" if completion.ok
                                else "media_retry")
            if completion.ok:
                break
            if completion.status is Status.MEDIA_ERROR \
                    and attempts < self.config.media_retry_limit:
                attempts += 1
                self.stats.counter("journal.media_resubmits").add(1)
                continue
            # READ_ONLY device or retry budget exhausted: fail the batch.
            if span is not None:
                tracer.end(span)
            self.enter_degraded(completion.error or completion.status.value)
            self.stats.counter("journal.failed_txns").add(1)
            for _request, event, _ledger in batch:
                event.succeed(None)
            return
        if span is not None:
            tracer.end(span)

        self._txn_counter.add(1, num_bytes=nsectors * SECTOR_SIZE)
        self._payload_counter.add(len(batch), num_bytes=layout.payload_bytes)
        self._padding_counter.add(0, num_bytes=layout.padded_bytes)

        by_identity: Dict[Tuple[int, int], Any] = {}
        for entry in layout.entries:
            entry.committed = True
            self.active_jmt.add(entry)
            by_identity[(entry.key, entry.version)] = entry
        for request, event, _ledger in batch:
            entry = by_identity[(request.key, request.version)]
            event.succeed(entry)
        del completion

    def enter_degraded(self, reason: str) -> None:
        """Latch the journal's degraded state (idempotent).

        Wakes a committer parked on the journal-full stall so it fails
        its batch (waking every waiter with None) instead of waiting for
        a rotation that will never come.
        """
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason or "media errors"
        if self._space_freed is not None and not self._space_freed.triggered:
            self._space_freed.succeed()
            self._space_freed = None

    # ------------------------------------------------------------------
    # checkpoint coordination
    # ------------------------------------------------------------------
    def freeze_when_quiet(self) -> Generator[Any, Any, FrozenEpoch]:
        """Quiesce in-flight transactions, then rotate (checkpoint entry).

        New transactions are held at the door while rotating, so every
        committed entry is either in the frozen JMT (and checkpointed) or
        in the fresh half — never stranded in trimmed sectors.
        """
        if self.frozen is not None:
            raise EngineError("previous frozen epoch not yet released")
        self._rotating = True
        try:
            while self._inflight_txns:
                self._quiesced = self.sim.event()
                yield self._quiesced
            frozen = self.freeze()
        finally:
            self._rotating = False
            if self._rotation_done is not None \
                    and not self._rotation_done.triggered:
                self._rotation_done.succeed()
                self._rotation_done = None
        return frozen

    def freeze(self) -> FrozenEpoch:
        """Rotate to the alternate half/JMT; return the frozen epoch.

        The caller must :meth:`release_frozen` once the checkpoint (and the
        journal deallocation) is durable, and must not call this while a
        transaction is in flight (use :meth:`freeze_when_quiet`).
        """
        if self.frozen is not None:
            raise EngineError("previous frozen epoch not yet released")
        if self._inflight_txns:
            raise EngineError(
                "cannot freeze with a journal transaction in flight")
        half = self._halves[self._active_index]
        frozen = FrozenEpoch(jmt=self.active_jmt, lba_start=half.lba_start,
                             used_sectors=half.head)
        self._epoch += 1
        self._active_index ^= 1
        self._halves[self._active_index].reset()
        self.active_jmt = JournalMappingTable(epoch=self._epoch)
        self.frozen = frozen
        # The fresh half is writable immediately: wake a stalled committer.
        if self._space_freed is not None and not self._space_freed.triggered:
            self._space_freed.succeed()
            self._space_freed = None
        return frozen

    def release_frozen(self) -> None:
        """Mark the frozen half reusable after checkpoint completion."""
        if self.frozen is None:
            raise EngineError("no frozen epoch to release")
        self.frozen.jmt.clear()
        self.frozen = None
        if self._space_freed is not None and not self._space_freed.triggered:
            self._space_freed.succeed()
            self._space_freed = None
