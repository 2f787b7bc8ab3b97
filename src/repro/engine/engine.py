"""The storage engine: query interface over KV mapping, journal, checkpoint.

This is the host half of Figure 5.  Queries enter through
:meth:`StorageEngine.get` / :meth:`put` / :meth:`read_modify_write`; the
engine translates keys to target LBAs, journals updates (write-ahead),
serves reads from its in-memory block cache or from the device, and runs
checkpoints with the configured strategy.

The configuration name (``baseline`` … ``checkin``) selects the journal
formatter *and* the checkpoint strategy together, matching the paper's
five evaluated systems.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.checkin.format import extract_from_span
from repro.common.errors import CheckpointMediaError, ConfigError, EngineError
from repro.common.units import SECTOR_SIZE, US
from repro.engine.aligner import (
    JournalFormatter,
    PackedFormatter,
    SectorAlignedFormatter,
    UpdateRequest,
)
from repro.engine.checkpointer import (
    BaselineCheckpointer,
    CheckpointPolicy,
    CheckpointReport,
    make_strategy,
)
from repro.engine.journal import JournalConfig, JournalManager
from repro.engine.kvmap import KeyValueMap
from repro.obs.blame import StageClock, fold_completion
from repro.telemetry.names import safe_ratio
from repro.sim.core import Event, Simulator
from repro.ssd.commands import Command, Op
from repro.ssd.ssd import Ssd

MODES = ("baseline", "isc_a", "isc_b", "isc_c", "checkin")
"""The five evaluated configurations, in the paper's order."""


@dataclass(frozen=True)
class EngineConfig:
    """Storage-engine configuration (one of the five paper systems)."""

    mode: str = "baseline"
    journal_lba_start: int = 0
    journal_sectors: int = 32768
    meta_lba_start: int = 32768
    meta_sectors: int = 64
    data_lba_start: int = 32832
    data_sectors: int = 65536
    mapping_unit: int = 4096
    """Must match the device FTL's mapping unit."""

    group_commit_ns: int = 20 * US
    max_txn_logs: int = 256
    compress_ratio: float = 1.0
    mem_cache_records: int = 1024
    """Engine block-cache capacity, in records."""

    mem_hit_ns: int = 2_000
    """Query served entirely from engine memory."""

    cpu_query_ns: int = 1_000
    """Host CPU cost per query before any storage work."""

    ckpt_parallelism: int = 16
    cow_batch: int = 256
    lock_queries_during_checkpoint: bool = False
    verify_reads: bool = True
    """Assert that every read returns the expected key (catches
    consistency bugs in the pipeline; cheap enough to keep on)."""

    media_retry_limit: int = 4
    """Engine-level fresh-command re-issues of a failed read before the
    data is declared unreadable.  (The controller and FTL retry below
    this, so exhausting it means a genuinely uncorrectable location.)"""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        regions = [
            (self.journal_lba_start, self.journal_sectors, "journal"),
            (self.meta_lba_start, self.meta_sectors, "meta"),
            (self.data_lba_start, self.data_sectors, "data"),
        ]
        for start, size, name in regions:
            if start < 0 or size < 1:
                raise ConfigError(f"invalid {name} region")
        if self.media_retry_limit < 0:
            raise ConfigError("media_retry_limit must be >= 0")
        ordered = sorted(regions)
        for (s1, n1, name1), (s2, _n2, name2) in zip(ordered, ordered[1:]):
            if s1 + n1 > s2:
                raise ConfigError(f"{name1} and {name2} regions overlap")

    @property
    def uses_aligned_journaling(self) -> bool:
        """True for the full Check-In configuration."""
        return self.mode == "checkin"

    @property
    def uses_in_storage_checkpoint(self) -> bool:
        """True for every ISC-* and Check-In configuration."""
        return self.mode != "baseline"

    @property
    def device_allow_remap(self) -> bool:
        """Whether the paired device FTL should remap (ISC-C, Check-In)."""
        return self.mode in ("isc_c", "checkin")


class MemoryCache:
    """The engine's in-memory block cache (LRU over records)."""

    def __init__(self, capacity_records: int) -> None:
        if capacity_records < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.capacity = capacity_records
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # key -> version
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int) -> Optional[int]:
        """Cached version of ``key`` or None."""
        if self.capacity == 0:
            self.misses += 1
            return None
        version = self._entries.get(key)
        if version is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return version

    def insert(self, key: int, version: int) -> None:
        """Install/refresh a record's newest version."""
        if self.capacity == 0:
            return
        self._entries[key] = version
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory."""
        return safe_ratio(self.hits, self.hits + self.misses)


class StorageEngine:
    """Host storage engine for one device."""

    def __init__(self, sim: Simulator, ssd: Ssd,
                 config: Optional[EngineConfig] = None) -> None:
        self.sim = sim
        self.ssd = ssd
        self.config = config if config is not None else EngineConfig()
        if self.config.uses_in_storage_checkpoint \
                and not ssd.supports_in_storage_checkpoint:
            raise ConfigError(
                f"mode {self.config.mode!r} needs an ISCE-enabled device")
        if ssd.ftl.config.mapping_unit != self.config.mapping_unit:
            raise ConfigError(
                f"engine mapping_unit {self.config.mapping_unit} != device "
                f"{ssd.ftl.config.mapping_unit}")

        self.formatter = self._make_formatter()
        unit_sectors = self.config.mapping_unit // SECTOR_SIZE
        data_start = self.config.data_lba_start
        if data_start % unit_sectors:
            data_start += unit_sectors - (data_start % unit_sectors)
        # Alignment is decided per record at load time: only remappable
        # (whole-unit) records need unit-aligned homes.
        self.kvmap = KeyValueMap(data_start, self.config.data_sectors,
                                 align_sectors=1)
        self.journal = JournalManager(
            sim, ssd, self.formatter,
            JournalConfig(lba_start=self.config.journal_lba_start,
                          total_sectors=self.config.journal_sectors,
                          group_commit_ns=self.config.group_commit_ns,
                          max_txn_logs=self.config.max_txn_logs,
                          # Aligned journaling places logs on mapping-unit
                          # boundaries; conventional WALs append seamlessly
                          # (the device coalescer assembles full units).
                          txn_align_sectors=(self.config.mapping_unit
                                             // SECTOR_SIZE
                                             if self.config.uses_aligned_journaling
                                             else 1)))
        self.strategy = make_strategy(
            self.config.mode, sim, ssd,
            CheckpointPolicy(parallelism=self.config.ckpt_parallelism,
                             cow_batch=self.config.cow_batch,
                             metadata_lba=self.config.meta_lba_start))
        self.mem_cache = MemoryCache(self.config.mem_cache_records)
        self.stats = ssd.stats
        # Per-query hot path: the config is frozen and counters are
        # get-or-create, so resolve both once instead of per operation.
        self._cpu_query_ns = self.config.cpu_query_ns
        self._mem_hit_ns = self.config.mem_hit_ns
        self._verify_reads = self.config.verify_reads
        self._media_retry_limit = self.config.media_retry_limit
        self._update_counter = self.stats.counter("query.update")
        self._read_mem_counter = self.stats.counter("query.read_mem")
        self._read_storage_counter = self.stats.counter("query.read_storage")

        self._gate: Optional[Event] = None  # closed during locked checkpoints
        self._checkpoint_running = False
        self.degraded = False
        """True once the engine stopped accepting updates: the journal
        could not commit (media) or a checkpoint could not complete and
        the frozen epoch is being retained for reads."""
        self.degraded_reason = ""
        self.checkpoint_reports: List[CheckpointReport] = []
        self.on_checkpoint: List[Any] = []
        """Callbacks ``f(engine, report)`` invoked after each completed
        checkpoint — the fault harness hooks its invariant checker here."""
        self.repl_log: Optional[Any] = None
        """Replication hook ``f(key, version, nbytes) -> offset`` called
        after each locally-committed update; None when the engine is not
        a replication primary (zero-overhead-when-disabled)."""
        self.repl_wait: Optional[Any] = None
        """Semi-sync hook ``f(offset) -> Optional[Event]``: when set, a
        put blocks until its replication-log offset has been acked by
        the replica (the returned event; None means already acked)."""

    def _make_formatter(self) -> JournalFormatter:
        if self.config.uses_aligned_journaling:
            return SectorAlignedFormatter(
                mapping_size=self.config.mapping_unit,
                compress_ratio=self.config.compress_ratio)
        return PackedFormatter()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the journal committer and device services."""
        self.journal.start()
        self.ssd.start()

    def shutdown(self) -> None:
        """Stop daemons so the event loop can drain."""
        self.journal.shutdown()
        self.ssd.shutdown()

    def load(self, items: Iterable[Tuple[int, int]]) -> None:
        """Instantly populate the store with ``(key, size_bytes)`` items.

        Runs at time zero with no simulated cost — the measured phase of
        every experiment starts from a warm, loaded store.
        """
        unit_sectors = self.config.mapping_unit // SECTOR_SIZE
        for key, size_bytes in items:
            stored = self.formatter.stored_size(size_bytes)
            align = (unit_sectors
                     if self.config.uses_aligned_journaling
                     and stored % self.config.mapping_unit == 0 else 1)
            record = self.kvmap.insert(key, size_bytes, stored_bytes=stored,
                                       align_override=align)
            tags = [record.tag] * record.nsectors
            self.ssd.ftl.preload(record.lba, record.nsectors, tags,
                                 stream="data")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def put(self, key: int, trace_parent: Any = None,
            blame: Any = None) -> Generator[Any, Any, Optional[int]]:
        """Update ``key``; returns the committed version.

        Returns None (without journaling) once the engine is degraded:
        an un-ackable update must not be accepted, and queueing against
        a journal that can no longer drain would deadlock the client.
        """
        tracer = self.sim.tracer
        span = tracer.begin("engine", "put", parent=trace_parent, key=key) \
            if tracer.enabled else None
        yield from self._pass_gate(blame)
        yield self._cpu_query_ns
        if self.degraded or self.journal.degraded:
            self._note_degraded(self.journal.degraded_reason)
            self.stats.counter("query.update_rejected").add(1)
            if span is not None:
                tracer.end(span, rejected=True)
            return None
        record = self.kvmap.get(key)
        version = self.kvmap.bump_version(key)
        request = UpdateRequest(key=key, version=version,
                                value_bytes=record.size_bytes,
                                target_lba=record.lba,
                                target_nsectors=record.nsectors)
        commit = self.journal.submit(request, ledger=blame)
        entry = yield commit
        if entry is None:
            # The transaction carrying this update hit the media and the
            # journal degraded; the update was never made durable and is
            # NOT acked.
            self._note_degraded(self.journal.degraded_reason)
            self.stats.counter("query.update_rejected").add(1)
            if span is not None:
                tracer.end(span, rejected=True)
            return None
        self.mem_cache.insert(key, version)
        self._update_counter.add(1, num_bytes=record.size_bytes)
        if self.repl_log is not None:
            offset = self.repl_log(key, version, record.size_bytes)
            if self.repl_wait is not None:
                ack = self.repl_wait(offset)
                if ack is not None:
                    # The journal fold lapped up to the commit, which
                    # is this instant: the mark is the wait's start.
                    yield ack
                    if blame is not None:
                        blame.lap("repl_ship")
        if span is not None:
            tracer.end(span, bytes=record.size_bytes)
        return version

    def apply_replicated(self, key: int, version: int,
                         trace_parent: Any = None
                         ) -> Generator[Any, Any, Optional[int]]:
        """Apply one shipped update on a replica at an explicit version.

        The replica-side twin of :meth:`put`: same gate, CPU cost and
        journal path, but the version comes from the primary's
        replication log instead of a local bump, so a promoted replica's
        reads observe exactly the versions the primary acked.  Duplicate
        deliveries (a re-shipped batch after a NACK overlaps the applied
        prefix) are recognised by version and skipped idempotently.

        Returns the applied version, or None when the update was a
        duplicate or the replica engine is degraded.
        """
        tracer = self.sim.tracer
        span = tracer.begin("engine", "apply_replicated",
                            parent=trace_parent, key=key) \
            if tracer.enabled else None
        yield from self._pass_gate()
        yield self._cpu_query_ns
        if self.degraded or self.journal.degraded:
            self._note_degraded(self.journal.degraded_reason)
            if span is not None:
                tracer.end(span, rejected=True)
            return None
        record = self.kvmap.get(key)
        if version <= record.version:
            # Already applied (re-shipped overlap) — idempotent skip.
            self.stats.counter("query.replicated_dup").add(1)
            if span is not None:
                tracer.end(span, duplicate=True)
            return None
        record.version = version
        request = UpdateRequest(key=key, version=version,
                                value_bytes=record.size_bytes,
                                target_lba=record.lba,
                                target_nsectors=record.nsectors)
        entry = yield self.journal.submit(request)
        if entry is None:
            self._note_degraded(self.journal.degraded_reason)
            if span is not None:
                tracer.end(span, rejected=True)
            return None
        self.mem_cache.insert(key, version)
        self.stats.counter("query.replicated").add(1,
                                                   num_bytes=record.size_bytes)
        if span is not None:
            tracer.end(span, bytes=record.size_bytes)
        return version

    def get(self, key: int, trace_parent: Any = None,
            blame: Any = None) -> Generator[Any, Any, int]:
        """Read ``key``; returns the version observed."""
        tracer = self.sim.tracer
        span = tracer.begin("engine", "get", parent=trace_parent, key=key) \
            if tracer.enabled else None
        yield from self._pass_gate(blame)
        yield self._cpu_query_ns
        record = self.kvmap.get(key)
        cached = self.mem_cache.lookup(key)
        if cached is not None:
            yield self._mem_hit_ns
            self._read_mem_counter.add(1)
            if span is not None:
                tracer.end(span, source="mem")
            return cached

        entry = self.journal.active_jmt.lookup(key)
        if entry is None and self.journal.frozen is not None:
            entry = self.journal.frozen.jmt.lookup(key)
        if entry is not None and entry.committed:
            completion = yield from self._read_reliable(
                entry.journal_lba, entry.journal_nsectors, span, key, blame)
            tag = extract_from_span(completion.tags, entry.src_offset)
            version = entry.version
            source = "journal"
        else:
            completion = yield from self._read_reliable(
                record.lba, record.nsectors, span, key, blame)
            tag = completion.tags[0] if completion.tags else None
            version = tag[1] if tag else 0
            source = "data"
        if self._verify_reads and tag is not None and tag[0] != key:
            raise EngineError(
                f"consistency violation: read of key {key} returned {tag}")
        self.mem_cache.insert(key, version)
        self._read_storage_counter.add(1, num_bytes=record.size_bytes)
        if span is not None:
            tracer.end(span, source=source, bytes=record.size_bytes)
        return version

    def _read_reliable(self, lba: int, nsectors: int, span: Any,
                       key: int, blame: Any = None
                       ) -> Generator[Any, Any, Any]:
        """Issue a READ, re-issuing a fresh command on MEDIA_ERROR.

        The controller and FTL already retry below this level, so an
        engine-level exhaustion means the location is genuinely
        uncorrectable — that is surfaced as a typed :class:`EngineError`
        rather than a hang or a silently-wrong version.
        """
        attempts = 0
        while True:
            command = Command(op=Op.READ, lba=lba, nsectors=nsectors)
            command.span = span
            if blame is not None:
                blame.skip()
                command.blame = StageClock(self.sim)
            completion = yield from self.ssd.run(command)
            if blame is not None:
                fold_completion(blame, command.blame,
                                "ctrl_cpu" if completion.ok
                                else "media_retry")
            if completion.ok:
                return completion
            if attempts < self._media_retry_limit:
                attempts += 1
                self.stats.counter("query.read_reissues").add(1)
                continue
            self.stats.counter("query.read_failed").add(1)
            raise EngineError(
                f"uncorrectable read for key {key} at lba {lba}: "
                f"{completion.error or completion.status.value}")

    def read_modify_write(self, key: int,
                          trace_parent: Any = None,
                          blame: Any = None
                          ) -> Generator[Any, Any, Optional[int]]:
        """YCSB workload F's RMW: a read followed by an update."""
        yield from self.get(key, trace_parent=trace_parent, blame=blame)
        if blame is not None:
            blame.skip()  # the read's tail is host CPU (the residual)
        version = yield from self.put(key, trace_parent=trace_parent,
                                      blame=blame)
        return version

    def _note_degraded(self, reason: str) -> None:
        """Latch the degraded flag (idempotent) with a visible trail."""
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason or "media errors"
        # Once the engine stops checkpointing, journal space can never be
        # reclaimed — propagate so a space-stalled committer fails fast.
        self.journal.enter_degraded(self.degraded_reason)
        self.stats.counter("engine.degraded").add(1)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("engine", "degraded", reason=self.degraded_reason)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    @property
    def checkpoint_running(self) -> bool:
        """True while a checkpoint is materialising."""
        return self._checkpoint_running

    def journal_pressure(self) -> int:
        """Stored bytes accumulated in the active epoch."""
        return self.journal.active_bytes_logged

    def checkpoint(self) -> Generator[Any, Any, Optional[CheckpointReport]]:
        """Run one checkpoint now; returns its report (None if skipped).

        A checkpoint that hits the media retries through the strategy's
        reliable-submit path; if an in-storage strategy still cannot
        complete, the engine falls back to a host-level (baseline)
        checkpoint of the same frozen epoch.  If that fails too, the
        frozen epoch is *retained* (reads keep resolving through its JMT
        to the intact journal) and the engine degrades instead of losing
        checkpointed state.
        """
        if self._checkpoint_running or self.degraded:
            return None
        if len(self.journal.active_jmt) == 0:
            return None
        self._checkpoint_running = True
        if self.config.lock_queries_during_checkpoint:
            self._gate = self.sim.event()
        tracer = self.sim.tracer
        root = tracer.begin("ckpt", "checkpoint",
                            strategy=self.strategy.name) \
            if tracer.enabled else None
        obs = self.sim.obs
        if obs is not None:
            obs.emit("ckpt", "begin", root, strategy=self.strategy.name,
                     gated=self.config.lock_queries_during_checkpoint)
        try:
            scan = tracer.begin("ckpt", "journal_scan", parent=root) \
                if root is not None else None
            frozen = yield from self.journal.freeze_when_quiet()
            if scan is not None:
                tracer.end(scan, entries=len(frozen.jmt),
                           journal_sectors=frozen.used_sectors)
            report = yield from self._run_with_fallback(frozen, root)
            if report is None:
                # Unrecoverable checkpoint: keep the frozen epoch so its
                # JMT still resolves reads to the (untrimmed) journal.
                if root is not None:
                    tracer.end(root, aborted=True)
                if obs is not None:
                    obs.emit("ckpt", "aborted", root,
                             strategy=self.strategy.name)
                return None
            self.journal.release_frozen()
            self.checkpoint_reports.append(report)
            self.stats.counter("ckpt.count").add(1)
            if root is not None:
                # Per-checkpoint-interval device utilisation: the window
                # runs from the previous checkpoint (or run start).
                qd_avg, window_ns = \
                    self.ssd.controller.queue_depth.snapshot_window()
                tracer.end(root, entries=report.entries_checkpointed,
                           remapped_units=report.remapped_units,
                           copied_units=report.copied_units,
                           qd_avg=round(qd_avg, 3),
                           qd_window_ms=round(window_ns / 1e6, 3))
            if obs is not None:
                obs.emit("ckpt", "end", root,
                         entries=report.entries_checkpointed,
                         duration_ns=report.duration_ns)
            for hook in self.on_checkpoint:
                hook(self, report)
            return report
        finally:
            self._checkpoint_running = False
            if self._gate is not None:
                gate, self._gate = self._gate, None
                gate.succeed()

    def _run_with_fallback(self, frozen: Any, root: Any
                           ) -> Generator[Any, Any,
                                          Optional[CheckpointReport]]:
        """Run the configured strategy; on media abort, retry host-level.

        Returns None only when no strategy could complete — the caller
        then retains the frozen epoch and degrades the engine.
        """
        try:
            report = yield from self.strategy.run(frozen, trace_parent=root)
            return report
        except CheckpointMediaError as exc:
            self.stats.counter("ckpt.media_aborts").add(1)
            failure = exc
        if self.strategy.name != "baseline" and not self.ssd.degraded:
            fallback = BaselineCheckpointer(self.sim, self.ssd,
                                            self.strategy.policy)
            try:
                report = yield from fallback.run(frozen, trace_parent=root)
                self.stats.counter("ckpt.fallbacks").add(1)
                return report
            except CheckpointMediaError as exc:
                failure = exc
        self._note_degraded(str(failure))
        return None

    def _pass_gate(self, blame: Any = None) -> Generator[Any, Any, None]:
        """Wait out a closed consistency gate; a ledger's mark is the
        query's start, so the wait laps to ``ckpt_freeze_stall``."""
        while self._gate is not None and not self._gate.triggered:
            yield self._gate
        if blame is not None:
            blame.lap("ckpt_freeze_stall")
