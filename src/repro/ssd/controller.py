"""SSD controller: command dispatch on the embedded processors.

The controller owns the host-visible behaviour of the device:

* admission through the NVMe-style submission queue;
* PCIe payload transfers (writes in, reads out — CoW commands move
  descriptors only, which is the offloading win of Figure 4);
* firmware CPU time on a small pool of embedded cores;
* the DRAM read cache;
* dispatch to the FTL, and to the ISCE for vendor commands;
* an idle-time background GC daemon (the deallocator policy of §III-F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.common.errors import (
    CommandError,
    ConfigError,
    DeviceFullError,
    MediaError,
    NamespaceError,
)
from repro.common.units import US
from repro.ftl.ftl import Ftl
from repro.sim.core import Event, Simulator
from repro.sim.process import spawn
from repro.sim.resources import Resource
from repro.sim.stats import TimeWeightedGauge
from repro.ssd.cache import DramReadCache
from repro.ssd.coalescer import CoalescedUnit, WriteCoalescer
from repro.ssd.commands import Command, Completion, Op, Status
from repro.ssd.interface import HostInterface, NamespaceLayout

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.checkin
    from repro.checkin.isce import InStorageCheckpointEngine


@dataclass(frozen=True)
class ControllerConfig:
    """Embedded-processor and cache parameters."""

    cpu_cores: int = 2
    """Embedded cores available to firmware command handling."""

    cpu_command_ns: int = 1_500
    """Firmware cost per command (parse, map-cache lookups, completion)."""

    cpu_sector_ns: int = 50
    """Incremental firmware cost per sector of payload."""

    read_cache_units: int = 4096
    """DRAM read-cache capacity in mapping units."""

    write_coalesce_bytes: int = 1024 * 1024
    """DRAM write-coalescing buffer capacity in bytes (0 = write
    through).  Capacitor-backed: writes are durable once merged here."""

    idle_gc_interval_ns: int = 500 * US
    """How often the background daemon checks for idle-time GC."""

    media_retry_limit: int = 3
    """Whole-command re-dispatches after a media error before the
    command completes with ``Status.MEDIA_ERROR``."""

    media_retry_backoff_ns: int = 100_000
    """Backoff before re-dispatching, multiplied by the attempt number
    (linear backoff in simulated time)."""

    def __post_init__(self) -> None:
        if self.cpu_cores < 1:
            raise ConfigError("cpu_cores must be >= 1")
        if self.idle_gc_interval_ns <= 0:
            raise ConfigError("idle_gc_interval_ns must be positive")
        if self.media_retry_limit < 0:
            raise ConfigError("media_retry_limit must be >= 0")
        if self.media_retry_backoff_ns < 0:
            raise ConfigError("media_retry_backoff_ns must be >= 0")


MUTATING_OPS = (Op.WRITE, Op.TRIM, Op.COW, Op.COW_MULTI, Op.CHECKPOINT,
                Op.DELETE_LOGS)
"""Opcodes rejected with ``Status.READ_ONLY`` on a degraded device.
FLUSH stays accepted (it degenerates to a no-op: buffered content is
already capacitor-protected and nothing new may reach flash)."""


class SsdController:
    """Per-command processing pipeline."""

    def __init__(self, sim: Simulator, ftl: Ftl, interface: HostInterface,
                 config: Optional[ControllerConfig] = None,
                 isce: Optional["InStorageCheckpointEngine"] = None) -> None:
        self.sim = sim
        self.ftl = ftl
        self.interface = interface
        self.config = config if config is not None else ControllerConfig()
        self.isce = isce
        self.cache = DramReadCache(self.config.read_cache_units)
        coalesce_units = (self.config.write_coalesce_bytes
                          // ftl.config.mapping_unit)
        self.write_buffer = WriteCoalescer(ftl.sectors_per_unit,
                                           coalesce_units)
        self.stats = ftl.stats
        self._cpu = Resource(sim, self.config.cpu_cores, name="ssd-cpu")
        self._outstanding = 0
        self._outstanding_user = 0
        self._outstanding_ckpt = 0
        """Admitted checkpoint-machinery commands (CoW/remap/delete-logs
        plus anything with a ``ckpt`` cause).  A user command that waits
        for a queue slot while this is non-zero is stalled *because* a
        checkpoint occupies the device — blame's ``ckpt_interference``.
        Flash-level occupancy is tracked separately, on the array's
        checkpoint clock (``FlashArray.ckpt_busy_ns``), because the
        programs a checkpoint write triggers outlive its command."""
        self.queue_depth = TimeWeightedGauge(sim)
        """Admitted-command depth over time; window it per checkpoint
        interval with :meth:`TimeWeightedGauge.snapshot_window`."""
        self._gc_daemon = None
        self.namespaces: Optional[NamespaceLayout] = None
        self._ns_queue_depth: Dict[int, TimeWeightedGauge] = {}
        self._in_transit: Dict[int, CoalescedUnit] = {}
        """Units popped from the durable coalescer whose FTL staging write
        has not completed yet, keyed by LPN.  Still capacitor-covered:
        the host was acked at merge time, so a power cut in this
        pop-to-stage window must not lose them."""

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Commands admitted and not yet completed."""
        return self._outstanding

    @property
    def outstanding_user(self) -> int:
        """Admitted READ/WRITE/FLUSH/TRIM commands (host query traffic)."""
        return self._outstanding_user

    @property
    def idle(self) -> bool:
        """True when no command is admitted or waiting."""
        return self._outstanding == 0 and self.interface.queued == 0

    def configure_namespaces(self, layout: NamespaceLayout) -> None:
        """Partition the LBA space; every later command is range-checked.

        Must be called before any traffic; each namespace gets its own
        admitted-depth gauge so tenant interference is observable.
        """
        if self._outstanding or self.interface.queued:
            raise ConfigError("cannot reconfigure namespaces under traffic")
        self.namespaces = layout
        self._ns_queue_depth = {
            entry.nsid: TimeWeightedGauge(self.sim) for entry in layout}

    def namespace_queue_depth(self, nsid: int) -> TimeWeightedGauge:
        """Admitted-command depth gauge of one namespace."""
        return self._ns_queue_depth[nsid]

    def _check_namespace(self, command: Command) -> Optional[int]:
        """Resolve and enforce the namespace of ``command``.

        Returns the owning nsid (None for device-wide commands or when no
        namespaces are configured).  Raises :class:`NamespaceError` when a
        sector range escapes its namespace, when a CoW batch would move or
        remap data across namespaces, or when the stamped ``command.nsid``
        does not own the addressed range.
        """
        layout = self.namespaces
        if layout is None:
            return command.nsid
        resolved: Optional[int] = None
        if command.op in (Op.READ, Op.WRITE, Op.TRIM, Op.DELETE_LOGS):
            resolved = layout.resolve(command.lba, command.nsectors)
        elif command.op in (Op.COW, Op.COW_MULTI, Op.CHECKPOINT):
            owners = set()
            for entry in command.entries:
                owners.add(layout.resolve(entry.src_lba, entry.read_span))
                owners.add(layout.resolve(entry.dst_lba, entry.nsectors))
            if len(owners) != 1:
                raise NamespaceError(
                    f"{command.op.value} crosses namespaces {sorted(owners)}")
            resolved = owners.pop()
        else:
            # FLUSH / LOAD_PROGRAM are device-wide by definition.
            return None
        if command.nsid is not None and command.nsid != resolved:
            raise NamespaceError(
                f"{command.op.value} stamped nsid {command.nsid} but range "
                f"belongs to namespace {resolved}")
        command.nsid = resolved
        return resolved

    def submit(self, command: Command) -> Event:
        """Submit a command; the returned event carries a Completion.

        Namespace containment is enforced here, synchronously, before the
        command costs any simulated time: a tenant can never even enqueue
        I/O against another tenant's range.
        """
        self._check_namespace(command)
        done = self.sim.event()
        spawn(self.sim, self._handle(command, done),
              name=f"cmd-{command.op.value}")
        return done

    def _handle(self, command: Command,
                done: Event) -> Generator[Any, Any, None]:
        submitted_at = self.sim.now
        is_user = command.op in (Op.READ, Op.WRITE, Op.FLUSH, Op.TRIM)
        is_ckpt = (command.op in (Op.COW, Op.COW_MULTI, Op.CHECKPOINT,
                                  Op.DELETE_LOGS)
                   or command.cause.startswith("ckpt"))
        blame = command.blame
        tracer = self.sim.tracer
        span = tracer.begin("ssd", command.op.value, parent=command.span,
                            lba=command.lba, nsectors=command.nsectors,
                            bytes=command.data_bytes,
                            qd=self._outstanding) \
            if tracer.enabled else None
        yield self.interface.acquire_slot()
        if span is not None:
            span.attrs["queue_ns"] = self.sim.now - submitted_at
        if blame is not None:
            blame.lap("ckpt_interference"
                      if self._outstanding_ckpt else "ctrl_queue")
        self._outstanding += 1
        if is_ckpt:
            self._outstanding_ckpt += 1
        self.queue_depth.adjust(1)
        ns_gauge = (self._ns_queue_depth.get(command.nsid)
                    if command.nsid is not None else None)
        if ns_gauge is not None:
            ns_gauge.adjust(1)
        if is_user:
            self._outstanding_user += 1
        try:
            yield self.interface.command_overhead()
            if command.op in (Op.WRITE, Op.COW, Op.COW_MULTI, Op.CHECKPOINT,
                              Op.LOAD_PROGRAM):
                yield from self.interface.transfer(command.data_bytes)
            if blame is not None:
                blame.lap("ctrl_bus")
            yield self._cpu.acquire()
            try:
                yield (self.config.cpu_command_ns +
                       command.nsectors * self.config.cpu_sector_ns)
            finally:
                self._cpu.release()
            if blame is not None:
                blame.lap("ctrl_cpu")

            completion = Completion(command=command, submitted_at=submitted_at,
                                    completed_at=0)
            if self.ftl.read_only and command.op in MUTATING_OPS:
                completion.status = Status.READ_ONLY
                completion.error = self.ftl.degraded_reason
                self.stats.counter("cmd.read_only_rejected").add(1)
            else:
                yield from self._dispatch_with_retry(command, completion, span)

            if command.op is Op.READ and completion.ok:
                # A read dispatch laps every window it spends, so the
                # mark is at the transfer's start here.
                yield from self.interface.transfer(command.data_bytes)
                if blame is not None:
                    blame.lap("ctrl_bus")
            completion.completed_at = self.sim.now
            done.succeed(completion)
        except BaseException as exc:  # noqa: BLE001 - surfaced to submitter
            if not done.triggered:
                done.fail(exc)
            else:
                raise
        finally:
            self._outstanding -= 1
            if is_ckpt:
                self._outstanding_ckpt -= 1
            self.queue_depth.adjust(-1)
            if ns_gauge is not None:
                ns_gauge.adjust(-1)
            if is_user:
                self._outstanding_user -= 1
            self.interface.release_slot()
            if span is not None and span.end_ns is None:
                tracer.end(span)

    # ------------------------------------------------------------------
    # dispatch with media-error containment
    # ------------------------------------------------------------------
    def _dispatch_with_retry(self, command: Command, completion: Completion,
                             span: Any) -> Generator[Any, Any, None]:
        """Dispatch with a bounded retry-with-backoff budget.

        Every opcode's dispatch is idempotent at this layer (out-of-place
        writes, content-identical re-reads, re-runnable remaps), so a
        media error simply re-runs the whole dispatch after a linear
        backoff.  Exhaustion completes the command with
        ``Status.MEDIA_ERROR`` — the submitter always gets a completion,
        never a propagated device-internal exception.  The per-opcode
        dispatch is inlined in the retry loop, so a unit write resumes
        through one generator frame fewer.
        """
        blame = command.blame
        op = command.op
        attempts = 0
        while True:
            saved = blame.save() if blame is not None else None
            try:
                if op is Op.READ:
                    completion.tags = yield from self._do_read(command)
                elif op is Op.WRITE:
                    yield from self._do_write(command)
                elif op is Op.FLUSH:
                    yield from self._do_flush()
                elif op is Op.TRIM:
                    self.write_buffer.discard_range(command.lba,
                                                    command.nsectors)
                    yield from self.ftl.trim(command.lba, command.nsectors,
                                             blame=blame)
                    self._invalidate_cache_range(command.lba,
                                                 command.nsectors)
                elif op in (Op.COW, Op.COW_MULTI, Op.CHECKPOINT):
                    yield from self._do_cow(command, completion)
                elif op is Op.DELETE_LOGS:
                    yield from self._do_delete_logs(command)
                elif op is Op.LOAD_PROGRAM:
                    if self.isce is None:
                        raise CommandError("load_program: device has no ISCE")
                    self.stats.counter("host.load_program_cmds").add(
                        1, num_bytes=command.data_bytes)
                    # Install the offloaded execution code (one-time, §III-C).
                    yield self.config.cpu_command_ns * 4
                    self.isce.program_loaded = True
                else:  # pragma: no cover - enum is closed
                    raise CommandError(f"unsupported opcode {op}")
            except MediaError as exc:
                if blame is not None:
                    # The whole failed attempt is retry-ladder time: drop
                    # whatever the dispatch charged mid-flight and charge
                    # the attempt window to media_retry instead.
                    blame.relap(saved, "media_retry")
                attempts += 1
                self.stats.counter("cmd.media_retries").add(1)
                obs = self.sim.obs
                if obs is not None:
                    obs.emit("media", "cmd_retry", span,
                             op=command.op.value, attempt=attempts)
                if attempts > self.config.media_retry_limit:
                    completion.status = Status.MEDIA_ERROR
                    completion.retries = attempts - 1
                    completion.error = str(exc)
                    self.stats.counter("cmd.media_errors").add(1)
                    if obs is not None:
                        obs.emit("media", "cmd_error", span,
                                 op=command.op.value, attempts=attempts)
                    return
                yield self.config.media_retry_backoff_ns * attempts
                if blame is not None:
                    blame.lap("media_retry")
                continue
            except DeviceFullError as exc:
                # Out of usable space mid-dispatch: degrade rather than
                # kill the submitting process.
                self.ftl.enter_degraded(str(exc))
                completion.status = Status.READ_ONLY
                completion.error = str(exc)
                return
            if attempts:
                completion.status = Status.RETRIED_OK
                completion.retries = attempts
            return

    # ------------------------------------------------------------------
    # per-opcode handlers
    # ------------------------------------------------------------------
    def _do_read(self, command: Command) -> Generator[Any, Any, List[Any]]:
        blame = command.blame
        self.stats.counter("host.read_cmds").add(1, num_bytes=command.data_bytes)
        spu = self.ftl.sectors_per_unit
        lpns = self.ftl.lpn_span(command.lba, command.nsectors)
        buffered_hit = any(self.write_buffer.peek(lpn) is not None
                           for lpn in lpns)
        cached = {lpn: self.cache.get(lpn) for lpn in lpns}
        if all(entry is not None for entry in cached.values()):
            self.stats.counter("host.read_cache_hits").add(1)
            yield self.ftl.config.staged_read_ns
            if blame is not None:
                blame.lap("flash_read")
            tags = []
            for sector in range(command.lba, command.lba + command.nsectors):
                unit = cached[sector // spu]
                tags.append(unit[sector % spu])
            return self.write_buffer.overlay(command.lba, command.nsectors,
                                             tags)
        if buffered_hit and self._fully_buffered(command.lba, command.nsectors):
            # Served entirely from the coalescing buffer: no flash access.
            self.stats.counter("host.read_buffer_hits").add(1)
            yield self.ftl.config.staged_read_ns
            if blame is not None:
                blame.lap("flash_read")
            tags = [None] * command.nsectors
            return self.write_buffer.overlay(command.lba, command.nsectors,
                                             tags)
        tags = yield from self.ftl.read(command.lba, command.nsectors,
                                        blame=blame,
                                        ckpt=command.cause.startswith("ckpt"))
        if not buffered_hit:
            self._fill_cache(command.lba, command.nsectors, tags)
        return self.write_buffer.overlay(command.lba, command.nsectors, tags)

    def _fully_buffered(self, lba: int, nsectors: int) -> bool:
        for sector in range(lba, lba + nsectors):
            entry = self.write_buffer.peek(sector // self.ftl.sectors_per_unit)
            if entry is None or not entry.covered[
                    sector % self.ftl.sectors_per_unit]:
                return False
        return True

    def _do_write(self, command: Command) -> Generator[Any, Any, None]:
        self.stats.counter("host.write_cmds").add(1, num_bytes=command.data_bytes)
        self.stats.counter(f"host.write_cmds.{command.cause}").add(
            1, num_bytes=command.data_bytes)
        yield from self.device_write(command.lba, command.nsectors,
                                     command.tags, command.stream,
                                     command.cause, blame=command.blame)
        if not self.write_buffer.enabled:
            self._fill_cache(command.lba, command.nsectors, command.tags)
        if self.isce is not None and command.stream == "journal":
            yield from self.isce.log_manager.note_journal_write(
                command.lba, command.nsectors)

    def device_read(self, lba: int, nsectors: int) -> Generator[Any, Any, List[Any]]:
        """Internal read path: FTL content overlaid with the coalescer.

        Used by the ISCE so checkpoint sources that are still buffered in
        device DRAM are seen without forcing a drain (and without host
        command accounting).  Always checkpoint-machinery work, so the
        flash reads run on the array's checkpoint clock.
        """
        tags = yield from self.ftl.read(lba, nsectors, ckpt=True)
        return self.write_buffer.overlay(lba, nsectors, tags)

    def device_write(self, lba: int, nsectors: int, tags, stream: str,
                     cause: str, blame=None) -> Generator[Any, Any, None]:
        """Internal write path (no host-command accounting).

        Used by the ISCE's copy path so device-side checkpoint copies
        enjoy the same DRAM coalescing as host writes — scattered
        sub-unit copies merge with their neighbours before programming.
        Invalidates the read cache over the range (host writes rely on
        this: it is their only invalidation).
        """
        self._invalidate_cache_range(lba, nsectors)
        if not self.write_buffer.enabled:
            yield from self.ftl.write(lba, nsectors, tags=tags,
                                      stream=stream, cause=cause,
                                      blame=blame)
            return
        tracer = self.sim.tracer
        ready = self.write_buffer.merge(lba, nsectors, tags, cause, stream)
        for unit in ready:
            self._in_transit[unit.lpn] = unit
        merge_ns = self.ftl.config.map_update_ns * max(1, len(ready))
        yield merge_ns
        if blame is not None:
            blame.lap("coalescer")
        spu = self.ftl.sectors_per_unit
        span = tracer.begin("coalescer", "flush_full", units=len(ready),
                            bytes=len(ready) * self.ftl.config.mapping_unit) \
            if ready and tracer.enabled else None
        for unit in ready:
            yield from self.ftl.write(unit.lpn * spu, spu, tags=unit.tags,
                                      stream=unit.stream, cause=unit.cause,
                                      blame=blame)
            self._release_transit(unit)
        if span is not None:
            tracer.end(span)
        evicted = self.write_buffer.evict_pressure()
        span = tracer.begin("coalescer", "evict", units=len(evicted)) \
            if evicted and tracer.enabled else None
        for unit in evicted:
            self._in_transit[unit.lpn] = unit
            yield from self._write_partial_unit(unit, blame)
            self._release_transit(unit)
        if span is not None:
            tracer.end(span)

    def _write_partial_unit(self, unit: CoalescedUnit,
                            blame=None) -> Generator[Any, Any, None]:
        """Flush a partially covered coalesced unit (RMW if it was mapped)."""
        spu = self.ftl.sectors_per_unit
        base = unit.lpn * spu
        for offset, length in unit.covered_runs:
            yield from self.ftl.write(base + offset, length,
                                      tags=unit.tags[offset:offset + length],
                                      stream=unit.stream, cause=unit.cause,
                                      blame=blame)

    def _drain_buffered(self, units: List[CoalescedUnit]
                        ) -> Generator[Any, Any, None]:
        tracer = self.sim.tracer
        span = tracer.begin("coalescer", "drain", units=len(units)) \
            if units and tracer.enabled else None
        for unit in units:
            self._in_transit[unit.lpn] = unit
        for unit in units:
            if unit.full:
                spu = self.ftl.sectors_per_unit
                yield from self.ftl.write(unit.lpn * spu, spu, tags=unit.tags,
                                          stream=unit.stream, cause=unit.cause)
            else:
                yield from self._write_partial_unit(unit)
            self._release_transit(unit)
        if span is not None:
            tracer.end(span)

    def _release_transit(self, unit: CoalescedUnit) -> None:
        """The unit is staged in the FTL (durable again): drop its
        capacitor shadow unless a newer generation replaced it."""
        if self._in_transit.get(unit.lpn) is unit:
            del self._in_transit[unit.lpn]

    def durable_overlay(self, lba: int, nsectors: int,
                        tags: List[Any]) -> List[Any]:
        """Patch ``tags`` with all capacitor-protected buffered content.

        Applies the in-transit units first (older than the coalescer: a
        sector rewritten after its unit went in transit lives in a fresh
        coalescer entry), then the coalescer itself.  Recovery uses this
        to observe every durable-but-unstaged sector after a power cut.
        """
        spu = self.ftl.sectors_per_unit
        for index, sector in enumerate(range(lba, lba + nsectors)):
            unit = self._in_transit.get(sector // spu)
            if unit is not None and unit.covered[sector % spu]:
                tags[index] = unit.tags[sector % spu]
        return self.write_buffer.overlay(lba, nsectors, tags)

    def _do_flush(self) -> Generator[Any, Any, None]:
        self.stats.counter("host.flush_cmds").add(1)
        if self.ftl.read_only:
            # Degraded mode: nothing new may reach flash.  Buffered
            # content is capacitor-protected already, so the flush's
            # durability promise holds without touching the array.
            return
        yield from self._drain_buffered(self.write_buffer.drain_all())
        for stream in ("journal", "data", "ckpt"):
            yield from self.ftl.flush_stream(stream)
        yield from self.ftl.persist_metadata(force=True)

    def _do_cow(self, command: Command,
                completion: Completion) -> Generator[Any, Any, None]:
        if self.isce is None:
            raise CommandError(
                f"{command.op.value}: device has no in-storage checkpoint engine")
        self.stats.counter(f"host.{command.op.value}_cmds").add(
            1, num_bytes=command.data_bytes)
        # Buffered *source* units are read through the ISCE's
        # coalescer-overlay path, so no drain is needed.  Buffered
        # *destination* content is superseded by the checkpoint: discard
        # it (a remap would even be overwritten by stale data on a later
        # read).
        for entry in command.entries:
            self.write_buffer.discard_range(entry.dst_lba, entry.nsectors)
        remapped, copied = yield from self.isce.execute_cow(command.entries)
        completion.remapped_units = remapped
        completion.copied_units = copied
        for entry in command.entries:
            self._invalidate_cache_range(entry.dst_lba, entry.nsectors)
        if command.op is Op.CHECKPOINT:
            yield from self.isce.checkpoint_complete()

    def _do_delete_logs(self, command: Command) -> Generator[Any, Any, None]:
        if self.isce is None:
            raise CommandError("delete_logs: device has no ISCE")
        self.stats.counter("host.delete_logs_cmds").add(1)
        self.write_buffer.discard_range(command.lba, command.nsectors)
        yield from self.isce.delete_logs(command.lba, command.nsectors)
        self._invalidate_cache_range(command.lba, command.nsectors)

    # ------------------------------------------------------------------
    # read cache helpers
    # ------------------------------------------------------------------
    def _fill_cache(self, lba: int, nsectors: int,
                    tags: Optional[List[Any]]) -> None:
        if tags is None or not self.cache.enabled:
            return
        spu = self.ftl.sectors_per_unit
        for lpn in self.ftl.lpn_span(lba, nsectors):
            unit_first = lpn * spu
            if unit_first < lba or unit_first + spu > lba + nsectors:
                continue  # only whole units are cacheable
            start = unit_first - lba
            self.cache.put(lpn, tuple(tags[start:start + spu]))

    def _invalidate_cache_range(self, lba: int, nsectors: int) -> None:
        lpns = self.ftl.lpn_span(lba, nsectors)
        self.cache.invalidate_range(lpns[0], lpns[-1])

    # ------------------------------------------------------------------
    # background GC daemon
    # ------------------------------------------------------------------
    def start_background_gc(self) -> None:
        """Launch the idle-time GC daemon (stop with :meth:`shutdown`)."""
        if self._gc_daemon is None:
            self._gc_daemon = spawn(self.sim, self._gc_loop(), name="gc-daemon")

    def shutdown(self) -> None:
        """Stop the background daemon (end of run)."""
        if self._gc_daemon is not None and self._gc_daemon.alive:
            self._gc_daemon.interrupt("shutdown")
        self._gc_daemon = None

    def _gc_loop(self) -> Generator[Any, Any, None]:
        from repro.sim.process import Interrupt
        try:
            while True:
                yield self.config.idle_gc_interval_ns
                if not self.idle:
                    continue
                try:
                    if self.isce is not None:
                        if self.isce.deallocator.should_collect(device_idle=True):
                            yield from self.isce.deallocator.collect_idle()
                    elif self.ftl.gc.wants_background_collection():
                        yield from self.ftl.gc.collect_once()
                    if self.ftl.array.media.config.enabled \
                            and not self.ftl.read_only:
                        # Read-disturb reclaim piggybacks on idle time.
                        yield from self.ftl.gc.collect_read_disturbed()
                except MediaError:
                    continue  # transient; the next tick retries
                except DeviceFullError as exc:
                    self.ftl.enter_degraded(str(exc))
        except Interrupt:
            return
