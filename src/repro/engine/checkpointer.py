"""Checkpoint strategies: Baseline, ISC-A, ISC-B, ISC-C and Check-In.

Each strategy turns a frozen journal epoch into a durable checkpoint.
They differ exactly along the paper's configuration axis (§IV-A):

==========  ======================================================
Baseline    host reads every latest journal log back over the bus,
            rewrites it into the data area, writes metadata, trims
ISC-A       one vendor CoW command per log (device-side copy)
ISC-B       batched multi-CoW commands (device-side copy)
ISC-C       batched multi-CoW against a remap-capable sub-page FTL
Check-In    checkpoint-request commands (metadata included) against
            the remap FTL, paired with sector-aligned journaling
==========  ======================================================

Every strategy ends by deallocating the frozen journal half, which is what
lets the physical units live on under their new data-area identity after a
remap (and what generates the invalid pages after a copy).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.common.errors import CheckpointMediaError
from repro.common.units import ceil_div
from repro.engine.journal import FrozenEpoch
from repro.engine.records import JournalEntry
from repro.sim.core import Simulator, all_of
from repro.sim.process import spawn
from repro.ssd.commands import Command, CowEntry, Op, Status, write_command
from repro.ssd.ssd import Ssd


@dataclass
class CheckpointReport:
    """What one checkpoint did and how long it took."""

    strategy: str
    started_at: int
    finished_at: int = 0
    entries_total: int = 0
    """All journal entries of the epoch (including OLD ones)."""

    entries_checkpointed: int = 0
    """Latest-version entries actually materialised."""

    read_commands: int = 0
    write_commands: int = 0
    cow_commands: int = 0
    remapped_units: int = 0
    copied_units: int = 0
    journal_sectors_freed: int = 0

    @property
    def duration_ns(self) -> int:
        """Wall-clock checkpoint time (Figure 10's metric)."""
        return self.finished_at - self.started_at


@dataclass(frozen=True)
class CheckpointPolicy:
    """Host-side knobs shared by the strategies."""

    parallelism: int = 16
    """Concurrent outstanding commands during read/write/CoW phases."""

    cow_batch: int = 256
    """Descriptors per multi-CoW / checkpoint command."""

    metadata_bytes_per_entry: int = 16
    """Host metadata appended per checkpointed entry (baseline/ISC-A/B)."""

    metadata_lba: int = 0
    """Reserved metadata region (set by the engine at wiring time)."""

    media_retry_limit: int = 4
    """Fresh re-issues of a checkpoint command after a MEDIA_ERROR
    completion before the checkpoint is abandoned."""


class CheckpointStrategy(abc.ABC):
    """Interface every configuration implements."""

    def __init__(self, sim: Simulator, ssd: Ssd,
                 policy: Optional[CheckpointPolicy] = None) -> None:
        self.sim = sim
        self.ssd = ssd
        self.policy = policy if policy is not None else CheckpointPolicy()

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Configuration label (matches the paper's legend)."""

    @abc.abstractmethod
    def run(self, frozen: FrozenEpoch,
            trace_parent: Any = None) -> Generator[Any, Any, CheckpointReport]:
        """Materialise the frozen epoch into the data area.

        ``trace_parent`` is the per-checkpoint root span (or None); the
        strategy nests its named phase spans under it — the taxonomy the
        phase-breakdown tables aggregate over.
        """

    # -- shared helpers -----------------------------------------------------
    def _new_report(self, frozen: FrozenEpoch) -> CheckpointReport:
        return CheckpointReport(strategy=self.name, started_at=self.sim.now,
                                entries_total=len(frozen.jmt))

    def _phase(self, parent: Any, name: str, **attrs: Any) -> Any:
        """Open one named checkpoint-phase span (None when untraced)."""
        span = None if parent is None else \
            self.sim.tracer.begin("ckpt", name, parent=parent, **attrs)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("ckpt", "phase_begin", span, phase=name)
        return span

    def _phase_end(self, span: Any, **attrs: Any) -> None:
        """Close a phase span opened by :meth:`_phase`."""
        if span is not None:
            self.sim.tracer.end(span, **attrs)
            obs = self.sim.obs
            if obs is not None:
                obs.emit("ckpt", "phase_end", span, phase=span.name)

    OFFLOAD_PROGRAM_SECTORS = 128
    """Size of the offload execution code image (64 KiB)."""

    def _ensure_offload_program(self,
                                trace_parent: Any = None
                                ) -> Generator[Any, Any, None]:
        """Download the offload code to the device, once (§III-C)."""
        isce = self.ssd.isce
        if isce is None or isce.program_loaded:
            return
        span = self._phase(trace_parent, "load_program",
                           bytes=self.OFFLOAD_PROGRAM_SECTORS * 512)
        yield self.ssd.submit(Command(op=Op.LOAD_PROGRAM,
                                      nsectors=self.OFFLOAD_PROGRAM_SECTORS,
                                      span=span))
        self._phase_end(span)

    def _submit_reliable(self, make_command: Any) -> Generator[Any, Any, Any]:
        """Submit via a fresh-command factory, re-issuing on media errors.

        Checkpoint commands are idempotent over a frozen epoch, so a
        whole-command retry is always safe.  Raises
        :class:`CheckpointMediaError` once the budget is exhausted or the
        device reports read-only — the engine then falls back or degrades
        instead of losing the epoch.
        """
        attempts = 0
        while True:
            completion = yield self.ssd.submit(make_command())
            if completion.ok:
                return completion
            if completion.status is Status.MEDIA_ERROR \
                    and attempts < self.policy.media_retry_limit:
                attempts += 1
                self.ssd.stats.counter("ckpt.media_resubmits").add(1)
                continue
            raise CheckpointMediaError(
                f"checkpoint {completion.command.op.value} command failed: "
                f"{completion.error or completion.status.value}")

    def _pooled(self, jobs: List[Any]) -> Generator[Any, Any, None]:
        """Run generator jobs with bounded concurrency."""
        width = max(1, self.policy.parallelism)
        queue = list(reversed(jobs))

        def worker():
            while queue:
                job = queue.pop()
                yield from job

        workers = [spawn(self.sim, worker(), name=f"ckpt-worker{i}")
                   for i in range(min(width, len(jobs)))]
        if workers:
            yield all_of(self.sim, workers)

    def _write_host_metadata(self, report: CheckpointReport,
                             entry_count: int,
                             trace_parent: Any = None
                             ) -> Generator[Any, Any, None]:
        """Baseline/ISC-A/B: the host persists checkpoint metadata itself."""
        meta_bytes = max(512, entry_count * self.policy.metadata_bytes_per_entry)
        nsectors = ceil_div(meta_bytes, 512)
        span = self._phase(trace_parent, "metadata_persist", bytes=meta_bytes)

        def meta_cmd():
            cmd = write_command(
                self.policy.metadata_lba, nsectors, tags=None, fua=True,
                stream="meta", cause="ckpt_meta")
            cmd.span = span
            return cmd

        yield from self._submit_reliable(meta_cmd)
        yield self.ssd.submit(Command(op=Op.FLUSH, span=span))
        report.write_commands += 1
        self._phase_end(span)

    def _trim_journal(self, frozen: FrozenEpoch, report: CheckpointReport,
                      via_isce: bool,
                      trace_parent: Any = None) -> Generator[Any, Any, None]:
        # The checkpoint is durable: clear the JMT first so no reader is
        # routed to a journal location while (or after) it is deallocated.
        frozen.jmt.clear()
        lba, nsectors = frozen.journal_range
        if nsectors == 0:
            return
        op = Op.DELETE_LOGS if via_isce else Op.TRIM
        span = self._phase(trace_parent, "dealloc", lba=lba, nsectors=nsectors)
        completion = yield self.ssd.submit(Command(op=op, lba=lba,
                                                   nsectors=nsectors,
                                                   span=span))
        if not completion.ok:
            # The checkpoint itself is already durable; a failed
            # deallocation only leaves stale journal sectors for GC to
            # reclaim later.  Tolerate it rather than abort.
            self.ssd.stats.counter("ckpt.trim_failed").add(1)
            self._phase_end(span, failed=True)
            return
        report.journal_sectors_freed = nsectors
        self._phase_end(span)


def cow_entry_for(entry: JournalEntry) -> CowEntry:
    """Translate a JMT entry into the device CoW descriptor."""
    if entry.log_type.value == "full" and entry.exclusive_sectors \
            and entry.src_offset == 0:
        return CowEntry(src_lba=entry.journal_lba, dst_lba=entry.target_lba,
                        nsectors=entry.target_nsectors,
                        src_nsectors=entry.journal_nsectors)
    return CowEntry(src_lba=entry.journal_lba, dst_lba=entry.target_lba,
                    nsectors=entry.target_nsectors,
                    src_nsectors=entry.journal_nsectors,
                    src_offset=entry.src_offset,
                    length_bytes=entry.stored_bytes)


class BaselineCheckpointer(CheckpointStrategy):
    """Conventional checkpointing by the storage engine (§II-B)."""

    @property
    def name(self) -> str:
        return "baseline"

    def run(self, frozen: FrozenEpoch,
            trace_parent: Any = None) -> Generator[Any, Any, CheckpointReport]:
        report = self._new_report(frozen)
        latest = frozen.jmt.latest_entries()
        report.entries_checkpointed = len(latest)

        # Phase 1: read every latest journal log into host memory.
        read_results: List[Optional[List[Any]]] = [None] * len(latest)
        readback = self._phase(trace_parent, "journal_readback",
                               entries=len(latest))

        def read_job(index: int, entry: JournalEntry):
            completion = yield from self._submit_reliable(lambda: Command(
                op=Op.READ, lba=entry.journal_lba,
                nsectors=entry.journal_nsectors, span=readback,
                cause="ckpt_read"))
            read_results[index] = completion.tags
            report.read_commands += 1

        yield from self._pooled([read_job(i, e) for i, e in enumerate(latest)])
        self._phase_end(readback)

        # Phase 2: write each latest value to its target location, in
        # ascending target order so neighbouring records coalesce into
        # whole mapping units in the device buffer.
        from repro.checkin.format import extract_from_span

        data_write = self._phase(trace_parent, "data_write",
                                 entries=len(latest))

        def write_job(index: int, entry: JournalEntry):
            tag = extract_from_span(read_results[index], entry.src_offset)
            sector_tags = [tag] * entry.target_nsectors

            def make_cmd():
                cmd = write_command(
                    entry.target_lba, entry.target_nsectors, tags=sector_tags,
                    stream="data", cause="ckpt")
                cmd.span = data_write
                return cmd

            yield from self._submit_reliable(make_cmd)
            report.write_commands += 1

        ordered = sorted(range(len(latest)), key=lambda i: latest[i].target_lba)
        yield from self._pooled([write_job(i, latest[i]) for i in ordered])
        self._phase_end(data_write)

        # Phase 3: metadata, then retire the journal half.
        yield from self._write_host_metadata(report, len(latest),
                                             trace_parent=trace_parent)
        yield from self._trim_journal(frozen, report, via_isce=False,
                                      trace_parent=trace_parent)
        report.copied_units = len(latest)
        report.finished_at = self.sim.now
        return report


class IscACheckpointer(CheckpointStrategy):
    """In-storage checkpointing, one single-CoW command per log."""

    @property
    def name(self) -> str:
        return "isc_a"

    def run(self, frozen: FrozenEpoch,
            trace_parent: Any = None) -> Generator[Any, Any, CheckpointReport]:
        report = self._new_report(frozen)
        latest = frozen.jmt.latest_entries()
        report.entries_checkpointed = len(latest)
        yield from self._ensure_offload_program(trace_parent)
        cow_span = self._phase(trace_parent, "cow_remap",
                               entries=len(latest))

        def cow_job(entry: JournalEntry):
            completion = yield from self._submit_reliable(lambda: Command(
                op=Op.COW, entries=(cow_entry_for(entry),), span=cow_span))
            report.cow_commands += 1
            report.remapped_units += completion.remapped_units
            report.copied_units += completion.copied_units

        ordered = sorted(latest, key=lambda e: e.target_lba)
        yield from self._pooled([cow_job(e) for e in ordered])
        self._phase_end(cow_span, remapped=report.remapped_units,
                        copied=report.copied_units)
        yield from self._write_host_metadata(report, len(latest),
                                             trace_parent=trace_parent)
        yield from self._trim_journal(frozen, report, via_isce=True,
                                      trace_parent=trace_parent)
        report.finished_at = self.sim.now
        return report


class IscBCheckpointer(CheckpointStrategy):
    """In-storage checkpointing with batched multi-CoW commands."""

    @property
    def name(self) -> str:
        return "isc_b"

    def run(self, frozen: FrozenEpoch,
            trace_parent: Any = None) -> Generator[Any, Any, CheckpointReport]:
        report = self._new_report(frozen)
        latest = frozen.jmt.latest_entries()
        report.entries_checkpointed = len(latest)
        yield from self._ensure_offload_program(trace_parent)
        yield from self._submit_batches(latest, report, op=Op.COW_MULTI,
                                        trace_parent=trace_parent)
        yield from self._write_host_metadata(report, len(latest),
                                             trace_parent=trace_parent)
        yield from self._trim_journal(frozen, report, via_isce=True,
                                      trace_parent=trace_parent)
        report.finished_at = self.sim.now
        return report

    def _submit_batches(self, latest: List[JournalEntry],
                        report: CheckpointReport, op: Op,
                        trace_parent: Any = None
                        ) -> Generator[Any, Any, None]:
        batch_size = max(1, self.policy.cow_batch)
        ordered = sorted(latest, key=lambda entry: entry.target_lba)
        batches = [ordered[i:i + batch_size]
                   for i in range(0, len(ordered), batch_size)]
        cow_span = self._phase(trace_parent, "cow_remap",
                               entries=len(latest), batches=len(batches))

        def batch_job(batch: List[JournalEntry]):
            entries = tuple(cow_entry_for(entry) for entry in batch)
            completion = yield from self._submit_reliable(
                lambda: Command(op=op, entries=entries, span=cow_span))
            report.cow_commands += 1
            report.remapped_units += completion.remapped_units
            report.copied_units += completion.copied_units

        yield from self._pooled([batch_job(b) for b in batches])
        self._phase_end(cow_span, remapped=report.remapped_units,
                        copied=report.copied_units)


class IscCCheckpointer(IscBCheckpointer):
    """Multi-CoW against a remap-capable sub-page FTL (no aligned logs).

    The host-side protocol is ISC-B's; the difference lives in the device
    (mapping unit = 512 B, remapping allowed) and shows up as remapped vs
    copied unit counts.
    """

    @property
    def name(self) -> str:
        return "isc_c"


class CheckInCheckpointer(IscBCheckpointer):
    """The full proposal: checkpoint-request commands + aligned journaling.

    The checkpoint command carries the metadata, so the device persists it
    and no separate host metadata write is needed (§III-C).
    """

    @property
    def name(self) -> str:
        return "checkin"

    def run(self, frozen: FrozenEpoch,
            trace_parent: Any = None) -> Generator[Any, Any, CheckpointReport]:
        report = self._new_report(frozen)
        latest = frozen.jmt.latest_entries()
        report.entries_checkpointed = len(latest)
        yield from self._ensure_offload_program(trace_parent)
        yield from self._submit_batches(latest, report, op=Op.CHECKPOINT,
                                        trace_parent=trace_parent)
        yield from self._trim_journal(frozen, report, via_isce=True,
                                      trace_parent=trace_parent)
        report.finished_at = self.sim.now
        return report


STRATEGIES = {
    "baseline": BaselineCheckpointer,
    "isc_a": IscACheckpointer,
    "isc_b": IscBCheckpointer,
    "isc_c": IscCCheckpointer,
    "checkin": CheckInCheckpointer,
}
"""Registry keyed by the configuration names used throughout the repo."""


def make_strategy(mode: str, sim: Simulator, ssd: Ssd,
                  policy: Optional[CheckpointPolicy] = None) -> CheckpointStrategy:
    """Instantiate the strategy for a configuration name."""
    try:
        cls = STRATEGIES[mode]
    except KeyError:
        raise ValueError(
            f"unknown checkpoint mode {mode!r}; "
            f"expected one of {sorted(STRATEGIES)}") from None
    return cls(sim, ssd, policy)
