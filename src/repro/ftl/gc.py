"""Garbage collection: greedy victim selection and valid-unit migration.

Flash cannot overwrite in place, so invalidated units (old versions,
trimmed journal logs, RMW leftovers, padding) accumulate until GC migrates
a block's remaining valid units elsewhere and erases it.  Every migrated
unit is a flash write the host never asked for — the write amplification
the paper attacks — so the collector is also where the lifetime statistics
of Figure 8(b) and Equation (1) come from.

Shared units (one physical unit referenced by several LPNs after a
remapping checkpoint) are migrated once and every referencing LPN is
repointed at the new location.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.common.errors import DeviceFullError, MediaEraseError
from repro.ftl.allocator import BlockAllocator
from repro.ftl.mapping import SubPageMappingTable
from repro.sim.core import Simulator
from repro.sim.resources import Lock
from repro.sim.stats import StatRegistry

GC_STREAM = "gc"


class GarbageCollector:
    """Greedy garbage collector over one FTL's blocks."""

    def __init__(self, sim: Simulator, ftl: Any,
                 low_watermark: int, high_watermark: int) -> None:
        if low_watermark < 1 or high_watermark < low_watermark:
            raise DeviceFullError(
                "watermarks must satisfy 1 <= low <= high")
        self.sim = sim
        self.ftl = ftl
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self._lock = Lock(sim, name="gc")
        self.stats: StatRegistry = ftl.stats

    # -- policy ----------------------------------------------------------------
    def needs_urgent_collection(self) -> bool:
        """True when the free pool is at or below the low watermark.

        Triggering *at* the watermark (not below it) keeps at least one
        free block in reserve for the GC migration stream itself.
        """
        return self.ftl.allocator.free_block_count <= self.low_watermark

    def wants_background_collection(self) -> bool:
        """True when an idle device should reclaim space opportunistically."""
        return self.ftl.allocator.free_block_count <= self.high_watermark

    def select_victim(self) -> Optional[int]:
        """Wear-aware greedy victim selection; None when no candidate.

        Primary criterion: most invalid units (least migration per
        reclaimed block).  Ties break toward the block with the fewest
        erase cycles — the simple wear-levelling tiebreak
        SimpleSSD-class FTLs apply so hot blocks do not burn out first.
        Blocks with zero invalid units are skipped: erasing them would
        migrate a full block for no gain.
        """
        allocator: BlockAllocator = self.ftl.allocator
        mapping: SubPageMappingTable = self.ftl.mapping
        # Suspect blocks (program-status failures) jump the queue: they
        # must be drained and retired before they can hurt again.
        for block in sorted(allocator.full_blocks & self.ftl.suspect_blocks):
            if not self.ftl.inflight_programs(block):
                return block
        candidates = []
        best_invalid = 0
        for block in allocator.full_blocks:
            if self.ftl.inflight_programs(block):
                continue  # last page still programming; content not readable yet
            written = allocator.written_units.get(block, 0)
            invalid = written - mapping.valid_units(block)
            if invalid > 0:
                candidates.append((block, invalid))
                best_invalid = max(best_invalid, invalid)
        if not candidates:
            return None
        ties = [block for block, invalid in candidates
                if invalid == best_invalid]
        return min(ties,
                   key=lambda block: (self.ftl.array.block(block).erase_count,
                                      block))

    # -- mechanism ----------------------------------------------------------------
    def collect_once(self) -> Generator[Any, Any, bool]:
        """Reclaim one victim block; returns False when nothing to reclaim."""
        yield self._lock.acquire()
        try:
            victim = self.select_victim()
            if victim is None:
                return False
            tracer = self.ftl.sim.tracer
            span = tracer.begin("gc", "collect", block=victim) \
                if tracer.enabled else None
            obs = self.ftl.sim.obs
            if obs is not None:
                obs.emit("gc", "victim_pick", span, block=victim,
                         suspect=victim in self.ftl.suspect_blocks,
                         free_blocks=self.ftl.allocator.free_block_count)
            yield from self._migrate_and_erase(victim)
            if span is not None:
                tracer.end(span)
            return True
        finally:
            self._lock.release()

    def collect_read_disturbed(self) -> Generator[Any, Any, bool]:
        """Read-reclaim: migrate + erase the most disturbed block, if any.

        Run from the controller's idle loop; returns False when no block
        is past :attr:`~repro.ftl.ftl.FtlConfig.read_reclaim_threshold`.
        """
        yield self._lock.acquire()
        try:
            victim = self.ftl.read_reclaim_candidate()
            if victim is None:
                return False
            tracer = self.ftl.sim.tracer
            span = tracer.begin("gc", "read_reclaim", block=victim) \
                if tracer.enabled else None
            yield from self._migrate_and_erase(victim)
            self.stats.counter("media.read_reclaim").add(1)
            if span is not None:
                tracer.end(span)
            return True
        finally:
            self._lock.release()

    def ensure_free_blocks(self, blame=None) -> Generator[Any, Any, None]:
        """Foreground GC: reclaim until above the low watermark.

        Raises :class:`DeviceFullError` if no victim can be found while
        still below the watermark (the device is genuinely full of valid
        data).

        ``blame`` (the stalled command's stage clock, whose mark is the
        stall's start) laps the whole foreground stall (victim migration,
        erase, programming catch-up waits) to ``gc_stall`` — the request
        could not make progress for exactly this window.
        """
        try:
            while self.needs_urgent_collection():
                reclaimed = yield from self.collect_once()
                if reclaimed:
                    continue
                if self._victims_pending_program():
                    # Candidates exist but their last page is still
                    # programming; wait for the flash to catch up and retry.
                    yield 50_000
                    continue
                if self.ftl.allocator.free_block_count == 0:
                    raise DeviceFullError(
                        "device full: no free block and no GC victim")
                break  # nothing reclaimable, but writes can still proceed
        finally:
            if blame is not None:
                blame.lap("gc_stall")

    def _victims_pending_program(self) -> bool:
        """True when a would-be victim is only blocked by in-flight programs."""
        allocator: BlockAllocator = self.ftl.allocator
        mapping: SubPageMappingTable = self.ftl.mapping
        for block in allocator.full_blocks:
            if not self.ftl.inflight_programs(block):
                continue
            written = allocator.written_units.get(block, 0)
            if written - mapping.valid_units(block) > 0:
                return True
        return False

    def _migrate_and_erase(self, victim: int) -> Generator[Any, Any, None]:
        ftl = self.ftl
        mapping: SubPageMappingTable = ftl.mapping
        geometry = ftl.geometry
        self.stats.counter("gc.invocations").add(1)

        first_page = geometry.first_page_of_block(victim)
        migrated = 0
        for ppa in range(first_page, first_page + geometry.pages_per_block):
            valid_upas = mapping.valid_units_in_page(ppa)
            if not valid_upas:
                continue
            page_data, _page_oob = yield from ftl._read_page_with_retry(ppa)
            self.stats.counter("flash.read.gc").add(1)
            for upa in valid_upas:
                unit_index = mapping.unit_index(upa)
                tag = page_data.get(unit_index) if page_data else None
                referrers = mapping.referrers(upa)
                yield from ftl.relocate_unit(referrers, tag)
                migrated += 1
        self.stats.counter("gc.migrated_units").add(migrated)

        # All valid units are off the victim now; erase and recycle it —
        # unless the media condemned it, in which case retire it.
        if victim in ftl.suspect_blocks:
            # A program-status failure already condemned this block; do
            # not spend an erase (or risk reuse) on it.
            mapping.release_block(victim)
            ftl.retire_block(victim, cause="program_fail")
            return
        try:
            yield from ftl.array.erase_block(victim)
        except MediaEraseError:
            # Erase-status failure: the textbook grown-bad-block event.
            # Stale contents remain but recovery's sequence ordering makes
            # them lose against the migrated copies.
            mapping.release_block(victim)
            ftl.retire_block(victim, cause="erase_fail")
            return
        mapping.release_block(victim)
        ftl.allocator.register_free(victim)
        self.stats.counter("gc.erased_blocks").add(1)
