"""The flash translation layer facade.

Responsibilities (mirroring the SimpleSSD FTL the paper modified):

* host-sector address translation onto mapping units (sub-page mapping,
  §III-D — the unit size is configurable from 512 B up to the page size);
* log-structured out-of-place writes with per-stream active blocks and a
  capacitor-backed open-page buffer (writes ack once staged, pages program
  asynchronously, back-pressure through a bounded write buffer);
* read-modify-write when a host write covers only part of a mapped unit —
  the *internal write amplification* of Figures 3(a) and 8;
* the **remap** primitive used by the in-storage checkpoint (Algorithm 1):
  aliasing a data-area LPN onto the physical unit of a journal log;
* physical unit copies (for the ISC-A/ISC-B configurations that offload
  checkpointing but still copy data inside the device);
* trim/deallocate, greedy GC, wear accounting, and periodic mapping-table
  persistence to flash.

All timed entry points are generator helpers for ``yield from`` inside a
simulation process.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (Any, Deque, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.common.errors import (
    ConfigError,
    DeviceFullError,
    FtlError,
    MediaProgramError,
    MediaReadError,
)
from repro.common.units import MIB, SECTOR_SIZE, ceil_div
from repro.flash.array import FlashArray
from repro.flash.geometry import FlashGeometry
from repro.ftl.allocator import BlockAllocator, PageProgram
from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import SubPageMappingTable
from repro.obs.blame import StageClock
from repro.sim.core import GRANTED, Event, Simulator, all_of
from repro.sim.process import spawn
from repro.sim.resources import Resource
from repro.sim.stats import StatRegistry

SectorTag = Any
UnitTags = Tuple[SectorTag, ...]


@dataclass(frozen=True)
class FtlConfig:
    """Tunables of the translation layer."""

    mapping_unit: int = 4096
    """Mapping granularity in bytes (512 = the Check-In sub-page unit)."""

    gc_low_watermark: int = 2
    """Foreground GC kicks in below this many free blocks."""

    gc_high_watermark: int = 4
    """Background GC target: idle device reclaims up to this level."""

    write_buffer_bytes: int = 2 * MIB
    """Capacitor-backed staging buffer capacity in bytes (converted to
    mapping units at construction, so all configurations get the same
    DRAM regardless of mapping granularity)."""

    map_update_ns: int = 60
    """DRAM mapping-table update cost per entry."""

    remap_entry_ns: int = 150
    """Cost to process one CoW remap entry (lookup + two map updates)."""

    staged_read_ns: int = 800
    """Serving a read from the controller staging buffer."""

    stripe_width: int = 0
    """Stripe lanes per write stream (0 = auto from the geometry)."""

    meta_entry_bytes: int = 8
    """Persisted size of one dirty mapping entry."""

    map_cache_bytes: int = 256 * 1024
    """DFTL-style map cache: mapping-table pages resident in device DRAM.
    A host op touching an LPN whose map page is not cached pays a flash
    read first (0 disables the model).  Smaller mapping units mean more
    entries, a larger table and more misses — the metadata overhead the
    Figure 13(a) sensitivity study varies."""

    max_pe_cycles: int = 3000
    """Block endurance used for lifetime estimates (Equation 1)."""

    snapshot_metadata: bool = True
    """Keep a copy of the L2P table at each persistence point so crash
    recovery can be exercised; benchmarks disable this to save memory."""

    track_op_log: bool = False
    """Record remap/trim operations (with sequence numbers) so the OOB
    power-loss-recovery scan can be verified to rebuild the exact mapping
    (§III-G).  Off by default — costs memory proportional to run length."""

    spare_block_budget: int = 8
    """Grown-bad blocks tolerated before the device drops to read-only
    degraded mode.  Real drives carry spare blocks outside the exported
    capacity for exactly this; once the budget is exhausted the device
    can no longer guarantee out-of-place writes."""

    read_reissue_limit: int = 4
    """FTL-level re-issues of a page read whose in-array retry ladder
    exhausted (UECC).  Each re-issue draws fresh retry levels, which is
    how transient UECCs recover."""

    read_reclaim_threshold: int = 100_000
    """Reads-since-erase beyond which a full block is proactively
    migrated and erased (read-disturb reclaim).  The high default keeps
    the scrubber out of the way of ordinary runs."""

    relocate_attempt_limit: int = 8
    """Back-to-back program failures tolerated while relocating one
    page's units before the device degrades to read-only."""

    def __post_init__(self) -> None:
        if self.mapping_unit % SECTOR_SIZE != 0:
            raise ConfigError("mapping_unit must be a multiple of 512")
        if self.mapping_unit < SECTOR_SIZE:
            raise ConfigError("mapping_unit must be >= 512")
        if self.write_buffer_bytes < self.mapping_unit:
            raise ConfigError("write_buffer_bytes must hold at least one unit")
        if self.spare_block_budget < 0:
            raise ConfigError("spare_block_budget must be >= 0")
        if self.read_reissue_limit < 0:
            raise ConfigError("read_reissue_limit must be >= 0")
        if self.read_reclaim_threshold < 1:
            raise ConfigError("read_reclaim_threshold must be >= 1")
        if self.relocate_attempt_limit < 1:
            raise ConfigError("relocate_attempt_limit must be >= 1")


class Ftl:
    """Sub-page-mapped, log-structured flash translation layer."""

    def __init__(self, sim: Simulator, array: FlashArray,
                 config: Optional[FtlConfig] = None) -> None:
        self.sim = sim
        self.array = array
        self.geometry: FlashGeometry = array.geometry
        self.config = config if config is not None else FtlConfig()
        if self.config.mapping_unit > self.geometry.page_size:
            raise ConfigError("mapping_unit cannot exceed the page size")
        if self.geometry.page_size % self.config.mapping_unit != 0:
            raise ConfigError("mapping_unit must divide the page size")
        self.stats: StatRegistry = array.stats
        array.max_pe_cycles = None  # endurance tracked statistically, not fatal

        self.units_per_page = self.geometry.page_size // self.config.mapping_unit
        self.sectors_per_unit = self.config.mapping_unit // SECTOR_SIZE
        self.mapping = SubPageMappingTable(self.units_per_page,
                                           self.geometry.pages_per_block)
        self.allocator = BlockAllocator(self.geometry, self.units_per_page,
                                        stripe_width=self.config.stripe_width)
        self.gc = GarbageCollector(sim, self,
                                   self.config.gc_low_watermark,
                                   self.config.gc_high_watermark)
        buffer_units = max(64, self.config.write_buffer_bytes
                           // self.config.mapping_unit)
        self._write_buffer = Resource(sim, buffer_units, name="write-buffer")
        self._staged_tags: Dict[int, UnitTags] = {}
        self._staged_oob: Dict[int, Any] = {}
        self._buffer_held: set = set()  # upas holding a write-buffer slot
        self._inflight_per_block: Dict[int, int] = {}
        self._write_seq = 0
        self._dirty_map_entries = 0
        self._persisted_snapshot: Dict[int, int] = {}
        self._map_entries_per_page = max(
            1, self.geometry.page_size // self.config.meta_entry_bytes)
        self._map_cache_pages = (self.config.map_cache_bytes
                                 // self.geometry.page_size)
        self._map_cache: "OrderedDict[int, None]" = OrderedDict()
        self._lpn_locks: Dict[int, Optional[Deque[Event]]] = {}
        """Per-LPN write locks: a missing key is a free LPN; a present key
        is held, and maps to its FIFO of waiting Events (None until a
        second writer arrives), so an uncontended lock builds nothing."""
        # Per-unit hot path: the config is frozen and counters are
        # get-or-create, so resolve the per-write costs and counter
        # objects once instead of per operation.
        self._map_update_ns = self.config.map_update_ns
        self._staged_read_ns = self.config.staged_read_ns
        self._mapping_unit = self.config.mapping_unit
        self._map_miss_counter = self.stats.counter("ftl.map_miss")
        self._unit_write_counters: Dict[str, Any] = {}
        self._unit_rmw_counters: Dict[str, Any] = {}
        self.grown_bad: set = set()
        """Blocks retired for media failures — never allocated again."""
        self.suspect_blocks: set = set()
        """Blocks that saw a program-status failure; retired (instead of
        erased) at their next GC visit."""
        self.read_only = False
        """Degraded mode: the device stopped accepting mutations."""
        self.degraded_reason = ""
        self.op_log: Optional[List[Tuple[int, str, int, int]]] = \
            [] if self.config.track_op_log else None
        """Durable mapping operations as ``(seq, op, a, b)``; 'remap' carries
        (src_lpn, dst_lpn), 'trim' carries (lpn, 0)."""
        self._ns_ranges: List[Tuple[int, int, int]] = []
        """Namespace unit ranges as ``(nsid, first_lpn, end_lpn)`` sorted by
        first LPN; empty = single-tenant device."""
        self._ns_starts: List[int] = []

    # ------------------------------------------------------------------
    # namespaces
    # ------------------------------------------------------------------
    def set_namespaces(self,
                       unit_ranges: Sequence[Tuple[int, int, int]]) -> None:
        """Partition the LPN space as ``(nsid, first_lpn, num_lpns)`` tuples.

        Write streams become namespace-qualified (``"ns0.data"``, ...), so
        every flash page holds units of exactly one tenant: GC victims,
        padding and remap targets never mix namespaces.  The shared "meta"
        stream stays device-wide (the mapping table is one structure).
        """
        ordered = sorted(unit_ranges, key=lambda r: r[1])
        ranges: List[Tuple[int, int, int]] = []
        for nsid, first, count in ordered:
            if count < 1 or first < 0:
                raise FtlError(
                    f"namespace {nsid} needs first_lpn >= 0, num_lpns >= 1")
            if ranges and first < ranges[-1][2]:
                raise FtlError(
                    f"namespace {nsid} overlaps namespace {ranges[-1][0]}")
            ranges.append((nsid, first, first + count))
        self._ns_ranges = ranges
        self._ns_starts = [first for _nsid, first, _end in ranges]

    @property
    def namespaced(self) -> bool:
        """True when the LPN space is partitioned into namespaces."""
        return bool(self._ns_ranges)

    def nsid_of_lpn(self, lpn: int) -> Optional[int]:
        """Namespace owning ``lpn`` (None when unowned / single-tenant)."""
        if not self._ns_ranges:
            return None
        index = bisect.bisect_right(self._ns_starts, lpn) - 1
        if index < 0:
            return None
        nsid, _first, end = self._ns_ranges[index]
        return nsid if lpn < end else None

    def _qualify(self, stream: str, lpn: int) -> str:
        """The allocation stream for ``stream`` traffic against ``lpn``."""
        if not self._ns_ranges or stream == "meta":
            return stream
        nsid = self.nsid_of_lpn(lpn)
        return stream if nsid is None else f"ns{nsid}.{stream}"

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def lpn_of_lba(self, lba: int) -> int:
        """Logical page (mapping unit) containing sector ``lba``."""
        if lba < 0:
            raise FtlError(f"negative lba {lba}")
        return lba // self.sectors_per_unit

    def lpn_span(self, lba: int, nsectors: int) -> range:
        """All LPNs touched by the sector range."""
        if nsectors < 1:
            raise FtlError(f"nsectors must be >= 1, got {nsectors}")
        first = self.lpn_of_lba(lba)
        last = self.lpn_of_lba(lba + nsectors - 1)
        return range(first, last + 1)

    def inflight_programs(self, block: int) -> int:
        """Page programs currently executing against ``block``."""
        return self._inflight_per_block.get(block, 0)

    # ------------------------------------------------------------------
    # DFTL map cache
    # ------------------------------------------------------------------
    def touch_map(self, lpns: Iterable[int]) -> Generator[Any, Any, None]:
        """Ensure the map pages covering ``lpns`` are cached (miss = read).

        The mapping store itself is modelled logically; a miss costs one
        timed flash read on the map page's home LUN and evicts LRU pages.
        """
        if self._map_cache_pages <= 0:
            return
        misses: List[int] = []
        for lpn in lpns:
            map_page = lpn // self._map_entries_per_page
            if map_page in self._map_cache:
                self._map_cache.move_to_end(map_page)
            else:
                self._map_cache[map_page] = None
                misses.append(map_page)
                while len(self._map_cache) > self._map_cache_pages:
                    self._map_cache.popitem(last=False)
        for map_page in misses:
            yield from self.array.mapping_read(
                map_page % self.geometry.num_luns)
            self._map_miss_counter.add(1)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write(self, lba: int, nsectors: int,
              tags: Optional[Sequence[SectorTag]] = None,
              stream: str = "data",
              cause: str = "host",
              blame: Optional[StageClock] = None
              ) -> Generator[Any, Any, None]:
        """Timed host-style write of ``nsectors`` sectors at ``lba``.

        ``tags`` carries one opaque tag per sector (or None).  Completion
        means every unit is staged in the protected buffer; page programs
        for filled pages run asynchronously with back-pressure.

        Concurrent writers of the same logical pages are serialised by
        per-LPN locks: a read-modify-write that overlapped another
        writer's RMW on the same unit would otherwise lose the earlier
        merge (both start from the same old content).  Locks are taken in
        ascending LPN order, so overlapping writers cannot deadlock.
        """
        if tags is not None and len(tags) != nsectors:
            raise FtlError(f"expected {nsectors} sector tags, got {len(tags)}")
        sim = self.sim
        tracer = sim.tracer
        span = tracer.begin("ftl", "write", lba=lba, nsectors=nsectors,
                            bytes=nsectors * 512, stream=stream,
                            cause=cause) \
            if tracer.enabled else None
        lpns = self.lpn_span(lba, nsectors)  # ascending
        locks = self._lpn_locks
        for lpn in lpns:
            if lpn in locks:
                waiter = Event(sim)
                queue = locks[lpn]
                if queue is None:
                    queue = locks[lpn] = deque()
                queue.append(waiter)
                yield waiter
            else:
                locks[lpn] = None
                yield GRANTED
        try:
            yield from self.touch_map(lpns)
            if blame is not None:
                blame.lap("ftl_map")  # LPN lock waits + map-cache touches

            spu = self.sectors_per_unit
            plan: List[Tuple[int, int, int, bool]] = []  # lpn, start, end, rmw
            rmw_pages: List[int] = []
            staged_old: Dict[int, UnitTags] = {}  # snapshot against de-staging races
            for lpn in lpns:
                unit_first_lba = lpn * spu
                start = max(lba, unit_first_lba)
                end = min(lba + nsectors, unit_first_lba + spu)
                full_cover = (end - start) == spu
                old_upa = self.mapping.lookup(lpn)
                is_rmw = (not full_cover) and old_upa is not None
                if is_rmw:
                    staged = self._staged_tags.get(old_upa)
                    if staged is not None:
                        staged_old[lpn] = staged
                    else:
                        rmw_pages.append(self.mapping.page_of_unit(old_upa))
                plan.append((lpn, start, end, is_rmw))

            # Read-modify-write: fetch every old page once, in parallel.
            old_pages: Dict[int, Any] = {}
            if rmw_pages:
                if blame is not None:
                    blame.mark_busy(self.array)
                yield from self._read_pages_parallel(sorted(set(rmw_pages)),
                                                     old_pages)
                if blame is not None:
                    blame.lap_split("flash_read", self.array)
                self.stats.counter("ftl.rmw_reads").add(len(set(rmw_pages)))

            # Merge every unit's tags before the first staging-slot wait.
            units: List[Tuple[int, UnitTags, Any]] = []  # lpn, tags, oob
            rmw_units = 0
            for lpn, start, end, is_rmw in plan:
                unit_first_lba = lpn * spu
                merged: List[SectorTag] = [None] * spu
                if is_rmw:
                    rmw_units += 1
                    old = staged_old.get(lpn)
                    if old is None:
                        old = self._old_unit_tags(lpn, old_pages)
                    if old is not None:
                        merged = list(old)
                for sector in range(start, end):
                    tag = tags[sector - lba] if tags is not None else None
                    merged[sector - unit_first_lba] = tag
                self._write_seq += 1
                units.append((lpn, tuple(merged), ((lpn, self._write_seq),)))

            # Allocate, stage and (asynchronously) program each unit.
            is_ckpt = cause.startswith("ckpt")
            map_update_ns = self._map_update_ns
            for lpn, unit_tags, oob in units:
                if self.gc.needs_urgent_collection():
                    yield from self.gc.ensure_free_blocks(blame=blame)
                if blame is not None:
                    blame.mark_busy(self.array)
                yield self._write_buffer.acquire()
                if blame is not None:
                    # Waiting for a staging slot = backpressure from
                    # in-flight page programs (checkpoint-coincident wait
                    # splits out).
                    blame.lap_split("flash_program", self.array)
                upas, programs = self.allocator.allocate(
                    self._qualify(stream, lpn), 1)
                upa = upas[0]
                self._buffer_held.add(upa)
                self._staged_tags[upa] = unit_tags
                self._staged_oob[upa] = oob
                self.mapping.map(lpn, upa)
                self._note_dirty_entries(1)
                for program in programs:
                    self._launch_program(program, ckpt=is_ckpt)
                yield map_update_ns
                if blame is not None:
                    blame.lap("ftl_map")
            count = len(units)
            counter = self._unit_write_counters.get(cause)
            if counter is None:
                counter = self.stats.counter(f"ftl.units.write.{cause}")
                self._unit_write_counters[cause] = counter
            counter.add(count, num_bytes=count * self._mapping_unit)
            if rmw_units:
                counter = self._unit_rmw_counters.get(cause)
                if counter is None:
                    counter = self.stats.counter(f"ftl.units.rmw.{cause}")
                    self._unit_rmw_counters[cause] = counter
                counter.add(rmw_units, num_bytes=rmw_units * self._mapping_unit)
        finally:
            for lpn in lpns:
                queue = locks[lpn]
                if queue:
                    queue.popleft().succeed()  # hand the lock over
                else:
                    del locks[lpn]
            if span is not None:
                tracer.end(span)

    def _old_unit_tags(self, lpn: int, old_pages: Dict[int, Any]) -> Optional[UnitTags]:
        upa = self.mapping.lookup(lpn)
        if upa is None:
            return None
        staged = self._staged_tags.get(upa)
        if staged is not None:
            return staged
        page_data = old_pages.get(self.mapping.page_of_unit(upa))
        if page_data is None:
            return None
        return page_data.get(self.mapping.unit_index(upa))

    def _launch_program(self, program: PageProgram, attempt: int = 0,
                        ckpt: bool = False) -> None:
        """Fire an asynchronous page program for a freshly filled page.

        ``ckpt`` marks checkpoint-machinery programs: they run on the
        array's checkpoint-activity clock, so flash waits that overlap
        them are blamed on the checkpoint, not on plain service time.
        """
        block = self.geometry.block_of_page(program.ppa)
        self._inflight_per_block[block] = self._inflight_per_block.get(block, 0) + 1
        spawn(self.sim, self._program_page_proc(program, attempt, ckpt),
              name=f"program@{program.ppa}")

    def _dec_inflight(self, block: int) -> None:
        remaining = self._inflight_per_block.get(block, 0) - 1
        if remaining <= 0:
            self._inflight_per_block.pop(block, None)
        else:
            self._inflight_per_block[block] = remaining

    def _destage(self, upa: int) -> None:
        """Drop a unit from the staging buffer, freeing its slot if held."""
        self._staged_tags.pop(upa, None)
        self._staged_oob.pop(upa, None)
        if upa in self._buffer_held:
            self._buffer_held.discard(upa)
            self._write_buffer.release()

    def _program_page_proc(self, program: PageProgram, attempt: int = 0,
                           ckpt: bool = False) -> Generator[Any, Any, None]:
        data = {}
        oob: List[Any] = [None] * self.units_per_page
        for upa in program.upas:
            unit_index = self.mapping.unit_index(upa)
            data[unit_index] = self._staged_tags.get(upa)
            oob[unit_index] = self._staged_oob.get(upa)
        block = self.geometry.block_of_page(program.ppa)
        try:
            yield from self.array.program_page(program.ppa, data, oob,
                                               ckpt=ckpt)
        except MediaProgramError:
            # The page is consumed but verified bad.  Units stay staged
            # (capacitor-backed — nothing acknowledged is lost) and are
            # re-issued to fresh pages below.
            self._dec_inflight(block)
            yield from self._relocate_failed_program(program, attempt)
            return
        self._dec_inflight(block)
        for upa in program.upas:
            self._destage(upa)
        if program.padded_units:
            self.stats.counter("ftl.units.padding").add(program.padded_units)
        yield from self._maybe_persist_metadata()

    def _relocate_failed_program(self, program: PageProgram,
                                 attempt: int) -> Generator[Any, Any, None]:
        """Re-issue a failed page's still-referenced units to fresh pages.

        The failed block is marked suspect (retired at its next GC visit).
        Each live unit is staged at a new address *before* the old one is
        de-staged, and the old unit's write-buffer slot transfers to the
        new unit — acknowledged data never leaves protected RAM and the
        mapping is fixed before anything is dropped.
        """
        failed_block = self.geometry.block_of_page(program.ppa)
        self.suspect_blocks.add(failed_block)
        if attempt + 1 >= self.config.relocate_attempt_limit:
            # Pathological cascade: stop re-issuing.  Units stay staged,
            # so reads still serve them; the device degrades instead of
            # looping forever.
            self.enter_degraded(
                f"program-fail relocation cascade at block {failed_block}")
            return
        stream = program.stream or "data"
        relocated = 0
        new_programs: List[PageProgram] = []
        for upa in program.upas:
            if upa not in self._staged_tags and upa not in self._staged_oob:
                continue  # already superseded by a newer write
            referrers = tuple(self.mapping.referrers(upa))
            if not referrers:
                # Metadata unit or stale data: no LPN points here any
                # more; the next persistence cycle re-covers metadata.
                self._destage(upa)
                continue
            try:
                new_upas, programs = self.allocator.allocate(stream, 1)
            except DeviceFullError:
                self.enter_degraded(
                    f"no free blocks to relocate failed program at block "
                    f"{failed_block}")
                return
            new_upa = new_upas[0]
            self._write_seq += 1
            self._staged_tags[new_upa] = self._staged_tags[upa]
            self._staged_oob[new_upa] = tuple(
                (lpn, self._write_seq) for lpn in referrers)
            for lpn in referrers:
                self.mapping.map(lpn, new_upa)
            self._note_dirty_entries(len(referrers))
            if upa in self._buffer_held:
                # Transfer the back-pressure slot — no release/acquire,
                # so there is no window where the unit is unprotected.
                self._buffer_held.discard(upa)
                self._buffer_held.add(new_upa)
            self._staged_tags.pop(upa, None)
            self._staged_oob.pop(upa, None)
            relocated += 1
            new_programs.extend(programs)
        if relocated:
            self.stats.counter("media.relocations").add(relocated)
            yield self.config.map_update_ns * relocated
        for new_program in new_programs:
            self._launch_program(new_program, attempt=attempt + 1)
        if program.padded_units:
            self.stats.counter("ftl.units.padding").add(program.padded_units)

    def flush_stream(self, stream: str) -> Generator[Any, Any, None]:
        """Force the open partial pages of ``stream`` to flash (pads tails).

        On a namespaced device this covers every per-namespace variant of
        the stream as well, so a device-wide FLUSH drains all tenants.
        """
        names = [stream]
        if self._ns_ranges and stream != "meta":
            names.extend(f"ns{nsid}.{stream}"
                         for nsid, _first, _end in self._ns_ranges)
        for name in names:
            for program in self.allocator.flush(name):
                block = self.geometry.block_of_page(program.ppa)
                self._inflight_per_block[block] = \
                    self._inflight_per_block.get(block, 0) + 1
                yield from self._program_page_proc(program)

    def preload(self, lba: int, nsectors: int,
                tags: Optional[Sequence[SectorTag]] = None,
                stream: str = "data") -> None:
        """Instantly install data (setup/load phase — no simulated time).

        Used to populate the device before measurement starts.  Completed
        pages are programmed immediately; a trailing partial page stays in
        the staging buffer without holding a back-pressure slot.
        """
        if tags is not None and len(tags) != nsectors:
            raise FtlError(f"expected {nsectors} sector tags, got {len(tags)}")
        span = self.lpn_span(lba, nsectors)
        for lpn in span:
            unit_first = lpn * self.sectors_per_unit
            merged: List[SectorTag] = [None] * self.sectors_per_unit
            old_upa = self.mapping.lookup(lpn)
            if old_upa is not None:
                old = self._staged_tags.get(old_upa)
                if old is None:
                    page = self.mapping.page_of_unit(old_upa)
                    block = self.geometry.block_of_page(page)
                    if self.geometry.page_in_block(page) < \
                            self.array.block(block).write_pointer:
                        data = self.array.page_data(page)
                        old = data.get(self.mapping.unit_index(old_upa)) \
                            if data else None
                if old is not None:
                    merged = list(old)
            start = max(lba, unit_first)
            end = min(lba + nsectors, unit_first + self.sectors_per_unit)
            for sector in range(start, end):
                if tags is not None:
                    merged[sector - unit_first] = tags[sector - lba]
            self._write_seq += 1
            upas, programs = self.allocator.allocate(
                self._qualify(stream, lpn), 1)
            upa = upas[0]
            self._staged_tags[upa] = tuple(merged)
            self._staged_oob[upa] = ((lpn, self._write_seq),)
            self.mapping.map(lpn, upa)
            for program in programs:
                self._program_now(program)
        self.stats.counter("ftl.units.write.preload").add(len(span))

    def _program_now(self, program: PageProgram) -> None:
        data = {}
        oob: List[Any] = [None] * self.units_per_page
        for upa in program.upas:
            unit_index = self.mapping.unit_index(upa)
            data[unit_index] = self._staged_tags.pop(upa, None)
            oob[unit_index] = self._staged_oob.pop(upa, None)
        self.array.program_page_now(program.ppa, data, oob)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, lba: int, nsectors: int,
             blame: Optional[StageClock] = None,
             ckpt: bool = False
             ) -> Generator[Any, Any, List[SectorTag]]:
        """Timed read; returns one tag per requested sector.

        Unmapped sectors read back as None without touching flash (the
        device returns zeroes from the deallocated-range fast path).
        ``ckpt`` marks checkpoint-machinery reads (journal readback):
        their flash occupancy runs on the array's checkpoint clock.
        """
        tracer = self.sim.tracer
        span = tracer.begin("ftl", "read", lba=lba, nsectors=nsectors,
                            bytes=nsectors * 512) \
            if tracer.enabled else None
        lpns = self.lpn_span(lba, nsectors)
        yield from self.touch_map(lpns)
        if blame is not None:
            blame.lap("ftl_map")
        lpn_to_upa: Dict[int, Optional[int]] = {
            lpn: self.mapping.lookup(lpn) for lpn in lpns}
        # Snapshot staged contents now: a unit staged at planning time may
        # be programmed (and de-staged) while the flash reads below are in
        # flight, and it would then be lost to both lookup paths.
        staged_snapshot: Dict[int, UnitTags] = {}
        flash_pages = set()
        for upa in lpn_to_upa.values():
            if upa is None:
                continue
            staged = self._staged_tags.get(upa)
            if staged is not None:
                staged_snapshot[upa] = staged
            else:
                flash_pages.add(self.mapping.page_of_unit(upa))
        page_data: Dict[int, Any] = {}
        if flash_pages:
            if blame is not None:
                blame.mark_busy(self.array)
            yield from self._read_pages_parallel(sorted(flash_pages),
                                                 page_data, ckpt=ckpt)
            if blame is not None:
                blame.lap_split("flash_read", self.array)
        if staged_snapshot:
            yield self._staged_read_ns
            if blame is not None:
                blame.lap("flash_read")

        result: List[SectorTag] = []
        for sector in range(lba, lba + nsectors):
            lpn = self.lpn_of_lba(sector)
            upa = lpn_to_upa[lpn]
            if upa is None:
                result.append(None)
                continue
            unit_tags = staged_snapshot.get(upa)
            if unit_tags is None:
                data = page_data.get(self.mapping.page_of_unit(upa))
                unit_tags = data.get(self.mapping.unit_index(upa)) if data else None
            offset = sector - lpn * self.sectors_per_unit
            result.append(unit_tags[offset] if unit_tags else None)
        if span is not None:
            tracer.end(span, flash_pages=len(flash_pages))
        return result

    def _read_pages_parallel(self, ppas: Iterable[int],
                             out: Dict[int, Any],
                             ckpt: bool = False) -> Generator[Any, Any, None]:
        ppas = list(ppas)
        if len(ppas) == 1:
            # The common single-page case: run the read inline — a spawned
            # process plus an all_of event buys nothing with one page.
            yield from self._read_one(ppas[0], out, ckpt)
            return
        processes = []
        for ppa in ppas:
            processes.append(spawn(self.sim, self._read_one(ppa, out, ckpt),
                                   name=f"read@{ppa}"))
        if processes:
            yield all_of(self.sim, processes)

    def _read_one(self, ppa: int, out: Dict[int, Any],
                  ckpt: bool = False) -> Generator[Any, Any, None]:
        data, _oob = yield from self._read_page_with_retry(ppa, ckpt)
        out[ppa] = data

    def _read_page_with_retry(self, ppa: int,
                              ckpt: bool = False) -> Generator[Any, Any,
                                                               Tuple[Any, Any]]:
        """Array page read with bounded FTL-level re-issue on UECC.

        The in-array retry ladder already walks the voltage levels; when
        it exhausts, the FTL re-issues the whole read (fresh levels) up
        to ``read_reissue_limit`` times before surfacing the error.
        """
        attempts = 1 + self.config.read_reissue_limit
        for attempt in range(attempts):
            try:
                data, oob = yield from self.array.read_page(ppa, ckpt=ckpt)
            except MediaReadError:
                if attempt == attempts - 1:
                    raise
                continue
            if attempt:
                self.stats.counter("ftl.read_reissue").add(attempt)
            return data, oob
        raise FtlError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # trim / deallocate
    # ------------------------------------------------------------------
    def trim(self, lba: int, nsectors: int,
             blame: Optional[StageClock] = None
             ) -> Generator[Any, Any, int]:
        """Deallocate every unit fully inside the range; returns unit count."""
        tracer = self.sim.tracer
        span = tracer.begin("ftl", "trim", lba=lba, nsectors=nsectors) \
            if tracer.enabled else None
        invalidated = 0
        for lpn in self.lpn_span(lba, nsectors):
            unit_first = lpn * self.sectors_per_unit
            if unit_first < lba or unit_first + self.sectors_per_unit > lba + nsectors:
                continue  # only whole units can be deallocated
            if self.mapping.unmap(lpn) is not None:
                invalidated += 1
                self._note_dirty_entries(1)
                if self.op_log is not None:
                    self._write_seq += 1
                    self.op_log.append((self._write_seq, "trim", lpn, 0))
        if invalidated:
            yield invalidated * self.config.map_update_ns
            if blame is not None:
                blame.lap("ftl_map")
            self.stats.counter("ftl.trim.units").add(invalidated)
        if span is not None:
            tracer.end(span, units=invalidated)
        return invalidated

    # ------------------------------------------------------------------
    # checkpoint primitives (Algorithm 1 mechanics)
    # ------------------------------------------------------------------
    def remap(self, pairs: Sequence[Tuple[int, int]],
              cause: str = "ckpt") -> Generator[Any, Any, None]:
        """Alias each ``dst_lpn`` onto ``src_lpn``'s physical unit.

        This is the pure in-place checkpoint: no flash read or program —
        only mapping-table updates, later persisted in bulk.
        """
        tracer = self.sim.tracer
        span = tracer.begin("ftl", "remap", pairs=len(pairs), cause=cause) \
            if tracer.enabled else None
        touched: List[int] = []
        for src_lpn, dst_lpn in pairs:
            touched.append(src_lpn)
            touched.append(dst_lpn)
        yield from self.touch_map(touched)
        for src_lpn, dst_lpn in pairs:
            self.mapping.share(src_lpn, dst_lpn)
            if self.op_log is not None:
                self._write_seq += 1
                self.op_log.append((self._write_seq, "remap", src_lpn, dst_lpn))
        self._note_dirty_entries(len(pairs))
        if pairs:
            yield len(pairs) * self.config.remap_entry_ns
            self.stats.counter(f"ftl.remap.{cause}").add(len(pairs))
        if span is not None:
            tracer.end(span)
        yield from self._maybe_persist_metadata()

    def copy_range(self, src_lba: int, dst_lba: int, nsectors: int,
                   stream: str = "ckpt",
                   cause: str = "ckpt") -> Generator[Any, Any, None]:
        """Physically copy a sector range inside the device (no host I/O)."""
        tags = yield from self.read(src_lba, nsectors)
        yield from self.write(dst_lba, nsectors, tags=tags,
                              stream=stream, cause=cause)

    def relocate_unit(self, referrers: Iterable[int],
                      unit_tags: Any) -> Generator[Any, Any, None]:
        """GC migration: move one valid unit, repoint every referrer.

        The new physical unit's OOB records *every* referencing LPN with a
        fresh sequence number, so a post-crash OOB scan resolves shared
        (remapped) units correctly.
        """
        referrers = tuple(referrers)
        yield self._write_buffer.acquire()
        gc_stream = self._qualify("gc", referrers[0]) if referrers else "gc"
        upas, programs = self.allocator.allocate(gc_stream, 1)
        upa = upas[0]
        self._buffer_held.add(upa)
        self._write_seq += 1
        self._staged_tags[upa] = unit_tags
        self._staged_oob[upa] = tuple((lpn, self._write_seq)
                                      for lpn in referrers)
        for lpn in referrers:
            self.mapping.map(lpn, upa)
        self._note_dirty_entries(len(referrers) or 1)
        for program in programs:
            self._launch_program(program)
        yield self.config.map_update_ns
        self.stats.counter("ftl.units.write.gc").add(
            1, num_bytes=self.config.mapping_unit)

    # ------------------------------------------------------------------
    # bad-block management and degraded mode
    # ------------------------------------------------------------------
    def enter_degraded(self, reason: str) -> None:
        """Drop the device to read-only degraded mode (idempotent).

        The mapping, staged units and flash contents stay readable; the
        controller rejects mutations with a READ_ONLY status from here on.
        """
        if self.read_only:
            return
        self.read_only = True
        self.degraded_reason = reason
        self.stats.counter("ftl.degraded").add(1)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("ftl", "degraded", reason=reason)

    def retire_block(self, block: int, cause: str) -> None:
        """Move a block to the grown-bad table; it is never reused.

        Callers must have migrated any valid units off the block first.
        Exceeding :attr:`FtlConfig.spare_block_budget` retired blocks
        drops the device to degraded mode — the spare capacity a real
        drive holds back for exactly this is exhausted.
        """
        if block in self.grown_bad:
            return
        self.grown_bad.add(block)
        self.suspect_blocks.discard(block)
        self.array.block(block).grown_bad = True
        self.allocator.retire(block)
        self.stats.counter("ftl.bad_blocks").add(1)
        self.stats.counter(f"ftl.bad_blocks.{cause}").add(1)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("ftl", "block_retired", block=block, cause=cause,
                     grown_bad=len(self.grown_bad),
                     budget=self.config.spare_block_budget)
        if len(self.grown_bad) > self.config.spare_block_budget:
            self.enter_degraded(
                f"spare blocks exhausted: {len(self.grown_bad)} grown-bad "
                f"blocks > budget {self.config.spare_block_budget}")

    def read_reclaim_candidate(self) -> Optional[int]:
        """Most read-disturbed full block past the reclaim threshold.

        Returns None when no block qualifies.  Open blocks and blocks
        with in-flight programs are skipped; suspect blocks are left for
        regular GC to retire.
        """
        best: Optional[int] = None
        best_reads = self.config.read_reclaim_threshold - 1
        for block in sorted(self.allocator.full_blocks):
            if block in self.grown_bad or block in self.suspect_blocks:
                continue
            if self.inflight_programs(block):
                continue
            reads = self.array.block(block).reads_since_erase
            if reads > best_reads:
                best = block
                best_reads = reads
        return best

    # ------------------------------------------------------------------
    # metadata persistence (§III-D last paragraph)
    # ------------------------------------------------------------------
    def _note_dirty_entries(self, n: int) -> None:
        self._dirty_map_entries += n

    def _maybe_persist_metadata(self) -> Generator[Any, Any, None]:
        # Persist only once a full page worth of entries accumulated, so
        # the flash sees parallel-friendly bulk metadata writes.
        page_entries = (self.geometry.page_size // self.config.meta_entry_bytes)
        if self._dirty_map_entries >= page_entries:
            yield from self.persist_metadata()

    def persist_metadata(self, force: bool = False) -> Generator[Any, Any, None]:
        """Write accumulated dirty mapping entries to flash (meta stream)."""
        dirty_bytes = self._dirty_map_entries * self.config.meta_entry_bytes
        units = dirty_bytes // self.config.mapping_unit
        if force and dirty_bytes > 0:
            units = max(units, ceil_div(dirty_bytes, self.config.mapping_unit))
        if units == 0:
            return
        tracer = self.sim.tracer
        span = tracer.begin("ftl", "persist_meta", units=units,
                            bytes=units * self.config.mapping_unit) \
            if tracer.enabled else None
        self._dirty_map_entries = 0
        if self.gc.needs_urgent_collection():
            yield from self.gc.ensure_free_blocks()
        for _ in range(units):
            yield self._write_buffer.acquire()
            _upas, programs = self.allocator.allocate("meta", 1)
            upa = _upas[0]
            self._buffer_held.add(upa)
            self._staged_tags[upa] = None
            self._staged_oob[upa] = ()  # metadata units map to no LPN
            for program in programs:
                self._launch_program(program)
        self.stats.counter("ftl.units.write.meta").add(
            units, num_bytes=units * self.config.mapping_unit)
        if self.config.snapshot_metadata:
            self._persisted_snapshot = self.mapping.snapshot()
        if span is not None:
            tracer.end(span)

    def persisted_mapping(self) -> Dict[int, int]:
        """The mapping as of the last metadata persistence."""
        return dict(self._persisted_snapshot)

    # ------------------------------------------------------------------
    # durability model (power-loss semantics, §III-G)
    # ------------------------------------------------------------------
    def is_staged(self, upa: int) -> bool:
        """True while ``upa`` still lives in the capacitor-backed staging
        buffer (its flash page may be unwritten or torn)."""
        return upa in self._staged_tags

    def volatile_state(self) -> Dict[str, Any]:
        """Everything a power cut destroys (diagnostic summary).

        The live mapping table is also volatile — recovery rebuilds it
        from the OOB scan — but it is kept out of this summary because
        :func:`repro.engine.recovery.rebuild_mapping_from_oob` replaces it
        wholesale.
        """
        return {
            "map_cache_pages": len(self._map_cache),
            "lpn_locks": len(self._lpn_locks),
            "inflight_blocks": dict(self._inflight_per_block),
            "dirty_map_entries": self._dirty_map_entries,
            "buffer_held": set(self._buffer_held),
        }

    def discard_volatile(self) -> None:
        """Drop every DRAM structure a power cut destroys.

        Keeps the capacitor-backed staging buffer and the durable op log;
        clears the DFTL map cache, per-LPN locks, in-flight program
        counters, un-persisted dirty-entry accounting and write-buffer
        slot bookkeeping.  The live mapping table is left for the
        recovery scan to rebuild.
        """
        self._map_cache.clear()
        self._lpn_locks.clear()
        self._inflight_per_block.clear()
        self._dirty_map_entries = 0
        self._buffer_held.clear()

    # ------------------------------------------------------------------
    # statistics helpers
    # ------------------------------------------------------------------
    def invalid_units(self) -> int:
        """Written-but-unreferenced units across all full blocks."""
        total = 0
        for block, written in self.allocator.written_units.items():
            total += written - self.mapping.valid_units(block)
        return total

    def drain(self) -> Generator[Any, Any, None]:
        """Wait until no page program is in flight (quiesce helper)."""
        while self._inflight_per_block:
            yield 10_000
