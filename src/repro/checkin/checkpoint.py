"""The in-storage checkpoint processor — Algorithm 1 of the paper.

Given the CoW descriptors decoded from a checkpoint command, the processor
creates the checkpoint by, per descriptor:

* **remapping** when the journal log is aligned to the FTL mapping unit on
  both ends: the physical units holding the log are aliased to the
  data-area LPNs — zero flash operations;
* **copying** otherwise: the source sectors are read (once — a per-command
  buffer in controller memory de-duplicates reads of merged sectors) and
  the values are written to their target locations through the normal
  out-of-place write path, which charges any read-modify-write overheads
  to the checkpoint.

``allow_remap=False`` models the ISC-A/ISC-B configurations whose FTL was
not modified: everything takes the copy path.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.checkin.format import extract_from_span
from repro.common.units import SECTOR_SIZE
from repro.ftl.ftl import Ftl
from repro.sim.core import Simulator
from repro.sim.process import pooled
from repro.ssd.commands import CowEntry


class CheckpointProcessor:
    """Executes CoW descriptor batches against one FTL."""

    PACE_HEADROOM = 2.0
    """Copy-path throttle: internal copies are paced to ``1/headroom`` of
    the array's aggregate program bandwidth so concurrent host queries
    are not starved behind a burst of checkpoint programs (the firmware
    fairness the deallocator section implies)."""

    def __init__(self, sim: Simulator, ftl: Ftl, allow_remap: bool = True) -> None:
        self.sim = sim
        self.ftl = ftl
        self.allow_remap = allow_remap
        self.stats = ftl.stats
        self._pace_until = 0
        self.host_pressure = None
        """Optional callable -> bool: True when host commands are waiting.
        Copies are paced only under pressure; an otherwise idle device
        (e.g. a locked checkpoint) copies at full array bandwidth."""
        self.device_writer = None
        """Optional controller-provided write path (generator taking
        ``(lba, nsectors, tags, stream, cause)``) that routes copy-path
        writes through the device's DRAM coalescing buffer."""
        self.device_reader = None
        """Optional controller-provided read path that overlays the DRAM
        coalescing buffer, so buffered journal tails are visible."""

    def _pace_delay(self, units: int) -> int:
        """Token-bucket delay keeping copies at a fraction of drain rate."""
        if self.host_pressure is not None and not self.host_pressure():
            self._pace_until = self.sim.now
            return 0
        drain_per_unit = (self.ftl.array.timing.program_ns /
                          (self.ftl.units_per_page *
                           self.ftl.geometry.num_luns))
        cost = int(units * drain_per_unit * self.PACE_HEADROOM)
        start = max(self.sim.now, self._pace_until)
        self._pace_until = start + cost
        return max(0, self._pace_until - self.sim.now)

    # ------------------------------------------------------------------
    def is_remappable(self, entry: CowEntry) -> bool:
        """True when the descriptor can be satisfied by pure remapping.

        Requires whole-mapping-unit alignment of source and destination,
        a whole-unit length, no sub-sector offset, and a mapped source.
        """
        if not self.allow_remap:
            return False
        spu = self.ftl.sectors_per_unit
        if entry.src_offset != 0:
            return False
        if entry.length_bytes is not None and \
                entry.length_bytes != entry.nsectors * SECTOR_SIZE:
            return False
        if entry.read_span != entry.nsectors:
            return False
        if entry.src_lba % spu or entry.dst_lba % spu or entry.nsectors % spu:
            return False
        first = self.ftl.lpn_of_lba(entry.src_lba)
        units = entry.nsectors // spu
        return all(self.ftl.mapping.is_mapped(first + i) for i in range(units))

    # ------------------------------------------------------------------
    def process(self, entries: Tuple[CowEntry, ...]
                ) -> Generator[Any, Any, Tuple[int, int]]:
        """Create the checkpoint; returns ``(remapped_units, copied_units)``.

        Remaps are batched into one mapping-table pass; copies are grouped
        so consecutive reads and consecutive writes hit flash in streams
        (the command-decoding optimisation of §III-C).
        """
        remap_pairs: List[Tuple[int, int]] = []
        copy_entries: List[CowEntry] = []
        for entry in entries:
            if self.is_remappable(entry):
                spu = self.ftl.sectors_per_unit
                src_first = self.ftl.lpn_of_lba(entry.src_lba)
                dst_first = self.ftl.lpn_of_lba(entry.dst_lba)
                for i in range(entry.nsectors // spu):
                    remap_pairs.append((src_first + i, dst_first + i))
            else:
                copy_entries.append(entry)

        if remap_pairs:
            yield from self.ftl.remap(remap_pairs, cause="ckpt")
            self.stats.counter("isce.remapped_units").add(len(remap_pairs))

        copied_units = 0
        if copy_entries:
            copied_units = yield from self._copy_batch(copy_entries)
            self.stats.counter("isce.copied_units").add(copied_units)
        return len(remap_pairs), copied_units

    # ------------------------------------------------------------------
    def _copy_batch(self, entries: List[CowEntry]) -> Generator[Any, Any, int]:
        """Copy-path descriptors: read sources once, scatter to targets."""
        # Phase 1: read every distinct source sector (merged sectors are
        # shared by several descriptors; buffer them in controller DRAM).
        buffered: Dict[int, Any] = {}
        for entry in entries:
            for sector in range(entry.src_lba, entry.src_lba + entry.read_span):
                buffered.setdefault(sector, None)
        sectors = sorted(buffered)
        runs = _contiguous_runs(sectors)

        def read_run(run_start: int, run_len: int):
            if self.device_reader is not None:
                tags = yield from self.device_reader(run_start, run_len)
            else:
                tags = yield from self.ftl.read(run_start, run_len)
            for i in range(run_len):
                buffered[run_start + i] = tags[i]

        yield from pooled(self.sim, [read_run(start, length)
                                     for start, length in runs],
                          len(runs), "cow-read")

        # Phase 2: write every destination range through the normal path —
        # ascending target order so neighbouring records coalesce, with a
        # small worker pool so back-pressure waits overlap.
        copied_units = 0
        entries = sorted(entries, key=lambda e: e.dst_lba)

        def write_one(entry: CowEntry):
            if entry.src_offset == 0 and entry.length_bytes is None \
                    and entry.read_span == entry.nsectors:
                dst_tags = [buffered[entry.src_lba + i]
                            for i in range(entry.nsectors)]
            else:
                # Merged or packed value: extract it from its shared source
                # span and lay it at the start of the destination sector(s).
                span = [buffered[entry.src_lba + i]
                        for i in range(entry.read_span)]
                value_tag = extract_from_span(span, entry.src_offset)
                dst_tags = [value_tag] + [None] * (entry.nsectors - 1)
            if self.device_writer is not None:
                yield from self.device_writer(entry.dst_lba, entry.nsectors,
                                              dst_tags, "ckpt", "ckpt")
            else:
                yield from self.ftl.write(entry.dst_lba, entry.nsectors,
                                          tags=dst_tags, stream="ckpt",
                                          cause="ckpt")
            delay = self._pace_delay(len(self.ftl.lpn_span(entry.dst_lba,
                                                           entry.nsectors)))
            if delay:
                yield delay

        yield from pooled(self.sim, [write_one(entry) for entry in entries],
                          8, "cow-write")
        for entry in entries:
            copied_units += len(self.ftl.lpn_span(entry.dst_lba, entry.nsectors))
        return copied_units


def _contiguous_runs(sorted_sectors: List[int]) -> List[Tuple[int, int]]:
    """Collapse a sorted sector list into (start, length) runs."""
    runs: List[Tuple[int, int]] = []
    if not sorted_sectors:
        return runs
    start = previous = sorted_sectors[0]
    for sector in sorted_sectors[1:]:
        if sector == previous + 1:
            previous = sector
            continue
        runs.append((start, previous - start + 1))
        start = previous = sector
    runs.append((start, previous - start + 1))
    return runs
