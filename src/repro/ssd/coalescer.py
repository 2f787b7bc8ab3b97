"""Device write coalescer: the DRAM write cache of the data-cache tier.

Sub-unit host writes land here first (capacitor-backed, so they are
durable on acknowledgement).  Sequential appends — the journal stream —
merge into the same mapping unit until it is fully covered, at which point
the unit flushes to the FTL as one full-unit write with no
read-modify-write.  This is why a conventional SSD absorbs a sequential
512-byte WAL gracefully even with 4 KiB page mapping, while the *random*
sub-unit writes of a conventional checkpoint still pay RMW: scattered
units rarely fill before they are evicted.

Reads and recovery must overlay this buffer over flash state; trims drop
overlapping entries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError


class CoalescedUnit:
    """One mapping unit being assembled in device DRAM.

    A plain ``__slots__`` class (not a dataclass): in checkin mode one is
    built per journal sector, so construction cost sits on the hot path.
    """

    __slots__ = ("lpn", "tags", "covered", "cause", "stream")

    def __init__(self, lpn: int, tags: List[Any], covered: List[bool],
                 cause: str, stream: str) -> None:
        self.lpn = lpn
        self.tags = tags
        self.covered = covered
        self.cause = cause
        self.stream = stream

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CoalescedUnit(lpn={self.lpn}, covered={self.covered}, "
                f"cause={self.cause!r}, stream={self.stream!r})")

    @property
    def full(self) -> bool:
        """True once every sector of the unit has been written."""
        return all(self.covered)

    @property
    def covered_runs(self) -> List[Tuple[int, int]]:
        """Covered (offset, length) runs, for partial evictions."""
        runs: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for index, flag in enumerate(self.covered):
            if flag and start is None:
                start = index
            elif not flag and start is not None:
                runs.append((start, index - start))
                start = None
        if start is not None:
            runs.append((start, len(self.covered) - start))
        return runs


class WriteCoalescer:
    """LRU buffer of partially written mapping units."""

    def __init__(self, sectors_per_unit: int, capacity_units: int) -> None:
        if sectors_per_unit < 1:
            raise ConfigError("sectors_per_unit must be >= 1")
        if capacity_units < 0:
            raise ConfigError("capacity must be >= 0")
        self.sectors_per_unit = sectors_per_unit
        self.capacity_units = capacity_units
        self.enabled = capacity_units > 0
        """False for a zero-capacity (write-through) configuration."""
        self._entries: "OrderedDict[int, CoalescedUnit]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def merge(self, lba: int, nsectors: int, tags: Optional[Sequence[Any]],
              cause: str, stream: str) -> List[CoalescedUnit]:
        """Absorb a write; returns units that became full (to flush now).

        The caller must write the returned units to the FTL and then
        :meth:`evict_pressure` to honour the capacity bound.
        """
        spu = self.sectors_per_unit
        ready: List[CoalescedUnit] = []
        first_lpn = lba // spu
        last_lpn = (lba + nsectors - 1) // spu
        for lpn in range(first_lpn, last_lpn + 1):
            entry = self._entries.get(lpn)
            if entry is None:
                entry = CoalescedUnit(lpn=lpn, tags=[None] * spu,
                                      covered=[False] * spu,
                                      cause=cause, stream=stream)
                self._entries[lpn] = entry
            else:
                entry.cause = cause
                entry.stream = stream
            self._entries.move_to_end(lpn)
            unit_first = lpn * spu
            start = max(lba, unit_first)
            end = min(lba + nsectors, unit_first + spu)
            for sector in range(start, end):
                offset = sector - unit_first
                entry.tags[offset] = tags[sector - lba] if tags is not None \
                    else None
                entry.covered[offset] = True
            if entry.full:
                ready.append(entry)
                del self._entries[lpn]
        return ready

    def evict_pressure(self) -> List[CoalescedUnit]:
        """Entries evicted to honour the capacity bound (LRU order)."""
        evicted: List[CoalescedUnit] = []
        while len(self._entries) > self.capacity_units:
            _lpn, entry = self._entries.popitem(last=False)
            evicted.append(entry)
        return evicted

    def drain_all(self) -> List[CoalescedUnit]:
        """Remove and return every buffered unit (FLUSH command)."""
        entries = list(self._entries.values())
        self._entries.clear()
        return entries

    def drain_range(self, lba: int, nsectors: int) -> List[CoalescedUnit]:
        """Remove and return units overlapping a sector range."""
        spu = self.sectors_per_unit
        first_lpn = lba // spu
        last_lpn = (lba + nsectors - 1) // spu
        drained: List[CoalescedUnit] = []
        for lpn in self._candidates(first_lpn, last_lpn):
            drained.append(self._entries.pop(lpn))
        return drained

    def discard_range(self, lba: int, nsectors: int) -> int:
        """Drop the trimmed sectors of overlapping units; returns units freed.

        Partially overlapping units lose only the trimmed sectors'
        ``covered`` flags and tags — keeping them would let
        :meth:`overlay` resurrect trimmed data into later reads.  An
        entry is removed once nothing of it remains covered.
        """
        spu = self.sectors_per_unit
        dropped = 0
        first_lpn = lba // spu
        last_lpn = (lba + nsectors - 1) // spu
        for lpn in self._candidates(first_lpn, last_lpn):
            entry = self._entries[lpn]
            unit_first = lpn * spu
            start = max(lba, unit_first)
            end = min(lba + nsectors, unit_first + spu)
            for sector in range(start, end):
                offset = sector - unit_first
                entry.covered[offset] = False
                entry.tags[offset] = None
            if not any(entry.covered):
                del self._entries[lpn]
                dropped += 1
        return dropped

    def _candidates(self, first_lpn: int, last_lpn: int) -> List[int]:
        if last_lpn - first_lpn > len(self._entries):
            return [lpn for lpn in self._entries
                    if first_lpn <= lpn <= last_lpn]
        return [lpn for lpn in range(first_lpn, last_lpn + 1)
                if lpn in self._entries]

    # ------------------------------------------------------------------
    def peek(self, lpn: int) -> Optional[CoalescedUnit]:
        """Buffered unit for ``lpn`` (no LRU side effects) or None."""
        return self._entries.get(lpn)

    def overlay(self, lba: int, nsectors: int, tags: List[Any]) -> List[Any]:
        """Patch a read result with buffered (newer) sector contents."""
        spu = self.sectors_per_unit
        for index in range(nsectors):
            sector = lba + index
            entry = self._entries.get(sector // spu)
            if entry is None:
                continue
            offset = sector % spu
            if entry.covered[offset]:
                tags[index] = entry.tags[offset]
        return tags

    def items(self) -> Iterator[Tuple[int, CoalescedUnit]]:
        """Iterate buffered units (recovery scan)."""
        return iter(list(self._entries.items()))
