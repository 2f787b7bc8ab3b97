"""Key→LBA mapping layer of the storage engine.

The engine's key-value mapping layer (Figure 5) owns the data area: each
key gets a fixed, sector-aligned home sized to its *stored* value size.
In the example of §II-B this is the translation that turns
``PUT(key, value)`` into ``PUT(target LBA, value)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.common.errors import EngineError, KeyNotFoundError
from repro.common.units import SECTOR_SIZE, ceil_div
from repro.engine.records import Record


class KeyValueMap:
    """Sequential data-area allocator and key directory."""

    def __init__(self, data_lba_start: int, data_sectors: int,
                 align_sectors: int = 1) -> None:
        """``align_sectors`` forces every record onto a mapping-unit
        boundary (Check-In sizes it to the FTL unit so checkpointed logs
        can be remapped onto record homes); conventional engines pack at
        sector granularity (align 1), which is exactly the misalignment
        the paper blames for read-modify-write amplification."""
        if data_lba_start < 0 or data_sectors < 1:
            raise EngineError("invalid data region")
        if align_sectors < 1:
            raise EngineError("align_sectors must be >= 1")
        if data_lba_start % align_sectors:
            raise EngineError("data region start must honour the alignment")
        self.data_lba_start = data_lba_start
        self.data_sectors = data_sectors
        self.align_sectors = align_sectors
        self._records: Dict[int, Record] = {}
        self._next_lba = data_lba_start

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: int) -> bool:
        return key in self._records

    def get(self, key: int) -> Record:
        """The record for ``key``; raises KeyNotFoundError when absent."""
        record = self._records.get(key)
        if record is None:
            raise KeyNotFoundError(f"key {key} was never inserted")
        return record

    def records(self) -> Iterator[Record]:
        """All records in insertion order."""
        return iter(self._records.values())

    @property
    def used_sectors(self) -> int:
        """Sectors allocated so far."""
        return self._next_lba - self.data_lba_start

    # -- mutations ----------------------------------------------------------
    def insert(self, key: int, size_bytes: int,
               stored_bytes: Optional[int] = None,
               align_override: Optional[int] = None) -> Record:
        """Allocate a home for a new key.

        ``stored_bytes`` is the on-device footprint when the engine formats
        values (compression/alignment); defaults to the raw size.
        ``align_override`` replaces the map's default alignment for this
        record — Check-In only unit-aligns records whose formatted size is
        a whole number of units (the remap candidates); sub-unit records
        pack at sector granularity and take the copy path anyway.
        """
        if key in self._records:
            raise EngineError(f"key {key} already exists")
        align = align_override if align_override is not None \
            else self.align_sectors
        if align < 1:
            raise EngineError("alignment must be >= 1")
        footprint = stored_bytes if stored_bytes is not None else size_bytes
        nsectors = ceil_div(max(footprint, 1), SECTOR_SIZE)
        if nsectors % align:
            nsectors += align - (nsectors % align)
        lba = self._next_lba
        if lba % align:
            lba += align - (lba % align)
        if lba + nsectors > self.data_lba_start + self.data_sectors:
            raise EngineError(
                f"data region full: need {nsectors} sectors at {lba}, "
                f"region ends at {self.data_lba_start + self.data_sectors}")
        record = Record(key=key, size_bytes=size_bytes, lba=lba,
                        nsectors=nsectors)
        self._next_lba = lba + nsectors
        self._records[key] = record
        return record

    def bump_version(self, key: int) -> int:
        """Advance ``key``'s version for a new update; returns it."""
        record = self.get(key)
        record.version += 1
        return record.version
