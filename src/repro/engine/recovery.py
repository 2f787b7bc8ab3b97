"""Crash recovery: device-level SPOR and engine-level replay (§III-G).

Two recovery layers, mirroring the paper:

1. **Device (SPOR)** — after sudden power-off, the SSD rebuilds its
   mapping table from the per-page OOB records (target LPN + sequence
   number written at program time) plus its durable remap/trim operation
   log.  :func:`rebuild_mapping_from_oob` performs that scan and is
   verified against the live mapping in tests.  The capacitor-backed
   staging buffer is considered durable, as the paper assumes.

2. **Engine** — the data structure is restored from the last checkpoint
   (the data area) and the journal logs written after it are replayed:
   :func:`recover_store` scans every record home and both journal halves
   and keeps each key's highest version.

Both functions are *forensic*: they inspect durable state without
consuming simulated time, the way a recovery procedure would run at boot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.checkin.format import MergedPayload, PackedSector
from repro.common.errors import RecoveryError
from repro.engine.engine import StorageEngine
from repro.ftl.ftl import Ftl


def peek_sector_tags(device: Any, lba: int, nsectors: int) -> List[Any]:
    """Durable contents of a sector range, without simulated time.

    ``device`` is an :class:`~repro.ssd.ssd.Ssd` (preferred — overlays the
    capacitor-protected write-coalescing buffer) or a bare FTL.  Reads
    staged units and programmed flash pages; unmapped sectors read None.
    """
    ftl: Ftl = device.ftl if hasattr(device, "ftl") else device
    result: List[Any] = []
    for sector in range(lba, lba + nsectors):
        lpn = ftl.lpn_of_lba(sector)
        upa = ftl.mapping.lookup(lpn)
        if upa is None:
            result.append(None)
            continue
        unit_tags = ftl._staged_tags.get(upa)
        if unit_tags is None:
            page = ftl.mapping.page_of_unit(upa)
            data = ftl.array.page_data(page)
            unit_tags = data.get(ftl.mapping.unit_index(upa)) if data else None
        offset = sector - lpn * ftl.sectors_per_unit
        result.append(unit_tags[offset] if unit_tags else None)
    if hasattr(device, "controller"):
        device.controller.durable_overlay(lba, nsectors, result)
    return result


def rebuild_mapping_from_oob(ftl: Ftl) -> Dict[int, int]:
    """Reconstruct the L2P table from OOB records + the durable op log.

    Requires the FTL to have been built with ``track_op_log=True``.
    Events (writes from the OOB scan, remaps and trims from the op log)
    are replayed in global sequence order.
    """
    if ftl.op_log is None:
        raise RecoveryError(
            "mapping reconstruction needs FtlConfig.track_op_log=True")

    events: List[Tuple[int, str, int, int]] = []
    units_per_page = ftl.units_per_page

    def collect(ppa: int, oob: Any) -> None:
        if not oob:
            return
        for unit_index, unit_oob in enumerate(oob):
            if not unit_oob:
                continue
            upa = ppa * units_per_page + unit_index
            for lpn, seq in unit_oob:
                events.append((seq, "write", lpn, upa))

    for ppa, oob in ftl.array.scan_oob():
        collect(ppa, oob)
    # Staged units survive power loss behind the capacitor.
    for upa, unit_oob in ftl._staged_oob.items():
        if not unit_oob:
            continue
        for lpn, seq in unit_oob:
            events.append((seq, "write", lpn, upa))

    events.extend(ftl.op_log)
    events.sort(key=lambda event: event[0])

    mapping: Dict[int, int] = {}
    for _seq, op, a, b in events:
        if op == "write":
            mapping[a] = b
        elif op == "remap":
            if a in mapping:
                mapping[b] = mapping[a]
        elif op == "trim":
            mapping.pop(a, None)
        else:  # pragma: no cover - closed set
            raise RecoveryError(f"unknown durable op {op!r}")
    return mapping


def verify_device_recovery(ftl: Ftl) -> None:
    """Assert the OOB/op-log scan reproduces the live mapping exactly."""
    rebuilt = rebuild_mapping_from_oob(ftl)
    live = ftl.mapping.snapshot()
    if rebuilt != live:
        missing = {k: v for k, v in live.items() if rebuilt.get(k) != v}
        extra = {k: v for k, v in rebuilt.items() if live.get(k) != v}
        raise RecoveryError(
            f"SPOR mapping mismatch: {len(missing)} wrong/missing, "
            f"{len(extra)} spurious (examples: {list(missing.items())[:3]} "
            f"vs {list(extra.items())[:3]})")


def _tags_in_payload(sector_tag: Any) -> List[Any]:
    if sector_tag is None:
        return []
    if isinstance(sector_tag, (MergedPayload, PackedSector)):
        return [tag for tag in sector_tag.parts.values() if tag is not None]
    return [sector_tag]


@dataclass
class RecoveredStore:
    """The engine state reconstructed from durable storage."""

    versions: Dict[int, int] = field(default_factory=dict)
    from_checkpoint: Dict[int, int] = field(default_factory=dict)
    replayed_from_journal: Dict[int, int] = field(default_factory=dict)

    def version_of(self, key: int) -> int:
        """Recovered version of ``key`` (0 = only the loaded value)."""
        return self.versions.get(key, 0)


def recover_store(engine: StorageEngine) -> RecoveredStore:
    """Engine-level recovery: last checkpoint + journal replay.

    Scans every record's data-area home (the checkpointed state) and both
    journal halves (logs since the last checkpoints), keeping the highest
    version seen per key — the standard replay the paper's §III-G invokes.
    """
    device = engine.ssd
    recovered = RecoveredStore()

    for record in engine.kvmap.records():
        tags = peek_sector_tags(device, record.lba, record.nsectors)
        for tag in _tags_in_payload(tags[0] if tags else None):
            key, version = tag
            if key != record.key:
                raise RecoveryError(
                    f"data area corruption: record {record.key} home holds "
                    f"{tag}")
            recovered.from_checkpoint[key] = max(
                recovered.from_checkpoint.get(key, 0), version)

    journal_cfg = engine.journal.config
    journal_tags = peek_sector_tags(device, journal_cfg.lba_start,
                                    journal_cfg.total_sectors)
    for sector_tag in journal_tags:
        for tag in _tags_in_payload(sector_tag):
            if not isinstance(tag, tuple) or len(tag) != 2:
                continue
            key, version = tag
            recovered.replayed_from_journal[key] = max(
                recovered.replayed_from_journal.get(key, 0), version)

    keys = set(recovered.from_checkpoint) | set(recovered.replayed_from_journal)
    for key in keys:
        recovered.versions[key] = max(
            recovered.from_checkpoint.get(key, 0),
            recovered.replayed_from_journal.get(key, 0))
    return recovered


@dataclass
class RecoveryTiming:
    """Result of a timed restart (§III-G)."""

    duration_ns: int
    journal_sectors_read: int
    read_commands: int


def timed_restart(engine: StorageEngine,
                  device_preread: bool) -> "Generator[Any, Any, RecoveryTiming]":
    """Replay the journal after a restart, with simulated timing.

    ``device_preread=True`` models the Check-In SSD's recovery assist: the
    journal region is pre-read into the device buffer with large
    sequential commands, so the engine's replay is served from DRAM.
    ``False`` models a conventional engine reading each journal chunk with
    small individual commands.

    Returns the simulated restart duration — the basis of the paper's
    claim that pre-reading "can reduce the recovery time".
    """
    from repro.ssd.commands import Command, Op

    sim = engine.sim
    started = sim.now
    ftl = engine.ssd.ftl
    journal_cfg = engine.journal.config

    # Which journal sectors are durably mapped (committed logs)?
    mapped_runs = []
    run_start = None
    for sector in range(journal_cfg.lba_start,
                        journal_cfg.lba_start + journal_cfg.total_sectors):
        mapped = ftl.mapping.is_mapped(ftl.lpn_of_lba(sector))
        if mapped and run_start is None:
            run_start = sector
        elif not mapped and run_start is not None:
            mapped_runs.append((run_start, sector - run_start))
            run_start = None
    if run_start is not None:
        mapped_runs.append((run_start, journal_cfg.lba_start +
                            journal_cfg.total_sectors - run_start))

    chunk = 256 if device_preread else 8
    commands = 0
    sectors_read = 0
    from repro.sim.process import pooled

    pending = []
    for start, length in mapped_runs:
        offset = 0
        while offset < length:
            nsectors = min(chunk, length - offset)
            pending.append(engine.ssd.run(Command(
                op=Op.READ, lba=start + offset, nsectors=nsectors)))
            commands += 1
            sectors_read += nsectors
            offset += nsectors

    yield from pooled(sim, pending, 32 if device_preread else 4,
                      "recovery")
    return RecoveryTiming(duration_ns=sim.now - started,
                          journal_sectors_read=sectors_read,
                          read_commands=commands)


def check_durability(engine: StorageEngine,
                     acknowledged: Dict[int, int],
                     current_versions: Optional[Dict[int, int]] = None
                     ) -> RecoveredStore:
    """Assert no acknowledged update is lost and nothing is invented.

    ``acknowledged`` maps key → highest version whose commit was acked to
    a client before the crash.  Recovery must return at least that
    version for every key, and never more than the key's true current
    version.
    """
    recovered = recover_store(engine)
    for key, acked_version in acknowledged.items():
        got = recovered.version_of(key)
        if got < acked_version:
            raise RecoveryError(
                f"durability violation: key {key} acked v{acked_version}, "
                f"recovered v{got}")
    limit = current_versions or {
        record.key: record.version for record in engine.kvmap.records()}
    for key, version in recovered.versions.items():
        if version > limit.get(key, 0):
            raise RecoveryError(
                f"recovery invented data: key {key} recovered v{version}, "
                f"never written past v{limit.get(key, 0)}")
    return recovered
