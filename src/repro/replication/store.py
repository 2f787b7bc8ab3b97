"""Aurora-shaped ``CheckpointStore``: snapshot export / restore.

The store captures *epochs* — consistent key→version maps folded from a
prefix of the primary's :class:`~repro.replication.ship.ReplicationLog`
— and serializes them as validated full-snapshot frame streams.  The interface follows the Aurora
checkpoint-store shape the roadmap calls out:

* :meth:`checkpoint` — capture the current log prefix as a new epoch
  (the primary wires this to ``engine.on_checkpoint``, so an epoch is
  cut exactly when a Check-In checkpoint completes and the journal
  prefix it covers is durable in the data region);
* :meth:`create_snapshot` — full framed snapshot of an epoch;
* :meth:`fetch_checkpoint` — the newest retained epoch's snapshot;
* :meth:`apply_snapshot` — validate a stream (typed
  :class:`~repro.common.errors.SnapshotFrameError` on any damage) and
  instantly install it into a fresh engine, returning the log offset
  from which journal replay must resume.

Epoch capture and apply are forensic (zero simulated time) — the
*simulated* cost of a cold restore (link transfer + per-record install
+ journal-replay) is modeled by the recovery-matrix experiment, which
needs the sizes and offsets this module reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import CorruptFrameError, ReplicationError
from repro.engine.engine import StorageEngine
from repro.replication.frames import decode_stream, encode_stream
from repro.replication.ship import ReplicationLog

SNAPSHOT_KIND_FULL = "snapshot.full"

INSTALL_NS_PER_RECORD = 1_500
"""Modeled per-record cost of installing a snapshot record on restore
(mapping update + tag rewrite); used by the recovery-matrix RTO model."""


@dataclass
class Epoch:
    """One captured consistent point: key→version at a log offset."""

    epoch_id: int
    log_offset: int
    state: Dict[int, int] = field(default_factory=dict)

    @property
    def keys(self) -> int:
        return len(self.state)


@dataclass
class ApplyReport:
    """What :meth:`CheckpointStore.apply_snapshot` installed."""

    kind: str
    epoch_id: int
    log_offset: int
    """Replay must resume from this replication-log offset."""

    installed: int
    skipped: int
    stream_bytes: int


class CheckpointStore:
    """Captures, serializes and restores snapshot epochs."""

    def __init__(self, log: ReplicationLog, retain: int = 3) -> None:
        if retain < 1:
            raise ReplicationError("must retain at least one epoch")
        self.log = log
        self.retain = retain
        # Epoch 0 is the bootstrap: the freshly-loaded store (every key
        # at version 0) at log offset 0 — a legitimate consistent point,
        # so a restore is possible even before the first checkpoint.
        self.epochs: List[Epoch] = [Epoch(epoch_id=0, log_offset=0)]
        self._next_epoch_id = 1

    # -- capture -------------------------------------------------------
    def checkpoint(self) -> Epoch:
        """Fold the current log prefix into a new retained epoch."""
        cut = len(self.log)
        epoch = Epoch(epoch_id=self._next_epoch_id, log_offset=cut,
                      state=self.log.fold(cut))
        self._next_epoch_id += 1
        self.epochs.append(epoch)
        del self.epochs[:-self.retain]
        return epoch

    def epoch(self, epoch_id: Optional[int] = None) -> Epoch:
        """A retained epoch by id (default: newest)."""
        if not self.epochs:
            raise ReplicationError("no epoch captured yet")
        if epoch_id is None:
            return self.epochs[-1]
        for epoch in self.epochs:
            if epoch.epoch_id == epoch_id:
                return epoch
        raise ReplicationError(f"epoch {epoch_id} is not retained")

    # -- serialize -----------------------------------------------------
    def create_snapshot(self, epoch_id: Optional[int] = None) -> bytes:
        """Full framed snapshot of an epoch (default: newest)."""
        epoch = self.epoch(epoch_id)
        records = [[key, epoch.state[key]] for key in sorted(epoch.state)]
        return encode_stream({"kind": SNAPSHOT_KIND_FULL,
                              "epoch": epoch.epoch_id,
                              "log_offset": epoch.log_offset}, records)

    def fetch_checkpoint(self) -> bytes:
        """The newest retained epoch, serialized (Aurora ``fetch``)."""
        return self.create_snapshot()

    # -- restore -------------------------------------------------------
    @staticmethod
    def apply_snapshot(data: bytes, engine: StorageEngine) -> ApplyReport:
        """Validate ``data`` and install it into ``engine`` instantly.

        Raises a typed :class:`SnapshotFrameError` subclass on any
        truncation or corruption *before touching the engine* — the
        whole stream is decoded and verified first, so a refused
        snapshot leaves the engine byte-identical to before the call.
        """
        meta, records = decode_stream(data)
        kind = meta.get("kind")
        if kind != SNAPSHOT_KIND_FULL:
            raise CorruptFrameError(f"not a snapshot stream: kind={kind!r}")
        installed = 0
        skipped = 0
        for key, version in records:
            record = engine.kvmap.get(key)
            if version <= record.version:
                skipped += 1
                continue
            record.version = version
            engine.ssd.ftl.preload(record.lba, record.nsectors,
                                   [record.tag] * record.nsectors,
                                   stream="data")
            installed += 1
        return ApplyReport(kind=kind, epoch_id=meta.get("epoch", 0),
                           log_offset=meta.get("log_offset", 0),
                           installed=installed, skipped=skipped,
                           stream_bytes=len(data))
