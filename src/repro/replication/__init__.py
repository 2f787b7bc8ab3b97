"""Snapshot export/restore and primary→replica journal shipping.

Layered bottom-up:

* :mod:`~repro.replication.frames` — the validated frame codec every
  byte stream (snapshots, shipped batches) travels as;
* :mod:`~repro.replication.ship` — the primary's append-only
  :class:`ReplicationLog` (source of truth), the simulated
  :class:`LinkSpec` and the :class:`JournalShipper`;
* :mod:`~repro.replication.store` — the Aurora-shaped
  :class:`CheckpointStore` (``checkpoint`` / ``create_snapshot`` /
  ``fetch_checkpoint`` / ``apply_snapshot``);
* :mod:`~repro.replication.replica` — the co-simulated
  :class:`ReplicatedPair` with its warm :class:`ReplicaApplier` and
  promote-on-failure;
* :mod:`~repro.replication.campaign` — the seeded kill-the-primary
  campaign comparing warm promote vs snapshot+replay, run on the fault
  harness's campaign loop (its :class:`CampaignResult` is the shared
  one from :mod:`repro.fault.harness`).
"""

from repro.fault.harness import CampaignResult
from repro.replication.campaign import (
    CampaignPoint,
    ColdRestoreReport,
    campaign_config,
    cold_restore,
    kill_primary_campaign,
)
from repro.replication.frames import (
    decode_frame,
    decode_stream,
    encode_frame,
    encode_stream,
    flip_bit,
)
from repro.replication.replica import (
    DEFAULT_FAILOVER_DETECT_NS,
    PromoteReport,
    ReplicaApplier,
    ReplicatedPair,
    state_digest,
)
from repro.replication.ship import JournalShipper, LinkSpec, ReplicationLog
from repro.replication.store import ApplyReport, CheckpointStore, Epoch

__all__ = [
    "ApplyReport",
    "CampaignPoint",
    "CampaignResult",
    "CheckpointStore",
    "ColdRestoreReport",
    "DEFAULT_FAILOVER_DETECT_NS",
    "Epoch",
    "JournalShipper",
    "LinkSpec",
    "PromoteReport",
    "ReplicaApplier",
    "ReplicatedPair",
    "ReplicationLog",
    "campaign_config",
    "cold_restore",
    "decode_frame",
    "decode_stream",
    "encode_frame",
    "encode_stream",
    "flip_bit",
    "kill_primary_campaign",
    "state_digest",
]
