"""Kill-the-primary campaign: seeded crash points × recovery strategies.

Runs on the fault harness's campaign loop
(:func:`~repro.fault.harness.run_campaign`): a reference run learns
the replicated workload's merged-time instant count ``T``, then each
seeded point replays the identical workload on a fresh primary+replica
pair, power-cuts the primary once instant ``k ∈ [1, T]`` has fully
elapsed, and recovers by *both* strategies from the same wreck:

* **warm** — :meth:`~repro.replication.replica.ReplicatedPair.promote`:
  the already-running replica drains the wire and serves;
* **snapshot** (cold) — :func:`cold_restore`: a fresh node fetches the
  newest exported snapshot over the link, installs it, replays the
  shipped journal suffix through the real apply path, then serves.

Both must satisfy the durability contract at every point: zero
acked-write loss (state ≥ the log folded to the acked offset) and exact
digest equality at the restored offset.  The campaign digest makes the
whole thing reproducible: same seed → same kill instants → same digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.common.errors import ReplicationError
from repro.common.rng import SeededRng
from repro.fault.harness import CampaignResult, run_campaign
from repro.replication.replica import (
    DEFAULT_FAILOVER_DETECT_NS,
    ReplicatedPair,
    read_back,
    state_digest,
)
from repro.replication.ship import LinkSpec
from repro.replication.store import INSTALL_NS_PER_RECORD, CheckpointStore
from repro.sim.process import spawn
from repro.system.config import SystemConfig, tiny_config
from repro.system.system import KvSystem

CAMPAIGN_STRATEGIES = ("warm", "snapshot")


def campaign_config(mode: str = "checkin", seed: int = 7, ops: int = 160,
                    num_keys: int = 64, **overrides: Any) -> SystemConfig:
    """The tiny replicated workload the campaign replays per point."""
    return tiny_config(mode=mode, seed=seed, num_keys=num_keys,
                       total_queries=ops, track_op_log=True,
                       snapshot_metadata=True, **overrides)


@dataclass
class ColdRestoreReport:
    """One snapshot+replay restore, measured on a fresh node's clock."""

    rto_ns: int
    """Kill → first served read on the cold node (its clock starts at
    the kill instant)."""

    rpo_ops: int
    snapshot_epoch: int
    snapshot_offset: int
    stream_bytes: int
    installed: int
    replayed_ops: int
    restored_offset: int
    acked_offset: int
    digest: str
    expected_digest: str
    verified_reads: int

    @property
    def contract_ok(self) -> bool:
        """No acked write lost; state matches the log fold exactly."""
        return (self.restored_offset >= self.acked_offset
                and self.digest == self.expected_digest)


@dataclass
class CampaignPoint:
    """One crash point recovered by every requested strategy."""

    index: int
    crash_step: int
    kill_ns: int
    reports: Dict[str, Any] = field(default_factory=dict)
    """Strategy name (``warm`` / ``snapshot``) to its
    :class:`~repro.replication.replica.PromoteReport` or
    :class:`ColdRestoreReport`."""

    @property
    def label(self) -> str:
        """Where this point sits in its campaign (failure reports)."""
        return f"point {self.index} (instant {self.crash_step})"

    @property
    def digest_line(self) -> str:
        """This point's contribution to :meth:`CampaignResult.digest`."""
        digests = [self.reports[strategy].digest
                   if strategy in self.reports else "-"
                   for strategy in CAMPAIGN_STRATEGIES]
        return ":".join([str(self.crash_step)] + digests)

    def problems(self) -> List[str]:
        """The strategies that broke the durability contract."""
        return [f"{strategy} recovery violated the durability contract "
                f"(acked={report.acked_offset}, digest {report.digest} != "
                f"{report.expected_digest})"
                for strategy, report in self.reports.items()
                if not report.contract_ok]

    @property
    def ok(self) -> bool:
        return not self.problems()


def _fresh_standby(config: SystemConfig) -> KvSystem:
    system = KvSystem(replace(config, telemetry=None, trace=False,
                              blame=False, arrivals=None))
    system.load()
    system.engine.start()
    return system


def _replay_entries(system: KvSystem, entries: List[Tuple[int, int, int, int]]
                    ) -> Generator[Any, Any, int]:
    """Apply a log slice through the real journal path, checkpointing
    whenever the quota fills so the journal never wedges mid-replay."""
    applied = 0
    engine = system.engine
    quota = system.config.checkpoint_journal_quota
    for _offset, key, version, _nbytes in entries:
        if engine.journal_pressure() >= quota \
                and not engine.checkpoint_running:
            yield from engine.checkpoint()
        yield from engine.apply_replicated(key, version)
        applied += 1
    return applied


def cold_restore(pair: ReplicatedPair,
                 failover_detect_ns: int = DEFAULT_FAILOVER_DETECT_NS
                 ) -> ColdRestoreReport:
    """applySnapshot + journal-replay on a fresh node; measure RTO/RPO.

    The cold node's clock starts at the kill instant.  It pays, in
    order: failover detection, snapshot fetch over the pair's link
    (latency + serialization of the framed stream), per-record install,
    then journal replay of the shipped suffix — ``(snapshot_offset,
    acked_offset]`` — through the real ``apply_replicated`` path, and
    finally the first served read.  Acked-but-never-exported ops past
    both offsets are this strategy's RPO.
    """
    if pair._t_kill is None:
        raise ReplicationError("cold_restore() requires kill_primary() first")
    data = pair.store.fetch_checkpoint()
    acked = pair.shipper.acked_offset
    cold = _fresh_standby(pair.config)
    fetch_ns = (failover_detect_ns + pair.link.latency_ns
                + pair.link.transfer_ns(len(data)))
    cold.sim.run(until=cold.sim.now + fetch_ns)
    apply_report = CheckpointStore.apply_snapshot(data, cold.engine)
    install_ns = apply_report.installed * INSTALL_NS_PER_RECORD
    if install_ns:
        cold.sim.run(until=cold.sim.now + install_ns)
    entries = pair.log.entries[apply_report.log_offset:acked]
    replay = spawn(cold.sim, _replay_entries(cold, entries),
                   name="cold-replay")
    cold.sim.run_until_triggered(replay, name="cold-replay")
    if not replay.ok:
        raise replay.exception
    restored_to = max(apply_report.log_offset, acked)
    first_key = pair.log.entries[restored_to - 1][1] if restored_to > 0 \
        else next(record.key for record in cold.engine.kvmap.records())
    first = spawn(cold.sim, cold.engine.get(first_key),
                  name="cold-first-read")
    cold.sim.run_until_triggered(first, name="cold-first-read")
    if not first.ok:
        raise first.exception
    rto_ns = cold.sim.now
    expected = {record.key: 0 for record in cold.engine.kvmap.records()}
    expected.update(pair.log.fold(restored_to))
    observed = {record.key: record.version
                for record in cold.engine.kvmap.records()}
    reads_done = read_back(cold, pair.log.fold(acked), "cold")
    cold.engine.shutdown()
    return ColdRestoreReport(
        rto_ns=rto_ns, rpo_ops=len(pair.log) - restored_to,
        snapshot_epoch=apply_report.epoch_id,
        snapshot_offset=apply_report.log_offset,
        stream_bytes=apply_report.stream_bytes,
        installed=apply_report.installed,
        replayed_ops=replay.value, restored_offset=restored_to,
        acked_offset=acked, digest=state_digest(observed),
        expected_digest=state_digest(expected), verified_reads=reads_done)


def kill_primary_campaign(mode: str = "checkin", crash_points: int = 50,
                          seed: int = 7, ops: int = 160, num_keys: int = 64,
                          link: Optional[LinkSpec] = None,
                          strategies: Tuple[str, ...] = CAMPAIGN_STRATEGIES,
                          failover_detect_ns: int =
                          DEFAULT_FAILOVER_DETECT_NS,
                          **config_overrides: Any) -> CampaignResult:
    """Sweep seeded primary kills; recover each by every strategy.

    Raises :class:`ReplicationError` on the first contract violation so
    a lost acked write fails loudly; a clean return means every point's
    ``ok`` holds.  Inspect :meth:`CampaignResult.rto_speedup` for the
    warm-vs-cold RTO ratio.
    """
    unknown = set(strategies) - set(CAMPAIGN_STRATEGIES)
    if unknown:
        raise ReplicationError(f"unknown strategies: {sorted(unknown)}")
    config = campaign_config(mode=mode, seed=seed, ops=ops,
                             num_keys=num_keys, **config_overrides)

    def reference() -> int:
        """The replicated workload's merged-time instant count."""
        pair = ReplicatedPair(config, link=link)
        pair.start()
        instants, _finished = pair.run_workload()
        pair.stop()
        return instants

    def run_point(index: int, crash_step: int,
                  rng: SeededRng) -> CampaignPoint:
        pair = ReplicatedPair(config, link=link)
        pair.start()
        pair.run_workload(kill_instant=crash_step)
        pair.kill_primary(rng.fork("tear"))
        point = CampaignPoint(index=index, crash_step=crash_step,
                              kill_ns=pair.primary.sim.now)
        if "warm" in strategies:
            point.reports["warm"] = pair.promote(
                failover_detect_ns=failover_detect_ns)
        if "snapshot" in strategies:
            point.reports["snapshot"] = cold_restore(
                pair, failover_detect_ns=failover_detect_ns)
        if not point.ok:
            raise ReplicationError(f"{point.label}: {point.problems()[0]}")
        return point

    return run_campaign(mode, seed, crash_points, f"repl/{mode}",
                        reference, run_point)
