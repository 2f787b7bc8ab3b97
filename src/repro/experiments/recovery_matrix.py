"""RPO/RTO matrix: local restart vs snapshot+replay vs warm replica.

Not a paper figure — the robustness extension's headline table.  Three
recovery strategies are measured against the *same* seeded
kill-the-primary campaign (``repro.replication.campaign``):

* **spor_local** — the paper's own story: the node restarts in place
  and replays its durable local journal (:func:`timed_restart`, with
  the Check-In device pre-read assist when the mode supports it).
  RPO is zero — every acked write was journaled locally — but RTO
  carries the full journal replay.
* **snapshot_replay** — disaster recovery on a *fresh* node:
  ``fetch_checkpoint`` over the replication link, instant-validated
  install, then journal replay of the shipped suffix through the real
  apply path (:func:`~repro.replication.campaign.cold_restore`).
* **warm_replica** — promote-on-failure
  (:meth:`~repro.replication.replica.ReplicatedPair.promote`): the
  continuously-replaying replica drains the wire and serves.

All clocks are simulated, so the matrix is seed-deterministic; the
warm-vs-cold mean-RTO ratio is the number the gated
``rto_warm_replica_ns`` bench metric guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.common.rng import SeededRng
from repro.engine.recovery import timed_restart
from repro.experiments.base import QUICK, ExperimentScale
from repro.replication.campaign import (
    CampaignResult,
    campaign_config,
    kill_primary_campaign,
)
from repro.replication.replica import (
    DEFAULT_FAILOVER_DETECT_NS,
    ReplicatedPair,
)
from repro.replication.ship import LinkSpec
from repro.sim.process import spawn
from repro.system.system import KvSystem

MATRIX_SEED = 11
"""One fixed seed for the whole matrix — the campaign digest pins it."""

KILL_FRAC = 0.6
"""The dedicated spor_local wreck is cut at this fraction of the
reference run's merged-time instants: past the first checkpoints,
journal re-filled — the regime where replay cost is representative."""


@dataclass
class StrategyRow:
    """One recovery strategy's measured row of the matrix."""

    strategy: str
    rto_ns: float
    rpo_ops: float
    points: int
    detail: str


@dataclass
class RecoveryMatrixResult:
    """The full matrix: three strategies against one seeded campaign."""

    scale: str
    mode: str
    ops: int
    num_keys: int
    crash_points: int
    rows: List[StrategyRow]
    campaign_digest: str

    def row(self, strategy: str) -> StrategyRow:
        for row in self.rows:
            if row.strategy == strategy:
                return row
        raise KeyError(f"unknown strategy {strategy!r}; "
                       f"known: {[r.strategy for r in self.rows]}")

    def rto_ns(self, strategy: str) -> float:
        return self.row(strategy).rto_ns

    def rpo_ops(self, strategy: str) -> float:
        return self.row(strategy).rpo_ops

    def warm_speedup(self) -> float:
        """Snapshot+replay mean RTO over warm-promote mean RTO."""
        warm = self.rto_ns("warm_replica")
        return self.rto_ns("snapshot_replay") / warm if warm else 0.0

    def table(self) -> str:
        lines = [f"recovery matrix ({self.scale} scale, mode={self.mode}, "
                 f"{self.crash_points} crash points, {self.ops} ops, "
                 f"campaign digest {self.campaign_digest})",
                 f"{'strategy':>16} {'RTO ms':>9} {'RPO ops':>8} "
                 f"{'points':>6}  detail"]
        for row in self.rows:
            lines.append(f"{row.strategy:>16} {row.rto_ns / 1e6:>9.3f} "
                         f"{row.rpo_ops:>8.1f} {row.points:>6}  "
                         f"{row.detail}")
        lines.append(f"warm promote vs snapshot+replay RTO: "
                     f"{self.warm_speedup():.2f}x faster")
        return "\n".join(lines)


def _spor_writer(system: KvSystem, puts: List[int]
                 ) -> Generator[Any, Any, int]:
    """Re-drive the primary's put history into a solo node, trimming
    the journal at the same checkpoint quota the primary ran under —
    so the journal left behind matches what a local restart replays."""
    engine = system.engine
    quota = system.config.checkpoint_journal_quota
    for key in puts:
        if engine.journal_pressure() >= quota \
                and not engine.checkpoint_running:
            yield from engine.checkpoint()
        yield from engine.put(key)
    return len(puts)


def measure_spor_local(mode: str, seed: int, ops: int, num_keys: int,
                       link: Optional[LinkSpec] = None,
                       failover_detect_ns: int = DEFAULT_FAILOVER_DETECT_NS,
                       kill_frac: float = KILL_FRAC) -> StrategyRow:
    """Local-restart RTO for the same wreck the campaign kills.

    Runs one replicated pair to ``kill_frac`` of the reference run's
    instants, kills the primary, then rebuilds its put history on a solo
    node (same config, same checkpoint-quota trimming) and times
    :func:`timed_restart` there — the primary's own simulator is dead,
    so its journal replay is re-enacted on a live clock.  RTO =
    restart-decision lag + journal replay + first served read; RPO = 0
    (the local journal is durable across the power cut).
    """
    config = campaign_config(mode=mode, seed=seed, ops=ops,
                             num_keys=num_keys)
    pair = ReplicatedPair(config, link=link)
    pair.start()
    total_instants, _ = pair.run_workload()
    pair.stop()

    pair = ReplicatedPair(config, link=link)
    pair.start()
    kill_instant = max(1, int(total_instants * kill_frac))
    pair.run_workload(kill_instant=kill_instant)
    rng = SeededRng(seed).fork("recovery-matrix/spor")
    pair.kill_primary(rng)
    puts = [key for _offset, key, _version, _nbytes in pair.log.entries]
    pair.stop()

    solo = KvSystem(config)
    solo.load()
    solo.engine.start()
    writer = spawn(solo.sim, _spor_writer(solo, puts), name="spor-writer")
    solo.sim.run_until_triggered(writer, name="spor-writer")
    if not writer.ok:
        raise writer.exception

    restart_from = solo.sim.now
    restart = spawn(solo.sim, timed_restart(
        solo.engine, device_preread=(mode == "checkin")),
        name="spor-restart")
    solo.sim.run_until_triggered(restart, name="spor-restart")
    if not restart.ok:
        raise restart.exception
    timing = restart.value
    first_key = puts[-1] if puts else 0
    first = spawn(solo.sim, solo.engine.get(first_key),
                  name="spor-first-read")
    solo.sim.run_until_triggered(first, name="spor-first-read")
    if not first.ok:
        raise first.exception
    served_ns = solo.sim.now - restart_from
    solo.engine.shutdown()
    return StrategyRow(
        strategy="spor_local",
        rto_ns=float(failover_detect_ns + served_ns),
        rpo_ops=0.0, points=1,
        detail=f"replayed {timing.journal_sectors_read} journal sectors "
               f"in {timing.read_commands} commands "
               f"(preread={'on' if mode == 'checkin' else 'off'})")


def _campaign_rows(campaign: CampaignResult) -> List[StrategyRow]:
    warm = StrategyRow(
        strategy="warm_replica",
        rto_ns=campaign.mean_rto_ns("warm"),
        rpo_ops=campaign.mean_rpo_ops("warm"),
        points=len(campaign.points),
        detail="replica drains wire, promotes, serves")
    cold = StrategyRow(
        strategy="snapshot_replay",
        rto_ns=campaign.mean_rto_ns("snapshot"),
        rpo_ops=campaign.mean_rpo_ops("snapshot"),
        points=len(campaign.points),
        detail="fetch_checkpoint + install + shipped-suffix replay")
    return [warm, cold]


def run_recovery_matrix(scale: ExperimentScale = QUICK,
                        mode: str = "checkin",
                        link: Optional[LinkSpec] = None
                        ) -> RecoveryMatrixResult:
    """The RPO/RTO matrix at one scale (registered as
    ``recovery_matrix``)."""
    ops = max(160, min(640, scale.queries // 64))
    num_keys = max(64, min(256, scale.keys // 32))
    crash_points = max(6, min(16, scale.queries // 2_000))
    campaign = kill_primary_campaign(
        mode=mode, crash_points=crash_points, seed=MATRIX_SEED,
        ops=ops, num_keys=num_keys, link=link)
    if not campaign.ok:
        raise AssertionError(
            f"recovery matrix campaign violated the durability contract "
            f"at {len(campaign.failures())} points")
    spor = measure_spor_local(mode=mode, seed=MATRIX_SEED, ops=ops,
                              num_keys=num_keys, link=link)
    rows = [spor] + _campaign_rows(campaign)
    return RecoveryMatrixResult(
        scale=scale.name, mode=mode, ops=ops, num_keys=num_keys,
        crash_points=crash_points, rows=rows,
        campaign_digest=campaign.digest())


RTO_PROBE_POINTS = 6
"""Crash points in the compact bench probe — small enough to ride along
every ``repro bench``, seeded so the mean is exactly reproducible."""


def bench_rto_probe(mode: str = "checkin") -> float:
    """The gated ``rto_warm_replica_ns`` bench metric.

    Mean warm-promote RTO (ns) over a compact seeded kill-the-primary
    campaign.  Fully deterministic (simulated clocks), so
    ``benchmarks/regress.py`` holds it to a tolerance band; a regression
    here means failover suddenly takes longer to serve its first read.
    """
    campaign = kill_primary_campaign(
        mode=mode, crash_points=RTO_PROBE_POINTS, seed=MATRIX_SEED,
        ops=160, num_keys=64)
    if not campaign.ok:
        raise AssertionError("bench RTO probe campaign violated the "
                             "durability contract")
    return campaign.mean_rto_ns("warm")
