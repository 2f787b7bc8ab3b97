"""Run-level metric collection.

One :class:`RunMetrics` instance watches a measured phase: it snapshots
the device counters at start and end (so load-phase traffic is excluded),
collects per-query latencies split by operation kind and by
checkpoint-overlap, and derives every quantity the paper's figures plot —
I/O amplification, flash-operation amplification, redundant writes, GC
counts, lifetime (Equation 1), throughput and tail latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.units import SEC
from repro.sim.core import Simulator
from repro.sim.stats import LatencySample, StatRegistry
from repro.telemetry import names
from repro.telemetry.names import safe_ratio
from repro.workload.ycsb import Operation, OpKind

__all__ = ["LifetimeEstimate", "RunMetrics", "safe_ratio"]
# safe_ratio is re-exported here as the canonical import site for metric
# consumers (experiments, analysis, trace); it lives in the leaf module
# repro.telemetry.names so the telemetry package can use it too.


@dataclass
class LifetimeEstimate:
    """Equation (1): Lifetime_block = PEC_max * T_op / BEC."""

    max_pe_cycles: int
    operation_time_ns: int
    block_erase_count: int

    @property
    def relative_lifetime(self) -> float:
        """Lifetime in units of T_op; infinite when nothing was erased."""
        return safe_ratio(self.max_pe_cycles * self.operation_time_ns,
                          self.block_erase_count, default=float("inf"))


class RunMetrics:
    """Measurements for one run's measured phase."""

    def __init__(self, sim: Simulator, stats: StatRegistry) -> None:
        self.sim = sim
        self.stats = stats
        self.latency_all = LatencySample("all")
        self.latency_read = LatencySample("read")
        self.latency_update = LatencySample("update")
        self.latency_read_ckpt = LatencySample("read-during-ckpt")
        self.latency_update_ckpt = LatencySample("update-during-ckpt")
        self.latency_read_normal = LatencySample("read-normal")
        self.latency_update_normal = LatencySample("update-normal")
        self.operations = 0
        self._start_ns: Optional[int] = None
        self._end_ns: Optional[int] = None
        self._start_counts: Dict[str, int] = {}
        self._start_bytes: Dict[str, int] = {}
        self._end_counts: Dict[str, int] = {}
        self._end_bytes: Dict[str, int] = {}
        self.erase_min = 0.0
        self.erase_max = 0.0
        self.erase_mean = 0.0
        self.bad_blocks = 0
        self.device_degraded = False
        self.degraded_reason = ""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_measurement(self) -> None:
        """Snapshot counters; everything before this is warm-up/load."""
        self._start_ns = self.sim.now
        self._start_counts = self.stats.snapshot()
        self._start_bytes = self.stats.snapshot_bytes()

    def finish_measurement(self) -> None:
        """Close the measured phase."""
        self._end_ns = self.sim.now
        self._end_counts = self.stats.snapshot()
        self._end_bytes = self.stats.snapshot_bytes()

    def capture_device_state(self, ssd: object) -> None:
        """Record end-of-run device health: wear spread, grown-bad blocks
        and whether the device (or its FTL) dropped to degraded mode."""
        wear = ssd.array.wear_stats()
        self.erase_min = wear["min"]
        self.erase_max = wear["max"]
        self.erase_mean = wear["mean"]
        self.bad_blocks = len(ssd.ftl.grown_bad)
        self.device_degraded = bool(ssd.ftl.read_only)
        self.degraded_reason = ssd.ftl.degraded_reason

    def record(self, operation: Operation, latency_ns: int,
               during_checkpoint: bool) -> None:
        """Account one completed client operation."""
        self.operations += 1
        self.latency_all.record(latency_ns)
        is_read = operation.kind is OpKind.READ
        if is_read:
            self.latency_read.record(latency_ns)
            (self.latency_read_ckpt if during_checkpoint
             else self.latency_read_normal).record(latency_ns)
        else:
            self.latency_update.record(latency_ns)
            (self.latency_update_ckpt if during_checkpoint
             else self.latency_update_normal).record(latency_ns)

    # ------------------------------------------------------------------
    # raw deltas
    # ------------------------------------------------------------------
    def delta(self, counter: str) -> int:
        """Measured-phase increase of a counter's count."""
        end = self._end_counts if self._end_counts else self.stats.snapshot()
        return end.get(counter, 0) - self._start_counts.get(counter, 0)

    def delta_bytes(self, counter: str) -> int:
        """Measured-phase increase of a counter's byte volume."""
        end = self._end_bytes if self._end_bytes else self.stats.snapshot_bytes()
        return end.get(counter, 0) - self._start_bytes.get(counter, 0)

    # ------------------------------------------------------------------
    # derived quantities (one per paper metric)
    # ------------------------------------------------------------------
    @property
    def duration_ns(self) -> int:
        """Measured-phase length."""
        if self._start_ns is None:
            return 0
        end = self._end_ns if self._end_ns is not None else self.sim.now
        return end - self._start_ns

    def throughput_qps(self) -> float:
        """Operations per simulated second."""
        if self.duration_ns <= 0:
            return 0.0
        return self.operations * SEC / self.duration_ns

    def write_query_bytes(self) -> int:
        """Payload bytes carried by update queries (fig 3a denominator)."""
        return self.delta_bytes(names.QUERY_UPDATE)

    def host_io_bytes(self) -> int:
        """All host interface traffic: reads + writes, any cause."""
        return (self.delta_bytes(names.HOST_READ_CMDS) +
                self.delta_bytes(names.HOST_WRITE_CMDS))

    def io_amplification(self) -> float:
        """Host I/O bytes over write-query bytes (fig 3a, left group)."""
        return safe_ratio(self.host_io_bytes(), self.write_query_bytes())

    def flash_bytes(self) -> int:
        """Flash bytes moved (reads + programs)."""
        return (self.delta_bytes(names.FLASH_READ) +
                self.delta_bytes(names.FLASH_PROGRAM))

    def flash_amplification(self) -> float:
        """Flash bytes over write-query bytes (fig 3a, right group)."""
        return safe_ratio(self.flash_bytes(), self.write_query_bytes())

    def redundant_write_units(self) -> int:
        """Checkpoint-induced duplicate writes, in mapping units (fig 8a).

        Counts every unit programmed because of checkpointing: device-side
        CoW copies (incl. their read-modify-write inflation), baseline's
        host rewrite of the data area, and checkpoint metadata.
        """
        return (self.delta(names.FTL_UNITS_WRITE_CKPT) +
                self.delta(names.FTL_UNITS_WRITE_CKPT_META))

    def redundant_write_bytes(self) -> int:
        """Checkpoint-induced duplicate write volume in bytes."""
        return (self.delta_bytes(names.FTL_UNITS_WRITE_CKPT) +
                self.delta_bytes(names.FTL_UNITS_WRITE_CKPT_META))

    def remapped_units(self) -> int:
        """Units checkpointed by pure remapping (zero-copy)."""
        return self.delta(names.ISCE_REMAPPED_UNITS)

    def gc_invocations(self) -> int:
        """Garbage-collection victim passes (fig 8b)."""
        return self.delta(names.GC_INVOCATIONS)

    def erase_count(self) -> int:
        """Block erases in the measured phase."""
        return self.delta(names.FLASH_ERASE)

    def gc_migrated_units(self) -> int:
        """Valid units GC had to rewrite."""
        return self.delta(names.GC_MIGRATED_UNITS)

    def waf(self) -> float:
        """Write amplification: flash program bytes / host write bytes."""
        return safe_ratio(self.delta_bytes(names.FLASH_PROGRAM),
                          self.delta_bytes(names.HOST_WRITE_CMDS))

    def lifetime(self, max_pe_cycles: int) -> LifetimeEstimate:
        """Equation (1) over the measured phase."""
        return LifetimeEstimate(max_pe_cycles=max_pe_cycles,
                                operation_time_ns=self.duration_ns,
                                block_erase_count=self.erase_count())

    def journal_padding_bytes(self) -> int:
        """Alignment/packing waste written to the journal (fig 13b)."""
        return self.delta_bytes(names.JOURNAL_PADDING)

    def journal_stored_bytes(self) -> int:
        """Total journal footprint written (fig 13b numerator)."""
        return self.delta_bytes(names.JOURNAL_TRANSACTIONS)

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers (for reports/benches)."""
        tails = self.latency_all.p(99.0, 99.9, 99.99)  # one sort, all tails
        return {
            "operations": float(self.operations),
            "duration_ms": self.duration_ns / 1e6,
            "throughput_qps": self.throughput_qps(),
            "latency_mean_us": self.latency_all.mean() / 1e3,
            "latency_p99_us": tails[99.0] / 1e3,
            "latency_p999_us": tails[99.9] / 1e3,
            "latency_p9999_us": tails[99.99] / 1e3,
            "io_amplification": self.io_amplification(),
            "flash_amplification": self.flash_amplification(),
            "redundant_units": float(self.redundant_write_units()),
            "remapped_units": float(self.remapped_units()),
            "gc_invocations": float(self.gc_invocations()),
            "erases": float(self.erase_count()),
            "waf": self.waf(),
            "erase_min": self.erase_min,
            "erase_max": self.erase_max,
            "erase_mean": self.erase_mean,
            "bad_blocks": float(self.bad_blocks),
            "degraded": 1.0 if self.device_degraded else 0.0,
            "media_program_fails": float(self.delta(names.MEDIA_PROGRAM_FAIL)),
            "media_erase_fails": float(self.delta(names.MEDIA_ERASE_FAIL)),
            "media_read_retries": float(self.delta(names.MEDIA_READ_RETRY)),
            "media_uecc": float(self.delta(names.MEDIA_READ_UECC)),
            "media_relocations": float(self.delta(names.MEDIA_RELOCATIONS)),
            "cmd_media_retries": float(self.delta(names.CMD_MEDIA_RETRIES)),
        }
