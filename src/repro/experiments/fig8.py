"""Figure 8 — write amplification and flash lifetime.

(a) redundant writes versus checkpoint interval, all five configurations;
(b) GC invocations versus write-query count, plus the Equation (1)
    lifetime estimate (Check-In extends lifetime 3.86x over baseline,
    1.81x over ISC-C in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.compare import reduction_pct
from repro.analysis.tables import format_table
from repro.common.units import MIB, MS
from repro.experiments import expectations
from repro.experiments.base import ALL_MODES, QUICK, ExperimentScale, paper_config
from repro.system.metrics import safe_ratio
from repro.system.system import run_config

GC_MODES = ("baseline", "isc_a", "isc_b", "isc_c", "checkin")


@dataclass
class Fig8aResult:
    """Redundant write bytes per (interval, config)."""

    intervals_ms: List[int] = field(default_factory=list)
    redundant_mib: Dict[str, List[float]] = field(default_factory=dict)

    def table(self) -> str:
        """Render the figure's rows as an ASCII table."""
        headers = ["interval_ms"] + list(self.redundant_mib)
        rows = []
        for index, interval in enumerate(self.intervals_ms):
            rows.append([interval] + [self.redundant_mib[mode][index]
                                      for mode in self.redundant_mib])
        return format_table(headers, rows,
                            title="Figure 8(a): redundant writes (MiB) "
                                  "vs checkpoint interval")

    def mean_redundant(self, mode: str) -> float:
        """Mean redundant MiB across the interval sweep."""
        series = self.redundant_mib[mode]
        return safe_ratio(sum(series), len(series))

    def checkin_vs_baseline_pct(self) -> float:
        """Check-In's redundant-write reduction vs the baseline (%)."""
        return reduction_pct(self.mean_redundant("baseline"),
                             self.mean_redundant("checkin"))

    def checkin_vs_iscc_pct(self) -> float:
        """Check-In's redundant-write reduction vs ISC-C (%)."""
        return reduction_pct(self.mean_redundant("isc_c"),
                             self.mean_redundant("checkin"))


def run_fig8a(scale: ExperimentScale = QUICK,
              intervals_ms: Sequence[int] = (20, 40, 60, 120)) -> Fig8aResult:
    """Sweep the checkpoint interval for every configuration."""
    result = Fig8aResult(intervals_ms=list(intervals_ms))
    for mode in ALL_MODES:
        series: List[float] = []
        for interval_ms in intervals_ms:
            config = paper_config(
                mode, scale, workload="WO",
                checkpoint_interval_ns=interval_ms * MS,
                checkpoint_journal_quota=24 * MIB,
                total_queries=scale.scaled_queries(0.8))
            metrics = run_config(config).metrics
            series.append(metrics.redundant_write_bytes() / MIB)
        result.redundant_mib[mode] = series
    return result


@dataclass
class Fig8bResult:
    """GC invocations and erases per (write-query count, config)."""

    query_counts: List[int] = field(default_factory=list)
    gc_counts: Dict[str, List[int]] = field(default_factory=dict)
    erase_counts: Dict[str, List[int]] = field(default_factory=dict)
    operation_time_ns: Dict[str, int] = field(default_factory=dict)
    max_pe_cycles: int = 3000

    def table(self) -> str:
        """Render the figure's rows as an ASCII table."""
        headers = ["write_queries"] + [f"{m}_gc" for m in self.gc_counts]
        rows = []
        for index, count in enumerate(self.query_counts):
            rows.append([count] + [self.gc_counts[mode][index]
                                   for mode in self.gc_counts])
        return format_table(headers, rows,
                            title="Figure 8(b): GC invocations vs write "
                                  "query count")

    def total_gc(self, mode: str) -> int:
        """Total GC invocations across the query-count sweep."""
        return sum(self.gc_counts[mode])

    def gc_vs_baseline_pct(self) -> float:
        """Check-In's GC reduction vs the baseline (%)."""
        return reduction_pct(self.total_gc("baseline"), self.total_gc("checkin"))

    def gc_vs_iscc_pct(self) -> float:
        """Check-In's GC reduction vs ISC-C (%)."""
        return reduction_pct(self.total_gc("isc_c"), self.total_gc("checkin"))

    def relative_lifetime(self, mode: str) -> float:
        """Equation (1): PEC_max * T_op / BEC, at equal work.

        T_op is normalised to the common workload (the largest query
        count) rather than each run's wall time, so configurations are
        compared at the same number of operations served.
        """
        erases = self.erase_counts[mode][-1]
        work = self.query_counts[-1]
        if erases == 0:
            return float("inf")
        return self.max_pe_cycles * work / erases

    def lifetime_vs_baseline(self) -> float:
        """Equation (1) lifetime factor, Check-In over baseline."""
        return self.relative_lifetime("checkin") / \
            self.relative_lifetime("baseline")

    def lifetime_table(self) -> str:
        """Render the Equation (1) rows."""
        rows = []
        for mode in self.erase_counts:
            erases = self.erase_counts[mode][-1]
            rows.append([mode, erases,
                         self.relative_lifetime(mode) / 1e3])
        rows.append(["checkin/baseline", "",
                     self.lifetime_vs_baseline()])
        rows.append(["paper", "", expectations.EQ1_LIFETIME_VS_BASELINE])
        return format_table(
            ["config", "erases", "rel lifetime (kilo-ops/PE)"],
            rows, title="Equation (1): lifetime estimate at equal work")


def run_fig8b(scale: ExperimentScale = QUICK,
              query_counts: Sequence[int] = (12_000, 24_000, 36_000),
              modes: Sequence[str] = GC_MODES) -> Fig8bResult:
    """GC pressure study on a small device so the journal ring wraps."""
    result = Fig8bResult(query_counts=list(query_counts))
    for mode in modes:
        gc_series: List[int] = []
        erase_series: List[int] = []
        for queries in query_counts:
            config = paper_config(
                mode, scale, workload="WO",
                total_queries=queries,
                num_keys=2_048,
                blocks_per_plane=5,           # ~20 MiB device: ring wraps
                journal_area_bytes=6 * MIB,
                checkpoint_interval_ns=10 ** 12,
                checkpoint_journal_quota=2 * MIB,
                gc_high_watermark=10,
            )
            metrics = run_config(config).metrics
            gc_series.append(metrics.gc_invocations())
            erase_series.append(metrics.erase_count())
            result.operation_time_ns[mode] = metrics.duration_ns
        result.gc_counts[mode] = gc_series
        result.erase_counts[mode] = erase_series
        result.max_pe_cycles = 3000
    return result
