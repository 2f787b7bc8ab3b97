"""Figure 13 — mapping-unit sensitivity and space overhead.

(a) query throughput as the FTL mapping unit grows from 512 B to 4 KiB,
    for ISC-C and Check-In: larger units cut metadata overhead, and only
    Check-In converts that into remapping gains (its journaling aligns to
    whatever unit is configured);
(b) the cost: alignment padding — space overhead of Check-In over ISC-C
    for the four mixed record-size patterns (~3 % at 4 KiB units in the
    paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.base import QUICK, ExperimentScale, paper_config
from repro.system.metrics import safe_ratio
from repro.system.system import run_config

UNIT_MODES = ("isc_c", "checkin")


@dataclass
class Fig13aResult:
    """Throughput per (config, mapping unit)."""

    units: List[int] = field(default_factory=list)
    throughput_qps: Dict[str, List[float]] = field(default_factory=dict)
    remapped_units: Dict[str, List[int]] = field(default_factory=dict)

    def table(self) -> str:
        """Render the figure's rows as an ASCII table."""
        rows = []
        for index, unit in enumerate(self.units):
            rows.append([unit] +
                        [self.throughput_qps[mode][index]
                         for mode in UNIT_MODES] +
                        [self.remapped_units["checkin"][index]])
        return format_table(
            ["mapping_unit"] + [f"{m}_qps" for m in UNIT_MODES] +
            ["checkin_remaps"],
            rows, float_format=".0f",
            title="Figure 13(a): throughput vs mapping unit size")

    def gain_at(self, unit: int) -> float:
        """Check-In/ISC-C throughput ratio at one mapping unit."""
        index = self.units.index(unit)
        iscc = self.throughput_qps["isc_c"][index]
        return safe_ratio(self.throughput_qps["checkin"][index], iscc)


def run_fig13a(scale: ExperimentScale = QUICK,
               units: Sequence[int] = (512, 1024, 2048, 4096)) -> Fig13aResult:
    """Throughput sweep over the mapping unit for ISC-C and Check-In."""
    result = Fig13aResult(units=list(units))
    for mode in UNIT_MODES:
        qps: List[float] = []
        remaps: List[int] = []
        for unit in units:
            config = paper_config(
                mode, scale,
                mapping_unit=unit,
                size_spec="P4",       # the study's 128-4096 B record mix
                threads=64,           # large transactions, as in the paper
                total_queries=scale.scaled_queries(0.6),
            )
            metrics = run_config(config).metrics
            qps.append(metrics.throughput_qps())
            remaps.append(metrics.remapped_units())
        result.throughput_qps[mode] = qps
        result.remapped_units[mode] = remaps
    return result


@dataclass
class Fig13bResult:
    """Space overhead of Check-In over ISC-C, per pattern and unit."""

    patterns: List[str] = field(default_factory=list)
    units: List[int] = field(default_factory=list)
    journal_bytes: Dict[Tuple[str, str, int], int] = field(default_factory=dict)

    def overhead_pct(self, pattern: str, unit: int) -> float:
        """Space overhead of Check-In over ISC-C (%)."""
        iscc = self.journal_bytes[("isc_c", pattern, unit)]
        checkin = self.journal_bytes[("checkin", pattern, unit)]
        return safe_ratio(checkin - iscc, iscc) * 100.0

    def table(self) -> str:
        """Render the figure's rows as an ASCII table."""
        rows = []
        for pattern in self.patterns:
            rows.append([pattern] + [self.overhead_pct(pattern, unit)
                                     for unit in self.units])
        return format_table(
            ["pattern"] + [f"overhead%@{unit}" for unit in self.units],
            rows, title="Figure 13(b): Check-In space overhead vs ISC-C")


def run_fig13b(scale: ExperimentScale = QUICK,
               patterns: Sequence[str] = ("P1", "P2", "P3", "P4"),
               units: Sequence[int] = (512, 4096)) -> Fig13bResult:
    """Measure journal footprint (stored bytes) per pattern and unit."""
    result = Fig13bResult(patterns=list(patterns), units=list(units))
    for pattern in patterns:
        for unit in units:
            for mode in UNIT_MODES:
                config = paper_config(
                    mode, scale,
                    mapping_unit=unit,
                    size_spec=pattern,
                    workload="WO",
                    total_queries=scale.scaled_queries(0.35),
                )
                metrics = run_config(config).metrics
                result.journal_bytes[(mode, pattern, unit)] = \
                    metrics.journal_stored_bytes()
    return result
