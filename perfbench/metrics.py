"""The benchmark's metric catalogue: names, units, clocks and meaning.

``END_TO_END`` and ``PER_LAYER`` are what the final JSON line of a run
reports and what ``BENCHMARK.json`` lists (``selftest.py`` checks that
the two agree).  The JSON line carries the host-clock figures, which are
noisy and so are judged by medians over runs of different seeds.

``PRINTED_SPEC`` holds the simulated figures (the paper's throughput,
latency, checkpoint time, WAF, knee and RTO).  Most exist on some
workloads only, and they move between seeds by far more than any median
bound could absorb (a seed decides which keys are hot and how big they
are, so how often a checkpoint fires), but repeat exactly for a seed: a
run prints them in its table and ``compare.py`` holds them to their
bound seed by seed.

This module imports nothing from the program, so ``run.py`` can start
(and fail cleanly) where the program's sources are missing.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Tuple

ALL_METRICS_TAG = "all-metrics "
"""Prefix of the output line that carries every end-to-end figure of a
run, for ``compare.py``."""

WORKLOADS = ("ycsb-a-checkin", "wo-gc-baseline", "open-storm-observed",
             "crash-failover")
CLIENT_WORKLOADS = WORKLOADS[:3]

# name, unit, better, clock.  README.md defines each metric.
END_TO_END_SPEC: List[Tuple[str, str, str, str]] = [
    ("host_ops_per_ref_s", "1/s", "higher", "host"),
    ("setup_s", "s", "lower", "host"),
    ("host_peak_mib", "MiB", "lower", "host"),
]

HOST_BOUND = 0.25
"""Bound of the raw host-clock speed figures, which swing with the
machine: the same as ``host_ops_per_ref_s``'s."""

# name, unit, better, bound, clock, workloads that define it.  Simulated
# figures repeat exactly for a seed, so compare.py holds them to their
# bound seed by seed; a bound of 0 flags any worsening.
PRINTED_SPEC: List[Tuple[str, str, str, float, str, Tuple[str, ...]]] = [
    ("sim_qps", "1/s", "higher", 0.0, "sim", CLIENT_WORKLOADS),
    ("sim_p50_us", "us", "lower", 0.0, "sim", CLIENT_WORKLOADS),
    ("sim_p99_us", "us", "lower", 0.0, "sim", CLIENT_WORKLOADS),
    ("sim_p999_us", "us", "lower", 0.0, "sim", CLIENT_WORKLOADS),
    ("sim_ckpt_ms", "ms", "lower", 0.0, "sim", CLIENT_WORKLOADS),
    ("waf", "ratio", "lower", 0.0, "sim", CLIENT_WORKLOADS),
    ("flash_bytes_per_user_byte", "ratio", "lower", 0.0, "sim",
     CLIENT_WORKLOADS),
    ("erases_per_kop", "count", "lower", 0.0, "sim", CLIENT_WORKLOADS),
    ("failed_frac", "ratio", "lower", 0.0, "sim", WORKLOADS),
    ("knee_ops", "1/s", "higher", 0.0, "sim", ("open-storm-observed",)),
    ("rto_ms", "ms", "lower", 0.0, "sim", ("crash-failover",)),
    ("host_ops_per_s", "1/s", "higher", HOST_BOUND, "host", WORKLOADS),
    ("setup_cpu_s", "s", "lower", HOST_BOUND, "host", WORKLOADS),
    ("host_ms_per_crash", "ms", "lower", HOST_BOUND, "host",
     ("crash-failover",)),
]

# name, unit, better, what it should move -> on which workload
PER_LAYER_SPEC: List[Tuple[str, str, str, str]] = [
    ("sim.schedule_per_op", "count", "lower",
     "host_ops_per_s on the three client workloads"),
    ("sim.processes_per_op", "count", "lower",
     "host_ops_per_s on the three client workloads"),
    ("sim.self_us_per_op", "us", "lower",
     "host_ops_per_s on the three client workloads"),
    ("workload.self_us_per_op", "us", "lower",
     "host_ops_per_s on ycsb-a-checkin"),
    ("workload.dispatch_lag_us_max", "us", "lower",
     "must be 0 on open-storm-observed (checked)"),
    ("engine.self_us_per_op", "us", "lower",
     "host_ops_per_s on ycsb-a-checkin"),
    ("engine.mem_hit_ratio", "ratio", "higher",
     "sim_p50_us on ycsb-a-checkin"),
    ("engine.journal_commit_sim_us_p50", "us", "lower",
     "sim_p50_us on ycsb-a-checkin"),
    ("engine.ckpt_freeze_sim_ms", "ms", "lower",
     "sim_p99_us on open-storm-observed"),
    ("engine.ckpt_strategy_sim_ms", "ms", "lower",
     "sim_ckpt_ms on wo-gc-baseline"),
    ("engine.ckpt_overlap_p99_us", "us", "lower",
     "sim_p99_us on open-storm-observed"),
    ("engine.admission_wait_sim_us_p99", "us", "lower",
     "sim_p99_us on open-storm-observed"),
    ("checkin.remap_frac", "ratio", "higher",
     "sim_ckpt_ms and waf on ycsb-a-checkin; no change on wo-gc-baseline"),
    ("checkin.cow_sim_ms", "ms", "lower",
     "sim_ckpt_ms on ycsb-a-checkin; no change on wo-gc-baseline"),
    ("checkin.self_us_per_ckpt", "us", "lower",
     "host_ops_per_s on ycsb-a-checkin"),
    ("ssd.cmds_per_op", "count", "lower",
     "host_ops_per_s on ycsb-a-checkin"),
    ("ssd.cmd_sim_us_p50", "us", "lower", "sim_p99_us on ycsb-a-checkin"),
    ("ssd.cmd_sim_us_p99", "us", "lower", "sim_p99_us on ycsb-a-checkin"),
    ("ssd.read_cache_hit_ratio", "ratio", "higher",
     "sim_p99_us on ycsb-a-checkin"),
    ("ssd.self_us_per_op", "us", "lower", "host_ops_per_s on ycsb-a-checkin"),
    ("ftl.self_us_per_op", "us", "lower",
     "host_ops_per_s on ycsb-a-checkin and wo-gc-baseline"),
    ("ftl.map_reads_per_op", "count", "lower",
     "host_ops_per_s on ycsb-a-checkin and wo-gc-baseline"),
    ("ftl.write_sim_us_p99", "us", "lower",
     "sim_p999_us on wo-gc-baseline"),
    ("ftl.gc.victims_per_kop", "count", "lower",
     "waf and erases_per_kop on wo-gc-baseline; no change on "
     "ycsb-a-checkin"),
    ("ftl.gc.migrated_per_victim", "count", "lower",
     "waf on wo-gc-baseline"),
    ("ftl.gc.fg_stall_sim_ms", "ms", "lower",
     "sim_p999_us on wo-gc-baseline"),
    ("ftl.gc.self_us_per_op", "us", "lower",
     "host_ops_per_s on wo-gc-baseline"),
    ("flash.reads_per_op", "count", "lower",
     "flash_bytes_per_user_byte on wo-gc-baseline"),
    ("flash.programs_per_op", "count", "lower",
     "flash_bytes_per_user_byte on wo-gc-baseline"),
    ("flash.program_sim_us_p99", "us", "lower",
     "sim_p99_us on wo-gc-baseline"),
    ("flash.self_us_per_op", "us", "lower",
     "host_ops_per_s on wo-gc-baseline"),
    ("trace.self_us_per_op", "us", "lower",
     "host_ops_per_s on open-storm-observed; 0 elsewhere"),
    ("obs.blame_self_us_per_op", "us", "lower",
     "host_ops_per_s on open-storm-observed; 0 elsewhere"),
    ("obs.flightrec_self_us_per_op", "us", "lower",
     "host_ops_per_s on open-storm-observed; 0 elsewhere"),
    ("telemetry.self_us_per_op", "us", "lower",
     "host_ops_per_s on open-storm-observed; 0 elsewhere"),
    ("obs.plane_calls_per_op", "count", "lower",
     "host_ops_per_s on open-storm-observed; must be 0 elsewhere (checked)"),
    ("fault.rerun_host_ms", "ms", "lower",
     "host_ops_per_s (host_ms_per_crash) on crash-failover"),
    ("fault.spor_host_ms", "ms", "lower",
     "host_ops_per_s (host_ms_per_crash) on crash-failover"),
    ("replication.promote_host_ms", "ms", "lower",
     "host_ops_per_s (host_ms_per_crash) on crash-failover"),
    ("replication.cold_restore_host_ms", "ms", "lower",
     "host_ops_per_s (host_ms_per_crash) on crash-failover"),
    ("replication.promote_verified_reads", "count", "higher",
     "rto_ms on crash-failover"),
    ("replication.cold_rto_ms", "ms", "lower", "rto_ms on crash-failover"),
    ("bench.trace_overhead_ratio", "ratio", "lower",
     "none: what the traced run itself costs (untraced / traced "
     "host_ops_per_s)"),
]

END_TO_END = [(spec[0], spec[1]) for spec in END_TO_END_SPEC]
PER_LAYER = [(spec[0], spec[1]) for spec in PER_LAYER_SPEC]

ZERO_PLANE_WORKLOADS = ("ycsb-a-checkin", "wo-gc-baseline", "crash-failover")
"""Workloads with no observability plane armed: the plane wrappers must
record zero calls there (the zero-overhead contract, seen from outside)."""


def layer_values(traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median of each per-layer metric over the traced repetitions."""
    return {name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]}


def zero_overhead_problems(workload: str,
                           values: Dict[str, float]) -> List[str]:
    """The observability planes run exactly where they are armed, and the
    open-loop generator is never late."""
    calls = values["obs.plane_calls_per_op"]
    if workload in ZERO_PLANE_WORKLOADS and calls != 0:
        return [f"observability planes ran ({calls:.3f} calls/op) with "
                "every plane disabled"]
    if workload == "open-storm-observed":
        problems = []
        if calls == 0:
            problems.append("observability planes armed but never called")
        if values["workload.dispatch_lag_us_max"] != 0:
            problems.append("open-loop dispatch ran late by up to "
                            f"{values['workload.dispatch_lag_us_max']} us")
        return problems
    return []


def table(workload: str, values: Dict[str, float],
          per_layer: bool) -> List[str]:
    """Human-readable lines: every metric with its unit and clock."""
    lines = [f"perfbench {workload}"]
    if per_layer:
        for name, unit, _better, moves in PER_LAYER_SPEC:
            lines.append(f"  {name:<38} {values[name]:>14.4f} {unit:<6}"
                         f" -> {moves}")
        return lines
    rows = [(name, unit, clock) for name, unit, _b, clock
            in END_TO_END_SPEC]
    rows += [(spec[0], spec[1], spec[4]) for spec in PRINTED_SPEC
             if workload in spec[5] and spec[0] in values]
    for name, unit, clock in rows:
        value = values[name]
        shown = f"{value:>14.4f}" if math.isfinite(value) else f"{value:>14}"
        lines.append(f"  {name:<28} {shown} {unit:<6} [{clock}]")
    if "latency_samples" in values:
        lines.append(f"  latency samples per sub-seed: "
                     f"{values['latency_samples']:.0f}")
    return lines


def all_end_to_end(workload: str,
                   values: Dict[str, float]) -> Dict[str, float]:
    """Every end-to-end metric a workload defines (for ``compare.py``)."""
    names = [spec[0] for spec in END_TO_END_SPEC]
    names += [spec[0] for spec in PRINTED_SPEC
              if workload in spec[5] and spec[0] in values]
    return {name: values[name] for name in names}
