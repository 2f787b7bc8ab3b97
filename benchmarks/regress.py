#!/usr/bin/env python
"""CI benchmark-regression gate.

Compare a fresh ``repro bench`` artifact against the committed baseline
and exit non-zero when any gated metric drifts past its tolerance::

    PYTHONPATH=src python -m repro bench --threads 8 --queries 4000 \
        --artifact /tmp/bench_now.json
    python benchmarks/regress.py /tmp/bench_now.json

The baseline defaults to ``BENCH_baseline.json`` at the repo root.
Both files carry a ``config_hash`` over their bench parameters; the gate
refuses to compare artifacts of different configurations — a silent
config change would make any drift number meaningless.

The simulator is seed-deterministic, so a same-commit rerun reproduces
the baseline exactly; the tolerances below are headroom for intentional
behaviour changes, not noise margins.  When a change legitimately moves
a metric, regenerate and commit the baseline in the same PR::

    PYTHONPATH=src python -m repro bench --threads 8 --queries 4000 \
        --artifact BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.benchfile import load_bench_artifact  # noqa: E402
from repro.telemetry.names import safe_ratio  # noqa: E402

TOLERANCES = {
    "throughput_qps": 0.10,
    "latency_p50_us": 0.20,
    "latency_p99_us": 0.30,
    "waf": 0.10,
    "redundant_units": 0.15,
    "checkpoint_total_ms": 0.30,
    "operations": 0.0,
    "ops_per_sec": 0.75,
    "ckpt_blame_p99_share": 0.50,
    "knee_sustainable_ops": 0.30,
    "rto_warm_replica_ns": 0.50,
}
"""Allowed relative drift per gated metric (0.0 = must match exactly).

``ops_per_sec`` measures host wall-clock simulator speed, the one metric
that is *not* seed-deterministic: CI machines vary and share cores.  Its
very loose tolerance only catches a simulator that got several times
slower (a hot-path regression), never scheduling jitter.

``ckpt_blame_p99_share`` is the checkpoint-attributable fraction of the
>p99 tail from the blame ledgers (``repro.obs``): for the gated checkin
configuration it should stay near zero — growth means checkpoints
started leaking into the tail, the paper's headline regression.  Its
baseline is 0, where any relative tolerance allows nothing or
everything, so :data:`ABSOLUTE_FLOORS` gives it an absolute allowance.

``knee_sustainable_ops`` is checkin's open-loop knee (highest offered
load sustained inside the knee experiment's p99 + shed SLO).  The
bisection resolves the knee to ~12.5%, so 30% headroom gates real
capacity collapses without tripping on bracket-boundary wobble.

``rto_warm_replica_ns`` is the mean warm-promote failover RTO of the
compact seeded kill campaign — lower is better, so it gates on growth:
50% headroom lets the failover-detection constant or drain behaviour be
tuned intentionally while catching a promote path that stopped being
warm (an order-of-magnitude jump toward snapshot-restore territory)."""

ABSOLUTE_FLOORS = {
    "ckpt_blame_p99_share": 0.05,
}
"""Absolute drift always allowed, whatever the baseline: a metric
breaches when its adverse change exceeds ``max(tolerance * |baseline|,
floor)``.  Without a floor a zero baseline could never breach (its
relative drift is undefined); with it the blame share may grow by 5
points of the tail before the gate trips."""

HIGHER_IS_BETTER = {"throughput_qps", "ops_per_sec",
                    "knee_sustainable_ops"}
"""Metrics that only gate in the downward direction; everything else
gates on getting *bigger* (latency, WAF, redundant writes, stalls)."""


def check(baseline: dict, current: dict) -> list:
    """All tolerance breaches of ``current`` vs ``baseline``."""
    problems = []
    if baseline["config_hash"] != current["config_hash"]:
        return [f"config_hash mismatch: baseline ran "
                f"{baseline['bench']}, current ran {current['bench']} — "
                "regenerate the baseline for this configuration"]
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    for metric, tolerance in TOLERANCES.items():
        if metric not in base_metrics:
            problems.append(f"{metric}: missing from baseline")
            continue
        if metric not in cur_metrics:
            problems.append(f"{metric}: missing from current artifact")
            continue
        base = base_metrics[metric]
        cur = cur_metrics[metric]
        # Adverse change: a drop for higher-is-better, else growth.
        excess = base - cur if metric in HIGHER_IS_BETTER else cur - base
        floor = ABSOLUTE_FLOORS.get(metric, 0.0)
        if excess > max(tolerance * abs(base), floor):
            direction = "dropped" if metric in HIGHER_IS_BETTER \
                else "grew"
            change = f"{safe_ratio(excess, abs(base)) * 100.0:.1f}%" \
                if base else f"by {excess:g}"
            allowed = f"tolerance {tolerance * 100.0:.0f}%"
            if floor:
                allowed += f" or {floor:g} absolute"
            problems.append(
                f"{metric}: {direction} {change} "
                f"(baseline {base:g} -> current {cur:g}, {allowed})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a bench artifact regresses vs the baseline")
    parser.add_argument("current", help="fresh BENCH_*.json to gate")
    parser.add_argument("--baseline",
                        default=str(REPO_ROOT / "BENCH_baseline.json"),
                        help="committed baseline artifact "
                             "(default: BENCH_baseline.json at repo root)")
    args = parser.parse_args(argv)
    try:
        baseline = load_bench_artifact(args.baseline)
        current = load_bench_artifact(args.current)
    except (OSError, ValueError) as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2
    problems = check(baseline, current)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if problems:
        print(f"regress: {len(problems)} metric(s) out of tolerance "
              f"(baseline commit {baseline.get('commit', '?')[:12]})")
        return 1
    print(f"regress: all {len(TOLERANCES)} gated metrics within "
          f"tolerance of {pathlib.Path(args.baseline).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
