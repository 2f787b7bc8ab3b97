"""Command-line interface: run experiments and single configurations.

Usage::

    python -m repro list
    python -m repro run fig8a [--scale quick|full] [--trace [--out t.json]]
    python -m repro bench --mode checkin --workload A --threads 32
    python -m repro trace fig8 --out trace.json
    python -m repro trace --validate trace.json
    python -m repro table1
    python -m repro fault-sweep --crash-points 50 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.common.units import MIB, parse_duration_ns
from repro.experiments.base import FULL, QUICK
from repro.experiments.registry import (
    EXPERIMENT_ALIASES,
    EXPERIMENTS,
    run_experiment,
)
from repro.obs import (
    BLAME,
    CKPT_FAMILY,
    blame_table,
    exemplar_table,
    tail_table,
    validate_blame_file,
    write_blame_jsonl,
)
from repro.system import SystemConfig, TenantSpec, run_config
from repro.telemetry import (
    TELEMETRY,
    TelemetryConfig,
    events_table,
    health_table,
    summary_table,
    validate_telemetry_file,
    write_telemetry_jsonl,
)
from repro.trace import (
    TRACE,
    Tracer,
    component_table,
    phase_table,
    queue_split_table,
    summarize,
    validate_trace_file,
    write_chrome_trace,
)


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [[exp_id, (runner.__doc__ or "").strip().splitlines()[0]]
            for exp_id, runner in sorted(EXPERIMENTS.items())]
    print(format_table(["experiment", "description"], rows))
    return 0


def _runs_phase_table(runs: Sequence[Tuple[str, Tracer]]) -> str:
    """One row per traced run: checkpoint count and per-phase totals."""
    summaries = [(label, summarize(tracer)) for label, tracer in runs]
    phases = sorted({phase for _label, summary in summaries
                     for phase in summary.phase_totals})
    headers = ["run", "ckpts", "ckpt_ms"] + [f"{p}_ms" for p in phases]
    rows: List[List[Any]] = []
    for label, summary in summaries:
        total_ms = sum(c["duration_ns"] for c in summary.checkpoints) / 1e6
        rows.append([label, summary.checkpoint_count, total_ms]
                    + [summary.phase_totals.get(p, 0) / 1e6 for p in phases])
    return format_table(headers, rows,
                        title="trace: checkpoint phases per run")


def _emit_trace(out: Optional[str]) -> None:
    """Print the trace overview and optionally export the Chrome JSON."""
    runs = TRACE.collected()
    if not runs:
        print("[trace: no traced runs collected]", file=sys.stderr)
        return
    print()
    print(_runs_phase_table(runs))
    if out:
        count = write_chrome_trace(out, runs)
        problems = validate_trace_file(out)
        status = "valid" if not problems else f"{len(problems)} PROBLEMS"
        print(f"\n[trace: {count} events from {len(runs)} run(s) -> {out} "
              f"({status})]")
    TRACE.clear()


def _emit_telemetry(out: Optional[str]) -> None:
    """Print sampler overviews; optionally dump the JSONL file(s)."""
    samplers = TELEMETRY.collected()
    if not samplers:
        print("[telemetry: no sampled runs collected]", file=sys.stderr)
        return
    rows = [[label, sampler.samples, len(sampler.series),
             len(sampler.events),
             len(sampler.health.frames) if sampler.health else 0]
            for label, sampler in samplers]
    print()
    print(format_table(
        ["run", "samples", "series", "events", "health_frames"],
        rows, title="telemetry: sampled runs"))
    if out:
        import os
        stem, ext = os.path.splitext(out)
        for index, (label, sampler) in enumerate(samplers):
            path = out if len(samplers) == 1 else f"{stem}-{label}{ext}"
            count = write_telemetry_jsonl(path, sampler)
            problems = validate_telemetry_file(path)
            status = "valid" if not problems else \
                f"{len(problems)} PROBLEMS"
            print(f"[telemetry: {count} records -> {path} ({status})]")
    TELEMETRY.clear()


def _cmd_run(args: argparse.Namespace) -> int:
    if args.arrivals is not None:
        if args.experiment is not None:
            print("run: give either an experiment id or --arrivals, not both",
                  file=sys.stderr)
            return 2
        return _run_arrivals(args)
    if args.tenants is not None:
        if args.experiment is not None:
            print("run: give either an experiment id or --tenants, not both",
                  file=sys.stderr)
            return 2
        return _run_tenants(args)
    if args.experiment is None:
        print("run: an experiment id, --tenants N or --arrivals RATE "
              "is required", file=sys.stderr)
        return 2
    scale = FULL if args.scale == "full" else QUICK
    started = time.time()
    with ExitStack() as planes:
        if args.trace:
            planes.enter_context(TRACE.armed())
        if args.telemetry:
            planes.enter_context(TELEMETRY.armed(TelemetryConfig(
                interval_ns=parse_duration_ns(args.telemetry_interval))))
        result = run_experiment(args.experiment, scale)
    elapsed = time.time() - started
    print(result if isinstance(result, str) else result.table())
    for extra in ("comparison_table", "lifetime_table"):
        if hasattr(result, extra):
            print()
            print(getattr(result, extra)())
    if args.trace:
        _emit_trace(args.out)
    if args.telemetry:
        _emit_telemetry(args.telemetry_out)
    print(f"\n[{args.experiment} at {scale.name} scale: {elapsed:.1f}s]")
    return 0


def _run_arrivals(args: argparse.Namespace) -> int:
    """``repro run --arrivals RATE``: one open-loop run, reconciled.

    Combines with ``--tenants N`` for per-tenant fan-in: every tenant
    gets its own open-loop dispatcher and front door at the given rate.
    """
    from repro.engine.admission import AdmissionConfig
    from repro.workload.arrivals import ArrivalSpec

    if args.arrivals <= 0:
        print("run: --arrivals must be a positive ops/s rate",
              file=sys.stderr)
        return 2
    arrivals = ArrivalSpec(rate_ops_per_sec=args.arrivals,
                           process=args.arrival_process,
                           schedule=args.arrival_schedule)
    admission = AdmissionConfig(policy=args.admission_policy,
                                max_inflight=args.max_inflight,
                                max_waiting=args.max_waiting)
    kwargs = dict(
        mode=args.mode,
        threads=8,
        num_keys=1_024,
        total_queries=4_000,
        journal_area_bytes=8 * MIB,
        verify_reads=False,
        arrivals=arrivals,
        admission=admission,
    )
    if args.tenants is not None:
        if args.tenants < 1:
            print("run: --tenants must be >= 1", file=sys.stderr)
            return 2
        kwargs["tenants"] = tuple(TenantSpec()
                                  for _ in range(args.tenants))
    config = SystemConfig(**kwargs)
    started = time.time()
    result = run_config(config)
    elapsed = time.time() - started
    rows = []
    reconciled = True
    for tenant in result.tenants:
        report = tenant.admission
        reconciled = reconciled and report.reconciles()
        rows.append([
            tenant.name, report.submitted, tenant.operations,
            report.shed_total, report.shed_rate,
            tenant.metrics.latency_all.p(99.0)[99.0] / 1e3,
            report.max_waiting_seen,
            "yes" if report.reconciles() else "NO"])
    print(format_table(
        ["tenant", "submitted", "completed", "shed", "shed_rate",
         "p99_us", "peak_queue", "reconciled"],
        rows, title=f"open loop @ {args.arrivals:,.0f} ops/s "
                    f"({args.arrival_process}/{args.arrival_schedule}, "
                    f"policy {args.admission_policy}, mode {args.mode})"))
    print(f"\n[every submitted op got a typed completion: "
          f"{'yes' if reconciled else 'NO — ZOMBIE OPS'}; "
          f"wall {elapsed:.1f}s]")
    return 0 if reconciled else 1


def _run_tenants(args: argparse.Namespace) -> int:
    """``repro run --tenants N``: N identical tenants on one device."""
    if args.tenants < 1:
        print("run: --tenants must be >= 1", file=sys.stderr)
        return 2
    config = SystemConfig(
        mode=args.mode,
        tenants=tuple(TenantSpec() for _ in range(args.tenants)),
        threads=8,
        num_keys=1_024,
        total_queries=4_000,
        journal_area_bytes=8 * MIB,
        verify_reads=False,
    )
    started = time.time()
    result = run_config(config)
    elapsed = time.time() - started
    rows = []
    for tenant in result.tenants:
        tails = tenant.metrics.latency_all.p(99.0)
        rows.append([tenant.name, tenant.operations,
                     tenant.metrics.throughput_qps(),
                     tails[99.0] / 1e3,
                     len(tenant.checkpoint_reports)])
    tenant_ops = sum(t.operations for t in result.tenants)
    rows.append(["aggregate", result.metrics.operations,
                 result.metrics.throughput_qps(),
                 result.metrics.latency_all.p(99.0)[99.0] / 1e3,
                 result.checkpoint_count])
    print(format_table(
        ["tenant", "operations", "qps", "p99_us", "checkpoints"],
        rows, title=f"{args.tenants} tenants / mode {args.mode}"))
    consistent = tenant_ops == result.metrics.operations
    print(f"\n[per-tenant ops {'sum to' if consistent else 'DO NOT sum to'} "
          f"the aggregate: {tenant_ops} vs {result.metrics.operations}; "
          f"wall {elapsed:.1f}s]")
    return 0 if consistent else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.validate:
        problems = validate_trace_file(args.validate)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("ok" if not problems else f"{len(problems)} problems"))
        return 1 if problems else 0
    scale = FULL if args.scale == "full" else QUICK
    started = time.time()
    with TRACE.armed():
        run_experiment(args.experiment, scale)
    elapsed = time.time() - started
    _emit_trace(args.out)
    print(f"\n[{args.experiment} traced at {scale.name} scale: "
          f"{elapsed:.1f}s]")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """One sampled run: summary tables, JSONL export, validation."""
    if args.validate_file:
        problems = validate_telemetry_file(args.validate_file)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        print(f"{args.validate_file}: "
              + ("ok" if not problems else f"{len(problems)} problems"))
        return 1 if problems else 0
    TELEMETRY.clear()
    kwargs = dict(
        mode=args.mode, workload=args.workload, threads=args.threads,
        total_queries=args.queries, verify_reads=False,
        telemetry=TelemetryConfig(
            interval_ns=parse_duration_ns(args.interval)))
    if args.tenants is not None:
        kwargs["tenants"] = tuple(TenantSpec()
                                  for _ in range(args.tenants))
        kwargs["journal_area_bytes"] = 8 * MIB
    config = SystemConfig(**kwargs)
    started = time.time()
    result = run_config(config)
    elapsed = time.time() - started
    sampler = result.telemetry
    if args.summary:
        print(summary_table(sampler))
        print()
        print(events_table(sampler))
        print()
        print(health_table(sampler))
    exit_code = 0
    if args.out:
        count = write_telemetry_jsonl(args.out, sampler)
        problems = validate_telemetry_file(args.out)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        status = "valid" if not problems else f"{len(problems)} problems"
        print(f"[telemetry: {count} records -> {args.out} ({status})]")
        exit_code = 1 if problems else 0
    print(f"[{sampler.samples} samples / {len(sampler.series)} series / "
          f"{len(sampler.events)} events; wall {elapsed:.1f}s]")
    TELEMETRY.clear()
    return exit_code


def _cmd_blame(args: argparse.Namespace) -> int:
    """One blamed run: per-stage attribution, tail profile, exemplars.

    Answers "where did the nanoseconds go" per request: the blame table
    splits every request's end-to-end latency into pipeline stages (the
    ledger sums exactly — conservation is enforced at finalize), the tail
    table conditions the split on >p99 requests, and the exemplar table
    names the worst requests with their trace span ids.
    """
    if args.validate_file:
        problems = validate_blame_file(args.validate_file)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        print(f"{args.validate_file}: "
              + ("ok" if not problems else f"{len(problems)} problems"))
        return 1 if problems else 0
    BLAME.clear()
    kwargs = dict(
        mode=args.mode, workload=args.workload, threads=args.threads,
        total_queries=args.queries, verify_reads=False, blame=True,
        lock_queries_during_checkpoint=args.gate)
    if args.ckpt_interval is not None:
        kwargs["checkpoint_interval_ns"] = \
            parse_duration_ns(args.ckpt_interval)
    if args.journal_mib is not None:
        kwargs["journal_area_bytes"] = args.journal_mib * MIB
        kwargs["checkpoint_journal_quota"] = args.journal_mib * MIB // 8
    if args.tenants is not None:
        kwargs["tenants"] = tuple(TenantSpec()
                                  for _ in range(args.tenants))
        kwargs["journal_area_bytes"] = 8 * MIB
    config = SystemConfig(**kwargs)
    started = time.time()
    result = run_config(config)
    elapsed = time.time() - started
    report = result.blame
    print(blame_table(report))
    print()
    print(tail_table(report, p=args.percentile))
    print()
    print(exemplar_table(report))
    exit_code = 0
    if args.out:
        count = write_blame_jsonl(args.out, report, p=args.percentile)
        problems = validate_blame_file(args.out)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        status = "valid" if not problems else f"{len(problems)} problems"
        print(f"\n[blame: {count} records -> {args.out} ({status})]")
        if problems:
            exit_code = 1
    if args.assert_ckpt_tail:
        profile = report.aggregate().tail_profile(args.percentile)
        dominant = profile.dominant_tail_category()
        ok = dominant in CKPT_FAMILY
        print(f"[dominant tail stage: {dominant or '-'} "
              f"({'checkpoint-family' if ok else 'NOT checkpoint-family'}), "
              f"ckpt tail share {profile.ckpt_tail_share:.1%}]")
        if not ok:
            exit_code = 1
    print(f"[{report.requests} blamed requests / "
          f"{result.checkpoint_count} checkpoints; wall {elapsed:.1f}s]")
    BLAME.clear()
    return exit_code


def _cmd_incident(args: argparse.Namespace) -> int:
    """Black-box forensics: trip a seeded incident and reconstruct it.

    The default run is the burst-storm-into-gated-checkpoints scenario:
    open-loop bursty arrivals behind a bounded front door, checkpoints
    freezing queries (the Figure-10 gate), flight recorder armed.  The
    escalated SLO watchdog turns the breach into an incident trigger;
    the bundle is dumped, validated, and replayed as one merged causal
    timeline naming the dominant blame stage.
    """
    from repro.common.jsonl import read_json
    from repro.obs import (
        dominant_stage,
        load_incident_file,
        resolve_against_trace,
        timeline_table,
        validate_incident_file,
        write_incident_jsonl,
    )

    if args.validate_file:
        problems = validate_incident_file(args.validate_file)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        print(f"{args.validate_file}: "
              + ("ok" if not problems else f"{len(problems)} problems"))
        return 1 if problems else 0
    if args.show_file:
        records = load_incident_file(args.show_file)
        print(timeline_table(records))
        stage = dominant_stage(records)
        print(f"[dominant blame stage: {stage or '-'}]")
        return 0

    BLAME.clear()
    TELEMETRY.clear()
    TRACE.clear()
    started = time.time()

    if args.kill_at is not None:
        records, result = _run_pair_incident(args)
    else:
        records, result = _run_node_incident(args)
    elapsed = time.time() - started

    print(timeline_table(records))
    header = records[0]
    stage = dominant_stage(records)
    print(f"\n[trigger: {header.get('trigger_reason') or 'none'}; "
          f"dominant blame stage: {stage or '-'}]")

    exit_code = 0
    if args.out:
        count = write_incident_jsonl(args.out, records)
        problems = validate_incident_file(args.out)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        status = "valid" if not problems else f"{len(problems)} problems"
        print(f"[incident: {count} records -> {args.out} ({status})]")
        if problems:
            exit_code = 1
    if args.trace_out:
        count = write_chrome_trace(args.trace_out, TRACE.collected())
        document, junk = read_json(args.trace_out)
        problems = junk + resolve_against_trace(records, document)
        for problem in problems:
            print(f"UNRESOLVED: {problem}", file=sys.stderr)
        status = "all flight span ids resolve" if not problems \
            else f"{len(problems)} problems"
        print(f"[trace: {count} events -> {args.trace_out} ({status})]")
        if problems:
            exit_code = 1
    if args.assert_trigger and header.get("trigger_reason") is None:
        print("ASSERT: no incident trigger fired", file=sys.stderr)
        exit_code = 1
    if args.assert_stage is not None and stage != args.assert_stage:
        print(f"ASSERT: dominant stage {stage or '-'} != "
              f"{args.assert_stage}", file=sys.stderr)
        exit_code = 1
    flights = header.get("flight_events", 0)
    print(f"[{flights} flight events / {header.get('triggers', 0)} "
          f"trigger(s); wall {elapsed:.1f}s]")
    BLAME.clear()
    TELEMETRY.clear()
    TRACE.clear()
    return exit_code


def _run_node_incident(args: argparse.Namespace) -> Tuple[Any, Any]:
    """One flight-recorded gated system under a seeded burst storm."""
    from repro.engine.admission import AdmissionConfig
    from repro.obs import incident_records
    from repro.system import KvSystem
    from repro.workload.arrivals import ArrivalSpec

    kwargs = dict(
        mode=args.mode, workload=args.workload, threads=args.threads,
        total_queries=args.queries, seed=args.seed, verify_reads=False,
        blame=True, trace=True, flightrec=True,
        lock_queries_during_checkpoint=args.gate,
        telemetry=TelemetryConfig(
            interval_ns=parse_duration_ns(args.interval)),
        checkpoint_interval_ns=parse_duration_ns(args.ckpt_interval),
        journal_area_bytes=args.journal_mib * MIB,
        checkpoint_journal_quota=args.journal_mib * MIB // 8)
    if args.burst:
        kwargs["arrivals"] = ArrivalSpec(
            rate_ops_per_sec=args.arrival_rate, process="bursts",
            schedule="flash-crowd")
        kwargs["admission"] = AdmissionConfig(
            policy="queue", max_inflight=args.threads,
            max_waiting=args.max_waiting)
    system = KvSystem(SystemConfig(**kwargs))
    for name in args.escalate.split(","):
        if name:
            system.telemetry.watchdogs.escalate(name.strip())
    result = system.run()
    records = incident_records(
        system, window_ns=parse_duration_ns(args.window),
        k=args.exemplars)
    return records, result


def _run_pair_incident(args: argparse.Namespace) -> Tuple[Any, Any]:
    """Cross-node incident: kill the primary mid-ship, then promote."""
    from repro.common.rng import SeededRng
    from repro.obs import pair_incident_records
    from repro.replication.campaign import campaign_config
    from repro.replication.replica import ReplicatedPair

    config = campaign_config(mode=args.mode, seed=args.seed,
                             ops=args.queries, flightrec=True)
    pair = ReplicatedPair(config)
    pair.start()
    pair.run_workload(kill_step=args.kill_at)
    pair.kill_primary(SeededRng(args.seed).fork("incident-cli"))
    report = pair.promote()
    print(f"primary killed at step {args.kill_at}; warm promote RTO "
          f"{report.rto_ns / 1e6:.3f} ms, RPO {report.rpo_ops} ops")
    records = pair_incident_records(
        pair, window_ns=parse_duration_ns(args.window), k=args.exemplars)
    return records, report


def _cmd_bench(args: argparse.Namespace) -> int:
    # Bench runs always carry blame ledgers: the artifact's gated
    # ckpt_blame_p99_share metric comes from them, and blame adds no
    # simulated-time events, so every other metric is unaffected.
    config = SystemConfig(mode=args.mode, workload=args.workload,
                          threads=args.threads, total_queries=args.queries,
                          distribution=args.distribution,
                          verify_reads=False, trace=args.trace, blame=True)
    BLAME.clear()
    if args.trace:
        TRACE.clear()
    started = time.time()
    result = run_config(config)
    elapsed = time.time() - started
    metrics = result.metrics
    summary = metrics.summary()
    rows = [[key, value] for key, value in summary.items()]
    rows.append(["checkpoints", result.checkpoint_count])
    rows.append(["mean_ckpt_ms", result.mean_checkpoint_ns() / 1e6])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.mode} / workload {args.workload} / "
                             f"{args.threads} threads"))
    if result.trace_summary is not None:
        for table in (component_table, phase_table, queue_split_table):
            print()
            print(table(result.trace_summary))
        if args.out:
            count = write_chrome_trace(args.out, TRACE.collected())
            print(f"\n[trace: {count} events -> {args.out}]")
        TRACE.clear()
    if not args.no_artifact:
        from repro.analysis.benchfile import (
            bench_artifact,
            runstamp,
            write_bench_artifact,
        )
        from repro.experiments.knee import bench_knee_probe
        from repro.experiments.recovery_matrix import bench_rto_probe
        bench_params = {"mode": args.mode, "workload": args.workload,
                        "threads": args.threads, "queries": args.queries,
                        "distribution": args.distribution}
        # The knee probe is its own compact two-mode sweep (simulated
        # time, deterministic) — the artifact gates the open-loop
        # sustainable-load headline alongside the closed-loop metrics.
        knee_started = time.time()
        knee_ops = bench_knee_probe()
        print(f"\n[knee probe: checkin sustains {knee_ops:,.0f} open-loop "
              f"ops/s ({time.time() - knee_started:.1f}s)]")
        # Likewise the warm-failover probe: a compact seeded
        # kill-the-primary campaign whose mean promote RTO gates the
        # replication subsystem's first-read latency after failover.
        rto_started = time.time()
        rto_ns = bench_rto_probe()
        print(f"[rto probe: warm replica promote serves in "
              f"{rto_ns / 1e6:.3f} ms ({time.time() - rto_started:.1f}s)]")
        stamp = runstamp()
        path = args.artifact or f"BENCH_{stamp}.json"
        write_bench_artifact(
            path, bench_artifact(result, bench_params, stamp=stamp,
                                 extra_metrics={
                                     "knee_sustainable_ops": knee_ops,
                                     "rto_warm_replica_ns": rto_ns}))
        print(f"[bench artifact -> {path}]")
    BLAME.clear()
    print(f"\n[wall: {elapsed:.1f}s, simulated: "
          f"{metrics.duration_ns / 1e9:.3f}s, "
          f"{result.ops_per_sec:,.0f} ops/s]")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one run and print the hottest functions.

    The development loop behind the hot-path work: profile, attack the
    top entries, re-profile.  The run itself is identical to ``repro
    bench --no-artifact`` (same config class, ``verify_reads`` off).
    """
    import cProfile
    import pstats

    kwargs = dict(mode=args.mode, workload=args.workload,
                  threads=args.threads, total_queries=args.queries,
                  distribution=args.distribution, verify_reads=False)
    if args.tenants is not None:
        kwargs["tenants"] = tuple(TenantSpec()
                                  for _ in range(args.tenants))
        kwargs["journal_area_bytes"] = 8 * MIB
    config = SystemConfig(**kwargs)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_config(config)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        from repro.common.jsonl import ensure_parent_dir
        stats.dump_stats(ensure_parent_dir(args.out))
        print(f"[profile data -> {args.out}]")
    print(f"[{result.metrics.operations} operations, "
          f"wall {result.wall_seconds:.2f}s, "
          f"{result.ops_per_sec:,.0f} ops/s]")
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.experiments.table1 import render_table1
    print(render_table1())
    return 0


FAULT_SWEEP_MODES = ("baseline", "isc_c", "checkin")
"""Configurations the crash sweep exercises: the conventional system and
the two remapping-FTL systems (ISC-A/B share the baseline's device FTL)."""


def _report_campaigns(campaigns: Sequence[Tuple[str, Any]],
                      headers: List[str],
                      rows_of: Callable[[str, Any], List[List[Any]]],
                      title: str) -> int:
    """Print each campaign's failures to stderr, then one table of
    ``rows_of(label, campaign)`` rows; returns the failed-point count."""
    rows: List[List[Any]] = []
    failed = 0
    for label, campaign in campaigns:
        failures = campaign.failures()
        for point in failures:
            print(f"FAIL {label} {point.label}: {point.problems()[0]}",
                  file=sys.stderr)
        failed += len(failures)
        rows.extend(rows_of(label, campaign))
    print(format_table(headers, rows, title=title))
    return failed


def _cmd_media_sweep(args: argparse.Namespace) -> int:
    from repro.fault.media import media_sweep, spare_exhaustion_run
    modes = FAULT_SWEEP_MODES if args.mode == "all" else (args.mode,)
    rates = tuple(float(rate) for rate in args.media_rates.split(","))
    started = time.time()
    sweeps = [(mode, media_sweep(mode=mode, rates=rates, seed=args.seed,
                                 ops=args.ops, tenants=args.tenants))
              for mode in modes]
    exhaustion = spare_exhaustion_run(seed=args.seed)
    summary = exhaustion.metrics.summary()
    degraded_ok = summary["degraded"] == 1.0 and summary["bad_blocks"] > 0
    if not degraded_ok:
        print("FAIL spare-exhaustion run did not end in degraded mode",
              file=sys.stderr)
    failed = _report_campaigns(
        sweeps,
        ["mode", "rate", "acked", "pgm_fail", "ers_fail", "uecc",
         "reloc", "bad_blk", "degraded", "verdict"],
        lambda mode, sweep: [
            [mode, point.rate, point.acked_keys, point.program_fails,
             point.erase_fails, point.uecc_events, point.relocations,
             point.bad_blocks, "yes" if point.degraded else "no",
             "ok" if point.ok else "FAIL"]
            for point in sweep.points],
        f"media-error sweep (seed {args.seed})")
    print(f"\nspare-exhaustion: degraded={summary['degraded']:.0f} "
          f"bad_blocks={summary['bad_blocks']:.0f} "
          f"({exhaustion.metrics.degraded_reason or 'healthy'})")
    print(f"[{len(modes) * len(rates)} sweep points: "
          f"{time.time() - started:.1f}s]")
    return 1 if failed or not degraded_ok else 0


def _cmd_fault_sweep(args: argparse.Namespace) -> int:
    from repro.fault.harness import fault_sweep
    if args.media_errors:
        return _cmd_media_sweep(args)
    modes = FAULT_SWEEP_MODES if args.mode == "all" else (args.mode,)
    started = time.time()
    sweeps = [(mode, fault_sweep(mode=mode, crash_points=args.crash_points,
                                 seed=args.seed, ops=args.ops,
                                 tenants=args.tenants))
              for mode in modes]

    def row(mode: str, sweep: Any) -> List[List[Any]]:
        walls = [point.recovery_wall_ns for point in sweep.points] or [0]
        return [[mode, len(sweep.points), sweep.total_steps,
                 len(sweep.failures()), sum(walls) / len(walls) / 1e6,
                 max(walls) / 1e6, sweep.digest()]]
    failed = _report_campaigns(
        sweeps,
        ["mode", "crash_points", "workload_steps", "failures",
         "rec_mean_ms", "rec_max_ms", "digest"],
        row, f"fault sweep (seed {args.seed})")
    print(f"\n[{len(modes) * args.crash_points} crash points: "
          f"{time.time() - started:.1f}s]")
    return 1 if failed else 0


def _replicate_link(args: argparse.Namespace):
    from repro.replication.ship import LinkSpec
    return LinkSpec(latency_ns=int(args.latency_us * 1_000),
                    gbit_per_s=args.gbps, batch_ops=args.batch_ops,
                    queue_depth=args.queue_depth)


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.common.rng import SeededRng
    from repro.replication.campaign import (
        campaign_config,
        cold_restore,
        kill_primary_campaign,
    )
    from repro.replication.replica import ReplicatedPair

    link = _replicate_link(args)
    strategies = ("warm", "snapshot") if args.strategy == "both" \
        else (args.strategy,)
    started = time.time()

    if args.campaign is not None:
        campaign = kill_primary_campaign(
            mode=args.mode, crash_points=args.campaign, seed=args.seed,
            ops=args.ops, num_keys=args.keys, link=link,
            strategies=strategies)
        failed = _report_campaigns(
            [(args.mode, campaign)],
            ["strategy", "crash_points", "rto_mean_ms", "rpo_mean_ops"],
            lambda _mode, result: [
                [strategy, len(result.points),
                 result.mean_rto_ns(strategy) / 1e6,
                 result.mean_rpo_ops(strategy)]
                for strategy in strategies],
            f"kill-the-primary campaign (mode {args.mode}, "
            f"seed {args.seed}, digest {campaign.digest()})")
        if len(strategies) == 2:
            print(f"\nwarm promote vs snapshot+replay RTO: "
                  f"{campaign.rto_speedup():.2f}x faster")
        print(f"[{len(campaign.points)} kills, zero acked-write loss: "
              f"{time.time() - started:.1f}s]")
        return 1 if failed else 0

    # Single kill-and-promote run.
    config = campaign_config(mode=args.mode, seed=args.seed, ops=args.ops,
                             num_keys=args.keys)
    kill_step = args.kill_at
    if kill_step is None:
        reference = ReplicatedPair(config, link=link)
        reference.start()
        total_steps, _ = reference.run_workload()
        reference.stop()
        kill_step = max(1, int(total_steps * args.kill_frac))
    pair = ReplicatedPair(config, link=link, semi_sync=args.semi_sync)
    pair.start()
    pair.run_workload(kill_step=kill_step)
    pair.kill_primary(SeededRng(args.seed).fork("replicate-cli"))
    print(f"primary killed at step {kill_step} "
          f"(t={pair.primary.sim.now / 1e6:.3f} ms): "
          f"{len(pair.log)} committed ops, "
          f"shipped {pair.shipper.shipped_offset}, "
          f"acked {pair.shipper.acked_offset}")
    ok = True
    if "warm" in strategies:
        warm = pair.promote()
        ok &= warm.contract_ok
        print(f"  warm promote    : RTO {warm.rto_ns / 1e6:8.3f} ms, "
              f"RPO {warm.rpo_ops} ops, applied {warm.applied_offset}, "
              f"{warm.verified_reads} reads verified, "
              f"contract {'OK' if warm.contract_ok else 'VIOLATED'}")
    if "snapshot" in strategies:
        cold = cold_restore(pair)
        ok &= cold.contract_ok
        print(f"  snapshot+replay : RTO {cold.rto_ns / 1e6:8.3f} ms, "
              f"RPO {cold.rpo_ops} ops, installed {cold.installed} + "
              f"replayed {cold.replayed_ops}, "
              f"contract {'OK' if cold.contract_ok else 'VIOLATED'}")
    print(f"[wall: {time.time() - started:.1f}s]")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI: list / run / bench / table1 subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Check-In (ISCA 2020) reproduction: experiments and runs")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list reproducible figures/tables") \
        .set_defaults(handler=_cmd_list)

    experiment_names = sorted(EXPERIMENTS) + sorted(EXPERIMENT_ALIASES)

    run_parser = commands.add_parser(
        "run", help="run one experiment, or N tenants with --tenants")
    run_parser.add_argument("experiment", nargs="?", default=None,
                            choices=experiment_names)
    run_parser.add_argument("--tenants", type=int, default=None,
                            metavar="N",
                            help="instead of an experiment: run N identical "
                                 "tenants sharing one namespaced device")
    run_parser.add_argument("--mode", default="checkin",
                            choices=("baseline", "isc_a", "isc_b",
                                     "isc_c", "checkin"),
                            help="configuration for --tenants runs")
    run_parser.add_argument("--scale", choices=("quick", "full"),
                            default="quick")
    run_parser.add_argument("--trace", action="store_true",
                            help="trace every system in the experiment and "
                                 "print the checkpoint phase breakdown")
    run_parser.add_argument("--out", metavar="PATH", default=None,
                            help="with --trace: write the Chrome "
                                 "trace_event JSON here (Perfetto-loadable)")
    run_parser.add_argument("--telemetry", action="store_true",
                            help="sample every system in the experiment "
                                 "(time series, SLO watchdogs, health log)")
    run_parser.add_argument("--telemetry-interval", metavar="DUR",
                            default="1ms",
                            help="sampling interval, e.g. 10ms / 500us "
                                 "(default: 1ms of simulated time)")
    run_parser.add_argument("--telemetry-out", metavar="PATH", default=None,
                            help="with --telemetry: write the JSONL "
                                 "dump(s) here")
    run_parser.add_argument("--arrivals", type=float, default=None,
                            metavar="RATE",
                            help="instead of an experiment: one open-loop "
                                 "run at RATE offered ops/s behind the "
                                 "front-door admission controller "
                                 "(combine with --tenants for fan-in)")
    run_parser.add_argument("--arrival-process", default="poisson",
                            choices=("poisson", "bursts"),
                            help="open-loop arrival process "
                                 "(default: poisson)")
    run_parser.add_argument("--arrival-schedule", default="constant",
                            choices=("constant", "diurnal", "flash-crowd"),
                            help="open-loop rate schedule "
                                 "(default: constant)")
    run_parser.add_argument("--admission-policy", default="queue",
                            choices=("queue", "shed", "degrade"),
                            help="front-door policy for --arrivals runs")
    run_parser.add_argument("--max-inflight", type=int, default=64,
                            help="admission in-flight slot limit")
    run_parser.add_argument("--max-waiting", type=int, default=256,
                            help="admission waiting-room depth")
    run_parser.set_defaults(handler=_cmd_run)

    trace_parser = commands.add_parser(
        "trace", help="run one experiment traced and export its timeline")
    trace_parser.add_argument("experiment", nargs="?", default="fig8a",
                              choices=experiment_names)
    trace_parser.add_argument("--scale", choices=("quick", "full"),
                              default="quick")
    trace_parser.add_argument("--out", metavar="PATH", default="trace.json")
    trace_parser.add_argument("--validate", metavar="PATH", default=None,
                              help="validate an existing trace file instead "
                                   "of running anything")
    trace_parser.set_defaults(handler=_cmd_trace)

    bench_parser = commands.add_parser(
        "bench", help="run one configuration and print its metrics")
    bench_parser.add_argument("--mode", default="checkin",
                              choices=("baseline", "isc_a", "isc_b",
                                       "isc_c", "checkin"))
    bench_parser.add_argument("--workload", default="A",
                              choices=("A", "B", "C", "F", "WO"))
    bench_parser.add_argument("--threads", type=int, default=32)
    bench_parser.add_argument("--queries", type=int, default=20_000)
    bench_parser.add_argument("--distribution", default="zipfian",
                              choices=("uniform", "zipfian",
                                       "scrambled_zipfian"))
    bench_parser.add_argument("--trace", action="store_true",
                              help="trace the run and print per-component "
                                   "stage/phase/queue tables")
    bench_parser.add_argument("--out", metavar="PATH", default=None,
                              help="with --trace: write the Chrome "
                                   "trace_event JSON here")
    bench_parser.add_argument("--artifact", metavar="PATH", default=None,
                              help="write the schema-versioned bench "
                                   "artifact here (default: "
                                   "BENCH_<runstamp>.json in the CWD)")
    bench_parser.add_argument("--no-artifact", action="store_true",
                              help="skip writing the bench artifact")
    bench_parser.set_defaults(handler=_cmd_bench)

    profile_parser = commands.add_parser(
        "profile",
        help="cProfile one run and print the hottest functions")
    profile_parser.add_argument("--mode", default="checkin",
                                choices=("baseline", "isc_a", "isc_b",
                                         "isc_c", "checkin"))
    profile_parser.add_argument("--workload", default="A",
                                choices=("A", "B", "C", "F", "WO"))
    profile_parser.add_argument("--threads", type=int, default=8)
    profile_parser.add_argument("--queries", type=int, default=4_000)
    profile_parser.add_argument("--tenants", type=int, default=None,
                                metavar="N",
                                help="profile a multi-tenant (namespaced) "
                                     "run instead of the classic one")
    profile_parser.add_argument("--distribution", default="zipfian",
                                choices=("uniform", "zipfian",
                                         "scrambled_zipfian"))
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=("cumulative", "tottime", "calls"),
                                help="pstats sort key (default: cumulative)")
    profile_parser.add_argument("--top", type=int, default=25,
                                help="how many entries to print (default 25)")
    profile_parser.add_argument("--out", metavar="PATH", default=None,
                                help="also dump raw pstats data here "
                                     "(inspect with python -m pstats)")
    profile_parser.set_defaults(handler=_cmd_profile)

    blame_parser = commands.add_parser(
        "blame",
        help="attribute per-request latency to pipeline stages and "
             "print a root-cause report")
    blame_parser.add_argument("--mode", default="baseline",
                              choices=("baseline", "isc_a", "isc_b",
                                       "isc_c", "checkin"))
    blame_parser.add_argument("--workload", default="WO",
                              choices=("A", "B", "C", "F", "WO"))
    blame_parser.add_argument("--threads", type=int, default=8)
    blame_parser.add_argument("--queries", type=int, default=4_000)
    blame_parser.add_argument("--tenants", type=int, default=None,
                              metavar="N",
                              help="blame a multi-tenant (namespaced) run "
                                   "instead of the classic one")
    blame_parser.add_argument("--ckpt-interval", metavar="DUR",
                              default=None,
                              help="checkpoint interval in simulated "
                                   "time, e.g. 10ms (default: config)")
    blame_parser.add_argument("--journal-mib", type=int, default=None,
                              metavar="N",
                              help="journal area size in MiB; smaller "
                                   "areas checkpoint more often "
                                   "(default: config)")
    blame_parser.add_argument("--gate", action="store_true",
                              help="freeze queries during checkpoints "
                                   "(the Figure-10 gated configuration; "
                                   "makes checkpoint stalls visible in "
                                   "the tail)")
    blame_parser.add_argument("--percentile", type=float, default=99.0,
                              metavar="P",
                              help="tail percentile for the blame "
                                   "profile (default 99)")
    blame_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the repro-blame/v1 JSONL dump "
                                   "here (re-validated after writing)")
    blame_parser.add_argument("--assert-ckpt-tail", action="store_true",
                              help="exit nonzero unless the dominant "
                                   "tail stage is checkpoint-family "
                                   "(CI smoke assertion)")
    blame_parser.add_argument("--validate", dest="validate_file",
                              metavar="PATH", default=None,
                              help="validate an existing blame JSONL "
                                   "instead of running anything")
    blame_parser.set_defaults(handler=_cmd_blame)

    incident_parser = commands.add_parser(
        "incident",
        help="trip a seeded incident, dump the repro-incident/v1 "
             "bundle and reconstruct the cross-plane causal timeline")
    incident_parser.add_argument("--mode", default="baseline",
                                 choices=("baseline", "isc_a", "isc_b",
                                          "isc_c", "checkin"))
    incident_parser.add_argument("--workload", default="WO",
                                 choices=("A", "B", "C", "F", "WO"))
    incident_parser.add_argument("--threads", type=int, default=8)
    incident_parser.add_argument("--queries", type=int, default=1_500)
    incident_parser.add_argument("--seed", type=int, default=7)
    incident_parser.add_argument("--gate", action="store_true",
                                 help="freeze queries during checkpoints "
                                      "(makes ckpt_freeze_stall the "
                                      "dominant blame stage)")
    incident_parser.add_argument("--burst", action="store_true",
                                 help="drive the run with an open-loop "
                                      "flash-crowd burst storm behind a "
                                      "bounded front door")
    incident_parser.add_argument("--arrival-rate", type=float,
                                 default=120_000.0, metavar="OPS",
                                 help="burst-storm base arrival rate "
                                      "(ops per simulated second)")
    incident_parser.add_argument("--max-waiting", type=int, default=64,
                                 help="front-door waiting-room depth "
                                      "for the burst storm")
    incident_parser.add_argument("--ckpt-interval", metavar="DUR",
                                 default="10ms",
                                 help="checkpoint interval in simulated "
                                      "time (default 10ms)")
    incident_parser.add_argument("--journal-mib", type=int, default=2,
                                 metavar="N",
                                 help="journal area size in MiB "
                                      "(default 2: checkpoints often)")
    incident_parser.add_argument("--interval", metavar="DUR",
                                 default="1ms",
                                 help="telemetry sampling interval")
    incident_parser.add_argument("--window", metavar="DUR", default="10ms",
                                 help="telemetry bracket around the "
                                      "trigger in the bundle")
    incident_parser.add_argument("--exemplars", type=int, default=8,
                                 metavar="K",
                                 help="worst-K blame exemplars to embed")
    incident_parser.add_argument("--escalate", metavar="NAMES",
                                 default="admission_overload,"
                                         "journal_saturation,"
                                         "checkpoint_overdue",
                                 help="comma-separated watchdogs to "
                                      "escalate to error severity (an "
                                      "error-edge breach trips the "
                                      "incident dump)")
    incident_parser.add_argument("--kill-at", type=int, default=None,
                                 metavar="STEP",
                                 help="cross-node incident instead: "
                                      "replicated pair, primary killed "
                                      "after STEP merged-time steps, "
                                      "then promoted")
    incident_parser.add_argument("--out", metavar="PATH", default=None,
                                 help="write the repro-incident/v1 JSONL "
                                      "bundle here (re-validated after "
                                      "writing)")
    incident_parser.add_argument("--trace-out", metavar="PATH",
                                 default=None,
                                 help="also dump the Chrome trace and "
                                      "check every flight span id "
                                      "resolves in it")
    incident_parser.add_argument("--assert-trigger", action="store_true",
                                 help="exit nonzero unless an incident "
                                      "trigger fired (CI smoke)")
    incident_parser.add_argument("--assert-stage", metavar="STAGE",
                                 default=None,
                                 help="exit nonzero unless the dominant "
                                      "blame stage matches (e.g. "
                                      "ckpt_freeze_stall)")
    incident_parser.add_argument("--validate", dest="validate_file",
                                 metavar="PATH", default=None,
                                 help="validate an existing incident "
                                      "bundle instead of running")
    incident_parser.add_argument("--show", dest="show_file",
                                 metavar="PATH", default=None,
                                 help="reconstruct the timeline from an "
                                      "existing bundle instead of "
                                      "running")
    incident_parser.set_defaults(handler=_cmd_incident)

    telemetry_parser = commands.add_parser(
        "telemetry",
        help="run one sampled configuration and export its time series")
    telemetry_parser.add_argument("--mode", default="checkin",
                                  choices=("baseline", "isc_a", "isc_b",
                                           "isc_c", "checkin"))
    telemetry_parser.add_argument("--workload", default="A",
                                  choices=("A", "B", "C", "F", "WO"))
    telemetry_parser.add_argument("--threads", type=int, default=8)
    telemetry_parser.add_argument("--queries", type=int, default=4_000)
    telemetry_parser.add_argument("--tenants", type=int, default=None,
                                  metavar="N",
                                  help="sample a multi-tenant (namespaced) "
                                       "run instead of the classic one")
    telemetry_parser.add_argument("--interval", metavar="DUR",
                                  default="1ms",
                                  help="sampling interval in simulated "
                                       "time, e.g. 10ms / 500us / 250000")
    telemetry_parser.add_argument("--out", metavar="PATH", default=None,
                                  help="write the JSONL dump here (the "
                                       "dump is re-validated after "
                                       "writing)")
    telemetry_parser.add_argument("--summary", action="store_true",
                                  help="print the per-series overview, "
                                       "watchdog events and health report")
    telemetry_parser.add_argument("--validate", dest="validate_file",
                                  metavar="PATH", default=None,
                                  help="validate an existing telemetry "
                                       "JSONL instead of running anything")
    telemetry_parser.set_defaults(handler=_cmd_telemetry)

    commands.add_parser("table1", help="print the Table-I configuration") \
        .set_defaults(handler=_cmd_table1)

    fault_parser = commands.add_parser(
        "fault-sweep",
        help="crash-consistency sweep: power-cut at N seeded instants")
    fault_parser.add_argument("--mode", default="all",
                              choices=("all",) + FAULT_SWEEP_MODES)
    fault_parser.add_argument("--crash-points", type=int, default=20)
    fault_parser.add_argument("--seed", type=int, default=7)
    fault_parser.add_argument("--ops", type=int, default=120)
    fault_parser.add_argument("--tenants", type=int, default=1,
                              help="crash a multi-tenant (namespaced) "
                                   "system instead of the classic one")
    fault_parser.add_argument("--media-errors", action="store_true",
                              help="media-error campaign instead of crash "
                                   "points: seeded NAND failures under "
                                   "load, plus a spare-exhaustion run")
    fault_parser.add_argument("--media-rates", default="0.001,0.01,0.05",
                              metavar="R1,R2,...",
                              help="program-fail base rates for the "
                                   "media-error grid")
    fault_parser.set_defaults(handler=_cmd_fault_sweep)

    repl_parser = commands.add_parser(
        "replicate",
        help="kill-the-primary drill: journal shipping, promote-on-"
             "failure, snapshot+replay — RTO/RPO per strategy")
    repl_parser.add_argument("--mode", default="checkin",
                             choices=("baseline", "isc_a", "isc_b",
                                      "isc_c", "checkin"))
    repl_parser.add_argument("--ops", type=int, default=160)
    repl_parser.add_argument("--keys", type=int, default=64)
    repl_parser.add_argument("--seed", type=int, default=7)
    repl_parser.add_argument("--kill-at", type=int, default=None,
                             metavar="STEP",
                             help="kill the primary after this many "
                                  "merged-time steps (default: "
                                  "--kill-frac of the full run)")
    repl_parser.add_argument("--kill-frac", type=float, default=0.6,
                             help="kill point as a fraction of the "
                                  "reference run's steps")
    repl_parser.add_argument("--latency-us", type=float, default=50.0,
                             help="one-way link latency")
    repl_parser.add_argument("--gbps", type=float, default=10.0,
                             help="link bandwidth (Gbit/s)")
    repl_parser.add_argument("--batch-ops", type=int, default=64)
    repl_parser.add_argument("--queue-depth", type=int, default=4,
                             help="in-flight ship batches before the "
                                  "shipper stalls")
    repl_parser.add_argument("--campaign", type=int, default=None,
                             metavar="N",
                             help="instead of one kill: N seeded crash "
                                  "points, every strategy, mean RTO/RPO")
    repl_parser.add_argument("--strategy", default="both",
                             choices=("warm", "snapshot", "both"))
    repl_parser.add_argument("--semi-sync", action="store_true",
                             help="writers wait for the ship ack "
                                  "(single-kill runs only)")
    repl_parser.set_defaults(handler=_cmd_replicate)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exiting quietly is the Unix way.
        import os
        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
