"""The four benchmark workloads and what one repetition of each measures.

Every workload is built only from the program's public entry points
(``SystemConfig``/``KvSystem``, ``bench_knee_probe``, ``fault_sweep``,
``kill_primary_campaign``); the benchmark never edits ``src/``.

One repetition runs in a fresh interpreter (see ``rep.py``) and returns a
flat record:

* ``host``: host-clock figures (noisy): ``setup_s``, ``run_s``, ``units``;
* ``sim``: simulated figures, exactly repeatable for a seed;
* ``checks``: failed correctness checks (empty when the outputs are right);
* ``attempted`` / ``failed``: operations (or crash points) tried / lost.

Two clocks appear.  *Sim* is simulated nanoseconds; *host* is the process
CPU time of the single-threaded simulator (``time.process_time``), which
tracks its wall time while ignoring time the OS gives to other processes.
A reference simulation sampled throughout each measured phase
(:func:`timed`) lets a run also state its speed in reference seconds (see
``run.py``).
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from typing import Any, Callable, Dict, Generator, List, Sequence, Tuple

from repro.common.units import KIB, MIB, MS
from repro.system.config import SystemConfig
from repro.system.system import KvSystem, RunResult
from repro.telemetry.sampler import TelemetryConfig
from repro.workload.arrivals import ArrivalSpec

host_clock = time.process_time

CLOSED_LOOP_OPS = 20_000
"""Client operations per closed-loop repetition."""

OPEN_LOOP_OPS = 20_000
"""Arrivals per open-loop repetition."""

STORM_OFFERED_OPS = 38_800.0
"""Fixed open-loop offered rate: 0.8 of ``bench_knee_probe``'s checkin
knee (48,496 ops/s when the benchmark was defined).  A constant, so a
later change to the knee does not change the traffic."""

CRASH_POINTS = 50
"""Power cuts in the fault sweep, and kills in the replication campaign."""


def ycsb_a_checkin(seed: int) -> SystemConfig:
    """YCSB-A, 32 closed-loop clients, 4,096 keys (8x the 512-record
    memory cache), checkin mode on the default 192 MiB device."""
    return SystemConfig(mode="checkin", seed=seed, workload="A",
                        distribution="zipfian", threads=32, num_keys=4_096,
                        total_queries=CLOSED_LOOP_OPS)


def wo_gc_baseline(seed: int) -> SystemConfig:
    """Write-only, 32 closed-loop clients, 2,048 keys on the Fig. 8b
    small device (5 blocks/plane, 6 MiB journal, 2 MiB quota trigger, no
    interval trigger, GC high watermark 10), baseline mode."""
    return SystemConfig(mode="baseline", seed=seed, workload="WO",
                        distribution="zipfian", threads=32, num_keys=2_048,
                        total_queries=CLOSED_LOOP_OPS,
                        blocks_per_plane=5,
                        journal_area_bytes=6 * MIB,
                        checkpoint_interval_ns=10 ** 12,
                        checkpoint_journal_quota=2 * MIB,
                        gc_high_watermark=10)


def open_storm_observed(seed: int) -> SystemConfig:
    """Poisson arrivals at a fixed offered rate behind the default
    bounded front door, ``knee_config``'s storm cadence (5 ms interval,
    256 KiB quota, queries take the checkpoint lock), 384 keys that fit
    the memory cache, and all four observability planes armed."""
    return SystemConfig(mode="checkin", seed=seed, workload="A",
                        distribution="zipfian", num_keys=384,
                        total_queries=OPEN_LOOP_OPS,
                        checkpoint_interval_ns=5 * MS,
                        checkpoint_journal_quota=256 * KIB,
                        journal_area_bytes=8 * MIB,
                        lock_queries_during_checkpoint=True,
                        arrivals=ArrivalSpec(
                            rate_ops_per_sec=STORM_OFFERED_OPS),
                        trace=True, blame=True, flightrec=True,
                        telemetry=TelemetryConfig())


CLIENT_CONFIGS: Dict[str, Callable[[int], SystemConfig]] = {
    "ycsb-a-checkin": ycsb_a_checkin,
    "wo-gc-baseline": wo_gc_baseline,
    "open-storm-observed": open_storm_observed,
}


def percentile(data: Sequence[float], pct: float) -> float:
    """Linear interpolation between closest ranks of sorted ``data``
    (the ``numpy.percentile`` convention the program also uses)."""
    if not data:
        return 0.0
    rank = (len(data) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    if data[high] == math.inf:
        return math.inf if rank > low or data[low] == math.inf else data[low]
    return data[low] + (data[high] - data[low]) * (rank - low)


REFERENCE_EVERY_S = 0.02
"""Host CPU seconds between two reference slices during a measured phase."""

REFERENCE_EVENTS = 150
"""Reference-simulation events per slice (about 0.2 ms)."""

REFERENCE_RECORDS = 30_000
"""Records the reference simulation updates.  Its working set (about
8 MiB) is far larger than the CPU caches, like the simulator's, so both
lose the same share of speed when other tenants crowd the machine."""


class _Record:
    __slots__ = ("key", "version", "size", "tags")

    def __init__(self, key: int) -> None:
        self.key = key
        self.version = 0
        self.size = 512 + key % 7
        self.tags = {"version": 0}


def _client(records: List[_Record], seed: int) -> Generator[int, int, None]:
    """One reference client: update a pseudo-random record, then sleep."""
    state = seed * 7919
    yield 0
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        record = records[state % len(records)]
        record.version += 1
        record.tags["version"] = record.version + record.size
        yield 1 + (state >> 8) % 100


class ReferenceSim:
    """A fixed, tiny discrete-event simulation in the program's style:
    generator clients woken from a heap of timers, updating records.

    It runs no program code and touches no program state, so no change to
    the program can move its speed; that moves only with the speed the
    machine gives this process, which on a shared VM swings by a factor of
    two between quiet and busy hours.  ``slice`` runs a fixed number of
    its events and records their rate.
    """

    def __init__(self) -> None:
        records = [_Record(key) for key in range(REFERENCE_RECORDS)]
        self.clients = [_client(records, seed) for seed in range(64)]
        self.heap: List[Tuple[int, int, int]] = []
        for client_id, client in enumerate(self.clients):
            next(client)
            heapq.heappush(self.heap, (0, client_id, client_id))
        self.seq = len(self.clients)
        self.rates: List[float] = []
        self.seconds = 0.0
        self.slice()  # warm up: later slices all start from a full heap
        self.rates.clear()
        self.seconds = 0.0

    def slice(self, *_signal: Any) -> None:
        """Run one slice; record its rate (events per second)."""
        heap, clients, seq = self.heap, self.clients, self.seq
        started = time.perf_counter()  # finer than the CPU clock
        for _ in range(REFERENCE_EVENTS):
            now, _seq, client_id = heapq.heappop(heap)
            delay = clients[client_id].send(now)
            seq += 1
            heapq.heappush(heap, (now + delay, seq, client_id))
        elapsed = time.perf_counter() - started
        self.seq = seq
        self.seconds += elapsed
        self.rates.append(REFERENCE_EVENTS / elapsed)


def timed(phase: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """Run ``phase`` while a ``SIGPROF`` timer runs a reference slice
    every ``REFERENCE_EVERY_S`` of CPU time.

    Returns the phase's result, its host CPU and wall seconds with the
    slices' time taken out, and ``ref_rate``: the slices' mean rate, i.e.
    the machine's speed averaged over the phase the same way the phase's
    own CPU time averages it.  The slices touch no program state, so the
    simulated run is unchanged.
    """
    loop = ReferenceSim()
    previous = signal.signal(signal.SIGPROF, loop.slice)
    signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S,
                     REFERENCE_EVERY_S)
    try:
        started, wall = host_clock(), time.perf_counter()
        result = phase()
        seconds, wall_seconds = host_clock() - started, \
            time.perf_counter() - wall
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    inside = loop.seconds
    if not loop.rates:  # a phase shorter than one timer period
        loop.slice()
    return result, {"seconds": seconds - inside,
                    "wall_seconds": wall_seconds - inside,
                    "ref_rate": sum(loop.rates) / len(loop.rates)}


def _client_sim(result: RunResult, shed: int) -> Dict[str, Any]:
    """Sim-time metrics of one client run (seed-deterministic)."""
    metrics = result.metrics
    # A shed op never completes: it counts as over any latency limit.
    latencies = sorted(list(metrics.latency_all.samples) + [math.inf] * shed)
    samples = len(latencies)
    sim: Dict[str, Any] = {
        "sim_qps": metrics.throughput_qps(),
        "sim_p50_us": percentile(latencies, 50.0) / 1e3,
        "sim_p99_us": percentile(latencies, 99.0) / 1e3,
        "latency_samples": samples,
        "sim_ckpt_ms": result.mean_checkpoint_ns() / 1e6,
        "checkpoints": result.checkpoint_count,
        "waf": metrics.waf(),
        "flash_bytes_per_user_byte": metrics.flash_amplification(),
        "erases_per_kop": metrics.erase_count() * 1e3 / samples,
    }
    if samples * 0.001 >= 10:  # >= 10 samples lie beyond the p99.9
        sim["sim_p999_us"] = percentile(latencies, 99.9) / 1e3
    sim["remapped_units"] = sum(r.remapped_units
                                for r in result.checkpoint_reports)
    sim["copied_units"] = sum(r.copied_units
                              for r in result.checkpoint_reports)
    return sim


def _loaded(config: SystemConfig) -> KvSystem:
    system = KvSystem(config)
    system.load()
    return system


def _host(setup_s: float, run: Dict[str, float],
          units: int) -> Dict[str, float]:
    """A repetition's host figures: set-up and measured phase."""
    return {"setup_s": setup_s, "run_s": run["seconds"],
            "run_wall_s": run["wall_seconds"], "ref_rate": run["ref_rate"],
            "units": units}


def run_client(workload: str, seed: int) -> Dict[str, Any]:
    """One repetition of a client workload: build, load, run, check."""
    config = CLIENT_CONFIGS[workload](seed)
    started = host_clock()
    system = _loaded(config)
    setup_s = host_clock() - started
    result, run = timed(system.run)

    checks: List[str] = []
    attempted = config.total_queries
    report = result.admission
    if config.arrivals is None:
        failed = attempted - result.metrics.operations
        if failed:
            checks.append(f"closed loop completed {result.metrics.operations}"
                          f" of {attempted} ops")
    else:
        shed = report.shed_total
        failed = shed
        if report.submitted != attempted:
            checks.append(f"open loop submitted {report.submitted} of "
                          f"{attempted} arrivals")
        if not report.reconciles():
            checks.append(f"open loop does not reconcile: submitted "
                          f"{report.submitted} != completed "
                          f"{report.completed} + shed {shed}")
        if report.completed != result.metrics.operations:
            checks.append(f"front door completed {report.completed} but "
                          f"{result.metrics.operations} ops were recorded")
    sim = _client_sim(result, failed if config.arrivals is not None else 0)
    for name in ("sim_p50_us", "sim_p99_us", "sim_p999_us"):
        if name in sim and not math.isfinite(sim[name]):
            checks.append(f"{name} is past every completed op (shed ops)")
    return {"host": _host(setup_s, run, result.metrics.operations),
            "sim": sim, "checks": checks,
            "attempted": attempted, "failed": failed}


def run_crash_failover(seed: int) -> Dict[str, Any]:
    """One repetition of ``crash-failover``: a seeded power-cut sweep with
    SPOR recovery, then a seeded kill-the-primary campaign recovered by
    warm promote and by cold snapshot restore, both in checkin mode."""
    from repro.common.errors import ReplicationError
    from repro.fault.harness import fault_sweep
    from repro.replication.campaign import (
        campaign_config,
        kill_primary_campaign,
    )

    # Set-up: the first system of the campaign's own configuration, built
    # cold in this interpreter (every crash point rebuilds it warm).
    started = host_clock()
    _loaded(campaign_config(seed=seed))
    setup_s = host_clock() - started

    checks: List[str] = []

    def sweep_and_campaign() -> Tuple[Any, Any]:
        sweep = fault_sweep("checkin", crash_points=CRASH_POINTS, seed=seed)
        try:
            return sweep, kill_primary_campaign(
                "checkin", crash_points=CRASH_POINTS, seed=seed)
        except ReplicationError as exc:
            checks.append(f"kill campaign broke the durability contract: "
                          f"{exc}")
            return sweep, None
    (sweep, campaign), run = timed(sweep_and_campaign)

    failed = len(sweep.failures())
    if not sweep.ok:
        checks.append(f"{failed} power-cut points broke durability, first: "
                      f"step {sweep.failures()[0].crash_step}")
    points = len(sweep.results)
    sim: Dict[str, Any] = {"sweep_digest": sweep.digest()}
    if campaign is None:
        failed += CRASH_POINTS
    else:
        failed += len(campaign.failures())
        if not campaign.ok:
            checks.append(f"{len(campaign.failures())} kill points broke "
                          "the durability contract")
        points += len(campaign.points)
        sim.update({
            "rto_ms": campaign.mean_rto_ns("warm") / 1e6,
            "cold_rto_ms": campaign.mean_rto_ns("snapshot") / 1e6,
            "campaign_digest": campaign.digest(),
        })
    if points != 2 * CRASH_POINTS:
        checks.append(f"ran {points} of {2 * CRASH_POINTS} crash points")
    return {"host": _host(setup_s, run, points),
            "sim": sim, "checks": checks,
            "attempted": 2 * CRASH_POINTS, "failed": failed}


def run_workload(workload: str, seed: int) -> Dict[str, Any]:
    """One repetition of ``workload`` at ``seed``."""
    if workload == "crash-failover":
        return run_crash_failover(seed)
    return run_client(workload, seed)


def run_knee() -> Dict[str, Any]:
    """The existing knee search, reported beside ``open-storm-observed``.

    ``bench_knee_probe`` takes no seed: its result is one fixed number
    per program version.
    """
    from repro.experiments.knee import bench_knee_probe
    return {"knee_ops": bench_knee_probe()}
