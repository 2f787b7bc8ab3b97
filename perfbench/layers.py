"""Per-layer tracing from outside the program.

:class:`Recorder` wraps public methods of each layer's classes (and the
process entry points that own a layer's work) before a system is built.
It records one span per call as ``(layer, fn, start, end, parent)`` in
memory, on two clocks: host ``perf_counter`` seconds for where the
simulator's time goes, and simulated ns for what the simulated system
did.  A layer's self time is its spans' host time minus their child
spans'.  Spans are written out when the run ends.

Most layer methods are generators driven by the event kernel, so a
wrapped generator drives the real one through ``send``/``throw``/
``close``, timing each resumption; it yields exactly what the inner
generator yields and schedules nothing, so a traced run executes the
same events as an untraced one (``run.py`` checks that it does).
Completion times of returned events (SSD commands, journal commits,
admission tickets) are read by watching ``Event._resolve`` rather than
by adding callbacks, which would add events.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from bisect import bisect_right
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checkin.isce import InStorageCheckpointEngine
from repro.engine.admission import AdmissionController
from repro.engine.checkpointer import CheckpointStrategy
from repro.engine.engine import MemoryCache, StorageEngine
from repro.engine.journal import JournalManager
from repro.flash.array import FlashArray
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GarbageCollector
from repro.obs.blame import BlameCollector
from repro.obs.flightrec import FlightRecorder
from repro.sim.core import Event, Simulator
from repro.sim.process import Process
from repro.ssd.cache import DramReadCache
from repro.ssd.controller import SsdController
from repro.ssd.ssd import Ssd
from repro.system.system import KvSystem
from repro.telemetry.sampler import TelemetrySampler
from repro.trace.tracer import Tracer
from repro.workload.client import OpenLoopClientPool
from repro.workload.ycsb import OperationGenerator

import repro.fault.harness as fault_harness
import repro.replication.campaign as replication_campaign
from repro.replication.replica import ReplicatedPair

from workloads import percentile

OBS_PLANES = ("trace", "obs.blame", "obs.flightrec", "telemetry")
"""Layers whose wrappers must record zero calls unless a plane is armed."""


def _strategy_classes() -> List[type]:
    """Every checkpoint strategy that defines its own ``run``."""
    found, todo = [], [CheckpointStrategy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and not inspect.isabstract(cls):
            found.append(cls)
    return found


class Recorder:
    """Installs the layer wrappers and keeps their spans and counters."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []
        self._fn_ids: Dict[Tuple[str, str], int] = {}
        # One entry per span, column-wise to keep memory small.
        self.s_fn = array("i")
        self.s_parent = array("q")
        self.s_host0 = array("d")
        self.s_host1 = array("d")
        self.s_sim0 = array("q")
        self.s_sim1 = array("q")
        self.s_self = array("d")
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counts: Dict[str, int] = {
            "schedule": 0, "processes": 0, "mem_lookups": 0, "mem_hits": 0,
            "read_cache_gets": 0, "read_cache_hits": 0, "gc_victims": 0}
        self._watched: Dict[int, Tuple[Event, str, int]] = {}
        self.waits: Dict[str, List[int]] = {
            "ssd_cmd": [], "journal_commit": [], "admission": []}
        self._open_loop: Dict[int, List[Any]] = {}
        self.dispatch_lag_max = 0
        self.verified_reads: List[int] = []
        self._last_build_host = 0.0
        self.rerun_host: List[float] = []
        self._by_fn: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _fn_id(self, layer: str, fn: str) -> int:
        key = (layer, fn)
        if key not in self._fn_ids:
            self._fn_ids[key] = len(self.names)
            self.names.append(key)
        return self._fn_ids[key]

    def _open(self, fn_id: int, sim_now: int) -> int:
        span = len(self.s_fn)
        self.s_fn.append(fn_id)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_host0.append(perf_counter())
        self.s_host1.append(0.0)
        self.s_sim0.append(sim_now)
        self.s_sim1.append(sim_now)
        self.s_self.append(0.0)
        return span

    def _close(self, span: int, sim: Optional[Simulator]) -> None:
        self.s_host1[span] = perf_counter()
        if sim is not None:
            self.s_sim1[span] = sim.now

    def _account(self, frame: List[Any], started: float) -> None:
        """Close one resumption: charge its self time, credit the parent."""
        elapsed = perf_counter() - started
        self._stack.pop()
        self.s_self[frame[0]] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: Any, attr: str, layer: str,
             after: Optional[Callable[..., None]] = None,
             when: Optional[Callable[[tuple], bool]] = None) -> None:
        """Span every call of ``owner.attr`` (a class or a module).

        ``after(args, result)`` sees each call's result; calls for which
        ``when(args)`` is false run unwrapped.
        """
        orig = getattr(owner, attr)
        fn_id = self._fn_id(layer, attr)
        rec = self
        stack = self._stack

        def sim_of(args: tuple) -> Optional[Simulator]:
            sim = getattr(args[0], "sim", None) if args else None
            return sim if isinstance(sim, Simulator) else None

        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                inner = orig(*args, **kwargs)
                if when is not None and not when(args):
                    return (yield from inner)
                sim = sim_of(args)
                span = rec._open(fn_id, sim.now if sim is not None else -1)
                value: Any = None
                thrown: Optional[BaseException] = None
                while True:
                    frame = [span, 0.0]
                    stack.append(frame)
                    started = perf_counter()
                    try:
                        if thrown is None:
                            yielded = inner.send(value)
                        else:
                            exc, thrown = thrown, None
                            yielded = inner.throw(exc)
                    except StopIteration as stop:
                        rec._account(frame, started)
                        rec._close(span, sim)
                        if after is not None:
                            after(args, stop.value)
                        return stop.value
                    except BaseException:
                        rec._account(frame, started)
                        rec._close(span, sim)
                        raise
                    rec._account(frame, started)
                    try:
                        value = yield yielded
                    except GeneratorExit:
                        inner.close()
                        rec._close(span, sim)
                        raise
                    except BaseException as exc:  # forwarded into inner
                        thrown, value = exc, None
            self._patch(owner, attr, gen_wrapper)
            return

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args):
                return orig(*args, **kwargs)
            sim = sim_of(args)
            span = rec._open(fn_id, sim.now if sim is not None else -1)
            frame = [span, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec._account(frame, started)
                rec._close(span, sim)
            if after is not None:
                after(args, result)
            return result
        self._patch(owner, attr, wrapper)

    def count(self, owner: type, attr: str, counter: str) -> None:
        """Count calls of a hot method without timing them."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return orig(*args, **kwargs)
        self._patch(owner, attr, counted)

    def watch(self, event: Event, kind: str, sim: Simulator) -> None:
        """Time ``event`` from now until it resolves (sim ns)."""
        if event.triggered:
            self.waits[kind].append(0)
        else:
            self._watched[id(event)] = (event, kind, sim.now)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer; call before any system is built."""
        rec = self
        counts = self.counts
        watched = self._watched
        waits = self.waits

        # sim: kernel work counters, and event completion times.
        self.count(Simulator, "schedule", "schedule")
        self.count(Process, "__init__", "processes")
        resolve = Event._resolve

        def watched_resolve(event: Event, value: Any, exc: Any) -> None:
            entry = watched.pop(id(event), None) if watched else None
            if entry is not None:
                waits[entry[1]].append(event.sim.now - entry[2])
            resolve(event, value, exc)
        self._patch(Event, "_resolve", watched_resolve)

        # workload
        def lag(args: tuple, _op: Any) -> None:
            pool = rec._open_loop.get(id(args[0]))
            if pool is not None:
                pool_obj, index = pool[0], pool[1]
                pool[1] += 1
                due = pool[2] + pool_obj.arrivals[index]
                rec.dispatch_lag_max = max(rec.dispatch_lag_max,
                                           pool_obj.sim.now - due)
        self.wrap(OperationGenerator, "next_operation", "workload", lag)
        pool_start = OpenLoopClientPool.start

        def start_open_loop(pool: OpenLoopClientPool) -> Any:
            rec._open_loop[id(pool.generator)] = [pool, 0, pool.sim.now]
            return pool_start(pool)
        self._patch(OpenLoopClientPool, "start", start_open_loop)

        # engine
        for name in ("put", "get", "checkpoint"):
            self.wrap(StorageEngine, name, "engine")

        def mem_hit(_args: tuple, version: Any) -> None:
            counts["mem_lookups"] += 1
            counts["mem_hits"] += version is not None
        self.wrap(MemoryCache, "lookup", "engine", mem_hit)
        self.wrap(JournalManager, "submit", "engine",
                  lambda args, event: rec.watch(event, "journal_commit",
                                                args[0].sim))
        self.wrap(JournalManager, "_commit_loop", "engine")
        self.wrap(JournalManager, "freeze_when_quiet", "engine")
        for cls in _strategy_classes():
            self.wrap(cls, "run", "engine")

        def admitted(args: tuple, ticket: Any) -> None:
            if ticket.queued:
                rec.watch(ticket.event, "admission", args[0].sim)
            elif not ticket.shed:
                waits["admission"].append(0)
        self.wrap(AdmissionController, "try_admit", "engine", admitted)

        # checkin (the SSD-side checkpoint engine)
        for name in ("execute_cow", "checkpoint_complete", "delete_logs"):
            self.wrap(InStorageCheckpointEngine, name, "checkin")

        # ssd
        self.wrap(Ssd, "submit", "ssd",
                  lambda args, event: rec.watch(event, "ssd_cmd",
                                                args[0].sim))
        self.wrap(SsdController, "_handle", "ssd")

        def cache_hit(_args: tuple, tags: Any) -> None:
            counts["read_cache_gets"] += 1
            counts["read_cache_hits"] += tags is not None
        self.wrap(DramReadCache, "get", "ssd", cache_hit)

        # ftl, its garbage collector, flash
        for name in ("write", "read", "remap", "trim", "touch_map"):
            self.wrap(Ftl, name, "ftl")
        self.wrap(FlashArray, "mapping_read", "ftl")

        def victim(_args: tuple, reclaimed: Any) -> None:
            counts["gc_victims"] += bool(reclaimed)
        self.wrap(GarbageCollector, "collect_once", "ftl.gc", victim)
        self.wrap(GarbageCollector, "ensure_free_blocks", "ftl.gc")
        self.wrap(SsdController, "_gc_loop", "ftl.gc")
        for name in ("read_page", "program_page", "erase_block"):
            self.wrap(FlashArray, name, "flash")

        # observability planes.  A host-clock Tracer (the fault harness
        # times SPOR recovery with one) is not the trace plane.
        for name in ("begin", "end"):
            self.wrap(Tracer, name, "trace",
                      when=lambda args: args[0]._sim is not None)
        self.wrap(BlameCollector, "record", "obs.blame")
        self.wrap(FlightRecorder, "record", "obs.flightrec")
        self.wrap(TelemetrySampler, "sample_once", "telemetry")

        # fault and replication campaigns
        build = KvSystem.__init__

        def building(system: KvSystem, *args: Any, **kwargs: Any) -> None:
            rec._last_build_host = perf_counter()
            build(system, *args, **kwargs)
        self._patch(KvSystem, "__init__", building)
        cut = fault_harness.power_cut

        def sweep_cut(*args: Any, **kwargs: Any) -> Any:
            rec.rerun_host.append(perf_counter() - rec._last_build_host)
            return cut(*args, **kwargs)
        self._patch(fault_harness, "power_cut", sweep_cut)
        self.wrap(fault_harness, "recover_device", "fault")
        self.wrap(ReplicatedPair, "promote", "replication",
                  lambda _args, report: rec.verified_reads.append(
                      report.verified_reads))
        self.wrap(replication_campaign, "cold_restore", "replication")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write every span as TSV: layer, fn, host start/end (s), sim
        start/end (ns, -1 when the callee has no simulator), parent span
        (-1 for none) and host self time (s)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlayer\tfn\thost_start\thost_end\tsim_start\t"
                      "sim_end\tparent\thost_self\n")
            for span, fn_id in enumerate(self.s_fn):
                layer, fn = self.names[fn_id]
                out.write(f"{span}\t{layer}\t{fn}\t{self.s_host0[span]:.9f}\t"
                          f"{self.s_host1[span]:.9f}\t{self.s_sim0[span]}\t"
                          f"{self.s_sim1[span]}\t{self.s_parent[span]}\t"
                          f"{self.s_self[span]:.9f}\n")

    def _spans_of(self, layer: str, fn: str) -> List[int]:
        if self._by_fn is None:
            self._by_fn = {}
            for span, fn_id in enumerate(self.s_fn):
                self._by_fn.setdefault(fn_id, []).append(span)
        return self._by_fn.get(self._fn_ids.get((layer, fn), -1), [])

    def _sim_durations(self, layer: str, fn: str) -> List[int]:
        return [self.s_sim1[s] - self.s_sim0[s]
                for s in self._spans_of(layer, fn)]

    def _calls(self, layer: str) -> int:
        return sum(len(self._spans_of(lay, fn))
                   for lay, fn in self.names if lay == layer)

    def report(self, record: Dict[str, Any]) -> Dict[str, float]:
        """Every per-layer metric of one traced repetition."""
        ops = record["host"]["units"]
        per_op = 1.0 / ops
        self_s: Dict[str, float] = {}
        for span, fn_id in enumerate(self.s_fn):
            layer = self.names[fn_id][0]
            self_s[layer] = self_s.get(layer, 0.0) + self.s_self[span]

        def self_us(layer: str) -> float:
            return self_s.get(layer, 0.0) * 1e6 * per_op

        def us_at(samples_ns: List[int], pct: float) -> float:
            return percentile(sorted(samples_ns), pct) / 1e3

        sim = record["sim"]
        checkpoints = sim.get("checkpoints", 0)
        values: Dict[str, float] = {}
        # sim: what the kernel did, and host time no wrapped layer took.
        values["sim.schedule_per_op"] = self.counts["schedule"] * per_op
        values["sim.processes_per_op"] = self.counts["processes"] * per_op
        values["sim.self_us_per_op"] = max(
            0.0, record["host"]["run_wall_s"] - sum(self_s.values())) \
            * 1e6 * per_op
        # workload
        values["workload.self_us_per_op"] = self_us("workload")
        values["workload.dispatch_lag_us_max"] = self.dispatch_lag_max / 1e3
        # engine
        values["engine.self_us_per_op"] = self_us("engine")
        lookups = self.counts["mem_lookups"]
        values["engine.mem_hit_ratio"] = \
            self.counts["mem_hits"] / lookups if lookups else 0.0
        values["engine.journal_commit_sim_us_p50"] = us_at(
            self.waits["journal_commit"], 50.0)
        freezes = self._sim_durations("engine", "freeze_when_quiet")
        values["engine.ckpt_freeze_sim_ms"] = \
            sum(freezes) / len(freezes) / 1e6 if freezes else 0.0
        runs = self._sim_durations("engine", "run")
        values["engine.ckpt_strategy_sim_ms"] = \
            sum(runs) / len(runs) / 1e6 if runs else 0.0
        values["engine.ckpt_overlap_p99_us"] = us_at(
            self._overlapping_ops(), 99.0)
        values["engine.admission_wait_sim_us_p99"] = us_at(
            self.waits["admission"], 99.0)
        # checkin
        moved = sim.get("remapped_units", 0) + sim.get("copied_units", 0)
        values["checkin.remap_frac"] = \
            sim.get("remapped_units", 0) / moved if moved else 0.0
        values["checkin.cow_sim_ms"] = \
            self._cow_busy_ns() / checkpoints / 1e6 if checkpoints else 0.0
        values["checkin.self_us_per_ckpt"] = \
            self_s.get("checkin", 0.0) * 1e6 / checkpoints \
            if checkpoints else 0.0
        # ssd
        values["ssd.cmds_per_op"] = \
            len(self._spans_of("ssd", "submit")) * per_op
        values["ssd.cmd_sim_us_p50"] = us_at(self.waits["ssd_cmd"], 50.0)
        values["ssd.cmd_sim_us_p99"] = us_at(self.waits["ssd_cmd"], 99.0)
        gets = self.counts["read_cache_gets"]
        values["ssd.read_cache_hit_ratio"] = \
            self.counts["read_cache_hits"] / gets if gets else 0.0
        values["ssd.self_us_per_op"] = self_us("ssd")
        # ftl
        values["ftl.self_us_per_op"] = self_us("ftl")
        values["ftl.map_reads_per_op"] = \
            len(self._spans_of("ftl", "mapping_read")) * per_op
        values["ftl.write_sim_us_p99"] = us_at(
            self._sim_durations("ftl", "write"), 99.0)
        # ftl.gc
        victims = self.counts["gc_victims"]
        values["ftl.gc.victims_per_kop"] = victims * 1e3 * per_op
        values["ftl.gc.migrated_per_victim"] = \
            self._programs_under_gc() / victims if victims else 0.0
        stalls = self._sim_durations("ftl.gc", "ensure_free_blocks")
        values["ftl.gc.fg_stall_sim_ms"] = sum(stalls) / 1e6
        values["ftl.gc.self_us_per_op"] = self_us("ftl.gc")
        # flash
        values["flash.reads_per_op"] = \
            len(self._spans_of("flash", "read_page")) * per_op
        values["flash.programs_per_op"] = \
            len(self._spans_of("flash", "program_page")) * per_op
        values["flash.program_sim_us_p99"] = us_at(
            self._sim_durations("flash", "program_page"), 99.0)
        values["flash.self_us_per_op"] = self_us("flash")
        # observability planes
        values["trace.self_us_per_op"] = self_us("trace")
        values["obs.blame_self_us_per_op"] = self_us("obs.blame")
        values["obs.flightrec_self_us_per_op"] = self_us("obs.flightrec")
        values["telemetry.self_us_per_op"] = self_us("telemetry")
        values["obs.plane_calls_per_op"] = sum(
            self._calls(layer) for layer in OBS_PLANES) * per_op
        # fault and replication
        values["fault.rerun_host_ms"] = _mean(self.rerun_host) * 1e3
        values["fault.spor_host_ms"] = _mean(self._host_durations(
            "fault", "recover_device")) * 1e3
        values["replication.promote_host_ms"] = _mean(self._host_durations(
            "replication", "promote")) * 1e3
        values["replication.cold_restore_host_ms"] = _mean(
            self._host_durations("replication", "cold_restore")) * 1e3
        values["replication.promote_verified_reads"] = \
            _mean([float(n) for n in self.verified_reads])
        values["replication.cold_rto_ms"] = sim.get("cold_rto_ms", 0.0)
        return values

    def _host_durations(self, layer: str, fn: str) -> List[float]:
        return [self.s_host1[s] - self.s_host0[s]
                for s in self._spans_of(layer, fn)]

    def _overlapping_ops(self) -> List[int]:
        """Sim durations of engine put/get calls that started while a
        checkpoint was running."""
        windows = sorted((self.s_sim0[s], self.s_sim1[s])
                         for s in self._spans_of("engine", "checkpoint"))
        starts = [lo for lo, _hi in windows]
        out = []
        for fn in ("put", "get"):
            for span in self._spans_of("engine", fn):
                start = self.s_sim0[span]
                index = bisect_right(starts, start) - 1
                if index >= 0 and start < windows[index][1]:
                    out.append(self.s_sim1[span] - start)
        return out

    def _cow_busy_ns(self) -> int:
        """Sim time during which at least one CoW batch was executing
        (batches of one checkpoint run in parallel)."""
        busy, reach = 0, -1
        for lo, hi in sorted((self.s_sim0[s], self.s_sim1[s])
                             for s in self._spans_of("checkin",
                                                     "execute_cow")):
            if hi > reach:
                busy += hi - max(lo, reach)
                reach = hi
        return busy

    def _programs_under_gc(self) -> int:
        """Flash programs whose span chain runs through a GC victim pass
        (the valid data a victim forced the device to rewrite)."""
        gc_id = self._fn_ids.get(("ftl.gc", "collect_once"))
        program_id = self._fn_ids.get(("flash", "program_page"))
        if gc_id is None or program_id is None:
            return 0
        total = 0
        for span, fn_id in enumerate(self.s_fn):
            if fn_id != program_id:
                continue
            parent = self.s_parent[span]
            while parent >= 0 and self.s_fn[parent] != gc_id:
                parent = self.s_parent[parent]
            total += parent >= 0
        return total


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
