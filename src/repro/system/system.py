"""The full key-value store system: device + engine(s) + clients + triggers.

:class:`KvSystem` wires one configuration end to end and drives a run:

1. load the key population (instant, outside the measured phase);
2. start services (journal committer, device idle-GC daemon);
3. spawn the client pools and the checkpoint-trigger processes;
4. run the event loop until every operation budget drains;
5. optionally run final checkpoints, quiesce the device, stop daemons.

The checkpoint trigger mirrors the paper's policy: a checkpoint fires on a
time interval *or* when the journal quota fills, whichever comes first
(§IV-C).

Multi-tenant runs (``config.tenants``) shard the device into NVMe-style
namespaces: each tenant gets its own engine, journal, checkpointer,
client pool and RNG lineage on a private LBA range, while the controller,
FTL, GC and ISCE stay shared.  A single-tenant config takes the legacy
path and is bit-identical to the pre-namespace system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Union

from repro.common.errors import SimulationError
from repro.common.rng import SeededRng
from repro.engine.admission import AdmissionController, AdmissionReport
from repro.engine.checkpointer import CheckpointReport
from repro.engine.engine import StorageEngine
from repro.obs import BLAME
from repro.obs.blame import BlameCollector, BlameRunReport
from repro.obs.events import arm
from repro.obs.flightrec import FLIGHT, FlightRecorder
from repro.sim.core import Simulator
from repro.sim.process import Interrupt, Process, spawn
from repro.ssd.ssd import Ssd
from repro.system.config import SystemConfig
from repro.system.metrics import RunMetrics
from repro.telemetry import TELEMETRY, build_sampler
from repro.telemetry.sampler import TelemetryConfig, TelemetrySampler
from repro.trace import TRACE, install_tracer, summarize
from repro.trace.metrics import TraceSummary
from repro.workload.arrivals import arrival_times
from repro.workload.client import (
    ClientPool,
    LatencySink,
    OpenLoopClientPool,
)
from repro.workload.distributions import make_distribution
from repro.workload.records import RecordSizeModel
from repro.workload.ycsb import OperationGenerator, workload_by_name


@dataclass
class TenantRuntime:
    """One tenant's live components inside a :class:`KvSystem`."""

    index: int
    name: str
    view: SystemConfig
    """The tenant's effective single-tenant configuration."""

    engine: StorageEngine
    metrics: RunMetrics
    size_model: RecordSizeModel
    sink: LatencySink
    blame: Optional[BlameCollector] = None
    """Per-tenant blame collector; None when attribution is off."""

    admission: Optional[AdmissionController] = None
    """Front-door controller; None when the tenant has no front door."""


@dataclass
class TenantResult:
    """Per-tenant slice of a finished multi-tenant run."""

    name: str
    config: SystemConfig
    metrics: RunMetrics
    checkpoint_reports: List[CheckpointReport] = field(default_factory=list)
    admission: Optional[AdmissionReport] = None
    """Front-door reconciliation snapshot; None without a controller."""

    @property
    def operations(self) -> int:
        """Operations this tenant completed in the measured phase."""
        return self.metrics.operations


@dataclass
class RunResult:
    """Everything a finished run produced."""

    config: SystemConfig
    metrics: RunMetrics
    checkpoint_reports: List[CheckpointReport] = field(default_factory=list)
    trace_summary: Optional[TraceSummary] = None
    """Per-component stage and checkpoint-phase breakdown; None when the
    run was untraced."""

    telemetry: Optional[TelemetrySampler] = None
    """The run's telemetry sampler (series, watchdog events, health log);
    None when telemetry was off."""

    tenants: List[TenantResult] = field(default_factory=list)
    """Per-tenant results; a single entry mirroring the aggregate on a
    classic single-tenant run."""

    blame: Optional[BlameRunReport] = None
    """Per-tenant latency attribution (blame ledgers); None when the
    run was unblamed."""

    flightrec: Optional[FlightRecorder] = None
    """The run's black-box flight recorder (event ring + incident
    triggers); None when the recorder was unarmed."""

    wall_seconds: float = 0.0
    """Host wall-clock time :meth:`KvSystem.run` took — the simulator
    speed measurement behind the bench artifact's ``ops_per_sec``."""

    @property
    def ops_per_sec(self) -> float:
        """Completed operations per host wall-clock second (0 if untimed)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.metrics.operations / self.wall_seconds

    @property
    def checkpoint_count(self) -> int:
        """Checkpoints taken during the run."""
        return len(self.checkpoint_reports)

    def mean_checkpoint_ns(self) -> float:
        """Average checkpoint duration (0.0 when none ran)."""
        if not self.checkpoint_reports:
            return 0.0
        return sum(r.duration_ns for r in self.checkpoint_reports) / \
            len(self.checkpoint_reports)

    def tenant(self, name: str) -> TenantResult:
        """The tenant result named ``name``."""
        for entry in self.tenants:
            if entry.name == name:
                return entry
        raise KeyError(f"no tenant named {name!r}")

    @property
    def admission(self) -> Optional[AdmissionReport]:
        """Tenant 0's front-door report (the aggregate on single-tenant
        runs); None when no admission controller was in force."""
        return self.tenants[0].admission if self.tenants else None


class KvSystem:
    """One configured key-value store system instance."""

    def __init__(self, config: SystemConfig) -> None:
        config.check_capacity()
        self.config = config
        self.sim = Simulator()
        if config.trace or TRACE.enabled():
            install_tracer(self.sim, label=config.mode)
        self.flightrec: Optional[FlightRecorder] = None
        if config.flightrec or FLIGHT.enabled():
            self.flightrec = FlightRecorder()
            self.sim.flightrec = self.flightrec
            arm(self.sim)
        self.ssd = Ssd(self.sim, config.ssd_spec())
        self.metrics = RunMetrics(self.sim, self.ssd.stats)
        self.tenants: List[TenantRuntime] = []
        if config.tenants is None:
            engine = StorageEngine(self.sim, self.ssd, config.engine_config())
            # The single runtime *is* the aggregate: one metrics object,
            # recorded once per operation — the legacy behaviour.
            self.tenants.append(TenantRuntime(
                index=0, name="tenant0", view=config, engine=engine,
                metrics=self.metrics, size_model=config.size_model(),
                sink=self.metrics.record))
        else:
            layout = config.namespace_layout()
            self.ssd.configure_namespaces(layout)
            if len(layout) > 1:
                # Split the stripe between namespaces so N tenants' worth
                # of qualified streams cannot starve the free-block pool.
                allocator = self.ssd.ftl.allocator
                allocator.limit_stripe_width(
                    max(1, allocator.stripe_width // len(layout)))
            for index, spec in enumerate(config.tenants):
                view = config.tenant_view(index)
                engine = StorageEngine(self.sim, self.ssd.namespace(index),
                                       config.tenant_engine_config(index))
                metrics = RunMetrics(self.sim, self.ssd.stats)
                self.tenants.append(TenantRuntime(
                    index=index, name=spec.label(index), view=view,
                    engine=engine, metrics=metrics,
                    size_model=view.size_model(),
                    sink=self._tenant_sink(metrics)))
        for tenant in self.tenants:
            admission_cfg = tenant.view.effective_admission()
            if admission_cfg is not None:
                tenant.admission = AdmissionController(
                    self.sim, admission_cfg, label=tenant.name)
        self.engine = self.tenants[0].engine
        """Tenant 0's engine — the whole system's engine on the legacy
        single-tenant path (kept as an attribute for compatibility)."""
        self.size_model = self.tenants[0].size_model
        self.blame_report: Optional[BlameRunReport] = None
        if config.blame or BLAME.enabled():
            for tenant in self.tenants:
                tenant.blame = BlameCollector(tenant.name)
            self.blame_report = BlameRunReport(
                label=config.mode,
                tenants=[(tenant.name, tenant.blame)
                         for tenant in self.tenants])
            self.blame_report.label = BLAME.register(config.mode,
                                                     self.blame_report)
        self.telemetry: Optional[TelemetrySampler] = None
        if config.telemetry is not None or TELEMETRY.enabled():
            telemetry_config = (config.telemetry or TELEMETRY.config or
                                TelemetryConfig())
            self.telemetry = build_sampler(self, telemetry_config,
                                           label=config.mode)
            self.telemetry.label = TELEMETRY.register(config.mode,
                                                      self.telemetry)
            if self.blame_report is not None:
                # SLO-watchdog events get stamped with the dominant blame
                # category observed so far — "the SLO broke, and here is
                # the stage that is eating the time".
                report = self.blame_report
                self.telemetry.watchdogs.blame_annotator = \
                    lambda: report.aggregate().dominant_category()
        self._loaded = False
        self._triggers: List[Process] = []

    def _tenant_sink(self, metrics: RunMetrics) -> LatencySink:
        def record(operation, latency_ns, during_checkpoint) -> None:
            metrics.record(operation, latency_ns, during_checkpoint)
            self.metrics.record(operation, latency_ns, during_checkpoint)
        return record

    # ------------------------------------------------------------------
    def load(self) -> None:
        """Populate every tenant's key population (instant)."""
        if self._loaded:
            return
        for tenant in self.tenants:
            tenant.engine.load(
                tenant.size_model.sizes(tenant.view.num_keys))
        self._loaded = True

    def make_client_pool(self, tenant: Optional[TenantRuntime] = None
                         ) -> Union[ClientPool, OpenLoopClientPool]:
        """Build the client pool for one tenant (default: 0).

        Closed-loop YCSB threads by default; an :class:`ArrivalSpec` on
        the tenant's view swaps in an open-loop dispatcher.  The RNG
        lineages of the two paths are disjoint forks of the same root, so
        enabling arrivals never perturbs a closed-loop run's streams.
        """
        if tenant is None:
            tenant = self.tenants[0]
        view = tenant.view
        root = SeededRng(view.seed)
        spec = workload_by_name(view.workload)
        label = tenant.name if self.config.tenants is not None else ""
        if view.arrivals is not None:
            open_rng = root.fork("open-loop")
            keys = make_distribution(view.distribution, view.num_keys,
                                     open_rng.fork("keys"))
            generator = OperationGenerator(spec, keys,
                                           open_rng.fork("ops"))
            times = arrival_times(view.arrivals, root.fork("arrivals"),
                                  view.total_queries)
            return OpenLoopClientPool(self.sim, tenant.engine, generator,
                                      times, admission=tenant.admission,
                                      on_complete=tenant.sink, label=label,
                                      blame=tenant.blame)
        generators = []
        for thread in range(view.threads):
            thread_rng = root.fork(f"thread{thread}")
            keys = make_distribution(view.distribution,
                                     view.num_keys,
                                     thread_rng.fork("keys"))
            generators.append(OperationGenerator(spec, keys,
                                                 thread_rng.fork("ops")))
        return ClientPool(self.sim, tenant.engine, generators,
                          view.total_queries,
                          on_complete=tenant.sink, label=label,
                          blame=tenant.blame, admission=tenant.admission)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the whole experiment; returns the results."""
        wall_started = time.perf_counter()
        self.load()
        for tenant in self.tenants:
            tenant.engine.start()
        if self.telemetry is not None:
            self.telemetry.start()
        self.metrics.start_measurement()
        if self.config.tenants is not None:
            for tenant in self.tenants:
                tenant.metrics.start_measurement()

        pool_done = [self.make_client_pool(tenant).start()
                     for tenant in self.tenants]
        for tenant in self.tenants:
            suffix = f"{tenant.name}." if self.config.tenants is not None \
                else ""
            self._triggers.append(
                spawn(self.sim, self._checkpoint_trigger(tenant),
                      name=f"{suffix}ckpt-trigger"))

        for done in pool_done:
            self._drive_until(done)

        # Let in-flight checkpoints finish before tearing anything down.
        while any(tenant.engine.checkpoint_running
                  for tenant in self.tenants):
            if not self.sim.step():
                raise SimulationError("event loop drained mid-checkpoint")

        for tenant in self.tenants:
            if tenant.view.final_checkpoint and \
                    not tenant.engine.degraded and \
                    len(tenant.engine.journal.active_jmt):
                final = spawn(self.sim, tenant.engine.checkpoint(),
                              name=f"final-ckpt{tenant.index}")
                self._drive_until(final)

        quiesced = spawn(self.sim, self.ssd.quiesce(), name="quiesce")
        self._drive_until(quiesced)

        self.metrics.finish_measurement()
        if self.config.tenants is not None:
            for tenant in self.tenants:
                tenant.metrics.finish_measurement()
        self._stop_services()
        self.sim.run()  # drain whatever remains (completions, programs)
        self.metrics.capture_device_state(self.ssd)
        if self.config.tenants is not None:
            for tenant in self.tenants:
                tenant.metrics.capture_device_state(self.ssd)
        tracer = self.sim.tracer
        all_reports: List[CheckpointReport] = []
        tenant_results: List[TenantResult] = []
        for tenant in self.tenants:
            reports = list(tenant.engine.checkpoint_reports)
            all_reports.extend(reports)
            tenant_results.append(TenantResult(
                name=tenant.name, config=tenant.view,
                metrics=tenant.metrics, checkpoint_reports=reports,
                admission=tenant.admission.report(tenant.name)
                if tenant.admission is not None else None))
        return RunResult(config=self.config, metrics=self.metrics,
                         checkpoint_reports=all_reports,
                         trace_summary=summarize(tracer)
                         if tracer.enabled else None,
                         telemetry=self.telemetry,
                         tenants=tenant_results,
                         blame=self.blame_report,
                         flightrec=self.flightrec,
                         wall_seconds=time.perf_counter() - wall_started)

    def checkpoint_now(self) -> Optional[CheckpointReport]:
        """Synchronously run one checkpoint (helper for experiments)."""
        proc = spawn(self.sim, self.engine.checkpoint(), name="manual-ckpt")
        self._drive_until(proc)
        return proc.value

    def _drive_until(self, process: Process) -> None:
        self.sim.run_until_triggered(process, name=process.name)
        if not process.ok:
            raise process.exception

    def _stop_services(self) -> None:
        if self.telemetry is not None:
            self.telemetry.sample_once()  # closing sample at teardown time
            self.telemetry.stop()
        for trigger in self._triggers:
            if trigger.alive:
                trigger.interrupt("run finished")
        self._triggers = []
        for tenant in self.tenants:
            tenant.engine.shutdown()

    # ------------------------------------------------------------------
    def _checkpoint_trigger(self, tenant: TenantRuntime
                            ) -> Generator[Any, Any, None]:
        view = tenant.view
        engine = tenant.engine
        last_checkpoint = self.sim.now
        try:
            while True:
                yield view.trigger_poll_ns
                if engine.checkpoint_running or engine.degraded:
                    continue
                if len(engine.journal.active_jmt) == 0:
                    continue
                interval_due = (self.sim.now - last_checkpoint >=
                                view.checkpoint_interval_ns)
                quota_due = (engine.journal_pressure() >=
                             view.checkpoint_journal_quota)
                if not (interval_due or quota_due):
                    continue
                yield from engine.checkpoint()
                last_checkpoint = self.sim.now
        except Interrupt:
            return


def run_config(config: SystemConfig) -> RunResult:
    """Build, run and tear down one system; the main experiment entry."""
    return KvSystem(config).run()
