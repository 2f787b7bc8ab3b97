"""Seeded crash campaigns: one reference-run/crash-point loop, one
cut → recover → verify step, one result type.

A campaign (a) runs a workload once to completion to learn its event-step
count ``T``, then (b) replays the identical workload once per seeded
crash point on a fresh system, pulling the plug after a seeded-random
number of steps in ``[1, T]`` (:func:`iter_crash_points`).  Every power
cut goes through :func:`_cut_and_verify`, which recovers the device and
asserts:

* the SPOR scan rebuilds exactly the pre-crash mapping table (nothing the
  capacitor promised to hold was lost, nothing is invented);
* every FTL structural invariant holds after recovery — and after every
  checkpoint that completed before the crash — and namespaces stay
  physically disjoint on a multi-tenant device;
* the recovered KV store satisfies ``acked <= recovered <= current`` per
  tenant: no acknowledged commit is lost and no version is invented.

Three sweeps share that core: :func:`fault_sweep` (closed-loop scripted
clients), :func:`open_loop_crash_sweep` (a bursty stream behind a tiny
admission front door) and :func:`~repro.fault.media.media_sweep` (seeded
NAND failures).  The replication kill-the-primary campaign reuses
:func:`run_campaign` and :class:`CampaignResult`.  Everything is derived
from one root seed, so a campaign is exactly reproducible: same seed,
same crash points, same :meth:`CampaignResult.digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

from repro.common.errors import RecoveryError, SimulationError
from repro.common.rng import SeededRng
from repro.common.units import MIB
from repro.engine.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionTicket,
)
from repro.engine.engine import StorageEngine
from repro.engine.recovery import check_durability
from repro.fault.crash import CrashReport, power_cut, recover_device
from repro.fault.invariants import (
    check_ftl_invariants,
    check_namespace_isolation,
)
from repro.sim.process import spawn
from repro.system.config import SystemConfig, TenantSpec, tiny_config
from repro.system.system import KvSystem
from repro.trace.tracer import Tracer
from repro.workload.arrivals import ArrivalSpec, arrival_times


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class CrashPointResult:
    """Outcome of one cut → recover → verify cycle."""

    index: int = 0
    crash_step: int = 0
    acked_keys: int = 0
    report: Optional[CrashReport] = None
    mapping_mismatches: int = 0
    checkpoint_violations: List[str] = field(default_factory=list)
    invariant_violations: List[str] = field(default_factory=list)
    durability_error: str = ""
    recovered_digest: str = ""
    recovery_wall_ns: int = 0
    """Host wall-clock time of the SPOR recovery scan (simulated time is
    frozen after a power cut, so recovery cost is measured on the host's
    monotonic clock via :meth:`repro.trace.tracer.Tracer.wallclock`)."""

    @property
    def label(self) -> str:
        """Where this point sits in its campaign (failure reports)."""
        return f"crash point {self.index} (step {self.crash_step})"

    @property
    def digest_line(self) -> str:
        """This point's contribution to :meth:`CampaignResult.digest`."""
        return f"{self.crash_step}:{self.recovered_digest}"

    def problems(self) -> List[str]:
        """Every broken check, most specific first (empty when clean)."""
        problems = self.invariant_violations + self.checkpoint_violations
        if self.durability_error:
            problems.append(self.durability_error)
        if self.mapping_mismatches:
            problems.append(
                f"{self.mapping_mismatches} SPOR mapping mismatches")
        return problems

    @property
    def ok(self) -> bool:
        """True when recovery was exact and every invariant held."""
        return not self.problems()


@dataclass
class CampaignResult:
    """All points of one seeded campaign (power-cut sweep, media grid or
    kill-the-primary campaign).

    ``total_steps`` is the reference run's event-step count (0 for the
    media grid, whose points are error rates rather than crash steps).
    """

    mode: str
    seed: int
    total_steps: int
    points: List[Any] = field(default_factory=list)

    @property
    def results(self) -> List[Any]:
        """Read-only alias of :attr:`points`."""
        return self.points

    @property
    def ok(self) -> bool:
        """True when every point passed every check."""
        return all(point.ok for point in self.points)

    def failures(self) -> List[Any]:
        """The points that lost data or broke an invariant."""
        return [point for point in self.points if not point.ok]

    def digest(self) -> str:
        """Stable fingerprint of the campaign (determinism checks): the
        SHA-256 of every point's ``digest_line``, truncated to 16 hex."""
        digest = hashlib.sha256()
        for point in self.points:
            digest.update(point.digest_line.encode())
        return digest.hexdigest()[:16]

    # -- kill-the-primary aggregates (points carry ``reports``) ---------
    def mean_rto_ns(self, strategy: str) -> float:
        """Mean RTO of one recovery strategy over the points that ran it."""
        return _mean([point.reports[strategy].rto_ns
                      for point in self.points if strategy in point.reports])

    def mean_rpo_ops(self, strategy: str) -> float:
        """Mean RPO (lost ops) of one recovery strategy."""
        return _mean([point.reports[strategy].rpo_ops
                      for point in self.points if strategy in point.reports])

    def rto_speedup(self) -> float:
        """Cold mean RTO over warm mean RTO (>1: warm promote is faster)."""
        warm = self.mean_rto_ns("warm")
        cold = self.mean_rto_ns("snapshot")
        return cold / warm if warm > 0 else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# The campaign core
# ---------------------------------------------------------------------------


def iter_crash_points(seed: int, total_steps: int, crash_points: int,
                      namespace: str
                      ) -> Generator[Tuple[int, int, SeededRng], None, None]:
    """Enumerate seeded crash instants: yields ``(index, step, rng)``.

    One root seed forked through ``namespace`` yields per-point RNGs, each
    choosing a crash step uniformly in ``[1, total_steps]``.  The yielded
    ``rng`` is the point's private lineage — fork it again (e.g.
    ``rng.fork("tear")``) for any further randomness so points stay
    independent.  Identical (seed, namespace, total_steps) always
    reproduce identical instants.
    """
    rng = SeededRng(seed).fork(namespace)
    for index in range(crash_points):
        point_rng = rng.fork(f"point{index}")
        yield index, point_rng.randint(1, total_steps), point_rng


def run_campaign(mode: str, seed: int, crash_points: int, namespace: str,
                 reference: Callable[[], int],
                 run_point: Callable[[int, int, SeededRng], Any]
                 ) -> CampaignResult:
    """The one crash-campaign loop.

    ``reference()`` runs the workload once and returns its event-step
    count ``T``; ``run_point(index, crash_step, rng)`` then replays it on
    a fresh system for each seeded point of :func:`iter_crash_points`
    and returns the point's result (anything with ``ok`` and
    ``digest_line``).
    """
    result = CampaignResult(mode=mode, seed=seed, total_steps=reference())
    for index, crash_step, point_rng in iter_crash_points(
            seed, result.total_steps, crash_points, namespace):
        result.points.append(run_point(index, crash_step, point_rng))
    return result


class _Run(NamedTuple):
    """A loaded, started system running a crash workload: one
    acked-versions dict per tenant, the processes that must finish, and
    the FTL invariant violations seen after each completed checkpoint."""

    system: KvSystem
    ackeds: List[Dict[int, int]]
    procs: List[Any]
    ckpt_violations: List[str]


def _drive(run: _Run, what: str, max_steps: Optional[int] = None) -> int:
    """Step ``run`` until its processes finish or ``max_steps`` steps
    were taken; returns the steps taken."""
    steps = 0
    while (not all(proc.triggered for proc in run.procs)
           and (max_steps is None or steps < max_steps)):
        if not run.system.sim.step():
            raise SimulationError(f"{what} drained early")
        steps += 1
    return steps


def _reference_steps(run: _Run, what: str) -> int:
    """Drive a reference run to completion; it must finish cleanly."""
    steps = _drive(run, f"{what} reference run")
    for proc in run.procs:
        if not proc.ok:
            raise proc.exception
    if run.ckpt_violations:
        raise SimulationError(f"invariants already broken in reference run: "
                              f"{run.ckpt_violations[:3]}")
    return steps


def _state_digest(versions: Dict[int, int]) -> str:
    payload = ",".join(f"{key}:{version}"
                       for key, version in sorted(versions.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


PointT = TypeVar("PointT", bound=CrashPointResult)


def _cut_and_verify(run: _Run, rng: SeededRng, point: PointT) -> PointT:
    """Power-cut ``run`` now, recover the device and verify the result.

    Fills ``point``'s shared fields and returns it.  ``rng`` tears the
    in-flight flash programs.
    """
    system = run.system
    ftl = system.ssd.ftl
    tenanted = system.config.tenants is not None
    acked_at_cut = [dict(acked) for acked in run.ackeds]
    currents = [{record.key: record.version
                 for record in tenant.engine.kvmap.records()}
                for tenant in system.tenants]
    pre_crash_mapping = ftl.mapping.snapshot()

    point.report = power_cut(system, rng)
    wall = Tracer.wallclock()  # recovery runs outside simulated time
    recovery_span = wall.begin("recovery", "spor_scan",
                               crash_step=point.crash_step)
    rebuilt = recover_device(system)
    wall.end(recovery_span)

    point.acked_keys = sum(len(acked) for acked in acked_at_cut)
    point.checkpoint_violations = list(run.ckpt_violations)
    point.recovery_wall_ns = recovery_span.duration_ns
    point.mapping_mismatches = sum(
        1 for lpn in set(pre_crash_mapping) | set(rebuilt)
        if pre_crash_mapping.get(lpn) != rebuilt.get(lpn))
    point.invariant_violations = check_ftl_invariants(ftl)
    if tenanted:
        point.invariant_violations.extend(check_namespace_isolation(ftl))
    digests: List[str] = []
    for tenant, acked, current in zip(system.tenants, acked_at_cut,
                                      currents):
        try:
            recovered = check_durability(tenant.engine, acked, current)
        except RecoveryError as exc:
            point.durability_error = \
                f"{tenant.name}: {exc}" if tenanted else str(exc)
            return point
        digests.append(_state_digest(recovered.versions))
    point.recovered_digest = "+".join(digests)
    return point


# ---------------------------------------------------------------------------
# Closed-loop scripted workload
# ---------------------------------------------------------------------------


def _sweep_config(mode: str, seed: int, num_keys: int, tenants: int = 1,
                  **overrides: Any) -> SystemConfig:
    if tenants > 1:
        # Shrink the per-tenant journal so several namespaces fit the
        # tiny test device while still wrapping (and checkpointing) under
        # load.
        overrides.update(journal_area_bytes=1 * MIB,
                         tenants=tuple(TenantSpec() for _ in range(tenants)))
    return tiny_config(mode=mode, seed=seed, num_keys=num_keys,
                       track_op_log=True, snapshot_metadata=True,
                       **overrides)


def _scripted_client(engine: StorageEngine, num_keys: int,
                     acked: Dict[int, int], ops: int,
                     ckpt_every: int) -> Generator[Any, Any, None]:
    for i in range(ops):
        key = (i * 7) % num_keys
        version = yield from engine.put(key)
        if version is not None:
            # A None version means the engine degraded and rejected the
            # update — nothing was acked, so nothing is owed durability.
            acked[key] = version
        if ckpt_every and (i + 1) % ckpt_every == 0:
            yield from engine.checkpoint()


def _start(config: SystemConfig, ops: int, ckpt_every: int) -> _Run:
    """Build a loaded, started system running the scripted workload.

    One acked-versions dict and one client process per tenant (a single
    pair on the classic single-tenant path).
    """
    system = KvSystem(config)
    system.load()
    run = _Run(system, [], [], [])
    for tenant in system.tenants:
        tenant.engine.start()
        tenant.engine.on_checkpoint.append(
            lambda engine, _report: run.ckpt_violations.extend(
                check_ftl_invariants(engine.ssd.ftl)))
        acked: Dict[int, int] = {}
        run.ackeds.append(acked)
        name = "fault-client" if config.tenants is None \
            else f"fault-client{tenant.index}"
        run.procs.append(spawn(
            system.sim,
            _scripted_client(tenant.engine, tenant.view.num_keys, acked,
                             ops, ckpt_every),
            name=name))
    return run


def fault_sweep(mode: str, crash_points: int = 20, seed: int = 7,
                ops: int = 120, num_keys: int = 64,
                ckpt_every: int = 40, tenants: int = 1) -> CampaignResult:
    """Sweep ``crash_points`` seeded crash instants over one configuration.

    ``mode`` is one of the engine modes ('baseline' is the conventional
    system; 'isc_c' and 'checkin' exercise the remapping FTL).  With
    ``tenants > 1`` the workload runs against a namespaced device — every
    tenant executes the scripted workload concurrently, and SPOR recovery
    must restore each tenant's durable state independently while keeping
    the namespaces physically disjoint.  Points are
    :class:`CrashPointResult`; inspect ``.ok`` / ``.failures()``.
    """
    config = _sweep_config(mode, seed, num_keys, tenants)

    def run_point(index: int, crash_step: int,
                  rng: SeededRng) -> CrashPointResult:
        run = _start(config, ops, ckpt_every)
        _drive(run, "fault sweep crash run", crash_step)
        return _cut_and_verify(run, rng.fork("tear"), CrashPointResult(
            index=index, crash_step=crash_step))

    return run_campaign(
        mode, seed, crash_points, f"fault/{mode}",
        lambda: _reference_steps(_start(config, ops, ckpt_every),
                                 "fault sweep"),
        run_point)


# ---------------------------------------------------------------------------
# Open-loop crash sweep: admission control under power loss
# ---------------------------------------------------------------------------


@dataclass
class OpenLoopCrashPoint(CrashPointResult):
    """One open-loop crash point: the admission ledger at the cut."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    pending: int = 0
    """Ops past the front door but unfinished at the crash instant
    (``inflight + waiting`` on the controller)."""

    shed_acked_overlap: int = 0
    """Ops both shed and acked — must be zero (the no-zombie claim)."""

    @property
    def reconciled(self) -> bool:
        """``submitted == completed + shed + pending`` at the crash
        instant — the typed-completion ledger balances even mid-flight."""
        return self.submitted == self.completed + self.shed + self.pending

    @property
    def digest_line(self) -> str:
        return f"{self.crash_step}:{self.shed}:{self.recovered_digest}"

    def problems(self) -> List[str]:
        problems = super().problems()
        if self.shed_acked_overlap:
            problems.append(
                f"{self.shed_acked_overlap} ops both shed and acked")
        if not self.reconciled:
            problems.append(
                f"admission ledger off: {self.submitted} submitted != "
                f"{self.completed} completed + {self.shed} shed + "
                f"{self.pending} pending")
        return problems


def _open_loop_put(engine: StorageEngine, admission: AdmissionController,
                   ticket: AdmissionTicket, key: int, index: int,
                   acked: Dict[int, int], acked_indices: set
                   ) -> Generator[Any, Any, None]:
    if ticket.queued:
        yield ticket.event
    version = yield from engine.put(key)
    admission.release()
    if version is not None:
        acked[key] = version
        acked_indices.add(index)


def _open_loop_dispatcher(system: KvSystem, engine: StorageEngine,
                          admission: AdmissionController,
                          times: List[int], num_keys: int,
                          acked: Dict[int, int], acked_indices: set,
                          shed_indices: set, procs: List[Any]
                          ) -> Generator[Any, Any, None]:
    base = system.sim.now
    for index, instant in enumerate(times):
        target = base + instant
        if target > system.sim.now:
            yield target - system.sim.now
        ticket = admission.try_admit(is_read=False)
        if ticket.shed:
            shed_indices.add(index)
            continue
        procs.append(spawn(
            system.sim,
            _open_loop_put(engine, admission, ticket,
                           (index * 7) % num_keys, index, acked,
                           acked_indices),
            name=f"ol-put{index}"))


def _open_loop_checkpointer(engine: StorageEngine, count: int,
                            gap_ns: int) -> Generator[Any, Any, None]:
    for _ in range(count):
        yield gap_ns
        yield from engine.checkpoint()


def _start_open_loop(config: SystemConfig, spec: ArrivalSpec, ops: int,
                     admission_config: AdmissionConfig
                     ) -> Tuple[_Run, AdmissionController, set, set]:
    """Build a started system running the open-loop crash workload.

    Returns the run (whose process list gains one worker per admitted
    arrival as the dispatcher runs), the front door, and the acked and
    shed arrival-index sets.
    """
    system = KvSystem(config)
    system.load()
    tenant = system.tenants[0]
    tenant.engine.start()
    run = _Run(system, [{}], [], [])
    tenant.engine.on_checkpoint.append(
        lambda engine, _report: run.ckpt_violations.extend(
            check_ftl_invariants(engine.ssd.ftl)))
    admission = AdmissionController(system.sim, admission_config,
                                    label="open-crash")
    times = arrival_times(
        spec, SeededRng(config.seed).fork("open-crash/arrivals"), ops)
    span = times[-1] if times else 0
    acked_indices: set = set()
    shed_indices: set = set()
    run.procs.append(spawn(
        system.sim,
        _open_loop_dispatcher(system, tenant.engine, admission, times,
                              tenant.view.num_keys, run.ackeds[0],
                              acked_indices, shed_indices, run.procs),
        name="ol-dispatch"))
    run.procs.append(spawn(
        system.sim,
        _open_loop_checkpointer(tenant.engine, 3, max(1, span // 4)),
        name="ol-ckpt"))
    return run, admission, acked_indices, shed_indices


def open_loop_crash_sweep(mode: str, crash_points: int = 12, seed: int = 7,
                          ops: int = 160, num_keys: int = 64,
                          rate_ops_per_sec: float = 150_000.0,
                          max_inflight: int = 2, max_waiting: int = 3
                          ) -> CampaignResult:
    """Power-cut a bursty open-loop stream behind a tiny front door.

    The burst arrival process against ``max_inflight=2 / max_waiting=3``
    guarantees sheds, so some arrivals never reach the engine, and the
    seeded crash instants land before, inside and after checkpoints.
    Every crash point (:class:`OpenLoopCrashPoint`) asserts that no shed
    op was acked, that the admission ledger reconciles mid-flight, and
    that every acked (admitted and completed) write survives recovery.
    """
    config = _sweep_config(mode, seed, num_keys)
    spec = ArrivalSpec(rate_ops_per_sec=rate_ops_per_sec, process="bursts")
    admission_config = AdmissionConfig(policy="queue",
                                       max_inflight=max_inflight,
                                       max_waiting=max_waiting)

    def start() -> Tuple[_Run, AdmissionController, set, set]:
        return _start_open_loop(config, spec, ops, admission_config)

    def run_point(index: int, crash_step: int,
                  rng: SeededRng) -> OpenLoopCrashPoint:
        run, admission, acked_indices, shed_indices = start()
        _drive(run, "open-loop crash sweep crash run", crash_step)
        point = OpenLoopCrashPoint(
            index=index, crash_step=crash_step,
            submitted=admission.submitted, completed=admission.completed,
            shed=sum(admission.shed.values()),
            pending=admission.inflight + admission.waiting,
            shed_acked_overlap=len(shed_indices & acked_indices))
        return _cut_and_verify(run, rng.fork("tear"), point)

    return run_campaign(
        mode, seed, crash_points, f"open-crash/{mode}",
        lambda: _reference_steps(start()[0], "open-loop crash sweep"),
        run_point)
