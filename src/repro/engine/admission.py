"""Front-door admission control: typed accept / queue / shed decisions.

Open-loop traffic (``workload/arrivals.py``) does not self-throttle, so
past the saturation point *something* must absorb the excess.  Without a
front door that something is an unbounded queue — latency grows without
limit and no run ever finishes.  The :class:`AdmissionController` sits
in front of a tenant's engine and turns overload into explicit, typed
outcomes:

* ``queue``   — hold excess arrivals in a bounded waiting room; shed
  only when the waiting room itself overflows.
* ``shed``    — no waiting room: reject immediately when all in-flight
  slots are busy (classic load shedding).
* ``degrade`` — reads may wait, writes are shed while the system is
  saturated (degrade-to-read-only).

Every submitted operation gets exactly one typed completion — accepted
and executed, or shed with a machine-readable reason.  The controller
reconciles exactly: ``submitted == completed + shed_total`` once the
waiting room drains (asserted by the overload battery in
``tests/test_overload.py``).

Deliberately *not* wired into :class:`~repro.obs.stats.StatRegistry`:
plain-int counters keep engine counter snapshots byte-identical when
admission is off, preserving the zero-overhead-when-disabled guarantee.
Time spent waiting at the front door is charged to the ``admission``
blame stage by the client layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.common.errors import ConfigError
from repro.sim.core import Event, Simulator

POLICIES = ("queue", "shed", "degrade")

# Typed admission outcomes.  Shed reasons say *why* an op was refused,
# so tests and telemetry can reconcile per-cause rather than per-bucket.
ACCEPT = "accept"
QUEUED = "queued"
SHED_QUEUE_FULL = "shed_queue_full"
SHED_WAITING_ROOM_FULL = "shed_waiting_room_full"
SHED_WRITE_DEGRADED = "shed_write_degraded"

SHED_REASONS = (SHED_QUEUE_FULL, SHED_WAITING_ROOM_FULL,
                SHED_WRITE_DEGRADED)


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-tenant front-door limits and policy (frozen, hashable)."""

    policy: str = "queue"
    """``queue``, ``shed`` or ``degrade`` (degrade-to-read-only)."""

    max_inflight: int = 64
    """Operations allowed past the front door concurrently."""

    max_waiting: int = 256
    """Bounded waiting-room depth (``queue``/``degrade`` policies)."""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"admission policy must be one of "
                              f"{POLICIES}, got {self.policy!r}")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.max_waiting < 0:
            raise ConfigError("max_waiting must be >= 0")


@dataclass
class AdmissionTicket:
    """One typed admission decision for one submitted operation."""

    outcome: str
    event: Optional[Event] = None
    """Set only for ``queued`` tickets: fires when a slot frees up."""

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPT

    @property
    def queued(self) -> bool:
        return self.outcome == QUEUED

    @property
    def shed(self) -> bool:
        return self.outcome in SHED_REASONS


@dataclass
class AdmissionReport:
    """End-of-run reconciliation snapshot for one tenant's front door."""

    tenant: str
    policy: str
    submitted: int
    accepted: int
    completed: int
    shed: Dict[str, int] = field(default_factory=dict)
    max_inflight: int = 0
    max_waiting: int = 0
    max_inflight_seen: int = 0
    max_waiting_seen: int = 0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.submitted if self.submitted else 0.0

    def reconciles(self) -> bool:
        """Every submitted op got exactly one typed completion."""
        return self.submitted == self.completed + self.shed_total


class AdmissionController:
    """Bounded front door for one tenant's engine.

    The client layer calls :meth:`try_admit` before touching the engine
    and :meth:`release` after the operation completes (or is abandoned).
    A freed slot is handed directly to the oldest waiter — FIFO, no
    thundering herd — so ``inflight`` never exceeds ``max_inflight``.
    """

    def __init__(self, sim: Simulator, config: AdmissionConfig,
                 label: str = "") -> None:
        self.sim = sim
        self.config = config
        self.label = label
        self.inflight = 0
        self._waiting: Deque[Event] = deque()
        # Plain ints, not StatRegistry counters: see module docstring.
        self.submitted = 0
        self.accepted = 0
        self.completed = 0
        self.shed: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        self.max_inflight_seen = 0
        self.max_waiting_seen = 0

    @property
    def waiting(self) -> int:
        return len(self._waiting)

    def try_admit(self, is_read: bool) -> AdmissionTicket:
        """Decide one arrival's fate: accept, queue, or shed (typed)."""
        self.submitted += 1
        if self.inflight < self.config.max_inflight:
            self.inflight += 1
            self.accepted += 1
            self.max_inflight_seen = max(self.max_inflight_seen,
                                         self.inflight)
            return AdmissionTicket(ACCEPT)
        policy = self.config.policy
        may_wait = policy == "queue" or (policy == "degrade" and is_read)
        if may_wait and len(self._waiting) < self.config.max_waiting:
            slot = self.sim.event()
            self._waiting.append(slot)
            self.accepted += 1
            self.max_waiting_seen = max(self.max_waiting_seen,
                                        len(self._waiting))
            return AdmissionTicket(QUEUED, event=slot)
        if policy == "shed":
            reason = SHED_QUEUE_FULL
        elif policy == "degrade" and not is_read:
            reason = SHED_WRITE_DEGRADED
        else:
            reason = SHED_WAITING_ROOM_FULL
        self.shed[reason] += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit("admission", "shed", tenant=self.label, reason=reason,
                     is_read=is_read, inflight=self.inflight,
                     waiting=len(self._waiting))
        return AdmissionTicket(reason)

    def release(self) -> None:
        """Return a slot; hand it straight to the oldest waiter if any."""
        self.completed += 1
        if self._waiting:
            # Slot transfers to the waiter: inflight stays unchanged.
            self._waiting.popleft().succeed()
        else:
            self.inflight -= 1
            if self.inflight < 0:
                raise ConfigError(
                    f"admission release without matching admit "
                    f"(tenant {self.label!r})")

    def report(self, tenant: str = "") -> AdmissionReport:
        return AdmissionReport(
            tenant=tenant or self.label,
            policy=self.config.policy,
            submitted=self.submitted,
            accepted=self.accepted,
            completed=self.completed,
            shed=dict(self.shed),
            max_inflight=self.config.max_inflight,
            max_waiting=self.config.max_waiting,
            max_inflight_seen=self.max_inflight_seen,
            max_waiting_seen=self.max_waiting_seen,
        )
