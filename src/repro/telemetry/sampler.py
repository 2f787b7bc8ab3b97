"""The telemetry sampler: a sim process that snapshots the whole stack.

Every ``interval_ns`` of *simulated* time the sampler reads each probe in
the :class:`~repro.telemetry.registry.MetricRegistry` into ring-buffered
:class:`~repro.telemetry.registry.Series`, records a SMART health frame
(every ``health_every``-th tick) and evaluates the SLO watchdog bank.

Zero overhead when disabled: no sampler is constructed at all, and a
sampled run only ever *reads* state — counters, gauges, wear tables — so
its simulated event sequence is interleaved with, but never perturbs,
the workload's.  Counter snapshots of a sampled and an unsampled run
with the same seed are byte-identical (CI asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import MS
from repro.sim.process import Interrupt, Process, spawn
from repro.telemetry.health import DeviceHealthLog
from repro.telemetry.registry import MetricRegistry, Series
from repro.telemetry.watchdog import SloThresholds, TelemetryEvent, WatchdogBank


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling pipeline knobs."""

    interval_ns: int = 1 * MS
    """Simulated time between samples."""

    max_points: int = 4096
    """Ring-buffer capacity per series (bounded memory on long runs)."""

    health_every: int = 5
    """Record a SMART health frame every this many samples."""

    max_health_frames: int = 1024
    """Health-frame ring capacity."""

    thresholds: SloThresholds = field(default_factory=SloThresholds)
    """SLO watchdog thresholds."""

    def __post_init__(self) -> None:
        if self.interval_ns < 1:
            raise ConfigError("telemetry interval must be >= 1 ns")
        if self.max_points < 2:
            raise ConfigError("telemetry needs >= 2 points per series")
        if self.health_every < 1:
            raise ConfigError("health_every must be >= 1")


class TelemetrySampler:
    """Periodic sampling of one system's registry into time series."""

    def __init__(self, sim: Any, registry: MetricRegistry,
                 config: Optional[TelemetryConfig] = None,
                 health: Optional[DeviceHealthLog] = None,
                 watchdogs: Optional[WatchdogBank] = None,
                 label: str = "run") -> None:
        self.sim = sim
        self.registry = registry
        self.config = config if config is not None else TelemetryConfig()
        self.health = health
        self.watchdogs = watchdogs if watchdogs is not None else WatchdogBank()
        self.label = label
        self.samples = 0
        self.series: Dict[Tuple[str, str], Series] = {}
        for probe in registry:
            self.series[probe.key] = Series(
                name=probe.name, layer=probe.layer, kind=probe.kind,
                tenant=probe.tenant, maxlen=self.config.max_points)
        self._process: Optional[Process] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the sampling daemon (idempotent)."""
        if self._process is None or not self._process.alive:
            self._process = spawn(self.sim, self._loop(), name="telemetry")

    def stop(self) -> None:
        """Interrupt the daemon so the event loop can drain."""
        if self._process is not None and self._process.alive:
            self._process.interrupt("telemetry stopped")
        self._process = None

    def _loop(self) -> Generator[Any, Any, None]:
        try:
            while True:
                yield self.config.interval_ns
                self.sample_once()
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_once(self) -> List[TelemetryEvent]:
        """Take one sample now; returns watchdog edges it produced."""
        t_ns = self.sim.now
        values = self.registry.sample()
        for key, value in values.items():
            self.series[key].append(t_ns, value)
        self.samples += 1
        if self.health is not None and \
                self.samples % self.config.health_every == 0:
            self.health.record(t_ns)
        edges = self.watchdogs.evaluate(t_ns, values)
        obs = self.sim.obs
        if obs is not None:
            for edge in edges:
                detail = dict(watchdog=edge.watchdog, tenant=edge.tenant,
                              severity=edge.severity, value=edge.value,
                              blame=edge.blame)
                if edge.kind == "fired":
                    obs.emit("telemetry", "watchdog_fired", **detail)
                    # An error-severity FIRED edge is an incident
                    # trigger: the SLO did not wobble, something broke.
                    if edge.severity == "error":
                        obs.emit("telemetry", "watchdog_error",
                                 watchdog=edge.watchdog, tenant=edge.tenant,
                                 value=edge.value)
                else:
                    obs.emit("telemetry", "watchdog_cleared", **detail)
        return edges

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TelemetryEvent]:
        """Every watchdog edge recorded so far."""
        return self.watchdogs.events

    def get(self, name: str, tenant: str = "") -> Series:
        """The series of one (tenant, metric)."""
        try:
            return self.series[(tenant, name)]
        except KeyError:
            raise ConfigError(f"no series {name!r} for tenant {tenant!r}") \
                from None

    def all_series(self) -> List[Series]:
        """Every series in registration order."""
        return list(self.series.values())

    def layers_covered(self) -> List[str]:
        """Layers with at least one non-empty series."""
        return sorted({s.layer for s in self.series.values() if len(s)})

    def summary_rows(self) -> List[List[Any]]:
        """Per-series overview rows: scope, layer, name, samples, stats."""
        rows: List[List[Any]] = []
        for series in self.series.values():
            low, high = series.minmax()
            rows.append([series.tenant or "aggregate", series.layer,
                         series.name, series.kind, len(series),
                         low, high, series.last() or 0.0])
        return rows

    def health_report(self) -> Optional[Dict[str, Any]]:
        """The final SMART report (None when health is not wired)."""
        if self.health is None:
            return None
        return self.health.report(self.sim.now)
