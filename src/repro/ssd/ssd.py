"""The SSD device facade: flash + FTL + controller + (optional) ISCE.

:class:`Ssd` is what the host storage engine talks to.  Construction wires
the whole device from one :class:`SsdSpec`; ``enable_isce`` selects a
Check-In SSD (vendor commands supported) versus a conventional device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.flash.array import FlashArray
from repro.flash.geometry import FlashGeometry
from repro.flash.media import MediaErrorConfig, MediaErrorModel
from repro.flash.timing import FlashTiming
from repro.ftl.ftl import Ftl, FtlConfig
from repro.sim.core import Simulator
from repro.sim.stats import StatRegistry
from repro.common.errors import ConfigError
from repro.ssd.commands import Command, Completion, Op
from repro.ssd.controller import ControllerConfig, SsdController
from repro.ssd.interface import HostInterface, InterfaceConfig, NamespaceLayout


@dataclass(frozen=True)
class SsdSpec:
    """Everything needed to build one device."""

    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming)
    ftl: FtlConfig = field(default_factory=FtlConfig)
    interface: InterfaceConfig = field(default_factory=InterfaceConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    enable_isce: bool = False
    allow_remap: bool = True
    media: Optional[MediaErrorConfig] = None
    """NAND media-error model; None = perfect flash (legacy behaviour)."""
    media_seed: int = 0
    """Seed for the media model's deterministic failure draws."""

    @property
    def capacity_bytes(self) -> int:
        """Raw flash capacity of the spec."""
        return self.geometry.capacity_bytes


class Ssd:
    """A complete simulated device."""

    def __init__(self, sim: Simulator, spec: Optional[SsdSpec] = None) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else SsdSpec()
        media_model = None
        if self.spec.media is not None:
            media_model = MediaErrorModel(self.spec.media,
                                          self.spec.media_seed)
        self.array = FlashArray(sim, self.spec.geometry, self.spec.timing,
                                media=media_model)
        self.ftl = Ftl(sim, self.array, self.spec.ftl)
        self.interface = HostInterface(sim, self.spec.interface)
        from repro.checkin.isce import InStorageCheckpointEngine
        self.isce: Optional[InStorageCheckpointEngine] = None
        if self.spec.enable_isce:
            self.isce = InStorageCheckpointEngine(
                sim, self.ftl, allow_remap=self.spec.allow_remap)
        self.controller = SsdController(sim, self.ftl, self.interface,
                                        self.spec.controller, isce=self.isce)
        if self.isce is not None:
            # Device-internal copies share the controller's DRAM coalescer
            # and yield to host traffic only when some is actually waiting.
            self.isce.processor.device_writer = self.controller.device_write
            self.isce.processor.device_reader = self.controller.device_read
            self.isce.processor.host_pressure = (
                lambda: self.controller.outstanding_user > 0
                or self.interface.queued > 0)

        self.namespaces: Optional[NamespaceLayout] = None

    # ------------------------------------------------------------------
    # namespaces
    # ------------------------------------------------------------------
    def configure_namespaces(self, layout: NamespaceLayout) -> None:
        """Shard the device into NVMe-style namespaces.

        Must run before any traffic.  Ranges must be aligned to the FTL
        mapping unit so no unit straddles a namespace boundary; the
        controller then range-checks every command and the FTL segregates
        write streams per namespace.
        """
        spu = self.ftl.sectors_per_unit
        for entry in layout:
            if entry.lba_start % spu or entry.nsectors % spu:
                raise ConfigError(
                    f"namespace {entry.label} is not aligned to the "
                    f"{spu}-sector mapping unit")
            if entry.lba_end > self.spec.geometry.capacity_bytes // 512:
                raise ConfigError(
                    f"namespace {entry.label} exceeds the device LBA space")
        self.namespaces = layout
        self.controller.configure_namespaces(layout)
        self.ftl.set_namespaces([
            (entry.nsid, entry.lba_start // spu, entry.nsectors // spu)
            for entry in layout])

    def namespace(self, nsid: int) -> "NamespaceHandle":
        """A per-tenant handle that stamps ``nsid`` on every command."""
        if self.namespaces is None:
            raise ConfigError("device has no namespaces configured")
        self.namespaces.get(nsid)  # validate existence
        return NamespaceHandle(self, nsid)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatRegistry:
        """The device-wide statistics registry."""
        return self.ftl.stats

    @property
    def supports_in_storage_checkpoint(self) -> bool:
        """True when vendor CoW/checkpoint commands are available."""
        return self.isce is not None

    @property
    def degraded(self) -> bool:
        """True once the device dropped to read-only degraded mode."""
        return self.ftl.read_only

    @property
    def degraded_reason(self) -> str:
        """Why the device degraded ('' while healthy)."""
        return self.ftl.degraded_reason

    def run(self, command: Command) -> Generator[Any, Any, Completion]:
        """``yield from`` it to run ``command``; returns its Completion."""
        return self.controller.run(command)

    submit = run  # the name perfbench/layers.py wraps; nothing calls it

    # -- convenience wrappers used by tests and examples -----------------
    # Both go through ``self.run``, so a NamespaceHandle reuses them.
    def read(self, lba: int, nsectors: int) -> Generator[Any, Any, List[Any]]:
        """Read tags for a sector range."""
        completion = yield from self.run(Command(op=Op.READ, lba=lba,
                                                 nsectors=nsectors))
        return completion.tags

    def write(self, lba: int, nsectors: int, tags=None, fua: bool = False,
              stream: str = "data",
              cause: str = "host") -> Generator[Any, Any, Completion]:
        """Write a sector range."""
        return (yield from self.run(Command(
            op=Op.WRITE, lba=lba, nsectors=nsectors, tags=tags, fua=fua,
            stream=stream, cause=cause)))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start background services (idle GC daemon)."""
        self.controller.start_background_gc()

    def shutdown(self) -> None:
        """Stop background services so the event loop can drain."""
        self.controller.shutdown()

    def quiesce(self) -> Generator[Any, Any, None]:
        """Wait until all admitted commands and page programs finish."""
        while self.controller.outstanding or self.interface.queued:
            yield 10_000
        yield from self.ftl.drain()


class NamespaceHandle:
    """One tenant's view of a shared namespaced device.

    Wraps an :class:`Ssd` and stamps the tenant's namespace id on every
    command it runs, so the controller can verify the addressed range
    against the submitter's identity (not just the range's owner).  All
    other attributes delegate to the underlying device — a handle is a
    drop-in ``ssd`` for :class:`repro.engine.engine.StorageEngine`.
    """

    def __init__(self, device: Ssd, nsid: int) -> None:
        self.device = device
        self.nsid = nsid

    def run(self, command: Command) -> Generator[Any, Any, Completion]:
        """Stamp the namespace id and run on the shared controller."""
        if command.nsid is None and command.op not in (Op.FLUSH,
                                                       Op.LOAD_PROGRAM):
            command.nsid = self.nsid
        return self.device.run(command)

    read = Ssd.read
    write = Ssd.write

    def __getattr__(self, name: str) -> Any:
        return getattr(self.device, name)
