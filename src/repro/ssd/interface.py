"""Host interface model: NVMe-style submission queue plus PCIe link.

Two contention points matter for the paper's results:

* the **queue depth** bounds how many commands are outstanding — the
  single-CoW configuration (ISC-A) suffers exactly because thousands of
  tiny commands fight for slots (§III-C);
* the **PCIe link** carries data payloads; conventional checkpointing
  moves every journal log device→host and back, while CoW commands move
  16-byte descriptors only.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, NamespaceError
from repro.common.units import transfer_time_ns
from repro.sim.core import Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class NamespaceRange:
    """One NVMe-style namespace: a contiguous slice of the LBA space.

    Tenants address the device in absolute LBAs; isolation comes from the
    controller refusing any command whose sector (or CoW source/target)
    range leaves the namespace it belongs to.
    """

    nsid: int
    lba_start: int
    nsectors: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.nsid < 0:
            raise ConfigError(f"negative namespace id {self.nsid}")
        if self.lba_start < 0 or self.nsectors < 1:
            raise ConfigError(
                f"namespace {self.nsid} needs lba_start >= 0 and nsectors >= 1")

    @property
    def lba_end(self) -> int:
        """One past the last sector of the namespace."""
        return self.lba_start + self.nsectors

    @property
    def label(self) -> str:
        """Human-readable identity for reports."""
        return self.name or f"ns{self.nsid}"


class NamespaceLayout:
    """The full partition of a device's LBA space into namespaces."""

    def __init__(self, ranges: Sequence[NamespaceRange]) -> None:
        if not ranges:
            raise ConfigError("namespace layout needs at least one range")
        ordered = sorted(ranges, key=lambda r: r.lba_start)
        seen: Dict[int, NamespaceRange] = {}
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.lba_end > later.lba_start:
                raise ConfigError(
                    f"namespaces {earlier.nsid} and {later.nsid} overlap")
        for entry in ordered:
            if entry.nsid in seen:
                raise ConfigError(f"duplicate namespace id {entry.nsid}")
            seen[entry.nsid] = entry
        self.ranges: Tuple[NamespaceRange, ...] = tuple(ordered)
        self._by_nsid = seen
        self._starts = [entry.lba_start for entry in ordered]

    def __len__(self) -> int:
        return len(self.ranges)

    def __iter__(self) -> Iterator[NamespaceRange]:
        return iter(self.ranges)

    def get(self, nsid: int) -> NamespaceRange:
        """The range registered under ``nsid``."""
        try:
            return self._by_nsid[nsid]
        except KeyError:
            raise NamespaceError(f"unknown namespace id {nsid}") from None

    def nsid_of(self, lba: int) -> Optional[int]:
        """Namespace containing sector ``lba`` (None when unowned)."""
        index = bisect.bisect_right(self._starts, lba) - 1
        if index < 0:
            return None
        entry = self.ranges[index]
        return entry.nsid if lba < entry.lba_end else None

    def resolve(self, lba: int, nsectors: int) -> int:
        """The single namespace owning ``[lba, lba + nsectors)``.

        Raises :class:`NamespaceError` when the range is outside every
        namespace or straddles a boundary — the controller-side
        enforcement of tenant isolation.
        """
        nsid = self.nsid_of(lba)
        if nsid is None:
            raise NamespaceError(
                f"lba {lba} belongs to no configured namespace")
        entry = self._by_nsid[nsid]
        if lba + nsectors > entry.lba_end:
            raise NamespaceError(
                f"range [{lba}, {lba + nsectors}) escapes namespace "
                f"{entry.label} (ends at {entry.lba_end})")
        return nsid


@dataclass(frozen=True)
class InterfaceConfig:
    """Host-interface timing and queue parameters."""

    queue_depth: int = 64
    """Outstanding-command limit of the submission queue."""

    command_overhead_ns: int = 5_000
    """Fixed per-command cost: doorbells, DMA descriptors, completion."""

    pcie_bandwidth: int = 3_200_000_000
    """Effective PCIe payload bandwidth, bytes/second (PCIe 3.0 x4-ish)."""

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.command_overhead_ns < 0:
            raise ConfigError("command_overhead_ns must be >= 0")
        if self.pcie_bandwidth <= 0:
            raise ConfigError("pcie_bandwidth must be positive")


class HostInterface:
    """Queue-slot admission plus timed link transfers."""

    def __init__(self, sim: Simulator, config: InterfaceConfig) -> None:
        self.sim = sim
        self.config = config
        self.queue = Resource(sim, config.queue_depth, name="sq")
        self._link = Resource(sim, 1, name="pcie")

    @property
    def outstanding(self) -> int:
        """Commands currently holding a queue slot."""
        return self.queue.in_use

    @property
    def queued(self) -> int:
        """Commands waiting for a slot."""
        return self.queue.queue_length

    def acquire_slot(self) -> Any:
        """Event that fires when a submission-queue slot is granted."""
        return self.queue.acquire()

    def release_slot(self) -> None:
        """Return the slot at command completion."""
        self.queue.release()

    def transfer(self, num_bytes: int) -> Generator[Any, Any, None]:
        """Move ``num_bytes`` over the shared link (0 bytes is free)."""
        if num_bytes <= 0:
            return
        yield self._link.acquire()
        try:
            yield transfer_time_ns(num_bytes, self.config.pcie_bandwidth)
        finally:
            self._link.release()

    def command_overhead(self) -> int:
        """Per-command fixed latency (submission + completion path)."""
        return self.config.command_overhead_ns
