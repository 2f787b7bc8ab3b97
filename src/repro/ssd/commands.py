"""Block-interface command set, including the vendor-specific extensions.

The paper keeps the standard NVMe block interface and adds vendor-specific
commands (§III-C): a single CoW command (ISC-A), a multi-CoW command
(ISC-B/C), and a checkpoint request command that carries the metadata so
the device can decode it and run many CoW operations from one submission
(Check-In).  ``DELETE_LOGS`` is the journal deallocation command sent once
a checkpoint is durable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import CommandError


class Status(enum.Enum):
    """Typed completion status returned to the host (NVMe-style).

    Media problems surface here as data, not exceptions: the submitting
    process always receives a :class:`Completion` and decides what to do,
    instead of dying on a propagated device-internal error.
    """

    OK = "ok"
    RETRIED_OK = "retried_ok"      # succeeded after controller retries
    MEDIA_ERROR = "media_error"    # retry budget exhausted
    READ_ONLY = "read_only"        # device is in degraded (read-only) mode


class Op(enum.Enum):
    """Command opcodes understood by the simulated device."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    TRIM = "trim"
    COW = "cow"                  # vendor: one copy-on-write descriptor
    COW_MULTI = "cow_multi"      # vendor: batched copy-on-write descriptors
    CHECKPOINT = "checkpoint"    # vendor: metadata-driven multi-CoW
    DELETE_LOGS = "delete_logs"  # vendor: deallocate checkpointed journal
    LOAD_PROGRAM = "load_program"  # vendor: one-time offload-code download


@dataclass(frozen=True)
class CowEntry:
    """One copy-on-write descriptor: journal location → data location.

    ``src_offset``/``length_bytes`` support the merged-partial case of
    sector-aligned journaling: several sub-sector values share one source
    sector, each destined for its own target sector.
    """

    src_lba: int
    dst_lba: int
    nsectors: int = 1
    """Destination (data-area) sectors to produce."""

    src_nsectors: Optional[int] = None
    """Journal sectors to read; defaults to ``nsectors``."""

    src_offset: int = 0
    length_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.src_lba < 0 or self.dst_lba < 0:
            raise CommandError("negative LBA in CoW entry")
        if self.nsectors < 1:
            raise CommandError("CoW entry must cover at least one sector")
        if self.src_nsectors is not None and self.src_nsectors < 1:
            raise CommandError("src_nsectors must be >= 1 when given")
        if self.src_offset < 0:
            raise CommandError("negative source offset")

    @property
    def read_span(self) -> int:
        """Source sectors the device must fetch for this entry."""
        return self.src_nsectors if self.src_nsectors is not None else self.nsectors


class Command:
    """A host command plus its payload descriptors.

    A plain ``__slots__`` class (not a dataclass): one instance is built
    per host operation, so construction cost and per-instance ``__dict__``
    overhead sit directly on the hot path.

    ``nsid`` is the NVMe-style namespace id.  ``None`` means unspecified:
    on a device with namespaces configured the controller derives it from
    the LBA range (and rejects ranges that straddle namespaces); when
    set, the controller additionally verifies the addressed range belongs
    to exactly this namespace.

    ``span`` is the submitter's trace span (or None): the controller
    parents its own device-side span under it, threading the trace
    context across the host interface without changing any timing.

    ``blame`` is the device-side :class:`~repro.obs.blame.StageClock` (or
    None): a submitter whose request carries a blame ledger hangs a fresh
    clock here before submit, every device stage laps it, and the
    submitter folds it back into the ledger on completion.  Like ``span``
    it never changes timing.
    """

    __slots__ = ("op", "lba", "nsectors", "tags", "fua", "stream", "cause",
                 "entries", "nsid", "span", "blame")

    def __init__(self, op: Op, lba: int = 0, nsectors: int = 0,
                 tags: Optional[Sequence[Any]] = None, fua: bool = False,
                 stream: str = "data", cause: str = "host",
                 entries: Tuple[CowEntry, ...] = (),
                 nsid: Optional[int] = None, span: Any = None) -> None:
        self.op = op
        self.lba = lba
        self.nsectors = nsectors
        self.tags = tags
        self.fua = fua
        self.stream = stream
        self.cause = cause
        self.entries = entries
        self.nsid = nsid
        self.span = span
        self.blame = None
        if nsid is not None and nsid < 0:
            raise CommandError(f"negative namespace id {nsid}")
        if op in (Op.READ, Op.WRITE, Op.TRIM):
            if nsectors < 1:
                raise CommandError(f"{op.value} needs nsectors >= 1")
            if lba < 0:
                raise CommandError("negative lba")
        if op is Op.WRITE and tags is not None and len(tags) != nsectors:
            raise CommandError(
                f"write carries {len(tags)} tags for {nsectors} sectors")
        if op in (Op.COW, Op.COW_MULTI, Op.CHECKPOINT) and not entries:
            raise CommandError(f"{op.value} requires CoW entries")
        if op is Op.COW and len(entries) != 1:
            raise CommandError("single COW carries exactly one entry")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Command(op={self.op!r}, lba={self.lba}, "
                f"nsectors={self.nsectors}, stream={self.stream!r}, "
                f"cause={self.cause!r}, entries={len(self.entries)})")

    @property
    def data_bytes(self) -> int:
        """Payload moved over the host interface for this command."""
        if self.op in (Op.READ, Op.WRITE):
            return self.nsectors * 512
        if self.op in (Op.COW, Op.COW_MULTI, Op.CHECKPOINT):
            # Descriptors only: 16 B per entry, no data payload.
            return 16 * len(self.entries)
        if self.op is Op.LOAD_PROGRAM:
            return self.nsectors * 512  # the offload execution code image
        return 0


class Completion:
    """Result handed back to the submitter.

    A plain ``__slots__`` class for the same reason as :class:`Command`:
    one per host operation, mutated in place by the controller.

    ``retries`` counts controller-level re-dispatches this command needed
    (media errors); ``error`` carries the human-readable failure detail
    when ``status`` is not a success.
    """

    __slots__ = ("command", "submitted_at", "completed_at", "tags",
                 "remapped_units", "copied_units", "status", "retries",
                 "error")

    def __init__(self, command: Command, submitted_at: int,
                 completed_at: int, tags: Optional[List[Any]] = None,
                 remapped_units: int = 0, copied_units: int = 0,
                 status: Status = Status.OK, retries: int = 0,
                 error: str = "") -> None:
        self.command = command
        self.submitted_at = submitted_at
        self.completed_at = completed_at
        self.tags = tags
        self.remapped_units = remapped_units
        self.copied_units = copied_units
        self.status = status
        self.retries = retries
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Completion(op={self.command.op!r}, "
                f"status={self.status!r}, latency_ns={self.latency_ns})")

    @property
    def ok(self) -> bool:
        """True when the command ultimately succeeded."""
        return self.status in (Status.OK, Status.RETRIED_OK)

    @property
    def latency_ns(self) -> int:
        """End-to-end device latency for this command."""
        return self.completed_at - self.submitted_at


def read_command(lba: int, nsectors: int) -> Command:
    """Convenience constructor for a read."""
    return Command(op=Op.READ, lba=lba, nsectors=nsectors)


def write_command(lba: int, nsectors: int, tags: Optional[Sequence[Any]] = None,
                  fua: bool = False, stream: str = "data",
                  cause: str = "host") -> Command:
    """Convenience constructor for a write."""
    return Command(op=Op.WRITE, lba=lba, nsectors=nsectors, tags=tags,
                   fua=fua, stream=stream, cause=cause)
