"""The in-storage checkpointing engine (ISCE) facade.

Mirrors Figure 5: the Check-In SSD controller embeds an ISCE composed of a
log manager, a checkpoint processor and a deallocator.  The controller
routes vendor commands here:

* ``COW`` / ``COW_MULTI`` / ``CHECKPOINT`` → :class:`CheckpointProcessor`
* ``DELETE_LOGS``                          → :class:`Deallocator`

The ISCE runs on the device's embedded processor, so command decode time
is charged per descriptor before any flash work starts.
"""

from __future__ import annotations

from typing import Any, Generator, Tuple

from repro.checkin.checkpoint import CheckpointProcessor
from repro.checkin.deallocator import Deallocator
from repro.checkin.log_manager import LogManager
from repro.ftl.ftl import Ftl
from repro.sim.core import Simulator
from repro.ssd.commands import CowEntry


class InStorageCheckpointEngine:
    """Device-resident checkpointing engine."""

    DECODE_NS_PER_ENTRY = 120
    """Embedded-CPU cost to decode one CoW descriptor."""

    def __init__(self, sim: Simulator, ftl: Ftl, allow_remap: bool = True) -> None:
        self.sim = sim
        self.ftl = ftl
        self.program_loaded = False
        """True once the host downloaded the offload execution code
        (§III-C: "sent to the Check-In SSD only once before the first
        execution")."""
        self.log_manager = LogManager(sim, ftl)
        self.processor = CheckpointProcessor(sim, ftl, allow_remap=allow_remap)
        self.deallocator = Deallocator(sim, ftl)

    @property
    def allow_remap(self) -> bool:
        """Whether this device's FTL supports the remapping checkpoint."""
        return self.processor.allow_remap

    def execute_cow(self, entries: Tuple[CowEntry, ...]
                    ) -> Generator[Any, Any, Tuple[int, int]]:
        """Run a CoW batch; returns ``(remapped_units, copied_units)``."""
        tracer = self.sim.tracer
        span = tracer.begin("isce", "cow", entries=len(entries)) \
            if tracer.enabled else None
        yield len(entries) * self.DECODE_NS_PER_ENTRY
        result = yield from self.processor.process(entries)
        if span is not None:
            tracer.end(span, remapped=result[0], copied=result[1])
        obs = self.sim.obs
        if obs is not None:
            obs.emit("isce", "cow_batch", span, entries=len(entries),
                     remapped=result[0], copied=result[1])
        return result

    def checkpoint_complete(self) -> Generator[Any, Any, None]:
        """Called after the whole checkpoint: persist mapping metadata."""
        tracer = self.sim.tracer
        span = tracer.begin("isce", "mapping_persist") \
            if tracer.enabled else None
        self.log_manager.checkpoint_created()
        yield from self.ftl.persist_metadata(force=True)
        if span is not None:
            tracer.end(span)

    def delete_logs(self, lba: int, nsectors: int) -> Generator[Any, Any, int]:
        """Deallocate checkpointed journal logs."""
        tracer = self.sim.tracer
        span = tracer.begin("isce", "delete_logs", lba=lba,
                            nsectors=nsectors) \
            if tracer.enabled else None
        freed = yield from self.deallocator.delete_logs(lba, nsectors)
        if span is not None:
            tracer.end(span, freed_units=freed)
        return freed
