"""The timed NAND flash array.

:class:`FlashArray` owns every block plus the contention model: one
:class:`~repro.sim.resources.Resource` per LUN (a plane executes one array
operation at a time) and one per channel (data transfers serialize on the
shared bus).  Operations are generator helpers meant to be delegated to
from a simulation process with ``yield from``::

    data, oob = yield from array.read_page(ppa)
    yield from array.program_page(ppa, data, oob)
    yield from array.erase_block(block_id)

Accounting: every operation increments the shared
:class:`~repro.sim.stats.StatRegistry` counters ``flash.read``,
``flash.program`` and ``flash.erase`` (bytes counted for read/program).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.common.errors import (
    FlashError,
    MediaEraseError,
    MediaProgramError,
    MediaReadError,
)
from repro.flash.block import Block
from repro.flash.geometry import FlashGeometry
from repro.flash.media import MediaErrorModel, quiet_model
from repro.flash.timing import FlashTiming
from repro.sim.core import Simulator
from repro.sim.resources import Resource
from repro.sim.stats import StatRegistry


class FlashArray:
    """All NAND blocks plus LUN/channel scheduling."""

    def __init__(self, sim: Simulator, geometry: FlashGeometry,
                 timing: FlashTiming, stats: Optional[StatRegistry] = None,
                 media: Optional[MediaErrorModel] = None) -> None:
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.stats = stats if stats is not None else StatRegistry()
        self.media = media if media is not None else quiet_model()
        self.max_pe_cycles: Optional[int] = None
        self.blocks: List[Block] = [
            Block(block_id, geometry.pages_per_block)
            for block_id in range(geometry.total_blocks)
        ]
        self._luns = [Resource(sim, 1, name=f"lun{i}")
                      for i in range(geometry.num_luns)]
        self._channels = [Resource(sim, 1, name=f"chan{i}")
                          for i in range(geometry.channels)]
        self._inflight_programs: Dict[int, Tuple[Block, int]] = {}
        """Pages whose program pulse has not completed: ppa -> (block,
        page index).  A power cut mid-pulse leaves these pages torn."""
        self.ckpt_inflight = 0
        """Flash operations currently *holding* a LUN on behalf of
        checkpoint machinery (journal readback reads, checkpoint data
        rewrites, device-side CoW copies).  Plain ints outside the stats
        registry so blamed and unblamed runs snapshot identically."""
        self._ckpt_busy_ns = 0
        self._ckpt_since = 0
        # Every timed operation bumps one of these; resolve the counter
        # objects once instead of a registry lookup per flash op.
        self._read_counter = self.stats.counter("flash.read")
        self._program_counter = self.stats.counter("flash.program")
        self._erase_counter = self.stats.counter("flash.erase")

    # -- checkpoint-activity clock (no simulated time) ----------------------
    def ckpt_enter(self) -> None:
        """A checkpoint-machinery flash op acquired a LUN."""
        if self.ckpt_inflight == 0:
            self._ckpt_since = self.sim.now
        self.ckpt_inflight += 1

    def ckpt_exit(self) -> None:
        """A checkpoint-machinery flash op released its LUN."""
        self.ckpt_inflight -= 1
        if self.ckpt_inflight == 0:
            self._ckpt_busy_ns += self.sim.now - self._ckpt_since

    def ckpt_busy_ns(self) -> int:
        """Total simulated ns with >= 1 LUN held by checkpoint work.

        Blame windows diff this clock around a flash wait: the part of
        the wait that overlapped checkpoint flash occupancy is charged
        to ``ckpt_interference`` instead of the plain service category.
        Queue time does not count — only held LUNs — so a request slowed
        purely by foreground traffic is never blamed on a checkpoint
        that happened to be pending somewhere.
        """
        busy = self._ckpt_busy_ns
        if self.ckpt_inflight:
            busy += self.sim.now - self._ckpt_since
        return busy

    # -- synchronous state access (no simulated time) -----------------------
    def block(self, block_id: int) -> Block:
        """The :class:`Block` object with the given global id."""
        self.geometry.check_block(block_id)
        return self.blocks[block_id]

    def page_data(self, ppa: int) -> Any:
        """Stored payload of a written page (no timing)."""
        block = self.block(self.geometry.block_of_page(ppa))
        return block.data(self.geometry.page_in_block(ppa))

    def page_oob(self, ppa: int) -> Any:
        """OOB record of a written page (no timing)."""
        block = self.block(self.geometry.block_of_page(ppa))
        return block.oob(self.geometry.page_in_block(ppa))

    def total_erase_count(self) -> int:
        """Sum of erase counts over all blocks."""
        return sum(block.erase_count for block in self.blocks)

    def max_erase_count(self) -> int:
        """Highest per-block erase count (wear hot spot)."""
        return max(block.erase_count for block in self.blocks)

    def wear_stats(self) -> Dict[str, float]:
        """Per-block erase-count distribution: min / max / mean."""
        counts = [block.erase_count for block in self.blocks]
        return {"min": float(min(counts)), "max": float(max(counts)),
                "mean": sum(counts) / len(counts)}

    def _retention_age_ns(self, block: Block) -> int:
        if block.first_program_ns < 0:
            return 0
        return self.sim.now - block.first_program_ns

    # -- timed operations ----------------------------------------------------
    def read_page(self, ppa: int,
                  ckpt: bool = False) -> Generator[Any, Any, Tuple[Any, Any]]:
        """Timed page read; returns ``(data, oob)``.

        Sequence: LUN busy for the array read (plus any read-retry
        levels), then the channel busy while the page streams out.  An
        uncorrectable read raises :class:`MediaReadError` after the
        retry ladder is exhausted; re-issuing the read draws fresh retry
        levels (transient UECC), which is how the layers above recover.
        ``ckpt`` runs the LUN-hold period on the checkpoint clock.
        """
        geometry = self.geometry
        block = self.block(geometry.block_of_page(ppa))
        page_index = geometry.page_in_block(ppa)
        lun_index = geometry.lun_of_page(ppa)
        lun = self._luns[lun_index]
        channel = self._channels[geometry.channel_of_page(ppa)]

        tracer = self.sim.tracer
        span = tracer.begin("flash", "read_page", track=lun_index, ppa=ppa,
                            bytes=geometry.page_size) \
            if tracer.enabled else None
        yield lun.acquire()
        if ckpt:
            self.ckpt_enter()
        try:
            yield self.timing.read_ns
            block.reads_since_erase += 1
            attempt = self.media.read_attempts(
                block.block_id, block.erase_count,
                self._retention_age_ns(block), block.reads_since_erase)
            retries = (attempt - 1) if attempt \
                else self.media.config.max_read_retries
            if retries:
                self.stats.counter("media.read_retry").add(retries)
                yield self.timing.read_retry_ns * retries
            if attempt == 0:
                self.stats.counter("media.read_uecc").add(1)
                obs = self.sim.obs
                if obs is not None:
                    obs.emit("flash", "read_uecc", span,
                             block=block.block_id, ppa=ppa, retries=retries)
                if span is not None:
                    tracer.end(span, uecc=True)
                    span = None
                raise MediaReadError(
                    f"block {block.block_id}: uncorrectable read at page "
                    f"{ppa} after {1 + retries} attempts")
            yield channel.acquire()
            try:
                yield self.timing.transfer_ns(geometry.page_size)
            finally:
                channel.release()
        finally:
            if ckpt:
                self.ckpt_exit()
            lun.release()
        if span is not None:
            tracer.end(span)
        self._read_counter.add(1, num_bytes=geometry.page_size)
        # Content is sampled after the timed phases so a concurrent GC
        # migration that finished earlier is observed consistently.
        data = block.data(page_index)
        oob = block.oob(page_index)
        return data, oob

    def program_page(self, ppa: int, data: Any, oob: Any = None,
                     ckpt: bool = False) -> Generator[Any, Any, None]:
        """Timed page program: channel transfer in, then array program.

        A program-status failure raises :class:`MediaProgramError` after
        the pulse.  The page is consumed — it stays WRITTEN with no
        readable content and a nulled OOB (the SPOR scan skips it) — so
        the FTL must re-issue the unit to a fresh page.
        ``ckpt`` runs the LUN-hold period on the checkpoint clock.
        """
        geometry = self.geometry
        block = self.block(geometry.block_of_page(ppa))
        page_index = geometry.page_in_block(ppa)
        lun_index = geometry.lun_of_page(ppa)
        lun = self._luns[lun_index]
        channel = self._channels[geometry.channel_of_page(ppa)]

        tracer = self.sim.tracer
        span = tracer.begin("flash", "program_page", track=lun_index,
                            ppa=ppa, bytes=geometry.page_size) \
            if tracer.enabled else None
        yield lun.acquire()
        if ckpt:
            self.ckpt_enter()
        try:
            yield channel.acquire()
            try:
                yield self.timing.transfer_ns(geometry.page_size)
            finally:
                channel.release()
            # Commit the page content before the long program pulse so a
            # reader that wins the LUN immediately afterwards sees it.
            block.program(page_index, data, oob)
            if block.first_program_ns < 0:
                block.first_program_ns = self.sim.now
            self._inflight_programs[ppa] = (block, page_index)
            yield self.timing.program_ns
            self._inflight_programs.pop(ppa, None)
        finally:
            if ckpt:
                self.ckpt_exit()
            lun.release()
        self._program_counter.add(1, num_bytes=geometry.page_size)
        if self.media.program_fails(block.block_id, block.erase_count):
            # The page did not verify: null it so nothing reads it back.
            nunits = len(oob) if isinstance(oob, list) else 0
            block.corrupt(page_index, None,
                          [None] * nunits if nunits else None)
            self.stats.counter("media.program_fail").add(1)
            if span is not None:
                tracer.end(span, media_fail=True)
            raise MediaProgramError(
                f"block {block.block_id}: program-status failure at page "
                f"{ppa}")
        if span is not None:
            tracer.end(span)

    def mapping_read(self, lun: int) -> Generator[Any, Any, None]:
        """Timed read of one mapping-table page (DFTL map-cache miss).

        Contends for the LUN and channel like any page read but carries no
        user content — the mapping store is modelled logically.
        """
        if not 0 <= lun < self.geometry.num_luns:
            raise FlashError(f"lun {lun} out of range")
        channel = self._channels[self.geometry.channel_of_lun(lun)]
        yield self._luns[lun].acquire()
        try:
            yield self.timing.read_ns
            yield channel.acquire()
            try:
                yield self.timing.transfer_ns(self.geometry.page_size)
            finally:
                channel.release()
        finally:
            self._luns[lun].release()
        self._read_counter.add(1, num_bytes=self.geometry.page_size)
        self.stats.counter("flash.read.map").add(1)

    def erase_block(self, block_id: int) -> Generator[Any, Any, None]:
        """Timed block erase.

        An erase-status failure raises :class:`MediaEraseError`: the
        P/E cycle is consumed but the block keeps its stale contents
        (recovery's sequence ordering makes stale OOB entries lose), and
        the FTL is expected to retire the block.
        """
        geometry = self.geometry
        block = self.block(block_id)
        lun_index = geometry.lun_of_block(block_id)
        lun = self._luns[lun_index]
        tracer = self.sim.tracer
        span = tracer.begin("flash", "erase_block", track=lun_index,
                            block=block_id) \
            if tracer.enabled else None
        failed = self.media.erase_fails(block_id, block.erase_count)
        yield lun.acquire()
        try:
            if failed:
                block.erase_count += 1  # the cycle is spent regardless
            else:
                block.erase(self.max_pe_cycles)
            yield self.timing.erase_ns
        finally:
            lun.release()
        if failed:
            self.stats.counter("media.erase_fail").add(1)
            if span is not None:
                tracer.end(span, media_fail=True)
            raise MediaEraseError(
                f"block {block_id}: erase-status failure")
        if span is not None:
            tracer.end(span)
        self._erase_counter.add(1)

    # -- power-loss modelling ------------------------------------------------
    def power_cut(self, rng: Any) -> List[int]:
        """Tear every in-flight program at unit granularity.

        For each page whose program pulse had not completed, a random
        prefix of its units survives (possibly none, possibly all); the
        rest of the page reads back as garbage (data dropped, OOB nulled).
        Returns the torn page addresses.
        """
        torn: List[int] = []
        for ppa, (block, page_index) in sorted(self._inflight_programs.items()):
            data = block.data(page_index)
            oob = block.oob(page_index)
            nunits = len(oob) if isinstance(oob, list) else 0
            if not nunits:
                continue
            keep = rng.randint(0, nunits)
            if keep == nunits:
                continue
            if isinstance(data, dict):
                new_data: Any = {u: v for u, v in data.items() if u < keep}
            else:
                new_data = data if keep else None
            new_oob = [oob[u] if u < keep else None for u in range(nunits)]
            block.corrupt(page_index, new_data, new_oob)
            torn.append(ppa)
        self._inflight_programs.clear()
        return torn

    # -- instantaneous variants (used by recovery tooling) -------------------
    def program_page_now(self, ppa: int, data: Any, oob: Any = None) -> None:
        """Program without consuming simulated time (setup/recovery only)."""
        geometry = self.geometry
        block = self.block(geometry.block_of_page(ppa))
        block.program(geometry.page_in_block(ppa), data, oob)
        self._program_counter.add(1, num_bytes=geometry.page_size)

    def scan_oob(self) -> List[Tuple[int, Any]]:
        """Every written page's ``(ppa, oob)`` — the SPOR recovery scan."""
        results: List[Tuple[int, Any]] = []
        pages_per_block = self.geometry.pages_per_block
        for block in self.blocks:
            base = block.block_id * pages_per_block
            for page_index in range(block.written_pages):
                results.append((base + page_index, block.oob(page_index)))
        return results

    def check_not_written(self, ppa: int) -> None:
        """Raise :class:`FlashError` when ``ppa`` has already been programmed."""
        geometry = self.geometry
        block = self.block(geometry.block_of_page(ppa))
        if geometry.page_in_block(ppa) < block.write_pointer:
            raise FlashError(f"page {ppa} already written")
