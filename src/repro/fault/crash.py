"""The simulated power cut and the post-crash recovery procedure.

:func:`power_cut` is the destructive half: it stops the event loop,
unwinds every live process, tears the in-flight flash programs at unit
granularity and discards all volatile device state.  What survives is
exactly the paper's durability contract (§III-D, §III-G): programmed
flash pages, the capacitor-backed FTL staging buffer and controller
write coalescer, and the durable remap/trim operation log.

:func:`recover_device` is the forensic half: it re-runs the SPOR scan
(:func:`~repro.engine.recovery.rebuild_mapping_from_oob`) against the
post-crash image and installs the rebuilt mapping table, the way the
device firmware would at next power-on.  No simulated time passes —
after a crash the simulator is dead by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.rng import SeededRng
from repro.engine.recovery import rebuild_mapping_from_oob
from repro.system.system import KvSystem


@dataclass
class CrashReport:
    """What the power cut destroyed."""

    killed_processes: int = 0
    torn_pages: List[int] = field(default_factory=list)
    volatile_discarded: Dict[str, int] = field(default_factory=dict)


def power_cut(system: KvSystem, rng: SeededRng) -> CrashReport:
    """Kill the system at the current event boundary.

    Ordering matters: the event loop dies first (so no process reacts to
    the loss), then the flash array tears its in-flight programs using
    ``rng``, then every volatile DRAM structure is dropped.  The live
    mapping table is left in place so callers can diff it against the
    recovery scan — a real crash would lose it too.
    """
    report = CrashReport()
    obs = system.sim.obs
    if obs is not None:
        # Emitted *before* the cut so the trigger lands in the ring
        # while simulated time is still meaningful; everything after is
        # forensic (zero-time) teardown.
        obs.emit("fault", "power_cut")
    report.killed_processes = system.sim.power_cut()
    ftl = system.ssd.ftl
    report.torn_pages = ftl.array.power_cut(rng)
    volatile = ftl.volatile_state()
    report.volatile_discarded = {
        "map_cache_pages": volatile["map_cache_pages"],
        "lpn_locks": volatile["lpn_locks"],
        "inflight_blocks": len(volatile["inflight_blocks"]),
        "dirty_map_entries": volatile["dirty_map_entries"],
    }
    ftl.discard_volatile()
    system.ssd.controller.cache.clear()
    return report


def recover_device(system: KvSystem) -> Dict[int, int]:
    """Rebuild and install the mapping table from the post-crash image.

    Returns the rebuilt L2P table.  Requires the system to have been
    configured with ``track_op_log=True``.
    """
    ftl = system.ssd.ftl
    rebuilt = rebuild_mapping_from_oob(ftl)
    ftl.mapping.restore(rebuilt)
    return rebuilt
