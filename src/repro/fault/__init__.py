"""Crash-consistency fault injection and invariant checking.

The harness pulls the plug on a running :class:`~repro.system.KvSystem`
at an arbitrary event boundary, discards everything a power cut destroys
(in-flight flash programs tear at unit granularity, DRAM structures
vanish, the capacitor-backed buffers survive), re-runs the recovery
procedures of §III-G against the post-crash image, and asserts that the
recovered KV state matches what was durably committed.
"""

from repro.fault.crash import CrashReport, power_cut, recover_device
from repro.fault.harness import (
    CampaignResult,
    CrashPointResult,
    OpenLoopCrashPoint,
    fault_sweep,
    iter_crash_points,
    open_loop_crash_sweep,
    run_campaign,
)
from repro.fault.invariants import assert_ftl_invariants, check_ftl_invariants
from repro.fault.media import (
    MediaPointResult,
    media_error_config,
    media_sweep,
    spare_exhaustion_run,
)

__all__ = [
    "CrashReport",
    "power_cut",
    "recover_device",
    "CampaignResult",
    "CrashPointResult",
    "OpenLoopCrashPoint",
    "fault_sweep",
    "iter_crash_points",
    "open_loop_crash_sweep",
    "run_campaign",
    "assert_ftl_invariants",
    "check_ftl_invariants",
    "MediaPointResult",
    "media_error_config",
    "media_sweep",
    "spare_exhaustion_run",
]
