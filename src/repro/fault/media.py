"""Media-error fault campaigns: NAND failures under live KV traffic.

Two campaigns complement the crash-point sweep:

* :func:`media_sweep` runs the scripted update/checkpoint workload under
  a grid of seeded media-error rates (program/erase/read failures), then
  pulls the plug, recovers, and asserts that **no acked update and no
  completed checkpoint was lost** — media errors may cost retries,
  relocations and even degraded mode, but never durability.  It also
  asserts every client process *finished* (failed commands surface as
  typed completions, not dead or hung processes).

* :func:`spare_exhaustion_run` drives a tiny device with an extreme
  erase/program failure rate past its spare-block budget and asserts the
  run ends in **reported read-only degraded mode** (visible in
  :class:`~repro.system.metrics.RunMetrics`) instead of an unhandled
  exception.

Everything is derived from the root seed (the media model draws are
keyed on it too), so a campaign is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.common.rng import SeededRng
from repro.common.units import MIB
from repro.fault.harness import (
    CampaignResult,
    CrashPointResult,
    _cut_and_verify,
    _drive,
    _start,
    _sweep_config,
)
from repro.flash.media import MediaErrorConfig
from repro.system.config import tiny_config
from repro.system.system import KvSystem, RunResult


def media_error_config(rate: float) -> MediaErrorConfig:
    """The standard rate mix for a sweep point.

    ``rate`` is the program-status failure probability on a pristine
    block; erase failures and per-attempt UECC run at half that, which
    exercises every handling path (relocation, retirement, read retry)
    in one run.
    """
    return MediaErrorConfig(
        enabled=True,
        program_fail_base=rate,
        erase_fail_base=rate / 2,
        read_uecc_base=rate / 2,
    )


@dataclass
class MediaPointResult(CrashPointResult):
    """One (rate, mode, tenants) point: the media faults the run drew."""

    mode: str = ""
    rate: float = 0.0
    tenants: int = 1
    program_fails: int = 0
    erase_fails: int = 0
    uecc_events: int = 0
    relocations: int = 0
    bad_blocks: int = 0
    degraded: bool = False
    client_errors: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"rate {self.rate}"

    @property
    def digest_line(self) -> str:
        # The scripted workload always completes, so the recovered state
        # alone is the same for every seed: the fault counters are what
        # make the line see the media path.
        return (f"{self.rate}:{self.recovered_digest}:{self.program_fails}:"
                f"{self.erase_fails}:{self.uecc_events}:{self.relocations}:"
                f"{self.bad_blocks}:{int(self.degraded)}")

    def problems(self) -> List[str]:
        return self.client_errors + super().problems()


def _media_point(mode: str, rate: float, seed: int, ops: int,
                 num_keys: int, ckpt_every: int,
                 tenants: int) -> MediaPointResult:
    config = _sweep_config(mode, seed, num_keys, tenants,
                           media=media_error_config(rate))
    run = _start(config, ops, ckpt_every)
    _drive(run, f"media sweep at rate {rate}")
    system = run.system
    snapshot = system.ssd.stats.snapshot()
    point = MediaPointResult(
        mode=mode, rate=rate, tenants=tenants,
        program_fails=snapshot.get("media.program_fail", 0),
        erase_fails=snapshot.get("media.erase_fail", 0),
        uecc_events=snapshot.get("media.read_uecc", 0),
        relocations=snapshot.get("media.relocations", 0),
        bad_blocks=len(system.ssd.ftl.grown_bad),
        degraded=system.ssd.degraded,
        # The whole robustness claim: a mid-run media error surfaces as
        # a typed failure or a rejected op, never a dead process.
        client_errors=[f"{proc.name}: {proc.exception!r}"
                       for proc in run.procs if not proc.ok])
    return _cut_and_verify(
        run, SeededRng(seed).fork(f"media/{mode}/{rate}"), point)


def media_sweep(mode: str, rates: Tuple[float, ...] = (1e-3, 1e-2),
                seed: int = 7, ops: int = 120, num_keys: int = 64,
                ckpt_every: int = 40, tenants: int = 1) -> CampaignResult:
    """Run the scripted workload under each media-error rate and verify.

    Each point (:class:`MediaPointResult`): run ``ops`` scripted updates
    (with periodic checkpoints) per tenant to completion on a device
    drawing seeded media failures, then power-cut, recover, and check
    ``acked <= recovered <= current`` plus every FTL structural invariant
    — including bad-block quarantine.
    """
    return CampaignResult(
        mode=mode, seed=seed, total_instants=0,
        points=[_media_point(mode, rate, seed, ops, num_keys, ckpt_every,
                             tenants)
                for rate in rates])


def spare_exhaustion_run(seed: int = 11, mode: str = "baseline"
                         ) -> RunResult:
    """Drive a device past its spare-block budget; must end degraded.

    Extreme erase/program failure rates retire blocks until the grown-bad
    count exceeds a deliberately tiny spare budget.  The run must finish
    cleanly — updates rejected, reads still served — and report read-only
    degraded mode through :class:`~repro.system.metrics.RunMetrics`.

    The run is telemetry-sampled: the returned result's ``telemetry``
    carries the SMART health frames around the failure and the
    ``degraded_entry`` watchdog event marking the instant the device
    dropped to read-only — the fault harness asserts against both.
    """
    from repro.telemetry import TelemetryConfig
    config = tiny_config(
        mode=mode, seed=seed,
        # Small enough that GC must erase (and therefore fail and retire)
        # blocks under the update churn, within a seconds-scale run.
        total_queries=8_000,
        num_keys=128,
        blocks_per_plane=10,
        journal_area_bytes=1 * MIB,
        spare_block_budget=1,
        media=MediaErrorConfig(
            enabled=True,
            program_fail_base=0.02,
            erase_fail_base=0.5,
            read_uecc_base=0.0,
        ),
        telemetry=TelemetryConfig(interval_ns=200_000))
    return KvSystem(config).run()
