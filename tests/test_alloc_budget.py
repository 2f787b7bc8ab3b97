"""Deterministic allocation budget of the measured run loop.

Wall-clock speed is noisy; how many kernel objects a seeded run builds
is not.  These tests count every :class:`Event` (processes included: a
Process is an Event), every :class:`Process` and every :class:`Resource`
constructed during ``run()`` of small seeded closed-loop configs, and
fail when the hot path starts allocating more than it does today.

* No Resource may be built once the system is loaded: every contention
  point exists from construction, and per-LPN write locks are a table.
* Events and Processes per op may not exceed the counts pinned below.
  An uncontended ``Resource.acquire()`` returns the shared ``GRANTED``
  marker, and a device command runs inside the process that submits it,
  so Events are built only for contended waits, processes and journal
  commits.  A change that lowers a count should lower its pin.
"""

import pytest

from repro.common.units import MIB
from repro.sim.core import Event
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.system import KvSystem, SystemConfig

QUERIES = 2_000

CONFIGS = {
    # YCSB-A on the default device: journal sectors reach the FTL as
    # 512 B unit writes, each taking an LPN lock and a staging slot.
    "checkin": dict(mode="checkin", workload="A", distribution="zipfian",
                    threads=32, num_keys=4_096),
    # Write-only on the Fig. 8b small device: GC and the host read-back
    # checkpoint run.
    "baseline": dict(mode="baseline", workload="WO", distribution="zipfian",
                     threads=32, num_keys=2_048, blocks_per_plane=5,
                     journal_area_bytes=6 * MIB,
                     checkpoint_interval_ns=10 ** 12,
                     checkpoint_journal_quota=2 * MIB,
                     gc_high_watermark=10),
}

EVENT_BUDGET = {"checkin": 2_362, "baseline": 5_252}
"""Events built during ``run()`` at seed 7 (1.18 and 2.63 per op).
Before device commands ran inline: 4,018 and 8,048.  Before grants and
LPN locks stopped allocating: 9,887 and 13,224, plus 1,328 and 689
Resources."""

PROCESS_BUDGET = {"checkin": 379, "baseline": 861}
"""Processes started during ``run()`` at seed 7.  Before device commands
ran inline (one ``cmd-*`` process each): 1,207 and 2,259."""


def _count_run_allocations(mode):
    system = KvSystem(SystemConfig(seed=7, total_queries=QUERIES,
                                   **CONFIGS[mode]))
    system.load()
    counted = {Event: "events", Process: "processes", Resource: "resources"}
    counts = dict.fromkeys(counted.values(), 0)
    inits = {cls: cls.__init__ for cls in counted}

    def counting(cls):
        init, name = inits[cls], counted[cls]

        def counted_init(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)
        return counted_init

    for cls in counted:
        cls.__init__ = counting(cls)
    try:
        result = system.run()
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    assert result.metrics.operations == QUERIES
    return counts


@pytest.mark.parametrize("mode", sorted(CONFIGS))
class TestAllocationBudget:
    def test_no_resource_built_while_running(self, mode):
        assert _count_run_allocations(mode)["resources"] == 0

    def test_events_per_op_within_budget(self, mode):
        events = _count_run_allocations(mode)["events"]
        assert events <= EVENT_BUDGET[mode], (
            f"{mode}: {events / QUERIES:.3f} Events per op, budget "
            f"{EVENT_BUDGET[mode] / QUERIES:.3f}")

    def test_processes_per_op_within_budget(self, mode):
        processes = _count_run_allocations(mode)["processes"]
        assert processes <= PROCESS_BUDGET[mode], (
            f"{mode}: {processes / QUERIES:.3f} Processes per op, budget "
            f"{PROCESS_BUDGET[mode] / QUERIES:.3f}")
