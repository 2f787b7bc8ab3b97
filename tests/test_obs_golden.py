"""Golden pins for the interval-observation planes.

Blame ledgers and trace spans measure the same simulated windows, and
every byte they export must stay the same when the instrumentation
sites are reorganised.  Each case runs a traced, blamed ``tiny_config``
and pins three sha256 digests (first 16 hex digits):

* ``blame`` — the ``repro-blame/v1`` record stream plus every finalized
  ledger (charges in insertion order, so a window re-ordered or charged
  to a neighbouring stage moves it even when totals stay equal);
* ``trace`` — the Chrome ``trace_event`` export;
* ``stages`` — the sorted ``stage_stats`` aggregates (count, total,
  max, queue time, bytes, histogram).

The cases cover the three checkpoint modes plus the corners with their
own windows: controller media retries (snapshot/restore of the device
breakdown), foreground GC, staging-slot backpressure, the consistency
gate, a journal-full stall, read-modify-writes (a read's tail must not
leak into the update's gate wait), both client pools behind a front
door, and the semi-sync replication ack wait.
"""

import hashlib
import json

import pytest

from repro.common.units import KIB
from repro.engine.admission import AdmissionConfig
from repro.flash.media import MediaErrorConfig
from repro.obs import blame_records, clear_blame
from repro.replication import ReplicatedPair
from repro.replication.campaign import campaign_config
from repro.system import KvSystem, tiny_config
from repro.trace import clear_runs
from repro.trace.export import trace_events
from repro.workload.arrivals import ArrivalSpec

CASES = {
    "baseline": dict(mode="baseline"),
    "isc_c": dict(mode="isc_c"),
    "checkin": dict(mode="checkin"),
    "media": dict(mode="checkin", workload="B", num_keys=1024,
                  mem_cache_records=16,
                  media=MediaErrorConfig(enabled=True, read_uecc_base=0.5,
                                         program_fail_base=0.02,
                                         max_read_retries=0)),
    "stress": dict(mode="baseline", workload="WO", blocks_per_plane=8,
                   num_keys=512, total_queries=2000, gc_low_watermark=3,
                   gc_high_watermark=4, write_buffer_bytes=16 * KIB,
                   lock_queries_during_checkpoint=True),
    "journal_full": dict(mode="baseline", workload="WO",
                         journal_area_bytes=256 * KIB,
                         checkpoint_journal_quota=1024 * KIB),
    "open_loop": dict(mode="checkin", total_queries=800,
                      arrivals=ArrivalSpec(rate_ops_per_sec=150_000.0),
                      admission=AdmissionConfig(max_inflight=8,
                                                max_waiting=32)),
    "closed_admission": dict(mode="isc_c", total_queries=800,
                             admission=AdmissionConfig(max_inflight=2,
                                                       max_waiting=1)),
    "rmw": dict(mode="checkin", workload="F"),
}
SEMI_SYNC = "semi_sync"
"""A replicated pair with semi-sync acks; only its primary is observed."""

GOLDEN = {
    "baseline": ("865ad4e300c4145a", "ce65da9d5e3d4876",
                 "d3d674d88142656c"),
    "checkin": ("9e07361b8b964d23", "ba8d675fd5ee0ea8",
                "05e5fa1d588c2711"),
    "closed_admission": ("1be493a0dcff8002", "9e4c90a23fbbeb2e",
                         "a3fb4ab644d8af11"),
    "isc_c": ("f9b90b0948373f07", "0288dec115de41b3",
              "e101c06f329fd953"),
    "journal_full": ("5bad5e3a92a990fb", "cce8ff51f7cd1c47",
                     "88cf0101706d796f"),
    "media": ("080d6498da016551", "54d4e1f3c3dea0f6",
              "a1c55e243ee9ff42"),
    "open_loop": ("3b0eb0cd16055ea0", "d967179d3ccd3da8",
                  "4a175b663c990cc4"),
    "rmw": ("5721bf24d43194ac", "efdd7cd1719a9520",
            "c7c2541aab382b25"),
    "semi_sync": ("731b9c4871af0363", "15e716d789bc58c4",
                  "aebc91940f591dc3"),
    "stress": ("4d84b585b8f569a5", "1853f3bd18efc54f",
               "35e4823bf3ff49f3"),
}

CORNERS = {
    "media": ("media_retry",),
    "stress": ("gc_stall", "flash_program", "ckpt_freeze_stall"),
    "journal_full": ("journal_full_stall",),
    "open_loop": ("admission",),
    "closed_admission": ("admission",),
    SEMI_SYNC: ("repl_ship",),
}
"""Stages each corner case is kept for: its run must charge them."""


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _trace_digests(name: str, tracer):
    """Digests of the Chrome export and of the sorted stage aggregates."""
    stages = [(component, stage, stat.count, stat.total_ns, stat.max_ns,
               stat.queue_ns, stat.bytes, sorted(stat.hist.items()))
              for (component, stage), stat
              in sorted(tracer.stage_stats.items())]
    return (_digest(trace_events([(name, tracer)])), _digest(stages))


def observe(name: str):
    """Run one case traced and blamed; returns (digests, report, system)."""
    clear_blame()
    clear_runs()
    if name == SEMI_SYNC:
        pair = ReplicatedPair(campaign_config(ops=120, num_keys=48,
                                              trace=True, blame=True),
                              semi_sync=True)
        pair.start()
        pair.run_workload()
        pair.drain()
        pair.stop()
        system = pair.primary
        report = system.blame_report
    else:
        system = KvSystem(tiny_config(seed=3, trace=True, blame=True,
                                      **CASES[name]))
        report = system.run().blame
    clear_blame()
    clear_runs()
    ledgers = [list(collector.records)
               for _tenant, collector in report.tenants]
    digests = (_digest([blame_records(report), ledgers]),
               *_trace_digests(name, system.sim.tracer))
    return digests, report, system


@pytest.mark.parametrize("name", sorted(CASES) + [SEMI_SYNC])
def test_interval_observations_are_pinned(name):
    digests, report, system = observe(name)
    assert report.requests > 0
    assert digests == GOLDEN[name]
    totals = report.aggregate().category_totals()
    for stage in CORNERS.get(name, ()):
        assert totals.get(stage), stage
    if name == "media":
        assert system.ssd.stats.value("cmd.media_retries") > 0
