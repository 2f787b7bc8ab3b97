"""Blame-ledger integration tests: conservation, zero overhead, export.

The three contracts that make the attribution layer trustworthy:

* **Exact conservation** — every finalized ledger's charges sum to the
  request's end-to-end latency to the nanosecond (the property tests in
  ``test_blame_property.py`` sweep this across seeds and modes; here we
  pin the plumbing on one run per claim);
* **Zero overhead when disabled** — a blamed and an unblamed run of the
  same config produce byte-identical device counter snapshots and the
  same simulated end time (blame measures existing windows only);
* **Faithful export** — the ``repro-blame/v1`` JSONL dump round-trips
  through its own validator with zero problems, and exemplars link to
  trace spans when the run is traced.
"""

from types import SimpleNamespace

import pytest

from repro.obs import (
    CATEGORIES,
    CKPT_FAMILY,
    BlameCollector,
    BlameError,
    RequestLedger,
    StageClock,
    blame_table,
    clear_blame,
    exemplar_table,
    fold_completion,
    tail_table,
    validate_blame_file,
    write_blame_jsonl,
)
from repro.system import KvSystem, run_config, tiny_config


def blamed_run(**overrides):
    """A tiny blamed run; clears the global registry around itself."""
    clear_blame()
    result = run_config(tiny_config(blame=True, **overrides))
    clear_blame()
    return result


def assert_conserved(collector: BlameCollector) -> None:
    """Every record's charges sum exactly to its end-to-end latency."""
    assert collector.requests > 0
    for total_ns, op, key, _ckpt, _span, charges in collector.records:
        assert sum(charges.values()) == total_ns, \
            f"op={op} key={key}: {charges} != {total_ns}"
        assert all(category in CATEGORIES for category in charges)


class TestLedger:
    def test_finalize_assigns_residual(self):
        ledger = RequestLedger(SimpleNamespace(now=0), "get", 7)
        ledger.charge("flash_read", 600)
        ledger.finalize(1_000)
        assert ledger.charges == {"flash_read": 600, "host_cpu": 400}
        assert ledger.total_ns == 1_000

    def test_finalize_rejects_over_attribution(self):
        ledger = RequestLedger(SimpleNamespace(now=0), "get", 7)
        ledger.charge("flash_read", 1_200)
        with pytest.raises(BlameError):
            ledger.finalize(1_000)

    def test_fold_completion_charges_remainder(self):
        sim = SimpleNamespace(now=0)
        ledger = RequestLedger(sim, "put", 1)
        device = StageClock(sim)
        sim.now = 300
        device.lap("flash_program")
        sim.now = 500
        fold_completion(ledger, device, "ctrl_cpu")
        assert ledger.charges == {"flash_program": 300, "ctrl_cpu": 200}

    def test_fold_completion_rejects_overflow(self):
        sim = SimpleNamespace(now=0)
        ledger = RequestLedger(sim, "put", 1, since=200)
        device = StageClock(sim)
        sim.now = 300
        device.lap("flash_program")
        with pytest.raises(BlameError):
            fold_completion(ledger, device, "ctrl_cpu")

    def test_laps_tile_and_skips_leave_the_residual(self):
        sim = SimpleNamespace(now=100)
        ledger = RequestLedger(sim, "get", 3, since=40)
        ledger.lap("admission")
        assert (ledger.charges, ledger.mark) == ({"admission": 60}, 100)
        sim.now = 150
        ledger.skip()
        sim.now = 190
        ledger.lap("ckpt_freeze_stall")
        ledger.lap("flash_read")  # an empty window charges nothing
        ledger.finalize(200)
        assert ledger.charges == {"admission": 60, "ckpt_freeze_stall": 40,
                                  "host_cpu": 100}

    def test_split_lap_blames_checkpoint_overlap(self):
        sim = SimpleNamespace(now=0)
        array = SimpleNamespace(busy=1_000)
        array.ckpt_busy_ns = lambda: array.busy
        clock = StageClock(sim)
        clock.mark_busy(array)
        sim.now, array.busy = 500, 1_200
        clock.lap_split("flash_read", array)
        assert clock.charges == {"ckpt_interference": 200, "flash_read": 300}
        assert clock.mark == 500

    def test_relap_charges_the_failed_attempt_to_one_stage(self):
        sim = SimpleNamespace(now=0)
        clock = StageClock(sim)
        sim.now = 100
        clock.lap("ctrl_cpu")
        saved = clock.save()
        sim.now = 250
        clock.lap("flash_read")
        sim.now = 400
        clock.relap(saved, "media_retry")
        assert clock.charges == {"ctrl_cpu": 100, "media_retry": 300}


class TestConservation:
    @pytest.mark.parametrize("mode", ["baseline", "checkin"])
    def test_full_run_conserves(self, mode):
        result = blamed_run(mode=mode, total_queries=800)
        assert result.blame is not None
        assert_conserved(result.blame.aggregate())

    def test_multi_tenant_run_conserves(self):
        from repro.system import TenantSpec
        result = blamed_run(
            tenants=(TenantSpec(), TenantSpec()), total_queries=800)
        for name, collector in result.blame.tenants:
            assert_conserved(collector)


class TestZeroOverhead:
    def test_blame_flag_is_free_in_simulated_time(self):
        """Blamed and unblamed runs are indistinguishable on the device.

        Blame never yields, so the counter snapshot and the simulation
        clock must match byte for byte — the CI smoke job asserts the
        same thing on a bigger run.
        """
        snapshots = {}
        for blame in (False, True):
            clear_blame()
            system = KvSystem(tiny_config(mode="isc_b", total_queries=600,
                                          blame=blame))
            system.run()
            snapshots[blame] = (system.ssd.stats.snapshot(),
                                system.sim.now)
        clear_blame()
        assert snapshots[False] == snapshots[True]


class TestTailAttribution:
    def test_gated_baseline_tail_is_checkpoint_dominated(self):
        """With the consistency gate on and a small journal, the worst
        baseline requests stall behind checkpoints — the dominant tail
        stage must be in the checkpoint family."""
        result = blamed_run(mode="baseline", workload="WO",
                            lock_queries_during_checkpoint=True)
        profile = result.blame.aggregate().tail_profile(99.0)
        assert profile.tail_requests > 0
        assert profile.dominant_tail_category() in CKPT_FAMILY
        assert profile.ckpt_tail_share > 0.5

    def test_tail_profile_shares_sum_to_one(self):
        result = blamed_run(total_queries=800)
        profile = result.blame.aggregate().tail_profile(99.0)
        assert sum(profile.all_shares.values()) == pytest.approx(1.0)
        if profile.tail_requests:
            assert sum(profile.tail_shares.values()) == pytest.approx(1.0)


class TestExportRoundtrip:
    def test_jsonl_validates_clean(self, tmp_path):
        result = blamed_run(total_queries=800)
        path = str(tmp_path / "blame.jsonl")
        count = write_blame_jsonl(path, result.blame)
        assert count > 3  # header + tenant + tail + ... + footer
        assert validate_blame_file(path) == []

    def test_validator_flags_corruption(self, tmp_path):
        result = blamed_run(total_queries=800)
        path = str(tmp_path / "blame.jsonl")
        write_blame_jsonl(path, result.blame)
        lines = open(path).read().splitlines()
        lines = [line.replace('"total_ns":', '"total_ns": 1, "x":', 1)
                 if '"type": "tenant"' in line else line
                 for line in lines]
        open(path, "w").write("\n".join(lines) + "\n")
        assert validate_blame_file(path) != []

    def test_tables_render(self):
        result = blamed_run(total_queries=800)
        assert "stage" in blame_table(result.blame)
        assert "share" in tail_table(result.blame)
        assert "span" in exemplar_table(result.blame)


class TestTraceLinkage:
    def test_exemplars_carry_span_ids_when_traced(self):
        result = blamed_run(total_queries=600, trace=True)
        exemplars = result.blame.aggregate().exemplars()
        assert exemplars
        assert all(span_id is not None
                   for _t, _op, _key, _ckpt, span_id, _c in exemplars)

    def test_exemplars_span_is_none_untraced(self):
        result = blamed_run(total_queries=600)
        exemplars = result.blame.aggregate().exemplars()
        assert all(span_id is None
                   for _t, _op, _key, _ckpt, span_id, _c in exemplars)


class TestWatchdogAnnotation:
    def test_watchdog_events_stamped_with_dominant_blame(self):
        from repro.telemetry import TelemetryConfig
        clear_blame()
        config = tiny_config(blame=True, workload="WO",
                             lock_queries_during_checkpoint=True,
                             telemetry=TelemetryConfig(interval_ns=100_000))
        result = run_config(config)
        clear_blame()
        events = result.telemetry.watchdogs.events
        assert events, "gated WO run should trip at least one watchdog"
        stamped = [event for event in events if event.blame]
        assert stamped
        assert all(event.blame in CATEGORIES for event in stamped)
