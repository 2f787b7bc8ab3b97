"""Overload-survival battery: open-loop load past the saturation point.

The closed-loop suite can never see overload (clients self-throttle), so
these tests drive the tiny system with open-loop arrivals at a multiple
of its measured closed-loop capacity and assert the failure mode is the
*designed* one:

* the waiting room stays bounded (no unbounded queue growth);
* every submitted op gets exactly one typed completion — executed or
  shed with a reason — so the admission ledger reconciles exactly;
* shed counts agree exactly with the telemetry pipeline's counters;
* the whole admission layer is zero-overhead when disabled: a huge
  front door on the closed-loop path is byte-identical to no front
  door at all;
* a power cut mid-burst never loses an acked write and never acks a
  shed op (via the open-loop crash sweep).

Run across several seeds: overload dynamics are exactly the place where
a single lucky schedule could hide a leak.
"""

import pytest

from repro.common.units import MIB
from repro.engine.admission import AdmissionConfig
from repro.fault.harness import open_loop_crash_sweep
from repro.system import TenantSpec, run_config, tiny_config
from repro.telemetry.sampler import TelemetryConfig
from repro.workload.arrivals import ArrivalSpec
from tests.conftest import summaries

SEEDS = (7, 11, 23)

OVERLOAD_FACTOR = 2.0
"""Offered load as a multiple of the measured closed-loop capacity."""


def overloaded_run(seed, **overrides):
    """Calibrate closed-loop capacity, then run at 2x that, open loop."""
    calibration = run_config(tiny_config(seed=seed, total_queries=600))
    capacity = calibration.metrics.throughput_qps()
    params = dict(
        seed=seed, total_queries=800,
        arrivals=ArrivalSpec(rate_ops_per_sec=OVERLOAD_FACTOR * capacity),
        # Same concurrency the capacity was calibrated at: extra
        # in-flight slots would silently absorb the overload.
        admission=AdmissionConfig(policy="queue", max_inflight=4,
                                  max_waiting=16))
    params.update(overrides)
    return run_config(tiny_config(**params))


class TestOverloadSurvival:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounded_queues_and_typed_completions(self, seed):
        result = overloaded_run(seed)
        report = result.admission
        assert report is not None
        # Every submitted op got exactly one typed completion: no
        # zombies, no double counting — the ledger balances exactly.
        assert report.submitted == 800
        assert report.reconciles()
        # 2x offered load must actually shed (the waiting room is finite)
        # yet the waiting room never grew past its bound.
        assert report.shed_total > 0
        assert report.max_waiting_seen <= report.max_waiting
        assert report.max_inflight_seen <= report.max_inflight
        # Executed ops are exactly the completed ones.
        assert result.metrics.operations == report.completed

    @pytest.mark.parametrize("policy,expect_sheds",
                             [("queue", True), ("shed", True)])
    def test_policies_survive_overload(self, policy, expect_sheds):
        result = overloaded_run(7, admission=AdmissionConfig(
            policy=policy, max_inflight=4, max_waiting=16))
        report = result.admission
        assert report.reconciles()
        assert (report.shed_total > 0) == expect_sheds

    def test_shed_counts_reconcile_with_telemetry(self):
        result = overloaded_run(7, telemetry=TelemetryConfig())
        report = result.admission
        assert report.shed_total > 0
        # The teardown sample reads the controller's final counters, so
        # the telemetry series must agree with the report *exactly*.
        assert result.telemetry.get("admission.shed_ops").last() == \
            report.shed_total
        assert result.telemetry.get("admission.submitted").last() == \
            report.submitted

    @pytest.mark.parametrize("seed", SEEDS)
    def test_open_loop_runs_are_deterministic(self, seed):
        assert summaries(overloaded_run(seed)) == \
            summaries(overloaded_run(seed))


class TestZeroOverhead:
    """Admission off == admission absent, byte for byte."""

    def test_closed_loop_accept_path_is_invisible(self):
        # A front door too large to ever queue or shed must not perturb
        # the closed-loop run at all: same metrics fingerprint as no
        # front door (no events, no extra yields, zero blame charges).
        plain = run_config(tiny_config(seed=7, total_queries=600))
        fronted = run_config(tiny_config(
            seed=7, total_queries=600,
            admission=AdmissionConfig(max_inflight=1_000_000,
                                      max_waiting=1_000_000)))
        assert summaries(plain) == summaries(fronted)
        report = fronted.admission
        assert report.reconciles()
        assert report.shed_total == 0 and report.max_waiting_seen == 0

    def test_arrivals_off_leaves_legacy_path_untouched(self):
        # No arrivals, no admission: the config builds no controller at
        # all, so the legacy path cannot even observe the new layer.
        result = run_config(tiny_config(seed=7, total_queries=600))
        assert result.admission is None


class TestNoisyNeighbour:
    def test_quiet_tenant_never_sheds(self):
        # Tenant 0 hammers its namespace open loop through a tiny front
        # door; tenant 1 runs the ordinary closed-loop workload behind
        # an ample one.  Admission is per-tenant, so the noisy tenant's
        # sheds must stay its own: quiet tenant shed rate exactly 0.
        config = tiny_config(
            journal_area_bytes=1 * MIB, num_keys=128, total_queries=600,
            tenants=(
                TenantSpec(
                    name="noisy",
                    arrivals=ArrivalSpec(rate_ops_per_sec=300_000.0,
                                         process="bursts"),
                    admission=AdmissionConfig(policy="queue",
                                              max_inflight=2,
                                              max_waiting=4)),
                TenantSpec(
                    name="quiet",
                    admission=AdmissionConfig(max_inflight=64,
                                              max_waiting=64))))
        result = run_config(config)
        reports = {tenant.name: tenant.admission
                   for tenant in result.tenants}
        assert reports["noisy"].shed_total > 0
        assert reports["quiet"].shed_total == 0
        assert reports["quiet"].shed_rate == 0.0
        for report in reports.values():
            assert report.reconciles()


class TestCrashMidBurst:
    @pytest.mark.parametrize("mode", ["baseline", "checkin"])
    def test_acked_survives_shed_never_acked(self, mode):
        sweep = open_loop_crash_sweep(mode, crash_points=6)
        assert sweep.ok, sweep.failures()
        # The disjointness claim is only exercised if sheds happened.
        assert sum(point.shed for point in sweep.points) > 0

    def test_sweep_is_deterministic(self):
        first = open_loop_crash_sweep("checkin", crash_points=4)
        second = open_loop_crash_sweep("checkin", crash_points=4)
        assert first.digest() == second.digest()

    @pytest.mark.parametrize("mode,steps,digest", [
        ("baseline", 2524, "046376a605e423da"),
        ("isc_c", 667, "7e1315dd21185f1d"),
        ("checkin", 480, "18e62441922bb44e"),
    ])
    def test_sweep_matches_golden_digest(self, mode, steps, digest):
        """Pinned values at the defaults (12 points, seed 7): a change
        that reorders events or loses a shed shows here, where a
        same-code rerun cannot see it."""
        sweep = open_loop_crash_sweep(mode)
        assert sweep.total_steps == steps
        assert sweep.digest() == digest
