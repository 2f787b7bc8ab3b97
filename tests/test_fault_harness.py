"""The fault-injection harness: torn writes, invariants, crash sweeps."""

import pytest

from repro.common.errors import FlashError, FtlError
from repro.engine.recovery import peek_sector_tags
from repro.fault import (
    assert_ftl_invariants,
    check_ftl_invariants,
    fault_sweep,
    power_cut,
    recover_device,
)
from repro.common.rng import SeededRng
from repro.fault.harness import (
    CrashPointResult,
    _cut_and_verify,
    _drive,
    _start,
    _sweep_config,
)
from repro.flash.array import FlashArray
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.ftl import FtlConfig
from repro.sim import Simulator, spawn
from repro.replication.campaign import kill_primary_campaign
from repro.ssd.commands import Command, Op
from repro.ssd.controller import SsdController
from repro.ssd.ssd import Ssd, SsdSpec

SWEEP_PINS = {
    "baseline": (1804, "ef5b791f568d196f"),
    "isc_c": (1205, "ebbfc4f69668bb25"),
    "checkin": (1004, "00d30fefb94e5cc4"),
}
"""``repro fault-sweep --crash-points 50 --seed 7``: reference-run
instants and campaign digest per mode."""

KILL_CAMPAIGN_PIN = "2d605987a7db939d"
"""``repro replicate --campaign 50 --seed 7`` (also pinned in
``test_replication.py``)."""


class FixedRng:
    """Stub rng whose randint always returns a fixed value."""

    def __init__(self, value):
        self.value = value

    def randint(self, low, high):
        return max(low, min(high, self.value))


def small_array(sim):
    return FlashArray(sim, FlashGeometry(channels=1, packages_per_channel=1,
                                         dies_per_package=1, planes_per_die=1,
                                         blocks_per_plane=4,
                                         pages_per_block=4),
                      FlashTiming())


class TestTornWrites:
    def _start_program(self, sim, array):
        data = {0: "a", 1: "b"}
        oob = [("x", 1), ("y", 2)]
        proc = spawn(sim, array.program_page(0, data, oob), name="pgm")
        while 0 not in array._inflight_programs:
            assert sim.step()
        return proc

    def test_power_cut_tears_inflight_program(self):
        sim = Simulator()
        array = small_array(sim)
        self._start_program(sim, array)
        torn = array.power_cut(FixedRng(1))  # keep only the first unit
        assert torn == [0]
        block = array.block(0)
        assert block.oob(0) == [("x", 1), None]
        assert block.data(0) == {0: "a"}

    def test_fully_surviving_program_is_not_torn(self):
        sim = Simulator()
        array = small_array(sim)
        self._start_program(sim, array)
        assert array.power_cut(FixedRng(2)) == []  # all units survive
        assert array.block(0).oob(0) == [("x", 1), ("y", 2)]

    def test_completed_program_is_never_torn(self):
        sim = Simulator()
        array = small_array(sim)
        proc = self._start_program(sim, array)
        while not proc.triggered:
            assert sim.step()
        assert array._inflight_programs == {}
        assert array.power_cut(FixedRng(0)) == []

    def test_corrupt_requires_written_page(self):
        sim = Simulator()
        array = small_array(sim)
        with pytest.raises(FlashError):
            array.block(0).corrupt(0, None, None)


class TestInvariants:
    def _system(self, mode="checkin"):
        from repro.system import KvSystem
        system = KvSystem(_sweep_config(mode, seed=5, num_keys=32))
        system.load()
        return system

    def test_clean_after_load(self):
        system = self._system()
        assert check_ftl_invariants(system.ssd.ftl) == []

    def test_detects_valid_count_drift(self):
        system = self._system()
        mapping = system.ssd.ftl.mapping
        block = next(iter(mapping.valid_counts()))
        mapping._valid_per_block[block] += 1
        violations = check_ftl_invariants(system.ssd.ftl)
        assert any("valid-count" in v for v in violations)
        with pytest.raises(FtlError):
            assert_ftl_invariants(system.ssd.ftl)

    def test_detects_stale_reverse_entry(self):
        system = self._system()
        mapping = system.ssd.ftl.mapping
        lpn, upa = next(mapping.items())
        del mapping._l2p[lpn]  # forward entry gone, reverse entry stale
        violations = check_ftl_invariants(system.ssd.ftl)
        assert any("upa" in v for v in violations)

    def test_detects_mapping_to_unwritten_page(self):
        system = self._system()
        ftl = system.ssd.ftl
        # Map an LPN onto a unit of a block nothing was programmed to.
        free_block = next(b for b in range(ftl.geometry.total_blocks)
                          if ftl.array.block(b).write_pointer == 0)
        upa = free_block * ftl.mapping.units_per_block
        ftl.mapping.map(999_999, upa)
        violations = check_ftl_invariants(ftl)
        assert any("unwritten page" in v for v in violations)


class TestHandoffWindow:
    def test_coalescer_handoff_remains_durable(self):
        """Regression: a full unit popped from the capacitor-backed
        coalescer was invisible to recovery until its FTL staging write
        completed — a power cut in that window lost acknowledged data."""
        sim = Simulator()
        ssd = Ssd(sim, SsdSpec(ftl=FtlConfig(mapping_unit=4096)))
        spu = ssd.ftl.sectors_per_unit
        tags = [f"t{i}" for i in range(spu)]
        done = spawn(sim, ssd.run(Command(op=Op.WRITE, lba=0, nsectors=spu,
                                          tags=tags)))
        hit_window = False
        while not done.triggered:
            assert sim.step()
            if ssd.controller._in_transit and ssd.ftl.mapping.lookup(0) is None:
                # Popped from the coalescer but not yet staged: the exact
                # window the regression guards.
                assert peek_sector_tags(ssd, 0, spu) == tags
                hit_window = True
        assert hit_window
        assert ssd.controller._in_transit == {}


class TestSweep:
    @pytest.mark.parametrize("mode", ["baseline", "isc_c", "checkin"])
    def test_small_sweep_passes(self, mode):
        sweep = fault_sweep(mode=mode, crash_points=6, seed=13, ops=90)
        assert sweep.total_instants > 0
        assert sweep.ok, sweep.failures()[0]

    def test_sweep_is_deterministic(self):
        first = fault_sweep(mode="checkin", crash_points=5, seed=21, ops=80)
        second = fault_sweep(mode="checkin", crash_points=5, seed=21, ops=80)
        assert [r.crash_step for r in first.points] == \
            [r.crash_step for r in second.points]
        assert first.digest() == second.digest()

    @pytest.mark.parametrize("mode", sorted(SWEEP_PINS))
    def test_sweep_matches_golden_digest(self, mode):
        """Pinned values of ``repro fault-sweep --crash-points 50 --seed 7``.

        Same-code reruns cannot see a change that moves simulated
        outcomes deterministically; the instant count and digest are
        fixed values.
        """
        sweep = fault_sweep(mode=mode, crash_points=50, seed=7)
        assert (sweep.total_instants, sweep.digest()) == SWEEP_PINS[mode]

    def test_crashes_destroy_live_state(self):
        """The sweep must not be vacuous: plugs are pulled while processes
        run and while programs are mid-pulse."""
        sweep = fault_sweep(mode="checkin", crash_points=8, seed=5, ops=90)
        assert any(r.report.killed_processes for r in sweep.points)
        assert any(r.report.torn_pages for r in sweep.points)
        assert any(r.acked_keys for r in sweep.points)

    def test_crash_mid_checkpoint_recovers(self):
        """Force the crash into a running checkpoint specifically."""
        config = _sweep_config("checkin", seed=9, num_keys=64)
        system, (acked,), (proc,), ckpt_violations = _start(config, 120, 40)
        from repro.common.rng import SeededRng
        while not system.engine.checkpoint_running:
            assert system.sim.step()
        assert not proc.triggered
        from repro.engine.recovery import check_durability
        acked_now = dict(acked)
        current = {r.key: r.version for r in system.engine.kvmap.records()}
        before = system.ssd.ftl.mapping.snapshot()
        power_cut(system, SeededRng(9).fork("mid-ckpt"))
        rebuilt = recover_device(system)
        assert rebuilt == before
        assert check_ftl_invariants(system.ssd.ftl) == []
        assert ckpt_violations == []
        check_durability(system.engine, acked_now, current)

    def test_harness_detects_planted_capacitor_loss(self):
        """Sensitivity check: if the capacitor-backed staging buffer were
        volatile, the sweep's checks must notice."""
        config = _sweep_config("checkin", seed=17, num_keys=64)
        system, (acked,), (proc,), _ = _start(config, 120, 40)
        from repro.common.rng import SeededRng
        ftl = system.ssd.ftl
        while not (acked and any(oob for oob in ftl._staged_oob.values())):
            assert system.sim.step()
        before = ftl.mapping.snapshot()
        power_cut(system, SeededRng(17).fork("tear"))
        ftl._staged_tags.clear()  # the planted fault: no capacitor
        ftl._staged_oob.clear()
        rebuilt = recover_device(system)
        assert rebuilt != before


class TestCrashCoordinate:
    """A crash point is the end of a simulated instant, not a kernel step."""

    def test_instant_end_cut_matches_every_step_inside_it(self):
        """Completeness: instants skip no distinguishable state.  Cutting
        after any kernel step recovers the same state as cutting at the
        end of that step's instant, and every write acked at the step is
        still acked, at least as new, at the instant's end.  Only the
        order of events inside one instant goes unvisited."""
        config = _sweep_config("checkin", seed=7, num_keys=16)
        ops, ckpt_every = 20, 10

        def cut(run):
            acked = dict(run.ackeds[0])
            point = _cut_and_verify(run, SeededRng(7).fork("tear"),
                                    CrashPointResult())
            assert point.ok, point.problems()
            return point.recovered_digest, acked

        run = _start(config, ops, ckpt_every)
        instant_of_step = []
        times = []
        while not all(proc.triggered for proc in run.procs):
            assert run.system.sim.step()
            if not times or run.system.sim.now != times[-1]:
                times.append(run.system.sim.now)
            instant_of_step.append(len(times))
        assert run.system.engine.checkpoint_reports  # a checkpoint ran
        at_end = {}
        for instant in range(1, len(times) + 1):
            run = _start(config, ops, ckpt_every)
            assert _drive(run, "instant cut", instant) == instant
            at_end[instant] = cut(run)
        inner = 0
        for step, instant in enumerate(instant_of_step, 1):
            if step == len(instant_of_step) \
                    or instant_of_step[step] != instant:
                continue  # the instant's last step: the same cut
            inner += 1
            run = _start(config, ops, ckpt_every)
            for _ in range(step):
                run.system.sim.step()
            digest, acked = cut(run)
            end_digest, end_acked = at_end[instant]
            assert digest == end_digest, (step, instant)
            assert all(end_acked.get(key, -1) >= version
                       for key, version in acked.items()), (step, instant)
        assert inner > len(times) // 2

    def test_extra_zero_time_hop_moves_no_pin(self, monkeypatch):
        """Kernel independence: one more zero-time hop in every device
        command changes the kernel's step count but no simulated time,
        so no crash point and no campaign digest moves."""
        config = _sweep_config("checkin", seed=7, num_keys=64)

        def reference_steps():
            run = _start(config, 120, 40)
            steps = 0
            while not all(proc.triggered for proc in run.procs):
                assert run.system.sim.step()
                steps += 1
            return steps

        steps = reference_steps()
        run = SsdController.run

        def hopping_run(controller, command):
            yield 0
            return (yield from run(controller, command))

        monkeypatch.setattr(SsdController, "run", hopping_run)
        assert reference_steps() > steps
        sweep = fault_sweep(mode="checkin", crash_points=50, seed=7)
        assert (sweep.total_instants, sweep.digest()) == \
            SWEEP_PINS["checkin"]
        assert kill_primary_campaign(mode="checkin", crash_points=50,
                                     seed=7).digest() == KILL_CAMPAIGN_PIN


class TestTenantSweep:
    @pytest.mark.parametrize("mode", ["baseline", "checkin"])
    def test_two_tenant_sweep_passes(self, mode):
        sweep = fault_sweep(mode=mode, crash_points=4, seed=13, ops=60,
                            tenants=2)
        assert sweep.ok, sweep.failures()[0]
        # Every crash point verified both tenants' recovered states.
        for result in sweep.points:
            assert result.recovered_digest.count("+") == 1

    def test_two_tenant_sweep_is_deterministic(self):
        first = fault_sweep(mode="checkin", crash_points=3, seed=21,
                            ops=60, tenants=2)
        second = fault_sweep(mode="checkin", crash_points=3, seed=21,
                             ops=60, tenants=2)
        assert first.digest() == second.digest()

    def test_two_tenant_start_runs_one_client_each(self):
        config = _sweep_config("checkin", seed=9, num_keys=64, tenants=2)
        system, ackeds, procs, _ = _start(config, 60, 20)
        assert len(system.tenants) == len(ackeds) == len(procs) == 2
        assert system.ssd.namespaces is not None
        while not all(proc.triggered for proc in procs):
            assert system.sim.step()
        # Both tenants made progress against disjoint namespaces.
        assert all(ackeds)
        from repro.fault.invariants import check_namespace_isolation
        assert check_namespace_isolation(system.ssd.ftl) == []
