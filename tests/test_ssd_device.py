"""Integration tests for the full SSD device (interface + controller + FTL)."""

import pytest

from repro.common.errors import CommandError
from repro.flash import FlashGeometry, FlashTiming
from repro.ftl import FtlConfig
from repro.sim import Simulator, spawn
from repro.ssd import Command, ControllerConfig, CowEntry, InterfaceConfig, Op, Ssd, SsdSpec


def make_ssd(mapping_unit=512, enable_isce=False, allow_remap=True,
             blocks=8, queue_depth=8, read_cache_units=64):
    sim = Simulator()
    spec = SsdSpec(
        geometry=FlashGeometry(channels=2, packages_per_channel=1,
                               dies_per_package=1, planes_per_die=1,
                               blocks_per_plane=blocks, pages_per_block=4,
                               page_size=4096),
        timing=FlashTiming(read_ns=50_000, program_ns=500_000,
                           erase_ns=3_000_000, channel_bandwidth=10**9,
                           channel_setup_ns=100),
        ftl=FtlConfig(mapping_unit=mapping_unit),
        interface=InterfaceConfig(queue_depth=queue_depth,
                                  command_overhead_ns=5_000,
                                  pcie_bandwidth=3_200_000_000),
        controller=ControllerConfig(read_cache_units=read_cache_units),
        enable_isce=enable_isce,
        allow_remap=allow_remap,
    )
    return sim, Ssd(sim, spec)


def run(sim, generator):
    proc = spawn(sim, generator)
    sim.run()
    assert proc.triggered and proc.ok, getattr(proc, "exception", None)
    return proc.value


class TestReadWrite:
    def test_write_read_roundtrip(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 2, tags=["x", "y"])
            tags = yield from ssd.read(0, 2)
            return tags

        assert run(sim, proc()) == ["x", "y"]

    def test_completion_latency_positive(self):
        sim, ssd = make_ssd()

        def proc():
            completion = yield from ssd.write(0, 1, tags=["x"])
            return completion

        completion = run(sim, proc())
        assert completion.latency_ns >= 5_000  # at least the interface overhead

    def test_write_counters(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 4, tags=None, cause="host")

        run(sim, proc())
        assert ssd.stats.value("host.write_cmds") == 1
        assert ssd.stats.bytes("host.write_cmds") == 2048

    def test_queue_depth_limits_concurrency(self):
        sim, ssd = make_ssd(queue_depth=1)
        finish_times = []

        def writer(lba):
            yield from ssd.write(lba, 1, tags=None)
            finish_times.append(sim.now)

        spawn(sim, writer(0))
        spawn(sim, writer(1))
        sim.run()
        # Second command must wait for the first to release the only slot.
        assert finish_times[1] >= finish_times[0] + 5_000

    def test_trim_makes_sectors_unmapped(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 2, tags=["a", "b"])
            yield from ssd.run(Command(op=Op.TRIM, lba=0, nsectors=2))
            tags = yield from ssd.read(0, 2)
            return tags

        assert run(sim, proc()) == [None, None]

    def test_flush_persists_partial_pages(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 1, tags=["x"], stream="journal")
            yield from ssd.run(Command(op=Op.FLUSH))
            yield from ssd.quiesce()

        run(sim, proc())
        assert ssd.stats.value("flash.program") >= 1


class TestReadCache:
    def test_repeat_read_hits_cache(self):
        sim, ssd = make_ssd(read_cache_units=64)

        def proc():
            yield from ssd.write(0, 8, tags=[f"s{i}" for i in range(8)])
            yield from ssd.quiesce()
            flash_reads_before = ssd.stats.value("flash.read")
            yield from ssd.read(0, 8)   # fills the read cache
            yield from ssd.read(0, 8)   # served from DRAM
            return flash_reads_before

        before = run(sim, proc())
        assert ssd.stats.value("host.read_cache_hits") >= 1
        # Only the first read may have touched flash.
        assert ssd.stats.value("flash.read") <= before + 1

    def test_write_invalidate_then_fresh_read(self):
        sim, ssd = make_ssd(read_cache_units=64)

        def proc():
            yield from ssd.write(0, 1, tags=["v1"])
            yield from ssd.read(0, 1)
            yield from ssd.write(0, 1, tags=["v2"])
            tags = yield from ssd.read(0, 1)
            return tags

        assert run(sim, proc()) == ["v2"]


class TestVendorCommands:
    def test_cow_rejected_without_isce(self):
        sim, ssd = make_ssd(enable_isce=False)

        def proc():
            yield from ssd.run(Command(op=Op.COW, entries=(CowEntry(0, 100),)))

        spawn(sim, proc())
        with pytest.raises(CommandError):
            sim.run()

    def test_cow_remaps_aligned_entry(self):
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=512)

        def proc():
            yield from ssd.write(0, 1, tags=["journal"], stream="journal")
            programs_before = ssd.stats.value("flash.program")
            completion = yield from ssd.run(Command(
                op=Op.COW, entries=(CowEntry(src_lba=0, dst_lba=100),)))
            tags = yield from ssd.read(100, 1)
            return programs_before, completion, tags

        before, completion, tags = run(sim, proc())
        assert completion.remapped_units == 1
        assert completion.copied_units == 0
        assert tags == ["journal"]
        assert ssd.stats.value("flash.program") == before

    def test_cow_copies_when_remap_disabled(self):
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=512,
                            allow_remap=False)

        def proc():
            yield from ssd.write(0, 1, tags=["journal"], stream="journal")
            completion = yield from ssd.run(Command(
                op=Op.COW, entries=(CowEntry(src_lba=0, dst_lba=100),)))
            tags = yield from ssd.read(100, 1)
            return completion, tags

        completion, tags = run(sim, proc())
        assert completion.remapped_units == 0
        assert completion.copied_units == 1
        assert tags == ["journal"]

    def test_multi_cow_batches(self):
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=512)

        def proc():
            yield from ssd.write(0, 4, tags=list("abcd"), stream="journal")
            entries = tuple(CowEntry(src_lba=i, dst_lba=100 + i)
                            for i in range(4))
            completion = yield from ssd.run(Command(op=Op.COW_MULTI,
                                                    entries=entries))
            tags = yield from ssd.read(100, 4)
            return completion, tags

        completion, tags = run(sim, proc())
        assert completion.remapped_units == 4
        assert tags == list("abcd")

    def test_checkpoint_command_persists_metadata(self):
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=512)

        def proc():
            yield from ssd.write(0, 2, tags=["a", "b"], stream="journal")
            entries = (CowEntry(0, 100), CowEntry(1, 101))
            yield from ssd.run(Command(op=Op.CHECKPOINT, entries=entries))
            yield from ssd.quiesce()

        run(sim, proc())
        assert ssd.stats.value("ftl.units.write.meta") >= 1

    def test_delete_logs_trims_journal(self):
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=512)

        def proc():
            yield from ssd.write(0, 2, tags=["a", "b"], stream="journal")
            yield from ssd.run(Command(op=Op.CHECKPOINT,
                                       entries=(CowEntry(0, 100),
                                                CowEntry(1, 101))))
            yield from ssd.run(Command(op=Op.DELETE_LOGS, lba=0, nsectors=2))
            journal = yield from ssd.read(0, 2)
            data = yield from ssd.read(100, 2)
            return journal, data

        journal, data = run(sim, proc())
        assert journal == [None, None]
        assert data == ["a", "b"]

    def test_unaligned_entry_takes_copy_path(self):
        # 4 KiB mapping: single-sector CoW entries cannot be remapped.
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=4096)

        def proc():
            yield from ssd.write(0, 8, tags=[f"j{i}" for i in range(8)],
                                 stream="journal")
            completion = yield from ssd.run(Command(
                op=Op.COW, entries=(CowEntry(src_lba=0, dst_lba=104,
                                             nsectors=1),)))
            return completion

        completion = run(sim, proc())
        assert completion.remapped_units == 0
        assert completion.copied_units == 1

    def test_merged_partial_entry_scatter(self):
        from repro.checkin import MergedPayload
        sim, ssd = make_ssd(enable_isce=True, mapping_unit=512)

        def proc():
            merged = MergedPayload()
            merged.add(128, ("keyA", 1))
            merged.add(256, ("keyB", 1))
            yield from ssd.write(0, 1, tags=[merged], stream="journal")
            entries = (
                CowEntry(src_lba=0, dst_lba=100, src_offset=0, length_bytes=128),
                CowEntry(src_lba=0, dst_lba=108, src_offset=128,
                         length_bytes=256),
            )
            completion = yield from ssd.run(Command(op=Op.COW_MULTI,
                                                    entries=entries))
            a = yield from ssd.read(100, 1)
            b = yield from ssd.read(108, 1)
            return completion, a, b

        completion, a, b = run(sim, proc())
        assert completion.remapped_units == 0
        assert completion.copied_units == 2
        assert a == [("keyA", 1)]
        assert b == [("keyB", 1)]


class TestBackgroundGc:
    def test_idle_daemon_collects(self):
        sim, ssd = make_ssd(blocks=4, mapping_unit=512)
        ssd.start()
        total_units = ssd.ftl.geometry.total_pages * ssd.ftl.units_per_page

        def proc():
            for i in range(total_units):
                yield from ssd.write(0, 1, tags=None)
            yield from ssd.quiesce()

        proc_obj = spawn(sim, proc())
        while not proc_obj.triggered:
            sim.step()
        # Let the daemon observe the idle device for a while.
        sim.run(until=sim.now + 50_000_000)
        ssd.shutdown()
        sim.run()
        assert proc_obj.ok
        assert ssd.stats.value("gc.invocations") >= 1
