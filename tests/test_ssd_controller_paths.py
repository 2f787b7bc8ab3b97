"""Controller path tests: coalescer interplay with reads/flush/trim."""

from repro.flash import FlashGeometry, FlashTiming
from repro.ftl import FtlConfig
from repro.sim import Simulator, spawn
from repro.ssd import Command, ControllerConfig, InterfaceConfig, Op, Ssd, SsdSpec


def make_ssd(mapping_unit=4096, coalesce_bytes=1024 * 1024):
    sim = Simulator()
    spec = SsdSpec(
        geometry=FlashGeometry(channels=2, packages_per_channel=1,
                               dies_per_package=1, planes_per_die=1,
                               blocks_per_plane=8, pages_per_block=4),
        timing=FlashTiming(read_ns=50_000, program_ns=500_000,
                           erase_ns=3_000_000),
        ftl=FtlConfig(mapping_unit=mapping_unit),
        interface=InterfaceConfig(queue_depth=8),
        controller=ControllerConfig(write_coalesce_bytes=coalesce_bytes))
    return sim, Ssd(sim, spec)


def run(sim, generator):
    proc = spawn(sim, generator)
    sim.run()
    assert proc.ok, proc.exception
    return proc.value


class TestBufferedReads:
    def test_read_served_from_buffer_without_flash(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 2, tags=["a", "b"])  # partial unit
            reads_before = ssd.stats.value("flash.read")
            tags = yield from ssd.read(0, 2)
            return reads_before, tags

        before, tags = run(sim, proc())
        assert tags == ["a", "b"]
        # No user-data flash read: the data never left DRAM.
        assert ssd.stats.value("flash.read") - before <= \
            ssd.stats.value("flash.read.map")
        assert ssd.stats.value("host.read_buffer_hits") >= 1

    def test_read_mixing_buffered_and_flash(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 8, tags=[f"f{i}" for i in range(8)])
            yield from ssd.quiesce()                      # unit on flash
            yield from ssd.write(8, 1, tags=["buffered"])  # next unit partial
            tags = yield from ssd.read(6, 3)
            return tags

        assert run(sim, proc()) == ["f6", "f7", "buffered"]


class TestFlushAndTrim:
    def test_flush_writes_partial_buffered_units(self):
        sim, ssd = make_ssd()

        def proc():
            yield from ssd.write(0, 3, tags=list("abc"))
            assert len(ssd.controller.write_buffer) == 1
            yield from ssd.run(Command(op=Op.FLUSH))
            yield from ssd.quiesce()
            tags = yield from ssd.read(0, 3)
            return tags

        assert run(sim, proc()) == list("abc")
        assert len(ssd.controller.write_buffer) == 0
        assert ssd.stats.value("ftl.units.rmw.host") == 0  # unmapped before

    def test_trim_discards_buffered_data(self):
        sim, ssd = make_ssd(mapping_unit=512)

        def proc():
            yield from ssd.write(0, 1, tags=["gone"])
            yield from ssd.run(Command(op=Op.TRIM, lba=0, nsectors=8))
            tags = yield from ssd.read(0, 1)
            return tags

        assert run(sim, proc()) == [None]

    def test_eviction_under_pressure_reaches_flash(self):
        # Coalescer sized for one unit: scattered writes force evictions.
        sim, ssd = make_ssd(mapping_unit=4096, coalesce_bytes=4096)

        def proc():
            for i in range(6):
                yield from ssd.write(i * 8, 1, tags=[f"u{i}"])
            yield from ssd.run(Command(op=Op.FLUSH))
            yield from ssd.quiesce()
            tags = []
            for i in range(6):
                tags.extend((yield from ssd.read(i * 8, 1)))
            return tags

        assert run(sim, proc()) == [f"u{i}" for i in range(6)]
        assert ssd.stats.value("flash.program") >= 1


class TestDeviceInternalPaths:
    def test_device_read_overlays_buffer(self):
        sim, ssd = make_ssd(mapping_unit=512)

        def proc():
            yield from ssd.write(0, 1, tags=["host"])
            tags = yield from ssd.controller.device_read(0, 1)
            return tags

        assert run(sim, proc()) == ["host"]

    def test_device_write_counts_no_host_command(self):
        sim, ssd = make_ssd(mapping_unit=512)

        def proc():
            yield from ssd.controller.device_write(0, 1, ["internal"],
                                                   "ckpt", "ckpt")
            tags = yield from ssd.controller.device_read(0, 1)
            return tags

        assert run(sim, proc()) == ["internal"]
        assert ssd.stats.value("host.write_cmds") == 0
