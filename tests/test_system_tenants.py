"""Multi-tenant namespace sharding: config, determinism, enforcement.

The tenancy battery's system-level half.  The property-based isolation
checks live in ``test_property_namespaces.py``; the crash-sweep coverage
in ``test_fault_harness.py``.
"""

import json

import pytest

from repro.common.errors import ConfigError, NamespaceError
from repro.common.units import MIB
from repro.ssd import Command, Op
from repro.system import KvSystem, TenantSpec, run_config, tiny_config
from tests.conftest import TWO_TENANTS, summaries


class TestTenantConfig:
    def test_labels(self):
        assert TenantSpec().label(2) == "tenant2"
        assert TenantSpec(name="reader").label(2) == "reader"

    def test_tenant_view_seed_lineage(self):
        config = tiny_config(seed=40, tenants=(
            TenantSpec(), TenantSpec(), TenantSpec(seed_offset=9)))
        assert [config.tenant_view(i).seed for i in range(3)] == [40, 41, 49]
        # Views are plain single-engine configs again.
        assert config.tenant_view(0).tenants is None

    def test_tenant_view_overrides(self):
        config = tiny_config(workload="A", threads=4, tenants=(
            TenantSpec(), TenantSpec(workload="C", threads=2)))
        assert config.tenant_view(0).workload == "A"
        assert config.tenant_view(1).workload == "C"
        assert config.tenant_view(1).threads == 2

    def test_namespace_layout_disjoint_and_page_aligned(self):
        config = tiny_config(**TWO_TENANTS)
        layout = config.namespace_layout()
        sectors_per_page = config.page_size // 512
        assert [r.nsid for r in layout.ranges] == [0, 1]
        assert layout.ranges[0].lba_start == 0
        for r in layout.ranges:
            assert r.lba_start % sectors_per_page == 0
            assert r.nsectors % sectors_per_page == 0
        assert layout.ranges[1].lba_start >= layout.ranges[0].lba_end

    def test_tenant_engine_config_offsets_regions(self):
        config = tiny_config(**TWO_TENANTS)
        base = config.namespace_layout().ranges[1].lba_start
        zero = config.tenant_engine_config(0)
        one = config.tenant_engine_config(1)
        assert zero == config.tenant_view(0).engine_config()
        assert one.journal_lba_start == zero.journal_lba_start + base
        assert one.meta_lba_start == zero.meta_lba_start + base
        assert one.data_lba_start == zero.data_lba_start + base

    def test_capacity_check_rejects_too_many_tenants(self):
        config = tiny_config(tenants=tuple(TenantSpec() for _ in range(8)))
        with pytest.raises(ConfigError):
            config.check_capacity()

    def test_empty_tenant_tuple_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(tenants=())


class TestDeterminism:
    def test_same_seed_byte_identical_runs(self):
        a = run_config(tiny_config(mode="checkin", **TWO_TENANTS))
        b = run_config(tiny_config(mode="checkin", **TWO_TENANTS))
        assert summaries(a) == summaries(b)

    def test_seed_changes_results(self):
        a = run_config(tiny_config(mode="checkin", seed=1, **TWO_TENANTS))
        b = run_config(tiny_config(mode="checkin", seed=2, **TWO_TENANTS))
        assert summaries(a) != summaries(b)

    @pytest.mark.parametrize("mode", ["baseline", "checkin"])
    def test_single_tenant_matches_legacy_path(self, mode):
        legacy = run_config(tiny_config(mode=mode, total_queries=600))
        multi = run_config(tiny_config(mode=mode, total_queries=600,
                                       tenants=(TenantSpec(),)))
        assert json.dumps(legacy.metrics.summary(), sort_keys=True) == \
            json.dumps(multi.metrics.summary(), sort_keys=True)

    def test_tenants_diverge_from_each_other(self):
        result = run_config(tiny_config(mode="checkin", **TWO_TENANTS))
        a, b = result.tenants
        # Distinct seed lineages: same workload shape, different samples.
        assert a.metrics.latency_all.mean() != b.metrics.latency_all.mean()


class TestMultiTenantRuns:
    @pytest.mark.parametrize("mode", ["baseline", "checkin"])
    def test_per_tenant_ops_sum_to_aggregate(self, mode):
        result = run_config(tiny_config(mode=mode, **TWO_TENANTS))
        # total_queries is per tenant; the aggregate sees both workloads.
        assert sum(t.operations for t in result.tenants) == \
            result.metrics.operations == 2 * 600
        for tenant in result.tenants:
            assert tenant.metrics.throughput_qps() > 0

    def test_every_tenant_checkpoints(self):
        result = run_config(tiny_config(mode="checkin", **TWO_TENANTS))
        for tenant in result.tenants:
            assert len(tenant.checkpoint_reports) >= 1

    def test_tenant_lookup_by_name(self):
        config = tiny_config(journal_area_bytes=1 * MIB, num_keys=128,
                             total_queries=400,
                             tenants=(TenantSpec(name="storm"),
                                      TenantSpec(name="reader")))
        result = run_config(config)
        assert result.tenant("reader").name == "reader"
        with pytest.raises(KeyError):
            result.tenant("nobody")

    def test_legacy_run_reports_one_tenant(self, run_tiny):
        result = run_tiny(total_queries=500)
        assert [t.name for t in result.tenants] == ["tenant0"]
        assert result.tenants[0].operations == result.metrics.operations


class TestNamespaceEnforcement:
    def build(self):
        system = KvSystem(tiny_config(mode="checkin", **TWO_TENANTS))
        system.load()
        return system

    def test_escape_rejected_at_submit(self):
        system = self.build()
        other = system.ssd.namespaces.get(1)
        handle = system.ssd.namespace(0)
        with pytest.raises(NamespaceError):
            handle.submit(Command(op=Op.WRITE, lba=other.lba_start,
                                  nsectors=1, tags=["x"]))

    def test_straddle_rejected(self):
        system = self.build()
        boundary = system.ssd.namespaces.get(0).lba_end
        with pytest.raises(NamespaceError):
            system.ssd.submit(Command(op=Op.WRITE, lba=boundary - 1,
                                      nsectors=2, tags=["x", "y"]))

    def test_in_range_write_carries_nsid(self):
        system = self.build()
        base = system.ssd.namespaces.get(1).lba_start
        command = Command(op=Op.WRITE, lba=base, nsectors=1, tags=["x"])
        system.ssd.namespace(1).submit(command)
        assert command.nsid == 1
        while system.sim.step():
            pass

    def test_handle_write_stamps_its_nsid(self, drive):
        """The handle's read/write wrappers go through its ``submit``."""
        system = self.build()
        base = system.ssd.namespaces.get(1).lba_start
        submitted = []
        controller_submit = system.ssd.controller.submit

        def spy(command):
            submitted.append(command)
            return controller_submit(command)

        system.ssd.controller.submit = spy
        handle = system.ssd.namespace(1)
        written = drive(system, handle.write(base, 1, tags=["x"]))
        assert written.value.ok
        read = drive(system, handle.read(base, 1))
        assert read.value == ["x"]
        assert [(command.op, command.nsid) for command in submitted] == \
            [(Op.WRITE, 1), (Op.READ, 1)]

    def test_per_namespace_queue_depth_gauges(self):
        system = self.build()
        for nsid in (0, 1):
            assert system.ssd.controller.namespace_queue_depth(nsid) \
                is not None
