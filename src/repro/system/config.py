"""Whole-system configuration — the reproduction of Table I.

One :class:`SystemConfig` captures the DBMS, host and SSD configuration of
a run.  The five evaluated systems (baseline … checkin) are derived from
the same config via :meth:`SystemConfig.with_mode`, which flips exactly
the knobs the paper varies: mapping unit, ISCE presence, remap capability
and journal formatting.

Scaling note (documented per experiment in EXPERIMENTS.md): volumes are
scaled down uniformly from the paper's testbed — a checkpoint interval of
tens of simulated milliseconds against a hundreds-of-MiB device plays the
role of 60 s against a full SSD.  Flash latencies stay at realistic values
so latency *ratios* are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, MS, SECTOR_SIZE, US, ceil_div
from repro.engine.engine import MODES, EngineConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.media import MediaErrorConfig
from repro.flash.timing import FlashTiming
from repro.ftl.ftl import FtlConfig
from repro.ssd.controller import ControllerConfig
from repro.ssd.interface import (
    InterfaceConfig,
    NamespaceLayout,
    NamespaceRange,
)
from repro.ssd.ssd import SsdSpec
from repro.engine.admission import AdmissionConfig
from repro.telemetry.sampler import TelemetryConfig
from repro.workload.arrivals import ArrivalSpec
from repro.workload.records import (
    FixedSize,
    RecordSizeModel,
    mixed_pattern,
    small_value_default,
)

DEFAULT_MAPPING_UNITS = {
    "baseline": 4096,
    "isc_a": 4096,
    "isc_b": 4096,
    "isc_c": 512,
    "checkin": 512,
}
"""Per-configuration FTL mapping unit (Table I: 4 KiB page mapping for the
conventional systems, 512 B sub-page mapping for ISC-C and Check-In)."""


@lru_cache(maxsize=None)
def _size_model(size_spec: str, seed: int) -> RecordSizeModel:
    """Shared record-size model instances (see SystemConfig.size_model)."""
    if size_spec == "small-default":
        return small_value_default(seed=seed)
    if size_spec.startswith("fixed-"):
        return FixedSize(int(size_spec.split("-", 1)[1]))
    if size_spec.upper() in ("P1", "P2", "P3", "P4"):
        return mixed_pattern(size_spec, seed=seed)
    raise ConfigError(f"unknown size_spec {size_spec!r}")


@lru_cache(maxsize=1024)
def _data_area_sectors(size_spec: str, seed: int, num_keys: int,
                       mode: str, mapping_unit: int, compress_ratio: float,
                       slack: float) -> int:
    """Cached body of SystemConfig.data_area_sectors.

    The footprint is a pure function of these seven fields, but it walks
    the whole key population; every ``engine_config()`` call (device spec,
    engine construction, capacity check) used to recompute it.
    """
    model = _size_model(size_spec, seed)
    unit_sectors = mapping_unit // SECTOR_SIZE
    formatter = None
    if mode == "checkin":
        from repro.engine.aligner import SectorAlignedFormatter
        formatter = SectorAlignedFormatter(
            mapping_size=mapping_unit,
            compress_ratio=compress_ratio)
    total = 0
    for _key, size in model.sizes(num_keys):
        stored = formatter.stored_size(size) if formatter else size
        nsectors = ceil_div(stored, SECTOR_SIZE)
        # Mirror the engine: only remappable (whole-unit) records get
        # unit-aligned homes; everything else packs at sector grain.
        # Aligned records may also skip up to unit_sectors-1 sectors
        # to reach their boundary.
        if formatter is not None and stored % mapping_unit == 0:
            if nsectors % unit_sectors:
                nsectors += unit_sectors - (nsectors % unit_sectors)
            nsectors += unit_sectors - 1
        total += nsectors
    return int(total * (1.0 + slack)) + unit_sectors


@dataclass(frozen=True)
class TenantSpec:
    """Per-tenant overrides for a multi-tenant (namespaced) run.

    Every field left ``None`` inherits the base :class:`SystemConfig`
    value; ``seed_offset`` defaults to the tenant's index so tenants get
    distinct-but-deterministic RNG lineages (tenant 0 keeps the base seed
    and therefore reproduces the single-tenant run exactly).
    """

    name: str = ""
    workload: Optional[str] = None
    distribution: Optional[str] = None
    threads: Optional[int] = None
    num_keys: Optional[int] = None
    total_queries: Optional[int] = None
    size_spec: Optional[str] = None
    seed_offset: Optional[int] = None
    checkpoint_interval_ns: Optional[int] = None
    checkpoint_journal_quota: Optional[int] = None
    journal_area_bytes: Optional[int] = None
    arrivals: Optional[ArrivalSpec] = None
    admission: Optional[AdmissionConfig] = None

    def label(self, index: int) -> str:
        """Display name of the tenant at ``index``."""
        return self.name or f"tenant{index}"


_TENANT_OVERRIDE_FIELDS = (
    "workload", "distribution", "threads", "num_keys", "total_queries",
    "size_spec", "checkpoint_interval_ns", "checkpoint_journal_quota",
    "journal_area_bytes", "arrivals", "admission")


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one simulated run."""

    # --- configuration under test -------------------------------------
    mode: str = "baseline"
    seed: int = 42
    mapping_unit: Optional[int] = None
    """None = the mode's default (DEFAULT_MAPPING_UNITS)."""

    # --- DBMS / workload (Table I, DBMS configuration) -----------------
    workload: str = "A"
    distribution: str = "zipfian"
    threads: int = 32
    num_keys: int = 4096
    total_queries: int = 20_000
    size_spec: str = "small-default"
    """'small-default', 'fixed-<N>', or a mixed pattern 'P1'..'P4'."""

    # --- checkpoint policy ----------------------------------------------
    checkpoint_interval_ns: int = 50 * MS
    """Scaled stand-in for the paper's 60 s interval."""

    checkpoint_journal_quota: int = 4 * MIB
    """Stored journal bytes that force a checkpoint (the paper's 2 GiB /
    200-journal-file trigger, scaled)."""

    trigger_poll_ns: int = 1 * MS
    final_checkpoint: bool = True
    lock_queries_during_checkpoint: bool = False

    # --- host engine ------------------------------------------------------
    group_commit_ns: int = 20 * US
    max_txn_logs: int = 256
    compress_ratio: float = 1.0
    mem_cache_records: int = 512
    mem_hit_ns: int = 2_000
    cpu_query_ns: int = 1_000
    ckpt_parallelism: int = 64
    cow_batch: int = 256
    verify_reads: bool = True

    # --- journal / metadata regions ------------------------------------
    journal_area_bytes: int = 16 * MIB
    meta_area_sectors: int = 128
    data_area_slack: float = 0.10
    """Extra data-area sectors beyond the exact record footprint."""

    # --- SSD (Table I, storage configuration) ---------------------------
    channels: int = 4
    packages_per_channel: int = 1
    dies_per_package: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 48
    pages_per_block: int = 64
    page_size: int = 4096
    flash_read_ns: int = 60 * US
    flash_program_ns: int = 800 * US
    flash_erase_ns: int = 3_500 * US
    channel_bandwidth: int = 800 * 1000 * 1000
    queue_depth: int = 64
    interface_overhead_ns: int = 5_000
    pcie_bandwidth: int = 3_200_000_000
    ssd_cpu_cores: int = 2
    read_cache_units: int = 4096
    write_buffer_bytes: int = 2 * MIB
    gc_low_watermark: int = 2
    gc_high_watermark: int = 6
    max_pe_cycles: int = 3000
    media: Optional[MediaErrorConfig] = None
    """NAND media-error model; None = perfect flash (legacy behaviour).
    The device is seeded from the run seed, so same-seed runs draw the
    identical failure sequence."""

    spare_block_budget: int = 8
    """Grown-bad blocks tolerated before the device goes read-only."""

    read_reclaim_threshold: int = 100_000
    """Reads-since-erase that make a block a read-reclaim candidate."""

    media_retry_limit: int = 3
    """Controller-level whole-command retries on media errors."""

    snapshot_metadata: bool = False
    """Per-persist L2P snapshots (enable for recovery-focused runs)."""

    track_op_log: bool = False
    """Durable remap/trim op log for SPOR verification (recovery runs)."""

    trace: bool = False
    """Install a span tracer on this run's simulator (see ``repro.trace``).
    Off by default: a traced and an untraced run execute the identical
    event sequence, so leaving this off costs nothing."""

    telemetry: Optional[TelemetryConfig] = None
    """Wire a :class:`~repro.telemetry.sampler.TelemetrySampler` on this
    run (see ``repro.telemetry``).  None (the default) builds no sampler
    at all — like ``trace``, disabled telemetry costs nothing and the
    counter snapshots stay byte-identical to an instrumented run."""

    blame: bool = False
    """Attach per-request blame ledgers (see ``repro.obs``).  Off by
    default: blame only measures existing windows (no extra yields), so
    even an enabled run executes the identical event sequence — but a
    disabled run also skips every ledger allocation and clock read."""

    flightrec: bool = False
    """Arm the black-box flight recorder (see ``repro.obs.flightrec``):
    a bounded ring of high-signal events (watchdog edges, sheds,
    checkpoint phases, media retries, GC picks, replication NACKs,
    degraded entry) plus incident triggers.  Appends are synchronous
    plain-tuple pushes — zero added yields — and a disabled run
    allocates nothing (``sim.flightrec`` stays ``None``)."""

    arrivals: Optional[ArrivalSpec] = None
    """Open-loop arrival process (see ``repro.workload.arrivals``).  None
    (the default) keeps the classic closed-loop client threads; a spec
    replaces them with a single dispatcher firing ``total_queries``
    operations at externally generated instants.  Like ``trace`` and
    ``telemetry``, leaving this off costs nothing: an arrivals-off run is
    byte-identical to the pre-open-loop behaviour."""

    admission: Optional[AdmissionConfig] = None
    """Front-door admission control (see ``repro.engine.admission``).
    None + arrivals set means a default bounded-queue controller (open
    loop without a front door would queue unboundedly past saturation);
    None with closed-loop clients means no front door at all."""

    tenants: Optional[Tuple[TenantSpec, ...]] = None
    """None = classic single-tenant run.  A tuple (even of length one)
    selects namespace sharding: each tenant gets its own engine, journal
    and LBA range on the shared device."""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.tenants is not None and len(self.tenants) < 1:
            raise ConfigError("tenants tuple must not be empty")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.num_keys < 1 or self.total_queries < 1:
            raise ConfigError("num_keys and total_queries must be >= 1")
        unit = self.resolved_mapping_unit
        if unit < SECTOR_SIZE or unit > self.page_size or self.page_size % unit:
            raise ConfigError(f"mapping unit {unit} incompatible with "
                              f"{self.page_size} B pages")

    # ------------------------------------------------------------------
    # derived pieces
    # ------------------------------------------------------------------
    @property
    def resolved_mapping_unit(self) -> int:
        """The FTL mapping unit actually in force."""
        if self.mapping_unit is not None:
            return self.mapping_unit
        return DEFAULT_MAPPING_UNITS[self.mode]

    def with_mode(self, mode: str) -> "SystemConfig":
        """The same experiment under a different configuration."""
        return replace(self, mode=mode)

    def effective_admission(self) -> Optional[AdmissionConfig]:
        """The front-door config actually in force.

        Open-loop runs always get a front door (explicit or default);
        closed-loop runs only get one when asked.
        """
        if self.admission is not None:
            return self.admission
        if self.arrivals is not None:
            return AdmissionConfig()
        return None

    def size_model(self) -> RecordSizeModel:
        """Instantiate the record-size model from ``size_spec``.

        Memoised on ``(size_spec, seed)``: the model is a pure function of
        those two fields, and sharing the instance shares its per-key size
        cache across the several places one run consults it
        (:meth:`data_area_sectors`, capacity checks, the engine load).
        """
        return _size_model(self.size_spec, self.seed)

    def geometry(self) -> FlashGeometry:
        """The NAND geometry of this run's device."""
        return FlashGeometry(
            channels=self.channels,
            packages_per_channel=self.packages_per_channel,
            dies_per_package=self.dies_per_package,
            planes_per_die=self.planes_per_die,
            blocks_per_plane=self.blocks_per_plane,
            pages_per_block=self.pages_per_block,
            page_size=self.page_size)

    def timing(self) -> FlashTiming:
        """The NAND timing of this run's device."""
        return FlashTiming(
            read_ns=self.flash_read_ns,
            program_ns=self.flash_program_ns,
            erase_ns=self.flash_erase_ns,
            channel_bandwidth=self.channel_bandwidth)

    def ssd_spec(self) -> SsdSpec:
        """The full device spec for this configuration."""
        engine_cfg = self.engine_config()
        return SsdSpec(
            geometry=self.geometry(),
            timing=self.timing(),
            ftl=FtlConfig(mapping_unit=self.resolved_mapping_unit,
                          gc_low_watermark=self.gc_low_watermark,
                          gc_high_watermark=self.gc_high_watermark,
                          write_buffer_bytes=self.write_buffer_bytes,
                          max_pe_cycles=self.max_pe_cycles,
                          snapshot_metadata=self.snapshot_metadata,
                          track_op_log=self.track_op_log,
                          spare_block_budget=self.spare_block_budget,
                          read_reclaim_threshold=self.read_reclaim_threshold),
            interface=InterfaceConfig(
                queue_depth=self.queue_depth,
                command_overhead_ns=self.interface_overhead_ns,
                pcie_bandwidth=self.pcie_bandwidth),
            controller=ControllerConfig(
                cpu_cores=self.ssd_cpu_cores,
                read_cache_units=self.read_cache_units,
                media_retry_limit=self.media_retry_limit),
            enable_isce=engine_cfg.uses_in_storage_checkpoint,
            allow_remap=engine_cfg.device_allow_remap,
            media=self.media,
            media_seed=self.seed)

    def data_area_sectors(self) -> int:
        """Upper-bound data-area footprint of the key population.

        Uses the formatted (stored) size for the aligned-journaling mode
        and rounds every record to the mapping unit — a safe over-estimate
        of the engine's per-record alignment decisions — plus slack.
        Memoised (module-level) on the fields it actually reads.
        """
        return _data_area_sectors(self.size_spec, self.seed, self.num_keys,
                                  self.mode, self.resolved_mapping_unit,
                                  self.compress_ratio, self.data_area_slack)

    def engine_config(self) -> EngineConfig:
        """The storage-engine configuration for this run."""
        journal_sectors = self.journal_area_bytes // SECTOR_SIZE
        if journal_sectors % 2:
            journal_sectors -= 1
        meta_start = journal_sectors
        data_start = meta_start + self.meta_area_sectors
        unit_sectors = self.resolved_mapping_unit // SECTOR_SIZE
        if data_start % unit_sectors:
            data_start += unit_sectors - (data_start % unit_sectors)
        return EngineConfig(
            mode=self.mode,
            journal_lba_start=0,
            journal_sectors=journal_sectors,
            meta_lba_start=meta_start,
            meta_sectors=self.meta_area_sectors,
            data_lba_start=data_start,
            data_sectors=self.data_area_sectors(),
            mapping_unit=self.resolved_mapping_unit,
            group_commit_ns=self.group_commit_ns,
            max_txn_logs=self.max_txn_logs,
            compress_ratio=self.compress_ratio,
            mem_cache_records=self.mem_cache_records,
            mem_hit_ns=self.mem_hit_ns,
            cpu_query_ns=self.cpu_query_ns,
            ckpt_parallelism=self.ckpt_parallelism,
            cow_batch=self.cow_batch,
            lock_queries_during_checkpoint=self.lock_queries_during_checkpoint,
            verify_reads=self.verify_reads)

    # ------------------------------------------------------------------
    # multi-tenant (namespace) derivations
    # ------------------------------------------------------------------
    def tenant_view(self, index: int) -> "SystemConfig":
        """The effective single-tenant config of tenant ``index``.

        A view is a plain :class:`SystemConfig` (``tenants=None``) with the
        tenant's overrides and seed applied — it drives the tenant's
        workload generators, checkpoint policy and engine layout, while
        device-level fields are only read from the base config.
        """
        if self.tenants is None or not 0 <= index < len(self.tenants):
            raise ConfigError(f"no tenant at index {index}")
        spec = self.tenants[index]
        overrides = {name: getattr(spec, name)
                     for name in _TENANT_OVERRIDE_FIELDS
                     if getattr(spec, name) is not None}
        offset = spec.seed_offset if spec.seed_offset is not None else index
        return replace(self, tenants=None, seed=self.seed + offset,
                       **overrides)

    def namespace_layout(self) -> NamespaceLayout:
        """Stack each tenant's LBA footprint into one namespace layout.

        Footprints are page-aligned so no flash page (and hence no mapping
        unit) straddles two namespaces.
        """
        if self.tenants is None:
            raise ConfigError("namespace_layout needs a tenants tuple")
        page_sectors = self.page_size // SECTOR_SIZE
        ranges = []
        base = 0
        for index, spec in enumerate(self.tenants):
            engine_cfg = self.tenant_view(index).engine_config()
            footprint = engine_cfg.data_lba_start + engine_cfg.data_sectors
            if footprint % page_sectors:
                footprint += page_sectors - (footprint % page_sectors)
            ranges.append(NamespaceRange(nsid=index, lba_start=base,
                                         nsectors=footprint,
                                         name=spec.label(index)))
            base += footprint
        return NamespaceLayout(ranges)

    def tenant_engine_config(self, index: int) -> EngineConfig:
        """Tenant ``index``'s engine regions, offset to its namespace base.

        Engines address the shared device in absolute LBAs; isolation is
        the controller's range check, not address translation, so tenant 0
        (base 0) is bit-identical to the legacy single-engine layout.
        """
        engine_cfg = self.tenant_view(index).engine_config()
        base = self.namespace_layout().get(index).lba_start
        if base == 0:
            return engine_cfg
        return replace(
            engine_cfg,
            journal_lba_start=engine_cfg.journal_lba_start + base,
            meta_lba_start=engine_cfg.meta_lba_start + base,
            data_lba_start=engine_cfg.data_lba_start + base)

    def check_capacity(self) -> Tuple[int, int]:
        """Validate logical footprint vs raw flash; returns (logical, raw).

        Keeps at least ~20 % of raw capacity as over-provisioning so GC
        has somewhere to work.
        """
        if self.tenants is not None:
            logical_sectors = self.namespace_layout().ranges[-1].lba_end
        else:
            engine_cfg = self.engine_config()
            logical_sectors = (engine_cfg.data_lba_start
                               + engine_cfg.data_sectors)
        logical_bytes = logical_sectors * SECTOR_SIZE
        raw = self.geometry().capacity_bytes
        if logical_bytes > raw * 0.80:
            raise ConfigError(
                f"logical footprint {logical_bytes // KIB} KiB exceeds 80% of "
                f"raw capacity {raw // KIB} KiB; grow the device or shrink "
                "the workload")
        return logical_bytes, raw


def tiny_config(**overrides) -> SystemConfig:
    """A seconds-scale configuration for unit/integration tests."""
    defaults = dict(
        threads=4,
        num_keys=256,
        total_queries=1_500,
        journal_area_bytes=2 * MIB,
        checkpoint_interval_ns=10 * MS,
        checkpoint_journal_quota=256 * KIB,
        channels=2,
        dies_per_package=1,
        planes_per_die=2,
        blocks_per_plane=24,
        pages_per_block=32,
        mem_cache_records=64,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)
