"""Replication subsystem: frames, snapshots, shipping, promote, campaign.

Covers the durability contract end to end: validated frame streams
(typed refusal on any damage), Aurora-shaped snapshot export/restore,
primary→replica journal shipping with NACK re-ship, promote-on-failure
with zero acked-write loss, and the seeded kill-the-primary campaign —
plus the zero-overhead-when-disabled byte-identity guarantee and the
semi-sync ``repl_ship`` blame stage.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import (
    CorruptFrameError,
    ReplicationError,
    SnapshotFrameError,
    TruncatedFrameError,
)
from repro.common.rng import SeededRng
from repro.fault.harness import iter_crash_points
from repro.replication import (
    CheckpointStore,
    LinkSpec,
    ReplicatedPair,
    ReplicationLog,
    campaign_config,
    cold_restore,
    decode_stream,
    encode_stream,
    flip_bit,
    kill_primary_campaign,
    state_digest,
)
from repro.replication.frames import HEADER_BYTES
from repro.sim import spawn
from repro.system import KvSystem, tiny_config

META = {"kind": "snapshot.full", "epoch": 3, "log_offset": 120}
RECORDS = [[key, key % 7] for key in range(300)]


def _pair(ops: int = 120, keys: int = 48, **kwargs) -> ReplicatedPair:
    config = campaign_config(ops=ops, num_keys=keys)
    pair = ReplicatedPair(config, **kwargs)
    pair.start()
    return pair


class TestFrames:
    def test_roundtrip(self):
        data = encode_stream(META, RECORDS, chunk_records=64)
        meta, records = decode_stream(data)
        # decode returns the caller meta plus the validated record count.
        assert {key: meta[key] for key in META} == META
        assert meta["records"] == len(RECORDS)
        assert records == RECORDS

    def test_empty_stream_roundtrips(self):
        meta, records = decode_stream(encode_stream({"kind": "x"}, []))
        assert records == []

    def test_truncation_is_typed(self):
        data = encode_stream(META, RECORDS)
        for cut in (len(data) - 1, len(data) // 2, HEADER_BYTES - 3, 0):
            with pytest.raises(TruncatedFrameError):
                decode_stream(data[:cut])

    def test_bit_flips_never_pass(self):
        data = encode_stream(META, RECORDS)
        # Sweep flips across the whole stream: header magic, kind,
        # seq, length fields, CRC itself and payload bytes.
        for bit in range(0, len(data) * 8, max(1, len(data) // 3)):
            with pytest.raises(SnapshotFrameError):
                decode_stream(flip_bit(data, bit))

    def test_whole_frame_excision_detected(self):
        data = encode_stream(META, RECORDS, chunk_records=50)
        frames = []
        offset = 0
        from repro.replication.frames import decode_frame
        while offset < len(data):
            start = offset
            _kind, _seq, _payload, offset = decode_frame(data, offset)
            frames.append(data[start:offset])
        assert len(frames) >= 4    # BEGIN + >=2 chunks + END
        # Drop an interior chunk: seq/count/stream-CRC must catch it.
        with pytest.raises(CorruptFrameError):
            decode_stream(b"".join(frames[:2] + frames[3:]))


class TestSnapshotStore:
    def _store_with_history(self):
        log = ReplicationLog()
        store = CheckpointStore(log)
        for key in range(12):
            log.append(key, 1, 64)
        store.checkpoint()
        for key in range(6):
            log.append(key, 2, 64)
        store.checkpoint()
        return log, store

    def test_full_snapshot_restores_state(self, started_system):
        log, store = self._store_with_history()
        data = store.fetch_checkpoint()
        system = started_system(num_keys=32)
        report = CheckpointStore.apply_snapshot(data, system.engine)
        assert report.kind == "snapshot.full"
        assert report.log_offset == len(log)
        assert report.installed == 12
        observed = {r.key: r.version for r in system.engine.kvmap.records()
                    if r.version}
        assert observed == log.fold(len(log))

    def test_corrupt_snapshot_refused_before_touching_engine(
            self, started_system):
        _log, store = self._store_with_history()
        data = flip_bit(store.fetch_checkpoint(), 200)
        system = started_system(num_keys=32)
        before = {r.key: r.version for r in system.engine.kvmap.records()}
        with pytest.raises(SnapshotFrameError):
            CheckpointStore.apply_snapshot(data, system.engine)
        after = {r.key: r.version for r in system.engine.kvmap.records()}
        assert after == before

    def test_non_snapshot_stream_refused(self):
        """A valid frame stream of any other kind never reaches the
        engine (``engine=None`` would raise if it did)."""
        for kind in ("snapshot.delta", "batch"):
            with pytest.raises(CorruptFrameError):
                CheckpointStore.apply_snapshot(
                    encode_stream({"kind": kind}, RECORDS), engine=None)

    def test_bootstrap_epoch_always_fetchable(self):
        store = CheckpointStore(ReplicationLog())
        meta, records = decode_stream(store.fetch_checkpoint())
        assert meta["log_offset"] == 0
        assert records == []


class TestShipping:
    def test_full_run_converges(self):
        pair = _pair()
        pair.run_workload()
        pair.drain()
        assert pair.applier.applied_offset == len(pair.log)
        assert pair.shipper.acked_offset == len(pair.log)
        expected = {key: 0 for key, _size in pair._initial_keys()}
        expected.update(pair.log.fold(len(pair.log)))
        observed = {r.key: r.version
                    for r in pair.replica.engine.kvmap.records()}
        assert state_digest(observed) == state_digest(expected)
        pair.stop()

    def test_corrupt_batch_refused_and_reshipped(self):
        flipped = []

        def tamper(data: bytes, batch_index: int):
            if batch_index == 1:
                flipped.append(batch_index)
                return flip_bit(data, 64)
            return data

        pair = _pair(tamper=tamper)
        pair.run_workload()
        pair.drain()
        assert flipped, "tamper hook never fired"
        assert pair.applier.frames_refused > 0
        assert pair.shipper.nacks > 0
        assert pair.shipper.reshipped_ops > 0
        # The refusal is not silent *and* not fatal: the re-shipped
        # stream still converges to the full log.
        assert pair.applier.applied_offset == len(pair.log)
        pair.stop()

    def test_dropped_batch_detected_as_gap(self):
        def tamper(data: bytes, batch_index: int):
            return None if batch_index == 0 else data

        pair = _pair(tamper=tamper)
        pair.run_workload()
        pair.drain()
        assert pair.shipper.nacks > 0
        assert pair.applier.applied_offset == len(pair.log)
        pair.stop()

    def test_link_spec_validates(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            LinkSpec(gbit_per_s=0)
        with pytest.raises(ConfigError):
            LinkSpec(queue_depth=0)


class TestPromote:
    def test_kill_and_promote_loses_no_acked_write(self):
        pair = _pair()
        pair.run_workload(kill_step=1_800)
        pair.kill_primary(SeededRng(3).fork("tear"))
        report = pair.promote()
        assert report.contract_ok
        assert report.acked_offset <= report.applied_offset
        assert report.digest == report.expected_digest
        assert report.rpo_ops == len(pair.log) - report.applied_offset
        assert report.verified_reads == \
            len(pair.log.fold(report.acked_offset)) > 0
        assert report.rto_ns > 0
        pair.stop()

    def test_cold_restore_matches_fold(self):
        pair = _pair()
        pair.run_workload(kill_step=1_800)
        pair.kill_primary(SeededRng(3).fork("tear"))
        report = cold_restore(pair)
        assert report.contract_ok
        assert report.restored_offset >= report.acked_offset
        assert report.verified_reads == \
            len(pair.log.fold(report.acked_offset)) > 0
        assert report.rto_ns > 0
        pair.stop()

    def test_cold_restore_requires_kill(self):
        pair = _pair()
        with pytest.raises(ReplicationError):
            cold_restore(pair)
        pair.stop()

class TestCampaign:
    def test_small_campaign_holds_contract(self):
        result = kill_primary_campaign(crash_points=4, ops=100,
                                       num_keys=48)
        assert result.ok
        assert len(result.points) == 4
        assert result.mean_rto_ns("warm") > 0
        assert result.mean_rto_ns("snapshot") > 0

    def test_campaign_digest_deterministic(self):
        first = kill_primary_campaign(crash_points=3, ops=80, num_keys=32)
        second = kill_primary_campaign(crash_points=3, ops=80, num_keys=32)
        assert first.digest() == second.digest()

    def test_campaign_matches_golden_digest(self):
        """Pinned value of ``repro replicate --campaign 50 --seed 7``."""
        result = kill_primary_campaign(mode="checkin", crash_points=50,
                                       seed=7)
        assert result.digest() == "fbf2dd890a34cad7"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReplicationError):
            kill_primary_campaign(crash_points=1, strategies=("tape",))


class TestIterCrashPoints:
    def test_deterministic_and_bounded(self):
        points = list(iter_crash_points(7, 500, 20, "unit/a"))
        again = list(iter_crash_points(7, 500, 20, "unit/a"))
        assert [(i, s) for i, s, _ in points] == \
            [(i, s) for i, s, _ in again]
        assert all(1 <= step <= 500 for _i, step, _r in points)
        assert len(points) == 20

    def test_namespaces_diverge(self):
        a = [s for _i, s, _r in iter_crash_points(7, 500, 20, "unit/a")]
        b = [s for _i, s, _r in iter_crash_points(7, 500, 20, "unit/b")]
        assert a != b

    def test_point_rngs_are_forkable_per_point(self):
        rngs = [rng for _i, _s, rng in iter_crash_points(7, 100, 5, "x")]
        draws = [rng.fork("tear").randint(0, 10 ** 9) for rng in rngs]
        assert len(set(draws)) > 1


class TestZeroOverhead:
    def test_async_repl_log_is_free(self, make_system, drive):
        """Wiring an async replication log must not move a single
        simulated timestamp: the hook appends in zero time and yields
        nothing extra, so two identical workloads — one logging, one
        not — finish with byte-identical metric summaries."""
        def run(with_log: bool):
            system = make_system(num_keys=48, total_queries=120)
            system.load()
            system.engine.start()
            captured = ReplicationLog()
            if with_log:
                system.engine.repl_log = captured.append
            done = system.make_client_pool().start()
            while not done.triggered:
                assert system.sim.step(), "simulation starved"
            summary = json.dumps(system.metrics.summary(), sort_keys=True)
            system.engine.shutdown()
            return summary, len(captured)

        plain, logged_zero = run(with_log=False)
        hooked, logged = run(with_log=True)
        assert logged_zero == 0 and logged > 0
        assert plain == hooked


def test_semi_sync_blames_the_ship_wait():
    """Semi-sync writers wait for the ack; that wait must be charged to
    the ``repl_ship`` stage, and conservation must still hold (the
    ledger finalizer raises on over-attribution)."""
    config = campaign_config(ops=80, num_keys=32, blame=True)
    pair = ReplicatedPair(config, semi_sync=True)
    pair.start()
    pair.run_workload()
    pair.drain()
    collector = pair.primary.tenants[0].blame
    totals = collector.category_totals()
    assert totals.get("repl_ship", 0) > 0
    pair.stop()


def test_replication_probes_and_watchdog_registered():
    from repro.telemetry import names
    from repro.telemetry.sampler import TelemetryConfig
    config = campaign_config(ops=80, num_keys=32,
                             telemetry=TelemetryConfig())
    pair = ReplicatedPair(config)
    pair.start()
    pair.run_workload()
    pair.drain()
    sampler = pair.primary.telemetry
    for name in (names.REPL_SHIP_LAG_OPS, names.REPL_SHIP_LAG_BYTES,
                 names.REPL_REPLAY_APPLIED):
        assert sampler.registry.get(name) is not None
    # Probes registered post-build must sample cleanly into series.
    sampler.sample_once()
    assert sampler.get(names.REPL_REPLAY_APPLIED).last() == \
        float(pair.applier.replay_applied)
    assert sampler.get(names.REPL_SHIP_LAG_OPS).last() == 0.0
    assert any(w.name == "replication_lag"
               for w in sampler.watchdogs.watchdogs)
    pair.stop()
