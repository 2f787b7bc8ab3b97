"""Property tests: promote-on-failure under randomized kill geometry.

Hypothesis sweeps (seed × crash fraction × ship-queue depth) and asserts
the promote contract the whole subsystem exists for:

* the promoted replica's KV state equals the primary's replication log
  folded exactly to the replica's applied offset — nothing lost,
  nothing invented;
* every primary-acked write is at or below that applied offset (zero
  acked-write loss);
* same-seed campaigns are byte-identical (the campaign digest pins the
  crash steps *and* the per-point state digests).

The workloads are tiny (tens of ops) — the value is in the interleaving
coverage, not the volume.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replication import (
    LinkSpec,
    ReplicatedPair,
    campaign_config,
    kill_primary_campaign,
    state_digest,
)

_SETTINGS = dict(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(**_SETTINGS)
@given(seed=st.integers(0, 2 ** 16),
       kill_frac=st.floats(0.05, 0.95),
       queue_depth=st.integers(1, 6))
def test_promote_contract_holds(seed, kill_frac, queue_depth):
    config = campaign_config(seed=seed, ops=80, num_keys=32)
    link = LinkSpec(queue_depth=queue_depth)
    reference = ReplicatedPair(config, link=link)
    reference.start()
    total_instants, _ = reference.run_workload()
    reference.stop()

    pair = ReplicatedPair(config, link=link)
    pair.start()
    kill_instant = max(1, int(total_instants * kill_frac))
    pair.run_workload(kill_instant=kill_instant)
    from repro.common.rng import SeededRng
    pair.kill_primary(SeededRng(seed).fork("property-tear"))
    report = pair.promote()

    # Zero acked-write loss: everything the primary acked is applied.
    assert report.acked_offset <= report.applied_offset
    # Exact equality with the log fold at the applied offset.
    expected = {key: 0 for key, _v in pair._initial_keys()}
    expected.update(pair.log.fold(report.applied_offset))
    assert report.digest == state_digest(expected)
    assert report.contract_ok
    pair.stop()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 16))
def test_same_seed_campaigns_are_byte_identical(seed):
    kwargs = dict(crash_points=2, seed=seed, ops=60, num_keys=24)
    first = kill_primary_campaign(**kwargs)
    second = kill_primary_campaign(**kwargs)
    assert first.ok and second.ok
    assert first.digest() == second.digest()
    assert [p.crash_step for p in first.points] == \
        [p.crash_step for p in second.points]
    assert [p.kill_ns for p in first.points] == \
        [p.kill_ns for p in second.points]
