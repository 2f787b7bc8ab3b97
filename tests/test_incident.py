"""The ``repro-incident/v1`` forensics bundle and its CLI.

One gated, traced, blamed, flight-recorded run feeds most tests (the
bundle is deterministic, so the expensive simulation runs once per
module).  The contract under test is the acceptance chain: the bundle
validates, every flight-recorder span id resolves both in-bundle and
against the full trace dump, the reconstructed timeline interleaves
planes in causal order, and the dominant blame stage under the gate is
``ckpt_freeze_stall``.
"""

from __future__ import annotations

import json

import pytest

from repro.common.jsonl import UnknownSchemaError, read_json
from repro.common.units import MS
from repro.obs import (
    build_timeline,
    dominant_stage,
    incident_records,
    load_incident_file,
    pair_incident_records,
    resolve_against_trace,
    timeline_table,
    validate_incident_file,
    write_incident_jsonl,
)
from repro.system import KvSystem, tiny_config
from repro.telemetry import TelemetryConfig
from repro.trace import write_chrome_trace


@pytest.fixture(scope="module")
def gated_system():
    """One gated burst-prone run with every observability plane armed."""
    system = KvSystem(tiny_config(
        flightrec=True, trace=True, blame=True,
        lock_queries_during_checkpoint=True,
        telemetry=TelemetryConfig(interval_ns=1 * MS)))
    system.telemetry.watchdogs.escalate("checkpoint_overdue")
    system.run()
    return system


@pytest.fixture(scope="module")
def records(gated_system):
    return incident_records(gated_system)


class TestBundle:
    def test_bundle_validates(self, records, tmp_path):
        path = tmp_path / "incident.jsonl"
        count = write_incident_jsonl(str(path), records)
        assert count == len(records)
        assert validate_incident_file(str(path)) == []

    def test_header_names_schema_and_trigger(self, records):
        header = records[0]
        assert header["type"] == "header"
        assert header["schema"] == "repro-incident/v1"
        assert header["flight_events"] > 0

    def test_flight_span_ids_resolve_in_bundle(self, records):
        spans = {record["span_id"] for record in records
                 if record["type"] == "span"}
        referenced = {record["span_id"] for record in records
                      if record["type"] == "flight"
                      and record["span_id"] is not None}
        assert referenced, "gated traced run must link spans"
        assert referenced <= spans

    def test_flight_span_ids_resolve_in_trace_dump(
            self, gated_system, records, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path),
                           [("gated", gated_system.sim.tracer)])
        document, problems = read_json(str(path))
        assert problems == []
        assert resolve_against_trace(records, document) == []

    def test_unresolvable_span_id_is_reported(self, records):
        assert resolve_against_trace(records, {"traceEvents": []})

    def test_blame_names_gated_tail_stage(self, records):
        assert dominant_stage(records) == "ckpt_freeze_stall"

    def test_series_bracket_trigger_window(self, gated_system, records):
        header = records[0]
        trigger_t = header["trigger_t_ns"]
        assert trigger_t is not None
        window = header["window_ns"]
        for record in records:
            if record["type"] == "series":
                for t_ns, _value in record["points"]:
                    assert trigger_t - window <= t_ns <= trigger_t + window

    def test_health_frame_embedded(self, records):
        assert any(record["type"] == "health" for record in records)

    def test_validator_flags_dangling_span_link(self, records, tmp_path):
        broken = [dict(record) for record in records]
        for record in broken:
            if record["type"] == "flight" and record["span_id"] is not None:
                record["span_id"] = 999_999_999
                break
        path = tmp_path / "broken.jsonl"
        write_incident_jsonl(str(path), broken)
        problems = validate_incident_file(str(path))
        assert any("does not resolve" in problem for problem in problems)

    def test_loader_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps(
            {"type": "header", "schema": "repro-blame/v1"}) + "\n")
        with pytest.raises(UnknownSchemaError) as info:
            load_incident_file(str(path))
        assert info.value.found == "repro-blame/v1"
        assert info.value.expected == "repro-incident/v1"


class TestTimeline:
    def test_rows_sorted_by_merged_time(self, records):
        rows = build_timeline(records)
        assert rows
        assert [row[0] for row in rows] == \
            sorted(row[0] for row in rows)

    def test_planes_interleave(self, records):
        planes = {row[2] for row in build_timeline(records)}
        assert "flight" in planes
        assert "TRIGGER" in planes

    def test_table_names_trigger_and_stage(self, records):
        table = timeline_table(records)
        assert "trigger watchdog_error" in table
        assert "ckpt_freeze_stall" in table


class TestPairBundle:
    @pytest.fixture(scope="class")
    def pair_records(self):
        from repro.common.rng import SeededRng
        from repro.replication.campaign import campaign_config
        from repro.replication.replica import ReplicatedPair
        config = campaign_config(ops=120, flightrec=True)
        pair = ReplicatedPair(config)
        pair.start()
        pair.run_workload(kill_instant=80)
        pair.kill_primary(SeededRng(7).fork("incident-test"))
        pair.promote()
        return pair_incident_records(pair)

    def test_pair_bundle_validates(self, pair_records, tmp_path):
        path = tmp_path / "pair.jsonl"
        write_incident_jsonl(str(path), pair_records)
        assert validate_incident_file(str(path)) == []

    def test_both_nodes_and_repl_record_present(self, pair_records):
        nodes = {record.get("node") for record in pair_records
                 if record["type"] == "flight"}
        assert "replica" in nodes
        assert any(record["type"] == "repl" for record in pair_records)

    def test_crash_and_promote_triggers(self, pair_records):
        reasons = {record["reason"] for record in pair_records
                   if record["type"] == "trigger"}
        assert {"crash", "promote"} <= reasons

    def test_timeline_annotates_ship_lag(self, pair_records):
        rows = build_timeline(pair_records)
        repl_rows = [row for row in rows
                     if row[2] == "flight" and row[3].startswith("repl.")]
        assert repl_rows
        assert any("ship_lag=" in row[4] for row in repl_rows)


class TestCli:
    def test_incident_run_validate_and_show(self, tmp_path, capsys):
        from repro.__main__ import main
        bundle = tmp_path / "nested" / "dir" / "incident.jsonl"
        trace = tmp_path / "nested" / "trace.json"
        code = main(["incident", "--gate", "--queries", "600",
                     "--escalate", "checkpoint_overdue",
                     "--out", str(bundle), "--trace-out", str(trace),
                     "--assert-stage", "ckpt_freeze_stall"])
        assert code == 0
        assert bundle.exists() and trace.exists()
        assert main(["incident", "--validate", str(bundle)]) == 0
        assert main(["incident", "--show", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "dominant blame stage: ckpt_freeze_stall" in out

    def test_incident_assert_trigger_fails_quiet_run(self, capsys):
        from repro.__main__ import main
        # No gate, no escalation, tiny run: nothing trips.
        code = main(["incident", "--queries", "300", "--escalate", "",
                     "--assert-trigger"])
        capsys.readouterr()
        assert code == 1

    def test_validate_rejects_truncated_bundle(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "trunc.jsonl"
        path.write_text(json.dumps(
            {"type": "header", "schema": "repro-incident/v1",
             "label": "x", "node": None, "triggers": 0,
             "flight_events": 0, "window_ns": 0, "trigger_t_ns": None,
             "trigger_reason": None}) + "\n")
        code = main(["incident", "--validate", str(path)])
        capsys.readouterr()
        assert code == 1
