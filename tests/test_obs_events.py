"""The point-event vocabulary, its emit path and the plane switchboard.

* the vocabulary is closed: an undeclared ``(layer, kind)`` raises, and
  the literal ``emit(...)`` pairs in ``src/repro`` are exactly the
  declared ones;
* a traced event reaches the flight ring linked to its own span, and a
  span still open at the end of a run resolves in the incident bundle;
* triggers carry the tripping event's layer, kind and detail;
* one :class:`Plane` class serves every process-wide switch.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.obs import (
    incident_records,
    validate_incident_file,
    write_incident_jsonl,
)
from repro.obs.events import EVENTS, Observer
from repro.obs.plane import Plane
from repro.sim import Simulator
from repro.system import KvSystem, tiny_config

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def emit_calls():
    """Every ``<x>.emit(...)`` call under ``src/repro``: (path, line, args)."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "emit":
                yield path, node.lineno, node.args


class TestVocabulary:
    def test_undeclared_pair_raises(self):
        with pytest.raises(ValueError, match="undeclared point event"):
            Observer(Simulator()).emit("ftl", "no_such_event", reason="x")

    def test_literal_emit_pairs_equal_the_declared_table(self):
        emitted = set()
        for path, line, args in emit_calls():
            pair = tuple(arg.value for arg in args[:2]
                         if isinstance(arg, ast.Constant))
            assert len(pair) == 2 and all(isinstance(p, str) for p in pair), \
                f"{path}:{line}: emit needs a literal (layer, kind)"
            emitted.add(pair)
        assert emitted - set(EVENTS) == set(), "undeclared vocabulary"
        assert set(EVENTS) - emitted == set(), "declared but never emitted"


class TestFanOut:
    def test_traced_degraded_entry_links_ring_to_its_span(self, make_system):
        system = make_system(trace=True, flightrec=True)
        system.ssd.ftl.enter_degraded("spare blocks exhausted")
        spans = [span for span in system.sim.tracer.spans("ftl")
                 if span.name == "degraded"]
        events = [event for event in system.flightrec.events
                  if event[1:3] == ("ftl", "degraded")]
        assert len(spans) == 1 and len(events) == 1
        assert events[0][3] == spans[0].span_id

    def test_trigger_detail_names_the_event(self, make_system):
        system = make_system(flightrec=True)
        system.ssd.ftl.enter_degraded("spare blocks exhausted")
        assert system.flightrec.first_trigger[1:] == (
            "degraded_entry",
            {"layer": "ftl", "kind": "degraded",
             "reason": "spare blocks exhausted"})

    def test_unobserved_system_has_no_emit_path(self, make_system):
        assert make_system().sim.obs is None

    def test_open_span_resolves_in_incident_bundle(self, tmp_path):
        # The run ends with a GC collect span still open; its victim_pick
        # ring event must still resolve in the bundle.
        system = KvSystem(tiny_config(trace=True, flightrec=True,
                                      total_queries=20_000, seed=1))
        system.run()
        assert system.sim.tracer.open_spans > 0
        path = tmp_path / "incident.jsonl"
        write_incident_jsonl(str(path), incident_records(system))
        assert validate_incident_file(str(path)) == []


class TestPlane:
    def test_armed_clears_enables_and_disables(self):
        plane = Plane()
        plane.register("stale", object())
        with plane.armed(config="cfg"):
            assert plane.enabled() and plane.config == "cfg"
            assert plane.collected() == []
            plane.register("run", 1)
        assert not plane.enabled() and plane.config is None
        assert plane.collected() == [("run", 1)]

    def test_armed_disables_on_error(self):
        plane = Plane()
        with pytest.raises(RuntimeError):
            with plane.armed():
                raise RuntimeError("boom")
        assert not plane.enabled()

    def test_labels_are_uniquified_until_cleared(self):
        plane = Plane()
        labels = [plane.register("checkin", n) for n in range(3)]
        assert labels == ["checkin", "checkin#2", "checkin#3"]
        plane.clear()
        assert plane.register("checkin", 0) == "checkin"
