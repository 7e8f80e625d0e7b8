"""Tracer: span nesting, JSONL round-trip, Chrome trace_event export."""

import json

import pytest

from repro.sim import Environment
from repro.telemetry.bus import EventBus
from repro.telemetry.tracing import Tracer


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def tracer(env):
    return Tracer(env)


def _advance(env, dt):
    def proc():
        yield env.timeout(dt)
    env.process(proc())
    env.run()


def test_span_nesting_and_track_inheritance(tracer, env):
    pilot = tracer.begin("pilot.0001", cat="pilot", track="pilot pilot.0001")
    unit = tracer.begin("unit.1", cat="unit", parent=pilot, track="unit.1")
    phase = tracer.begin("execute", cat="unit.phase", parent=unit)
    assert phase.track == "unit.1"          # inherited from parent
    assert unit.parent_id == pilot.sid
    assert phase.parent_id == unit.sid

    _advance(env, 3.0)
    tracer.end(phase)
    assert phase.end - phase.start == pytest.approx(3.0)
    assert [s for s in tracer.spans if s.end is None] == [pilot, unit]


def test_end_is_idempotent(tracer, env):
    s = tracer.begin("x")
    _advance(env, 1.0)
    tracer.end(s, final_state="Done")
    _advance(env, 1.0)
    tracer.end(s, late="yes")               # keeps the first end time
    assert s.end == 1.0
    assert s.args == {"final_state": "Done", "late": "yes"}


def test_jsonl_roundtrip(tracer, env):
    a = tracer.begin("pilot.0001", cat="pilot", lrm="yarn")
    b = tracer.begin("unit.1", cat="unit", parent=a, track="unit.1")
    _advance(env, 2.5)
    tracer.end(b)
    # a stays open: the export must preserve end=None too.
    lines = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    assert [(d["sid"], d["name"], d["cat"], d["start"], d["end"],
             d["track"], d["parent"], d["args"]) for d in lines] == \
           [(s.sid, s.name, s.cat, s.start, s.end, s.track, s.parent_id,
             s.args) for s in tracer.spans]


def test_chrome_trace_export(tracer, env):
    bus = EventBus(env)
    pilot = tracer.begin("pilot.0001", cat="pilot", track="p")
    unit = tracer.begin("unit.1", cat="unit", parent=pilot, track="u")
    bus.emit("yarn", "container_start", container_id="c1")
    _advance(env, 4.0)
    tracer.end(unit)
    _advance(env, 1.0)

    doc = tracer.chrome_trace(instants=bus.events)
    # Valid trace_event JSON: serializable, with the documented keys.
    parsed = json.loads(json.dumps(doc))
    assert set(parsed) == {"traceEvents", "displayTimeUnit", "otherData"}

    events = parsed["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    instants = [e for e in events if e["ph"] == "i"]

    by_name = {e["name"]: e for e in xs}
    # Microsecond clock; the open pilot span is clipped to env.now.
    assert by_name["unit.1"]["dur"] == pytest.approx(4.0 * 1e6)
    assert by_name["pilot.0001"]["dur"] == pytest.approx(5.0 * 1e6)
    assert by_name["unit.1"]["args"]["parent"] == pilot.sid
    # Equal start: the longer (parent) span sorts first for nesting.
    assert xs.index(by_name["pilot.0001"]) < xs.index(by_name["unit.1"])

    assert instants[0]["name"] == "yarn.container_start"
    assert instants[0]["s"] == "g"

    thread_names = {m["args"]["name"] for m in metas
                    if m["name"] == "thread_name"}
    assert {"p", "u", "events"} <= thread_names
    # Distinct integer tids per track.
    tids = {e["tid"] for e in xs} | {e["tid"] for e in instants}
    assert len(tids) == 3 and all(isinstance(t, int) for t in tids)


def test_span_context_manager_records_errors(tracer):
    with tracer.span("ok"):
        pass
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("nope")
    ok, boom = tracer.spans
    assert ok.end is not None and "error" not in ok.args
    assert "RuntimeError" in boom.args["error"]
