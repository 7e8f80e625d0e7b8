"""Event-bus semantics: ordering, filtering, recording."""

import json

import pytest

from repro.sim import Environment
from repro.telemetry import install
from repro.telemetry.bus import EventBus


@pytest.fixture()
def env():
    return Environment()


def test_emit_records_and_stamps(env):
    bus = EventBus(env)
    e = bus.emit("unit", "state", uid="u1", state="Executing")
    assert e.time == 0.0 and e.seq == 0
    assert (e.category, e.name) == ("unit", "state")
    assert bus.events == [e]
    assert bus.emitted == 1


def test_ordering_under_simultaneous_sim_time_events(env):
    """Many processes firing at the same sim instant: sequence numbers
    impose a deterministic total order matching emission order."""
    bus = EventBus(env)

    def emitter(name, at):
        yield env.timeout(at)
        bus.emit("test", name, t=at)

    # Three processes all wake at t=5; two more at t=2.
    for name in ("a", "b", "c"):
        env.process(emitter(name, 5.0))
    for name in ("x", "y"):
        env.process(emitter(name, 2.0))
    env.run()

    assert [e.name for e in bus.events] == ["x", "y", "a", "b", "c"]
    seqs = [e.seq for e in bus.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    # At equal times, recorded order still equals seq order.
    at5 = [e for e in bus.events if e.time == 5.0]
    assert [e.name for e in at5] == ["a", "b", "c"]


def test_subscription_filters(env):
    bus = EventBus(env)
    got = []
    sub = bus.subscribe(got.append, categories=("unit",),
                        names=("state",))
    bus.emit("unit", "state", uid="u1")
    bus.emit("unit", "submitted", uid="u1")      # name filtered out
    bus.emit("yarn", "state", uid="app1")        # category filtered out
    assert [e.payload["uid"] for e in got] == ["u1"]
    assert sub.delivered == 1


def test_predicate_filter_and_delivery_is_synchronous(env):
    bus = EventBus(env)
    seen = []
    bus.subscribe(lambda e: seen.append(e.seq),
                  predicate=lambda e: e.payload.get("n", 0) % 2 == 0)
    for n in range(4):
        bus.emit("test", "tick", n=n)
        # Synchronous delivery: matching events observed immediately.
        expected = [s for s in range(n + 1) if s % 2 == 0]
        assert seen == expected


def test_subscriber_may_subscribe_during_delivery(env):
    bus = EventBus(env)
    late = []

    def first(event):
        bus.subscribe(late.append)

    bus.subscribe(first, names=("boot",))
    bus.emit("test", "boot")
    assert late == []            # not retroactive
    bus.emit("test", "after")
    assert [e.name for e in late] == ["after"]


def test_select_and_jsonl_roundtrip(env):
    bus = EventBus(env)
    bus.emit("unit", "state", uid="u1")
    bus.emit("yarn", "container_start", container_id="c1")
    assert len(bus.select(category="unit")) == 1
    assert len(bus.select(name="container_start")) == 1
    rows = [json.loads(line) for line in bus.to_jsonl().splitlines()]
    assert rows[1]["cat"] == "yarn" and rows[1]["container_id"] == "c1"


def test_record_false_keeps_no_events(env):
    bus = EventBus(env, record=False)
    hits = []
    bus.subscribe(hits.append)
    bus.emit("test", "tick")
    assert bus.events == [] and len(hits) == 1 and bus.emitted == 1


def test_install_is_idempotent_and_uninstall_detaches(env):
    from repro import telemetry
    tel = install(env)
    assert install(env) is tel
    assert env.telemetry is tel
    telemetry.uninstall(env)
    assert env.telemetry is None
    # A fresh Environment defaults to disabled.
    assert Environment().telemetry is None
