"""``Node.hold`` against the per-phase race it replaced.

Before the holder set, every compute phase raced its timeout against
``node.failure_event()`` in its own ``AnyOf``.  ``RaceHold`` keeps that
race as the reference model; generated programs of holds, crashes,
recovers and foreign interrupts must give every holder the same outcome
(completed, ``NodeDied`` or foreign ``Interrupt``), at the same time, in
the same order.  The one deliberate difference — a crash at exactly the
instant a hold expires — is pinned separately below.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node, NodeDied
from repro.cluster.storage import StorageSpec
from repro.sim import Environment
from repro.sim.engine import Interrupt


class RaceHold:
    """Reference model: the replaced ``any_of([timeout, failure_event()])``
    race, one condition per phase."""

    @staticmethod
    def hold(node, seconds):
        env = node.env
        yield env.any_of([env.timeout(seconds), node.failure_event()])
        if not node.alive:
            raise NodeDied(node)


def _node(env):
    return Node(env, "n0", cores=4, memory_bytes=1e9,
                local_disk=StorageSpec(name="d", aggregate_bw=1.0))


def _holder(env, node, hold, i, start, seconds, log, holding):
    yield env.timeout(start)
    holding.add(i)
    try:
        yield from hold(node, seconds)
        outcome = "done"
    except NodeDied:
        outcome = "died"
    except Interrupt as interrupt:
        outcome = f"interrupt:{interrupt.cause}"
    holding.discard(i)
    log.append((i, outcome, env.now))


def _run(hold, holds, ops):
    """Run one program; return the per-holder log and the node.

    Hold starts and ends fall on whole seconds; recovers on ``.25``,
    crashes on ``.5`` and foreign interrupts on ``.75``, so no crash
    ties with a hold's expiry (that case is pinned on its own).
    """
    env = Environment()
    node = _node(env)
    log, holding, procs = [], set(), []
    for i, (start, seconds) in enumerate(holds):
        procs.append(env.process(_holder(
            env, node, hold, i, start, seconds, log, holding)))

    def op(kind, at, target):
        yield env.timeout(at)
        if kind == "crash":
            node.fail()
        elif kind == "recover":
            node.recover()
        elif target in holding:
            procs[target].interrupt("foreign")

    offset = {"recover": 0.25, "crash": 0.5, "interrupt": 0.75}
    for kind, at, target in ops:
        env.process(op(kind, at + offset[kind], target % len(holds)))
    env.run()
    return log, node


holds_st = st.lists(st.tuples(st.integers(0, 10), st.integers(1, 6)),
                    min_size=1, max_size=8)
ops_st = st.lists(st.tuples(st.sampled_from(["crash", "recover",
                                             "interrupt"]),
                            st.integers(0, 15), st.integers(0, 7)),
                  max_size=10)


@settings(max_examples=200, deadline=None)
@given(holds_st, ops_st)
def test_hold_matches_per_phase_race(holds, ops):
    expected, _ = _run(RaceHold.hold, holds, ops)
    got, node = _run(Node.hold, holds, ops)
    assert got == expected
    assert node._holding == {}
    if node._failure is not None:
        assert len(node._failure.callbacks or ()) <= 1


def _outcome(hold, node, seconds, log):
    env = node.env
    try:
        yield from hold(node, seconds)
        log.append(("done", env.now))
    except NodeDied:
        log.append(("died", env.now))


def test_hold_on_dead_node_dies_at_once():
    env = Environment()
    node = _node(env)
    node.fail()
    log = []
    env.process(_outcome(Node.hold, node, 5.0, log))
    env.run()
    assert log == [("died", 0.0)]
    assert node._holding == {}


def test_hold_after_recover_subscribes_to_the_new_generation():
    env = Environment()
    node = _node(env)
    log = []
    env.process(_outcome(Node.hold, node, 1.0, log))
    env.run()
    first = node.failure_event()
    node.fail()
    env.run()
    node.recover()
    env.process(_outcome(Node.hold, node, 5.0, log))
    env.run(until=1.5)
    second = node._failure
    assert second is not first and first.processed
    assert second.callbacks == [node._kill_holders]
    node.fail()
    env.run()
    assert log == [("done", 1.0), ("died", 1.5)]
    assert node._holding == {}


def test_recover_of_a_live_node_keeps_the_pending_generation():
    """Healing an already-alive node (overlapping crash faults) must not
    orphan the holders subscribed to the pending failure event."""
    env = Environment()
    node = _node(env)
    log = []
    env.process(_outcome(Node.hold, node, 5.0, log))
    env.run(until=1.0)
    pending = node._failure
    node.recover()
    assert node._failure is pending
    node.fail()
    env.run()
    assert log == [("died", 1.0)]


def test_foreign_interrupt_passes_through_and_leaves_holding_clean():
    env = Environment()
    node = _node(env)
    seen = []

    def holder():
        try:
            yield from node.hold(10.0)
        except Interrupt as interrupt:
            seen.append((type(interrupt), interrupt.cause, env.now))

    proc = env.process(holder())
    env.run(until=2.0)
    assert list(node._holding) == [proc]
    proc.interrupt("teardown")
    env.run(until=3.0)
    assert seen == [(Interrupt, "teardown", 2.0)]
    assert node._holding == {}
    node.fail()
    env.run()
    assert seen == [(Interrupt, "teardown", 2.0)]


def _tie(hold, crash_first):
    """A 2 s hold and a crash at t=2, the crasher's timer set before or
    after the hold's."""
    env = Environment()
    node = _node(env)
    log = []

    def crash():
        yield env.timeout(2.0)
        node.fail()

    if crash_first:
        env.process(crash())
    env.process(_outcome(hold, node, 2.0, log))
    if not crash_first:
        env.process(crash())
    env.run()
    return log


@pytest.mark.parametrize("crash_first", [True, False])
def test_crash_at_the_instant_a_hold_expires(crash_first):
    """A hold whose timeout has popped has completed: the failure event
    a crash at t=2 schedules is processed after the hold's timeout,
    whichever timer fired first.  The replaced race raised here — it
    re-read ``node.alive`` when its ``AnyOf`` popped, after both."""
    assert _tie(RaceHold.hold, crash_first) == [("died", 2.0)]
    assert _tie(Node.hold, crash_first) == [("done", 2.0)]


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_no_per_phase_failure_race_in_src():
    """Only the once-per-service parks race ``failure_event()`` in an
    ``any_of``; per-phase work uses ``Node.hold``."""
    racing = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = {node.func.attr for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)}
            if {"any_of", "failure_event"} <= called:
                racing.add((path.relative_to(SRC).as_posix(), func.name))
    assert racing == {("raptor/master.py", "service"),
                      ("raptor/worker.py", "worker_service")}
