"""Property-based tests for pilot/unit state machines and the DB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.db import Database
from repro.core.states import (
    PILOT_TRANSITIONS,
    UNIT_TRANSITIONS,
    PilotState,
    UnitState,
    check_transition,
)
from repro.sim import Environment


# ------------------------------------------------------------ state walks
def random_walk(table, start, draws):
    """Follow random legal transitions; returns the path."""
    path = [start]
    state = start
    for draw in draws:
        options = sorted(table.get(state, set()), key=lambda s: s.value)
        if not options:
            break
        state = options[draw % len(options)]
        path.append(state)
    return path


@given(draws=st.lists(st.integers(min_value=0, max_value=10),
                      min_size=0, max_size=12))
@settings(max_examples=100)
def test_pilot_walks_end_in_final_or_continue(draws):
    """Any legal walk never raises and only stops at final states."""
    path = random_walk(PILOT_TRANSITIONS, PilotState.NEW, draws)
    for current, nxt in zip(path, path[1:], strict=False):
        check_transition(PILOT_TRANSITIONS, current, nxt)  # must not raise
    if len(path) <= len(draws):  # walk stopped early -> dead end
        assert path[-1].is_final


@given(draws=st.lists(st.integers(min_value=0, max_value=10),
                      min_size=0, max_size=12))
@settings(max_examples=100)
def test_unit_walks_end_in_final_or_continue(draws):
    path = random_walk(UNIT_TRANSITIONS, UnitState.NEW, draws)
    for current, nxt in zip(path, path[1:], strict=False):
        check_transition(UNIT_TRANSITIONS, current, nxt)
    if len(path) <= len(draws):
        assert path[-1].is_final


@given(state=st.sampled_from(list(PilotState)))
def test_no_transition_out_of_final_pilot_states(state):
    if state.is_final:
        assert state not in PILOT_TRANSITIONS
        for target in PilotState:
            with pytest.raises(ValueError):
                check_transition(PILOT_TRANSITIONS, state, target)


@given(state=st.sampled_from(list(UnitState)))
def test_failed_canceled_reachable_from_all_nonfinal_unit_states(state):
    if not state.is_final and state in UNIT_TRANSITIONS:
        assert UnitState.FAILED in UNIT_TRANSITIONS[state]
        assert UnitState.CANCELED in UNIT_TRANSITIONS[state]


def test_done_only_reachable_through_full_pipeline():
    """DONE must come via AGENT_STAGING_OUTPUT, not skipped."""
    for state, targets in UNIT_TRANSITIONS.items():
        if UnitState.DONE in targets:
            assert state is UnitState.AGENT_STAGING_OUTPUT


# -------------------------------------------------------------- database
@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=20)
def test_db_ids_unique_and_stable(n):
    env = Environment()
    col = Database(env).collection("c")
    ids = [col.insert({"i": i}) for i in range(n)]
    assert len(set(ids)) == n
    for i, _id in enumerate(ids):
        assert col.get(_id)["i"] == i


def test_db_update_and_watch():
    env = Environment()
    db = Database(env)
    col = db.collection("units")
    uid = col.insert({"state": "New"})
    fired = []

    def watcher():
        yield col.watch()
        fired.append(env.now)

    env.process(watcher())

    def mutator():
        yield env.timeout(5.0)
        col.set(uid, {"state": "Done"})

    env.process(mutator())
    env.run()
    assert fired == [5.0]
    assert col.get(uid)["state"] == "Done"


def test_db_roundtrip_costs_time():
    env = Environment()
    db = Database(env, rtt=0.05)

    def client():
        yield db.roundtrip()
        return env.now

    assert env.run(env.process(client())) == pytest.approx(0.05)
