"""Replay-based checkpoint/restore: determinism proofs and guard rails."""

import pytest

from repro.persist import (
    CHECKPOINT_FORMAT,
    PersistError,
    RestoreMismatch,
    SchemaDrift,
    SnapshotStore,
    launch,
    restore,
    scenario,
    scenario_names,
    state_digest,
    state_fingerprint,
)
from repro.persist.checkpoint import fingerprint_diff
from repro.sim.engine import Environment, SimulationError

#: Small bag so each checkpoint test stays sub-second.
BAG = {"ntasks": 4, "nodes": 2, "fault_rate": 0.5}


def test_builtin_scenarios_registered():
    names = scenario_names()
    assert "bag" in names and "raptor-stream" in names


def test_launch_unknown_scenario_rejected():
    with pytest.raises(PersistError, match="unknown scenario"):
        launch("no-such-scenario")


def test_duplicate_scenario_name_rejected():
    with pytest.raises(PersistError, match="already registered"):
        scenario("bag")(lambda seed: None)


def test_launch_binds_provenance():
    session = launch("bag", seed=7, **BAG)
    prov = session.provenance
    assert prov.name == "bag"
    assert prov.seed == 7
    assert prov.params == BAG
    assert prov.module == "repro.persist.scenarios"


def test_unprovenanced_session_cannot_checkpoint(tmp_path):
    from repro.api import Environment, Session
    session = Session(Environment())
    with pytest.raises(PersistError, match="no provenance"):
        session.checkpoint(tmp_path / "s")


def test_same_recipe_same_fingerprint():
    a = launch("bag", seed=5, **BAG)
    b = launch("bag", seed=5, **BAG)
    a.env.run(until=60.0)
    b.env.run(until=60.0)
    assert fingerprint_diff(state_fingerprint(a),
                            state_fingerprint(b)) == []
    assert state_digest(a) == state_digest(b)


def test_different_seed_different_fingerprint():
    a = launch("bag", seed=5, **BAG)
    b = launch("bag", seed=6, **BAG)
    a.env.run(until=60.0)
    b.env.run(until=60.0)
    assert state_digest(a) != state_digest(b)


def test_checkpoint_restore_round_trip(tmp_path):
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=80.0)
    info = session.checkpoint(tmp_path / "s")
    assert info.scenario == "bag"
    assert info.now == session.env.now
    assert info.steps == session.env.steps

    restored = restore(tmp_path / "s")
    assert restored is not session
    assert restored.env.now == session.env.now
    assert restored.env.steps == session.env.steps
    assert state_digest(restored) == info.state_digest


def test_restored_session_continues_byte_identically(tmp_path):
    """The headline guarantee: drive the original and the restored
    session through the same remaining workload — every aggregate
    digest along the way is byte-identical."""
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=80.0)
    session.checkpoint(tmp_path / "s")
    restored = restore(tmp_path / "s")
    for horizon in (120.0, 200.0):
        session.env.run(until=horizon)
        restored.env.run(until=horizon)
        assert state_digest(session) == state_digest(restored)
    # ...and through workload completion, faults and restarts included
    session.env.run(session.handles["umgr"].wait_units(
        session.handles["units"]))
    restored.env.run(restored.handles["umgr"].wait_units(
        restored.handles["units"]))
    assert state_digest(session) == state_digest(restored)


def test_mutation_outside_the_recipe_is_caught(tmp_path):
    """Only time may advance between launch and checkpoint; any other
    mutation makes the snapshot unreplayable — and the restore says so
    instead of continuing from divergent state."""
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=80.0)
    session.next_uid("rogue")       # out-of-recipe state mutation
    session.checkpoint(tmp_path / "s")
    with pytest.raises(RestoreMismatch, match="state digest"):
        restore(tmp_path / "s")


def test_checkpoint_refuses_mid_process(tmp_path):
    session = launch("bag", seed=9, **BAG)

    def inside():
        session.checkpoint(tmp_path / "s")
        yield 1.0

    session.env.process(inside())
    with pytest.raises(PersistError, match="quiescent"):
        session.env.run(until=session.env.now + 1.0)


def test_schema_drift_detected(tmp_path):
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=60.0)
    session.checkpoint(tmp_path / "s")
    store = SnapshotStore(tmp_path / "s")
    record = store.resolve("latest")
    record["manifest_digest"] = "f" * 64   # snapshot from another tree
    store.set_ref("latest", store.put(record))
    with pytest.raises(SchemaDrift, match="state-manifest"):
        restore(tmp_path / "s")


def test_older_checkpoint_format_refused_by_name(tmp_path):
    """A format-1 or format-2 store (written while unit/pilot handles
    still dispatched unobserved per-state events, resp. an unobserved
    final event) records a barrier ``steps`` this build replays to a
    different point; it is refused up front, not as a digest diff."""
    assert CHECKPOINT_FORMAT == 3
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=60.0)
    session.checkpoint(tmp_path / "s")
    store = SnapshotStore(tmp_path / "s")
    for older in (1, 2):
        record = store.resolve("latest")
        record["format"] = older
        store.set_ref("latest", store.put(record))
        with pytest.raises(PersistError,
                           match=rf"checkpoint format {older} unsupported; "
                                 r"this build reads format 3") as info:
            restore(tmp_path / "s")
        assert not isinstance(info.value, RestoreMismatch)


def test_named_refs_select_barriers(tmp_path):
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=60.0)
    early = session.checkpoint(tmp_path / "s", ref="early")
    session.env.run(until=100.0)
    late = session.checkpoint(tmp_path / "s", ref="late")
    assert early.digest != late.digest
    assert restore(tmp_path / "s", ref="early").env.now == 60.0
    assert restore(tmp_path / "s", ref="late").env.now == 100.0


def test_raptor_stream_round_trip(tmp_path):
    session = launch("raptor-stream", seed=11, workers=2, ntasks=6)
    session.env.run(until=session.env.now + 5.0)
    info = session.checkpoint(tmp_path / "s")
    restored = restore(tmp_path / "s")
    assert state_digest(restored) == info.state_digest
    session.env.run(session.handles["overlay"].wait())
    restored.env.run(restored.handles["overlay"].wait())
    assert session.handles["overlay"].stats() == \
        restored.handles["overlay"].stats()
    assert state_digest(session) == state_digest(restored)


def test_replay_guard_rails():
    env = Environment()
    with pytest.raises(SimulationError, match="exhausted"):
        env.replay_to(5)
    env2 = Environment()

    def ticks():
        for _ in range(3):
            yield 1.0

    env2.process(ticks())
    env2.run()
    with pytest.raises(SimulationError, match="backwards"):
        env2.replay_to(0)


def test_replay_restores_parked_clock():
    """run(until=T) parks the clock past the last event; replay_to
    re-applies that position (and rejects unreachable ones)."""
    def ticks():
        yield 1.0
        yield 1.0

    a = Environment()
    a.process(ticks())
    a.run(until=5.0)
    b = Environment()
    b.process(ticks())
    b.replay_to(a.steps, now=5.0)
    assert b.now == a.now == 5.0
    c = Environment()
    c.process(ticks())
    with pytest.raises(SimulationError, match="unreachable"):
        c.replay_to(1, now=100.0)   # next event lies before that clock
