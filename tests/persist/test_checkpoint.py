"""Replay-based checkpoint/restore: determinism proofs and guard rails."""

import errno
import os
import subprocess
import sys
from pathlib import Path

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
from repro.persist.checkpoint import fingerprint_diff, fingerprint_schema
from repro.saga import Registry
from repro.sim.engine import Environment, SimulationError

#: The package sources (subprocess PYTHONPATH, source-tree guard).
SRC = Path(__file__).resolve().parents[2] / "src"

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
    session = Session(Environment(), Registry())
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
        yield session.env.timeout(1.0)

    session.env.process(inside())
    with pytest.raises(PersistError, match="quiescent"):
        session.env.run(until=session.env.now + 1.0)


def _checkpointed_bag(tmp_path):
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=60.0)
    session.checkpoint(tmp_path / "s")
    return SnapshotStore(tmp_path / "s")


def _rewrite(store, **fields):
    """Re-point ``latest`` at the stored record with ``fields`` replaced."""
    record = store.resolve("latest")
    record.update(fields)
    store.set_ref("latest", store.put(record))


def test_schema_drift_detected(tmp_path):
    """A snapshot whose fingerprint declared other fields than this
    build's is refused with the section and the fields by name."""
    store = _checkpointed_bag(tmp_path)
    schema = store.resolve("latest")["schema"]
    fields = schema["components"]["unit_manager"]
    del fields["restarts_used"]     # this build added a field...
    fields["observed"] = None       # ...and dropped one
    _rewrite(store, schema=schema)
    with pytest.raises(SchemaDrift) as info:
        restore(tmp_path / "s")
    assert "components.unit_manager: -observed +restarts_used" \
        in str(info.value)


def test_schema_drift_from_a_changed_snapshot_state(tmp_path, monkeypatch):
    """The restore side's walk is the schema: a ``snapshot_state`` that
    starts hashing a new key is drift, not a bare digest mismatch."""
    from repro.core.unit_manager import UnitManager
    _checkpointed_bag(tmp_path)
    original = UnitManager.snapshot_state
    monkeypatch.setattr(
        UnitManager, "snapshot_state",
        lambda self: {**original(self), "live": 0})
    with pytest.raises(SchemaDrift,
                       match=r"components\.unit_manager: \+live"):
        restore(tmp_path / "s")


@pytest.mark.parametrize("name,params", [
    ("bag", BAG), ("raptor-stream", {"ntasks": 6})])
def test_schema_is_value_independent(name, params):
    """Same field names at every barrier and for every seed — only a
    code change can move the schema."""
    schemas = []
    for seed in (3, 4):
        session = launch(name, seed=seed, **params)
        for _ in range(5):
            schemas.append(fingerprint_schema(state_fingerprint(session)))
            session.env.run(until=session.env.now + 7.0)
    assert all(schema == schemas[0] for schema in schemas)
    assert {"engine", "session", "rng", "db", "components"} <= \
        set(schemas[0])


def test_state_digests_pinned():
    """Re-pinned once when the batch scheduler's idle periodic cycle
    went: its ticks left the engine's step count and event heap, and
    nothing else that is hashed moved."""
    bag = launch("bag", seed=9, ntasks=8)
    bag.env.run(until=80.0)
    assert state_digest(bag) == ("3e06396d409c1ca5df49577ea53f509a"
                                 "b544ca2addd3c2591762ba90836947e8")
    assert state_digest(launch("raptor-stream", seed=9)) == (
        "401b64c536bbe856bfd5a4c2e98ff91a572d2d37dfed0fa2a9c11402f129e554")


def test_checkpoint_on_a_full_disk_is_a_named_error(tmp_path, monkeypatch):
    """ENOSPC mid-checkpoint: a PersistError naming the file and the
    errno, and no ``<name>.tmp.<pid>`` left in the store."""
    session = launch("bag", seed=9, **BAG)
    session.env.run(until=60.0)

    def fail(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(PersistError,
                       match=rf"store\.json: \[Errno {errno.ENOSPC}\]"):
        session.checkpoint(tmp_path / "s")
    assert [p for p in (tmp_path / "s").rglob("*")
            if ".tmp." in p.name] == []


def test_older_checkpoint_format_refused_by_name(tmp_path):
    """Formats 1-8 either count steps this build replays to a different
    point or carry no ``schema``; each is refused up front, by name,
    not as a digest diff."""
    assert CHECKPOINT_FORMAT == 9
    store = _checkpointed_bag(tmp_path)
    for older in (1, 2, 3, 4, 5, 6, 7, 8):
        _rewrite(store, format=older)
        with pytest.raises(PersistError,
                           match=rf"checkpoint format {older} unsupported; "
                                 r"this build reads format 9") as info:
            restore(tmp_path / "s")
        assert not isinstance(info.value, (RestoreMismatch, SchemaDrift))


def test_unreachable_barrier_is_a_restore_mismatch(tmp_path):
    """A barrier the replay cannot reach ends in a named persist error
    carrying the engine's reason, not a raw SimulationError."""
    store = _checkpointed_bag(tmp_path)
    barrier = store.resolve("latest")["barrier"]
    _rewrite(store, barrier={**barrier, "steps": 10**7})
    with pytest.raises(RestoreMismatch, match="unreachable") as info:
        restore(tmp_path / "s")
    assert "10000000" in str(info.value)
    assert isinstance(info.value.__cause__, SimulationError)


def test_rejected_scenario_parameter_is_a_persist_error(tmp_path, capsys):
    """A recorded parameter the scenario no longer accepts names the
    scenario and the parameter; the CLI prints it and exits 1."""
    from repro.__main__ import main
    store = _checkpointed_bag(tmp_path)
    prov = store.resolve("latest")["provenance"]
    prov["params"]["gone"] = 1
    _rewrite(store, provenance=prov)
    with pytest.raises(PersistError, match=r"'bag'.*'gone'"):
        restore(tmp_path / "s")
    assert main(["restore", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.startswith("error: scenario 'bag'")


def test_persist_round_trip_imports_only_the_sanitizer(tmp_path):
    """Layering: checkpoint -> restore in a fresh interpreter loads the
    sanitizer (the stack needs it) and nothing else of repro.analysis."""
    code = (
        "import sys\n"
        "from repro.persist import launch, restore\n"
        "s = launch('bag', seed=9, ntasks=4)\n"
        "s.env.run(until=60.0)\n"
        f"s.checkpoint({str(tmp_path / 's')!r})\n"
        f"restore({str(tmp_path / 's')!r})\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.analysis.')))\n")
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + inherited if inherited else "")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "['repro.analysis.sanitizer']"


def test_component_without_snapshot_state_rejected():
    """A registered component that could not contribute to the digest
    would be silently dropped from it; refuse it at registration."""
    class Mute:
        pass

    session = launch("bag", seed=9, **BAG)
    with pytest.raises(TypeError, match="Mute has no snapshot_state"):
        session.register_component(Mute())


def test_no_second_state_walker_in_the_sources():
    """The fingerprint is the only definition of checkpointable state:
    the static attribute manifest and its audit must not creep back,
    nor a Python walk that copies the state before it is encoded."""
    gone = ("state-manifest", "manifest_digest", "audit_state",
            "audit-state", "SIM11", "def canonical(")
    hits = [f"{path.relative_to(SRC)}: {word}"
            for path in sorted((SRC / "repro").rglob("*.py"))
            for word in gone if word in path.read_text()]
    assert hits == []


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
            yield env2.timeout(1.0)

    env2.process(ticks())
    env2.run()
    with pytest.raises(SimulationError, match="backwards"):
        env2.replay_to(0)


def test_replay_restores_parked_clock():
    """run(until=T) parks the clock past the last event; replay_to
    re-applies that position (and rejects unreachable ones)."""
    def ticks(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    a = Environment()
    a.process(ticks(a))
    a.run(until=5.0)
    b = Environment()
    b.process(ticks(b))
    b.replay_to(a.steps, now=5.0)
    assert b.now == a.now == 5.0
    c = Environment()
    c.process(ticks(c))
    with pytest.raises(SimulationError, match="unreachable"):
        c.replay_to(1, now=100.0)   # next event lies before that clock
