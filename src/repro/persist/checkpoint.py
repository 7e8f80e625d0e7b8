"""Crash-safe session checkpoints: record the recipe, replay the state.

A live session cannot be pickled — its processes are suspended Python
generator frames.  Instead of serializing frames, a checkpoint records
how to *rebuild* them:

* the **provenance** — which registered :func:`scenario` built the
  session, with which seed and parameters;
* the **replay barrier** — the engine's deterministic step counter at
  the moment of the checkpoint (plus ``now`` and the event sequence
  counter as cross-checks);
* the **state digest** — a sha256 over one canonical JSON encoding of
  every snapshot-safe piece of state (event-queue shape, RNG
  bit-generator states, DB documents, scheduler ledgers, telemetry
  rows, fault ledger, registered components).

:func:`restore` re-runs the scenario in a fresh process and drives the
engine forward with :meth:`~repro.sim.engine.Environment.replay_to`
until the barrier, then recomputes the fingerprint.  Because the whole
stack is a deterministic function of (scenario, seed, params), the
digests match byte-for-byte — and when they do not, the restore fails
loudly with :class:`RestoreMismatch` instead of continuing from a
silently divergent world.

The fingerprint is also the checkpoint schema: every snapshot records
the field names its fingerprint declared (:func:`fingerprint_schema`),
and a restore whose replayed fingerprint declares different ones raises
:class:`SchemaDrift` naming the section and the fields.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, Optional

from repro.persist.store import PersistError, SnapshotStore, text_digest
from repro.sim.engine import SimulationError

#: Snapshot payload format; bumped when the payload's keys change or an
#: unchanged scenario's barrier coordinates move.  Formats 1, 2, 4, 5,
#: 6 and 7 counted since-removed events as steps (5: the per-container
#: child processes of a YARN-flavoured world; 6: one dispatch process
#: per raptor task; 7: the batch scheduler's idle periodic cycle); 3
#: carried no ``schema``.
CHECKPOINT_FORMAT = 8

#: Where the checkpoint workflow is documented (error-message pointer).
DOCS_POINTER = "README.md 'Crash-safe state & resume'"


class SchemaDrift(PersistError):
    """The replayed fingerprint declares other fields than the snapshot's."""


class RestoreMismatch(PersistError):
    """Replay reached the barrier but the state fingerprint diverged."""


# --------------------------------------------------------------- scenarios
_SCENARIOS: Dict[str, Callable] = {}


def scenario(name: str) -> Callable:
    """Register a session-builder under ``name``.

    A scenario is a plain function ``fn(session_seed, **params) ->
    Session`` that deterministically constructs a session and advances
    it to some interesting point.  Registration is what makes sessions
    *checkpointable*: the snapshot stores the scenario name + module,
    and :func:`restore` imports that module to rebuild the world.
    """
    def register(fn: Callable) -> Callable:
        existing = _SCENARIOS.get(name)
        if existing is not None and existing is not fn:
            raise PersistError(f"scenario {name!r} already registered "
                               f"as {existing.__module__}.{existing.__qualname__}")
        _SCENARIOS[name] = fn
        return fn
    return register


def scenario_names() -> list:
    """Registered scenario names, sorted (CLI listing)."""
    import repro.persist.scenarios  # noqa: F401  (register built-ins)
    return sorted(_SCENARIOS)


@dataclass(frozen=True)
class Provenance:
    """How a session can be rebuilt in a fresh process."""

    name: str
    module: str
    qualname: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        return {"name": self.name, "module": self.module,
                "qualname": self.qualname, "seed": self.seed,
                "params": dict(sorted(self.params.items()))}


def launch(name: str, seed: int = 42, **params):
    """Build a checkpointable session from a registered scenario.

    The returned session carries a :class:`Provenance`; between
    ``launch`` and ``checkpoint`` callers may only *advance time*
    (``env.run``) — any other mutation diverges the replay and is
    caught by the post-restore digest check.
    """
    import repro.persist.scenarios  # noqa: F401  (register built-ins)
    if name not in _SCENARIOS:
        raise PersistError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(sorted(_SCENARIOS)) or '(none)'}")
    fn = _SCENARIOS[name]
    try:
        inspect.signature(fn).bind(seed, **params)
    except TypeError as exc:
        raise PersistError(
            f"scenario {name!r} rejects its parameters: {exc}") from None
    session = fn(seed, **params)
    session.provenance = Provenance(
        name=name, module=fn.__module__, qualname=fn.__qualname__,
        seed=seed, params=dict(params))
    return session


# ------------------------------------------------------- the fingerprint
@functools.cache
def _field_names(cls: type) -> Optional[tuple]:
    """A dataclass type's field names; None for any other type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _leaf(value: Any) -> Any:
    """The encoder's ``default``: plain data for what JSON has no form for.

    Dataclasses become their shallow field dicts (NOT ``asdict``: it
    deep-copies, following a callable field into a live object graph)
    and sets sorted lists; callables and ``uid`` objects are named and
    anything else is its type name, so no memory address is digested.
    """
    cls = type(value)
    names = _field_names(cls)
    if names is not None:
        return {name: getattr(value, name) for name in names}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if callable(value):
        name = getattr(value, "__qualname__",
                       getattr(value, "__name__", cls.__name__))
        return f"<callable:{name}>"
    uid = getattr(value, "uid", None)
    if isinstance(uid, str):
        return f"<{cls.__name__}:{uid}>"
    return f"<{cls.__name__}>"


#: One C pass from the live sections to the canonical JSON text.  The
#: sections are trees, so the per-container cycle check is skipped (a
#: cycle still ends in RecursionError, never in a digest).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False, default=_leaf)


def _sections(session) -> Dict[str, Any]:
    """Every snapshot-safe piece of state, as its owner returns it."""
    env = session.env
    fp: Dict[str, Any] = {
        "engine": env.snapshot_state(),
        "session": session.snapshot_state(),
        "rng": session.rng.snapshot_state(),
        "db": session.db.snapshot_state(),
    }
    if env.faults is not None:
        fp["faults"] = env.faults.snapshot_state()
    if env.telemetry is not None:
        fp["telemetry"] = env.telemetry.metrics.snapshot_state()
    fp["components"] = [comp.snapshot_state()
                        for comp in session.components]
    return fp


def state_fingerprint(session) -> Dict[str, Any]:
    """The text :func:`state_digest` hashes, parsed back to plain data."""
    return json.loads(_ENCODER.encode(_sections(session)))


def fingerprint_schema(fp: Dict[str, Any]) -> Dict[str, Any]:
    """The field names ``fp`` declares per top-level section and per
    component ``kind``, values erased; deeper keys are data (uids, stream
    names).  Identical at every barrier of a scenario, so a difference
    after replay means the code changed."""
    schema = {name: dict.fromkeys(section) if isinstance(section, dict)
              else None for name, section in fp.items()}
    schema["components"] = {comp["kind"]: dict.fromkeys(comp)
                            for comp in fp["components"]}
    return schema


def state_digest(session) -> str:
    """sha256 over the canonical JSON form of the fingerprint."""
    return text_digest(_ENCODER.encode(_sections(session)))


# ------------------------------------------------------------ checkpoint
@dataclass(frozen=True)
class CheckpointInfo:
    """What :func:`checkpoint_session` stored."""

    digest: str          #: content address of the snapshot record
    state_digest: str    #: fingerprint digest at the barrier
    now: float           #: simulation clock at the barrier
    steps: int           #: replay barrier (events processed)
    scenario: str        #: provenance name


def checkpoint_session(session, path, ref: str = "latest") -> CheckpointInfo:
    """Checkpoint ``session`` into the snapshot store at ``path``.

    Must be called at a quiescent barrier — i.e. *between* ``env.run``
    calls, never from inside a running process.  Atomic end to end: the
    record lands content-addressed via tmp+rename, then ``ref`` moves.
    """
    if session.provenance is None:
        raise PersistError(
            "session has no provenance; build it with repro.persist."
            "launch(scenario, seed=..., **params) to make it "
            "checkpointable")
    if session.env.active_process is not None:
        raise PersistError(
            "checkpoint_session() called from inside a running process; "
            "checkpoints must happen at a quiescent barrier between "
            "env.run() calls")
    sections = _sections(session)
    engine = sections["engine"]
    payload = {
        "format": CHECKPOINT_FORMAT,
        "kind": "session_checkpoint",
        "provenance": session.provenance.payload(),
        "barrier": {key: engine[key] for key in ("now", "steps", "seq")},
        "state_digest": text_digest(_ENCODER.encode(sections)),
        "schema": fingerprint_schema(sections),
    }
    store = SnapshotStore(path)
    digest = store.put(payload)
    store.set_ref(ref, digest)
    return CheckpointInfo(digest=digest,
                          state_digest=payload["state_digest"],
                          now=engine["now"], steps=engine["steps"],
                          scenario=session.provenance.name)


def restore(path, ref: str = "latest"):
    """Rebuild a checkpointed session in this process.

    Loads the snapshot, re-runs its scenario with the recorded seed and
    parameters, replays the engine to the barrier and verifies schema
    and state digest.  Returns the restored session, byte-identical (by
    fingerprint) to the one that was checkpointed.
    """
    store = SnapshotStore(path, create=False)
    record = store.resolve(ref)
    if record.get("kind") != "session_checkpoint":
        raise PersistError(
            f"object {ref!r} in {path} is a {record.get('kind')!r}, "
            f"not a session checkpoint")
    if record.get("format") != CHECKPOINT_FORMAT:
        raise PersistError(
            f"checkpoint format {record.get('format')!r} unsupported; "
            f"this build reads format {CHECKPOINT_FORMAT}")
    prov = record["provenance"]
    # A discarded world is cyclic garbage (generators <-> the env's
    # queue): free those before replaying another.
    gc.collect()
    # Import the defining module so out-of-tree scenarios register.
    importlib.import_module(prov["module"])
    session = launch(prov["name"], seed=prov["seed"], **prov["params"])
    barrier = record["barrier"]
    try:
        session.env.replay_to(barrier["steps"], now=barrier["now"])
    except SimulationError as exc:
        raise RestoreMismatch(
            f"replay cannot reach barrier {barrier}: {exc}") from exc
    sections = _sections(session)
    engine = sections["engine"]
    if engine["now"] != barrier["now"] or engine["seq"] != barrier["seq"]:
        raise RestoreMismatch(
            f"replay reached step {barrier['steps']} at "
            f"now={engine['now']} seq={engine['seq']}, but the snapshot "
            f"recorded now={barrier['now']} seq={barrier['seq']}; the "
            f"scenario is not deterministic")
    drift = fingerprint_diff(record["schema"], fingerprint_schema(sections))
    if drift:
        raise SchemaDrift(
            f"fingerprint fields differ from the snapshot's (- recorded, "
            f"+ this build): {'; '.join(drift)} (see {DOCS_POINTER})")
    actual = text_digest(_ENCODER.encode(sections))
    if actual != record["state_digest"]:
        raise RestoreMismatch(
            f"state digest after replay is {actual[:16]}…, snapshot "
            f"recorded {record['state_digest'][:16]}…; state outside "
            f"the scenario recipe mutated between launch and "
            f"checkpoint (see {DOCS_POINTER})")
    return session


def fingerprint_diff(a: Any, b: Any, prefix: str = "") -> list:
    """Where two fingerprints (or schemas) differ: ``path: -x +y`` for names
    only ``a`` / only ``b`` has, ``path: x != y`` for a changed value."""
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        names = ([f"-{key}" for key in sorted(a.keys() - b.keys())]
                 + [f"+{key}" for key in sorted(b.keys() - a.keys())])
        if names:
            diffs.append(f"{prefix or '(top level)'}: {' '.join(names)}")
        for key in sorted(a.keys() & b.keys()):
            diffs.extend(fingerprint_diff(
                a[key], b[key], f"{prefix}.{key}" if prefix else key))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{prefix} (length {len(a)} vs {len(b)})")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                diffs.extend(fingerprint_diff(x, y, f"{prefix}[{i}]"))
    elif a != b:
        diffs.append(f"{prefix}: {a!r} != {b!r}")
    return diffs

