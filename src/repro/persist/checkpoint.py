"""Crash-safe session checkpoints: record the recipe, replay the state.

A live session cannot be pickled — its processes are suspended Python
generator frames (exactly the SIM112 hazard the snapshot auditor
flags).  Instead of serializing frames, a checkpoint records how to
*rebuild* them:

* the **provenance** — which registered :func:`scenario` built the
  session, with which seed and parameters;
* the **replay barrier** — the engine's deterministic step counter at
  the moment of the checkpoint (plus ``now`` and the event sequence
  counter as cross-checks);
* the **state digest** — a sha256 over the canonical fingerprint of
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

The committed ``state-manifest.json`` (maintained by ``python -m repro
audit-state``) doubles as the checkpoint schema: its digest is embedded
in every snapshot, so restoring with a drifted manifest raises
:class:`SchemaDrift` before any replay happens.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.persist.store import (
    PersistError,
    SnapshotStore,
    canonical_json,
)

#: Snapshot payload format; bumped whenever an unchanged scenario's
#: barrier coordinates or fingerprint move.  2: unit/pilot handles stopped
#: dispatching unobserved per-state events, so a format-1 barrier's
#: ``steps`` names a different point of the same run.  3: the unobserved
#: final event went the same way (one fewer step per unit), and the DB
#: fingerprint became ``{"docs": [...], "pending": {...}}`` per collection.
CHECKPOINT_FORMAT = 3

#: Where the checkpoint workflow is documented (error-message pointer).
DOCS_POINTER = "README.md 'Crash-safe state & resume'"


class SchemaDrift(PersistError):
    """The snapshot's state-manifest digest does not match this tree's."""


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
    session = fn(seed, **params)
    session.provenance = Provenance(
        name=name, module=fn.__module__, qualname=fn.__qualname__,
        seed=seed, params=dict(params))
    return session


# ----------------------------------------------------------- schema gate
def manifest_digest(path: Optional[str] = None) -> Optional[str]:
    """sha256 of the committed ``state-manifest.json`` (the schema gate).

    ``None`` when no manifest is found — snapshots then record no gate
    and restores skip the check (useful outside a repo checkout).
    """
    from repro.analysis.simlint import resolve_cli_path
    candidate = Path(resolve_cli_path(path or "state-manifest.json",
                                      must_exist=False))
    if not candidate.exists():
        return None
    return hashlib.sha256(candidate.read_bytes()).hexdigest()


# ------------------------------------------------------- the fingerprint
def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-able, order-stable form.

    Anything the fingerprint walk may encounter becomes deterministic
    plain data; object identities (memory addresses) never leak in, so
    the digest is stable across processes.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        # NOT dataclasses.asdict: that deep-copies field values, and a
        # description field may hold a callable bound to a live object
        # graph (suspended generators included).  A shallow field walk
        # routes every value back through this canonicalizer instead.
        from dataclasses import fields
        return {f.name: canonical(getattr(value, f.name))
                for f in fields(value)}
    if callable(value):
        name = getattr(value, "__qualname__",
                       getattr(value, "__name__", type(value).__name__))
        return f"<callable:{name}>"
    uid = getattr(value, "uid", None)
    if isinstance(uid, str):
        return f"<{type(value).__name__}:{uid}>"
    return f"<{type(value).__name__}>"


def state_fingerprint(session) -> Dict[str, Any]:
    """The canonical walk over every snapshot-safe piece of state."""
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
                        for comp in session.components
                        if hasattr(comp, "snapshot_state")]
    return canonical(fp)


def state_digest(session) -> str:
    """sha256 over the canonical JSON form of the fingerprint."""
    return hashlib.sha256(
        canonical_json(state_fingerprint(session)).encode()).hexdigest()


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
    engine = session.env.snapshot_state()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "kind": "session_checkpoint",
        "provenance": session.provenance.payload(),
        "barrier": {"now": engine["now"], "steps": engine["steps"],
                    "seq": engine["seq"]},
        "state_digest": state_digest(session),
        "manifest_digest": manifest_digest(),
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
    parameters, replays the engine to the barrier and verifies the
    state digest.  Returns the restored session, byte-identical (by
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
    recorded_schema = record.get("manifest_digest")
    current_schema = manifest_digest()
    if (recorded_schema is not None and current_schema is not None
            and recorded_schema != current_schema):
        raise SchemaDrift(
            "snapshot was taken under a different state-manifest.json "
            "(the checkpoint schema); run 'python -m repro audit-state "
            f"--check' and see {DOCS_POINTER}")
    prov = record["provenance"]
    # Import the defining module so out-of-tree scenarios register.
    importlib.import_module(prov["module"])
    session = launch(prov["name"], seed=prov["seed"], **prov["params"])
    barrier = record["barrier"]
    session.env.replay_to(barrier["steps"], now=barrier["now"])
    engine = session.env.snapshot_state()
    if engine["now"] != barrier["now"] or engine["seq"] != barrier["seq"]:
        raise RestoreMismatch(
            f"replay reached step {barrier['steps']} at "
            f"now={engine['now']} seq={engine['seq']}, but the snapshot "
            f"recorded now={barrier['now']} seq={barrier['seq']}; the "
            f"scenario is not deterministic")
    actual = state_digest(session)
    if actual != record["state_digest"]:
        raise RestoreMismatch(
            f"state digest after replay is {actual[:16]}…, snapshot "
            f"recorded {record['state_digest'][:16]}…; state outside "
            f"the scenario recipe mutated between launch and "
            f"checkpoint (see {DOCS_POINTER})")
    return session


def fingerprint_diff(a: Dict[str, Any], b: Dict[str, Any],
                     prefix: str = "") -> list:
    """Paths where two fingerprints differ (debugging aid for tests)."""
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append(f"{prefix}.{key} (only one side)")
            else:
                diffs.extend(fingerprint_diff(a[key], b[key],
                                              f"{prefix}.{key}"))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{prefix} (length {len(a)} vs {len(b)})")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                diffs.extend(fingerprint_diff(x, y, f"{prefix}[{i}]"))
    elif a != b:
        diffs.append(f"{prefix}: {a!r} != {b!r}")
    return diffs


__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointInfo",
    "Provenance",
    "RestoreMismatch",
    "SchemaDrift",
    "canonical",
    "checkpoint_session",
    "fingerprint_diff",
    "launch",
    "manifest_digest",
    "restore",
    "scenario",
    "scenario_names",
    "state_digest",
    "state_fingerprint",
]
