"""repro.persist — crash-safe checkpoint/restore and resumable sweeps.

The persistence layer the paper's MongoDB coordination store implies
but never details: durable state that survives a killed process.

Three pieces:

* :class:`~repro.persist.store.SnapshotStore` — content-addressed,
  atomic-rename snapshot records with named refs.
* :mod:`~repro.persist.checkpoint` — replay-based session checkpoints:
  record (cell kind, seed, params) + the engine's replay barrier + a
  state digest; :func:`restore` rebuilds the session in a fresh
  process and proves byte-identical state.  A scenario is a sweep cell
  kind, launched to its body's mid-flight yield.
* :class:`~repro.persist.journal.SweepJournal` — per-cell completion
  journal that makes ``python -m repro sweep --resume`` re-run only
  unfinished cells after a crash.

Quick start::

    from repro.experiments.sweeps import finish
    from repro.persist import launch, restore

    session = launch("bag", seed=7, fault_rate=0.25)
    session.env.run(until=120.0)
    session.checkpoint("ckpt-store")      # survives kill -9 from here
    ...
    session = restore("ckpt-store")       # fresh process, same state
    row = finish(session.cell)            # the chaos bag cell's row
"""

from repro.persist.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointInfo,
    Provenance,
    RestoreMismatch,
    SchemaDrift,
    checkpoint_session,
    fingerprint_diff,
    fingerprint_schema,
    launch,
    restore,
    scenario_names,
    state_digest,
    state_fingerprint,
)
from repro.persist.journal import JournalError, SweepJournal
from repro.persist.store import (
    STORE_FORMAT,
    PersistError,
    SnapshotStore,
    StoreError,
    atomic_write,
    canonical_json,
    payload_digest,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "STORE_FORMAT",
    "CheckpointInfo",
    "JournalError",
    "PersistError",
    "Provenance",
    "RestoreMismatch",
    "SchemaDrift",
    "SnapshotStore",
    "StoreError",
    "SweepJournal",
    "atomic_write",
    "canonical_json",
    "checkpoint_session",
    "fingerprint_diff",
    "fingerprint_schema",
    "launch",
    "payload_digest",
    "restore",
    "scenario_names",
    "state_digest",
    "state_fingerprint",
]
