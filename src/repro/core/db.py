"""A MongoDB stand-in: the client<->agent coordination channel.

RADICAL-Pilot coordinates Pilot-/Unit-Managers and agents through a
shared MongoDB instance (paper Figure 3, steps U.2/U.3).  This module
provides what that protocol uses — collections of dict documents read
and written by ``_id`` (``insert``/``get``/``set``/``advance``), a
per-pilot pending queue the Unit-Manager fills and the agent drains in
bulk, and an event-based ``watch`` so simulation processes can block on
document changes — plus a modeled round-trip latency per operation
batch.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

from repro.sim.engine import Environment, Event


class DuplicateKey(KeyError):
    """``insert`` of an ``_id`` the collection already holds."""


class Collection:
    """One named collection of documents, keyed by ``_id``."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        #: _id -> document, in insertion order (nothing is ever deleted).
        self._docs: Dict[str, Dict[str, Any]] = {}
        self._id_seq = itertools.count(1)
        self._watchers: List[Event] = []
        #: pilot uid -> unit uids queued for it, oldest first.
        self._pending: Dict[str, List[str]] = {}

    def insert(self, doc: Dict[str, Any]) -> str:
        """Insert a document, assigning ``_id`` if missing."""
        doc = dict(doc)
        _id = doc.setdefault("_id", f"{self.name}.{next(self._id_seq)}")
        if _id in self._docs:
            raise DuplicateKey(f"{self.name}: duplicate _id {_id!r}")
        self._docs[_id] = doc
        self._notify()
        return _id

    def get(self, _id: str) -> Dict[str, Any]:
        """The (live) document with this ``_id``; KeyError if none."""
        try:
            return self._docs[_id]
        except KeyError:
            raise KeyError(f"{self.name}: no document {_id!r}") from None

    def get_many(self, ids) -> List[Dict[str, Any]]:
        """The documents with these ``_id``s, in the order given (one
        bulk read instead of a round trip per document)."""
        docs = self._docs
        try:
            return [docs[_id] for _id in ids]
        except KeyError as exc:
            raise KeyError(
                f"{self.name}: no document {exc.args[0]!r}") from None

    def set(self, _id: str, fields: Dict[str, Any]) -> None:
        """Apply ``fields`` ($set semantics) to one document."""
        self.get(_id).update(fields)
        self._notify()

    def advance(self, _id: str, state, now: float, **extra) -> None:
        """Append ``state`` to a document's history (single-writer
        protocol) and set ``extra`` alongside, as one change."""
        doc = self.get(_id)
        doc.update(extra)
        doc["state"] = value = state.value
        doc["history"].append((now, value))
        self._notify()

    def enqueue(self, pilot: str, _id: str) -> None:
        """Queue document ``_id`` for ``pilot``'s agent to claim."""
        self._pending.setdefault(pilot, []).append(_id)

    def drain(self, pilot: str) -> List[Dict[str, Any]]:
        """Hand over (and forget) everything queued for ``pilot``, in
        queueing order.  Each document is delivered exactly once."""
        return [self._docs[_id] for _id in self._pending.pop(pilot, ())]

    def snapshot_state(self) -> dict:
        """Documents in insertion order plus the undrained queues."""
        return {"docs": list(self._docs.values()),
                "pending": dict(self._pending)}

    def watch(self) -> Event:
        """Event firing at the next mutation of this collection."""
        event = Event(self.env)
        self._watchers.append(event)
        return event

    def _notify(self) -> None:
        watchers, self._watchers = self._watchers, []
        for event in watchers:
            if not event.triggered:
                event.succeed()

    def __len__(self) -> int:
        return len(self._docs)


class Database:
    """The shared store: named collections + a modeled RTT."""

    def __init__(self, env: Environment, rtt: float = 0.02):
        self.env = env
        self.rtt = rtt
        self._collections: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(self.env, name)
        return self._collections[name]

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: every collection's documents and
        pending queues (values are canonicalized by the persist layer,
        not here)."""
        return {name: col.snapshot_state()
                for name, col in sorted(self._collections.items())}

    def roundtrip(self) -> Event:
        """One client<->DB network round-trip (yield it)."""
        event = Event(self.env)

        def _fire(_):
            event.succeed()
        self.env.timeout(self.rtt).callbacks.append(_fire)
        return event
